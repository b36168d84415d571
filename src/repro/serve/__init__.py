"""Characterization-as-a-service: the long-lived ``repro serve`` daemon.

The paper's macromodel is a table downstream timing tools query millions
of times; paying CLI startup (library load, thresholds, calibration) per
query is the wrong shape for that traffic.  This package keeps all of it
warm in one process and serves JSON over HTTP and unix sockets:

* :mod:`repro.serve.protocol` -- the request language (the CLI's gate
  and edge specs), validation, and the shared report renderer that makes
  served results bit-identical to ``repro delay``;
* :mod:`repro.serve.cache` -- the TTL + LRU response cache
  (``REPRO_SERVE_TTL`` / ``REPRO_SERVE_CACHE_MAX``);
* :mod:`repro.serve.coalesce` -- the :class:`ShotBroker` that merges
  concurrent simulations into one batched call
  (``REPRO_SERVE_COALESCE`` / ``REPRO_SERVE_GATHER`` /
  ``REPRO_SERVE_LANES``);
* :mod:`repro.serve.state` -- warm gate libraries and calculators;
* :mod:`repro.serve.server` -- the HTTP/unix listeners, ``/metrics``
  (OpenMetrics) and the SIGTERM drain;
* :mod:`repro.serve.client` -- a stdlib client for tests and load
  generation.
"""

from .cache import (
    CACHE_MAX_ENV_VAR,
    TTL_ENV_VAR,
    TtlLruCache,
    serve_cache_max,
    serve_ttl,
)
from .client import ServeClient, ServeError
from .coalesce import (
    COALESCE_ENV_VAR,
    GATHER_ENV_VAR,
    LANES_ENV_VAR,
    ShotBroker,
    coalescing_enabled,
    serve_gather,
    serve_lanes,
)
from .protocol import (
    BadRequest,
    CharacterizeQuery,
    DelayQuery,
    build_gate,
    format_delay_report,
    parse_characterize_request,
    parse_delay_request,
    parse_edge_spec,
)
from .server import ReproServer, ServeApp
from .state import GateContext, ServeState

__all__ = [
    "TTL_ENV_VAR", "CACHE_MAX_ENV_VAR", "COALESCE_ENV_VAR",
    "GATHER_ENV_VAR", "LANES_ENV_VAR",
    "TtlLruCache", "serve_ttl", "serve_cache_max",
    "ShotBroker", "coalescing_enabled", "serve_gather", "serve_lanes",
    "BadRequest", "DelayQuery", "CharacterizeQuery",
    "parse_delay_request", "parse_characterize_request",
    "parse_edge_spec", "build_gate", "format_delay_report",
    "GateContext", "ServeState", "ServeApp", "ReproServer",
    "ServeClient", "ServeError",
]
