"""Machine-readable benchmark records: ``BENCH_<name>.json``.

The autouse fixture in ``conftest.py`` runs every benchmark under an
enabled telemetry recorder and hands the captured registry here; each
benchmark module gets one ``BENCH_<name>.json`` (``bench_fig2_1.py`` ->
``BENCH_fig2_1.json``) holding, per test, the wall time, solver
iteration totals, and the cache hit rate -- the perf trajectory the
ROADMAP asks for, recorded instead of guessed.

Files land in the current working directory, or ``REPRO_BENCH_DIR``
when set.  Set ``REPRO_BENCH_TELEMETRY=0`` to run the benchmarks with
telemetry fully disabled (overhead baselining); no JSON is written
then.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.metrics import counter_total
from repro.obs.profile import phase_breakdown

BENCH_DIR_ENV_VAR = "REPRO_BENCH_DIR"
BENCH_TELEMETRY_ENV_VAR = "REPRO_BENCH_TELEMETRY"


def telemetry_enabled() -> bool:
    value = os.environ.get(BENCH_TELEMETRY_ENV_VAR, "1").strip().lower()
    return value not in ("0", "false", "no", "off")


def bench_output_dir() -> Path:
    return Path(os.environ.get(BENCH_DIR_ENV_VAR, "") or ".")


def write_bench_result(module_stem: str, test_name: str,
                       payload: Dict[str, Any], wall_seconds: float,
                       scale: float,
                       extra: Optional[Dict[str, Any]] = None) -> Path:
    """Fold one benchmark's telemetry into its module's JSON record.

    ``extra`` merges benchmark-specific fields (e.g. a measured speedup
    ratio) into the test's entry.  A missing output directory is
    created, and an unreadable or empty prior record is simply replaced
    -- the trajectory may legitimately be empty on a first run.
    """
    name = module_stem[len("bench_"):] if module_stem.startswith("bench_") \
        else module_stem
    out_dir = bench_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    counters = payload.get("counters", {})
    hits = counter_total(counters, "cache.hits")
    misses = counter_total(counters, "cache.misses")
    lookups = hits + misses
    entry = {
        "wall_seconds": wall_seconds,
        "scale": scale,
        "newton_iterations": counter_total(counters, "spice.newton.iterations"),
        "newton_solves": counter_total(counters, "spice.newton.solves"),
        "solver_retries": counter_total(counters, "spice.retries"),
        "transient_analyses": counter_total(counters, "spice.transient.analyses"),
        "tasks_completed": counter_total(counters, "parallel.tasks.completed"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": (hits / lookups) if lookups else None,
    }
    # Per-driver phase seconds (assembly/factorize/...) when the run's
    # telemetry captured them; `repro stats --trend` attributes wall
    # regressions to whichever phase moved.
    phases = phase_breakdown(payload.get("histograms", {}))
    if phases:
        entry["phases"] = phases
    if extra:
        entry.update(extra)
    document = {"schema": 1, "kind": "repro-bench", "name": name, "tests": {}}
    if path.exists():
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if isinstance(existing, dict) and isinstance(
                    existing.get("tests"), dict):
                document["tests"] = existing["tests"]
        except (OSError, json.JSONDecodeError):
            pass  # unreadable prior record: overwrite with this run's
    document["tests"][test_name] = entry
    document["wall_seconds"] = sum(
        t.get("wall_seconds", 0.0) for t in document["tests"].values())
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return path
