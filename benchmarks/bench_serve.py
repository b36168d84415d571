"""Serve daemon load benchmark: coalesced burst + warm-cache latency.

The daemon's performance story has two legs.  First, *coalescing*:
delay queries that arrive together are gathered into one batched call,
which runs each lane on the scalar solver.  Second, *warm caches*: an
exact repeat is served from the TTL+LRU response cache as stored bytes,
orders of magnitude below a cold solve.

This benchmark boots real in-process servers (HTTP over localhost, the
exact ``repro serve`` stack) and drives them with a client-side load
generator:

* **serial arm** -- coalescing off, one client issuing N distinct cold
  queries back to back: the per-request scalar floor.
* **coalesced arm** -- coalescing on, a handful of concurrent clients
  splitting the same N queries into multi-query requests; the server
  fans them over its worker pool and the broker flushes them as one
  lane-capped batch.
* **warm arm** -- the same N queries replayed per-request against the
  coalesced server: pure cache hits.

Both cold arms start from a fresh :class:`ServeState` with the gate
context prewarmed (one out-of-band query), so the timed region is query
solving, not library characterization.  Bit-identity is asserted
unconditionally: the coalesced arm's response documents must equal the
serial arm's (computed by a different server instance), and the warm
arm must replay byte-identical responses.  ``BENCH_serve.json`` records
queries/sec and client-side p50/p99 per arm plus the coalesced arm's
speedup over the serial arm (recorded, not gated).

The workload is a fixed 48-query burst rather than a scaled sweep, so
every run fills the same lanes.
"""

import json
import os
import statistics
import threading
import time

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.serve.state import ServeState

QUERIES = 48
CLIENTS = 6

#: Out-of-band context/calibration warmup (never a measured query).
WARMUP = {"gate": "inv", "load": "100f", "edges": ["a:fall:333ps"]}

#: Gather/lane settings for the coalesced server: a generous dwell so
#: the whole burst lands in one flush, and lanes sized to the burst.
SERVE_ENV = {"REPRO_SERVE_GATHER": "0.1", "REPRO_SERVE_LANES": str(QUERIES)}


def make_queries():
    """Distinct single-edge queries (distinct taus -> all cache misses)."""
    return [{"gate": "inv", "load": "100f", "edges": [f"a:fall:{400 + 5 * i}ps"]}
            for i in range(QUERIES)]


def boot(coalesce):
    """A fresh server (fresh state: empty caches, no warm contexts)."""
    server = ReproServer(port=0, state=ServeState(), coalesce=coalesce)
    server.start()
    with ServeClient(server.http_endpoint) as client:
        client.delay(WARMUP)  # build the gate context off the clock
    return server


def run_serial(server, queries):
    """One client, one query per request, back to back."""
    latencies, outcomes = [], []
    with ServeClient(server.http_endpoint) as client:
        t0 = time.perf_counter()
        for query in queries:
            t1 = time.perf_counter()
            _, headers, body = client.delay_raw(query)
            latencies.append(time.perf_counter() - t1)
            outcomes.append((headers.get("x-repro-cache"), body))
        wall = time.perf_counter() - t0
    return wall, latencies, outcomes


def run_burst(server, queries):
    """CLIENTS concurrent clients, each sending its slice as one
    multi-query request; returns per-query documents in query order."""
    chunks = [(i, queries[i::CLIENTS]) for i in range(CLIENTS)]
    latencies = [None] * CLIENTS
    results = {}
    barrier = threading.Barrier(CLIENTS + 1)

    def fire(slot, chunk):
        with ServeClient(server.http_endpoint) as client:
            client.healthz()  # connect before the burst
            barrier.wait()
            t1 = time.perf_counter()
            document = client.delay({"queries": chunk})
            latencies[slot] = time.perf_counter() - t1
            results[slot] = document["results"]

    threads = [threading.Thread(target=fire, args=(slot, chunk))
               for slot, chunk in chunks]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - t0
    documents = [None] * len(queries)
    for slot, docs in results.items():
        for j, doc in enumerate(docs):
            documents[slot + j * CLIENTS] = doc
    return wall, latencies, documents


def arm_stats(wall, latencies, n_queries):
    ordered = sorted(latencies)
    return {
        "wall_seconds": wall,
        "queries_per_second": n_queries / wall if wall > 0 else float("inf"),
        "request_p50_ms": statistics.median(ordered) * 1e3,
        "request_p99_ms": ordered[min(len(ordered) - 1,
                                      int(0.99 * len(ordered)))] * 1e3,
    }


def test_serve_load_coalescing_and_warm_cache(benchmark, request):
    queries = make_queries()

    saved = {k: os.environ.get(k) for k in SERVE_ENV}
    os.environ.update(SERVE_ENV)
    try:
        serial_server = boot(coalesce=False)
        try:
            serial_wall, serial_lat, serial_outcomes = run_serial(
                serial_server, queries)
        finally:
            serial_server.stop()

        coalesced_server = boot(coalesce=True)
        try:
            cold_wall, cold_lat, cold_documents = benchmark.pedantic(
                lambda: run_burst(coalesced_server, queries),
                rounds=1, iterations=1)
            warm_wall, warm_lat, warm_outcomes = run_serial(
                coalesced_server, queries)
        finally:
            coalesced_server.stop()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    # Every serial/cold query was a miss; every warm one a cache hit.
    assert all(cache == "miss" for cache, _ in serial_outcomes)
    assert all(cache == "hit" for cache, _ in warm_outcomes)
    assert all(doc is not None for doc in cold_documents)

    # Bit-identity: coalesced lanes match the serial scalar path (two
    # independent server instances), and the warm replay returns bytes
    # whose documents match both.
    for (_, serial_body), cold_doc, (_, warm_body) in zip(
            serial_outcomes, cold_documents, warm_outcomes):
        assert json.loads(serial_body) == cold_doc
        assert serial_body == warm_body

    speedup = serial_wall / cold_wall if cold_wall > 0 else float("inf")
    serial_stats = arm_stats(serial_wall, serial_lat, QUERIES)
    cold_stats = arm_stats(cold_wall, cold_lat, QUERIES)
    warm_stats = arm_stats(warm_wall, warm_lat, QUERIES)
    print(f"\nserve load ({QUERIES} queries, {CLIENTS} clients): "
          f"serial {serial_stats['queries_per_second']:.1f} q/s, "
          f"coalesced {cold_stats['queries_per_second']:.1f} q/s "
          f"({speedup:.2f}x), warm {warm_stats['queries_per_second']:.0f} q/s "
          f"(p50 {warm_stats['request_p50_ms']:.2f} ms)")
    request.node.bench_extra = {
        "queries": QUERIES,
        "clients": CLIENTS,
        "serial": serial_stats,
        "coalesced_cold": cold_stats,
        "warm": warm_stats,
        "coalescing_speedup": speedup,
    }

    assert warm_stats["request_p50_ms"] < serial_stats["request_p50_ms"]
