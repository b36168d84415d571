"""The serve workloads: a real ``repro serve`` process under closed-loop load.

Callers of a delay service are synchronous timing tools, so the load is
a closed loop: one client sends its next request when the previous
answer arrives.  (With two clients, identical runs differed by up to 2x
in throughput, mostly in how the two clients' shots happened to
coalesce; no useful bound absorbs that.)

Queries are seeded NAND3 oracle queries drawn as a timing tool would
send them: each edge's transition time from a 16-point log grid over
50-2000 ps (STA slew bins) and its arrival an integer picosecond offset
in ±500 ps, falling and rising edges equally often.  What a fresh query
costs the server is the number of dual-input simulations it runs: one
per input that falls inside the proximity window of the inputs folded
before it.  Drawn freely, a 3-edge query ran 0, 1 or 2 of them (8%, 27%
and 65% of 142 sampled queries) and a 2-edge query 0 or 1 (18% and 82%
of 101), and how many of each a 10-second run happened to draw moved
its throughput by about 10%.  So the traffic comes in blocks with a
fixed count of each (direction, edges, dual simulations) kind, near
those shares, plus exact replays of earlier queries (30% of single
requests), which hit the response cache.  Within a kind, a draw is kept
when the single-input table ``serve_singles.json`` settles its cost
(see :func:`dual_simulations`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .common import BENCH, ROOT, clean_environ, finite, peak_rss_mb, positive_finite, scratch_dir
from .trace import now
from .workloads import OpRecord, Phase, Workload

#: Transition-time bins (ps): 16 log-spaced points over 50-2000 ps.
TAU_GRID_PS = tuple(int(round(50 * 40 ** (i / 15))) for i in range(16))

#: Edge arrivals are integer picoseconds in ±OFFSET_PS.
OFFSET_PS = 500

#: Single-input delay and transition time (ps) of the served NAND3 per
#: direction, pin and transition-time bin, recorded once from the
#: simulator (``python3 -m bench.serve_load``).  It shapes the traffic,
#: so it stays fixed while the program changes.
SINGLES_PATH = BENCH / "serve_singles.json"

#: After one input is folded in, the window the next input must fall
#: inside, as a share of the reference input's window alone (its
#: Δ¹ + τ¹), by direction and by whether the folded input arrived inside
#: the reference's delay Δ¹ (it then moves the delay as well as the
#: transition time).  Over 764 sampled merges: falling 0.49-0.96 and
#: 0.61-1.02, rising 1.01-2.80 and 0.84-1.71; widened here.
MERGED_WINDOW = {("fall", True): (0.45, 1.0), ("fall", False): (0.58, 1.06),
                 ("rise", True): (0.97, 2.95), ("rise", False): (0.8, 1.8)}

#: Share of a window by which an arrival must clear its edge, and
#: picoseconds by which alone-output crossings must differ, for the
#: table to settle a query's cost.
WINDOW_MARGIN = 0.02
DOMINANCE_MARGIN_PS = 1.0

#: The set-up queries: one falling and one rising 3-edge NAND3 query.
WARM_QUERIES = (
    {"gate": "nand3", "edges": ["a:fall:500ps:0ps", "b:fall:300ps:40ps", "c:fall:200ps:-30ps"]},
    {"gate": "nand3", "edges": ["a:rise:500ps:0ps", "b:rise:300ps:40ps", "c:rise:200ps:-30ps"]},
)

#: One block of twenty single requests: (direction, edges, dual-input
#: simulations) per fresh query, ``None`` per replay.  Edge counts are
#: 57/36/7% of the fresh queries.  Replays and queries that simulate
#: nothing are 40% of requests and 1-simulation queries 35%, so the
#: median request sits well inside the 1-simulation ones, where which
#: of them a run draws moves it least.
SINGLE_BLOCK = ((None,) * 6
                + (("fall", 1, 0), ("fall", 2, 1), ("fall", 2, 1), ("fall", 3, 0),
                   ("fall", 3, 1), ("fall", 3, 2), ("fall", 3, 2))
                + (("rise", 2, 1), ("rise", 2, 1), ("rise", 2, 1), ("rise", 3, 1),
                   ("rise", 3, 2), ("rise", 3, 2), ("rise", 3, 2)))

#: One 8-query batch request: two replays of queries from earlier
#: requests and fresh queries of every edge count, so every request
#: costs the same six dual-input simulations.
BATCH_BLOCK = (None, None, ("fall", 1, 0), ("fall", 3, 0), ("fall", 3, 2),
               ("rise", 2, 1), ("rise", 3, 1), ("rise", 3, 2))


def load_singles() -> Dict[str, Any]:
    with open(SINGLES_PATH) as handle:
        return json.load(handle)


def dual_simulations(direction: str, edges: List[Tuple[str, int, int]],
                     singles: Dict[str, Any]) -> Optional[int]:
    """How many dual-input simulations the server runs for a fresh
    query of ``(pin, tau ps, arrival ps)`` edges, or ``None`` when the
    single-input table cannot settle it.

    It follows the proximity loop: inputs in dominance order (earliest
    alone-output crossing ``t + Δ¹`` first) are folded in while each
    arrives, after the reference, inside the window of what came before;
    the first one outside ends the loop.  The first window is the
    reference's ``Δ¹ + τ¹`` from the table; a later one lies anywhere in
    :data:`MERGED_WINDOW` times it, and an arrival inside that range is
    not settled.  Neither is an arrival within :data:`WINDOW_MARGIN` of
    a window's edge or of the reference's ``Δ¹``.
    """
    column = {tau: k for k, tau in enumerate(singles["tau_ps"])}
    delay = {pin: singles["delay_ps"][direction][pin][column[tau]] for pin, tau, _ in edges}
    ttime = {pin: singles["ttime_ps"][direction][pin][column[tau]] for pin, tau, _ in edges}
    at = {pin: t for pin, _, t in edges}
    crossing = sorted(at[pin] + delay[pin] for pin in at)
    if any(b - a < DOMINANCE_MARGIN_PS for a, b in zip(crossing, crossing[1:])):
        return None
    order = sorted(at, key=lambda pin: at[pin] + delay[pin])
    reference = order[0]
    window = delay[reference] + ttime[reference]
    low = high = 1.0
    for folded, pin in enumerate(order[1:]):
        separation = at[pin] - at[reference]
        if separation >= high * window * (1 + WINDOW_MARGIN):
            return folded
        if separation >= low * window * (1 - WINDOW_MARGIN) or \
                abs(separation - delay[reference]) < WINDOW_MARGIN * window:
            return None
        low, high = MERGED_WINDOW[direction, separation < delay[reference]]
    return len(order) - 1


def _fresh_query(rng: random.Random, singles: Dict[str, Any], direction: str,
                 n_edges: int, n_duals: int) -> Dict[str, Any]:
    """A seeded query with ``n_edges`` ``direction`` edges that costs
    ``n_duals`` dual-input simulations: draws until one settles at that
    count."""
    while True:
        edges = [(pin, rng.choice(TAU_GRID_PS), rng.randint(-OFFSET_PS, OFFSET_PS))
                 for pin in sorted(rng.sample("abc", n_edges))]
        if dual_simulations(direction, edges, singles) == n_duals:
            return {"gate": "nand3",
                    "edges": [f"{pin}:{direction}:{tau}ps:{t}ps" for pin, tau, t in edges]}


def query_stream(seed: int, count: int, block_mix=SINGLE_BLOCK
                 ) -> List[Tuple[Dict[str, Any], Optional[int], Optional[int]]]:
    """``count`` seeded queries as (query, index of the original it
    replays or ``None``, dual-input simulations planned for a fresh
    query or ``None``).

    The mix is exact per block (seeded order within it), as
    ``block_mix`` lists it, so every run sees the same mix.  A replay
    repeats a fresh query of an earlier block, which was answered before
    the replay is sent; in the first block, which warms the server up, it
    repeats an earlier query of the same block.
    """
    rng = random.Random(seed)
    singles = load_singles()
    stream: List[Tuple[Dict[str, Any], Optional[int], Optional[int]]] = []
    fresh: List[int] = []
    while len(stream) < count:
        block = list(block_mix)
        rng.shuffle(block)
        if not fresh:
            block.sort(key=lambda slot: slot is None)  # something to replay first
        earlier = list(fresh)
        for slot in block:
            if slot is None:
                original = rng.choice(earlier or fresh)
                stream.append((stream[original][0], original, None))
            else:
                fresh.append(len(stream))
                stream.append((_fresh_query(rng, singles, *slot), None, slot[2]))
    return stream[:count]


def measure_singles() -> Dict[str, Any]:
    """The table :data:`SINGLES_PATH` holds, from the simulator (the
    served NAND3 at its default 100 fF load, in oracle mode)."""
    from repro.charlib import GateLibrary
    from repro.core import DelayCalculator
    from repro.serve.protocol import build_gate

    calc = DelayCalculator(GateLibrary.characterize(build_gate("nand3", "default", 100e-15),
                                                    mode="oracle"))
    table: Dict[str, Any] = {"tau_ps": list(TAU_GRID_PS), "delay_ps": {}, "ttime_ps": {}}
    for direction in ("fall", "rise"):
        for key, measure in (("delay_ps", calc.single_delay), ("ttime_ps", calc.single_ttime)):
            table[key][direction] = {
                pin: [round(measure(pin, direction, tau * 1e-12) * 1e12, 3)
                      for tau in TAU_GRID_PS] for pin in "abc"}
    return table


class ServerProcess:
    """One ``repro serve --port 0`` child process.

    Traced servers start through ``bench/serve_entry.py``, which wraps
    the program's callables and writes the spans when the server exits.
    """

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self.dir = scratch_dir("serve")
        self.trace_path = self.dir / "trace.json"
        self.proc: Optional[subprocess.Popen] = None
        self._log = None
        self.endpoint = ""

    def start(self) -> "ServerProcess":
        """Spawn, wait for the ready file, answer the set-up queries.

        A server that fails to come up is stopped before the error
        propagates, so no child outlives a failed start.
        """
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def _start(self) -> None:
        from repro.serve.client import ServeClient

        ready = self.dir / "ready.json"
        entry = ([str(BENCH / "serve_entry.py"), str(self.trace_path)] if self.traced
                 else ["-m", "repro"])
        env = clean_environ(self.dir / "cache", **({"REPRO_OBS": "1"} if self.traced else {}))
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", "--ready-file", str(ready)],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 120.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   f"{self.log_tail()}")
            if time.monotonic() > deadline:
                raise TimeoutError("server did not become ready in 120 s")
            try:
                self.endpoint = json.loads(ready.read_text())["http"]
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        with ServeClient(self.endpoint, timeout=120.0) as client:
            for query in WARM_QUERIES:
                client.delay(query)

    def log_tail(self) -> str:
        try:
            return (self.dir / "server.log").read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def metrics_text(self) -> str:
        from repro.serve.client import ServeClient

        with ServeClient(self.endpoint) as client:
            return client.metrics()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains, then exits) and wait; kill if stuck."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _document_output(document: Dict[str, Any]) -> Tuple[List[float], str]:
    result = document["result"]
    return ([result["delay"], result["ttime"], result["raw_delay"], result["raw_ttime"]],
            _sha(document["report"]))


class ServeWorkload(Workload):
    """One closed-loop client against one server; subclasses pick the
    request shape.

    The stream's first block warms the server up; op ``i`` is the
    ``i``-th request after it.
    """

    op_unit = "request"
    queries_per_request = 1
    block_mix = SINGLE_BLOCK
    stream_length = 2000    # queries: 10 s runs use a few hundred

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Optional[ServerProcess] = None
        self.stream = query_stream(seed, self.stream_length, self.block_mix)
        self.warm_documents: Dict[int, Dict[str, Any]] = {}

    def position(self, index: int) -> int:
        """Stream position of the first query of op ``index``."""
        return len(self.block_mix) + index * self.queries_per_request

    def _body(self, position: int) -> Dict[str, Any]:
        queries = [q for q, _, _ in self.stream[position:position + self.queries_per_request]]
        return queries[0] if self.queries_per_request == 1 else {"queries": queries}

    def body(self, index: int) -> Dict[str, Any]:
        return self._body(self.position(index))

    def _documents(self, data: bytes) -> List[Dict[str, Any]]:
        document = json.loads(data)
        return document["results"] if self.queries_per_request > 1 else [document]

    def setup(self):
        from repro.serve.client import ServeClient  # noqa: F401  (import before timing)

        self.setup_window = self.restart(traced=False)
        return {}

    def restart(self, traced: bool) -> Tuple[float, float]:
        """Replace the server with a fresh one; returns its set-up window."""
        self.close()
        t0 = now()
        self.server = ServerProcess(traced=traced)
        self.server.start()
        return t0, now()

    def cold_setup_seconds(self, meter) -> float:
        t0 = now()
        with ServerProcess():
            return meter.normalize(t0, now())

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self) -> None:
        """Fill the oracle's single-input memo, then send the stream's
        first block.

        The memo takes one 1-edge query per pin, direction and
        transition-time bin, one per request (15% faster than eight per
        request).  A long-running server answers from a full memo;
        without this the first hundred or so measured requests pay for
        filling it, and how many fall inside a run decides its
        throughput.  The first block gives the measured replays
        something to replay, and the first coalesced request of a
        process costs about 1.5x the next ones.
        """
        from repro.serve.client import ServeClient

        queries = [{"gate": "nand3", "edges": [f"{pin}:{direction}:{tau}ps"]}
                   for pin in "abc" for direction in ("fall", "rise") for tau in TAU_GRID_PS]
        with ServeClient(self.server.endpoint, timeout=60.0) as client:
            for query in queries:
                client.delay(query)
            for position in range(0, len(self.block_mix), self.queries_per_request):
                status, _, data = client.request("POST", "/delay", self._body(position))
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: HTTP {status}: {data[:200]!r}")
                for k, doc in enumerate(self._documents(data)):
                    self.warm_documents[position + k] = doc

    def run_phase(self, start: int, seconds: Optional[float] = None,
                  count: Optional[int] = None) -> Phase:
        """Requests from ``start``, one at a time, until ``count`` were
        sent or ``seconds`` passed."""
        from repro.serve.client import ServeClient

        phase = Phase(start=now())
        index = start
        with ServeClient(self.server.endpoint, timeout=60.0) as client:
            while (count is None or index < start + count) and \
                    (seconds is None or not self.spent(phase.start, seconds)):
                with self.loadgen():
                    body = self.body(index)
                t0 = now()
                try:
                    status, _, data = client.request("POST", "/delay", body)
                    record = OpRecord(index, t0, now() - t0, float(self.queries_per_request),
                                      raw=data)
                    if status != 200:
                        record.error = f"HTTP {status}: {data[:200]!r}"
                except (OSError, http.client.HTTPException) as exc:  # timeouts, drops
                    record = OpRecord(index, t0, now() - t0, 0.0, error=repr(exc))
                with self.loadgen():
                    phase.records.append(record)
                index += 1
        phase.end = now()
        for record in phase.records:
            if record.error is None:
                self._decode(record)
        return phase

    def _decode(self, record: OpRecord) -> None:
        """Parse a response: the documents go to ``raw``, the checked
        sections to ``output``."""
        record.raw = self._documents(record.raw)
        times, text = {}, {}
        for k, doc in enumerate(record.raw):
            times[f"q{k}"], text[f"q{k}"] = _document_output(doc)
        record.output = {"times": times, "text": text}

    def invariants(self, record):
        problems = []
        for doc in record.raw:
            if not doc.get("ok"):
                problems.append(f"response not ok: {doc}")
            delay, ttime = _document_output(doc)[0][:2]
            problems += finite("delay", [delay]) + positive_finite("transition time", [ttime])
        return problems

    def _answered(self, records) -> Dict[int, Dict[str, Any]]:
        """Response documents by stream position, warm-up included."""
        documents = dict(self.warm_documents)
        for record in records:
            if record.output is not None:
                for k, doc in enumerate(record.raw):
                    documents[self.position(record.index) + k] = doc
        return documents

    def cross_checks(self, records):
        """A replayed query answers with exactly the original's bytes."""
        encoded = {position: json.dumps(doc, sort_keys=True)
                   for position, doc in self._answered(records).items()}
        first = self.position(0)
        problems = []
        for position in sorted(p for p in encoded if p >= first):
            original = self.stream[position][1]
            if original is not None and original in encoded \
                    and encoded[original] != encoded[position]:
                problems.append(((position - first) // self.queries_per_request,
                                 f"query {position} replays query {original} but "
                                 "its response differs"))
        return problems

    def summary(self, records):
        first = self.position(0)
        answered = {p: doc for p, doc in self._answered(records).items() if p >= first}
        if not answered:
            return []
        replays = sum(1 for p in answered if self.stream[p][1] is not None)
        fresh = [p for p in answered if self.stream[p][1] is None]
        ran = [len(answered[p]["result"]["steps"]) for p in fresh]
        off = sum(1 for p, n in zip(fresh, ran) if n != self.stream[p][2])
        return [f"{replays} of {len(answered)} queries replay an earlier query",
                f"{sum(ran)} dual-input simulations for {len(fresh)} fresh queries; "
                f"{off} ran another number than the traffic planned"]


class ServeSingle(ServeWorkload):
    """One client, one query per request: coalescing is bypassed."""

    name = "serve_single"
    work_unit = "requests"
    rate_metric = ("rps", "req/s")
    smoke_ops = 4
    reference_ops = 600


class ServeBatch(ServeWorkload):
    """One client sending 8-query requests: the shot broker coalesces."""

    name = "serve_batch"
    work_unit = "queries"
    rate_metric = ("batch_qps", "queries/s")
    queries_per_request = len(BATCH_BLOCK)
    block_mix = BATCH_BLOCK
    reference_ops = 40


if __name__ == "__main__":
    # python3 -m bench.serve_load: record the single-input table.
    from .common import isolate_environ, remove_scratch, require_source, write_json

    require_source()
    isolate_environ(scratch_dir("cache"))
    try:
        write_json(SINGLES_PATH, measure_singles())
    finally:
        remove_scratch()
