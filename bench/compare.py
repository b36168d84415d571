"""Judge a change against its parent from two directories of run records.

    python bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py --out`` writes (untraced,
non-smoke runs are used).  Runs of one workload are paired in start
order, at least :data:`MIN_PAIRS` of them, and must alternate: both
runs of pair i start after both runs of pair i-1, and the side that
starts first changes from each pair to the next.  For every end-to-end
metric of ``BENCHMARK.json``:

* **gain** -- the change wins at least 9 of 10 pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range; a gain does not count when the change
  failed more operations than the parent;
* **regression** -- the change's median is worse than the parent's by
  more than the metric's ``bound`` (a share of the parent's median);
* **loss** -- a gain the other way round, within the bound: the parent
  wins at least 9 of 10 pairs and its median beats the change's by more
  than the parent's interquartile range.  The bound has to hold the
  spread of the noisiest workload; a loss shows a clear slowdown that
  it hides;
* **unresolved** -- either side's interquartile range is wider than the
  bound (as a share of its median), unless every change run beats every
  parent run;
* otherwise **no change**.

Records from different hosts (host name, CPU model, core count) or
versions (Python, numpy, scipy) are refused.  Exit status: 0 when nothing
regressed, 1 on a regression, 2 when the inputs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # import ``bench`` as a package, not this directory

from bench.common import quartiles  # noqa: E402

#: Provenance fields that must agree across every compared record.
SAME_HOST = ("hostname", "cpu_model", "nproc", "python", "numpy", "scipy")

#: Pairs of runs per workload a verdict needs (choosing-metrics §8).
MIN_PAIRS = 10


class Refused(Exception):
    """The two result sets cannot be compared."""


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        with open(path) as handle:
            record = json.load(handle)
        if record.get("trace") or record.get("smoke") or "workload" not in record:
            continue
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started"])
    return runs


def check_same_host(records: List[dict]) -> None:
    for key in SAME_HOST:
        seen = {str(r["provenance"].get(key)) for r in records}
        if len(seen) > 1:
            raise Refused(f"runs differ in {key}: {sorted(seen)}")


def pair_up(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        raise Refused(f"{n} pairs, at least {MIN_PAIRS} needed")
    pairs = list(zip(parent[:n], change[:n]))
    for (p0, c0), (p1, c1) in zip(pairs, pairs[1:]):
        if min(p1["started"], c1["started"]) < max(p0["started"], c0["started"]):
            raise Refused("pairs overlap: a run starts before the previous pair ended")
        if (p0["started"] < c0["started"]) == (p1["started"] < c1["started"]):
            raise Refused("the side that runs first does not alternate between pairs")
    return pairs


def judge(spec: dict, pairs: List[Tuple[dict, dict]]) -> dict:
    """The verdict on one metric of one workload."""
    name, higher = spec["name"], spec["better"] == "higher"
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c))
    gap = cq[1] - pq[1]
    worse_by = -gap if higher else gap
    spread = max((pq[2] - pq[0]) / abs(pq[1]), (cq[2] - cq[0]) / abs(cq[1]))
    all_better = all(better(c, p) for c in change for p in parent)
    more_failures = sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)
    if worse_by > spec["bound"] * abs(pq[1]):
        verdict = "regression"
    elif losses >= 0.9 * len(pairs) and worse_by > pq[2] - pq[0]:
        verdict = "loss"
    elif wins >= 0.9 * len(pairs) and -worse_by > pq[2] - pq[0] and not more_failures:
        verdict = "gain"
    elif spread > spec["bound"] and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {"metric": name, "unit": spec["unit"], "verdict": verdict,
            "ratio": cq[1] / pq[1], "parent": pq, "change": cq, "wins": wins,
            "pairs": len(pairs)}


def compare(parent_dir: Path, change_dir: Path) -> List[Tuple[str, list]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        specs = json.load(handle)["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    check_same_host([r for runs in (parent, change) for rs in runs.values() for r in rs])
    rows = []
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            raise Refused(f"{workload} has runs on one side only")
        pairs = pair_up(parent[workload], change[workload])
        rows.append((workload, [judge(spec, pairs) for spec in specs]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        rows = compare(args.parent, args.change)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    regressed = False
    for workload, verdicts in rows:
        cells = [f"{v['metric']} {v['verdict']} ({v['ratio']:.3f}x of "
                 f"{v['parent'][1]:.4g} {v['unit']})" for v in verdicts]
        print(f"{workload:<16} " + "; ".join(cells))
        for v in verdicts:
            print(f"    {v['metric']:<12} parent {v['parent'][1]:.4g} "
                  f"[{v['parent'][0]:.4g}, {v['parent'][2]:.4g}]  change "
                  f"{v['change'][1]:.4g} [{v['change'][0]:.4g}, {v['change'][2]:.4g}]  "
                  f"change wins {v['wins']}/{v['pairs']}")
        regressed |= any(v["verdict"] == "regression" for v in verdicts)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
