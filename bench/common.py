"""Shared plumbing: paths, environment isolation, statistics, provenance,
and the reference and invariant checks every workload reports through.

Nothing here imports ``repro``: ``run.py`` times set-up from before the
first ``repro`` import.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / ".out"
REFERENCE_DIR = BENCH / "reference"

#: Check tolerances per output section (see :func:`compare_output`).
TOLERANCES = {"times": 1e-15, "volts": 1e-6, "ratios": 1e-6}

_scratch_ids = itertools.count()
_scratch: List[Path] = []


def require_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Exits with status 2, printing nothing to stdout, when the checkout
    has no ``repro`` sources: the benchmark measures this tree's code
    and nothing else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro sources under {SRC}; "
                         "run the benchmark from a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(tag: str) -> Path:
    """A fresh empty directory under ``bench/.out/tmp``, removed by
    :func:`remove_scratch`."""
    path = OUT / "tmp" / f"{tag}-{os.getpid()}-{next(_scratch_ids)}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    _scratch.append(path)
    return path


def remove_scratch() -> None:
    """Delete every directory :func:`scratch_dir` made in this process."""
    while _scratch:
        shutil.rmtree(_scratch.pop(), ignore_errors=True)


def clean_environ(cache_dir: Path, **extra: str) -> Dict[str, str]:
    """``os.environ`` with every ``REPRO_*`` knob at its default, a
    fresh characterization cache and ``src/`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(extra)
    return env


def isolate_environ(cache_dir: Path) -> None:
    """Apply :func:`clean_environ` to this process."""
    env = clean_environ(cache_dir)
    for key in [k for k in os.environ if k not in env]:
        del os.environ[key]
    os.environ.update(env)


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(samples: Sequence[float],
                    min_beyond: int = 10) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with ``min_beyond`` samples above it.

    Nearest-rank: percentile ``p`` sits at rank ``ceil(p n / 100)`` and
    has ``n - rank`` samples beyond it, so the answer is
    ``floor(100 (n - min_beyond) / n)`` -- p98 at 600 samples.  Returns
    ``(p, value)``, or ``None`` when there are too few samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= min_beyond:
        return None
    pct = (100 * (n - min_beyond)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/repro`` (paths and contents), for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> Dict[str, Any]:
    """Where and on what a run happened (``compare.py`` checks these)."""
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hostname": platform.node(),
        "started": time.time(),
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _flat(value: Any) -> List[Any]:
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flat(item)]
    return [value]


def _close(ref: Any, got: Any, tol: float, relative: bool) -> bool:
    if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)):
        return ref == got
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    scale = max(1.0, abs(ref)) if relative else 1.0
    return abs(ref - got) <= tol * scale


def compare_output(ref: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    """Differences between a reference output and a fresh one.

    Sections: ``times`` (seconds, |Δ| ≤ 1 fs), ``volts`` (|Δ| ≤ 1 µV),
    ``ratios`` (dimensionless table entries, |Δ| ≤ 1e-6 · max(1, |x|)),
    and ``counts``/``text``, which must match exactly.
    """
    problems = []
    for section in sorted(set(ref) | set(got)):
        ref_part, got_part = ref.get(section, {}), got.get(section, {})
        if set(ref_part) != set(got_part):
            problems.append(f"{section}: keys {sorted(got_part)} != {sorted(ref_part)}")
            continue
        tol = TOLERANCES.get(section)
        for key in sorted(ref_part):
            want, have = _flat(ref_part[key]), _flat(got_part[key])
            if len(want) != len(have):
                problems.append(f"{section}.{key}: {len(have)} values, expected {len(want)}")
            elif tol is None:
                if want != have:
                    problems.append(f"{section}.{key}: {have!r} != {want!r}")
            else:
                bad = [i for i, (a, b) in enumerate(zip(want, have))
                       if not _close(a, b, tol, section == "ratios")]
                if bad:
                    i = bad[0]
                    problems.append(f"{section}.{key}[{i}]: {have[i]!r} != {want[i]!r} "
                                    f"({len(bad)} of {len(want)} differ)")
    return problems


def positive_finite(label: str, values: Sequence[float]) -> List[str]:
    """Invariant: every value is a finite positive number."""
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0)]
    return [f"{label}: {bad[0]!r} is not finite and positive"] if bad else []


def finite(label: str, values: Sequence[float]) -> List[str]:
    """Invariant: every value (nested lists flattened) is finite."""
    bad = [v for v in _flat(list(values)) if not math.isfinite(v)]
    return [f"{label}: {bad[0]!r} is not finite"] if bad else []


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with open(path) as handle:
        return json.load(handle)


def write_json(path: Path, document: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
