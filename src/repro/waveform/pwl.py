"""The :class:`Pwl` piecewise-linear waveform type.

A :class:`Pwl` is an immutable sampled signal ``v(t)`` defined by
breakpoints ``(t_k, v_k)`` with strictly increasing times, linearly
interpolated between breakpoints and held constant beyond the ends.  It
is used both for *inputs* (ideal ramps built by :func:`ramp`) and for
*outputs* (dense samples captured from transient simulation).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import MeasurementError
from ..units import parse_quantity

__all__ = ["Pwl", "ramp", "step", "ramp_crossing_at"]

#: Canonical direction tokens (re-exported by :mod:`repro.waveform.edges`).
RISE = "rise"
FALL = "fall"

_ALIASES = {
    "rise": RISE,
    "rising": RISE,
    "r": RISE,
    "up": RISE,
    "fall": FALL,
    "falling": FALL,
    "f": FALL,
    "down": FALL,
}


def normalize_direction(direction: str) -> str:
    """Map any accepted alias to ``RISE``/``FALL``; raise otherwise."""
    try:
        return _ALIASES[direction.lower()]
    except (KeyError, AttributeError):
        raise MeasurementError(f"unknown transition direction {direction!r}") from None


class Pwl:
    """An immutable piecewise-linear waveform.

    Parameters
    ----------
    times, values:
        Breakpoint arrays of equal length (>= 1).  ``times`` must be
        strictly increasing.  Values before ``times[0]`` and after
        ``times[-1]`` are held at the first/last breakpoint value.
    """

    __slots__ = ("_t", "_v", "_t_list", "_v_list", "_last_crossings")

    def __init__(self, times: Iterable[float], values: Iterable[float]) -> None:
        t = np.asarray(list(times) if not isinstance(times, np.ndarray) else times,
                       dtype=float)
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=float)
        if t.ndim != 1 or v.ndim != 1:
            raise MeasurementError("Pwl breakpoints must be one-dimensional")
        if t.size != v.size:
            raise MeasurementError(
                f"Pwl times ({t.size}) and values ({v.size}) differ in length"
            )
        if t.size == 0:
            raise MeasurementError("Pwl requires at least one breakpoint")
        # ``t[1:] > t[:-1]`` is ``np.diff(t) > 0`` (a float difference is
        # zero only between equal floats), without ``np.diff``'s checks.
        if t.size > 1 and not (t[1:] > t[:-1]).all():
            raise MeasurementError("Pwl breakpoint times must be strictly increasing")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise MeasurementError("Pwl breakpoints must be finite")
        self._t = t
        self._v = v
        self._t.setflags(write=False)
        self._v.setflags(write=False)
        # Breakpoints as plain Python floats, materialized on the first
        # scalar evaluation (the transient hot path).
        self._t_list: list[float] | None = None
        self._v_list: list[float] | None = None
        # The last crossings query, ``(level, direction, hits)``: a
        # measurement asks for its output's onset crossings twice, for
        # the delay and for the transition time.
        self._last_crossings: tuple | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Breakpoint times (read-only view)."""
        return self._t

    @property
    def values(self) -> np.ndarray:
        """Breakpoint values (read-only view)."""
        return self._v

    @property
    def t_start(self) -> float:
        return float(self._t[0])

    @property
    def t_end(self) -> float:
        return float(self._t[-1])

    def __len__(self) -> int:
        return int(self._t.size)

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the waveform at time(s) ``t`` (clamped extrapolation)."""
        if type(t) is float or type(t) is int:
            return self._eval_scalar(float(t))
        out = np.interp(np.asarray(t, dtype=float), self._t, self._v)
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(out)
        return out

    def _eval_scalar(self, t: float) -> float:
        """Scalar evaluation, bit-identical to ``np.interp``.

        Mirrors numpy's ``arr_interp`` branch structure exactly -- end
        clamping first, exact breakpoint hits returned untouched, and
        the same slope-anchored-at-the-left-breakpoint formula (with the
        NaN re-anchoring fallbacks) -- so the float result is the same
        bits the array path produces, without the per-call ``np.asarray``
        round-trip.
        """
        ts = self._t_list
        if ts is None:
            ts = self._t_list = self._t.tolist()
            self._v_list = self._v.tolist()
        vs = self._v_list
        assert vs is not None
        if t != t:  # non-finite query: defer to numpy verbatim
            return float(np.interp(t, self._t, self._v))
        if t >= ts[-1]:
            return vs[-1]
        if t < ts[0]:
            return vs[0]
        lo, hi = 0, len(ts) - 1
        while hi - lo > 1:  # largest j with ts[j] <= t
            mid = (lo + hi) // 2
            if ts[mid] <= t:
                lo = mid
            else:
                hi = mid
        tj = ts[lo]
        if tj == t:
            return vs[lo]
        slope = (vs[lo + 1] - vs[lo]) / (ts[lo + 1] - tj)
        res = slope * (t - tj) + vs[lo]
        if res != res:
            res = slope * (t - ts[lo + 1]) + vs[lo + 1]
            if res != res and vs[lo] == vs[lo + 1]:
                res = vs[lo]
        return res

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pwl):
            return NotImplemented
        return (
            self._t.shape == other._t.shape
            and bool(np.array_equal(self._t, other._t))
            and bool(np.array_equal(self._v, other._v))
        )

    def __hash__(self) -> int:
        return hash((self._t.tobytes(), self._v.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pwl({len(self)} points, t in [{self.t_start:.3e}, {self.t_end:.3e}])"

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def min(self) -> float:
        """Minimum breakpoint value (exact for a PWL signal)."""
        return float(self._v.min())

    def max(self) -> float:
        """Maximum breakpoint value (exact for a PWL signal)."""
        return float(self._v.max())

    def initial_value(self) -> float:
        return float(self._v[0])

    def final_value(self) -> float:
        return float(self._v[-1])

    def derivative_between(self, t0: float, t1: float) -> float:
        """Average slope over ``[t0, t1]``."""
        if t1 <= t0:
            raise MeasurementError("derivative_between requires t1 > t0")
        return (self(t1) - self(t0)) / (t1 - t0)

    # ------------------------------------------------------------------
    # Transformations (all return new Pwl instances)
    # ------------------------------------------------------------------
    def shifted(self, dt: float | str) -> "Pwl":
        """Translate in time by ``dt`` (seconds or a quantity string)."""
        delta = parse_quantity(dt, unit="s")
        return Pwl(self._t + delta, self._v)

    def scaled(self, gain: float, offset: float = 0.0) -> "Pwl":
        """Return ``gain * v(t) + offset``."""
        return Pwl(self._t, gain * self._v + offset)

    def clipped(self, lo: float, hi: float) -> "Pwl":
        """Clamp values into ``[lo, hi]`` (breakpoints only; adequate for
        rail clamping of simulated waveforms)."""
        if hi < lo:
            raise MeasurementError("clipped() requires hi >= lo")
        return Pwl(self._t, np.clip(self._v, lo, hi))

    def windowed(self, t0: float, t1: float) -> "Pwl":
        """Restrict to ``[t0, t1]``, inserting interpolated endpoints."""
        if t1 <= t0:
            raise MeasurementError("windowed() requires t1 > t0")
        inside = (self._t > t0) & (self._t < t1)
        t = np.concatenate(([t0], self._t[inside], [t1]))
        v = np.concatenate(([self(t0)], self._v[inside], [self(t1)]))
        return Pwl(t, v)

    def resampled(self, times: Sequence[float]) -> "Pwl":
        """Resample onto an explicit strictly-increasing time grid."""
        grid = np.asarray(times, dtype=float)
        return Pwl(grid, self(grid))

    # ------------------------------------------------------------------
    # Crossings
    # ------------------------------------------------------------------
    def crossings(self, level: float, direction: str | None = None) -> list[float]:
        """All times at which the waveform crosses ``level``.

        ``direction`` may be ``"rise"``, ``"fall"`` or ``None`` (both).
        A crossing is detected per linear segment; exact-touch points
        (segment endpoint equal to ``level``) count as crossings when the
        signal actually passes through the level.  Times are returned in
        increasing order.
        """
        want = None if direction is None else normalize_direction(direction)
        last = self._last_crossings
        if last is None or last[0] != level or last[1] != want:
            last = self._last_crossings = (level, want,
                                           self._crossings(level, want))
        return list(last[2])

    def _crossings(self, level: float, want: str | None) -> tuple[float, ...]:
        """:meth:`crossings` computed, for a normalized direction."""
        t, v = self._t, self._v
        if t.size < 2:
            return ()
        lo = v[:-1] - level
        hi = v[1:] - level
        masks = []
        if want in (None, RISE):
            masks.append((lo < 0.0) & (hi >= 0.0))
        if want in (None, FALL):
            masks.append((lo > 0.0) & (hi <= 0.0))
        hits: list[float] = []
        for mask in masks:
            for idx in np.nonzero(mask)[0]:
                frac = (level - v[idx]) / (v[idx + 1] - v[idx])
                hits.append(float(t[idx] + frac * (t[idx + 1] - t[idx])))
        hits.sort()
        return tuple(hits)

    def first_crossing(self, level: float, direction: str | None = None) -> float:
        """First crossing time, raising :class:`MeasurementError` if none."""
        hits = self.crossings(level, direction)
        if not hits:
            raise MeasurementError(
                f"waveform never crosses {level:.4g} "
                f"({'any direction' if direction is None else direction})"
            )
        return hits[0]

    def last_crossing(self, level: float, direction: str | None = None) -> float:
        """Last crossing time, raising :class:`MeasurementError` if none."""
        hits = self.crossings(level, direction)
        if not hits:
            raise MeasurementError(
                f"waveform never crosses {level:.4g} "
                f"({'any direction' if direction is None else direction})"
            )
        return hits[-1]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def ramp(t_start: float | str, v0: float, v1: float, tau: float | str,
         *, t_end: float | None = None) -> Pwl:
    """A flat-ramp-flat waveform.

    Holds ``v0`` until ``t_start``, ramps linearly to ``v1`` over ``tau``
    seconds, then holds ``v1`` (until ``t_end`` if given, which merely
    appends a final breakpoint for plotting convenience).
    """
    t0 = parse_quantity(t_start, unit="s")
    width = parse_quantity(tau, unit="s")
    if width <= 0.0:
        raise MeasurementError(f"ramp transition time must be positive, got {width}")
    # Constant extrapolation beyond the ends makes the two transition
    # breakpoints sufficient; the flat head/tail are implicit.
    times = [t0, t0 + width]
    values = [v0, v1]
    if t_end is not None:
        end = parse_quantity(t_end, unit="s")
        if end > times[-1]:
            times.append(end)
            values.append(v1)
    return Pwl(times, values)


def step(t_step: float | str, v0: float, v1: float, *, tau: float | str = 1e-13) -> Pwl:
    """A near-ideal step: a ramp with a very small transition time.

    True discontinuities break the strictly-increasing-time invariant, so
    a step is represented by a 0.1 fs ramp -- far below any delay this
    library resolves.
    """
    return ramp(t_step, v0, v1, tau)


def ramp_crossing_at(t_cross: float | str, level: float, *, v0: float, v1: float,
                     tau: float | str, t_end: float | None = None) -> Pwl:
    """A ramp positioned so that it crosses ``level`` exactly at ``t_cross``.

    This is how edges with paper-convention arrival times (measured at
    ``V_il``/``V_ih``) are lowered to concrete stimuli.
    """
    t_start, width = crossing_ramp_start(t_cross, level, v0=v0, v1=v1, tau=tau)
    return ramp(t_start, v0, v1, width, t_end=t_end)


def crossing_ramp_start(t_cross: float | str, level: float, *, v0: float,
                        v1: float, tau: float | str) -> tuple[float, float]:
    """``(t_start, width)`` of the ramp :func:`ramp_crossing_at` builds,
    without building it: ``t_start`` is its first breakpoint."""
    t_at = parse_quantity(t_cross, unit="s")
    width = parse_quantity(tau, unit="s")
    if width <= 0.0:
        raise MeasurementError(f"ramp transition time must be positive, got {width}")
    if (v1 - v0) == 0.0:
        raise MeasurementError("ramp_crossing_at requires v0 != v1")
    frac = (level - v0) / (v1 - v0)
    if not 0.0 <= frac <= 1.0:
        raise MeasurementError(
            f"threshold {level:.4g} lies outside the ramp range [{v0:.4g}, {v1:.4g}]"
        )
    return t_at - frac * width, width
