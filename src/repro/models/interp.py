"""Table interpolation without scipy: PCHIP curves and clamped trilinear grids.

The table macromodels look up small characterized tables: one 1-D
curve per single-input arc (:mod:`repro.models.single`) and one 3-D
grid per dual-input pair or glitch arc (:mod:`repro.models.dual`,
:mod:`repro.inertial.glitch`).  Both interpolants here repeat scipy's
arithmetic operation for operation -- ``PchipInterpolator`` with
extrapolation, and ``RegularGridInterpolator(method="linear")`` on a
query clamped to the grid -- so every lookup is bit-identical to the
scipy evaluation (``tests/models/test_interp.py`` compares them with
``==``) while the table path imports numpy only.

Queries are scalar.  Knots, coefficients and table values are held as
Python floats, whose arithmetic is IEEE double like numpy's, so one
lookup is a bisection and a few multiply-adds with no array allocation.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import Sequence

import numpy as np

from ..errors import ModelError

__all__ = ["Pchip", "ClampedTrilinear"]


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end derivative with the shape-preserving
    clamp (Moler, *Numerical Computing with MATLAB*, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot derivatives from interval widths ``h`` and secants ``m``.

    Inside: the weighted harmonic mean of the neighbouring secants
    (Fritsch & Butland 1984), or zero where they change sign or either
    is zero.  Two knots: the secant itself, i.e. a straight line.
    """
    if m.size == 1:
        return np.array([m[0], m[0]])
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(m.size + 1)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class Pchip:
    """Monotone piecewise-cubic Hermite interpolant through ``(x, y)``.

    ``x`` must be strictly increasing and finite, ``y`` finite, with at
    least two samples.  Queries outside ``[x[0], x[-1]]`` extrapolate
    the end pieces.
    """

    def __init__(self, x: Sequence[float], y: Sequence[float]) -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ModelError("PCHIP needs two matching 1-D sample arrays "
                             "of at least 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ModelError("PCHIP samples must be finite")
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise ModelError("PCHIP abscissae must be strictly increasing")
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        # Power-basis coefficients of each piece in s = q - x[i],
        # highest order first, formed as scipy's CubicHermiteSpline forms them.
        t = (d[:-1] + d[1:] - 2 * m) / h
        c0 = t / h
        c1 = (m - d[:-1]) / h - t
        self._knots = x.tolist()
        self._pieces = list(zip(c0.tolist(), c1.tolist(),
                                d[:-1].tolist(), y[:-1].tolist()))

    def __call__(self, q: float) -> float:
        knots = self._knots
        # The piece with x[i] <= q < x[i+1]; the end pieces extrapolate
        # and q == x[-1] belongs to the last one.
        i = min(max(bisect_right(knots, q) - 1, 0), len(knots) - 2)
        c0, c1, c2, c3 = self._pieces[i]
        s = float(q) - knots[i]
        ss = s * s
        # PPoly's accumulation order; the leading ``0.0 +`` is its
        # zero-initialized accumulator (it turns -0.0 into 0.0).
        return 0.0 + c3 + c2 * s + c1 * ss + c0 * (ss * s)


class ClampedTrilinear:
    """Trilinear interpolation on a 3-D rectilinear grid, clamped to it.

    ``axes`` are three strictly increasing coordinate arrays (a single
    point makes that axis constant) and ``table`` has shape
    ``(len(axes[0]), len(axes[1]), len(axes[2]))``.  A query is first
    clamped to the grid's hull.  Clamping rather than extrapolating is
    the right behaviour at the edges of the proximity grids: beyond the
    proximity window the ratios saturate, and the grids are built to
    cover the window with margin.
    """

    def __init__(self, axes: Sequence[Sequence[float]], table) -> None:
        self._axes = [np.asarray(a, dtype=float).tolist() for a in axes]
        table = np.asarray(table, dtype=float)
        shape = tuple(len(a) for a in self._axes)
        if len(shape) != 3 or table.shape != shape:
            raise ModelError(
                f"table shape {table.shape} does not match 3 axes {shape}")
        for axis in self._axes:
            if not all(b > a for a, b in zip(axis, axis[1:])):
                raise ModelError("grid axes must be strictly increasing")
        self._table = table.tolist()

    def __call__(self, a1: float, a2: float, a3: float) -> float:
        corners = []
        for q, axis in zip((a1, a2, a3), self._axes):
            q = min(max(float(q), axis[0]), axis[-1])
            if len(axis) == 1:
                corners.append(((0, 1.0), (0, 0.0)))
                continue
            i = min(bisect_right(axis, q) - 1, len(axis) - 2)
            y = (q - axis[i]) / (axis[i + 1] - axis[i])
            corners.append(((i, 1 - y), (i + 1, y)))
        # The 8 cell corners in itertools.product order, each weight
        # multiplied out left to right and the terms summed from zero,
        # as RegularGridInterpolator._evaluate_linear does.
        table = self._table
        value = 0.0
        for (i, wi), (j, wj), (k, wk) in product(*corners):
            value = value + table[i][j][k] * (wi * wj * wk)
        return value
