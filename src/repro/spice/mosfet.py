"""Level-1 (Shichman-Hodges) MOSFET evaluation.

The model is the classic square-law card with channel-length modulation:

* cutoff   (``v_ov <= 0``):        ``i_ds = 0``
* triode   (``0 < v_ds < v_ov``):  ``i_ds = K (2 v_ov v_ds - v_ds^2)(1 + lam v_ds)``
* saturation (``v_ds >= v_ov``):   ``i_ds = K v_ov^2 (1 + lam v_ds)``

with ``K = (kp/2)(W/L)`` -- exactly the *strength* parameter the paper's
macromodels are expressed in.  The device is symmetric: for ``v_ds < 0``
drain and source are swapped internally.  PMOS devices are evaluated by
polarity reflection.  Current and its first derivative are continuous at
the triode/saturation boundary; the only derivative kink is at
``v_ov = 0``, which the damped Newton solver handles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tech import MosfetParams

__all__ = ["nmos_like_current", "mosfet_current", "MosfetInstance",
           "nmos_like_current_batch", "alpha_power_current_batch",
           "mosfet_current_batch", "device_param_rows"]


def nmos_like_current(k: float, vt: float, lam: float,
                      vgs: float, vds: float) -> tuple[float, float, float]:
    """Square-law current for an NMOS-convention device.

    Returns ``(ids, gm, gds)`` where ``ids`` flows drain -> source,
    ``gm = d ids / d vgs`` and ``gds = d ids / d vds``.  Handles
    ``vds < 0`` by source/drain symmetry.
    """
    if vds < 0.0:
        # Swap drain and source: I(vgs, vds) = -I'(vgs - vds, -vds).
        ids, gm_s, gds_s = nmos_like_current(k, vt, lam, vgs - vds, -vds)
        # d/dvgs [-I'(vgs-vds, -vds)] = -gm_s
        # d/dvds [-I'(vgs-vds, -vds)] = gm_s + gds_s
        return -ids, -gm_s, gm_s + gds_s

    vov = vgs - vt
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    clm = 1.0 + lam * vds
    if vds < vov:
        # Triode region.
        core = 2.0 * vov * vds - vds * vds
        ids = k * core * clm
        gm = 2.0 * k * vds * clm
        gds = k * (2.0 * vov - 2.0 * vds) * clm + k * core * lam
    else:
        # Saturation.
        core = vov * vov
        ids = k * core * clm
        gm = 2.0 * k * vov * clm
        gds = k * core * lam
    return ids, gm, gds


def alpha_power_current(k: float, vt: float, lam: float, alpha: float,
                        vgs: float, vds: float) -> tuple[float, float, float]:
    """Sakurai-Newton alpha-power-law current (NMOS convention).

    * saturation (``vds >= vdsat``): ``i = K v_ov^alpha (1 + lam vds)``
    * linear (``vds < vdsat``):      ``i = i_sat0 (2u - u^2)(1 + lam vds)``
      with ``u = vds / vdsat`` and ``vdsat = v_ov^(alpha/2)`` (volts;
      the Sakurai VD0 with unit coefficient, which reduces exactly to
      the square law at ``alpha = 2``).

    Current and first derivatives are continuous at the region boundary;
    returns ``(ids, gm, gds)`` like :func:`nmos_like_current`.
    """
    if vds < 0.0:
        ids, gm_s, gds_s = alpha_power_current(k, vt, lam, alpha,
                                               vgs - vds, -vds)
        return -ids, -gm_s, gm_s + gds_s

    vov = vgs - vt
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    clm = 1.0 + lam * vds
    i_sat0 = k * vov ** alpha
    vdsat = vov ** (0.5 * alpha)
    if vds >= vdsat:
        ids = i_sat0 * clm
        gm = alpha * k * vov ** (alpha - 1.0) * clm
        gds = i_sat0 * lam
        return ids, gm, gds
    u = vds / vdsat
    core = 2.0 * u - u * u
    ids = i_sat0 * core * clm
    # d core/d vgs through u's vdsat dependence collapses neatly:
    # gm = alpha K vov^(alpha-1) u (see DESIGN notes; equals the square
    # law's 2 K vds at alpha = 2).
    gm = alpha * k * vov ** (alpha - 1.0) * u * clm
    gds = i_sat0 * ((2.0 - 2.0 * u) / vdsat * clm + core * lam)
    return ids, gm, gds


def channel_function(params: MosfetParams):
    """The channel model of ``params`` as ``f(k, vt, lam, vgs, vds)``.

    Level-1 cards get :func:`nmos_like_current` itself, alpha-power
    cards :func:`alpha_power_current` with the card's ``alpha`` bound.
    """
    if params.model != "alpha":
        return nmos_like_current
    alpha = params.alpha

    def alpha_channel(k, vt, lam, vgs, vds):
        return alpha_power_current(k, vt, lam, alpha, vgs, vds)
    return alpha_channel


def mosfet_current(params: MosfetParams, k: float,
                   vg: float, vd: float, vs: float) -> tuple[float, float, float, float]:
    """Terminal current of an N- or P-MOSFET.

    Returns ``(i_d, di_d/dvd, di_d/dvg, di_d/dvs)`` where ``i_d`` is the
    current flowing *into* the drain terminal (and out of the source; the
    gate draws none).  ``k`` is the paper-convention strength K.
    """
    channel = channel_function(params)
    vt = abs(params.vt0)
    if params.is_nmos:
        ids, gm, gds = channel(k, vt, params.lam, vg - vs, vd - vs)
        return ids, gds, gm, -(gm + gds)
    # PMOS: reflect voltages.  i_d(PMOS) = -I_nmos_like(vsg - |vt|, vsd)
    # evaluated with vgs' = -(vg - vs), vds' = -(vd - vs).
    ids, gm, gds = channel(k, vt, params.lam, -(vg - vs), -(vd - vs))
    i_d = -ids
    # Chain rule through the sign flips:
    #   d i_d / d vg = -gm * d vgs'/d vg = -gm * (-1) = gm  -> negated once more
    di_dvg = gm
    di_dvd = gds
    di_dvs = -(gm + gds)
    return i_d, di_dvd, di_dvg, di_dvs


def nmos_like_current_batch(k: np.ndarray, vt: np.ndarray, lam: np.ndarray,
                            vgs: np.ndarray, vds: np.ndarray):
    """Vectorized :func:`nmos_like_current` over same-shape arrays.

    Bit-identical to the scalar routine lane by lane: every arithmetic
    expression is written with the same operand order and associativity,
    the drain/source swap is handled by reflecting into the ``vds >= 0``
    frame up front, and cutoff zeroing happens *before* un-swapping so
    reversed off devices keep the scalar recursion's ``-0.0`` outputs.
    """
    neg = vds < 0.0
    vgs_eff = np.where(neg, vgs - vds, vgs)
    vds_eff = np.where(neg, -vds, vds)

    vov = vgs_eff - vt
    on = vov > 0.0
    clm = 1.0 + lam * vds_eff
    core_t = 2.0 * vov * vds_eff - vds_eff * vds_eff
    core_s = vov * vov
    triode = vds_eff < vov
    ids = np.where(triode, k * core_t * clm, k * core_s * clm)
    gm = np.where(triode, 2.0 * k * vds_eff * clm, 2.0 * k * vov * clm)
    gds = np.where(triode,
                   k * (2.0 * vov - 2.0 * vds_eff) * clm + k * core_t * lam,
                   k * core_s * lam)
    ids = np.where(on, ids, 0.0)
    gm = np.where(on, gm, 0.0)
    gds = np.where(on, gds, 0.0)

    # Un-swap: I(vgs, vds<0) = -I'(vgs - vds, -vds), so the reversed
    # lanes negate ids/gm and fold gm into gds (source/drain symmetry).
    ids_out = np.where(neg, -ids, ids)
    gm_out = np.where(neg, -gm, gm)
    gds_out = np.where(neg, gm + gds, gds)
    return ids_out, gm_out, gds_out


def _pow(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Same-shape ``base ** exponent`` through Python's float ``pow``."""
    return np.array(list(map(pow, base.ravel().tolist(),
                             exponent.ravel().tolist())),
                    dtype=float).reshape(base.shape)


def alpha_power_current_batch(k: np.ndarray, vt: np.ndarray, lam: np.ndarray,
                              alpha: np.ndarray, vgs: np.ndarray,
                              vds: np.ndarray):
    """Vectorized :func:`alpha_power_current` over same-shape arrays.

    Off lanes evaluate the power laws at a safe overdrive of 1 V (their
    results are discarded by the cutoff mask), keeping fractional powers
    of negative numbers out of the pipeline.  Multiplication order
    matches the scalar code exactly -- IEEE products are not
    associative, so e.g. ``gm`` must accumulate ``u`` before ``clm``.
    The three fractional powers go element by element through Python's
    ``pow``: NumPy's SIMD ``power`` loop (AVX-512 builds) rounds some
    results differently from the C ``pow`` behind Python floats.
    """
    neg = vds < 0.0
    vgs_eff = np.where(neg, vgs - vds, vgs)
    vds_eff = np.where(neg, -vds, vds)

    vov = vgs_eff - vt
    on = vov > 0.0
    safe_vov = np.where(on, vov, 1.0)
    clm = 1.0 + lam * vds_eff
    i_sat0 = k * _pow(safe_vov, alpha)
    vdsat = _pow(safe_vov, 0.5 * alpha)
    gm_base = alpha * k * _pow(safe_vov, alpha - 1.0)
    u = vds_eff / vdsat
    core = 2.0 * u - u * u
    sat = vds_eff >= vdsat
    ids = np.where(sat, i_sat0 * clm, i_sat0 * core * clm)
    gm = np.where(sat, gm_base * clm, gm_base * u * clm)
    gds = np.where(sat, i_sat0 * lam,
                   i_sat0 * ((2.0 - 2.0 * u) / vdsat * clm + core * lam))
    ids = np.where(on, ids, 0.0)
    gm = np.where(on, gm, 0.0)
    gds = np.where(on, gds, 0.0)

    ids_out = np.where(neg, -ids, ids)
    gm_out = np.where(neg, -gm, gm)
    gds_out = np.where(neg, gm + gds, gds)
    return ids_out, gm_out, gds_out


def device_param_rows(mosfets, indices) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]:
    """Parameter rows for one :func:`mosfet_current_batch` device group.

    ``mosfets`` is a compiled device list (``(d, g, s, params, k)``
    tuples); ``indices`` selects the devices of one polarity/model
    group.  Returns ``(k, vt, lam, alpha)`` float arrays in selection
    order.
    """
    k = np.array([mosfets[mi][4] for mi in indices], dtype=float)
    vt = np.array([abs(mosfets[mi][3].vt0) for mi in indices], dtype=float)
    lam = np.array([mosfets[mi][3].lam for mi in indices], dtype=float)
    alpha = np.array([getattr(mosfets[mi][3], "alpha", 2.0)
                      for mi in indices], dtype=float)
    return k, vt, lam, alpha


def mosfet_current_batch(is_nmos: bool, alpha_model: bool, k: np.ndarray,
                         vt: np.ndarray, lam: np.ndarray, alpha: np.ndarray,
                         vg: np.ndarray, vd: np.ndarray, vs: np.ndarray):
    """Vectorized :func:`mosfet_current` over one device group.

    Polarity and channel model are constants of the group;
    ``k``/``vt``/``lam``/``alpha`` and the terminal voltages are
    per-device arrays.  Returns ``(i_d, di_d/dvd, di_d/dvg, di_d/dvs)``
    arrays.
    """
    if is_nmos:
        vgs = vg - vs
        vds = vd - vs
    else:
        vgs = -(vg - vs)
        vds = -(vd - vs)
    if alpha_model:
        ids, gm, gds = alpha_power_current_batch(k, vt, lam, alpha, vgs, vds)
    else:
        ids, gm, gds = nmos_like_current_batch(k, vt, lam, vgs, vds)
    i_d = ids if is_nmos else -ids
    return i_d, gds, gm, -(gm + gds)


@dataclass(frozen=True)
class MosfetInstance:
    """A MOSFET placed in a circuit.

    Terminals are node names; ``width``/``length`` are metres.  The bulk
    terminal only anchors the parasitic junction capacitances (the
    Level-1 card has no body effect), so it is typically ground for NMOS
    and the supply node for PMOS.
    """

    name: str
    drain: str
    gate: str
    source: str
    bulk: str
    params: MosfetParams
    width: float
    length: float

    @property
    def k(self) -> float:
        """Strength K = (kp/2)(W/L) in A/V^2."""
        return self.params.strength(self.width, self.length)

    def parasitic_caps(self) -> list[tuple[str, str, str, float]]:
        """Linear parasitic capacitors implied by the geometry.

        Returns ``(cap_name, node_a, node_b, farads)`` tuples: gate-source
        and gate-drain overlap plus drain/source junction capacitance to
        bulk.  Zero-valued entries are omitted.
        """
        caps = []
        w = self.width
        p = self.params
        if p.cgs_per_width > 0.0:
            caps.append((f"{self.name}.cgs", self.gate, self.source, p.cgs_per_width * w))
        if p.cgd_per_width > 0.0:
            caps.append((f"{self.name}.cgd", self.gate, self.drain, p.cgd_per_width * w))
        if p.cj_per_width > 0.0:
            caps.append((f"{self.name}.cdb", self.drain, self.bulk, p.cj_per_width * w))
            caps.append((f"{self.name}.csb", self.source, self.bulk, p.cj_per_width * w))
        return caps
