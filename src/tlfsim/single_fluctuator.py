"""Exact and approximate coherence for a single non-dissipative fluctuator.

The fluctuator shifts the TLS splitting by +/- 2 lambda depending on its
state, so the exact coherence is a thermally weighted four-frequency sum.
Weak-coupling (g >> |lambda|) and strong-coupling (|lambda| >> g) limits admit
simple envelope formulas, the latter with a higher-order refinement that also
captures the residual fast ripple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import (
    JcParams,
    ThermalContext,
    coherence_gr,
    thermal_population,
    _check_ratio,
    _mixture_coherence,
    _over_time,
    _rabi_envelope,
    _warn,
)

__all__ = [
    "TlfSpec",
    "coherence_exact_single",
    "coherence_weak_envelope",
    "coherence_strong_leading",
    "coherence_strong_higher",
]


@dataclass(frozen=True)
class TlfSpec:
    """One fluctuator: its splitting and its coupling to the TLS.

    The coupling sign is meaningful (it encodes dipole orientation) but all
    scale-separated coherences are invariant under lam -> -lam.
    """

    epsilon: float
    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidInputError(f"epsilon must be finite and >= 0, got {float(self.epsilon)!r}")
        if not math.isfinite(self.lam):
            raise InvalidInputError(f"lam must be finite, got {float(self.lam)!r}")


@_over_time
def coherence_exact_single(params: JcParams, tlf: TlfSpec, ctx: ThermalContext, t):
    """Exact four-frequency coherence for one non-dissipative fluctuator.

    Thermally weighted sum over the two fluctuator states alpha = +/-1, each
    contributing a JC coherence amplitude with detuning shifted by
    2*alpha*lam and an extra phase exp(-i alpha lam t): the one-fluctuator
    case of the ensemble's mixture kernel, i.e. four plain exponentials.
    Reduces to the bare JC result when lam = 0.  Returns the shape of t.
    """
    p_plus, p_minus = thermal_population(tlf.epsilon, ctx)
    return _mixture_coherence(params.g, params.delta, np.array([tlf.lam, -tlf.lam]),
                              np.array([p_plus, p_minus]), t)


@_over_time
def coherence_weak_envelope(params: JcParams, tlf: TlfSpec, ctx: ThermalContext, t):
    """Weak-coupling approximation: Rabi oscillation times a slow envelope.

    Valid for g >> |lam| sufficiently close to resonance; outside that regime
    a warning is emitted and the formula is still evaluated.
    """
    lam = abs(tlf.lam)
    _check_ratio("weak-coupling envelope", "g/|lam|", params.g, lam)
    if lam > 0 and abs(params.delta) * lam >= 4.0 * params.g**2:
        _warn("weak-coupling envelope requires |delta| << 4 g^2 / |lam|")
    th = ctx.tanh_factor(tlf.epsilon)
    return coherence_gr(params, t) * _rabi_envelope(tlf.lam * t, th)


def _check_strong_regime(params: JcParams, tlf: TlfSpec) -> None:
    if tlf.lam == 0.0:
        raise InvalidInputError(
            "strong-coupling formulas divide by lam; lam = 0 is outside the regime"
        )
    _check_ratio("strong-coupling formula", "|lam|/g", abs(tlf.lam), params.g)
    if params.delta != 0.0:
        _warn("strong-coupling formulas assume delta = 0; "
              "use coherence_exact_single for detuned systems")


@_over_time
def coherence_strong_leading(params: JcParams, tlf: TlfSpec, ctx: ThermalContext, t):
    """Leading strong-coupling envelope at frequency g^2 / 2 lam.

    Oscillates between unity and tanh(eps / 2kT); in the scale-separated limit
    it reaches zero, at zero temperature it stays pinned at 1.
    """
    _check_strong_regime(params, tlf)
    th = ctx.tanh_factor(tlf.epsilon)
    return _rabi_envelope(params.g**2 * t / (2.0 * tlf.lam), th)


@_over_time
def coherence_strong_higher(params: JcParams, tlf: TlfSpec, ctx: ThermalContext, t):
    """Strong-coupling formula with the O(g^2/lam^2) fast-ripple terms kept.

    Adds a small component at frequency 2 lam with weight B = g^2 / 4 lam^2 to
    the leading envelope (weight A = 1 - B); B -> 0 recovers the leading form.
    """
    _check_strong_regime(params, tlf)
    th = ctx.tanh_factor(tlf.epsilon)
    b = params.g**2 / (4.0 * tlf.lam**2)
    a = 1.0 - b
    slow = params.g**2 * t / (2.0 * tlf.lam)
    fast = 2.0 * tlf.lam * t
    return np.sqrt(
        (a * np.cos(slow) + b * np.cos(fast)) ** 2
        + th**2 * (a * np.sin(slow) + b * np.sin(fast)) ** 2
    )
