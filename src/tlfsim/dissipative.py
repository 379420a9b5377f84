"""Reduced dynamics for a single dissipative fluctuator at resonance.

The coherence follows from four coupled amplitudes (sum/difference
combinations of the lowest lowering operators in the coupled eigenbasis and
their fluctuator-weighted partners).  They obey a constant-coefficient linear
system, propagated exactly by chained matrix-exponential steps, and are
compared against closed-form damped envelopes for each coupling/damping
regime.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import InvalidInputError, NumericalError
from .model import CoherenceTrace, _check_ratio, _over_time, _require, _time_grid, _uniform_block

__all__ = [
    "DampingRegime",
    "DampingCharacter",
    "integrate_reduced",
    "coherence_weak_damped",
    "coherence_strong_damped",
    "slow_root_cubic",
    "classify_regime",
    "damping_character",
]

_SQRT2 = math.sqrt(2.0)
# classify_regime's boundaries: weak coupling once g >= 5|lam|; weak or strong
# damping once gamma is a factor 5 below or above |lam|.
_CLASSIFY_RATIO = 5.0


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use to keep scipy off the import path."""
    from scipy.linalg import expm

    return expm(a)


class DampingRegime(enum.Enum):
    WEAK_COUPLING = "weak-coupling"
    STRONG_WEAK_DAMP = "strong-weak-damp"
    STRONG_INTERMEDIATE = "strong-intermediate"
    STRONG_STRONG_DAMP = "strong-strong-damp"


class DampingCharacter(enum.Enum):
    UNDERDAMPED = "underdamped"
    OVERDAMPED = "overdamped"
    CRITICAL = "critical"


def _rates(g: float, lam: float, gamma: float, lo_open: bool = False) -> None:
    """The rates' domain: all finite, g and gamma >= 0 (> 0 with lo_open)."""
    _require("g", g, lo=0, lo_open=lo_open)
    _require("lam", lam)
    _require("gamma", gamma, lo=0, lo_open=lo_open)


def _rhs_matrix(g: float, lam: float, gamma: float) -> np.ndarray:
    """M of dX/dt = M X, X = (X+, X-, Y+, Y-) in the frame rotating at omega0.

    X+- are the sum/difference combinations of the two lowering-operator
    expectations, Y+- their fluctuator-weighted counterparts (resonant case).
    """
    return np.array(
        [
            [0.0, -1j * g, 0.0, 0.0],
            [-1j * g, 0.0, 0.0, -2j * lam],
            [0.0, 0.0, -2.0 * gamma, -1j * g],
            [0.0, -2j * lam, -1j * g, -2.0 * gamma],
        ],
        dtype=complex,
    )


def integrate_reduced(g: float, lam: float, gamma: float, t_grid) -> CoherenceTrace:
    """Exact propagation of the reduced system; returns C(t) = sqrt(2)|X+|.

    The amplitudes obey dX/dt = M X with the constant matrix M of
    _rhs_matrix, so X(t) = e^(Mt) X(0); the |0>+|1> superposition starts at
    X(0) = (1/sqrt(2), 0, 0, 0).  On an equispaced grid t_n = t_0 + n h with
    n = b B + m and B ~ sqrt(T) (model._uniform_block), X(t_{bB}) is chained
    from t = 0 by e^(M t_0) and e^(M B h), the rows e_0^T P^m by P = e^(M h),
    and X+(t_n) = e_0^T P^m X(t_{bB}) is one matrix product.  Any other grid
    has B = 1 and one step matrix per distinct interval.  No eigenvectors are
    formed, so exceptional points cost nothing extra.  A non-finite M or
    result raises NumericalError.  The reduced system is exact for the
    |0>+|1> initial state at zero detuning, so this agrees with the dense
    Lindblad evolution to that evolution's own accuracy.
    """
    _rates(g, lam, gamma)
    t_arr = _time_grid(t_grid)
    m = _rhs_matrix(g, lam, gamma)
    where = f"g = {g:g}, lambda = {lam:g}, gamma = {gamma:g}"
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"reduced system is not finite for {where}")
    block, h = _uniform_block(t_arr)
    steps = np.diff(t_arr[::block], prepend=0.0)
    if h > 0:
        steps[1:] = block * h
    step_matrices: dict[float, np.ndarray] = {}
    coarse = np.empty((steps.size, 4), dtype=complex)
    x = np.array([1.0 / _SQRT2, 0.0, 0.0, 0.0], complex)
    for k, dt in enumerate(steps):
        if dt not in step_matrices:
            step_matrices[dt] = expm(dt * m)
        x = step_matrices[dt] @ x
        coarse[k] = x
    p = expm(h * m)
    fine = np.empty((block, 4), dtype=complex)
    fine[0] = (1.0, 0.0, 0.0, 0.0)
    for j in range(1, block):
        fine[j] = fine[j - 1] @ p
    values = _SQRT2 * np.abs((coarse @ fine.T).ravel()[: t_arr.size])
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"reduced propagator overflowed for {where}")
    return CoherenceTrace(t=t_arr, values=values)


def _damped_rates(g: float, lam: float, gamma: float, regime: DampingRegime):
    """(Gamma, kappa^2) of a damped-oscillator regime: the envelope decays at
    Gamma and oscillates at kappa.  None in the intermediate regime, whose
    decay is a plain exponential."""
    if regime is DampingRegime.WEAK_COUPLING:
        return gamma, lam**2 - gamma**2
    if regime is DampingRegime.STRONG_WEAK_DAMP:
        return gamma, (g**2 / (2.0 * abs(lam))) ** 2 - gamma**2
    if regime is DampingRegime.STRONG_STRONG_DAMP:
        gamma_eff = lam**2 / gamma
        return gamma_eff, g**2 - gamma_eff**2
    return None


def _critical(gamma_eff: float, kappa_sq: float) -> bool:
    """Critical damping: kappa^2 vanishes against Gamma^2."""
    return abs(kappa_sq) < 1e-12 * max(gamma_eff**2, 1e-300)


def _damped_bracket(gamma_eff: float, kappa_sq: float, t: np.ndarray) -> np.ndarray:
    """cos(kappa t) + (Gamma/kappa) sin(kappa t), analytically continued.

    kappa_sq may be negative (overdamped: cosh/sinh) or zero (critical:
    1 + Gamma t); the expression is continuous in kappa_sq.
    """
    if _critical(gamma_eff, kappa_sq):
        return 1.0 + gamma_eff * t
    kappa = complex(math.sqrt(abs(kappa_sq)))
    if kappa_sq < 0:
        kappa = 1j * kappa
    out = np.cos(kappa * t) + (gamma_eff / kappa) * np.sin(kappa * t)
    return out.real


@_over_time
def coherence_weak_damped(g: float, lam: float, gamma: float, t):
    """Weak-coupling damped coherence: Rabi oscillation under a decaying envelope.

    e^(-gamma t) |cos(g t)| times |cos(eta t) + (gamma/eta) sin(eta t)| with
    eta = sqrt(lam^2 - gamma^2), continued through critical damping at
    gamma = |lam|.
    """
    _rates(g, lam, gamma)
    _check_ratio("weak-coupling damped formula", "g/|lam|", g, abs(lam))
    gamma_eff, kappa_sq = _damped_rates(g, lam, gamma, DampingRegime.WEAK_COUPLING)
    env = np.exp(-gamma_eff * t) * _damped_bracket(gamma_eff, kappa_sq, t)
    return np.abs(np.cos(g * t) * env)


@_over_time
def coherence_strong_damped(g: float, lam: float, gamma: float, t):
    """Strong-coupling damped coherence in the regime classify_regime assigns.

    Weak damping: damped oscillation at g^2/2|lam| with rate gamma.
    Intermediate: pure exponential at g^2 gamma / 2 lam^2.
    Strong damping: damped oscillation at ~g with rate lam^2/gamma
    (re-emergent Rabi oscillations).
    """
    if lam == 0.0:
        raise InvalidInputError("strong-coupling formulas require lam != 0")
    _check_ratio("strong-coupling damped formula", "|lam|/g", abs(lam), g)
    regime = classify_regime(g, lam, gamma)
    if regime is DampingRegime.STRONG_INTERMEDIATE:
        return np.exp(-(g**2) * gamma * t / (2.0 * lam**2))
    if regime in (DampingRegime.STRONG_WEAK_DAMP, DampingRegime.STRONG_STRONG_DAMP):
        gamma_eff, kappa_sq = _damped_rates(g, lam, gamma, regime)
        return np.exp(-gamma_eff * t) * np.abs(_damped_bracket(gamma_eff, kappa_sq, t))
    raise InvalidInputError(
        f"regime {regime.value} is not a strong-coupling regime; "
        "use coherence_weak_damped instead"
    )


def slow_root_cubic(g: float, lam: float, gamma: float) -> float:
    """Slow real root of x^3 + 2 gamma x^2 + (g^2 + 4 lam^2) x + 2 gamma g^2 = 0.

    Returns the real root continuously connected to x = 0 as g -> 0; for
    g << gamma, lam it approaches -g^2 gamma / 2 lam^2.  The full cubic is
    solved, not the quadratic shortcut.
    """
    _rates(g, lam, gamma, lo_open=True)
    if lam == 0.0:
        raise InvalidInputError("slow_root_cubic requires lam != 0")
    roots = np.roots([1.0, 2.0 * gamma, g**2 + 4.0 * lam**2, 2.0 * gamma * g**2])
    scale = max(gamma, abs(lam), g)
    real_roots = [r.real for r in roots if abs(r.imag) < 1e-9 * scale]
    assert real_roots, "cubic with positive coefficients always has a real root"
    return min(real_roots, key=abs)


def classify_regime(g: float, lam: float, gamma: float) -> DampingRegime:
    """Map (g, |lam|, gamma) to a damping regime at the fixed ratio _CLASSIFY_RATIO."""
    _rates(g, lam, gamma)
    al = abs(lam)
    if g >= _CLASSIFY_RATIO * al:
        return DampingRegime.WEAK_COUPLING
    if gamma <= al / _CLASSIFY_RATIO:
        return DampingRegime.STRONG_WEAK_DAMP
    if gamma >= _CLASSIFY_RATIO * al:
        return DampingRegime.STRONG_STRONG_DAMP
    return DampingRegime.STRONG_INTERMEDIATE


def damping_character(g: float, lam: float, gamma: float) -> DampingCharacter | None:
    """Under/over/critical sub-flag for the damped-oscillator regimes.

    Returns None in the intermediate regime, where the decay is a plain
    exponential with no oscillator analogue.
    """
    rates = _damped_rates(g, lam, gamma, classify_regime(g, lam, gamma))
    if rates is None:
        return None
    gamma_eff, kappa_sq = rates
    if _critical(gamma_eff, kappa_sq):
        return DampingCharacter.CRITICAL
    return DampingCharacter.UNDERDAMPED if kappa_sq > 0 else DampingCharacter.OVERDAMPED
