"""Core parameter types and the closed Jaynes--Cummings coherence formulas.

All frequencies are angular frequencies expressed in units of a chosen base
frequency (the oscillator frequency ``omega0``, equal to 1 by default).  Every
function here is a pure function of immutable inputs and is safe to call
concurrently.
"""
from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEigensystemError, InvalidInputError, RegimeWarning

__all__ = [
    "JcParams",
    "ThermalContext",
    "JcEigensystem",
    "CoherenceTrace",
    "thermal_population",
    "jc_eigensystem",
    "coherence_gr",
    "coherence_gr_short_time",
]


# Ratio below which an approximate law's regime precondition triggers a
# RegimeWarning.  The reference comparisons deliberately go outside strict
# validity (ratios down to ~3), so the warnings are advisory, never errors.
_ADVISORY_RATIO = 3.0


def _warn(message: str, category: type[Warning] = RegimeWarning) -> None:
    """Warn, naming the first caller outside the tlfsim package as the location."""
    frame, level = sys._getframe(1), 2
    while frame.f_back and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _check_ratio(what: str, name: str, large: float, small: float) -> None:
    """Warn that `what` is outside its regime unless large >= _ADVISORY_RATIO * small."""
    if small > 0 and large < _ADVISORY_RATIO * small:
        _warn(f"{what} outside regime: {name} = {large / small:.3g}")


@dataclass(frozen=True)
class JcParams:
    """Oscillator frequency, TLS splitting and exchange coupling.

    Attributes
    ----------
    omega0 : float
        Oscillator angular frequency (> 0).
    epsilon_t : float
        TLS energy splitting (> 0).
    g : float
        Oscillator--TLS exchange coupling (>= 0).
    """

    omega0: float
    epsilon_t: float
    g: float

    def __post_init__(self) -> None:
        for name in ("omega0", "epsilon_t", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {float(value)!r}")
        if self.omega0 <= 0:
            raise InvalidInputError(f"omega0 must be positive, got {self.omega0}")
        if self.epsilon_t <= 0:
            raise InvalidInputError(f"epsilon_t must be positive, got {self.epsilon_t}")
        if self.g < 0:
            raise InvalidInputError(f"g must be nonnegative, got {self.g}")
        if not self.is_weakly_coupled:
            _warn(f"g = {self.g} is not small compared to min(epsilon_t, omega0); "
                  "the exchange-coupling model may not apply", UserWarning)

    @property
    def delta(self) -> float:
        """Detuning epsilon_t - omega0 (exact in floating arithmetic)."""
        return self.epsilon_t - self.omega0

    @property
    def is_weakly_coupled(self) -> bool:
        return self.g < min(self.epsilon_t, self.omega0)


@dataclass(frozen=True)
class ThermalContext:
    """Temperature handling for fluctuator populations.

    Either scale-separated (temperature far above every fluctuator splitting,
    so both states are equally populated) or a finite temperature with thermal
    energy ``kt``.
    """

    kt: float | None = None

    def __post_init__(self) -> None:
        if self.kt is not None and not (math.isfinite(self.kt) and self.kt > 0):
            raise InvalidInputError(f"kt must be positive and finite, got {float(self.kt)!r}")

    @classmethod
    def scale_separated(cls) -> "ThermalContext":
        return cls(kt=None)

    @classmethod
    def finite_temperature(cls, kt: float) -> "ThermalContext":
        return cls(kt=kt)

    def tanh_factor(self, epsilon: float) -> float:
        """tanh(epsilon / 2 kT); zero in the scale-separated limit."""
        if not math.isfinite(epsilon) or epsilon < 0:
            raise InvalidInputError(f"epsilon must be finite and >= 0, got {float(epsilon)!r}")
        if self.kt is None:
            return 0.0
        # math.tanh saturates to +/-1 without overflow for large arguments
        return math.tanh(epsilon / (2.0 * self.kt))

    def sech2_factor(self, epsilon: float) -> float:
        """sech^2(epsilon / 2 kT); unity in the scale-separated limit."""
        return 1.0 - self.tanh_factor(epsilon) ** 2


@dataclass(frozen=True)
class JcEigensystem:
    """First-doublet eigensystem of the exchange-coupled oscillator--TLS pair."""

    omega: float  # generalized Rabi frequency, sqrt(4 g^2 + delta^2)
    cos_theta_plus: float
    sin_theta_plus: float
    cos_theta_minus: float
    sin_theta_minus: float
    omega1_plus: float
    omega1_minus: float
    omega_ground: float


@dataclass(frozen=True)
class CoherenceTrace:
    """Time grid plus coherence magnitudes."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.t.shape != self.values.shape:
            raise InvalidInputError(
                f"shape mismatch: t {self.t.shape} vs values {self.values.shape}"
            )


def thermal_population(epsilon: float, ctx: ThermalContext) -> tuple[float, float]:
    """Thermal populations (p_plus, p_minus) of a fluctuator with splitting epsilon.

    p_plus = (1 - tanh(eps/2kT)) / 2 is the excited-state population and
    p_minus = (1 + tanh(eps/2kT)) / 2 the ground-state one; they always sum
    to 1.  In the scale-separated limit both are 1/2 regardless of epsilon.
    """
    th = ctx.tanh_factor(epsilon)
    return (1.0 - th) / 2.0, (1.0 + th) / 2.0


def jc_eigensystem(params: JcParams) -> JcEigensystem:
    """Mixing angles and eigenfrequencies of the first excited doublet.

    Raises
    ------
    DegenerateEigensystemError
        If g = 0 and delta = 0 simultaneously (the doublet splitting vanishes
        and the mixing angles are undefined).
    """
    delta = params.delta
    omega = math.hypot(2.0 * params.g, delta)
    if omega == 0.0:
        raise DegenerateEigensystemError(
            "g = 0 and delta = 0: doublet splitting vanishes"
        )
    cos_p = math.sqrt((omega - delta) / (2.0 * omega))
    sin_p = math.sqrt((omega + delta) / (2.0 * omega))
    return JcEigensystem(
        omega=omega,
        cos_theta_plus=cos_p,
        sin_theta_plus=sin_p,
        cos_theta_minus=sin_p,
        sin_theta_minus=cos_p,
        omega1_plus=(params.omega0 + omega) / 2.0,
        omega1_minus=(params.omega0 - omega) / 2.0,
        omega_ground=-params.epsilon_t / 2.0,
    )


def _as_time(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError("t must be finite and nonnegative")
    return arr


def _over_time(kernel):
    """The time-argument rule of kernel(..., t): t, a finite nonnegative scalar or array
    of any shape, reaches the kernel as a 1-D float grid, and the result comes back in
    t's shape, or as a Python float for a scalar t."""
    @functools.wraps(kernel)
    def over_time(*args, **kwargs):
        if "t" not in kwargs:
            *args, kwargs["t"] = args
        arr = _as_time(kwargs["t"])
        kwargs["t"] = arr.ravel()
        out = kernel(*args, **kwargs)
        return out.reshape(arr.shape) if arr.ndim else float(out[0])
    return over_time


def _time_grid(t) -> np.ndarray:
    """t as a 1-D float grid; InvalidInputError unless sorted, finite and nonnegative."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr) & (arr >= 0)) or np.any(np.diff(arr) < 0):
        raise InvalidInputError("t_grid must be a 1-D sorted, finite, nonnegative grid")
    return arr


def _rabi_envelope(x, r):
    """sqrt(cos^2 x + r^2 sin^2 x): oscillates between 1 and |r|."""
    return np.sqrt(np.cos(x) ** 2 + r**2 * np.sin(x) ** 2)


# Largest work array, in elements, that one pass of the exponential-sum
# kernel allocates.
_WORK_ELEMENTS = 2**18


def _uniform_block(t: np.ndarray) -> tuple[int, float]:
    """Block length B and step h of an equispaced grid; (1, 0.0) for any other grid.

    A grid counts as equispaced when every point lies within a few ulp of
    max |t| of t_0 + n h, which np.linspace output always does.
    """
    n = t.size
    if n < 3:
        return 1, 0.0
    h = (t[-1] - t[0]) / (n - 1)
    if np.max(np.abs(t - (t[0] + h * np.arange(n)))) > 4.0 * np.spacing(np.max(np.abs(t))):
        return 1, 0.0
    return round(math.sqrt(n)), h


def _phasors(phase: np.ndarray) -> np.ndarray:
    """exp(i phase), from one cos and one sin per element."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _phasor_rows(start: float, step: float, f: np.ndarray, rows: int) -> np.ndarray:
    """exp(i f (start + r step)) for r < rows, as a (rows, f.size) table.

    Doubling: rows [n, 2n) are rows [0, n) times exp(i f n step), so each
    entry is a product of at most log2(rows) + 1 direct phasors.
    """
    out = np.empty((rows, f.size), dtype=complex)
    out[0] = _phasors(start * f)
    n = 1
    while n < rows:
        m = min(n, rows - n)
        np.multiply(out[:m], _phasors(n * step * f), out=out[n : n + m])
        n *= 2
    return out


def _exp_sum(freq: np.ndarray, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coef_j exp(i freq_j t) at each point of the 1-D grid t, as complex.

    On an equispaced grid t_n = t_0 + n h, write n = b B + m with B ~ sqrt(T):
    e^{i freq t_n} = e^{i freq (t_0 + bBh)} e^{i freq m h}, so the sum is one
    matrix product Z @ E^T of a (T/B, J) and a (B, J) phasor table, each from
    _phasor_rows: about 2 J log2 sqrt(T) cos/sin pairs and 2 J sqrt(T)
    complex products for J terms.  t_0 + bBh agrees with the grid's own t_{bB}
    within _uniform_block's 4 ulp.  Any other grid has B = 1 and one direct
    phasor per point and term.  Terms are taken in chunks so that no work
    array exceeds _WORK_ELEMENTS elements.
    """
    block, h = _uniform_block(t)
    rows = -(-t.size // block)
    total = np.zeros((rows, block), dtype=complex)
    chunk = max(1, _WORK_ELEMENTS // max(rows, block))
    for i in range(0, freq.size, chunk):
        f = freq[i : i + chunk]
        z = (_phasors(np.multiply.outer(t, f)) if block == 1
             else _phasor_rows(t[0], block * h, f, rows))
        z *= coef[i : i + chunk]
        total += z @ _phasor_rows(0.0, h, f, block).T
    return total.ravel()[: t.size]


def _mixture_coherence(g: float, delta: float, lam, w, t):
    """|sum_k w_k exp(-i lam_k t) A_k(t)|, a weighted mixture of shifted JC amplitudes.

    A_k(t) = cos(Omega_k t / 2) + i (d_k / Omega_k) sin(Omega_k t / 2) with
    d_k = delta + 2 lam_k and Omega_k = sqrt(4 g^2 + d_k^2).  Splitting A_k
    into e^{+/- i Omega_k t / 2} turns the sum into 2K plain exponentials
    c_j e^{i omega_j t}, omega = -lam +/- Omega / 2, c = w (1 +/- d / Omega) / 2,
    which _exp_sum evaluates at each point of the 1-D grid t.
    """
    d = delta + 2.0 * lam
    omega = np.hypot(2.0 * g, d)
    if np.any(omega == 0.0):
        raise DegenerateEigensystemError(
            "a fluctuator configuration makes the shifted doublet degenerate"
        )
    ratio = d / omega
    freq = np.concatenate([omega / 2.0 - lam, -omega / 2.0 - lam])
    coef = np.concatenate([w * (1.0 + ratio), w * (1.0 - ratio)]) / 2.0
    return np.abs(_exp_sum(freq, coef, t))


@_over_time
def coherence_gr(params: JcParams, t) -> np.ndarray | float:
    """Coherence of the bare oscillator--TLS system at time(s) t.

    Evaluates sqrt(cos^2(Omega t / 2) + (delta/Omega)^2 sin^2(Omega t / 2)),
    which oscillates between 1 and |delta|/Omega.  At resonance this is
    |cos(g t)|.
    """
    eig = jc_eigensystem(params)
    return _rabi_envelope(eig.omega * t / 2.0, params.delta / eig.omega)


@_over_time
def coherence_gr_short_time(g: float, t) -> np.ndarray | float:
    """Quadratic short-time law 1 - g^2 t^2 / 2.

    Valid only while Omega t / 2 << 1; the caller is responsible for the
    regime.  Independent of the detuning.
    """
    return 1.0 - (g * t) ** 2 / 2.0
