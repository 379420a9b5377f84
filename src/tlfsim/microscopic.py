"""Microscopic fluctuator relations: phonon relaxation, dipolar couplings and
the Monte-Carlo average of the ensemble coupling variance.

Only scaling laws are physically meaningful here (the overall prefactor of the
average variance absorbs an unreported solid-angle and density constant), so
the tests check proportionalities, never absolute values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import _require

__all__ = [
    "TlsMicro",
    "MaterialParams",
    "McEstimate",
    "relaxation_rate",
    "coupling_from_geometry",
    "average_variance_mc",
]


@dataclass(frozen=True)
class TlsMicro:
    """Double-well defect: asymmetry and tunnel splitting."""

    delta: float
    delta0: float

    def __post_init__(self) -> None:
        _require("delta", self.delta)
        _require("delta0", self.delta0, lo=0)

    @property
    def epsilon(self) -> float:
        return math.hypot(self.delta, self.delta0)

    @property
    def u(self) -> float:
        """(delta0 / epsilon)^2, in (0, 1] for delta0 > 0."""
        return (self.delta0 / self.epsilon) ** 2


@dataclass(frozen=True)
class MaterialParams:
    """Material constants entering the microscopic rates and couplings."""

    chi: float  # phonon-rate prefactor
    d: int  # host dimensionality
    j0: float  # dipolar coupling constant
    r0: float  # short-distance cutoff
    cos_theta: float  # Delta_T / epsilon_T of the central TLS

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise InvalidInputError(f"d must be 2 or 3, got {self.d}")
        for name in ("chi", "j0", "r0"):
            _require(name, getattr(self, name), lo=0, lo_open=True)
        _require("cos_theta", self.cos_theta, lo=0, hi=1)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error."""

    value: float
    stderr: float
    truncation_remainder: float = 0.0  # fraction of the radial integral beyond r_max


def relaxation_rate(tls: TlsMicro, mat: MaterialParams, kt: float) -> float:
    """Phonon-mediated relaxation rate chi * eps^(d-2) * delta0^2 * coth(eps/2kT).

    Vanishes for a non-tunneling defect (delta0 = 0); maximal at delta0 = eps,
    where it scales as T^d near the thermal border eps ~ kT.
    """
    _require("kt", kt, lo=0, lo_open=True)
    eps = tls.epsilon
    if eps == 0.0:
        return 0.0
    return mat.chi * eps ** (mat.d - 2) * tls.delta0**2 / math.tanh(eps / (2.0 * kt))


def coupling_from_geometry(
    mat: MaterialParams, r: float, tlf_u: float, sign: int
) -> float:
    """Dipolar coupling at separation r: sign * J0 (r0/r)^d cos_theta sqrt(1 - u)."""
    _require("r", r, lo=mat.r0)
    _require("tlf_u", tlf_u, lo=0, hi=1, lo_open=True)
    if sign not in (-1, 1):
        raise InvalidInputError(f"sign must be +1 or -1, got {sign}")
    return sign * mat.j0 * (mat.r0 / r) ** mat.d * mat.cos_theta * math.sqrt(1.0 - tlf_u)


def _solid_angle(d: int) -> float:
    return 2.0 * math.pi if d == 2 else 4.0 * math.pi


def average_variance_mc(
    mat: MaterialParams,
    density: float,
    u_min: float,
    eps_max: float,
    r_max: float,
    kt: float,
    n_samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Monte-Carlo average of the coupling variance over the fluctuator ensemble.

    Importance-samples the radial coordinate with the integrand's r^(-d-1)
    profile and the barrier parameter u log-uniformly, leaving a low-variance
    weight proportional to sqrt(1 - u) sech^2(eps / 2kT).  Deterministic for a
    given generator state; batches drawn from independently seeded generators
    can run concurrently.
    """
    if _require("u_min", u_min, lo=0, lo_open=True) >= 1:
        raise InvalidInputError(f"u_min must be < 1, got {float(u_min)!r}")
    _require("n_samples", n_samples, lo=10_000)
    _require("eps_max", eps_max, lo=0, lo_open=True)
    _require("r_max", r_max, lo=mat.r0, lo_open=True)
    _require("kt", kt, lo=0, lo_open=True)
    _require("density", density, lo=0, lo_open=True)

    d = mat.d
    # radial importance density p(r) ~ r^(-d-1) matches the integrand's radial
    # profile exactly, so r integrates out analytically into z_r
    z_r = (mat.r0**-d - r_max**-d) / d
    # u importance density p(u) ~ 1/u on [u_min, 1]
    log_span = math.log(1.0 / u_min)
    # u_min ** (1 - U) and 1 / cosh(eps / 2kT) ** 2, each in its draw's array
    u = rng.uniform(0.0, 1.0, n_samples)
    np.power(u_min, np.subtract(1.0, u, out=u), out=u)
    sech2 = rng.uniform(0.0, eps_max, n_samples)
    np.cosh(np.divide(sech2, 2.0 * kt, out=sech2), out=sech2)
    np.divide(1.0, np.square(sech2, out=sech2), out=sech2)
    prefactor = (
        _solid_angle(d)
        * density
        * mat.j0**2
        * mat.cos_theta**2
        * mat.r0 ** (2 * d)
        * z_r
        * eps_max
        * log_span
        / 2.0
    )
    # prefactor * sqrt(1 - u) * sech2, in u's array
    weights = np.sqrt(np.subtract(1.0, u, out=u), out=u)
    np.multiply(prefactor, weights, out=weights)
    np.multiply(weights, sech2, out=weights)
    value = float(weights.mean())
    stderr = float(weights.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(value=value, stderr=stderr, truncation_remainder=(mat.r0 / r_max) ** d)
