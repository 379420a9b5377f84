"""Coherence of an ensemble of frozen (non-dissipative) fluctuators.

The exact coherence is a thermally weighted sum over all 2^N fluctuator
configurations, each shifting the TLS detuning by twice the inner product of
the configuration with the coupling vector.  For large ensembles the inner
product distribution is approximated as Gaussian, giving a continuum-limit
integral plus narrow- and broad-ensemble closed forms.  The exact sum and the
continuum quadrature share one kernel: each Jaynes--Cummings amplitude is split
into two plain exponentials, so K configurations or quadrature nodes become a
sum of 2K terms c_j e^{i omega_j t}, which on an equispaced time grid is
evaluated in sqrt(T)-long blocks as one matrix product.  The coupling samplers
reproduce the uniform and spatially distributed ensembles used in the
reference scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DegenerateEigensystemError,
    InvalidInputError,
    NumericalError,
)
from .model import (
    JcParams,
    ThermalContext,
    thermal_population,
    _check_ratio,
    _exp_sum,
    _mixture_coherence,
    _over_time,
    _rabi_envelope,
    _require,
    _warn,
)
from .single_fluctuator import TlfSpec

__all__ = [
    "TlfEnsemble",
    "EnsembleStats",
    "ensemble_stats",
    "coherence_exact_ensemble",
    "coherence_continuum",
    "coherence_narrow",
    "coherence_broad_integral",
    "coherence_broad_erfc",
    "coherence_broad_linear",
    "sample_uniform_couplings",
    "sample_spatial_couplings",
]

# Splitting range (units of omega0) for sampled fluctuators; the splittings
# are irrelevant in the scale-separated regime but keep finite-temperature
# runs well-defined.
_EPS_RANGE = (0.01, 0.2)


@dataclass(frozen=True)
class TlfEnsemble:
    """A list of fluctuators plus the thermal context weighting their states."""

    tlfs: tuple[TlfSpec, ...]
    ctx: ThermalContext

    def __post_init__(self) -> None:
        object.__setattr__(self, "tlfs", tuple(self.tlfs))

    @property
    def n(self) -> int:
        return len(self.tlfs)


@dataclass(frozen=True)
class EnsembleStats:
    """Thermally weighted mean/variance of the coupling inner product.

    mu = sum_j lam_j tanh(eps_j / 2kT), sigma2 = sum_j lam_j^2 sech^2(...),
    and r = max_j(sigma_j^2) / sigma2 measures whether a single fluctuator
    dominates (r close to 1 breaks the Gaussian continuum limit).  r is NaN
    when sigma2 = 0 (degenerate: all couplings vanish).
    """

    mu: float
    sigma2: float
    r: float = math.nan

    def __post_init__(self) -> None:
        _require("mu", self.mu)
        _require("sigma2", self.sigma2, lo=0)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def degenerate(self) -> bool:
        return self.sigma2 == 0.0


def ensemble_stats(ens: TlfEnsemble) -> EnsembleStats:
    """Exact thermally weighted statistics of the ensemble's inner product."""
    _require("n", ens.n, lo=1)
    th = [ens.ctx.tanh_factor(tlf.epsilon) for tlf in ens.tlfs]  # sech^2 is 1 - th^2
    per_tlf = np.array([tlf.lam**2 * (1.0 - t**2) for tlf, t in zip(ens.tlfs, th)])
    mu = sum(tlf.lam * t for tlf, t in zip(ens.tlfs, th))
    sigma2 = float(per_tlf.sum())
    r = float(per_tlf.max() / sigma2) if sigma2 > 0 else math.nan
    return EnsembleStats(mu=mu, sigma2=sigma2, r=r)


def _configuration_table(ens: TlfEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Inner products and probabilities of all 2^N configurations."""
    lam_sum = np.zeros(1)
    prob = np.ones(1)
    for tlf in ens.tlfs:
        p_plus, p_minus = thermal_population(tlf.epsilon, ens.ctx)
        lam_sum = np.concatenate([lam_sum + tlf.lam, lam_sum - tlf.lam])
        prob = np.concatenate([prob * p_plus, prob * p_minus])
    return lam_sum, prob


# Work budget: configurations, nodes or Monte-Carlo draws x points.
MAX_TERMS = 2**28


def _check_budget(count, points: int, what: str) -> None:
    """Raise CapacityError when count x max(points, 256) exceeds MAX_TERMS.

    Every costly kernel calls this before it allocates: ``count`` is what it
    sums or draws per point.  Per-count arrays are allocated whole, so fewer
    than 256 points count as 256, which keeps them at 2^20 elements or fewer.
    """
    terms = count * max(points, 256)
    if not terms <= MAX_TERMS:  # a NaN count (0 x inf phase) is refused too
        # 2^N for a large N is an int that no float can hold
        shown = "over 1e300" if terms >= 1e300 else f"{terms:.6g}"
        raise CapacityError(f"{what} at {points} points (at least 256 counted) is "
                            f"{shown} terms, more than {MAX_TERMS}")


@_over_time
def coherence_exact_ensemble(params: JcParams, ens: TlfEnsemble, t):
    """Exact 2^N-configuration coherence sum.

    Each configuration contributes its probability times exp(-i Lam t) and the
    JC amplitude at detuning delta + 2 Lam, Lam being its inner product; the
    2^N amplitudes are summed as 2^(N+1) plain exponentials, blocked on
    equispaced grids (see the module docstring).  Returns the shape of t.

    Raises CapacityError, before any evaluation, when 2^N configurations
    exceed the work budget (see _check_budget; N <= 20 at any grid size, use
    the continuum approximation beyond), and DegenerateEigensystemError if any
    configuration shifts the system exactly onto the degenerate point.
    """
    _check_budget(2**ens.n, t.size, f"exact ensemble sum over 2^{ens.n} configurations")
    lam_sum, prob = _configuration_table(ens)
    return _mixture_coherence(params.g, params.delta, lam_sum, prob, t)


def _gaussian(stats: EnsembleStats, lam: np.ndarray) -> np.ndarray:
    return np.exp(-((lam - stats.mu) ** 2) / (2.0 * stats.sigma2)) / (
        math.sqrt(2.0 * math.pi) * stats.sigma
    )


@lru_cache(maxsize=16)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over consecutive panels given by edges."""
    x, w = _leggauss(order)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def oscillation_panels(lo: float, hi: float, freq: float, min_panels: int = 16) -> float:
    """Panels over [lo, hi] that each span at most ~pi/2 of a phase slope |freq|.

    min_panels is added as a floor for non-oscillatory structure.  Returned as
    a float, which is inf when the phase overflows.
    """
    return float(np.ceil((hi - lo) * abs(freq) / (np.pi / 2.0))) + min_panels


# Gauss orders of the checked quadrature: a value and its check on the same
# panels, so every panel costs the sum of both in nodes.
_ORDERS = (16, 8)
_NODES_PER_PANEL = sum(_ORDERS)

# Relative order-16 vs order-8 gap each integral accepts; the CLI manifest
# records both as tolerance.quad_rel_tol and tolerance.broad_rel_tol.
QUAD_REL_TOL = 1e-8
BROAD_REL_TOL = 1e-6


def _checked_gauss(evaluate, t: np.ndarray, rel_tol: float, what: str) -> np.ndarray:
    """evaluate(order) at the higher Gauss order, checked against the lower.

    Both are taken on the same panels; a point whose two values differ by more
    than rel_tol x max(|value|, 0.05) raises NumericalError, naming its t.
    """
    total, check = (evaluate(order) for order in _ORDERS)
    bad = np.abs(total - check) > rel_tol * np.maximum(np.abs(total), 0.05)
    if np.any(bad):
        raise NumericalError(f"{what} not converged at t = {t[bad][0]:.6g}")
    return total


@_over_time
def coherence_continuum(params: JcParams, stats: EnsembleStats, t):
    """Gaussian continuum-limit coherence, by checked panel quadrature.

    Integrates the Gaussian-weighted JC amplitude over inner products within
    eight standard deviations of the mean (tail mass < 1e-15), on panels that
    each span pi/2 of the phase at the largest t (at least 16), at Gauss order
    16 checked against order 8 to QUAD_REL_TOL.  Each evaluation is the
    exact sum's mixture kernel with the quadrature nodes as inner products and
    the Gaussian-scaled weights as probabilities: 2K plain exponentials for K
    nodes, blocked on equispaced grids.  Returns the shape of t.

    Raises CapacityError, before any evaluation, when the nodes of both orders
    exceed the work budget (see _check_budget), and NumericalError when the
    two orders disagree.
    """
    _require("sigma2", stats.sigma2, lo=0, lo_open=True)
    lo, hi = stats.mu - 8.0 * stats.sigma, stats.mu + 8.0 * stats.sigma
    # phase slope of exp(-i Lam t) exp(+/- i Omega(Lam) t / 2) is at most 2t
    panels = oscillation_panels(lo, hi, 2.0 * float(np.max(t, initial=0.0)))
    nodes = _NODES_PER_PANEL * panels
    _check_budget(nodes, t.size, f"continuum quadrature over {nodes:.6g} nodes")
    edges = np.linspace(lo, hi, int(panels) + 1)

    def evaluate(order: int) -> np.ndarray:
        lam, weights = panel_nodes(edges, order)
        return _mixture_coherence(params.g, params.delta, lam,
                                  weights * _gaussian(stats, lam), t)

    return _checked_gauss(evaluate, t, QUAD_REL_TOL, "continuum quadrature")


@_over_time
def coherence_narrow(params: JcParams, stats: EnsembleStats, t):
    """Narrow-ensemble law: mean-shifted Rabi oscillation times a Gaussian envelope.

    C_GR evaluated with the detuning shifted by 2*mu, multiplied by
    exp(-sigma^2 t^2 / 2).  Intended for g >> sigma and t << g / sigma^2.
    """
    _check_ratio("narrow-ensemble law", "g/sigma", params.g, stats.sigma)
    delta_mu = params.delta + 2.0 * stats.mu
    omega_mu = math.hypot(2.0 * params.g, delta_mu)
    if omega_mu == 0.0:
        raise DegenerateEigensystemError("mean-shifted doublet is degenerate")
    rabi = _rabi_envelope(omega_mu * t / 2.0, delta_mu / omega_mu)
    return rabi * np.exp(-stats.sigma2 * t**2 / 2.0)


# Broad integral: excision edge (units of sigma) and geometric u-edges per side.
_BROAD_CUT = 1e-3
_BROAD_GEOM_EDGES = 257


def _excised_window(stats: EnsembleStats, phi: np.ndarray, lam_cut: float) -> np.ndarray:
    """Contribution of |Lam| < lam_cut to the broad integral at each phase phi.

    The Gaussian weight is expanded to second order about zero (the window is
    a thousand times narrower than sigma) and the oscillatory moments
    int_0^cut Lam^k exp(i phi / Lam) dLam = cut^(k+1) E_(k+2)(-i phi / cut)
    come from the upward recurrence E_{n+1} = (e^-z - z E_n)/n.
    """
    from scipy.special import exp1

    c0 = float(_gaussian(stats, np.array(0.0)))
    c1 = c0 * stats.mu / stats.sigma2
    c2 = c0 * (stats.mu**2 / stats.sigma2**2 - 1.0 / stats.sigma2) / 2.0
    z = -1j * phi / lam_cut
    e = [exp1(z)]  # E_1 .. E_4
    for n in range(1, 4):
        e.append((np.exp(-z) - z * e[-1]) / n)
    m = [lam_cut ** (k + 1) * e[k + 1] for k in range(3)]
    return 2.0 * (c0 * m[0].real + 1j * c1 * m[1].imag + c2 * m[2].real)


@_over_time
def coherence_broad_integral(g: float, stats: EnsembleStats, t):
    """Broad-ensemble integral |int N(mu, sigma^2) exp(i g^2 t / 2 Lam) dLam|.

    The essential singularity at Lam = 0 is excised over |Lam| < 1e-3 sigma
    and that window added in closed form.  Outside it, u = 1/Lam turns each
    side into int N(+/-1/u) u^-2 exp(+/- i phi u) du, phi = g^2 t / 2: over
    Gauss nodes u_j, which do not depend on t, one exponential sum for the
    whole grid.  The u-panels are geometric joined with a step of
    pi / (2 phi_max); order 16 is checked against order 8 to BROAD_REL_TOL.

    Raises CapacityError, before any evaluation, when the nodes of both orders
    exceed the work budget (see _check_budget), and NumericalError when the
    two orders disagree.
    """
    _require("g", g)
    _require("sigma2", stats.sigma2, lo=0, lo_open=True)
    phi = g**2 * t / 2.0
    # |C - 1| <= int N min(2, phi/|Lam|) dLam = O(sqrt(phi/sigma)), so for
    # phases this small the integral is 1 to far below every tolerance;
    # evaluating it would also underflow the excision window
    live = phi >= 1e-18 * stats.sigma
    out = np.ones(t.shape)
    if np.any(live):
        lam_cut = _BROAD_CUT * stats.sigma
        reach = [(8.0 * stats.sigma + stats.mu, 1.0), (8.0 * stats.sigma - stats.mu, -1.0)]
        sides = [(1.0 / b, sign) for b, sign in reach if b > lam_cut]
        # linear panels span pi/2 of the phase phi_max u each; merged with the
        # geometric edges, which share both ends, they give G - 2 more panels
        n_lin = [oscillation_panels(u_lo, 1.0 / lam_cut, np.max(phi), 0) for u_lo, _ in sides]
        nodes = _NODES_PER_PANEL * sum(n + _BROAD_GEOM_EDGES - 2 for n in n_lin)
        _check_budget(nodes, t.size, f"broad integral over {nodes:.6g} nodes")
        edges = [(np.union1d(np.geomspace(u_lo, 1.0 / lam_cut, _BROAD_GEOM_EDGES),
                             np.linspace(u_lo, 1.0 / lam_cut, int(n) + 1)), sign)
                 for (u_lo, sign), n in zip(sides, n_lin)]
        window = _excised_window(stats, phi[live], lam_cut)

        def evaluate(order: int) -> np.ndarray:
            parts = [(sign, *panel_nodes(e, order)) for e, sign in edges]
            freq = np.concatenate([sign * g**2 / 2.0 * u for sign, u, _ in parts])
            coef = np.concatenate([w * _gaussian(stats, sign / u) / u**2 for sign, u, w in parts])
            return _exp_sum(freq, coef, t)[live] + window

        out[live] = np.abs(_checked_gauss(evaluate, t[live], BROAD_REL_TOL,
                                          "broad-ensemble quadrature"))
    return out


@_over_time
def coherence_broad_erfc(g: float, stats: EnsembleStats, t):
    """Short-time broad-ensemble law via complementary error functions.

    (1/2)[erfc(g^2 t / 2 sigma + mu / sqrt(2) sigma) + erfc(... - ...)];
    reduces to erfc(g^2 t / 2 sigma) for mu << sigma.  Fails for mu >> sigma
    (the fast-oscillating region leaves the distribution's support).
    """
    from scipy.special import erfc

    _require("g", g)
    _require("sigma2", stats.sigma2, lo=0, lo_open=True)
    if abs(stats.mu) > stats.sigma:
        _warn(f"erfc law unreliable for |mu|/sigma = {abs(stats.mu) / stats.sigma:.3g} > 1")
    x = g**2 * t / (2.0 * stats.sigma)
    shift = stats.mu / (math.sqrt(2.0) * stats.sigma)
    return 0.5 * (erfc(x + shift) + erfc(x - shift))


@_over_time
def coherence_broad_linear(g: float, stats: EnsembleStats, t):
    """Shortest-time broad-ensemble law: linear decay, floored at zero."""
    _require("g", g)
    _require("sigma2", stats.sigma2, lo=0, lo_open=True)
    slope = g**2 * math.exp(-(stats.mu**2) / (2.0 * stats.sigma2)) / (
        math.sqrt(math.pi) * stats.sigma
    )
    return np.maximum(0.0, 1.0 - slope * t)


def sample_uniform_couplings(n: int, half_width: float, rng: np.random.Generator) -> list[TlfSpec]:
    """n couplings i.i.d. uniform on [-half_width, +half_width], seeded rng."""
    _require("n", n, lo=1)
    _require("half_width", half_width, lo=0, lo_open=True)
    lams = rng.uniform(-half_width, half_width, n)
    eps = rng.uniform(*_EPS_RANGE, n)
    return [TlfSpec(epsilon=e, lam=l) for e, l in zip(eps, lams)]


def sample_spatial_couplings(
    n: int,
    dim: int,
    box: tuple[float, float],
    scale: float,
    g: float,
    rng: np.random.Generator,
) -> list[TlfSpec]:
    """Couplings from uniform random positions: lam = +/- g * scale / r^dim.

    Positions are uniform in box^dim (units of the short-distance cutoff; the
    box must exclude the origin) and the sign of each coupling is a fair coin.
    """
    _require("n", n, lo=1)
    if dim not in (2, 3):
        raise InvalidInputError(f"dim must be 2 or 3, got {dim}")
    lo = _require("box[0]", box[0], lo=0, lo_open=True)
    hi = _require("box[1]", box[1], lo=lo, lo_open=True)
    _require("scale", scale)
    _require("g", g)
    coords = rng.uniform(lo, hi, (n, dim))
    signs = rng.integers(0, 2, n) * 2 - 1
    r2 = np.sum(coords**2, axis=1)
    lams = signs * g * scale / r2 ** (dim / 2.0)
    eps = rng.uniform(*_EPS_RANGE, n)
    return [TlfSpec(epsilon=e, lam=l) for e, l in zip(eps, lams)]
