"""Frozen fluctuator ensembles: exact sum, continuum limit and samplers."""
import cmath
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import exp1

import tlfsim as ts
from tlfsim import ensemble, model
from tlfsim.errors import (
    CapacityError,
    DegenerateEigensystemError,
    InvalidInputError,
    NumericalError,
    RegimeWarning,
)

from conftest import oracle_ensemble_trace


def uniform_ensemble(n, half_width, ctx, seed):
    rng = np.random.default_rng(seed)
    return ts.TlfEnsemble(ts.sample_uniform_couplings(n, half_width, rng), ctx)


class TestEnsembleStats:
    def test_single_tlf(self, ss):
        ens = ts.TlfEnsemble([ts.TlfSpec(0.1, 0.02)], ss)
        stats = ts.ensemble_stats(ens)
        assert stats.mu == 0.0
        assert stats.sigma2 == pytest.approx(0.02**2, abs=1e-18)
        assert stats.r == 1.0

    def test_two_opposite(self, ss):
        ens = ts.TlfEnsemble([ts.TlfSpec(0.1, 0.02), ts.TlfSpec(0.1, -0.02)], ss)
        stats = ts.ensemble_stats(ens)
        assert stats.mu == 0.0
        assert stats.sigma2 == pytest.approx(2 * 0.02**2, abs=1e-18)
        assert stats.r == pytest.approx(0.5, abs=1e-15)

    def test_finite_temperature_manual(self):
        ctx = ts.ThermalContext.finite_temperature(0.1)
        tlfs = [ts.TlfSpec(0.05, 0.01), ts.TlfSpec(0.2, -0.03)]
        stats = ts.ensemble_stats(ts.TlfEnsemble(tlfs, ctx))
        mu = sum(f.lam * math.tanh(f.epsilon / 0.2) for f in tlfs)
        s2 = sum(f.lam**2 / math.cosh(f.epsilon / 0.2) ** 2 for f in tlfs)
        assert stats.mu == pytest.approx(mu, rel=1e-14)
        assert stats.sigma2 == pytest.approx(s2, rel=1e-14)

    def test_degenerate(self, ss):
        stats = ts.ensemble_stats(ts.TlfEnsemble([ts.TlfSpec(0.1, 0.0)], ss))
        assert stats.degenerate
        assert math.isnan(stats.r)

    def test_empty_rejected(self, ss):
        with pytest.raises(InvalidInputError):
            ts.ensemble_stats(ts.TlfEnsemble([], ss))


class TestExactEnsemble:
    def test_initial_value(self, ss):
        ens = uniform_ensemble(6, 0.01, ss, 5)
        params = ts.JcParams(1.0, 1.0, 0.1)
        assert ts.coherence_exact_ensemble(params, ens, 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_empty_reduces_to_gr(self, ss):
        params = ts.JcParams(1.0, 1.03, 0.1)
        t = np.linspace(0.0, 100.0, 50)
        vals = ts.coherence_exact_ensemble(params, ts.TlfEnsemble([], ss), t)
        assert np.allclose(vals, ts.coherence_gr(params, t), atol=1e-15)

    def test_single_reduces_to_exact_single(self, ss):
        params = ts.JcParams(1.0, 1.02, 0.1)
        tlf = ts.TlfSpec(0.1, 0.013)
        t = np.linspace(0.0, 400.0, 300)
        ens_vals = ts.coherence_exact_ensemble(params, ts.TlfEnsemble([tlf], ss), t)
        assert np.array_equal(ens_vals, ts.coherence_exact_single(params, tlf, ss, t))

    def test_three_tlf_matches_oracle(self, ss):
        g = 0.1
        rng = np.random.default_rng(21)
        tlfs = [ts.TlfSpec(0.1, lam) for lam in rng.uniform(-0.05 * g, 0.05 * g, 3)]
        params = ts.JcParams(1.0, 1.0, g)
        t = np.linspace(0.0, 300.0, 301)
        trace = oracle_ensemble_trace(params, tlfs, ss, t)
        vals = ts.coherence_exact_ensemble(params, ts.TlfEnsemble(tlfs, ss), t)
        assert np.abs(vals - trace.values).max() < 1e-10

    def test_permutation_invariance(self, ss):
        params = ts.JcParams(1.0, 1.01, 0.1)
        tlfs = [ts.TlfSpec(0.1, lam) for lam in (0.004, -0.011, 0.007, 0.002)]
        t = np.linspace(0.0, 250.0, 100)
        fwd = ts.coherence_exact_ensemble(params, ts.TlfEnsemble(tlfs, ss), t)
        rev = ts.coherence_exact_ensemble(params, ts.TlfEnsemble(tlfs[::-1], ss), t)
        assert np.abs(fwd - rev).max() < 1e-13

    def test_zero_coupling_padding(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlfs = [ts.TlfSpec(0.1, 0.01), ts.TlfSpec(0.1, 0.0), ts.TlfSpec(0.1, 0.0)]
        t = np.linspace(0.0, 300.0, 200)
        padded = ts.coherence_exact_ensemble(params, ts.TlfEnsemble(tlfs, ss), t)
        single = ts.coherence_exact_single(params, tlfs[0], ss, t)
        assert np.abs(padded - single).max() < 1e-13

    def test_cap_exceeded(self, ss, monkeypatch):
        # the 256-point floor bounds N at 20 for any grid, even a single time
        ens = uniform_ensemble(21, 0.01, ss, 2)
        monkeypatch.setattr(ensemble, "_configuration_table", None)  # must not be reached
        with pytest.raises(CapacityError, match=r"2\^21 configurations at 1 points"):
            ts.coherence_exact_ensemble(ts.JcParams(1.0, 1.0, 0.1), ens, 1.0)

    def test_work_budget(self, ss, monkeypatch):
        monkeypatch.setattr(ensemble, "MAX_TERMS", 4 * 257)
        params, ens = ts.JcParams(1.0, 1.0, 0.1), uniform_ensemble(2, 0.01, ss, 2)
        at_budget = ts.coherence_exact_ensemble(params, ens, np.linspace(0.0, 10.0, 257))
        assert at_budget.shape == (257,)
        monkeypatch.setattr(ensemble, "_mixture_coherence", None)  # must not be reached
        with pytest.raises(CapacityError, match="1032 terms"):
            ts.coherence_exact_ensemble(params, ens, np.linspace(0.0, 10.0, 258))

    def test_degenerate_configuration(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.0)
        ens = ts.TlfEnsemble([ts.TlfSpec(0.1, 0.0)], ss)
        with pytest.raises(DegenerateEigensystemError):
            ts.coherence_exact_ensemble(params, ens, 1.0)

    def test_degenerate_single(self, ss):
        with pytest.raises(DegenerateEigensystemError):
            ts.coherence_exact_single(ts.JcParams(1.0, 1.0, 0.0), ts.TlfSpec(0.1, 0.0),
                                      ss, 1.0)


def brute_mixture(g, delta, lam, w, t):
    """Per-point |sum_k w_k e^{-i lam_k t} (cos(W t/2) + i (d/W) sin(W t/2))|."""
    out = []
    for ti in t:
        total = 0j
        for lk, wk in zip(lam, w):
            d = delta + 2.0 * lk
            om = math.hypot(2.0 * g, d)
            amp = complex(math.cos(om * ti / 2.0), d / om * math.sin(om * ti / 2.0))
            total += wk * cmath.exp(-1j * lk * ti) * amp
        out.append(abs(total))
    return np.array(out)


def nudged_linspace():
    t = np.linspace(0.0, 400.0, 500)
    t[137] += 1e-9
    return t


class TestWorkBudget:
    def test_check_budget_boundary(self):
        # MAX_TERMS = 2^28: 2^20 terms per point, with short grids counted as 256
        ensemble._check_budget(2**20, 2, "probe")
        ensemble._check_budget(2**20, 256, "probe")
        with pytest.raises(CapacityError, match="probe at 2 points"):
            ensemble._check_budget(2**20 + 1, 2, "probe")
        with pytest.raises(CapacityError, match="probe at 257 points"):
            ensemble._check_budget(2**20, 257, "probe")
        with pytest.raises(CapacityError, match="over 1e300 terms"):
            ensemble._check_budget(2**2000, 2, "probe")  # beyond float range


class TestMixtureKernel:
    """The blocked 2K-exponential kernel against a per-point sum."""

    @pytest.fixture
    def mixture(self):
        rng = np.random.default_rng(8)
        lam = rng.uniform(-0.02, 0.02, 40)
        w = rng.uniform(0.0, 1.0, 40)
        return 0.1, 0.013, lam, w / w.sum()

    @pytest.mark.parametrize("t", [
        np.linspace(0.0, 400.0, 500),
        np.linspace(3.0, 250.0, 97),
        np.geomspace(1e-2, 400.0, 300),
        nudged_linspace(),
        np.array([123.4]),
        np.array([7.0, 300.0]),
    ], ids=["linspace", "offset-linspace", "geomspace", "nudged", "T1", "T2"])
    @pytest.mark.parametrize("work", [None, 64], ids=["one-chunk", "many-chunks"])
    def test_matches_per_point_sum(self, mixture, t, work, monkeypatch):
        if work is not None:
            monkeypatch.setattr(model, "_WORK_ELEMENTS", work)
        vals = model._mixture_coherence(*mixture, t)
        assert vals.shape == t.shape
        assert np.abs(vals - brute_mixture(*mixture, t)).max() <= 1e-13

    def test_million_point_grid(self, mixture):
        # 10^6 points: the doubled phasor rows keep their rounding at ~1e-14
        t = np.linspace(0.0, 1e3, 10**6)
        sample = np.arange(0, t.size, 997)
        vals = model._mixture_coherence(*mixture, t)[sample]
        assert np.abs(vals - brute_mixture(*mixture, t[sample])).max() <= 1e-12

    def test_phasor_work_is_logarithmic(self, monkeypatch):
        # B = 500 on 250,000 points: each table is one direct row plus
        # ceil(log2 500) doublings, against 1000 J direct phasors row by row
        elements = []
        direct = model._phasors

        def counting(phase):
            elements.append(phase.size)
            return direct(phase)

        monkeypatch.setattr(model, "_phasors", counting)
        rng = np.random.default_rng(3)
        n_terms = 24
        freq = rng.uniform(-1.0, 1.0, n_terms)
        t = np.linspace(0.0, 600.0, 250_000)
        model._exp_sum(freq, np.ones(n_terms), t)
        assert sum(elements) <= (2 * math.ceil(math.log2(500)) + 2) * n_terms

    def test_grid_classification(self):
        assert model._uniform_block(np.linspace(0.0, 400.0, 500))[0] == 22
        assert model._uniform_block(np.geomspace(1e-2, 400.0, 300))[0] == 1
        assert model._uniform_block(nudged_linspace())[0] == 1

    def test_degenerate_term_raises(self):
        with pytest.raises(DegenerateEigensystemError):
            model._mixture_coherence(0.0, 0.02, np.array([0.01, -0.01]),
                                     np.array([0.5, 0.5]), np.linspace(0, 1, 5))


def _shape_cases():
    """Every public coherence function, at parameters inside its regime."""
    params = ts.JcParams(1.0, 1.01, 0.1)
    resonant = ts.JcParams(1.0, 1.0, 0.01)
    ss = ts.ThermalContext.scale_separated()
    tlf = ts.TlfSpec(0.1, 0.01)
    strong = ts.TlfSpec(0.1, 0.1)
    ens = uniform_ensemble(5, 0.005, ss, 3)
    stats = ts.EnsembleStats(mu=0.001, sigma2=0.004**2)
    broad = ts.EnsembleStats(mu=0.01, sigma2=0.03**2)
    return {
        "single": lambda t: ts.coherence_exact_single(params, tlf, ss, t),
        "ensemble": lambda t: ts.coherence_exact_ensemble(params, ens, t),
        "continuum": lambda t: ts.coherence_continuum(params, stats, t),
        "broad": lambda t: ts.coherence_broad_integral(0.01, broad, t),
        "gr": lambda t: ts.coherence_gr(params, t),
        "gr_short": lambda t: ts.coherence_gr_short_time(0.1, t),
        "weak_envelope": lambda t: ts.coherence_weak_envelope(params, tlf, ss, t),
        "strong_leading": lambda t: ts.coherence_strong_leading(resonant, strong, ss, t),
        "strong_higher": lambda t: ts.coherence_strong_higher(resonant, strong, ss, t),
        "narrow": lambda t: ts.coherence_narrow(params, stats, t),
        "erfc": lambda t: ts.coherence_broad_erfc(0.01, broad, t),
        "linear": lambda t: ts.coherence_broad_linear(0.01, broad, t),
        "weak_damped": lambda t: ts.coherence_weak_damped(0.1, 0.01, 0.005, t),
        "strong_damped": lambda t: ts.coherence_strong_damped(0.01, 0.1, 0.005, t),
    }


SHAPE_CASES = list(_shape_cases())


@pytest.mark.filterwarnings("error::tlfsim.RegimeWarning")
class TestTimeShapes:
    """Scalar in, float out; any array in, the same shape out."""

    @pytest.mark.parametrize("name", SHAPE_CASES)
    def test_scalar(self, name):
        fn = _shape_cases()[name]
        val = fn(50.0)
        assert isinstance(val, float)
        assert val == fn(np.array([50.0]))[0]

    @pytest.mark.parametrize("name", SHAPE_CASES)
    @pytest.mark.parametrize("shape", [(12,), (3, 4), (2, 3, 2)])
    def test_array(self, name, shape):
        fn = _shape_cases()[name]
        t = np.linspace(0.0, 200.0, 12)
        vals = fn(t.reshape(shape))
        assert vals.shape == shape
        assert np.array_equal(vals.ravel(), fn(t))

    @pytest.mark.parametrize("name", SHAPE_CASES)
    def test_empty(self, name):
        vals = _shape_cases()[name](np.array([]))
        assert vals.shape == (0,)

    def test_t_by_keyword(self):
        params = ts.JcParams(1.0, 1.01, 0.1)
        t = np.linspace(0.0, 200.0, 12).reshape(3, 4)
        assert np.array_equal(ts.coherence_gr(params=params, t=t), ts.coherence_gr(params, t))
        assert ts.coherence_gr(params, t=50.0) == ts.coherence_gr(params, 50.0)


class TestContinuum:
    def test_delta_function_limit(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        stats = ts.EnsembleStats(mu=0.0, sigma2=(1e-9 * 0.1) ** 2)
        t = np.linspace(0.0, 100.0, 80)
        vals = ts.coherence_continuum(params, stats, t)
        assert np.abs(vals - ts.coherence_gr(params, t)).max() < 1e-6

    def test_initial_value(self, ss):
        stats = ts.EnsembleStats(mu=0.002, sigma2=1e-4)
        assert ts.coherence_continuum(ts.JcParams(1.0, 1.0, 0.1), stats, 0.0) \
            == pytest.approx(1.0, abs=1e-8)

    def test_matches_exact_moderate_ensemble(self, ss):
        # 15 narrow uniform couplings: the Gaussian continuum limit should
        # track the exact 2^15-configuration sum to a few percent
        g = 0.1
        ens = uniform_ensemble(15, 0.05 * g, ss, 42)
        stats = ts.ensemble_stats(ens)
        params = ts.JcParams(1.0, 1.0, g)
        t = np.linspace(0.0, 3.0 / stats.sigma, 400)
        exact = ts.coherence_exact_ensemble(params, ens, t)
        cont = ts.coherence_continuum(params, stats, t)
        assert np.abs(exact - cont).max() < 0.05

    def test_requires_positive_variance(self):
        with pytest.raises(InvalidInputError):
            ts.coherence_continuum(ts.JcParams(1.0, 1.0, 0.1),
                                   ts.EnsembleStats(mu=0.0, sigma2=0.0), 1.0)

    def test_unresolvable_phase_fails_before_evaluation(self, monkeypatch):
        # 16 sigma * 2 t / (pi/2) panels of 24 nodes: t = 1e7 at sigma = 0.03
        # needs ~1.5e8 nodes, far past the budget
        def evaluated(*args):
            raise AssertionError("quadrature evaluated past the work budget")

        monkeypatch.setattr(ensemble, "_mixture_coherence", evaluated)
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        with pytest.raises(CapacityError, match="nodes"):
            ts.coherence_continuum(ts.JcParams(1.0, 1.0, 0.01), stats, [0.0, 1e7])

    @pytest.mark.parametrize("over", [False, True], ids=["fits", "next-panel"])
    def test_budget_edge(self, monkeypatch, over):
        # two points count as 256: the budget admits MAX_TERMS // (24 * 256)
        # panels, 16 of them the floor and the rest one per pi/2 of phase
        sigma = 0.03
        phase_panels = ensemble.MAX_TERMS // (24 * 256) - 16 + over
        t_end = (phase_panels - 0.5) * (math.pi / 2) / (32 * sigma)
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        params = ts.JcParams(1.0, 1.0, 0.01)
        if over:
            monkeypatch.setattr(ensemble, "_mixture_coherence", None)  # must not be reached
            with pytest.raises(CapacityError, match="at 2 points"):
                ts.coherence_continuum(params, stats, [0.0, t_end])
        else:
            vals = ts.coherence_continuum(params, stats, [0.0, t_end])
            assert vals[0] == pytest.approx(1.0, abs=1e-8)
            assert np.all(np.isfinite(vals))

    def test_work_budget(self, monkeypatch):
        # the budget counts the nodes of both Gauss orders, as evaluated
        params, stats = ts.JcParams(1.0, 1.0, 0.01), ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        t = np.linspace(0.0, 600.0, 300)
        sizes = []

        def spy(g, delta, lam, *args):
            sizes.append(lam.size)
            return model._mixture_coherence(g, delta, lam, *args)

        monkeypatch.setattr(ensemble, "_mixture_coherence", spy)
        ref = ts.coherence_continuum(params, stats, t)
        assert len(sizes) == 2 and sizes[0] == 2 * sizes[1]
        terms = sum(sizes) * t.size
        monkeypatch.setattr(ensemble, "MAX_TERMS", terms)
        assert np.array_equal(ts.coherence_continuum(params, stats, t), ref)
        monkeypatch.setattr(ensemble, "MAX_TERMS", terms - 1)
        monkeypatch.setattr(ensemble, "_mixture_coherence", None)  # must not be reached
        with pytest.raises(CapacityError, match=re.escape(f"{terms:.6g} terms")):
            ts.coherence_continuum(params, stats, t)

    def test_order_disagreement_raises(self, monkeypatch):
        # one panel over 16 sigma cannot resolve hundreds of radians of
        # phase, so orders 16 and 8 disagree
        monkeypatch.setattr(ensemble, "oscillation_panels", lambda *args: 1.0)
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        with pytest.raises(NumericalError, match="not converged at t = "):
            ts.coherence_continuum(ts.JcParams(1.0, 1.0, 0.01), stats,
                                   np.linspace(0.0, 600.0, 30))


class TestNarrow:
    def test_zero_width_reduces_to_rabi(self):
        params = ts.JcParams(1.0, 1.0, 0.1)
        stats = ts.EnsembleStats(mu=0.004, sigma2=0.0)
        t = np.linspace(0.0, 200.0, 300)
        shifted = ts.JcParams(1.0, 1.0 + 2 * 0.004, 0.1)
        assert np.abs(ts.coherence_narrow(params, stats, t)
                      - ts.coherence_gr(shifted, t)).max() < 1e-12

    def test_gaussian_half_width(self):
        params = ts.JcParams(1.0, 1.0, 0.1)
        sigma = 0.01
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        t = math.sqrt(2 * math.log(2)) / sigma
        assert ts.coherence_narrow(params, stats, t) == pytest.approx(
            0.5 * ts.coherence_gr(params, t), abs=1e-12)

    def test_out_of_regime_warns(self):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.1**2)
        with pytest.warns(RegimeWarning):
            ts.coherence_narrow(ts.JcParams(1.0, 1.0, 0.1), stats, 1.0)

    def test_crossover_suppression(self):
        # by t = g / sigma^2 the envelope has already collapsed when sigma <= g/5
        g, sigma = 0.1, 0.02
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        env = math.exp(-(sigma * g / sigma**2) ** 2 / 2)
        assert env < 5e-6
        val = ts.coherence_narrow(ts.JcParams(1.0, 1.0, g), stats, g / sigma**2)
        assert val <= env + 1e-12


def reference_broad(g, stats, t, rel_tol=1e-6):
    """The broad integral one t at a time, as it was computed before the
    exponential-sum rewrite: per-t phase-aligned Lam-panels at orders 16 and 8
    outside an excision window whose edge phase is fixed at 1000 rad."""
    lo, hi = stats.mu - 8.0 * stats.sigma, stats.mu + 8.0 * stats.sigma
    gauss = lambda lam: np.exp(-(lam - stats.mu) ** 2 / (2.0 * stats.sigma2)) / (
        math.sqrt(2.0 * math.pi) * stats.sigma)

    def outer(phi, lam_cut, order):
        total = 0j
        for a, b, sign in ((lam_cut, hi, 1.0), (lam_cut, -lo, -1.0)):
            if b <= a:
                continue
            k_hi, k_lo = math.floor(phi / (math.pi * a)), math.ceil(phi / (math.pi * b))
            breaks = [phi / (k * math.pi) for k in range(max(k_lo, 1), k_hi + 1)]
            edges = np.clip(np.unique(np.concatenate([
                np.linspace(a, b, 17), np.geomspace(a, b, 129), breaks])), a, b)
            x, w = np.polynomial.legendre.leggauss(order)
            mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
            lam = sign * (mid[:, None] + half[:, None] * x).ravel()
            total += np.sum((half[:, None] * w).ravel() * gauss(lam) * np.exp(1j * phi / lam))
        return total

    def window(phi, lam_cut):
        c0 = float(gauss(np.array(0.0)))
        c1 = c0 * stats.mu / stats.sigma2
        c2 = c0 * (stats.mu**2 / stats.sigma2**2 - 1.0 / stats.sigma2) / 2.0
        z = -1j * phi / lam_cut
        e = [complex(exp1(z))]
        for n in range(1, 4):
            e.append((np.exp(-z) - z * e[-1]) / n)
        m = [lam_cut ** (k + 1) * e[k + 1] for k in range(3)]
        return c0 * 2.0 * m[0].real + c1 * 2j * m[1].imag + c2 * 2.0 * m[2].real

    out = []
    for ti in t:
        phi = g**2 * ti / 2.0
        if phi < 1e-18 * stats.sigma:
            out.append(1.0)
            continue
        lam_cut = phi / 1000.0
        total = outer(phi, lam_cut, 16) + window(phi, lam_cut)
        check = outer(phi, lam_cut, 8) + window(phi, lam_cut)
        assert abs(total - check) <= rel_tol * max(abs(total), 0.05)
        out.append(abs(total))
    return np.array(out)


def unsorted_grid():
    t = np.random.default_rng(4).uniform(0.0, 600.0, 40)
    return np.concatenate([t, [0.0, 250.0, 250.0, 0.0], t[:5]])


class TestBroadReference:
    """The exponential-sum broad integral against the per-t reference."""

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("grid", [(300, 600.0), (1000, 600.0), (1000, 3000.0)],
                             ids=["T300", "T1000", "T1000-long"])
    def test_matches_reference(self, x, grid):
        # the kernel runs on the whole grid (blocked); the reference is per
        # point, so comparing at every 25th point checks the same values
        sigma = 0.03
        stats = ts.EnsembleStats(mu=x * sigma, sigma2=sigma**2)
        t = np.linspace(0.0, grid[1], grid[0])
        vals = ts.coherence_broad_integral(0.01, stats, t)
        rows = np.r_[0:t.size:25, t.size - 1]
        assert np.abs(vals[rows] - reference_broad(0.01, stats, t[rows])).max() <= 1e-12

    @pytest.mark.parametrize("t", [np.geomspace(1e-3, 600.0, 60), unsorted_grid()],
                             ids=["geomspace", "unsorted"])
    def test_irregular_grids(self, t):
        stats = ts.EnsembleStats(mu=0.015, sigma2=0.03**2)
        assert model._uniform_block(t)[0] == 1
        vals = ts.coherence_broad_integral(0.01, stats, t)
        assert np.abs(vals - reference_broad(0.01, stats, t)).max() <= 1e-12

    def test_order_disagreement_raises(self, monkeypatch):
        # with one geometric panel the linear step alone cannot resolve the
        # Gaussian near u = 1/sigma, so orders 16 and 8 disagree
        monkeypatch.setattr(ensemble, "_BROAD_GEOM_EDGES", 2)
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        with pytest.raises(NumericalError, match="not converged"):
            ts.coherence_broad_integral(0.01, stats, np.linspace(0.0, 600.0, 30))

    def test_work_budget(self, monkeypatch):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        t = np.linspace(0.0, 600.0, 300)
        sizes = []

        def spy(freq, *args):
            sizes.append(freq.size)
            return model._exp_sum(freq, *args)

        monkeypatch.setattr(ensemble, "_exp_sum", spy)
        ref = ts.coherence_broad_integral(0.01, stats, t)
        assert len(sizes) == 2 and sizes[0] == 2 * sizes[1]
        terms = sum(sizes) * t.size  # nodes of both orders x T
        monkeypatch.setattr(ensemble, "MAX_TERMS", terms)
        assert np.array_equal(ts.coherence_broad_integral(0.01, stats, t), ref)
        monkeypatch.setattr(ensemble, "MAX_TERMS", terms - 1)
        monkeypatch.setattr(ensemble, "_exp_sum", None)  # must not be reached
        with pytest.raises(CapacityError, match=re.escape(f"{terms:.6g} terms")):
            ts.coherence_broad_integral(0.01, stats, t)

    def test_short_far_grid_bounded(self, monkeypatch):
        # two points to t = 1e6 need ~3e7 nodes: few terms, but node arrays
        # of ~250 MB each, so a short grid counts as 256 times
        monkeypatch.setattr(ensemble, "_exp_sum", None)  # must not be reached
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        with pytest.raises(CapacityError, match="at 2 points"):
            ts.coherence_broad_integral(0.01, stats, [0.0, 1e6])


class TestBroadIntegral:
    def test_initial_value(self):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        assert ts.coherence_broad_integral(0.01, stats, 0.0) == 1.0

    def test_short_time_linear_slope(self):
        # the exact integral decays at pi/2 * N(0) * g^2 t, about 11% steeper
        # than the erfc-derived linear law g^2 t / sqrt(pi) sigma
        g, sigma = 0.01, 0.03
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        t = 0.01 * sigma / g**2
        val = ts.coherence_broad_integral(g, stats, t)
        assert 1.0 - val == pytest.approx(g**2 * t / (math.sqrt(math.pi) * sigma),
                                          rel=0.15)
        exact_slope = math.pi * g**2 / (2 * math.sqrt(2 * math.pi) * sigma)
        assert 1.0 - val == pytest.approx(exact_slope * t, rel=0.005)

    def test_matches_continuum(self, ss):
        g, sigma = 0.01, 0.03
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        t = np.linspace(0.0, sigma / g**2, 40)
        params = ts.JcParams(1.0, 1.0, g)
        full = ts.coherence_continuum(params, stats, t)
        broad = ts.coherence_broad_integral(g, stats, t)
        # at sigma/g = 3 about a quarter of the Gaussian mass sits at
        # |Lam| < g where the broad expansion is poor; the observed sup
        # deviation is 0.026
        assert np.abs(full - broad).max() < 0.03

    def test_mu_sign_invariance(self):
        g, sigma = 0.01, 0.03
        t = np.linspace(0.0, sigma / g**2, 15)
        plus = ts.coherence_broad_integral(
            g, ts.EnsembleStats(mu=0.5 * sigma, sigma2=sigma**2), t)
        minus = ts.coherence_broad_integral(
            g, ts.EnsembleStats(mu=-0.5 * sigma, sigma2=sigma**2), t)
        assert np.abs(plus - minus).max() < 1e-6

    def test_requires_positive_variance(self):
        with pytest.raises(InvalidInputError):
            ts.coherence_broad_integral(0.01, ts.EnsembleStats(mu=0.0, sigma2=0.0), 1.0)


def test_rel_tol_constants_own_the_thresholds(monkeypatch):
    # with no gap allowed, orders 16 and 8 always disagree somewhere
    stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
    t = np.linspace(0.0, 600.0, 30)
    monkeypatch.setattr(ensemble, "QUAD_REL_TOL", 0.0)
    with pytest.raises(NumericalError, match="continuum quadrature not converged"):
        ts.coherence_continuum(ts.JcParams(1.0, 1.0, 0.01), stats, t)
    ts.coherence_broad_integral(0.01, stats, t)  # its own threshold still holds
    monkeypatch.setattr(ensemble, "BROAD_REL_TOL", 0.0)
    with pytest.raises(NumericalError, match="broad-ensemble quadrature not converged"):
        ts.coherence_broad_integral(0.01, stats, t)


class TestBroadErfc:
    def test_initial_value(self):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        assert ts.coherence_broad_erfc(0.01, stats, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_erfc_of_one(self):
        g, sigma = 0.01, 0.03
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        val = ts.coherence_broad_erfc(g, stats, 2 * sigma / g**2)
        assert val == pytest.approx(math.erfc(1.0), abs=1e-12)

    def test_matches_integral(self):
        g, sigma = 0.01, 0.03
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        t = np.linspace(0.0, sigma / g**2, 40)
        approx = ts.coherence_broad_erfc(g, stats, t)
        integral = ts.coherence_broad_integral(g, stats, t)
        assert np.abs(approx - integral).max() < 0.03

    def test_large_mean_warns(self):
        stats = ts.EnsembleStats(mu=0.06, sigma2=0.03**2)
        with pytest.warns(RegimeWarning):
            ts.coherence_broad_erfc(0.01, stats, 1.0)


class TestBroadLinear:
    def test_initial_value(self):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        assert ts.coherence_broad_linear(0.01, stats, 0.0) == 1.0

    def test_zero_mean_slope(self):
        g, sigma = 0.01, 0.03
        stats = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        t = 10.0
        expected = 1.0 - g**2 * t / (math.sqrt(math.pi) * sigma)
        assert ts.coherence_broad_linear(g, stats, t) == pytest.approx(
            expected, abs=1e-15)

    def test_mean_suppresses_slope(self):
        g, sigma = 0.01, 0.03
        flat = ts.EnsembleStats(mu=0.0, sigma2=sigma**2)
        offset = ts.EnsembleStats(mu=sigma, sigma2=sigma**2)
        t = 10.0
        slope0 = (1.0 - ts.coherence_broad_linear(g, flat, t)) / t
        slope1 = (1.0 - ts.coherence_broad_linear(g, offset, t)) / t
        assert slope1 / slope0 == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_floored_at_zero(self):
        stats = ts.EnsembleStats(mu=0.0, sigma2=0.03**2)
        assert ts.coherence_broad_linear(0.01, stats, 1e9) == 0.0


class TestSamplers:
    def test_uniform_deterministic_and_bounded(self):
        a = ts.sample_uniform_couplings(15, 0.005, np.random.default_rng(9))
        b = ts.sample_uniform_couplings(15, 0.005, np.random.default_rng(9))
        assert [f.lam for f in a] == [f.lam for f in b]
        assert all(abs(f.lam) <= 0.005 for f in a)
        assert all(f.epsilon > 0 for f in a)

    def test_uniform_moment(self):
        # aggregate sum of lam^2 should match n * half_width^2 / 3 on average
        hw, n, draws = 0.005, 15, 400
        rng = np.random.default_rng(77)
        sums = np.array([
            sum(f.lam**2 for f in ts.sample_uniform_couplings(n, hw, rng))
            for _ in range(draws)
        ])
        se = sums.std(ddof=1) / math.sqrt(draws)
        assert abs(sums.mean() - n * hw**2 / 3) < 3 * se

    def test_uniform_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            ts.sample_uniform_couplings(0, 0.01, rng)
        with pytest.raises(InvalidInputError):
            ts.sample_uniform_couplings(3, 0.0, rng)

    def test_spatial_deterministic_and_bounded(self):
        g, w = 0.1, 1.0
        a = ts.sample_spatial_couplings(20, 2, (1.0, 10.0), w, g, np.random.default_rng(4))
        b = ts.sample_spatial_couplings(20, 2, (1.0, 10.0), w, g, np.random.default_rng(4))
        assert [f.lam for f in a] == [f.lam for f in b]
        # nearest possible position is (1, 1): |lam| <= g w / 2
        assert max(abs(f.lam) for f in a) <= g * w / 2
        signs = {np.sign(f.lam) for f in a}
        assert signs == {-1.0, 1.0}

    def test_spatial_dominance_spread(self, ss):
        # small spatial ensembles are frequently dominated by one close
        # fluctuator, pushing R well above the equal-weight floor 1/15
        rs = []
        for seed in range(100):
            tlfs = ts.sample_spatial_couplings(
                15, 2, (1.0, 10.0), 1.0, 0.1, np.random.default_rng(seed))
            rs.append(ts.ensemble_stats(ts.TlfEnsemble(tlfs, ss)).r)
        assert np.mean(np.array(rs) >= 0.2) > 0.3

    def test_spatial_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            ts.sample_spatial_couplings(5, 4, (1.0, 10.0), 1.0, 0.1, rng)
        with pytest.raises(InvalidInputError):
            ts.sample_spatial_couplings(5, 2, (0.0, 10.0), 1.0, 0.1, rng)


class TestDominanceBreakdown:
    def test_dominant_fluctuator_breaks_continuum(self, ss):
        # at matched sigma, a sample dominated by one coupling deviates more
        # from the Gaussian continuum curve at late times than an equal-weight
        # sample does
        g, sigma = 0.1, 0.01
        n = 8
        equal = [ts.TlfSpec(0.1, sigma / math.sqrt(n) * s)
                 for s in (1, -1, 1, -1, 1, -1, 1, -1)]
        lead = math.sqrt(0.9) * sigma
        rest = math.sqrt(0.1 / (n - 1)) * sigma
        skewed = [ts.TlfSpec(0.1, lead)] + [
            ts.TlfSpec(0.1, rest * (-1) ** k) for k in range(n - 1)]
        params = ts.JcParams(1.0, 1.0, g)
        t = np.linspace(2.0 / sigma, 3.0 / sigma, 200)
        devs = {}
        for tag, tlfs in (("equal", equal), ("skewed", skewed)):
            ens = ts.TlfEnsemble(tlfs, ss)
            stats = ts.ensemble_stats(ens)
            exact = ts.coherence_exact_ensemble(params, ens, t)
            cont = ts.coherence_continuum(params, stats, t)
            devs[tag] = np.abs(exact - cont).max()
        assert ts.ensemble_stats(ts.TlfEnsemble(skewed, ss)).r > 0.8
        assert devs["skewed"] > devs["equal"]
