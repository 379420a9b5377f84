"""Dissipative fluctuator: reduced propagator, damped closed forms and regimes."""
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import tlfsim as ts
from tlfsim import dissipative
from tlfsim.dissipative import DampingCharacter, DampingRegime
from tlfsim.errors import InvalidInputError, NumericalError, RegimeWarning

from conftest import oracle_lindblad_trace


def fit_rate(t, values, mask):
    return -np.polyfit(t[mask], np.log(values[mask]), 1)[0]


def expm_reference(g, lam, gamma, t):
    """C(t) = sqrt(2)|X+(t)| = |e^(M t)[0, 0]|, one matrix exponential per point."""
    m = dissipative._rhs_matrix(g, lam, gamma)
    return np.abs(expm(t[:, None, None] * m)[:, 0, 0])


class TestReducedRhs:
    def test_g_zero_constant(self):
        t = np.linspace(0.0, 1000.0, 50)
        trace = ts.integrate_reduced(0.0, 0.01, 0.005, t)
        assert np.abs(trace.values - 1.0).max() < 1e-12

    def test_bare_rabi(self):
        t = np.linspace(0.0, 100.0, 200)
        trace = ts.integrate_reduced(0.1, 0.0, 0.0, t)
        assert np.abs(trace.values - np.abs(np.cos(0.1 * t))).max() < 1e-8


class TestIntegrateReduced:
    def test_closed_system_limit(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        t = np.linspace(0.0, 400.0, 600)
        ode = ts.integrate_reduced(0.1, 0.01, 0.0, t)
        exact = ts.coherence_exact_single(params, ts.TlfSpec(0.1, 0.01), ss, t)
        assert np.abs(ode.values - exact).max() < 1e-8

    @pytest.mark.parametrize("g, lam, ratio", [
        pytest.param(0.1, 0.01, 0.1, id="0.1"),
        pytest.param(0.1, 0.01, 1.0, id="1.0"),
        pytest.param(0.1, 0.01, 10.0, id="10.0"),
        # g = lam = gamma sits next to an exceptional point: cond(V) ~ 2e8, so
        # a propagator built on the eigenvectors of M would lose ~1e-8 here.
        pytest.param(0.05, 0.05, 1.0, id="exceptional-point"),
    ])
    def test_matches_lindblad_oracle(self, ss, g, lam, ratio):
        gamma = ratio * lam
        params = ts.JcParams(1.0, 1.0, g)
        t = np.linspace(0.0, 5 / gamma, 200)
        oracle = oracle_lindblad_trace(params, ts.TlfSpec(0.1, lam), gamma, ss, t)
        ode = ts.integrate_reduced(g, lam, gamma, t)
        assert np.abs(oracle.values - ode.values).max() < 1e-6

    def test_intermediate_exponential_rate(self):
        g, lam, gamma = 0.01, 0.1, 0.1
        rate_ref = g**2 * gamma / (2 * lam**2)
        t = np.linspace(0.0, 3 / rate_ref, 900)
        ode = ts.integrate_reduced(g, lam, gamma, t)
        fitted = fit_rate(t, ode.values, ode.values > math.exp(-3))
        assert fitted == pytest.approx(rate_ref, rel=0.1)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            ts.integrate_reduced(0.1, 0.01, 0.01, [0.0, 2.0, 1.0])

    def test_overflow_is_numerical_error(self):
        with pytest.raises(NumericalError):
            ts.integrate_reduced(1e200, 1e200, 1e200, [0.0, 1.0])

    @pytest.mark.parametrize("g, lam, gamma", [
        (0.1, 1e308, 0.005), (0.1, -1e308, 0.005), (0.1, 9e307, 0.005), (0.1, 0.01, 9e307),
    ])
    def test_non_finite_matrix_refused_before_expm(self, monkeypatch, g, lam, gamma):
        # 2 lambda or 2 gamma overflows in M; expm of it would quietly give NaN
        def no_expm(m):
            raise AssertionError("expm called on a non-finite matrix")

        monkeypatch.setattr(dissipative, "expm", no_expm)
        where = f"g = {g:g}, lambda = {lam:g}, gamma = {gamma:g}"
        with pytest.raises(NumericalError, match=re.escape(where)):
            ts.integrate_reduced(g, lam, gamma, [0.0, 1.0])

    def test_step_matrix_count_independent_of_grid_size(self, monkeypatch):
        calls = []
        scipy_expm = dissipative.expm

        def counting_expm(m):
            calls.append(m)
            return scipy_expm(m)

        monkeypatch.setattr(dissipative, "expm", counting_expm)
        for n in (1000, 50_000):
            calls.clear()
            # the step to t_0 = 0, the block step B h and the fine step h
            ts.integrate_reduced(0.05, 0.05, 0.05, np.linspace(0.0, 100.0, n))
            assert len(calls) == 3
        calls.clear()
        # intervals 0, 1, 1, 0, 1, 2, plus the unused fine step h = 0
        ts.integrate_reduced(0.1, 0.01, 0.01, [0.0, 1.0, 2.0, 2.0, 3.0, 5.0])
        assert len(calls) == 4

    def test_million_points_at_exceptional_point(self):
        g = lam = gamma = 0.05
        t = np.linspace(0.0, 5 / gamma, 10**6)
        values = ts.integrate_reduced(g, lam, gamma, t).values
        idx = np.linspace(0, t.size - 1, 1001).round().astype(int)
        assert np.abs(values[idx] - expm_reference(g, lam, gamma, t[idx])).max() <= 1e-12

    @pytest.mark.parametrize("g, lam, gamma", [
        (0.1, 0.01, 0.002), (0.05, 0.05, 0.05), (0.01, 0.1, 0.1),
    ])
    def test_non_uniform_grid(self, g, lam, gamma):
        t = np.geomspace(1e-2, 5 / gamma, 100)
        values = ts.integrate_reduced(g, lam, gamma, t).values
        assert np.abs(values - expm_reference(g, lam, gamma, t)).max() <= 1e-12

    def test_coherence_eventually_lost(self):
        t = np.array([0.0, 5e4])
        trace = ts.integrate_reduced(0.1, 0.01, 0.01, t)
        assert trace.values[-1] < 0.01


class TestWeakDamped:
    def test_gamma_zero_product_form(self):
        g, lam = 0.1, 0.01
        t = np.linspace(0.0, 600.0, 1200)
        vals = ts.coherence_weak_damped(g, lam, 0.0, t)
        ref = np.abs(np.cos(g * t) * np.cos(lam * t))
        assert np.abs(vals - ref).max() < 1e-12

    def test_critical_damping_form(self):
        g = 0.1
        gamma = lam = 0.01
        t = np.linspace(0.0, 500.0, 800)
        vals = ts.coherence_weak_damped(g, lam, gamma, t)
        ref = np.exp(-gamma * t) * (1 + gamma * t) * np.abs(np.cos(g * t))
        assert np.abs(vals - ref).max() < 1e-12

    def test_continuity_across_critical(self):
        g, lam = 0.1, 0.01
        t = np.linspace(0.0, 800.0, 400)
        below = ts.coherence_weak_damped(g, lam, lam * (1 - 1e-9), t)
        above = ts.coherence_weak_damped(g, lam, lam * (1 + 1e-9), t)
        assert np.abs(below - above).max() < 1e-6

    def test_overdamped_envelope_rate(self):
        # deep weak-coupling regime; slow decay rate lam^2 / 2 gamma
        g, lam = 0.3, 0.003
        gamma = 10 * lam
        rate_ref = lam**2 / (2 * gamma)
        t = np.linspace(0.0, 3 / rate_ref, 50000)
        ode = ts.integrate_reduced(g, lam, gamma, t)
        # per-Rabi-period maxima estimate the envelope
        bins = (t // (math.pi / g)).astype(int)
        tm, vm = [], []
        for b in range(bins.max() + 1):
            m = bins == b
            i = np.argmax(ode.values[m])
            tm.append(t[m][i])
            vm.append(ode.values[m][i])
        tm, vm = np.array(tm), np.array(vm)
        sel = (vm > math.exp(-3)) & (tm > 5 / gamma)  # drop the fast transient
        fitted = fit_rate(tm, vm, sel)
        assert fitted == pytest.approx(rate_ref, rel=0.05)

    def test_out_of_regime_warns(self):
        with pytest.warns(RegimeWarning):
            ts.coherence_weak_damped(0.01, 0.1, 0.01, 1.0)


class TestStrongDamped:
    def test_weak_damping_limit(self, ss):
        g, lam = 0.01, 0.1
        t = np.linspace(0.0, 3000.0, 500)
        params = ts.JcParams(1.0, 1.0, g)
        assert ts.classify_regime(g, lam, 0.0) is DampingRegime.STRONG_WEAK_DAMP
        vals = ts.coherence_strong_damped(g, lam, 0.0, t)
        ref = ts.coherence_strong_leading(params, ts.TlfSpec(0.1, lam), ss, t)
        assert np.abs(vals - ref).max() < 1e-12

    def test_intermediate_matches_ode(self):
        g, lam, gamma = 0.01, 0.1, 0.1
        rate = g**2 * gamma / (2 * lam**2)
        t = np.linspace(0.0, 5 / rate, 600)
        approx = ts.coherence_strong_damped(g, lam, gamma, t)
        ode = ts.integrate_reduced(g, lam, gamma, t)
        assert np.abs(approx - ode.values).max() < 0.03

    def test_strong_damping_rabi_revival_frequency(self):
        # gamma >> lam: oscillations re-emerge at frequency ~ g
        g, lam, gamma = 0.01, 0.1, 10.0
        t = np.linspace(0.0, 2000.0, 20001)
        vals = ts.integrate_reduced(g, lam, gamma, t).values
        mins = [t[i] for i in range(1, len(t) - 1)
                if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 0.05]
        freq = math.pi / np.mean(np.diff(mins))
        assert freq == pytest.approx(g, rel=0.05)

    def test_lambda_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            ts.coherence_strong_damped(0.01, 0.0, 0.1, 1.0)

    def test_weak_regime_requested_rejected(self):
        assert ts.classify_regime(0.1, 0.01, 0.1) is DampingRegime.WEAK_COUPLING
        with pytest.raises(InvalidInputError, match="regime weak-coupling is not"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ts.coherence_strong_damped(0.1, 0.01, 0.1, 1.0)


class TestSlowRoot:
    def test_g_to_zero(self):
        assert abs(ts.slow_root_cubic(1e-8, 0.1, 0.1)) < 1e-12

    def test_matches_quadratic_approximation(self):
        root = ts.slow_root_cubic(0.01, 0.1, 0.1)
        assert root == pytest.approx(-0.01**2 * 0.1 / (2 * 0.1**2), rel=0.05)

    def test_envelope_consistency(self):
        g, lam, gamma = 0.01, 0.1, 0.1
        root = ts.slow_root_cubic(g, lam, gamma)
        t = np.linspace(0.0, 3 * 2 * lam**2 / (g**2 * gamma), 700)
        ode = ts.integrate_reduced(g, lam, gamma, t)
        assert np.abs(np.exp(root * t) - ode.values).max() < 0.02

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            ts.slow_root_cubic(0.0, 0.1, 0.1)
        with pytest.raises(InvalidInputError):
            ts.slow_root_cubic(0.01, 0.0, 0.1)


class TestRegimes:
    def test_weak_coupling(self):
        assert ts.classify_regime(0.1, 0.01, 0.5) is DampingRegime.WEAK_COUPLING

    def test_intermediate(self):
        assert ts.classify_regime(0.01, 0.1, 0.1) is DampingRegime.STRONG_INTERMEDIATE

    def test_strong_damping(self):
        assert ts.classify_regime(0.01, 0.1, 2.0) is DampingRegime.STRONG_STRONG_DAMP

    def test_weak_damping(self):
        assert ts.classify_regime(0.01, 0.1, 0.001) is DampingRegime.STRONG_WEAK_DAMP

    def test_boundaries_at_ratio_five(self):
        # each boundary is inclusive: g = 5|lam|, gamma = |lam|/5, gamma = 5|lam|
        cases = [((0.05, 0.01, 0.01), DampingRegime.WEAK_COUPLING),
                 ((1.25, -0.25, 0.05), DampingRegime.WEAK_COUPLING),
                 ((1.0, 0.25, 0.05), DampingRegime.STRONG_WEAK_DAMP),
                 ((0.01, 0.25, 0.0625), DampingRegime.STRONG_INTERMEDIATE),
                 ((0.01, 0.25, 1.0), DampingRegime.STRONG_INTERMEDIATE),
                 ((0.01, -0.25, 1.25), DampingRegime.STRONG_STRONG_DAMP)]
        for rates, regime in cases:
            assert ts.classify_regime(*rates) is regime, rates

    def test_damping_character(self):
        assert ts.damping_character(0.1, 0.01, 0.001) is DampingCharacter.UNDERDAMPED
        assert ts.damping_character(0.1, 0.01, 0.05) is DampingCharacter.OVERDAMPED
        assert ts.damping_character(0.01, 0.1, 0.1) is None

    @pytest.mark.parametrize("g, lam, gamma", [(0.1, 0.01, 0.01), (0.01, 0.5, 0.0001),
                                               (0.01, 0.1, 1.0)],
                             ids=["weak-coupling", "strong-weak-damp", "strong-strong-damp"])
    def test_critical_character_matches_bracket(self, g, lam, gamma):
        # at critical damping the flag and the closed form take the same
        # branch: the bracket is exactly 1 + Gamma t
        assert ts.damping_character(g, lam, gamma) is DampingCharacter.CRITICAL
        t = np.linspace(0.0, 50.0, 7)
        regime = ts.classify_regime(g, lam, gamma)
        gamma_eff = lam**2 / gamma if regime is DampingRegime.STRONG_STRONG_DAMP else gamma
        expected = np.exp(-gamma_eff * t) * (1.0 + gamma_eff * t)
        if regime is DampingRegime.WEAK_COUPLING:
            vals = ts.coherence_weak_damped(g, lam, gamma, t)
            expected = np.abs(np.cos(g * t) * expected)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                vals = ts.coherence_strong_damped(g, lam, gamma, t)
        assert np.array_equal(vals, expected)

    def test_regime_improvement_weak(self):
        # deeper g/|lam| shrinks the closed-form error against the ODE
        lam, gamma = 0.01, 0.01
        sups = []
        for ratio in (5, 10, 20):
            g = ratio * lam
            t = np.linspace(0.0, 5 / gamma, 1500)
            ode = ts.integrate_reduced(g, lam, gamma, t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cf = ts.coherence_weak_damped(g, lam, gamma, t)
            sups.append(np.abs(cf - ode.values).max())
        assert sups[0] > sups[1] > sups[2]

    def test_regime_improvement_strong_intermediate(self):
        g, gamma_over_lam = 0.002, 1.0
        sups = []
        for ratio in (5, 10, 20):
            lam = ratio * g
            gamma = gamma_over_lam * lam
            rate = g**2 * gamma / (2 * lam**2)
            t = np.linspace(0.0, 3 / rate, 900)
            ode = ts.integrate_reduced(g, lam, gamma, t)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cf = ts.coherence_strong_damped(g, lam, gamma, t)
            sups.append(np.abs(cf - ode.values).max())
        assert sups[0] > sups[1] > sups[2]
