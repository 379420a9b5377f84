"""Single non-dissipative fluctuator: exact coherence and regime envelopes."""
import math
import warnings

import numpy as np
import pytest

import tlfsim as ts
from tlfsim.errors import InvalidInputError, RegimeWarning

from conftest import oracle_single_trace


class TestExactSingle:
    def test_matches_oracle_weak(self, ss):
        params = ts.JcParams(1.0, 1.01, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        t = np.linspace(0.0, 2 * math.pi / 0.01, 801)
        trace = oracle_single_trace(params, tlf, ss, t)
        assert np.abs(ts.coherence_exact_single(params, tlf, ss, t)
                      - trace.values).max() < 1e-10

    def test_matches_oracle_finite_temperature(self):
        ctx = ts.ThermalContext.finite_temperature(0.08)
        params = ts.JcParams(1.0, 0.97, 0.05)
        tlf = ts.TlfSpec(0.12, -0.03)
        t = np.linspace(0.0, 300.0, 601)
        trace = oracle_single_trace(params, tlf, ctx, t)
        assert np.abs(ts.coherence_exact_single(params, tlf, ctx, t)
                      - trace.values).max() < 1e-10

    def test_lambda_zero_reduces_to_gr(self, ss):
        params = ts.JcParams(1.0, 1.05, 0.1)
        t = np.linspace(0.0, 200.0, 400)
        exact = ts.coherence_exact_single(params, ts.TlfSpec(0.1, 0.0), ss, t)
        assert np.abs(exact - ts.coherence_gr(params, t)).max() < 1e-12

    def test_sign_invariance_scale_separated(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        t = np.linspace(0.0, 400.0, 700)
        plus = ts.coherence_exact_single(params, ts.TlfSpec(0.1, 0.02), ss, t)
        minus = ts.coherence_exact_single(params, ts.TlfSpec(0.1, -0.02), ss, t)
        assert np.abs(plus - minus).max() < 1e-12

    def test_initial_value(self, ss):
        params = ts.JcParams(1.0, 1.1, 0.07)
        assert ts.coherence_exact_single(params, ts.TlfSpec(0.1, 0.02), ss, 0.0) \
            == pytest.approx(1.0, abs=1e-12)


class TestWeakEnvelope:
    def test_envelope_zero(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        lam = 0.01
        # pick a time where the envelope node coincides with a Rabi antinode
        t = math.pi / (2 * lam)
        val = ts.coherence_weak_envelope(params, ts.TlfSpec(0.1, lam), ss, t)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_temperature_envelope_unity(self):
        ctx = ts.ThermalContext.finite_temperature(1e-8)
        params = ts.JcParams(1.0, 1.02, 0.1)
        t = np.linspace(0.0, 400.0, 500)
        env = ts.coherence_weak_envelope(params, ts.TlfSpec(0.1, 0.01), ctx, t)
        assert np.abs(env - ts.coherence_gr(params, t)).max() < 1e-8

    def test_monotone_regime_improvement(self, ss):
        # deeper into g >> |lam| the envelope tracks the exact curve better
        lam = 0.01
        tlf = ts.TlfSpec(0.1, lam)
        t = np.linspace(0.0, math.pi / lam, 2001)
        sups = []
        for ratio in (5, 10, 20):
            params = ts.JcParams(1.0, 1.0, ratio * lam)
            exact = ts.coherence_exact_single(params, tlf, ss, t)
            approx = ts.coherence_weak_envelope(params, tlf, ss, t)
            sups.append(np.abs(exact - approx).max())
        assert sups[0] > sups[1] > sups[2]

    def test_finite_temperature_shallower(self):
        # lower temperature squeezes the envelope toward unity
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        t = math.pi / (2 * 0.01)
        cold = ts.coherence_weak_envelope(
            params, tlf, ts.ThermalContext.finite_temperature(0.02), t)
        warm = ts.coherence_weak_envelope(
            params, tlf, ts.ThermalContext.finite_temperature(0.5), t)
        assert cold > warm


class TestStrongEnvelopes:
    def test_leading_envelope_minimum(self, ss):
        g, lam = 0.01, 0.1
        params = ts.JcParams(1.0, 1.0, g)
        t = math.pi * lam / g**2
        val = ts.coherence_strong_leading(params, ts.TlfSpec(0.1, lam), ss, t)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_temperature_stays_at_unity(self):
        ctx = ts.ThermalContext.finite_temperature(1e-8)
        params = ts.JcParams(1.0, 1.0, 0.01)
        t = np.linspace(0.0, 5000.0, 300)
        env = ts.coherence_strong_leading(params, ts.TlfSpec(0.1, 0.1), ctx, t)
        assert np.abs(env - 1.0).max() < 1e-8

    def test_higher_reduces_to_leading_as_ratio_shrinks(self, ss):
        lam = 0.1
        tlf = ts.TlfSpec(0.1, lam)
        t = np.linspace(0.0, 500.0, 900)
        params = ts.JcParams(1.0, 1.0, 0.001)  # g/lam = 0.01, B ~ 2.5e-5
        lead = ts.coherence_strong_leading(params, tlf, ss, t)
        high = ts.coherence_strong_higher(params, tlf, ss, t)
        assert np.abs(lead - high).max() < 1e-4

    def test_higher_captures_fast_ripple(self, ss):
        # over a few ripple periods the ripple-resolving form beats the
        # envelope-only form by a clear factor
        lam = 0.1
        g = 0.3 * lam
        params = ts.JcParams(1.0, 1.0, g)
        tlf = ts.TlfSpec(0.1, lam)
        t_end = (2 * math.pi / (g**2 / (2 * lam))) / 16
        t = np.arange(0.0, t_end, math.pi / (20 * lam))
        exact = ts.coherence_exact_single(params, tlf, ss, t)
        err_lead = np.abs(exact - ts.coherence_strong_leading(params, tlf, ss, t)).max()
        err_high = np.abs(exact - ts.coherence_strong_higher(params, tlf, ss, t)).max()
        assert err_high < err_lead / 3.0

    def test_lambda_zero_rejected(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.01)
        with pytest.raises(InvalidInputError):
            ts.coherence_strong_leading(params, ts.TlfSpec(0.1, 0.0), ss, 1.0)

    def test_out_of_regime_warns(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        with pytest.warns(RegimeWarning):
            ts.coherence_strong_leading(params, ts.TlfSpec(0.1, 0.1), ss, 1.0)

    def test_detuned_warns_not_raises(self, ss):
        params = ts.JcParams(1.0, 1.05, 0.01)
        with pytest.warns(RegimeWarning):
            val = ts.coherence_strong_leading(params, ts.TlfSpec(0.1, 0.1), ss, 1.0)
        assert np.isfinite(val)


class TestTlfSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ts.TlfSpec(-0.1, 0.01)
        with pytest.raises(InvalidInputError):
            ts.TlfSpec(0.1, float("nan"))
