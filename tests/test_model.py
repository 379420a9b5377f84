"""Core model: parameters, thermal weights, eigensystem and bare coherence."""
import math

import numpy as np
import pytest

import tlfsim as ts
from tlfsim.errors import InvalidInputError


class TestThermalContext:
    def test_scale_separated_populations(self, ss):
        assert ts.thermal_population(0.1, ss) == (0.5, 0.5)

    def test_zero_temperature_limit(self):
        ctx = ts.ThermalContext.finite_temperature(1e-6)
        p_plus, p_minus = ts.thermal_population(0.1, ctx)
        assert p_plus == pytest.approx(0.0, abs=1e-12)
        assert p_minus == pytest.approx(1.0, abs=1e-12)

    def test_populations_sum_to_one(self):
        ctx = ts.ThermalContext.finite_temperature(0.07)
        p_plus, p_minus = ts.thermal_population(0.13, ctx)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= p_plus <= p_minus <= 1.0

    def test_factors_match_math(self):
        ctx = ts.ThermalContext.finite_temperature(0.2)
        assert ctx.tanh_factor(0.1) == pytest.approx(math.tanh(0.25), abs=1e-15)
        assert ctx.sech2_factor(0.1) == pytest.approx(
            1.0 / math.cosh(0.25) ** 2, abs=1e-15)

    def test_invalid_kt(self):
        with pytest.raises(InvalidInputError):
            ts.ThermalContext.finite_temperature(0.0)
        with pytest.raises(InvalidInputError):
            ts.ThermalContext.finite_temperature(float("nan"))


class TestJcParams:
    def test_delta(self):
        assert ts.JcParams(1.0, 1.01, 0.1).delta == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ts.JcParams(0.0, 1.0, 0.1)
        with pytest.raises(InvalidInputError):
            ts.JcParams(1.0, -1.0, 0.1)
        with pytest.raises(InvalidInputError):
            ts.JcParams(1.0, 1.0, -0.1)
        with pytest.raises(InvalidInputError):
            ts.JcParams(1.0, float("inf"), 0.1)

    def test_strong_g_warns(self):
        with pytest.warns(UserWarning):
            ts.JcParams(1.0, 1.0, 1.5)

    def test_strong_g_warning_names_caller(self):
        with pytest.warns(UserWarning) as record:
            ts.JcParams(1.0, 1.0, 1.5)
        assert record[0].filename == __file__


class TestEigensystem:
    def test_resonant_values(self):
        eig = ts.jc_eigensystem(ts.JcParams(1.0, 1.0, 0.1))
        assert eig.omega == pytest.approx(0.2, abs=1e-15)
        assert eig.cos_theta_plus**2 == pytest.approx(0.5, abs=1e-12)
        assert eig.cos_theta_minus**2 == pytest.approx(0.5, abs=1e-12)

    def test_against_dense_diagonalization(self):
        # one-excitation block of the exchange Hamiltonian relative to its mean
        params = ts.JcParams(1.0, 1.13, 0.07)
        delta = params.delta
        block = np.array([[delta / 2.0, params.g], [params.g, -delta / 2.0]])
        evals = np.linalg.eigvalsh(block)
        eig = ts.jc_eigensystem(params)
        assert eig.omega == pytest.approx(evals[1] - evals[0], abs=1e-13)

    def test_mixing_angles_sum(self):
        eig = ts.jc_eigensystem(ts.JcParams(1.0, 1.2, 0.05))
        assert eig.cos_theta_plus**2 + eig.cos_theta_minus**2 == pytest.approx(
            1.0, abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(ts.DegenerateEigensystemError):
            ts.jc_eigensystem(ts.JcParams(1.0, 1.0, 0.0))


class TestCoherenceGr:
    def test_resonant_rabi(self):
        params = ts.JcParams(1.0, 1.0, 0.1)
        t = np.linspace(0.0, 200.0, 501)
        assert np.allclose(ts.coherence_gr(params, t),
                           np.abs(np.cos(0.1 * t)), atol=1e-14)

    def test_full_transfer_zero(self):
        params = ts.JcParams(1.0, 1.0, 0.1)
        assert ts.coherence_gr(params, math.pi / 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_detuned_minimum(self):
        # minimum |delta| / Omega at half a Rabi period
        params = ts.JcParams(1.0, 1.2, 0.1)
        omega = math.sqrt(4 * 0.1**2 + 0.2**2)
        assert ts.coherence_gr(params, math.pi / omega) == pytest.approx(
            0.2 / omega, abs=1e-12)

    def test_periodicity(self):
        params = ts.JcParams(1.0, 1.07, 0.03)
        omega = math.sqrt(4 * params.g**2 + params.delta**2)
        t = np.linspace(0.0, 50.0, 200)
        assert np.abs(ts.coherence_gr(params, t)
                      - ts.coherence_gr(params, t + 2 * math.pi / omega)).max() < 1e-12

    def test_detuning_symmetry(self):
        t = np.linspace(0.0, 300.0, 400)
        plus = ts.coherence_gr(ts.JcParams(1.0, 1.08, 0.05), t)
        minus = ts.coherence_gr(ts.JcParams(1.0, 0.92, 0.05), t)
        assert np.abs(plus - minus).max() < 1e-12

    def test_scalar_convention(self):
        params = ts.JcParams(1.0, 1.0, 0.1)
        assert isinstance(ts.coherence_gr(params, 1.0), float)
        assert isinstance(ts.coherence_gr(params, np.array([1.0])), np.ndarray)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            ts.coherence_gr(ts.JcParams(1.0, 1.0, 0.1), -1.0)


class TestShortTime:
    def test_t0(self):
        assert ts.coherence_gr_short_time(0.1, 0.0) == 1.0

    def test_direct_value(self):
        assert ts.coherence_gr_short_time(0.1, 0.1) == pytest.approx(1 - 5e-5, abs=1e-15)

    def test_agrees_with_full_formula(self):
        full = ts.coherence_gr(ts.JcParams(1.0, 1.05, 0.1), 0.01)
        assert abs(full - ts.coherence_gr_short_time(0.1, 0.01)) < 1e-6

    def test_richardson_scaling(self):
        # quartic residual: halving t shrinks it by >= 8x, independent of detuning
        for delta in (0.0, 0.1):
            params = ts.JcParams(1.0, 1.0 + delta, 0.1)
            r1 = abs(ts.coherence_gr(params, 0.2) - ts.coherence_gr_short_time(0.1, 0.2))
            r2 = abs(ts.coherence_gr(params, 0.1) - ts.coherence_gr_short_time(0.1, 0.1))
            assert r1 / r2 >= 8.0



_SS = ts.ThermalContext.scale_separated()
_TLF = ts.TlfSpec(0.1, 0.01)


# each call is outside its formula's regime, so it warns
@pytest.mark.parametrize("warned", [
    lambda: ts.coherence_weak_envelope(ts.JcParams(1.0, 1.0, 0.01), _TLF, _SS, 1.0),
    lambda: ts.coherence_strong_leading(ts.JcParams(1.0, 1.0, 0.1), _TLF, _SS, 1.0),
    lambda: ts.coherence_strong_higher(ts.JcParams(1.0, 1.0, 0.1), _TLF, _SS, 1.0),
    lambda: ts.coherence_narrow(ts.JcParams(1.0, 1.0, 0.01), ts.EnsembleStats(0.0, 0.03**2), 1.0),
    lambda: ts.coherence_broad_erfc(0.01, ts.EnsembleStats(0.1, 0.03**2), 1.0),
    lambda: ts.coherence_weak_damped(0.01, 0.01, 0.005, 1.0),
    lambda: ts.coherence_strong_damped(0.1, 0.05, 0.005, 1.0),
], ids=["weak_envelope", "strong_leading", "strong_higher", "narrow", "broad_erfc",
        "weak_damped", "strong_damped"])
def test_regime_warning_names_caller(warned):
    with pytest.warns(ts.RegimeWarning) as record:
        warned()
    assert record[0].filename == __file__
