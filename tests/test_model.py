"""Core model: parameters, thermal weights, eigensystem and bare coherence."""
import ast
import math
import pathlib

import numpy as np
import pytest

import tlfsim as ts
import tlfsim.cli as cli
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
        # the constructor itself refuses what finite_temperature refuses
        for kt in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match=r"kt must be (> 0|finite), got "):
                ts.ThermalContext(kt=kt)


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


# each call is outside its formula's regime, so it warns with exactly this text
@pytest.mark.parametrize("warned, message", [
    (lambda: ts.coherence_weak_envelope(ts.JcParams(1.0, 1.0, 0.01), _TLF, _SS, 1.0),
     "weak-coupling envelope outside regime: g/|lam| = 1"),
    (lambda: ts.coherence_strong_leading(ts.JcParams(1.0, 1.0, 0.1), _TLF, _SS, 1.0),
     "strong-coupling formula outside regime: |lam|/g = 0.1"),
    (lambda: ts.coherence_strong_higher(ts.JcParams(1.0, 1.0, 0.1), _TLF, _SS, 1.0),
     "strong-coupling formula outside regime: |lam|/g = 0.1"),
    (lambda: ts.coherence_narrow(ts.JcParams(1.0, 1.0, 0.01),
                                 ts.EnsembleStats(0.0, 0.03**2), 1.0),
     "narrow-ensemble law outside regime: g/sigma = 0.333"),
    (lambda: ts.coherence_broad_erfc(0.01, ts.EnsembleStats(0.1, 0.03**2), 1.0),
     "erfc law unreliable for |mu|/sigma = 3.33 > 1"),
    (lambda: ts.coherence_weak_damped(0.01, 0.01, 0.005, 1.0),
     "weak-coupling damped formula outside regime: g/|lam| = 1"),
    (lambda: ts.coherence_strong_damped(0.1, 0.05, 0.005, 1.0),
     "strong-coupling damped formula outside regime: |lam|/g = 0.5"),
    (lambda: ts.coherence_weak_envelope(ts.JcParams(1.0, 1.5, 0.01),
                                        ts.TlfSpec(0.1, 0.001), _SS, 1.0),
     "weak-coupling envelope requires |delta| << 4 g^2 / |lam|"),
    (lambda: ts.coherence_strong_leading(ts.JcParams(1.0, 1.01, 0.001), _TLF, _SS, 1.0),
     "strong-coupling formulas assume delta = 0; "
     "use coherence_exact_single for detuned systems"),
    # a tlfsim frame (the registry's lambda) between this file and the kernel
    (lambda: cli.KINDS["single-tlf"].methods["strong_leading"](
        {"jc": ts.JcParams(1.0, 1.0, 0.1), "tlf": _TLF, "ctx": _SS}, 1.0),
     "strong-coupling formula outside regime: |lam|/g = 0.1"),
], ids=["weak_envelope", "strong_leading", "strong_higher", "narrow", "broad_erfc",
        "weak_damped", "strong_damped", "weak_envelope_detuned", "strong_detuned",
        "cli_registry"])
def test_regime_warning_names_caller(warned, message):
    with pytest.warns(ts.RegimeWarning) as record:
        warned()
    assert [str(w.message) for w in record] == [message]
    assert record[0].filename == __file__


# One input-domain rule: every scalar parameter check words its refusal as
# "<name> must be ..., got <value>".  Each row is one public callable with one
# bad argument and the full message it must raise.
_NAN, _INF = math.nan, math.inf
_JC = ts.JcParams(1.0, 1.0, 0.1)
_STATS = ts.EnsembleStats(0.0, 1e-4)
_MAT = ts.MaterialParams(chi=1.0, d=3, j0=1.0, r0=1.0, cos_theta=0.7)
_T = np.linspace(0.0, 10.0, 5)


def _mc(**kwargs):
    args = dict(density=1.0, u_min=1e-4, eps_max=10.0, r_max=1000.0, kt=0.1,
                n_samples=10_000, rng=np.random.default_rng(0))
    return ts.average_variance_mc(_MAT, **{**args, **kwargs})


def _lindblad(gamma):
    spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
    rho0 = ts.initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), [_TLF], _SS, spec)
    return ts.evolve_lindblad(_JC, _TLF, gamma, rho0, _T)


DOMAIN_REFUSALS = {
    # model
    "JcParams omega0 nan": (lambda: ts.JcParams(_NAN, 1.0, 0.1), "omega0 must be finite, got nan"),
    "JcParams omega0 0": (lambda: ts.JcParams(0.0, 1.0, 0.1), "omega0 must be > 0, got 0.0"),
    "JcParams epsilon_t -1": (lambda: ts.JcParams(1.0, -1.0, 0.1),
                              "epsilon_t must be > 0, got -1.0"),
    "JcParams epsilon_t inf": (lambda: ts.JcParams(1.0, _INF, 0.1),
                               "epsilon_t must be finite, got inf"),
    "JcParams g -0.1": (lambda: ts.JcParams(1.0, 1.0, -0.1), "g must be >= 0, got -0.1"),
    "ThermalContext kt 0": (lambda: ts.ThermalContext(kt=0.0), "kt must be > 0, got 0.0"),
    "ThermalContext kt -inf": (lambda: ts.ThermalContext(kt=-_INF), "kt must be finite, got -inf"),
    "tanh_factor epsilon -1": (lambda: ts.ThermalContext(0.1).tanh_factor(-1.0),
                               "epsilon must be >= 0, got -1.0"),
    "thermal_population epsilon nan": (lambda: ts.thermal_population(_NAN, _SS),
                                       "epsilon must be finite, got nan"),
    "coherence_gr_short_time g nan": (lambda: ts.coherence_gr_short_time(_NAN, _T),
                                      "g must be finite, got nan"),
    # single_fluctuator
    "TlfSpec epsilon -0.1": (lambda: ts.TlfSpec(-0.1, 0.01), "epsilon must be >= 0, got -0.1"),
    "TlfSpec epsilon inf": (lambda: ts.TlfSpec(_INF, 0.01), "epsilon must be finite, got inf"),
    "TlfSpec lam nan": (lambda: ts.TlfSpec(0.1, np.float64(_NAN)), "lam must be finite, got nan"),
    # ensemble
    "EnsembleStats mu inf": (lambda: ts.EnsembleStats(_INF, 1e-4), "mu must be finite, got inf"),
    "EnsembleStats sigma2 -1": (lambda: ts.EnsembleStats(0.0, -1.0),
                                "sigma2 must be >= 0, got -1.0"),
    "EnsembleStats sigma2 inf": (lambda: ts.EnsembleStats(0.0, _INF),
                                 "sigma2 must be finite, got inf"),
    "ensemble_stats n 0": (lambda: ts.ensemble_stats(ts.TlfEnsemble([], _SS)),
                           "n must be >= 1, got 0"),
    "coherence_continuum sigma2 0": (
        lambda: ts.coherence_continuum(_JC, ts.EnsembleStats(0.0, 0.0), _T),
        "sigma2 must be > 0, got 0.0"),
    "coherence_broad_integral g inf": (lambda: ts.coherence_broad_integral(_INF, _STATS, _T),
                                       "g must be finite, got inf"),
    "coherence_broad_integral sigma2 0": (
        lambda: ts.coherence_broad_integral(0.01, ts.EnsembleStats(0.0, 0.0), _T),
        "sigma2 must be > 0, got 0.0"),
    "coherence_broad_erfc g -inf": (lambda: ts.coherence_broad_erfc(-_INF, _STATS, _T),
                                    "g must be finite, got -inf"),
    "coherence_broad_erfc sigma2 0": (
        lambda: ts.coherence_broad_erfc(0.01, ts.EnsembleStats(0.0, 0.0), _T),
        "sigma2 must be > 0, got 0.0"),
    "coherence_broad_linear g nan": (lambda: ts.coherence_broad_linear(_NAN, _STATS, _T),
                                     "g must be finite, got nan"),
    "coherence_broad_linear sigma2 0": (
        lambda: ts.coherence_broad_linear(0.01, ts.EnsembleStats(0.0, 0.0), _T),
        "sigma2 must be > 0, got 0.0"),
    "sample_uniform_couplings n 0": (
        lambda: ts.sample_uniform_couplings(0, 0.005, np.random.default_rng(0)),
        "n must be >= 1, got 0"),
    "sample_uniform_couplings half_width nan": (
        lambda: ts.sample_uniform_couplings(3, _NAN, np.random.default_rng(0)),
        "half_width must be finite, got nan"),
    "sample_uniform_couplings half_width 0": (
        lambda: ts.sample_uniform_couplings(3, 0.0, np.random.default_rng(0)),
        "half_width must be > 0, got 0.0"),
    "sample_spatial_couplings n 0": (
        lambda: ts.sample_spatial_couplings(0, 2, (1.0, 10.0), 1.0, 0.1,
                                            np.random.default_rng(0)),
        "n must be >= 1, got 0"),
    "sample_spatial_couplings dim 4": (
        lambda: ts.sample_spatial_couplings(3, 4, (1.0, 10.0), 1.0, 0.1,
                                            np.random.default_rng(0)),
        "dim must be 2 or 3, got 4"),
    "sample_spatial_couplings box[0] 0": (
        lambda: ts.sample_spatial_couplings(3, 2, (0.0, 10.0), 1.0, 0.1,
                                            np.random.default_rng(0)),
        "box[0] must be > 0, got 0.0"),
    "sample_spatial_couplings box[1] < box[0]": (
        lambda: ts.sample_spatial_couplings(3, 2, (2.0, 1.0), 1.0, 0.1,
                                            np.random.default_rng(0)),
        "box[1] must be > 2.0, got 1.0"),
    "sample_spatial_couplings box[1] inf": (
        lambda: ts.sample_spatial_couplings(3, 2, (1.0, _INF), 1.0, 0.1,
                                            np.random.default_rng(0)),
        "box[1] must be finite, got inf"),
    "sample_spatial_couplings scale nan": (
        lambda: ts.sample_spatial_couplings(3, 2, (1.0, 10.0), _NAN, 0.1,
                                            np.random.default_rng(0)),
        "scale must be finite, got nan"),
    "sample_spatial_couplings g inf": (
        lambda: ts.sample_spatial_couplings(3, 2, (1.0, 10.0), 1.0, _INF,
                                            np.random.default_rng(0)),
        "g must be finite, got inf"),
    # dissipative
    "integrate_reduced gamma -1": (lambda: ts.integrate_reduced(0.1, 0.01, -1.0, _T),
                                   "gamma must be >= 0, got -1.0"),
    "integrate_reduced lam inf": (lambda: ts.integrate_reduced(0.1, _INF, 0.005, _T),
                                  "lam must be finite, got inf"),
    "coherence_weak_damped g nan": (lambda: ts.coherence_weak_damped(_NAN, 0.01, 0.005, _T),
                                    "g must be finite, got nan"),
    "coherence_weak_damped gamma -1": (lambda: ts.coherence_weak_damped(0.1, 0.01, -1.0, _T),
                                       "gamma must be >= 0, got -1.0"),
    "coherence_strong_damped gamma nan": (
        lambda: ts.coherence_strong_damped(0.01, 0.1, _NAN, _T), "gamma must be finite, got nan"),
    "classify_regime g nan": (lambda: ts.classify_regime(_NAN, 0.01, 0.005),
                              "g must be finite, got nan"),
    "classify_regime g -1": (lambda: ts.classify_regime(-1.0, 0.01, 0.005),
                             "g must be >= 0, got -1.0"),
    "classify_regime gamma -1": (lambda: ts.classify_regime(0.1, 0.01, -1.0),
                                 "gamma must be >= 0, got -1.0"),
    "damping_character lam inf": (lambda: ts.damping_character(0.01, _INF, 0.005),
                                  "lam must be finite, got inf"),
    "slow_root_cubic gamma nan": (lambda: ts.slow_root_cubic(0.1, 0.01, _NAN),
                                  "gamma must be finite, got nan"),
    "slow_root_cubic g 0": (lambda: ts.slow_root_cubic(0.0, 0.01, 0.005),
                            "g must be > 0, got 0.0"),
    "slow_root_cubic gamma 0": (lambda: ts.slow_root_cubic(0.1, 0.01, 0.0),
                                "gamma must be > 0, got 0.0"),
    # microscopic
    "TlsMicro delta nan": (lambda: ts.TlsMicro(_NAN, 0.1), "delta must be finite, got nan"),
    "TlsMicro delta0 -0.1": (lambda: ts.TlsMicro(1.0, -0.1), "delta0 must be >= 0, got -0.1"),
    "MaterialParams chi nan": (
        lambda: ts.MaterialParams(chi=_NAN, d=3, j0=1.0, r0=1.0, cos_theta=0.7),
        "chi must be finite, got nan"),
    "MaterialParams chi 0": (
        lambda: ts.MaterialParams(chi=0.0, d=3, j0=1.0, r0=1.0, cos_theta=0.7),
        "chi must be > 0, got 0.0"),
    "MaterialParams j0 0": (
        lambda: ts.MaterialParams(chi=1.0, d=3, j0=0.0, r0=1.0, cos_theta=0.7),
        "j0 must be > 0, got 0.0"),
    "MaterialParams r0 inf": (
        lambda: ts.MaterialParams(chi=1.0, d=3, j0=1.0, r0=_INF, cos_theta=0.7),
        "r0 must be finite, got inf"),
    "MaterialParams cos_theta 1.5": (
        lambda: ts.MaterialParams(chi=1.0, d=3, j0=1.0, r0=1.0, cos_theta=1.5),
        "cos_theta must be <= 1, got 1.5"),
    "MaterialParams d 1": (
        lambda: ts.MaterialParams(chi=1.0, d=1, j0=1.0, r0=1.0, cos_theta=0.7),
        "d must be 2 or 3, got 1"),
    "relaxation_rate kt inf": (lambda: ts.relaxation_rate(ts.TlsMicro(0.1, 0.1), _MAT, _INF),
                               "kt must be finite, got inf"),
    "relaxation_rate kt 0": (lambda: ts.relaxation_rate(ts.TlsMicro(0.1, 0.1), _MAT, 0.0),
                             "kt must be > 0, got 0.0"),
    "coupling_from_geometry r 0.5": (lambda: ts.coupling_from_geometry(_MAT, 0.5, 0.5, 1),
                                     "r must be >= 1.0, got 0.5"),
    "coupling_from_geometry r nan": (lambda: ts.coupling_from_geometry(_MAT, _NAN, 0.5, 1),
                                     "r must be finite, got nan"),
    "coupling_from_geometry tlf_u 0": (lambda: ts.coupling_from_geometry(_MAT, 2.0, 0.0, 1),
                                       "tlf_u must be > 0, got 0.0"),
    "coupling_from_geometry tlf_u 1.5": (lambda: ts.coupling_from_geometry(_MAT, 2.0, 1.5, 1),
                                         "tlf_u must be <= 1, got 1.5"),
    "coupling_from_geometry sign 0": (lambda: ts.coupling_from_geometry(_MAT, 2.0, 0.5, 0),
                                      "sign must be +1 or -1, got 0"),
    "average_variance_mc density inf": (lambda: _mc(density=_INF),
                                        "density must be finite, got inf"),
    "average_variance_mc u_min 0": (lambda: _mc(u_min=0.0), "u_min must be > 0, got 0.0"),
    "average_variance_mc u_min 1": (lambda: _mc(u_min=1.0), "u_min must be < 1, got 1.0"),
    "average_variance_mc n_samples": (lambda: _mc(n_samples=9_999),
                                      "n_samples must be >= 10000, got 9999"),
    "average_variance_mc eps_max 0": (lambda: _mc(eps_max=0.0), "eps_max must be > 0, got 0.0"),
    "average_variance_mc r_max r0": (lambda: _mc(r_max=1.0), "r_max must be > 1.0, got 1.0"),
    "average_variance_mc kt nan": (lambda: _mc(kt=_NAN), "kt must be finite, got nan"),
    # oracle
    "HilbertSpec n_osc 1": (lambda: ts.HilbertSpec(n_osc=1, n_tlf=1), "n_osc must be >= 2, got 1"),
    "HilbertSpec n_tlf -1": (lambda: ts.HilbertSpec(n_osc=2, n_tlf=-1),
                             "n_tlf must be >= 0, got -1"),
    "evolve_lindblad gamma nan": (lambda: _lindblad(_NAN), "gamma must be finite, got nan"),
    "evolve_lindblad gamma -1": (lambda: _lindblad(-1.0), "gamma must be >= 0, got -1.0"),
}


@pytest.mark.parametrize("name", DOMAIN_REFUSALS)
def test_domain_refusal(name):
    call, message = DOMAIN_REFUSALS[name]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
    assert message.startswith(f"{name.split()[1]} must be ")


def _isfinite_calls():
    """(module, innermost enclosing function) of every math.isfinite call in tlfsim."""
    calls = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "isfinite" and getattr(func.value, "id", None) == "math"):
                calls.append((module, where))
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            visit(child, module, inner)

    for path in sorted(pathlib.Path(ts.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return calls


def test_isfinite_only_in_the_domain_helpers():
    # a scalar finiteness test anywhere else is a hand-written domain check
    calls = _isfinite_calls()
    assert calls and set(calls) <= {("model", "_out_of_domain"), ("model", "_require")}, calls
