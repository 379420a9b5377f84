"""Dense-matrix reference evolution: Hamiltonians, states and propagators."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, expm

import tlfsim as ts
from tlfsim import oracle
from tlfsim.errors import (
    CapacityError,
    InvalidInputError,
    NumericalError,
    UndefinedCoherenceError,
)

from conftest import oracle_lindblad_trace, oracle_single_trace

SQ2 = 1 / math.sqrt(2)

# (g, lam, gamma): criterion 04's six, then two with an ill-conditioned
# eigenbasis of the superoperator (cond(V) ~ 7.5e7 and 3e8).
LINDBLAD_CASES = [
    (0.1, 0.01, 0.001), (0.1, 0.01, 0.01), (0.1, 0.01, 0.1),
    (0.01, 0.1, 0.01), (0.01, 0.1, 0.1), (0.01, 0.1, 1.0),
    (0.1, 0.01, 0.02), (0.05, 0.05, 0.05),
]


def reference_unitary(h, rho0, t):
    """Per-point loop: rho(t) = V (p p^* . V^dag rho(0) V) V^dag, p = e^{-i E t}."""
    evals, vecs = eigh(h)
    rho_eig = vecs.conj().T @ rho0.rho @ vecs
    out = []
    for tk in t:
        phases = np.exp(-1j * evals * tk)
        out.append(vecs @ (np.outer(phases, phases.conj()) * rho_eig) @ vecs.conj().T)
    return out


def _rotating_frame(params, tlf, gamma, spec):
    """Rotating-frame superoperator and the free energies that rotate back."""
    a = ts.annihilation(spec.n_osc)
    sigma_z = np.diag([1.0, -1.0])
    h0 = params.omega0 * (
        oracle._site_operator(spec, 0, a.T @ a) + 0.5 * oracle._site_operator(spec, 1, sigma_z)
    ) + (tlf.epsilon / 2.0) * oracle._site_operator(spec, 2, sigma_z)
    h_rot = ts.build_hamiltonian(params, [tlf], spec) - h0
    jumps = [math.sqrt(gamma) * oracle._site_operator(spec, 2, op)
             for op in (oracle._SIGMA_MINUS, oracle._SIGMA_PLUS)]
    return oracle._lindblad_superoperator(h_rot, jumps), np.diag(h0).real


def _to_lab(y, e0, t):
    d = e0.size
    phases = np.exp(-1j * e0 * t)
    return phases[:, None] * y.reshape((d, d), order="F") * phases.conj()[None, :]


def reference_lindblad(params, tlf, gamma, rho0, t):
    """Adaptive DOP853 solve of the rotating-frame Lindblad equation."""
    sup, e0 = _rotating_frame(params, tlf, gamma, ts.HilbertSpec(n_osc=rho0.dims[0], n_tlf=1))
    sol = solve_ivp(lambda _t, y: sup @ y, (0.0, t[-1]), rho0.rho.flatten(order="F"),
                    method="DOP853", t_eval=t, rtol=1e-10, atol=1e-12)
    assert sol.success
    return [_to_lab(sol.y[:, k], e0, tk) for k, tk in enumerate(t)]


def exact_lindblad(params, tlf, gamma, rho0, t):
    """expm(t L) vec(rho(0)) at each point, with no chaining between points."""
    sup, e0 = _rotating_frame(params, tlf, gamma, ts.HilbertSpec(n_osc=rho0.dims[0], n_tlf=1))
    y0 = rho0.rho.flatten(order="F")
    return [_to_lab(expm(tk * sup) @ y0, e0, tk) for tk in t]


def coherence_of(rhos, rho0):
    """|tr(a rho)| / |<a(0)>| for plain density matrices, one trace per state."""
    a_full = ts.annihilation_full(ts.HilbertSpec(n_osc=rho0.dims[0], n_tlf=len(rho0.dims) - 2))
    return np.array([abs(np.trace(a_full @ r)) for r in rhos]) / abs(ts.expect_a(rho0))


def max_state_error(states, reference):
    assert len(states) == len(reference)
    return max(np.abs(s.rho - r).max() for s, r in zip(states, reference))


class TestHilbertSpace:
    def test_dims(self):
        spec = ts.HilbertSpec(n_osc=3, n_tlf=2)
        assert spec.dim == 3 * 2 * 2 * 2
        assert spec.dims == (3, 2, 2, 2)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ts.HilbertSpec(n_osc=2, n_tlf=12).check_cap()

    def test_annihilation(self):
        a = ts.annihilation(4)
        n_op = a.conj().T @ a
        assert np.allclose(np.diag(n_op), [0, 1, 2, 3])


class TestInitialState:
    def test_density_matrix_valid(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        rho = ts.initial_state(SQ2, SQ2, [ts.TlfSpec(0.1, 0.01)], ss, spec)
        rho.validate()
        assert np.trace(rho.rho) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_weights(self):
        ctx = ts.ThermalContext.finite_temperature(0.05)
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        rho = ts.initial_state(SQ2, SQ2, [ts.TlfSpec(0.1, 0.01)], ctx, spec)
        p_plus, p_minus = ts.thermal_population(0.1, ctx)
        # trace over oscillator and TLS leaves the fluctuator populations
        r = rho.rho.reshape(2, 2, 2, 2, 2, 2)
        tlf_pops = np.einsum("abiabj->ij", r)
        assert tlf_pops[0, 0].real == pytest.approx(p_plus, abs=1e-12)
        assert tlf_pops[1, 1].real == pytest.approx(p_minus, abs=1e-12)

    def test_unnormalized_amplitudes_rejected(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=0)
        with pytest.raises(InvalidInputError):
            ts.initial_state(1.0, 1.0, [], ss, spec)

    def test_nan_amplitude_rejected(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=0)
        with pytest.raises(InvalidInputError, match="= nan is not 1 within 1e-12"):
            ts.initial_state(math.nan, SQ2, [], ss, spec)


class TestUnitary:
    def test_hermitian_hamiltonian(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        h = ts.build_hamiltonian(ts.JcParams(1.0, 1.02, 0.1),
                                 [ts.TlfSpec(0.1, 0.01)], spec)
        assert np.allclose(h, h.conj().T)

    def test_trace_preserved(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        params = ts.JcParams(1.0, 1.02, 0.1)
        tlf = ts.TlfSpec(0.1, 0.02)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, spec)
        h = ts.build_hamiltonian(params, [tlf], spec)
        t = np.linspace(0.0, 100.0, 51)
        for state in ts.evolve_unitary(h, rho0, t):
            assert abs(np.trace(state.rho) - 1.0) < 1e-10

    def test_matches_exact_single(self, ss):
        params = ts.JcParams(1.0, 1.03, 0.08)
        tlf = ts.TlfSpec(0.1, 0.02)
        t = np.linspace(0.0, 150.0, 301)
        trace = oracle_single_trace(params, tlf, ss, t)
        exact = ts.coherence_exact_single(params, tlf, ss, t)
        assert np.abs(trace.values - exact).max() < 1e-10


class TestUnitaryReference:
    @pytest.mark.parametrize("n_tlf", [1, 3])
    @pytest.mark.parametrize("grid", ["linspace", "geomspace"])
    def test_matches_per_point_loop(self, ss, n_tlf, grid):
        params = ts.JcParams(1.0, 1.03, 0.08)
        tlfs = [ts.TlfSpec(0.1, lam) for lam in (0.02, -0.013, 0.031)[:n_tlf]]
        spec = ts.HilbertSpec(n_osc=2, n_tlf=n_tlf)
        rho0 = ts.initial_state(SQ2, SQ2, tlfs, ss, spec)
        h = ts.build_hamiltonian(params, tlfs, spec)
        # 150 points: two full chunks of 64 and a partial one
        if grid == "linspace":
            t = np.linspace(0.0, 200.0, 150)
        else:
            t = np.concatenate([[0.0], np.geomspace(1e-2, 200.0, 149)])
        states = ts.evolve_unitary(h, rho0, t)
        assert max_state_error(states, reference_unitary(h, rho0, t)) < 1e-12
        a_full = ts.annihilation_full(spec)
        loop = np.array([abs(np.trace(a_full @ s.rho)) for s in states])
        trace = ts.coherence_from_state(states, 0.5, t)
        assert np.abs(trace.values - loop / 0.5).max() < 1e-14

    def test_empty_grid(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, spec)
        h = ts.build_hamiltonian(ts.JcParams(1.0, 1.0, 0.1), [tlf], spec)
        assert ts.evolve_unitary(h, rho0, []) == []

    @pytest.mark.parametrize("t", [[0.0, 2.0, 1.0], [-1.0, 0.0], [0.0, math.nan],
                                   [[0.0, 1.0]], 1.0])
    def test_invalid_grid_rejected(self, ss, t):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        tlf = ts.TlfSpec(0.1, 0.01)
        params = ts.JcParams(1.0, 1.0, 0.1)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, spec)
        h = ts.build_hamiltonian(params, [tlf], spec)
        with pytest.raises(InvalidInputError):
            ts.evolve_unitary(h, rho0, t)
        with pytest.raises(InvalidInputError):
            ts.evolve_lindblad(params, tlf, 0.01, rho0, t)


class TestLindbladReference:
    @pytest.mark.parametrize("g, lam, gamma", LINDBLAD_CASES)
    def test_matches_adaptive_solve(self, ss, g, lam, gamma):
        params = ts.JcParams(1.0, 1.0, g)
        tlf = ts.TlfSpec(0.1, lam)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        t = np.linspace(0.0, 10.0 / gamma, 400)
        self.check(params, tlf, gamma, rho0, t)

    @staticmethod
    def check(params, tlf, gamma, rho0, t):
        states = ts.evolve_lindblad(params, tlf, gamma, rho0, t)
        values = ts.coherence_from_state(states, ts.expect_a(rho0), t).values
        reference = coherence_of(reference_lindblad(params, tlf, gamma, rho0, t), rho0)
        assert np.abs(values - reference).max() < 1e-9
        # the states themselves against exponentials taken from t = 0; DOP853
        # states are only good to ~3e-9 at gamma = 0.001
        every = slice(None, None, 40)
        exact = exact_lindblad(params, tlf, gamma, rho0, t[every])
        assert max_state_error(states[every], exact) < 1e-12

    def test_matches_adaptive_solve_on_log_grid(self, ss):
        # every interval differs, so each step gets its own matrix exponential
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        t = np.concatenate([[0.0], np.geomspace(1e-2, 500.0, 99)])
        self.check(params, tlf, 0.02, rho0, t)

    @pytest.mark.parametrize("omega0, epsilon_t, g, eps, lam, gamma, n_osc, kt", [
        (1.0, 1.02, 0.1, 0.3, 0.01, 0.02, 2, 0.07),
        (1.0, 0.97, 0.05, 0.1, 0.05, 0.05, 3, None),
        (1.0, 1.0, 0.1, 0.1, 0.01, 0.02, 3, 0.07),
    ])
    def test_matches_adaptive_solve_off_resonance(self, omega0, epsilon_t, g, eps, lam,
                                                  gamma, n_osc, kt):
        # detuned, at finite temperature or with a third oscillator level: the
        # oracle's lab-frame propagation against the references' rotating frame
        params = ts.JcParams(omega0, epsilon_t, g)
        tlf = ts.TlfSpec(eps, lam)
        ctx = ts.ThermalContext(kt=kt)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ctx, ts.HilbertSpec(n_osc=n_osc, n_tlf=1))
        t = np.linspace(0.0, 10.0 / gamma, 400)
        self.check(params, tlf, gamma, rho0, t)

    def test_one_step_matrix_per_distinct_interval(self, ss, monkeypatch):
        calls = []
        scipy_expm = oracle.expm

        def counting_expm(m):
            calls.append(m)
            return scipy_expm(m)

        monkeypatch.setattr(oracle, "expm", counting_expm)
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        # equispaced: the step from t = 0 to t_0 = 0, then one step h
        ts.evolve_lindblad(params, tlf, 0.01, rho0, np.linspace(0.0, 100.0, 400))
        assert len(calls) == 2
        calls.clear()
        # intervals 0, 1, 1, 0, 1, 2
        ts.evolve_lindblad(params, tlf, 0.01, rho0, [0.0, 1.0, 2.0, 2.0, 3.0, 5.0])
        assert len(calls) == 3

    def test_empty_grid(self, ss):
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        assert ts.evolve_lindblad(ts.JcParams(1.0, 1.0, 0.1), tlf, 0.01, rho0, []) == []

    def test_overflow_is_numerical_error(self, ss):
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        with pytest.raises(NumericalError):
            ts.evolve_lindblad(ts.JcParams(1.0, 1.0, 0.1), tlf, 1e200, rho0, [0.0, 10.0])

    @pytest.mark.parametrize("n_osc, allowed", [(16, True), (17, False)])
    def test_superoperator_capped_before_building(self, ss, monkeypatch, n_osc, allowed):
        # the superoperator's side is dim^2 = (4 n_osc)^2: 4096 at n_osc = 16
        def not_built(*args):
            raise AssertionError("superoperator built")

        monkeypatch.setattr(oracle, "_lindblad_superoperator", not_built)
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=n_osc, n_tlf=1))
        with pytest.raises(AssertionError if allowed else CapacityError,
                           match="superoperator built" if allowed else "Liouville dimension 4624"):
            ts.evolve_lindblad(ts.JcParams(1.0, 1.0, 0.1), tlf, 0.01, rho0, [0.0, 1.0])

    def test_repeated_times(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, ts.HilbertSpec(n_osc=2, n_tlf=1))
        states = ts.evolve_lindblad(params, tlf, 0.01, rho0, [0.0, 0.0, 1.0])
        assert len(states) == 3
        assert np.abs(states[0].rho - rho0.rho).max() < 1e-15
        assert np.abs(states[1].rho - rho0.rho).max() < 1e-15
        exact = exact_lindblad(params, tlf, 0.01, rho0, [1.0])
        assert np.abs(states[2].rho - exact[0]).max() < 1e-12


class TestLindblad:
    def test_zero_rate_matches_unitary(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        t = np.linspace(0.0, 80.0, 101)
        closed = oracle_single_trace(params, tlf, ss, t)
        open_ = oracle_lindblad_trace(params, tlf, 0.0, ss, t)
        assert np.abs(closed.values - open_.values).max() < 1e-8

    def test_trace_and_hermiticity_preserved(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        rho0 = ts.initial_state(SQ2, SQ2, [tlf], ss, spec)
        t = np.linspace(0.0, 200.0, 41)
        for state in ts.evolve_lindblad(params, tlf, 0.02, rho0, t):
            assert abs(np.trace(state.rho) - 1.0) < 1e-8
            assert np.allclose(state.rho, state.rho.conj().T)

    def test_coherence_decays(self, ss):
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        t = np.array([0.0, 2000.0])
        trace = oracle_lindblad_trace(params, tlf, 0.01, ss, t)
        assert trace.values[0] == pytest.approx(1.0, abs=1e-9)
        assert trace.values[-1] < 0.05


class TestCoherenceFromState:
    def test_zero_initial_expectation_rejected(self, ss):
        spec = ts.HilbertSpec(n_osc=2, n_tlf=0)
        rho = ts.initial_state(1.0, 0.0, [], ss, spec)
        with pytest.raises(UndefinedCoherenceError):
            ts.coherence_from_state([rho], 0.0, [0.0])

    def test_normalization(self, ss):
        # unequal superposition still normalizes to C(0) = 1
        params = ts.JcParams(1.0, 1.0, 0.1)
        tlf = ts.TlfSpec(0.1, 0.01)
        spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
        rho0 = ts.initial_state(math.sqrt(0.2), math.sqrt(0.8), [tlf], ss, spec)
        h = ts.build_hamiltonian(params, [tlf], spec)
        states = ts.evolve_unitary(h, rho0, np.array([0.0, 5.0]))
        trace = ts.coherence_from_state(states, ts.expect_a(states[0]), [0.0, 5.0])
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_trajectory(self):
        trace = ts.coherence_from_state([], 0.5, [])
        assert trace.t.shape == trace.values.shape == (0,)
