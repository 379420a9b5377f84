"""Shared fixtures: thermal contexts and oracle helpers."""
import math

import numpy as np
import pytest

import tlfsim as ts


@pytest.fixture(scope="session")
def ss():
    return ts.ThermalContext.scale_separated()


def oracle_single_trace(params, tlf, ctx, t_grid):
    """Dense unitary evolution of oscillator + TLS + one TLF, as a coherence trace."""
    spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
    rho0 = ts.initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), [tlf], ctx, spec)
    h = ts.build_hamiltonian(params, [tlf], spec)
    states = ts.evolve_unitary(h, rho0, t_grid)
    return ts.coherence_from_state(states, ts.expect_a(states[0]), t_grid)


def oracle_ensemble_trace(params, tlfs, ctx, t_grid):
    """Dense unitary evolution with several fluctuators."""
    spec = ts.HilbertSpec(n_osc=2, n_tlf=len(tlfs))
    rho0 = ts.initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), list(tlfs), ctx, spec)
    h = ts.build_hamiltonian(params, list(tlfs), spec)
    states = ts.evolve_unitary(h, rho0, t_grid)
    return ts.coherence_from_state(states, ts.expect_a(states[0]), t_grid)


def oracle_lindblad_trace(params, tlf, gamma, ctx, t_grid):
    """Dense Lindblad evolution with one dissipative fluctuator."""
    spec = ts.HilbertSpec(n_osc=2, n_tlf=1)
    rho0 = ts.initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), [tlf], ctx, spec)
    states = ts.evolve_lindblad(params, tlf, gamma, rho0, t_grid)
    return ts.coherence_from_state(states, ts.expect_a(states[0]), t_grid)
