"""Brute-force dense-matrix reference implementation.

Builds the full Hamiltonian on a truncated Hilbert space and evolves density
matrices either unitarily (by eigendecomposition, exact at any time) or under
the local Lindblad equation with fluctuator jump operators.  Every closed-form
result in the package is tested against this module.

Tensor order
------------
The basis is oscillator (slowest index) x TLS x TLF_1 x ... x TLF_N.  Each
two-level factor is ordered excited state first, so sigma_z = diag(+1, -1)
with basis (|e>, |g>) and tau_z = diag(+1, -1) with basis (|+>, |->).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh, expm

from .errors import (
    CapacityError,
    InvalidInputError,
    NumericalError,
    UndefinedCoherenceError,
)
from .model import (
    CoherenceTrace,
    JcParams,
    ThermalContext,
    _require,
    _time_grid,
    _uniform_block,
    thermal_population,
)
from .single_fluctuator import TlfSpec

__all__ = [
    "HilbertSpec",
    "DenseState",
    "build_hamiltonian",
    "initial_state",
    "evolve_unitary",
    "evolve_lindblad",
    "coherence_from_state",
    "annihilation_full",
    "expect_a",
]

_SIGMA_Z = np.diag([1.0, -1.0])
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |e><g|
_SIGMA_MINUS = _SIGMA_PLUS.T
_MAX_DIM = 4096  # largest Hilbert dimension the dense oracles build


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the oscillator Fock space and number of fluctuators."""

    n_osc: int
    n_tlf: int

    def __post_init__(self) -> None:
        _require("n_osc", self.n_osc, lo=2)  # the initial state spans |0>, |1>
        _require("n_tlf", self.n_tlf, lo=0)

    @property
    def dim(self) -> int:
        return self.n_osc * 2 * 2**self.n_tlf

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.n_osc, 2) + (2,) * self.n_tlf

    def check_cap(self) -> None:
        if self.dim > _MAX_DIM:
            raise CapacityError(
                f"Hilbert dimension {self.dim} exceeds {_MAX_DIM}; "
                "use the analytic ensemble sums for larger systems"
            )


@dataclass(frozen=True)
class DenseState:
    """Density operator with its tensor factorization.

    ``dims`` is (n_osc, 2, 2, ..., 2) in the documented tensor order.
    """

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        d = math.prod(self.dims)
        if self.rho.shape != (d, d):
            raise InvalidInputError(f"rho shape {self.rho.shape} != ({d}, {d})")

    def validate(self, herm_tol=1e-12, trace_tol=1e-10, psd_tol=1e-10) -> None:
        if np.max(np.abs(self.rho - self.rho.conj().T)) >= herm_tol:
            raise InvalidInputError("state is not Hermitian within tolerance")
        if abs(np.trace(self.rho).real - 1.0) >= trace_tol:
            raise InvalidInputError("state trace differs from 1 beyond tolerance")
        evals = np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2.0)
        if evals.min() < -psd_tol:
            raise InvalidInputError("state has a negative eigenvalue beyond tolerance")


def _kron_chain(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _site_operator(spec: HilbertSpec, site: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-factor operator; site 0 is the oscillator, 1 the TLS."""
    ops: list[np.ndarray] = []
    for k in range(2 + spec.n_tlf):
        d = spec.dims[k]
        ops.append(op if k == site else np.eye(d))
    return _kron_chain(ops)


def annihilation(n_osc: int) -> np.ndarray:
    a = np.zeros((n_osc, n_osc))
    for n in range(1, n_osc):
        a[n - 1, n] = math.sqrt(n)
    return a


def annihilation_full(spec: HilbertSpec) -> np.ndarray:
    """Oscillator lowering operator embedded in the full space."""
    return _site_operator(spec, 0, annihilation(spec.n_osc))


def build_hamiltonian(
    params: JcParams, tlfs: Sequence[TlfSpec], spec: HilbertSpec
) -> np.ndarray:
    """Full Hamiltonian: oscillator + TLS + exchange + fluctuator terms."""
    if len(tlfs) != spec.n_tlf:
        raise InvalidInputError(f"expected {spec.n_tlf} fluctuators, got {len(tlfs)}")
    spec.check_cap()
    a = annihilation(spec.n_osc)
    h = params.omega0 * _site_operator(spec, 0, a.T @ a)
    h = h + (params.epsilon_t / 2.0) * _site_operator(spec, 1, _SIGMA_Z)
    osc_a = _site_operator(spec, 0, a)
    sig_p = _site_operator(spec, 1, _SIGMA_PLUS)
    h = h + params.g * (osc_a @ sig_p + osc_a.conj().T @ sig_p.conj().T)
    sig_z = _site_operator(spec, 1, _SIGMA_Z)
    for j, tlf in enumerate(tlfs):
        tau_z = _site_operator(spec, 2 + j, _SIGMA_Z)
        h = h + (tlf.epsilon / 2.0) * tau_z + tlf.lam * (sig_z @ tau_z)
    return h


def initial_state(
    c0: complex,
    c1: complex,
    tlfs: Sequence[TlfSpec],
    ctx: ThermalContext,
    spec: HilbertSpec,
) -> DenseState:
    """(c0|0> + c1|1>) oscillator, TLS ground, fluctuators thermal.

    The fluctuator factors are diag(p_plus, p_minus) in the excited-first
    basis order.
    """
    if len(tlfs) != spec.n_tlf:
        raise InvalidInputError(f"expected {spec.n_tlf} fluctuators, got {len(tlfs)}")
    spec.check_cap()
    norm = abs(c0) ** 2 + abs(c1) ** 2
    if not abs(norm - 1.0) < 1e-12:  # a NaN amplitude is refused too
        raise InvalidInputError(f"|c0|^2 + |c1|^2 = {norm} is not 1 within 1e-12")
    psi_osc = np.zeros(spec.n_osc, dtype=complex)
    psi_osc[0] = c0
    psi_osc[1] = c1
    psi = np.kron(psi_osc, np.array([0.0, 1.0], dtype=complex))  # TLS ground
    rho = np.outer(psi, psi.conj())
    for tlf in tlfs:
        p_plus, p_minus = thermal_population(tlf.epsilon, ctx)
        rho = np.kron(rho, np.diag([p_plus, p_minus]).astype(complex))
    return DenseState(rho=rho, dims=spec.dims)


# Time points per batched contraction; bounds the (chunk, d, d) work arrays.
_CHUNK = 64


def _dense_states(rho: np.ndarray, dims: tuple[int, ...]) -> list[DenseState]:
    """One Hermitian-symmetrized DenseState per slice of a (T, d, d) stack."""
    herm = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    return [DenseState(rho=r, dims=dims) for r in herm]


def evolve_unitary(
    h: np.ndarray, rho0: DenseState, t_grid: Sequence[float]
) -> list[DenseState]:
    """Propagate rho(t) = U rho(0) U^dag with U from the eigendecomposition of H.

    In the eigenbasis rho(t)_jk = e^{-i (E_j - E_k) t} rho(0)_jk, so each chunk
    of time points is one elementwise product and two batched matrix products.
    """
    t_arr = _time_grid(t_grid)
    try:
        evals, vecs = eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalError(
            f"eigendecomposition failed (cond ~ {np.linalg.cond(h):.3g}): {exc}"
        ) from exc
    vecs_h = vecs.conj().T
    rho_eig = vecs_h @ rho0.rho @ vecs
    out: list[DenseState] = []
    for i in range(0, t_arr.size, _CHUNK):
        phases = np.exp(-1j * np.multiply.outer(t_arr[i : i + _CHUNK], evals))
        rot = phases[:, :, None] * rho_eig * phases.conj()[:, None, :]
        out += _dense_states(vecs @ rot @ vecs_h, rho0.dims)
    return out


def _lindblad_superoperator(h: np.ndarray, jumps: Sequence[np.ndarray]) -> np.ndarray:
    """Column-stacking superoperator for drho/dt = -i[H,rho] + sum_k D[L_k]rho."""
    d = h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for L in jumps:
        LdL = L.conj().T @ L
        sup = sup + (
            np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, LdL)
            - 0.5 * np.kron(LdL.T, eye)
        )
    return sup


def evolve_lindblad(
    params: JcParams,
    tlf: TlfSpec,
    gamma: float,
    rho0: DenseState,
    t_grid: Sequence[float],
) -> list[DenseState]:
    """Propagate the local Lindblad equation for a single dissipative fluctuator.

    Equal upward and downward fluctuator rates gamma (scale-separated regime).
    H and the jump operators sqrt(gamma) tau_-, sqrt(gamma) tau_+ are constant,
    so the lab-frame superoperator L is constant at any detuning and splitting,
    and the state is carried exactly from grid point to grid point,
    y_k = expm((t_k - t_{k-1}) L) y_{k-1} from t = 0.  One step matrix serves
    every interval of an equispaced grid and every repeat of an interval elsewhere.
    Chained step matrices are used instead of diagonalizing L, whose
    eigenvectors are ill-conditioned near exceptional points.
    """
    _require("gamma", gamma, lo=0)
    if len(rho0.dims) != 3:
        raise InvalidInputError("evolve_lindblad supports exactly one fluctuator")
    t_arr = _time_grid(t_grid)
    spec = HilbertSpec(n_osc=rho0.dims[0], n_tlf=1)
    h = build_hamiltonian(params, [tlf], spec)

    sqrt_g = math.sqrt(gamma)
    tau_m = _site_operator(spec, 2, _SIGMA_MINUS)
    tau_p = _site_operator(spec, 2, _SIGMA_PLUS)
    sup = _lindblad_superoperator(h, [sqrt_g * tau_m, sqrt_g * tau_p])

    steps = np.diff(t_arr, prepend=0.0)
    _, h_step = _uniform_block(t_arr)
    if h_step > 0:
        steps[1:] = h_step
    step_matrices: dict[float, np.ndarray] = {}
    d = spec.dim
    # Row k holds the column-stacked vec(rho(t_k)), i.e. rho(t_k)^T.
    ys = np.empty((t_arr.size, d * d), dtype=complex)
    y = rho0.rho.flatten(order="F")
    for k, dt in enumerate(steps):
        if dt not in step_matrices:
            step_matrices[dt] = expm(dt * sup)
        y = step_matrices[dt] @ y
        ys[k] = y
    if not np.all(np.isfinite(ys)):
        raise NumericalError("Lindblad propagation produced non-finite values")
    return _dense_states(ys.reshape(-1, d, d).transpose(0, 2, 1), rho0.dims)


def expect_a(state: DenseState) -> complex:
    """<a> = tr(a rho) with the truncated lowering operator."""
    spec = HilbertSpec(n_osc=state.dims[0], n_tlf=len(state.dims) - 2)
    return complex(np.trace(annihilation_full(spec) @ state.rho))


def coherence_from_state(
    states: Sequence[DenseState], a0_expectation: complex, t_grid: Sequence[float]
) -> CoherenceTrace:
    """Normalized coherence |tr(a rho(t))| / |<a(0)>| along a trajectory.

    tr(a rho) = sum_jk a_jk rho_kj is one matrix-vector product of the stacked,
    flattened states with vec(a^T), taken in chunks of time points.
    """
    if a0_expectation == 0:
        raise UndefinedCoherenceError("initial expectation <a(0)> vanishes")
    values = np.empty(len(states))
    if states:
        spec = HilbertSpec(n_osc=states[0].dims[0], n_tlf=len(states[0].dims) - 2)
        a_vec = annihilation_full(spec).T.ravel()
        for i in range(0, len(states), _CHUNK):
            stack = np.stack([s.rho for s in states[i : i + _CHUNK]])
            values[i : i + _CHUNK] = np.abs(stack.reshape(len(stack), -1) @ a_vec)
    return CoherenceTrace(t=np.asarray(t_grid, dtype=float), values=values / abs(a0_expectation))
