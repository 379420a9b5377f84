"""The four benchmark workloads: operations, seeded inputs and output checks.

Every operation is either a ``tlfsim`` command line (run in-process through
``tlfsim.cli.main``, writing a CSV and a manifest) or a library call pair of a
closed form and the dense-matrix oracle.  Each carries the check that decides
whether its output is correct:

* ``committed``: values at fixed rows against references generated from this
  code and stored in ``refs/``, within the method's own tolerance;
* ``ensemble``: configuration sums, narrow laws, envelopes and the continuum
  quadrature recomputed here, independently of the program, from the
  couplings the seed produced;
* ``micro``: the Monte-Carlo estimate against the integral it samples;
* ``oracle``: closed form against dense evolution, within ROADMAP's bounds.

The seed draws the random inputs (ensemble couplings, Monte-Carlo streams,
oracle parameter sets); which operations run never depends on it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import tlfsim
import tlfsim.cli

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs", "full.json")

CLOSED_TOL = 1e-12        # closed forms and exact sums
ODE_TOL = 1e-6            # adaptive-ODE columns, so that an exact propagator passes
ORACLE_CLOSED_TOL = 1e-9  # closed form vs dense unitary evolution
ORACLE_ODE_TOL = 1e-6     # reduced ODE vs dense Lindblad evolution
MC_SIGMAS = 6.0           # Monte-Carlo estimate vs its integral, in standard errors
CHECK_ROWS = 101          # rows compared per column


class CheckError(Exception):
    """An output that misses its reference."""


def check_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, CHECK_ROWS)).round().astype(int))


# ---------------------------------------------------------------------------
# Reading CLI output


class CsvOutput:
    """A CSV written by the CLI, with its manifest.  The file is streamed, not
    held whole, and parsed only at the rows a check needs, so that reading it
    back does not raise the worker's peak memory."""

    def __init__(self, path: str) -> None:
        self.path = path
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            self.n_rows = 0
            for line in fh:
                digest.update(line)
                self.n_rows += 1
        self.header = header.decode("utf-8").rstrip("\r\n").split(",")
        self.digest = digest.hexdigest()
        self.manifest = {}
        with open(path + ".manifest", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(" = ")
                self.manifest[key] = value.rstrip("\n")

    def rows(self, idx) -> np.ndarray:
        idx = list(idx)
        wanted, found = set(idx), {}
        with open(self.path, encoding="utf-8") as fh:
            next(fh)
            for i, line in enumerate(fh):
                if i in wanted:
                    found[i] = [float(x) for x in line.split(",")]
        return np.array([found[i] for i in idx])

    def tolerance(self, tag: str) -> float:
        """The method's own tolerance for a column of this CSV."""
        if tag.startswith("ode"):
            return ODE_TOL
        if tag.startswith("continuum"):
            return float(self.manifest["tolerance.quad_rel_tol"])
        if tag.startswith("broad"):
            return float(self.manifest["tolerance.broad_rel_tol"])
        return CLOSED_TOL


def _compare(label: str, got, ref, tol: float) -> None:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckError(f"{label}: shape {got.shape} != reference {ref.shape}")
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    worst = float(np.max(err)) if err.size else 0.0
    if not np.all(np.isfinite(got)) or not worst <= tol:
        raise CheckError(f"{label}: max deviation {worst:.3g} > tolerance {tol:g}")


# ---------------------------------------------------------------------------
# Independent references


def mixture(g: float, delta: float, lam, weight, t) -> np.ndarray:
    """|sum_k w_k exp(-i L_k t) A(L_k, t)| with the Jaynes-Cummings amplitude
    A = cos(W t/2) + i (d/W) sin(W t/2), d = delta + 2 L, W = sqrt(4 g^2 + d^2).

    One row at a time, so that 2^16 configurations need no large work array.
    """
    lam, weight = np.asarray(lam, float), np.asarray(weight, float)
    d = delta + 2.0 * lam
    w = np.sqrt(4.0 * g * g + d * d)
    out = np.empty(len(t))
    for i, ti in enumerate(t):
        half = w * ti / 2.0
        amp = np.cos(half) + 1j * (d / w) * np.sin(half)
        out[i] = abs(np.sum(weight * np.exp(-1j * lam * ti) * amp))
    return out


class Ensemble:
    """Couplings and splittings as the program sampled them, plus the thermal
    factor tanh(eps / 2kT) (zero in the scale-separated limit)."""

    def __init__(self, tlfs, kt: float | None) -> None:
        self.lam = np.array([f.lam for f in tlfs])
        eps = np.array([f.epsilon for f in tlfs])
        self.th = np.zeros_like(eps) if kt is None else np.tanh(eps / (2.0 * kt))
        self.mu = float(np.sum(self.lam * self.th))
        self.sigma2 = float(np.sum(self.lam**2 * (1.0 - self.th**2)))

    def configurations(self) -> tuple[np.ndarray, np.ndarray]:
        """Inner products and probabilities of all 2^N configurations; the
        +lam state of fluctuator j has probability (1 - th_j) / 2."""
        n = self.lam.size
        bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
        lam_cfg = (1 - 2 * bits) @ self.lam
        p = np.where(bits == 0, (1.0 - self.th) / 2.0, (1.0 + self.th) / 2.0)
        return lam_cfg, np.prod(p, axis=1)

    def exact(self, g, t):
        return mixture(g, 0.0, *self.configurations(), t)

    def narrow(self, g, t):
        d = 2.0 * self.mu
        w = math.hypot(2.0 * g, d)
        half = w * t / 2.0
        rabi = np.sqrt(np.cos(half) ** 2 + (d / w) ** 2 * np.sin(half) ** 2)
        return rabi * self.envelope(g, t)

    def envelope(self, g, t):
        return np.exp(-self.sigma2 * t**2 / 2.0)

    def continuum(self, g, t):
        """Gaussian-weighted amplitude over mu +/- 8 sigma by composite
        Gauss-Legendre with at least 8 panels per oscillation."""
        sigma = math.sqrt(self.sigma2)
        lo, hi = self.mu - 8.0 * sigma, self.mu + 8.0 * sigma
        panels = max(64, int(8 * 2.0 * float(np.max(t)) * (hi - lo) / (2 * math.pi)))
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(lo, hi, panels + 1)
        mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        gauss = np.exp(-((nodes - self.mu) ** 2) / (2.0 * self.sigma2)) / (
            math.sqrt(2.0 * math.pi) * sigma)
        return mixture(g, 0.0, nodes, weights * gauss, t)


def micro_expected(man: dict, kt: np.ndarray) -> np.ndarray:
    """The truncated coupling-variance integral the Monte-Carlo run samples.

    With r integrated out, u log-uniform on [uMin, 1] and eps uniform on
    [0, epsMax], the mean is prefactor * E[sqrt(1-u)] * E[sech^2(eps/2kT)],
    both expectations in closed form.
    """
    p = {k[len("param."):]: float(v) for k, v in man.items() if k.startswith("param.")}
    d = int(p["d"])
    solid = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    z_r = (p["r0"] ** -d - p["rMax"] ** -d) / d
    s0 = math.sqrt(1.0 - p["uMin"])
    int_u = -(2.0 * s0 + math.log((1.0 - s0) / (1.0 + s0)))  # int sqrt(1-u)/u du
    return (solid * p["density"] * p["j0"] ** 2 * p["cosTheta"] ** 2 * p["r0"] ** (2 * d)
            * z_r * int_u * kt * np.tanh(p["epsMax"] / (2.0 * kt)))


# ---------------------------------------------------------------------------
# Operations


class Op:
    """One operation: ``call`` is the timed program call, ``read`` turns what it
    returned into the output (untimed), ``check`` raises CheckError."""

    def __init__(self, op_id: str, inputs, call, check, fingerprint, read=None) -> None:
        self.id = op_id
        self.inputs = inputs  # what the seed decided, for the input digest
        self.call = call
        self.read = read or (lambda raw: raw)
        self.check = check
        self.fingerprint = fingerprint

    def run(self):
        return self.read(self.call())


def cli_op(op_id: str, argv: list[str], out_dir: str, check, inputs=None) -> Op:
    path = os.path.join(out_dir, op_id + ".csv")

    def call():
        code = tlfsim.cli.main(argv + ["--out", path])
        if code != 0:
            raise CheckError(f"exit code {code}")

    return Op(op_id, {"argv": argv, "sampled": inputs}, call, check,
              lambda out: out.digest,
              read=lambda _: CsvOutput(path))


def lib_op(op_id: str, inputs, run, check) -> Op:
    def fingerprint(out):
        h = hashlib.sha256()
        for key in sorted(out):
            h.update(key.encode() + np.ascontiguousarray(out[key]).tobytes())
        return h.hexdigest()

    return Op(op_id, inputs, run, check, fingerprint)


def committed(ref: dict):
    """Check a CSV, or a library result, against stored reference rows."""
    def check(out):
        rows = ref["rows"]
        if isinstance(out, CsvOutput):
            if out.header != ref["header"]:
                raise CheckError(f"header {out.header} != reference {ref['header']}")
            if out.n_rows != ref["n_rows"]:
                raise CheckError(f"{out.n_rows} rows != reference {ref['n_rows']}")
            table = out.rows(rows)
            for j, tag in enumerate(out.header):
                _compare(tag, table[:, j], ref["values"][tag], out.tolerance(tag))
        else:
            for tag, values in ref["values"].items():
                _compare(tag, np.asarray(out[tag])[rows], values, ODE_TOL)
    check.committed = True
    return check


def ensemble_check(g: float, t_full: np.ndarray, columns: dict):
    """``columns``: CSV tag -> (law, Ensemble); every other tag is an error."""
    def check(out: CsvOutput):
        if out.header != ["t"] + list(columns):
            raise CheckError(f"header {out.header} != {['t'] + list(columns)}")
        if out.n_rows != t_full.size:
            raise CheckError(f"{out.n_rows} rows != {t_full.size}")
        idx = check_rows(t_full.size)
        table = out.rows(idx)
        _compare("t", table[:, 0], t_full[idx], CLOSED_TOL)
        for j, (tag, (law, ens)) in enumerate(columns.items(), start=1):
            ref = getattr(ens, law)(g, t_full[idx])
            _compare(tag, table[:, j], ref, out.tolerance(tag))
    return check


def micro_check(out: CsvOutput):
    if out.header != ["kT", "variance", "stderr"]:
        raise CheckError(f"header {out.header}")
    table = out.rows(range(out.n_rows))
    kt, value, stderr = table.T
    if not np.all(stderr > 0):
        raise CheckError("non-positive standard error")
    z = np.abs(value - micro_expected(out.manifest, kt)) / stderr
    if not np.max(z) <= MC_SIGMAS:
        raise CheckError(f"estimate {np.max(z):.3g} standard errors from its integral")


def oracle_check(tol: float):
    def check(out):
        _compare("closed form vs oracle", out["closed"], out["oracle"], tol)
    return check


def _oracle_trace(params, tlfs, ctx, t, gamma=None) -> np.ndarray:
    spec = tlfsim.HilbertSpec(n_osc=2, n_tlf=len(tlfs))
    rho0 = tlfsim.initial_state(1 / math.sqrt(2), 1 / math.sqrt(2), list(tlfs), ctx, spec)
    if gamma is None:
        h = tlfsim.build_hamiltonian(params, list(tlfs), spec)
        states = tlfsim.evolve_unitary(h, rho0, t)
    else:
        states = tlfsim.evolve_lindblad(params, tlfs[0], gamma, rho0, t)
    return tlfsim.coherence_from_state(states, tlfsim.expect_a(rho0), t).values


def _ctx(kt):
    if kt is None:
        return tlfsim.ThermalContext.scale_separated()
    return tlfsim.ThermalContext.finite_temperature(kt)


# ---------------------------------------------------------------------------
# Workloads.  Sizes: (full, tiny); the tiny size is for the self-test only.

def _pick(tiny: bool, full, small):
    return small if tiny else full


def _figure_ensembles(index: int, seed: int):
    """Replay the rng draws of ``figure 4`` / ``figure 5`` (g = 0.1)."""
    rng = np.random.default_rng(seed)
    if index == 4:
        return {f"n{n}": tlfsim.sample_uniform_couplings(n, 0.005, rng) for n in (5, 10, 15)}
    return {f"s{k}": tlfsim.sample_spatial_couplings(15, 2, (1.0, 10.0), 1.0, 0.1, rng)
            for k in (1, 2, 3)}


def _figure_op(index: int, seed: int, n_points: int, out_dir: str) -> Op:
    columns = {}
    sampled = {}
    for label, tlfs in _figure_ensembles(index, seed).items():
        ens = Ensemble(tlfs, None)
        sampled[label] = ens.lam.tolist()
        columns.update({f"exact_{label}": ("exact", ens), f"narrow_{label}": ("narrow", ens),
                        f"env_{label}": ("envelope", ens)})
    t = np.linspace(0.0, 500.0, n_points)
    return cli_op(f"figure{index}", ["figure", str(index), "--seed", str(seed),
                                     "--n-points", str(n_points)],
                  out_dir, ensemble_check(0.1, t, columns), sampled)


def _ensemble_op(op_id: str, seed: int, n: int, sampler: str, kt, t_max: float,
                 n_points: int, methods: list[str], out_dir: str) -> Op:
    """``tlfsim ensemble`` at g = 0.1, resonant, default sampler settings."""
    rng = np.random.default_rng(seed)
    if sampler == "uniform":
        tlfs = tlfsim.sample_uniform_couplings(n, 0.005, rng)
    else:
        tlfs = tlfsim.sample_spatial_couplings(n, 2, (1.0, 10.0), 1.0, 0.1, rng)
    ens = Ensemble(tlfs, kt)
    argv = ["ensemble", "--n", str(n), "--sampler", sampler, "--t-max", repr(t_max),
            "--n-points", str(n_points), "--seed", str(seed), "--methods", ",".join(methods)]
    if kt is not None:
        argv += ["--kt", repr(kt)]
    t = np.linspace(0.0, t_max, n_points)
    return cli_op(op_id, argv, out_dir,
                  ensemble_check(0.1, t, {m: (m, ens) for m in methods}),
                  {"lam": ens.lam.tolist(), "th": ens.th.tolist()})


def frozen_ensemble(seed, tiny, refs, out_dir):
    pts = _pick(tiny, 200, 20)
    n_small, n_big = _pick(tiny, (12, 16), (4, 6))
    methods = ["exact", "narrow", "continuum", "envelope"]
    return [
        _figure_op(4, seed, pts, out_dir),
        _figure_op(5, seed, pts, out_dir),
        _ensemble_op(f"uniform-n{n_small}", seed, n_small, "uniform", 0.05, 600.0,
                     _pick(tiny, 600, 30), methods, out_dir),
        _ensemble_op(f"uniform-n{n_big}", seed, n_big, "uniform", 0.05, 600.0,
                     _pick(tiny, 600, 30), methods, out_dir),
        _ensemble_op(f"spatial-n{n_small}", seed, n_small, "spatial", 0.05, 600.0,
                     _pick(tiny, 600, 30), methods, out_dir),
    ]


def continuum_broad(seed, tiny, refs, out_dir):
    pts = str(_pick(tiny, 300, 12))
    five = "continuum,narrow,broad,erfc,linear"
    return [
        cli_op("figure7", ["figure", "7", "--n-points", pts], out_dir,
               committed(refs["figure7"])),
        cli_op("continuum-mu0", ["continuum", "--mu", "0", "--sigma", "0.03",
                                 "--n-points", pts, "--methods", five],
               out_dir, committed(refs["continuum-mu0"])),
        cli_op("continuum-mu-sigma", ["continuum", "--mu", "0.03", "--sigma", "0.03",
                                      "--n-points", pts, "--methods", five],
               out_dir, committed(refs["continuum-mu-sigma"])),
        cli_op("micro", ["micro", "--n-points", str(_pick(tiny, 50, 3)), "--seed", str(seed),
                         "--methods", "variance,stderr"],
               out_dir, micro_check, {"seed": seed}),
    ]


# Acceptance criterion 04: (g, lambda) x gamma/lambda, 400 points to 10/gamma.
LINDBLAD_GRID = [(g, lam, r * lam) for g, lam in ((0.1, 0.01), (0.01, 0.1))
                 for r in (0.1, 1.0, 10.0)]


def _reduced_grid(tiny: bool) -> tuple[tuple[float, float, float], np.ndarray]:
    """The long reduced run of criterion 05b: g = 100 lambda, 3 decay times."""
    g, lam, gamma = 0.3, 0.003, 0.03
    t_end = 3.0 / (lam**2 / (2 * gamma))
    return (g, lam, gamma), np.linspace(0.0, _pick(tiny, t_end, 500.0),
                                        _pick(tiny, 50_000, 500))


def reference_check(seed, tiny, refs, out_dir):
    rng = np.random.default_rng(seed)
    ops = [cli_op("figure3", ["figure", "3", "--n-points", str(_pick(tiny, 1000, 40))],
                  out_dir, committed(refs["figure3"]))]

    grid = LINDBLAD_GRID if not tiny else [LINDBLAD_GRID[2], LINDBLAD_GRID[5]]
    for g, lam, gamma in grid:
        def run(g=g, lam=lam, gamma=gamma):
            t = np.linspace(0.0, 10.0 / gamma, _pick(tiny, 400, 40))
            params = tlfsim.JcParams(1.0, 1.0, g)
            oracle = _oracle_trace(params, [tlfsim.TlfSpec(0.1, lam)], _ctx(None), t, gamma)
            return {"closed": tlfsim.integrate_reduced(g, lam, gamma, t).values,
                    "oracle": oracle}
        ops.append(lib_op(f"lindblad-g{g:g}-gamma{gamma:g}", [g, lam, gamma], run,
                          oracle_check(ORACLE_ODE_TOL)))

    (g, lam, gamma), t_reduced = _reduced_grid(tiny)
    ops.append(lib_op("reduced-long", [g, lam, gamma, t_reduced.size],
                      lambda g=g, lam=lam, gamma=gamma: {
                          "ode": tlfsim.integrate_reduced(g, lam, gamma, t_reduced).values},
                      committed(refs["reduced-long"])))

    # Criterion 01 draws: one fluctuator, random g, lambda, detuning, three
    # thermal contexts; dense unitary evolution on [0, 200].
    kts = (None, 0.05, 0.5)
    for k in range(_pick(tiny, 6, 2)):
        g, lam, delta = rng.uniform(0.005, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        kt = kts[k % 3]

        def run(g=g, lam=lam, delta=delta, kt=kt):
            t = np.linspace(0.0, 200.0, _pick(tiny, 2001, 51))
            params, tlf = tlfsim.JcParams(1.0, 1.0 + delta, g), tlfsim.TlfSpec(0.1, lam)
            return {"closed": tlfsim.coherence_exact_single(params, tlf, _ctx(kt), t),
                    "oracle": _oracle_trace(params, [tlf], _ctx(kt), t)}
        ops.append(lib_op(f"unitary-single-{k}", [g, lam, delta, kt], run,
                          oracle_check(ORACLE_CLOSED_TOL)))

    # Criterion 07: N = 3 ensembles against 32-dimensional dense evolution, on
    # a uniform grid and on a log-spaced one.
    grids = {"linear": lambda: np.linspace(0.0, 300.0, _pick(tiny, 301, 31)),
             "log": lambda: np.concatenate([[0.0], np.geomspace(0.01, 300.0,
                                                                _pick(tiny, 400, 30))])}
    for (label, make_t), kt in zip(grids.items(), (None, 0.05)):
        lams = rng.uniform(-0.005, 0.005, 3)

        def run(lams=lams, make_t=make_t, kt=kt):
            t = make_t()
            tlfs = [tlfsim.TlfSpec(0.1, x) for x in lams]
            params = tlfsim.JcParams(1.0, 1.0, 0.1)
            ens = tlfsim.TlfEnsemble(tlfs, _ctx(kt))
            return {"closed": tlfsim.coherence_exact_ensemble(params, ens, t),
                    "oracle": _oracle_trace(params, tlfs, _ctx(kt), t)}
        ops.append(lib_op(f"unitary-n3-{label}", [lams.tolist(), kt], run,
                          oracle_check(ORACLE_CLOSED_TOL)))
    return ops


def fine_trace(seed, tiny, refs, out_dir):
    pts = _pick(tiny, 100_000, 200)
    n = ["--n-points", str(pts)]
    return [
        cli_op("jc-only", ["jc-only", *n, "--methods", "gr,gr_short"], out_dir,
               committed(refs["jc-only"])),
        cli_op("single-tlf", ["single-tlf", *n, "--methods",
                              "exact,weak_envelope,strong_leading,strong_higher"],
               out_dir, committed(refs["single-tlf"])),
        cli_op("dissipative", ["dissipative", *n, "--methods", "weak_damped"], out_dir,
               committed(refs["dissipative"])),
        cli_op("figure1", ["figure", "1", *n], out_dir, committed(refs["figure1"])),
        cli_op("figure2", ["figure", "2", *n], out_dir, committed(refs["figure2"])),
        _ensemble_op("ensemble-n2", seed, 2, "uniform", None, 500.0, pts,
                     ["exact", "narrow", "envelope"], out_dir),
    ]


BUILDERS = {"frozen-ensemble": frozen_ensemble, "continuum-broad": continuum_broad,
            "reference-check": reference_check, "fine-trace": fine_trace}
NAMES = tuple(BUILDERS)


class _Missing(dict):
    """Reference table used while references are being generated."""

    def __missing__(self, key):
        return {}


def build(name: str, seed: int, tiny: bool, out_dir: str, refs: dict | None = None) -> list[Op]:
    """The workload's operations; ``refs`` defaults to the committed references."""
    if refs is None:
        with open(REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    return BUILDERS[name](seed, tiny, refs.get(name, _Missing()), out_dir)


def reference_of(out) -> dict:
    """Reference rows of an output, in the format ``committed`` reads."""
    if isinstance(out, CsvOutput):
        rows = check_rows(out.n_rows).tolist()
        table = out.rows(rows)
        return {"header": out.header, "n_rows": out.n_rows, "rows": rows,
                "values": {tag: table[:, j].tolist() for j, tag in enumerate(out.header)}}
    (tag, values), = out.items()
    rows = check_rows(len(values)).tolist()
    return {"rows": rows, "values": {tag: np.asarray(values)[rows].tolist()}}
