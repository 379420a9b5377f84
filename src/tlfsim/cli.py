"""Command-line front end: scenario configs in, CSV coherence traces out.

Scenarios are described by a flat key-path config (file and/or flags), run
deterministically under a seed, and written as a CSV plus a plain-text
manifest recording every resolved parameter.  Presets ``figure 1`` .. 7
reproduce the library's reference scenarios at desk scale.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dissipative import (
    classify_regime,
    coherence_strong_damped,
    coherence_weak_damped,
    integrate_reduced,
)
from .ensemble import (
    BROAD_REL_TOL,
    QUAD_REL_TOL,
    TlfEnsemble,
    _check_budget,
    coherence_broad_erfc,
    coherence_broad_integral,
    coherence_broad_linear,
    coherence_continuum,
    coherence_exact_ensemble,
    coherence_narrow,
    ensemble_stats,
    EnsembleStats,
    sample_spatial_couplings,
    sample_uniform_couplings,
)
from .errors import InvalidInputError, NumericalError, TlfsimError
from .microscopic import MaterialParams, average_variance_mc
from .model import JcParams, ThermalContext, _out_of_domain, coherence_gr, coherence_gr_short_time
from .single_fluctuator import (
    TlfSpec,
    coherence_exact_single,
    coherence_strong_higher,
    coherence_strong_leading,
    coherence_weak_envelope,
)

__all__ = ["main", "run_scenario", "validate_config", "Scenario"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

KINDS = ("jc-only", "single-tlf", "dissipative", "ensemble", "continuum", "micro")


def _f(lo=None, hi=None, lo_open=False):
    def parse(s: str) -> float:
        try:
            x = float(s)
        except ValueError:
            raise ValueError("must be a number") from None
        if reason := _out_of_domain(x, lo, hi, lo_open):
            raise ValueError(reason)
        return x
    return parse


def _i(lo=None, hi=None):
    def parse(s: str) -> int:
        try:
            x = int(s)
        except ValueError:
            raise ValueError("must be an integer") from None
        if reason := _out_of_domain(x, lo, hi):
            raise ValueError(reason)
        return x
    return parse


def _choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {options}")
        return s
    return parse


# Per-kind parameter schema: key -> (parser, default, help).
SCHEMAS = {
    "jc-only": {
        "omega0": (_f(lo=0, lo_open=True), 1.0, "oscillator frequency"),
        "g": (_f(lo=0), 0.1, "oscillator-TLS coupling"),
        "delta": (_f(), 0.0, "TLS-oscillator detuning"),
    },
    "single-tlf": {
        "omega0": (_f(lo=0, lo_open=True), 1.0, "oscillator frequency"),
        "g": (_f(lo=0), 0.1, "oscillator-TLS coupling"),
        "delta": (_f(), 0.0, "TLS-oscillator detuning"),
        "lambda": (_f(), 0.01, "TLS-TLF coupling"),
        "eps": (_f(lo=0), 0.1, "TLF splitting"),
        "kT": (_f(lo=0, lo_open=True), None, "thermal energy; omit for the scale-separated limit"),
    },
    "dissipative": {
        "g": (_f(lo=0), 0.1, "oscillator-TLS coupling"),
        "lambda": (_f(), 0.01, "TLS-TLF coupling"),
        "gamma": (_f(lo=0), 0.005, "TLF switching rate"),
    },
    "ensemble": {
        "omega0": (_f(lo=0, lo_open=True), 1.0, "oscillator frequency"),
        "g": (_f(lo=0), 0.1, "oscillator-TLS coupling"),
        "delta": (_f(), 0.0, "TLS-oscillator detuning"),
        "n": (_i(lo=1, hi=2**20), 5, "number of fluctuators"),
        "sampler": (_choice("uniform", "spatial"), "uniform", "coupling sampler"),
        # bounded so that sigma^2 stays finite for every n <= 2^20
        "halfWidth": (_f(lo=0, hi=1e150, lo_open=True), 0.005, "uniform sampler half-width"),
        "dim": (_i(lo=2, hi=3), 2, "spatial sampler host dimension"),
        "boxLo": (_f(lo=0, lo_open=True), 1.0, "spatial sampler box lower edge"),
        "boxHi": (_f(lo=0, lo_open=True), 10.0, "spatial sampler box upper edge"),
        "w": (_f(lo=0, lo_open=True), 1.0, "spatial sampler coupling scale"),
        "kT": (_f(lo=0, lo_open=True), None, "thermal energy; omit for the scale-separated limit"),
    },
    "continuum": {
        "omega0": (_f(lo=0, lo_open=True), 1.0, "oscillator frequency"),
        "g": (_f(lo=0), 0.01, "oscillator-TLS coupling"),
        "delta": (_f(), 0.0, "TLS-oscillator detuning"),
        # bounded so that mu^2, sigma^2 and sigma^4 stay normal floats
        "mu": (_f(lo=-1e150, hi=1e150), 0.0, "inner-product mean"),
        "sigma": (_f(lo=1e-75, hi=1e75), 0.03, "inner-product standard deviation"),
    },
    "micro": {
        "d": (_i(lo=2, hi=3), 3, "host dimension"),
        "chi": (_f(lo=0, lo_open=True), 1.0, "phonon-rate prefactor"),
        "j0": (_f(lo=0, lo_open=True), 1.0, "dipolar coupling constant"),
        "r0": (_f(lo=0, lo_open=True), 1.0, "short-distance cutoff"),
        "cosTheta": (_f(lo=0, hi=1), 0.7, "central-TLS mixing cosine"),
        "density": (_f(lo=0, lo_open=True), 1.0, "fluctuator density P0"),
        "uMin": (_f(lo=0, lo_open=True), 1e-4, "barrier-parameter cutoff"),
        "epsMax": (_f(lo=0, lo_open=True), 10.0, "splitting cutoff"),
        "rMax": (_f(lo=0, lo_open=True), 1000.0, "radial cutoff (units of r0)"),
        "nSamples": (_i(lo=10_000), 200_000, "Monte-Carlo samples per temperature"),
        "ktMin": (_f(lo=0, lo_open=True), 0.05, "thermal scan lower edge"),
        "ktMax": (_f(lo=0, lo_open=True), 1.0, "thermal scan upper edge"),
    },
}

DEFAULT_T_MAX = {
    "jc-only": 200.0,
    "single-tlf": 400.0,
    "dissipative": 2000.0,
    "ensemble": 500.0,
    "continuum": 600.0,
}


@dataclass
class Scenario:
    """A validated run description: kind, parameters, grid, seed, methods."""

    kind: str
    params: dict
    t_max: float | None  # None for micro, which scans kT, not time
    n_points: int
    seed: int
    methods: list[str]
    notes: dict = field(default_factory=dict)

    @property
    def first_name(self) -> str:
        """The CSV's first header: ``kT`` for micro's scan, else ``t``."""
        return "kT" if self.kind == "micro" else "t"

    @property
    def t_grid(self) -> np.ndarray:
        """The CSV's first column: the time grid, or micro's kT scan."""
        if self.kind == "micro":
            return np.linspace(self.params["ktMin"], self.params["ktMax"], self.n_points)
        return np.linspace(0.0, self.t_max, self.n_points)


def _read_config(path: str) -> dict:
    """Flat ``key = value`` lines; '#' comments; later keys override earlier."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    return raw


def _take(raw: dict, errors: list[str], key: str, parse, default):
    """Pop ``key`` from ``raw`` and parse it, or give ``default`` when absent;
    a value that ``parse`` refuses appends one error naming the key."""
    if key not in raw:
        return default
    text = raw.pop(key)
    try:
        return parse(text)
    except ValueError as exc:
        errors.append(f"{key}: {exc} (got {text!r})")
        return None


def _run_keys(raw: dict, errors: list[str], t_max: float | None) -> tuple:
    """The grid end (default ``t_max``), point count and seed of any run."""
    return (_take(raw, errors, "tGrid.tMax", _f(lo=0, lo_open=True), t_max),
            _take(raw, errors, "tGrid.nPoints", _i(lo=2, hi=10**6), 1000),
            _take(raw, errors, "seed", _i(lo=0), 0))


def validate_config(raw: dict, kind: str | None = None) -> tuple[Scenario | None, list[str]]:
    """Validate a flat key-value mapping into a Scenario, collecting all errors.

    Absent keys take their defaults: the schema's, the kind's grid end in
    DEFAULT_T_MAX, 1000 points and seed 0."""
    errors: list[str] = []
    raw = dict(raw)

    cfg_kind = raw.pop("kind", None)
    if kind is None:
        kind = cfg_kind
    elif cfg_kind is not None and cfg_kind != kind:
        errors.append(f"kind: config says {cfg_kind!r} but the subcommand is {kind!r}")
    if kind is None:
        return None, ["kind: missing (set 'kind = <scenario>' or use a subcommand)"]
    if kind not in KINDS:
        return None, [f"kind: unknown scenario {kind!r}; expected one of {KINDS}"]

    params = {key: _take(raw, errors, key, parse, default)
              for key, (parse, default, _help) in SCHEMAS[kind].items()}
    if kind == "micro" and raw.pop("tGrid.tMax", None) is not None:
        errors.append("tGrid.tMax: micro scans kT from ktMin to ktMax and takes no time grid")
    t_max, n_points, seed = _run_keys(raw, errors, DEFAULT_T_MAX.get(kind))
    methods_text = raw.pop("methods", None)
    if methods_text is None:
        methods = [next(iter(METHODS[kind]))]
    else:
        methods = [m.strip() for m in methods_text.split(",") if m.strip()]
        if not methods:
            errors.append("methods: empty list")
    for tag in methods:
        if tag not in METHODS[kind]:
            errors.append(f"methods: {tag!r} is not defined for kind {kind!r}; "
                          f"known tags: {', '.join(METHODS[kind])}")

    if kind == "ensemble" and params.get("boxLo") and params.get("boxHi"):
        if params["boxLo"] >= params["boxHi"]:
            errors.append("boxLo: must be < boxHi")
    if kind == "micro" and params.get("ktMin") and params.get("ktMax"):
        if params["ktMin"] >= params["ktMax"]:
            errors.append("ktMin: must be < ktMax")

    for key in sorted(raw):
        errors.append(f"{key}: unknown key")
    if errors:
        return None, errors
    return Scenario(kind=kind, params=params, t_max=t_max, n_points=n_points,
                    seed=seed, methods=methods), []


# ---------------------------------------------------------------------------
# Scenario evaluation: one setup per kind, one registry of method columns.


def _setup(kind: str, p: dict, rng: np.random.Generator, t: np.ndarray) -> tuple[dict, dict]:
    """A scenario's parameters plus the objects its methods share, and the
    values it resolves for the manifest.  Sampling draws from ``rng``; micro
    runs its Monte-Carlo estimate at each kT of ``t``."""
    s, resolved = dict(p), {}
    if "omega0" in p:
        s["jc"] = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
    if "kT" in p:
        s["ctx"] = (ThermalContext.scale_separated() if p["kT"] is None
                    else ThermalContext.finite_temperature(p["kT"]))
    if kind == "single-tlf":
        s["tlf"] = TlfSpec(epsilon=p["eps"], lam=p["lambda"])
    elif kind == "dissipative":
        s["rates"] = (p["g"], p["lambda"], p["gamma"])
        resolved["regime"] = classify_regime(*s["rates"]).value
    elif kind == "ensemble":
        if p["sampler"] == "uniform":
            tlfs = sample_uniform_couplings(p["n"], p["halfWidth"], rng)
        else:
            tlfs = sample_spatial_couplings(p["n"], p["dim"], (p["boxLo"], p["boxHi"]),
                                            p["w"], p["g"], rng)
        s["ens"] = TlfEnsemble(tlfs, s["ctx"])
        stats = s["stats"] = ensemble_stats(s["ens"])
        # float(): a numpy scalar formats slower than the float it holds (2^20 of them)
        resolved.update({"mu": stats.mu, "sigma": stats.sigma, "R": stats.r,
                         "couplings": ",".join(f"{float(tlf.lam):.17g}" for tlf in tlfs)})
    elif kind == "continuum":
        s["stats"] = EnsembleStats(mu=p["mu"], sigma2=p["sigma"] ** 2)
    elif kind == "micro":
        _check_budget(p["nSamples"], t.size,
                      f"micro scan of {p['nSamples']} Monte-Carlo draws per temperature")
        mat = MaterialParams(chi=p["chi"], d=p["d"], j0=p["j0"], r0=p["r0"],
                             cos_theta=p["cosTheta"])
        seeds = rng.integers(0, 2**63 - 1, size=t.size)
        s["estimates"] = [
            average_variance_mc(mat, p["density"], p["uMin"], p["epsMax"], p["rMax"],
                                kt, p["nSamples"], np.random.default_rng(seed))
            for kt, seed in zip(t, seeds)
        ]
        resolved["truncationRemainder"] = s["estimates"][0].truncation_remainder
        resolved["scanVariable"] = "kT"
    return s, resolved


def _continuum(s, t):
    return coherence_continuum(s["jc"], s["stats"], t)


def _narrow(s, t):
    return coherence_narrow(s["jc"], s["stats"], t)


def _broad(s, t):
    return coherence_broad_integral(s["g"], s["stats"], t)


# kind -> method tag -> f(setup, t); a kind's first tag is its
# default.  Kernels are looked up when called, so one replaced on this module
# (a tracer, a test) is the one that runs.
METHODS = {
    "jc-only": {
        "gr": lambda s, t: coherence_gr(s["jc"], t),
        "gr_short": lambda s, t: coherence_gr_short_time(s["g"], t),
    },
    "single-tlf": {
        "exact": lambda s, t: coherence_exact_single(s["jc"], s["tlf"], s["ctx"], t),
        "weak_envelope": lambda s, t: coherence_weak_envelope(s["jc"], s["tlf"], s["ctx"], t),
        "strong_leading": lambda s, t: coherence_strong_leading(s["jc"], s["tlf"], s["ctx"], t),
        "strong_higher": lambda s, t: coherence_strong_higher(s["jc"], s["tlf"], s["ctx"], t),
    },
    "dissipative": {
        "ode": lambda s, t: integrate_reduced(*s["rates"], t).values,
        "weak_damped": lambda s, t: coherence_weak_damped(*s["rates"], t),
        "strong_damped": lambda s, t: coherence_strong_damped(*s["rates"], t),
    },
    "ensemble": {
        "exact": lambda s, t: coherence_exact_ensemble(s["jc"], s["ens"], t),
        "narrow": _narrow,
        "continuum": _continuum,
        "envelope": lambda s, t: np.exp(-s["stats"].sigma2 * t**2 / 2.0),
        "broad": _broad,
    },
    "continuum": {
        "continuum": _continuum,
        "narrow": _narrow,
        "broad": _broad,
        "erfc": lambda s, t: coherence_broad_erfc(s["g"], s["stats"], t),
        "linear": lambda s, t: coherence_broad_linear(s["g"], s["stats"], t),
    },
    "micro": {
        "variance": lambda s, t: np.array([e.value for e in s["estimates"]]),
        "stderr": lambda s, t: np.array([e.stderr for e in s["estimates"]]),
    },
}


# ---------------------------------------------------------------------------
# Figure presets.  Scenario parameters are encoded verbatim; values a preset
# has to choose itself (sweep ratios, splitting lists, sigma targets) are our
# defaults and are flagged in the manifest under ``resolved.defaultNote``.


@dataclass(frozen=True)
class Figure:
    """A preset: its grid end, its fixed ``resolved.*`` values, the scenarios
    it draws in rng order as (kind, params, {resolved key: manifest name}), and
    its CSV columns as (name, scenario index, method tag)."""

    t_max: float
    resolved: dict
    scenarios: list
    columns: list


_SPATIAL = {"sampler": "spatial", "dim": 2, "boxLo": 1.0, "boxHi": 10.0}
_FROZEN = (("exact", "exact"), ("narrow", "narrow"), ("env", "envelope"))

FIGURES = {
    1: Figure(
        400.0,
        {"epsilonT": 1.01, "eps": 0.1, "g": 0.1, "lambda": 0.01, "thermal": "scale-separated"},
        [("single-tlf", {"delta": 0.01, "g": 0.1, "lambda": 0.01, "eps": 0.1}, {})],
        [("exact", 0, "exact"), ("weak_envelope", 0, "weak_envelope")]),
    2: Figure(
        1500.0,
        {"lambda": 0.1, "delta": 0.0, "gOverLambda": "0.3,0.2,0.1", "eps": 0.1,
         "thermal": "scale-separated",
         "defaultNote": "eps = 0.1 is our default; the scenario fixes only the "
                        "scale-separated limit"},
        [("single-tlf", {"g": r * 0.1, "lambda": 0.1, "eps": 0.1}, {}) for r in (0.3, 0.2, 0.1)],
        [(f"{name}_{r:g}", i, method) for i, r in enumerate((0.3, 0.2, 0.1))
         for name, method in (("exact", "exact"), ("leading", "strong_leading"),
                              ("higher", "strong_higher"))]),
    3: Figure(
        5000.0,
        {"ga": (0.1, 0.01), "gb": (0.01, 0.1), "gammaOverLambda": "0.2,1,5",
         "defaultNote": "gamma/lambda sweep values are our default; the scenario "
                        "fixes only the two coupling sets"},
        [("dissipative", {"g": g, "lambda": lam, "gamma": r * lam}, {})
         for r in (0.2, 1.0, 5.0) for g, lam in ((0.1, 0.01), (0.01, 0.1))],
        [(f"{name}_{r:g}", 2 * i + b, method) for i, r in enumerate((0.2, 1.0, 5.0))
         for name, b, method in (("ode_a", 0, "ode"), ("weak_a", 0, "weak_damped"),
                                 ("ode_b", 1, "ode"), ("strong_b", 1, "strong_damped"))]),
    4: Figure(
        500.0,
        {"g": 0.1, "halfWidth": 0.05 * 0.1, "thermal": "scale-separated",
         "defaultNote": "TLF splittings drawn from our default range; "
                        "the scenario gives no splitting list"},
        [("ensemble", {"g": 0.1, "n": n, "halfWidth": 0.05 * 0.1}, {"sigma": f"sigma_n{n}"})
         for n in (5, 10, 15)],
        [(f"{name}_n{n}", i, tag) for i, n in enumerate((5, 10, 15)) for name, tag in _FROZEN]),
    5: Figure(
        500.0,
        {"g": 0.1, "n": 15, "box": "[1,10]^2", "thermal": "scale-separated"},
        [("ensemble", {"g": 0.1, "n": 15, "w": 1.0, **_SPATIAL},
          {"sigma": f"sigma_s{k}", "R": f"R_s{k}"}) for k in (1, 2, 3)],
        [(f"{name}_s{k}", k - 1, tag) for k in (1, 2, 3) for name, tag in _FROZEN]),
    6: Figure(
        1000.0,
        {"g": 0.01, "halfWidth": 5 * 0.01, "thermal": "scale-separated"},
        [scenario for n, w in ((5, 200.0), (15, 50.0)) for scenario in [
            ("ensemble", {"g": 0.01, "n": n, "halfWidth": 5 * 0.01},
             {"sigma": f"sigma_n{n}", "R": f"R_n{n}"}),
            *[("ensemble", {"g": 0.01, "n": n, "w": w, **_SPATIAL}, {"R": f"R_n{n}_s{k}"})
              for k in (1, 2, 3)]]],
        [column for i, n in ((0, 5), (4, 15)) for column in [
            (f"uniform_n{n}", i, "exact"),
            *[(f"spatial_n{n}_s{k}", i + k, "exact") for k in (1, 2, 3)],
            (f"broad_n{n}", i, "broad")]]),
    7: Figure(
        600.0,
        {"g": 0.01, "sigma": 3 * 0.01, "muOverSigma": "0,0.5,1",
         "defaultNote": "sigma = 3g and the mu/sigma sweep are our defaults; "
                        "the scenario gives neither"},
        [("continuum", {"g": 0.01, "mu": x * (3 * 0.01), "sigma": 3 * 0.01}, {})
         for x in (0.0, 0.5, 1.0)],
        [("broad_mu0", 0, "broad"), ("broad_mu0.5", 1, "broad"), ("broad_mu1", 2, "broad"),
         ("erfc", 0, "erfc"), ("linear", 0, "linear")]),
}


def _preset_params(kind: str, params: dict) -> dict:
    """A preset scenario's parameters, checked and completed by its schema."""
    sc, errors = validate_config({key: str(value) for key, value in params.items()}, kind)
    if errors:  # pragma: no cover - the presets are fixed data
        raise InvalidInputError(f"figure preset {kind}: {'; '.join(errors)}")
    return sc.params


def _reporting_warnings(label: str, fn, *args):
    """fn(*args); each warning it raises past the caller's filters is one stderr
    line, and an error it raises is re-raised with ``label`` in its message."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return fn(*args)
        except TlfsimError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
        except ArithmeticError as exc:
            raise NumericalError(f"{label}: {exc.args[-1]}") from exc
        finally:
            for w in caught:
                print(f"warning: {label}: {w.message}", file=sys.stderr)


def _scenario_columns(sc: Scenario) -> tuple[np.ndarray, list[tuple[str, np.ndarray]], dict]:
    """First column, method columns and manifest extras of a subcommand run or
    a figure preset; a preset's scenarios share one rng, in order."""
    if sc.kind == "figure":
        fig = FIGURES[sc.params["index"]]
        scenarios = [(kind, _preset_params(kind, p), names) for kind, p, names in fig.scenarios]
        columns, resolved = fig.columns, {**fig.resolved, "figure": sc.params["index"]}
    else:
        scenarios = [(sc.kind, sc.params, None)]
        columns, resolved = [(tag, 0, tag) for tag in sc.methods], {}
    t = sc.t_grid
    rng = np.random.default_rng(sc.seed)
    setups = []
    # Columns run one after another in this thread.  A non-finite value is
    # refused below, so numpy's floating-point warnings would only repeat it.
    with np.errstate(all="ignore"):
        for kind, p, names in scenarios:
            setup, values = _reporting_warnings(f"{kind} setup", _setup, kind, p, rng, t)
            setups.append((METHODS[kind], setup))
            resolved.update(values if names is None
                            else {name: values[key] for key, name in names.items()})
        out = [(name, np.asarray(_reporting_warnings(name, setups[i][0][tag], setups[i][1], t)))
               for name, i, tag in columns]
    for name, values in out:
        bad = ~np.isfinite(values)
        if np.any(bad):
            raise NumericalError(f"column {name} is not finite at {sc.first_name} = "
                                 f"{_fmt(t[np.argmax(bad)])}")
    return t, out, resolved


# ---------------------------------------------------------------------------
# Output


# Rows per formatted block: one %-string call per block is the cost of about
# one %.17g per value, and 512 rows was fastest on 1e5 x 5 columns.
_CSV_BLOCK_ROWS = 512


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, first_name: str, first: np.ndarray,
              columns: list[tuple[str, np.ndarray]]) -> None:
    """Write ``first`` and each column as CSV rows, every value as ``%.17g``.

    Rows are formatted and written in blocks of ``_CSV_BLOCK_ROWS``, so the
    whole text is never held in memory. Columns of unequal length raise
    ``ValueError`` before ``path`` is opened.
    """
    data = [np.asarray(first, dtype=float)] + [np.asarray(v, dtype=float) for _, v in columns]
    if any(v.ndim != 1 or v.size != data[0].size for v in data):
        shapes = ", ".join(str(v.shape) for v in data)
        raise ValueError(f"CSV columns must be 1-D and of equal length, got shapes {shapes}")
    table = np.column_stack(data)
    row_fmt = ",".join(["%.17g"] * len(data)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([first_name] + [tag for tag, _ in columns]) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_manifest(path: str, sc: Scenario, extras: dict) -> None:
    lines = [
        f"tlfsim.version = {__version__}",
        f"numpy.version = {np.__version__}",
        f"scipy.version = {__import__('scipy').__version__}",
        f"kind = {sc.kind}",
        f"seed = {sc.seed}",
        *([] if sc.t_max is None else [f"tGrid.tMax = {_fmt(sc.t_max)}"]),
        f"tGrid.nPoints = {sc.n_points}",
        f"methods = {','.join(sc.methods)}",
        f"tolerance.broad_rel_tol = {_fmt(BROAD_REL_TOL)}",
        f"tolerance.quad_rel_tol = {_fmt(QUAD_REL_TOL)}",
    ]
    for key in sorted(sc.params):
        value = sc.params[key]
        lines.append(f"param.{key} = {value if value is not None else 'none'}")
    for key in sorted(extras):
        lines.append(f"resolved.{key} = {extras[key]}")
    for key in sorted(sc.notes):
        lines.append(f"note.{key} = {sc.notes[key]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_output_dir(out: str) -> None:
    """Raise the error open(out, "w") would raise for an empty path, a missing
    or read-only directory, or an ``out`` that is itself a directory."""
    parent = os.path.dirname(out) or "."
    if not out or not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if not os.access(parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def run_scenario(sc: Scenario, out: str) -> None:
    """Evaluate a scenario and write ``out`` (CSV) plus ``out + '.manifest'``.

    The output directory is checked before any evaluation, so an unwritable
    ``out`` fails at once instead of after the columns are computed.
    """
    _check_output_dir(out)
    first, cols, extras = _scenario_columns(sc)
    write_csv(out, sc.first_name, first, cols)
    write_manifest(out + ".manifest", sc, extras)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub: argparse.ArgumentParser, preset: bool = False) -> None:
    hidden = argparse.SUPPRESS if preset else None  # a preset parses these to refuse them
    sub.add_argument("--config", help=hidden or "flat key = value config file")
    sub.add_argument("--seed", help="RNG seed (default 0)")
    sub.add_argument("--out", default="out.csv", help="output CSV path (default out.csv)")
    sub.add_argument("--t-max", dest="t_max", help="end of the time grid (per-scenario default)")
    sub.add_argument("--n-points", dest="n_points", help="grid points (default 1000)")
    sub.add_argument("--methods", help=hidden or "comma-separated method tags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlfsim",
        description="Coherence traces for an oscillator coupled to a fluctuator-"
                    "dephased TLS; CSV plus manifest output.")
    parser.add_argument("--version", action="version", version=f"tlfsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        sub = subs.add_parser(kind, help=f"run a {kind} scenario")
        _add_common(sub)
        for key, (_parse, default, help_text) in SCHEMAS[kind].items():
            if key == "kT":
                flag = "--kt"
            else:
                flag = "--" + "".join("-" + c.lower() if c.isupper() else c for c in key)
            sub.add_argument(flag, dest=f"param_{key}", metavar="X",
                             help=f"{help_text} (default {default})")

    fig = subs.add_parser("figure", help="run a figure preset (1-7)")
    fig.add_argument("index", type=int, choices=sorted(FIGURES), help="figure number")
    _add_common(fig, preset=True)

    val = subs.add_parser("validate", help="validate a config file and exit")
    val.add_argument("--config", required=True, help="flat key = value config file")
    return parser


def _collect_raw(args: argparse.Namespace) -> dict:
    raw: dict[str, str] = {}
    if args.config:
        raw.update(_read_config(args.config))
    for name, value in vars(args).items():
        if name.startswith("param_") and value is not None:
            raw[name[len("param_"):]] = value
    for name, key in (("t_max", "tGrid.tMax"), ("n_points", "tGrid.nPoints"), ("seed", "seed"),
                      ("methods", "methods")):
        if getattr(args, name) is not None:
            raw[key] = getattr(args, name)
    return raw


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e-3`` into ``--flag=-1e-3``: argparse takes a dash
    token in exponent form, or ``-inf``, for an option name, not a value."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] not in ("--help", "--version") and token.startswith("-")):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        if args.command == "figure":
            if args.config is not None or args.methods is not None:
                raise InvalidInputError("figure takes no --config or --methods (presets fix both)")
            errors: list[str] = []
            t_max, n_points, seed = _run_keys(_collect_raw(args), errors,
                                              FIGURES[args.index].t_max)
            sc = Scenario(kind="figure", params={"index": args.index}, t_max=t_max,
                          n_points=n_points, seed=seed, methods=["preset"],
                          notes={"tMaxOverridden": True} if args.t_max is not None else {})
        elif args.command == "validate":
            sc, errors = validate_config(_read_config(args.config))
        else:
            sc, errors = validate_config(_collect_raw(args), kind=args.command)
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        if errors:
            return EXIT_VALIDATION
        if args.command == "validate":
            print(f"ok: {sc.kind} scenario, {sc.n_points} points to {sc.first_name} = "
                  f"{_fmt(sc.t_grid[-1])}, "
                  f"methods {','.join(sc.methods)}")
        else:
            run_scenario(sc, args.out)
        return EXIT_OK
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TlfsimError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
