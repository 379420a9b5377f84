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
    _CLASSIFY_RATIO,
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
    _spatial_couplings,
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


def _number(cast=float, lo=None, hi=None, lo_open=False):
    """A parser of one number of type ``cast`` in the domain of model._out_of_domain."""
    def parse(s: str):
        try:
            x = cast(s)
        except ValueError:
            raise ValueError(f"must be {'an integer' if cast is int else 'a number'}") from None
        if reason := _out_of_domain(x, lo, hi, lo_open):
            raise ValueError(reason)
        return x
    return parse


def _choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {options}")
        return s
    return parse


_POSITIVE = _number(lo=0, lo_open=True)
_KT = (_POSITIVE, None, "thermal energy; omit for the scale-separated limit")
# The JcParams keys of every kind that has an oscillator.
_JC = {
    "omega0": (_POSITIVE, 1.0, "oscillator frequency"),
    "g": (_number(lo=0), 0.1, "oscillator-TLS coupling"),
    "delta": (_number(), 0.0, "TLS-oscillator detuning"),
}


class Kind:
    """A scenario kind: its schema, key -> (parser, default, help); its default grid end,
    None for a kT scan from ktMin to ktMax; its setup f(s, rng, t), which adds what its
    methods share to ``s`` and returns its ``resolved.*`` values; and its methods,
    tag -> f(s, t), the first the default.  Kernels are looked up when called, so one
    replaced on this module (a tracer, a test) is the one that runs."""

    def __init__(self, schema: dict, t_max: float | None, setup, methods: dict):
        self.schema, self.t_max, self.setup, self.methods = schema, t_max, setup, methods


def _setup(kind: str, p: dict, rng: np.random.Generator, t: np.ndarray) -> tuple[dict, dict]:
    """A scenario's parameters plus the objects its methods share, and the
    values it resolves for the manifest.  Sampling draws from ``rng``; a kT
    scan evaluates at each kT of ``t``."""
    s = dict(p)
    if "omega0" in p:
        s["jc"] = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
    if "kT" in p:
        s["ctx"] = (ThermalContext.scale_separated() if p["kT"] is None
                    else ThermalContext.finite_temperature(p["kT"]))
    return s, KINDS[kind].setup(s, rng, t)


def _single_tlf_setup(s, rng, t):
    s["tlf"] = TlfSpec(epsilon=s["eps"], lam=s["lambda"])
    return {}


def _dissipative_setup(s, rng, t):
    s["rates"] = (s["g"], s["lambda"], s["gamma"])
    return {"regime": classify_regime(*s["rates"]).value}


def _ensemble_setup(s, rng, t):
    if s["sampler"] == "uniform":
        tlfs = sample_uniform_couplings(s["n"], s["halfWidth"], rng)
    else:
        tlfs = sample_spatial_couplings(s["n"], s["dim"], (s["boxLo"], s["boxHi"]),
                                        s["w"], s["g"], rng)
    s["ens"] = TlfEnsemble(tlfs, s["ctx"])
    stats = s["stats"] = ensemble_stats(s["ens"])
    # float(): a numpy scalar formats slower than the float it holds (2^20 of them)
    return {"mu": stats.mu, "sigma": stats.sigma, "R": stats.r,
            "couplings": ",".join(f"{float(tlf.lam):.17g}" for tlf in tlfs)}


def _continuum_setup(s, rng, t):
    s["stats"] = EnsembleStats(mu=s["mu"], sigma2=s["sigma"] ** 2)
    return {}


def _micro_setup(s, rng, t):
    _check_budget(s["nSamples"], t.size,
                  f"micro scan of {s['nSamples']} Monte-Carlo draws per temperature")
    mat = MaterialParams(chi=s["chi"], d=s["d"], j0=s["j0"], r0=s["r0"], cos_theta=s["cosTheta"])
    seeds = rng.integers(0, 2**63 - 1, size=t.size)
    s["estimates"] = [
        average_variance_mc(mat, s["density"], s["uMin"], s["epsMax"], s["rMax"],
                            kt, s["nSamples"], np.random.default_rng(seed))
        for kt, seed in zip(t, seeds)
    ]
    return {"truncationRemainder": s["estimates"][0].truncation_remainder, "scanVariable": "kT"}


def _continuum(s, t):
    return coherence_continuum(s["jc"], s["stats"], t)


def _narrow(s, t):
    return coherence_narrow(s["jc"], s["stats"], t)


def _broad(s, t):
    return coherence_broad_integral(s["g"], s["stats"], t)


KINDS = {
    "jc-only": Kind(_JC, 200.0, lambda s, rng, t: {}, {
        "gr": lambda s, t: coherence_gr(s["jc"], t),
        "gr_short": lambda s, t: coherence_gr_short_time(s["g"], t),
    }),
    "single-tlf": Kind({
        **_JC,
        "lambda": (_number(), 0.01, "TLS-TLF coupling"),
        "eps": (_number(lo=0), 0.1, "TLF splitting"),
        "kT": _KT,
    }, 400.0, _single_tlf_setup, {
        "exact": lambda s, t: coherence_exact_single(s["jc"], s["tlf"], s["ctx"], t),
        "weak_envelope": lambda s, t: coherence_weak_envelope(s["jc"], s["tlf"], s["ctx"], t),
        "strong_leading": lambda s, t: coherence_strong_leading(s["jc"], s["tlf"], s["ctx"], t),
        "strong_higher": lambda s, t: coherence_strong_higher(s["jc"], s["tlf"], s["ctx"], t),
    }),
    "dissipative": Kind({
        "g": _JC["g"],
        "lambda": (_number(), 0.01, "TLS-TLF coupling"),
        "gamma": (_number(lo=0), 0.005, "TLF switching rate"),
    }, 2000.0, _dissipative_setup, {
        "ode": lambda s, t: integrate_reduced(*s["rates"], t).values,
        "weak_damped": lambda s, t: coherence_weak_damped(*s["rates"], t),
        "strong_damped": lambda s, t: coherence_strong_damped(*s["rates"], t),
    }),
    "ensemble": Kind({
        **_JC,
        "n": (_number(int, lo=1, hi=2**20), 5, "number of fluctuators"),
        "sampler": (_choice("uniform", "spatial"), "uniform", "coupling sampler"),
        # bounded so that sigma^2 stays finite for every n <= 2^20
        "halfWidth": (_number(lo=0, hi=1e150, lo_open=True), 0.005, "uniform sampler half-width"),
        "dim": (_number(int, lo=2, hi=3), 2, "spatial sampler host dimension"),
        # bounded so that r^2 and r^dim stay normal floats
        "boxLo": (_number(lo=1e-75, hi=1e75), 1.0, "spatial sampler box lower edge"),
        "boxHi": (_number(lo=1e-75, hi=1e75), 10.0, "spatial sampler box upper edge"),
        "w": (_POSITIVE, 1.0, "spatial sampler coupling scale"),
        "kT": _KT,
    }, 500.0, _ensemble_setup, {
        "exact": lambda s, t: coherence_exact_ensemble(s["jc"], s["ens"], t),
        "narrow": _narrow,
        "continuum": _continuum,
        "envelope": lambda s, t: np.exp(-s["stats"].sigma2 * t**2 / 2.0),
        "broad": _broad,
    }),
    "continuum": Kind({
        **_JC,
        "g": (_number(lo=0), 0.01, "oscillator-TLS coupling"),
        # bounded so that mu^2, sigma^2 and sigma^4 stay normal floats
        "mu": (_number(lo=-1e150, hi=1e150), 0.0, "inner-product mean"),
        "sigma": (_number(lo=1e-75, hi=1e75), 0.03, "inner-product standard deviation"),
    }, 600.0, _continuum_setup, {
        "continuum": _continuum,
        "narrow": _narrow,
        "broad": _broad,
        "erfc": lambda s, t: coherence_broad_erfc(s["g"], s["stats"], t),
        "linear": lambda s, t: coherence_broad_linear(s["g"], s["stats"], t),
    }),
    "micro": Kind({
        "d": (_number(int, lo=2, hi=3), 3, "host dimension"),
        "chi": (_POSITIVE, 1.0, "phonon-rate prefactor"),
        "j0": (_POSITIVE, 1.0, "dipolar coupling constant"),
        "r0": (_POSITIVE, 1.0, "short-distance cutoff"),
        "cosTheta": (_number(lo=0, hi=1), 0.7, "central-TLS mixing cosine"),
        "density": (_POSITIVE, 1.0, "fluctuator density P0"),
        "uMin": (_POSITIVE, 1e-4, "barrier-parameter cutoff"),
        "epsMax": (_POSITIVE, 10.0, "splitting cutoff"),
        "rMax": (_POSITIVE, 1000.0, "radial cutoff (same units as r0; must exceed r0)"),
        "nSamples": (_number(int, lo=10_000), 200_000, "Monte-Carlo samples per temperature"),
        "ktMin": (_POSITIVE, 0.05, "thermal scan lower edge"),
        "ktMax": (_POSITIVE, 1.0, "thermal scan upper edge"),
    }, None, _micro_setup, {
        "variance": lambda s, t: np.array([e.value for e in s["estimates"]]),
        "stderr": lambda s, t: np.array([e.stderr for e in s["estimates"]]),
    }),
}

# Rules over several keys, as (key, expression, value, domain), for each kind whose schema
# has the key (every kind has methods, the requested tags it defines): value(params and
# methods), unless None, must lie in the domain of model._out_of_domain.
_ABOVE_ZERO = {"lo": 0, "lo_open": True}
RULES = [
    ("delta", "omega0 + delta", lambda p: p["omega0"] + p["delta"], _ABOVE_ZERO),  # epsilon_t
    ("boxHi", "boxHi - boxLo", lambda p: p["boxHi"] - p["boxLo"], _ABOVE_ZERO),
    # the largest coupling, at the box corner nearest the origin; bounded like halfWidth
    ("w", "g*w/(dim*boxLo^2)^(dim/2)",
     lambda p: (_spatial_couplings(p["g"], p["w"], np.full((1, p["dim"]), p["boxLo"]))[0]
                if p["sampler"] == "spatial" else None), {"hi": 1e150}),
    ("rMax", "rMax - r0", lambda p: p["rMax"] - p["r0"], _ABOVE_ZERO),
    ("uMin", "1 - uMin", lambda p: 1.0 - p["uMin"], _ABOVE_ZERO),
    ("ktMax", "ktMax - ktMin", lambda p: p["ktMax"] - p["ktMin"], _ABOVE_ZERO),
    # strong_damped needs the strong coupling classify_regime finds where g < 5|lambda|;
    # the margin is only taken where it fails, since 5|lambda| may overflow where it holds
    ("methods", f"{_CLASSIFY_RATIO:g}*|lambda| - g (strong_damped)",
     lambda p: (m if "strong_damped" in p["methods"]
                and (m := _CLASSIFY_RATIO * abs(p["lambda"]) - p["g"]) <= 0 else None),
     _ABOVE_ZERO),
]


@dataclass
class Scenario:
    """A validated run description: kind, parameters, grid, seed, methods."""

    kind: str
    params: dict
    t_max: float | None  # None for a kind that scans kT, not time
    n_points: int
    seed: int
    methods: list[str]
    notes: dict = field(default_factory=dict)

    @property
    def first_name(self) -> str:
        """The CSV's first header: ``kT`` for a kT scan, else ``t``."""
        return "kT" if self.t_max is None else "t"

    @property
    def t_grid(self) -> np.ndarray:
        """The CSV's first column: the time grid, or the kT scan."""
        if self.t_max is None:
            return np.linspace(self.params["ktMin"], self.params["ktMax"], self.n_points)
        return np.linspace(0.0, self.t_max, self.n_points)


def _read_config(path: str) -> dict:
    """Flat ``key = value`` lines of UTF-8 text; '#' comments; later keys override earlier."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                raw[key] = value
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: "
                                f"{exc.reason})") from None
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
    return (_take(raw, errors, "tGrid.tMax", _POSITIVE, t_max),
            _take(raw, errors, "tGrid.nPoints", _number(int, lo=2, hi=10**6), 1000),
            _take(raw, errors, "seed", _number(int, lo=0), 0))


def validate_config(raw: dict, kind: str | None = None) -> tuple[Scenario | None, list[str]]:
    """Validate a flat key-value mapping into a Scenario, collecting all errors.

    Absent keys take their defaults: the kind's schema and grid end, 1000 points and seed 0.
    RULES are checked once every key has parsed, so every setup accepts the result."""
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
        return None, [f"kind: unknown scenario {kind!r}; expected one of {tuple(KINDS)}"]
    spec = KINDS[kind]

    methods_text = raw.pop("methods", None)
    methods = ([next(iter(spec.methods))] if methods_text is None
               else [m.strip() for m in methods_text.split(",") if m.strip()])
    params = {key: _take(raw, errors, key, parse, default)
              for key, (parse, default, _help) in spec.schema.items()}
    if not errors:  # every key has parsed
        seen = {**params, "methods": [tag for tag in methods if tag in spec.methods]}
        with np.errstate(all="ignore"):  # a value that overflows is refused as not finite
            for key, expression, value, domain in RULES:
                x = value(seen) if key in seen else None
                if x is not None and (reason := _out_of_domain(x, **domain)):
                    errors.append(f"{key}: {expression} {reason}")
    if spec.t_max is None and raw.pop("tGrid.tMax", None) is not None:
        errors.append(f"tGrid.tMax: {kind} scans kT from ktMin to ktMax and takes no time grid")
    t_max, n_points, seed = _run_keys(raw, errors, spec.t_max)
    if not methods:
        errors.append("methods: empty list")
    for tag in methods:
        if tag not in spec.methods:
            errors.append(f"methods: {tag!r} is not defined for kind {kind!r}; "
                          f"known tags: {', '.join(spec.methods)}")
    if repeated := [tag for tag in dict.fromkeys(methods) if methods.count(tag) > 1]:
        errors.append(f"methods: {', '.join(map(repr, repeated))} listed more than once")

    for key in sorted(raw):
        errors.append(f"{key}: unknown key")
    if errors:
        return None, errors
    return Scenario(kind=kind, params=params, t_max=t_max, n_points=n_points,
                    seed=seed, methods=methods), []


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
            setups.append((KINDS[kind].methods, setup))
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

    for kind, spec in KINDS.items():
        sub = subs.add_parser(kind, help=f"run a {kind} scenario")
        _add_common(sub)
        for key, (_parse, default, help_text) in spec.schema.items():
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
