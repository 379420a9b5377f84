"""Command-line front end: scenario configs in, CSV coherence traces out.

Scenarios are described by a flat key-path config (file and/or flags), run
deterministically under a seed, and written as a CSV plus a plain-text
manifest recording every resolved parameter.  Presets ``figure 1`` .. 7
reproduce the library's reference scenarios at desk scale.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
    TlfEnsemble,
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
from .errors import InvalidInputError, TlfsimError
from .microscopic import MaterialParams, average_variance_mc
from .model import JcParams, ThermalContext, coherence_gr, coherence_gr_short_time
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

# Quadrature tolerances per profile; recorded in the manifest.
TOLERANCE_PROFILES = {
    "default": {"quad_rel_tol": 1e-8, "broad_rel_tol": 1e-6},
    "strict": {"quad_rel_tol": 1e-10, "broad_rel_tol": 1e-8},
}

KINDS = ("jc-only", "single-tlf", "dissipative", "ensemble", "continuum", "micro")

# Per-kind parameter schema: key -> (parser, default or REQUIRED, help).
_REQ = object()


def _f(lo=None, hi=None, lo_open=False):
    def parse(s: str) -> float:
        x = float(s)
        if not math.isfinite(x):
            raise ValueError("must be finite")
        if lo is not None and (x <= lo if lo_open else x < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and x > hi:
            raise ValueError(f"must be <= {hi}")
        return x
    return parse


def _i(lo=None):
    def parse(s: str) -> int:
        x = int(s)
        if lo is not None and x < lo:
            raise ValueError(f"must be >= {lo}")
        return x
    return parse


def _choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {options}")
        return s
    return parse


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
        "n": (_i(lo=1), 5, "number of fluctuators"),
        "sampler": (_choice("uniform", "spatial"), "uniform", "coupling sampler"),
        "halfWidth": (_f(lo=0, lo_open=True), 0.005, "uniform sampler half-width"),
        "dim": (_i(lo=2), 2, "spatial sampler host dimension"),
        "boxLo": (_f(lo=0, lo_open=True), 1.0, "spatial sampler box lower edge"),
        "boxHi": (_f(lo=0, lo_open=True), 10.0, "spatial sampler box upper edge"),
        "w": (_f(lo=0, lo_open=True), 1.0, "spatial sampler coupling scale"),
        "kT": (_f(lo=0, lo_open=True), None, "thermal energy; omit for the scale-separated limit"),
        "cap": (_i(lo=1), 20, "exact-sum size cap (cost 2^N)"),
    },
    "continuum": {
        "omega0": (_f(lo=0, lo_open=True), 1.0, "oscillator frequency"),
        "g": (_f(lo=0), 0.01, "oscillator-TLS coupling"),
        "delta": (_f(), 0.0, "TLS-oscillator detuning"),
        "mu": (_f(), 0.0, "inner-product mean"),
        "sigma": (_f(lo=0, lo_open=True), 0.03, "inner-product standard deviation"),
    },
    "micro": {
        "d": (_i(lo=2), 3, "host dimension"),
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
    "micro": 1.0,  # unused; micro scans kT, not time
}

DEFAULT_METHODS = {
    "jc-only": ["gr"],
    "single-tlf": ["exact"],
    "dissipative": ["ode"],
    "ensemble": ["exact"],
    "continuum": ["continuum"],
    "micro": ["variance"],
}

METHOD_TAGS = {
    "jc-only": ("gr", "gr_short"),
    "single-tlf": ("exact", "weak_envelope", "strong_leading", "strong_higher"),
    "dissipative": ("ode", "weak_damped", "strong_damped"),
    "ensemble": ("exact", "narrow", "continuum", "envelope"),
    "continuum": ("continuum", "narrow", "broad", "erfc", "linear"),
    "micro": ("variance", "stderr"),
}


@dataclass
class Scenario:
    """A validated run description: kind, parameters, grid, seed, methods."""

    kind: str
    params: dict
    t_max: float
    n_points: int
    seed: int
    methods: list[str]
    tolerance_profile: str = "default"
    notes: dict = field(default_factory=dict)

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_points)

    @property
    def tolerances(self) -> dict:
        return TOLERANCE_PROFILES[self.tolerance_profile]


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


def validate_config(raw: dict, kind: str | None = None) -> tuple[Scenario | None, list[str]]:
    """Validate a flat key-value mapping into a Scenario, collecting all errors."""
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

    def take(key: str, parse, default):
        if key in raw:
            text = raw.pop(key)
            try:
                return parse(text)
            except ValueError as exc:
                errors.append(f"{key}: {exc} (got {text!r})")
                return None
        if default is _REQ:
            errors.append(f"{key}: missing")
            return None
        return default

    params = {}
    for key, (parse, default, _help) in SCHEMAS[kind].items():
        params[key] = take(key, parse, default)

    t_max = take("tGrid.tMax", _f(lo=0, lo_open=True), _REQ)
    n_points = take("tGrid.nPoints", _i(lo=2), _REQ)
    seed = take("seed", _i(lo=0), 0)
    profile = take("toleranceProfile", _choice(*TOLERANCE_PROFILES), "default")
    methods_text = raw.pop("methods", None)
    if methods_text is None:
        methods = list(DEFAULT_METHODS[kind])
    else:
        methods = [m.strip() for m in methods_text.split(",") if m.strip()]
        if not methods:
            errors.append("methods: empty list")
    for tag in methods:
        if tag not in METHOD_TAGS[kind]:
            errors.append(f"methods: {tag!r} is not defined for kind {kind!r}; "
                          f"known tags: {', '.join(METHOD_TAGS[kind])}")

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
                    seed=seed, methods=methods,
                    tolerance_profile=profile), []


def _thermal_context(kt: float | None) -> ThermalContext:
    if kt is None:
        return ThermalContext.scale_separated()
    return ThermalContext.finite_temperature(kt)


def _max_workers() -> int:
    env = os.environ.get("TLFSIM_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise InvalidInputError(f"TLFSIM_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise InvalidInputError(f"TLFSIM_THREADS must be >= 1, got {cap}")
        return cap
    return os.cpu_count() or 1


def _evaluate(columns: list[tuple[str, object]]) -> list[tuple[str, np.ndarray]]:
    """Run (tag, thunk) pairs, fanning out across threads; ordered assembly."""
    workers = min(_max_workers(), max(len(columns), 1))
    if workers == 1 or len(columns) == 1:
        return [(tag, np.asarray(thunk())) for tag, thunk in columns]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(tag, pool.submit(thunk)) for tag, thunk in columns]
        return [(tag, np.asarray(fut.result())) for tag, fut in futures]


def _ensemble_from_scenario(sc: Scenario, rng: np.random.Generator) -> TlfEnsemble:
    p = sc.params
    ctx = _thermal_context(p["kT"])
    if p["sampler"] == "uniform":
        tlfs = sample_uniform_couplings(p["n"], p["halfWidth"], rng)
    else:
        tlfs = sample_spatial_couplings(p["n"], p["dim"], (p["boxLo"], p["boxHi"]),
                                        p["w"], p["g"], rng)
    return TlfEnsemble(tlfs, ctx, cap=p["cap"])


def _scenario_columns(sc: Scenario) -> tuple[np.ndarray, list[tuple[str, np.ndarray]], dict]:
    """First column, method columns and manifest extras for a scenario."""
    p = sc.params
    t = sc.t_grid
    tol = sc.tolerances
    extras: dict[str, object] = {}
    thunks: list[tuple[str, object]] = []

    if sc.kind == "micro":
        mat = MaterialParams(chi=p["chi"], d=p["d"], j0=p["j0"], r0=p["r0"],
                             cos_theta=p["cosTheta"])
        kts = np.linspace(p["ktMin"], p["ktMax"], sc.n_points)
        rng = np.random.default_rng(sc.seed)
        seeds = rng.integers(0, 2**63 - 1, size=kts.size)
        estimates = [
            average_variance_mc(mat, p["density"], p["uMin"], p["epsMax"], p["rMax"],
                                kt, p["nSamples"], np.random.default_rng(s))
            for kt, s in zip(kts, seeds)
        ]
        cols = []
        if "variance" in sc.methods:
            cols.append(("variance", np.array([e.value for e in estimates])))
        if "stderr" in sc.methods:
            cols.append(("stderr", np.array([e.stderr for e in estimates])))
        extras["truncationRemainder"] = estimates[0].truncation_remainder
        extras["scanVariable"] = "kT"
        return kts, cols, extras

    if sc.kind == "jc-only":
        params = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
        fns = {"gr": lambda: coherence_gr(params, t),
               "gr_short": lambda: coherence_gr_short_time(p["g"], t)}
    elif sc.kind == "single-tlf":
        params = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
        tlf = TlfSpec(epsilon=p["eps"], lam=p["lambda"])
        ctx = _thermal_context(p["kT"])
        fns = {
            "exact": lambda: coherence_exact_single(params, tlf, ctx, t),
            "weak_envelope": lambda: coherence_weak_envelope(params, tlf, ctx, t),
            "strong_leading": lambda: coherence_strong_leading(params, tlf, ctx, t),
            "strong_higher": lambda: coherence_strong_higher(params, tlf, ctx, t),
        }
    elif sc.kind == "dissipative":
        g, lam, gamma = p["g"], p["lambda"], p["gamma"]
        extras["regime"] = classify_regime(g, lam, gamma).value
        fns = {
            "ode": lambda: integrate_reduced(g, lam, gamma, t).values,
            "weak_damped": lambda: coherence_weak_damped(g, lam, gamma, t),
            "strong_damped": lambda: coherence_strong_damped(g, lam, gamma, t),
        }
    elif sc.kind == "ensemble":
        params = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
        rng = np.random.default_rng(sc.seed)
        ens = _ensemble_from_scenario(sc, rng)
        stats = ensemble_stats(ens)
        extras.update({"mu": stats.mu, "sigma": stats.sigma, "R": stats.r,
                       "couplings": ",".join(f"{tlf.lam:.17g}" for tlf in ens.tlfs)})
        fns = {
            "exact": lambda: coherence_exact_ensemble(params, ens, t),
            "narrow": lambda: coherence_narrow(params, stats, t),
            "continuum": lambda: coherence_continuum(params, stats, t,
                                                     rel_tol=tol["quad_rel_tol"]),
            "envelope": lambda: np.exp(-stats.sigma2 * t**2 / 2.0),
        }
    elif sc.kind == "continuum":
        params = JcParams(p["omega0"], p["omega0"] + p["delta"], p["g"])
        stats = EnsembleStats(mu=p["mu"], sigma2=p["sigma"] ** 2)
        fns = {
            "continuum": lambda: coherence_continuum(params, stats, t,
                                                     rel_tol=tol["quad_rel_tol"]),
            "narrow": lambda: coherence_narrow(params, stats, t),
            "broad": lambda: coherence_broad_integral(p["g"], stats, t,
                                                      rel_tol=tol["broad_rel_tol"]),
            "erfc": lambda: coherence_broad_erfc(p["g"], stats, t),
            "linear": lambda: coherence_broad_linear(p["g"], stats, t),
        }
    else:  # pragma: no cover - kinds are closed by validation
        raise InvalidInputError(f"unknown kind {sc.kind!r}")

    for tag in sc.methods:
        thunks.append((tag, fns[tag]))
    return t, _evaluate(thunks), extras


# ---------------------------------------------------------------------------
# Figure presets.  Scenario parameters are encoded verbatim; values a preset
# has to choose itself (sweep ratios, splitting lists, sigma targets) are our
# defaults and are flagged in the manifest via the returned notes.


def _fig_grid(sc: Scenario, t_max: float) -> np.ndarray:
    if sc.notes.get("tMaxOverridden"):
        t_max = sc.t_max
    return np.linspace(0.0, t_max, sc.n_points)


def _figure_1(sc: Scenario):
    params = JcParams(1.0, 1.01, 0.1)
    tlf = TlfSpec(epsilon=0.1, lam=0.01)
    ctx = ThermalContext.scale_separated()
    t = _fig_grid(sc, 400.0)
    cols = _evaluate([
        ("exact", lambda: coherence_exact_single(params, tlf, ctx, t)),
        ("weak_envelope", lambda: coherence_weak_envelope(params, tlf, ctx, t)),
    ])
    return t, cols, {"epsilonT": 1.01, "eps": 0.1, "g": 0.1, "lambda": 0.01,
                     "thermal": "scale-separated"}


def _figure_2(sc: Scenario):
    lam = 0.1
    ctx = ThermalContext.scale_separated()
    t = _fig_grid(sc, 1500.0)
    thunks = []
    for ratio in (0.3, 0.2, 0.1):
        params = JcParams(1.0, 1.0, ratio * lam)
        tlf = TlfSpec(epsilon=0.1, lam=lam)
        thunks += [
            (f"exact_{ratio:g}",
             lambda p=params, f=tlf: coherence_exact_single(p, f, ctx, t)),
            (f"leading_{ratio:g}",
             lambda p=params, f=tlf: coherence_strong_leading(p, f, ctx, t)),
            (f"higher_{ratio:g}",
             lambda p=params, f=tlf: coherence_strong_higher(p, f, ctx, t)),
        ]
    return t, _evaluate(thunks), {"lambda": lam, "delta": 0.0, "gOverLambda": "0.3,0.2,0.1",
                                  "eps": 0.1, "thermal": "scale-separated",
                                  "defaultNote": "eps = 0.1 is our default; the scenario "
                                                 "fixes only the scale-separated limit"}


def _figure_3(sc: Scenario):
    ratios = (0.2, 1.0, 5.0)
    t = _fig_grid(sc, 5000.0)
    thunks = []
    for r in ratios:
        ga, gb = r * 0.01, r * 0.1
        thunks += [
            (f"ode_a_{r:g}", lambda gm=ga: integrate_reduced(0.1, 0.01, gm, t).values),
            (f"weak_a_{r:g}", lambda gm=ga: coherence_weak_damped(0.1, 0.01, gm, t)),
            (f"ode_b_{r:g}", lambda gm=gb: integrate_reduced(0.01, 0.1, gm, t).values),
            (f"strong_b_{r:g}", lambda gm=gb: coherence_strong_damped(0.01, 0.1, gm, t)),
        ]
    return t, _evaluate(thunks), {"ga": (0.1, 0.01), "gb": (0.01, 0.1),
                                  "gammaOverLambda": "0.2,1,5",
                                  "defaultNote": "gamma/lambda sweep values are our "
                                                 "default; the scenario fixes only the "
                                                 "two coupling sets"}


def _figure_4(sc: Scenario):
    g = 0.1
    params = JcParams(1.0, 1.0, g)
    ctx = ThermalContext.scale_separated()
    rng = np.random.default_rng(sc.seed)
    t = _fig_grid(sc, 500.0)
    thunks = []
    sigmas = {}
    for n in (5, 10, 15):
        tlfs = sample_uniform_couplings(n, 0.05 * g, rng)
        ens = TlfEnsemble(tlfs, ctx)
        stats = ensemble_stats(ens)
        sigmas[n] = stats.sigma
        thunks += [
            (f"exact_n{n}", lambda e=ens: coherence_exact_ensemble(params, e, t)),
            (f"narrow_n{n}", lambda s=stats: coherence_narrow(params, s, t)),
            (f"env_n{n}", lambda s=stats: np.exp(-s.sigma2 * t**2 / 2.0)),
        ]
    cols = _evaluate(thunks)
    extras = {"g": g, "halfWidth": 0.05 * g, "thermal": "scale-separated",
              "defaultNote": "TLF splittings drawn from our default range; "
                             "the scenario gives no splitting list"}
    extras.update({f"sigma_n{n}": s for n, s in sigmas.items()})
    return t, cols, extras


def _figure_5(sc: Scenario):
    g = 0.1
    params = JcParams(1.0, 1.0, g)
    ctx = ThermalContext.scale_separated()
    rng = np.random.default_rng(sc.seed)
    t = _fig_grid(sc, 500.0)
    thunks = []
    extras: dict[str, object] = {"g": g, "n": 15, "box": "[1,10]^2",
                                 "thermal": "scale-separated"}
    for k in (1, 2, 3):
        tlfs = sample_spatial_couplings(15, 2, (1.0, 10.0), 1.0, g, rng)
        ens = TlfEnsemble(tlfs, ctx)
        stats = ensemble_stats(ens)
        extras[f"sigma_s{k}"] = stats.sigma
        extras[f"R_s{k}"] = stats.r
        thunks += [
            (f"exact_s{k}", lambda e=ens: coherence_exact_ensemble(params, e, t)),
            (f"narrow_s{k}", lambda s=stats: coherence_narrow(params, s, t)),
            (f"env_s{k}", lambda s=stats: np.exp(-s.sigma2 * t**2 / 2.0)),
        ]
    return t, _evaluate(thunks), extras


def _figure_6(sc: Scenario):
    g = 0.01
    params = JcParams(1.0, 1.0, g)
    ctx = ThermalContext.scale_separated()
    tol = sc.tolerances
    rng = np.random.default_rng(sc.seed)
    t = _fig_grid(sc, 1000.0)
    thunks = []
    extras: dict[str, object] = {"g": g, "halfWidth": 5 * g, "thermal": "scale-separated"}
    for n, w in ((5, 200.0), (15, 50.0)):
        uniform = TlfEnsemble(sample_uniform_couplings(n, 5 * g, rng), ctx)
        stats = ensemble_stats(uniform)
        extras[f"sigma_n{n}"] = stats.sigma
        extras[f"R_n{n}"] = stats.r
        thunks.append((f"uniform_n{n}",
                       lambda e=uniform: coherence_exact_ensemble(params, e, t)))
        for k in (1, 2, 3):
            spatial = TlfEnsemble(
                sample_spatial_couplings(n, 2, (1.0, 10.0), w, g, rng), ctx)
            extras[f"R_n{n}_s{k}"] = ensemble_stats(spatial).r
            thunks.append((f"spatial_n{n}_s{k}",
                           lambda e=spatial: coherence_exact_ensemble(params, e, t)))
        thunks.append((f"broad_n{n}",
                       lambda s=stats: coherence_broad_integral(
                           g, s, t, rel_tol=tol["broad_rel_tol"])))
    return t, _evaluate(thunks), extras


def _figure_7(sc: Scenario):
    g = 0.01
    sigma = 3 * g
    tol = sc.tolerances
    t = _fig_grid(sc, 600.0)
    thunks = []
    for label, mu in (("mu0", 0.0), ("mu0.5", 0.5 * sigma), ("mu1", sigma)):
        stats = EnsembleStats(mu=mu, sigma2=sigma**2)
        thunks.append((f"broad_{label}",
                       lambda s=stats: coherence_broad_integral(
                           g, s, t, rel_tol=tol["broad_rel_tol"])))
    stats0 = EnsembleStats(mu=0.0, sigma2=sigma**2)
    thunks += [
        ("erfc", lambda: coherence_broad_erfc(g, stats0, t)),
        ("linear", lambda: coherence_broad_linear(g, stats0, t)),
    ]
    return t, _evaluate(thunks), {"g": g, "sigma": sigma, "muOverSigma": "0,0.5,1",
                                  "defaultNote": "sigma = 3g and the mu/sigma sweep are "
                                                 "our defaults; the scenario gives neither"}


FIGURES = {1: _figure_1, 2: _figure_2, 3: _figure_3, 4: _figure_4,
           5: _figure_5, 6: _figure_6, 7: _figure_7}


# ---------------------------------------------------------------------------
# Output


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, first_name: str, first: np.ndarray,
              columns: list[tuple[str, np.ndarray]]) -> None:
    lines = [",".join([first_name] + [tag for tag, _ in columns])]
    data = [first] + [vals for _, vals in columns]
    for row in zip(*data):
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(path: str, sc: Scenario, extras: dict) -> None:
    lines = [
        f"tlfsim.version = {__version__}",
        f"numpy.version = {np.__version__}",
        f"scipy.version = {__import__('scipy').__version__}",
        f"kind = {sc.kind}",
        f"seed = {sc.seed}",
        f"tGrid.tMax = {_fmt(sc.t_max)}",
        f"tGrid.nPoints = {sc.n_points}",
        f"methods = {','.join(sc.methods)}",
        f"toleranceProfile = {sc.tolerance_profile}",
    ]
    for key, value in sorted(sc.tolerances.items()):
        lines.append(f"tolerance.{key} = {_fmt(value)}")
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
    """Raise the error open(out, "w") would raise for a missing or read-only
    directory, or for an ``out`` that is itself a directory."""
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
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
    if sc.kind == "figure":
        index = sc.params["index"]
        first, cols, extras = FIGURES[index](sc)
        extras["figure"] = index
        first_name = "t"
    else:
        first, cols, extras = _scenario_columns(sc)
        first_name = "kT" if sc.kind == "micro" else "t"
    write_csv(out, first_name, first, cols)
    write_manifest(out + ".manifest", sc, extras)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sub.add_argument("--out", default="out.csv", help="output CSV path (default out.csv)")
    sub.add_argument("--t-max", type=float, dest="t_max",
                     help="end of the time grid (per-scenario default)")
    sub.add_argument("--n-points", type=int, dest="n_points",
                     help="grid points (default 1000)")
    sub.add_argument("--methods", help="comma-separated method tags")
    sub.add_argument("--tolerance-profile", choices=sorted(TOLERANCE_PROFILES),
                     dest="tolerance_profile", help="numerical tolerance profile")


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
    _add_common(fig)

    val = subs.add_parser("validate", help="validate a config file and exit")
    val.add_argument("--config", required=True, help="flat key = value config file")
    return parser


def _collect_raw(args: argparse.Namespace, kind: str | None) -> dict:
    raw: dict[str, str] = {}
    if args.config:
        raw.update(_read_config(args.config))
    for name, value in vars(args).items():
        if name.startswith("param_") and value is not None:
            raw[name[len("param_"):]] = value
    if args.t_max is not None:
        raw["tGrid.tMax"] = repr(args.t_max)
    if args.n_points is not None:
        raw["tGrid.nPoints"] = repr(args.n_points)
    if args.seed is not None:
        raw["seed"] = repr(args.seed)
    if args.methods is not None:
        raw["methods"] = args.methods
    if args.tolerance_profile is not None:
        raw["toleranceProfile"] = args.tolerance_profile
    return _default_grid(raw, kind)


def _default_grid(raw: dict, kind: str | None) -> dict:
    """Fill in the tGrid keys that neither the config nor a flag set."""
    if kind is not None:
        raw.setdefault("tGrid.tMax", repr(DEFAULT_T_MAX.get(kind, 200.0)))
    raw.setdefault("tGrid.nPoints", "1000")
    return raw


def _figure_flag(key: str, parse, value, default):
    """A figure preset's flag, checked by the parser its scenario key uses."""
    if value is None:
        return default
    try:
        return parse(str(value))
    except ValueError as exc:
        raise InvalidInputError(f"{key}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            raw = _read_config(args.config)
            sc, errors = validate_config(_default_grid(raw, raw.get("kind")))
            if errors:
                for err in errors:
                    print(f"error: {err}", file=sys.stderr)
                return EXIT_VALIDATION
            print(f"ok: {sc.kind} scenario, {sc.n_points} points to t = {_fmt(sc.t_max)}, "
                  f"methods {','.join(sc.methods)}")
            return EXIT_OK

        if args.command == "figure":
            sc = Scenario(
                kind="figure", params={"index": args.index},
                t_max=_figure_flag("tGrid.tMax", _f(lo=0, lo_open=True), args.t_max, 0.0),
                n_points=_figure_flag("tGrid.nPoints", _i(lo=2), args.n_points, 1000),
                seed=_figure_flag("seed", _i(lo=0), args.seed, 0),
                methods=["preset"],
                tolerance_profile=args.tolerance_profile or "default")
            if args.t_max is not None:
                sc.notes["tMaxOverridden"] = True
            run_scenario(sc, args.out)
            return EXIT_OK

        raw = _collect_raw(args, args.command)
        sc, errors = validate_config(raw, kind=args.command)
        if errors:
            for err in errors:
                print(f"error: {err}", file=sys.stderr)
            return EXIT_VALIDATION
        run_scenario(sc, args.out)
        return EXIT_OK
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TlfsimError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
