"""Command-line interface: validation, determinism, CSV and manifest output."""
import contextlib
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlfsim
from tlfsim import cli, ensemble
from tlfsim.cli import main, validate_config
from tlfsim.microscopic import McEstimate


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestJcOnly:
    def test_resonant_rabi_values(self, tmp_path):
        out = tmp_path / "jc.csv"
        rc = main(["jc-only", "--g", "0.1", "--out", str(out),
                   "--t-max", "200", "--n-points", "101"])
        assert rc == 0
        data = read_csv(out)
        assert list(data.dtype.names) == ["t", "gr"]
        assert np.abs(data["gr"] - np.abs(np.cos(0.1 * data["t"]))).max() < 1e-14

    def test_detuned_minimum(self, tmp_path):
        out = tmp_path / "jc.csv"
        omega = math.sqrt(4 * 0.1**2 + 0.2**2)
        rc = main(["jc-only", "--g", "0.1", "--delta", "0.2", "--out", str(out),
                   "--t-max", f"{2 * math.pi / omega}", "--n-points", "401"])
        assert rc == 0
        data = read_csv(out)
        assert data["gr"].min() == pytest.approx(0.2 / omega, abs=1e-3)


def _not_called(*args, **kwargs):
    raise AssertionError("kernel evaluated past the work budget")


def _assert_fails_fast(tmp_path, capsys, argv, needle):
    """``argv`` exits 3 within 5 s with one line naming ``needle``, and no CSV."""
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert main(argv + ["--out", str(out)]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert needle in err and err.count("\n") == 1
    assert not out.exists()


class TestValidation:
    def test_all_errors_collected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("kind = single-tlf\nbogus = 3\nlambda = nope\n"
                       "tGrid.tMax = -1\ntGrid.nPoints = 1\n")
        rc = main(["validate", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "tGrid.tMax: must be > 0" in err
        assert "tGrid.nPoints: must be >= 2" in err
        assert "bogus: unknown key" in err
        assert "lambda:" in err

    def test_valid_config_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "ok.conf"
        cfg.write_text(
            "kind = jc-only\ng = 0.05\ntGrid.tMax = 100\ntGrid.nPoints = 50\n")
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 0
        assert "ok: jc-only" in capsys.readouterr().out

    def test_grid_defaults_match_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "jc.conf"
        cfg.write_text("kind = jc-only\ng = 0.1\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok: jc-only scenario, 1000 points to t = 200" in capsys.readouterr().out
        assert main(["jc-only", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
        assert len(read_csv(tmp_path / "x.csv")) == 1000

    def test_negative_figure_seed_rejected(self, tmp_path, capsys):
        rc = main(["figure", "4", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: seed: must be >= 0 (got '-1')\n"
        assert not (tmp_path / "x.csv").exists()

    def test_figure_flag_errors_collected(self, tmp_path, capsys):
        rc = main(["figure", "4", "--seed", "-1", "--n-points", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: tGrid.nPoints: must be >= 2 (got '1')\n"
                                           "error: seed: must be >= 0 (got '-1')\n")
        assert not (tmp_path / "x.csv").exists()

    def test_grid_defaults_supplied_by_validation(self):
        sc, errors = validate_config({"kind": "jc-only"})
        assert errors == []
        assert (sc.t_max, sc.n_points, sc.seed) == (200.0, 1000, 0)

    def test_missing_output_directory_rejected(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        rc = main(["jc-only", "--out", str(out), "--n-points", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_unwritable_output_fails_before_evaluation(self, tmp_path, capsys,
                                                       monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("kernel evaluated before the output check")

        for name in ("coherence_exact_ensemble", "coherence_broad_integral"):
            monkeypatch.setattr(cli, name, not_called)
        for out in (tmp_path / "missing" / "x.csv", tmp_path, ""):
            rc = main(["figure", "6", "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(out) in err

    def test_negative_coupling_rejected(self, tmp_path, capsys):
        rc = main(["jc-only", "--g", "-1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "g:" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path, capsys):
        rc = main(["jc-only", "--methods", "bogus", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_kind_mismatch_detected(self):
        sc, errors = validate_config(
            {"kind": "jc-only", "tGrid.tMax": "10", "tGrid.nPoints": "5"},
            kind="dissipative")
        assert sc is None
        assert any("kind:" in e for e in errors)

    def test_capacity_exceeded_is_numerical(self, tmp_path, capsys):
        rc = main(["ensemble", "--n", "25", "--out", str(tmp_path / "x.csv"),
                   "--n-points", "10"])
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    def test_exact_sum_work_budget_fails_fast(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tlfsim.ensemble._mixture_coherence", _not_called)
        for flags in (["--n", "20", "--n-points", "100000"], ["--n", "21", "--n-points", "2"],
                      ["--n", "2000", "--n-points", "2"]):
            _assert_fails_fast(tmp_path, capsys, ["ensemble", *flags], "configurations")

    def test_continuum_work_budget_fails_fast(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tlfsim.ensemble._mixture_coherence", _not_called)
        _assert_fails_fast(tmp_path, capsys, ["continuum", "--t-max", "40000", "--n-points",
                                              "2000", "--methods", "continuum"], "nodes")

    def test_broad_work_budget_fails_fast(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tlfsim.ensemble._exp_sum", _not_called)
        _assert_fails_fast(tmp_path, capsys,
                           ["continuum", "--methods", "broad", "--n-points", "1000000"], "terms")

    def test_micro_work_budget_fails_fast(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "average_variance_mc", _not_called)
        for flags in (["--n-points", "1000000"], ["--n-points", "2", "--n-samples", "2000000"]):
            _assert_fails_fast(tmp_path, capsys, ["micro", *flags], "Monte-Carlo draws")

    def test_micro_work_budget_boundary(self, tmp_path, monkeypatch):
        calls = []

        def estimate(*args):
            calls.append(args)
            return McEstimate(value=1.0, stderr=0.0, truncation_remainder=0.0)

        monkeypatch.setattr(cli, "average_variance_mc", estimate)
        monkeypatch.setattr(ensemble, "MAX_TERMS", 257 * 10_000)
        argv = ["micro", "--n-samples", "10000", "--out", str(tmp_path / "x.csv")]
        assert main(argv + ["--n-points", "257"]) == 0
        assert len(calls) == 257
        assert main(argv + ["--n-points", "258"]) == 3
        assert len(calls) == 257

    def test_cap_knob_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--cap", "5", "--out", str(out)])
        assert exc.value.code == 2
        cfg = tmp_path / "cap.conf"
        cfg.write_text("kind = ensemble\ncap = 5\n")
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cap: unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_refuses_subcommand_flags(self, tmp_path, capsys):
        out = tmp_path / "f1.csv"
        for extra in (["--methods", "bogus"], ["--config", "/nonexistent/x.conf"],
                      ["--methods", "bogus", "--config", "/nonexistent/x.conf"]):
            assert main(["figure", "1", *extra, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--config or --methods" in err
        assert not out.exists()

    def test_grid_size_bounded(self, tmp_path, capsys):
        cfg = tmp_path / "big.conf"
        cfg.write_text("kind = jc-only\ntGrid.nPoints = 100000000\n")
        out = tmp_path / "x.csv"
        for argv in (["jc-only", "--n-points", "100000000", "--out", str(out)],
                     ["figure", "1", "--n-points", "1000001", "--out", str(out)],
                     ["validate", "--config", str(cfg)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: tGrid.nPoints: must be <= 1000000")
            assert err.count("\n") == 1
        assert not out.exists()
        sc, errors = validate_config({"kind": "jc-only", "tGrid.tMax": "1",
                                      "tGrid.nPoints": "1000000"})
        assert errors == [] and sc.n_points == 10**6

    def test_unresolvable_continuum_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = main(["continuum", "--t-max", "1e7", "--n-points", "1000",
                   "--methods", "continuum", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert time.perf_counter() - start < 5.0
        assert "nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sigma", "1e160"],
                                       ["--mu", "1e300", "--methods", "broad"],
                                       ["--sigma", "1e-90", "--t-max", "1e-100",
                                        "--methods", "broad"]],
                             ids=["sigma-squared", "broad-window", "sigma-tiny"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_rejected(self, tmp_path, capsys, flags):
        # mu and sigma are bounded so that mu^2, sigma^2 and sigma^4 stay finite
        out = tmp_path / "x.csv"
        rc = main(["continuum", *flags, "--n-points", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flags[0][2:]}: must be ") and err.count("\n") == 1
        assert not out.exists()

    def test_nan_phase_span_is_numerical(self, tmp_path, capsys, monkeypatch):
        # hi - lo rounds to 0 while 2 t_max overflows: 0 x inf panels
        monkeypatch.setattr("tlfsim.ensemble._mixture_coherence", _not_called)
        _assert_fails_fast(tmp_path, capsys,
                           ["continuum", "--mu", "1", "--sigma", "1e-30", "--t-max", "1e308",
                            "--n-points", "5", "--methods", "continuum"], "nan terms")

    def test_micro_refuses_t_max(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        cfg = tmp_path / "m.conf"
        cfg.write_text("kind = micro\ntGrid.tMax = 0.01\n")
        for argv in (["micro", "--t-max", "0.01", "--n-points", "3", "--out", str(out)],
                     ["validate", "--config", str(cfg)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: tGrid.tMax: micro scans kT") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, needle", [
        ("kind = ensemble\nsampler = spatial\ndim = 4\n", "dim: must be <= 3 (got '4')"),
        ("kind = micro\nd = 7\n", "d: must be <= 3 (got '7')")], ids=["dim", "d"])
    def test_host_dimension_bounded(self, tmp_path, capsys, config, needle):
        cfg = tmp_path / "dim.conf"
        cfg.write_text(config)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {needle}\n"

    def test_fluctuator_count_bounded(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["ensemble", "--n", "1048577", "--n-points", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: n: must be <= 1048576 (got '1048577')\n"
        assert not out.exists()

    def test_huge_integer_is_a_bound_error(self, tmp_path, capsys):
        # an int past the float range is compared exactly, never converted
        digits = "9" * 400
        assert main(["ensemble", "--n", digits, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: n: must be <= 1048576 (got '{digits}')\n"

    @pytest.mark.parametrize("half_width", ["1e200", "1e308"])
    def test_half_width_bounded(self, tmp_path, capsys, half_width):
        # sigma^2 <= n half_width^2 stays finite for every n <= 2^20 at half_width <= 1e150
        needle = f"error: halfWidth: must be <= 1e+150 (got '{half_width}')\n"
        cfg = tmp_path / "hw.conf"
        cfg.write_text(f"kind = ensemble\nhalfWidth = {half_width}\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == needle
        out = tmp_path / "x.csv"
        assert main(["ensemble", "--half-width", half_width, "--n-points", "3",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == needle
        assert not out.exists()


class TestDeterminism:
    def test_ensemble_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["ensemble", "--n", "4", "--seed", "7", "--out", str(out),
                       "--n-points", "40"])
            assert rc == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "a.csv.manifest").read_text() \
            == (tmp_path / "b.csv.manifest").read_text()

    def test_seed_changes_sampled_output(self, tmp_path):
        csvs = []
        for seed in ("7", "8"):
            out = tmp_path / f"s{seed}.csv"
            assert main(["ensemble", "--n", "4", "--seed", seed, "--out", str(out),
                         "--n-points", "40"]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] != csvs[1]


class TestManifest:
    def test_records_parameters_and_tolerances(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["dissipative", "--g", "0.1", "--lambda", "0.01", "--gamma", "0.002",
                   "--out", str(out), "--n-points", "20", "--t-max", "100"])
        assert rc == 0
        manifest = (out.with_suffix(".csv.manifest")
                    if False else tmp_path / "d.csv.manifest").read_text()
        assert "kind = dissipative" in manifest
        assert "param.gamma = 0.002" in manifest
        assert "tolerance.broad_rel_tol = 9.9999999999999995e-07\n" in manifest
        assert "tolerance.quad_rel_tol = 1e-08\n" in manifest
        assert "resolved.regime = weak-coupling" in manifest
        assert "tlfsim.version = " in manifest

    def test_tolerance_profile_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            main(["dissipative", "--tolerance-profile", "strict", "--out", str(out)])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "strict.conf"
        cfg.write_text("kind = dissipative\ntoleranceProfile = strict\n")
        assert main(["dissipative", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: toleranceProfile: unknown key\n"
        assert not out.exists()


class TestScenarios:
    def test_single_tlf_exact_column(self, tmp_path):
        import tlfsim as ts
        out = tmp_path / "s.csv"
        rc = main(["single-tlf", "--g", "0.1", "--lambda", "0.01", "--out", str(out),
                   "--t-max", "300", "--n-points", "60"])
        assert rc == 0
        data = read_csv(out)
        params = ts.JcParams(1.0, 1.0, 0.1)
        ref = ts.coherence_exact_single(params, ts.TlfSpec(0.1, 0.01),
                                        ts.ThermalContext.scale_separated(), data["t"])
        assert np.abs(data["exact"] - ref).max() < 1e-14

    def test_regime_warning_names_its_column(self, tmp_path, capsys):
        # g = 0.1 against lambda = 0.01 is outside the strong-coupling regime
        rc = main(["single-tlf", "--n-points", "50", "--methods", "exact,strong_leading",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: strong_leading: strong-coupling formula outside regime: |lam|/g = 0.1\n")
        # a caller's filter still silences them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tlfsim.RegimeWarning)
            assert main(["single-tlf", "--n-points", "50", "--methods", "strong_leading",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_setup_warning_names_its_scenario(self, tmp_path, capsys):
        # JcParams warns while the scenario is set up, before any column runs
        argv = ["jc-only", "--g", "2", "--n-points", "5", "--out", str(tmp_path / "j.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: jc-only setup: g = 2.0 is not small compared to min(epsilon_t, omega0); "
            "the exchange-coupling model may not apply\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_finite_temperature_flag(self, tmp_path):
        import tlfsim as ts
        out = tmp_path / "s.csv"
        rc = main(["single-tlf", "--g", "0.1", "--lambda", "0.01", "--kt", "0.05",
                   "--out", str(out), "--t-max", "300", "--n-points", "60"])
        assert rc == 0
        data = read_csv(out)
        ref = ts.coherence_exact_single(
            ts.JcParams(1.0, 1.0, 0.1), ts.TlfSpec(0.1, 0.01),
            ts.ThermalContext.finite_temperature(0.05), data["t"])
        assert np.abs(data["exact"] - ref).max() < 1e-14

    def test_continuum_multiple_methods(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["continuum", "--methods", "broad,erfc,linear", "--out", str(out),
                   "--t-max", "300", "--n-points", "30"])
        assert rc == 0
        data = read_csv(out)
        assert list(data.dtype.names) == ["t", "broad", "erfc", "linear"]
        assert data["broad"][0] == 1.0

    def test_ensemble_broad_column(self, tmp_path):
        out = tmp_path / "e.csv"
        rc = main(["ensemble", "--n", "5", "--seed", "2", "--g", "0.01", "--half-width", "0.05",
                   "--methods", "exact,broad", "--out", str(out),
                   "--t-max", "300", "--n-points", "30"])
        assert rc == 0
        data = read_csv(out)
        ens = tlfsim.TlfEnsemble(
            tlfsim.sample_uniform_couplings(5, 0.05, np.random.default_rng(2)),
            tlfsim.ThermalContext.scale_separated())
        ref = tlfsim.coherence_broad_integral(0.01, tlfsim.ensemble_stats(ens), data["t"])
        assert np.array_equal(data["broad"], ref)

    def test_micro_scans_temperature(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["micro", "--n-samples", "10000", "--n-points", "4",
                   "--out", str(out)])
        assert rc == 0
        data = read_csv(out)
        assert list(data.dtype.names) == ["kT", "variance"]
        assert data["kT"][0] == pytest.approx(0.05)
        assert np.all(np.diff(data["variance"]) > 0)
        assert "tGrid.tMax" not in (tmp_path / "m.csv.manifest").read_text()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("g = 0.2\ndelta = 0.0\ntGrid.tMax = 100\ntGrid.nPoints = 51\n")
        out = tmp_path / "o.csv"
        rc = main(["jc-only", "--config", str(cfg), "--g", "0.1", "--out", str(out)])
        assert rc == 0
        data = read_csv(out)
        # the command-line flag wins over the config file value
        assert np.abs(data["gr"] - np.abs(np.cos(0.1 * data["t"]))).max() < 1e-14


class TestFigurePresets:
    def test_figure_1_columns(self, tmp_path):
        out = tmp_path / "f1.csv"
        rc = main(["figure", "1", "--out", str(out), "--n-points", "80"])
        assert rc == 0
        data = read_csv(out)
        assert list(data.dtype.names) == ["t", "exact", "weak_envelope"]
        assert data["t"][-1] == pytest.approx(400.0)
        assert data["exact"][0] == pytest.approx(1.0, abs=1e-12)
        manifest = (tmp_path / "f1.csv.manifest").read_text()
        assert "resolved.figure = 1" in manifest
        assert "tGrid.tMax = 400\n" in manifest

    def test_figure_t_max_override_noted(self, tmp_path):
        out = tmp_path / "f1.csv"
        rc = main(["figure", "1", "--out", str(out), "--n-points", "40",
                   "--t-max", "100"])
        assert rc == 0
        data = read_csv(out)
        assert data["t"][-1] == pytest.approx(100.0)
        assert "note.tMaxOverridden = True" in (tmp_path / "f1.csv.manifest").read_text()

    def test_figure_7_flags_default_parameters(self, tmp_path):
        out = tmp_path / "f7.csv"
        rc = main(["figure", "7", "--out", str(out), "--n-points", "12"])
        assert rc == 0
        data = read_csv(out)
        assert "broad_mu0" in data.dtype.names
        assert "resolved.defaultNote" in (tmp_path / "f7.csv.manifest").read_text()


class TestThreads:
    def test_columns_run_on_main_thread_in_order(self, tmp_path, monkeypatch):
        calls = []
        for name in ("coherence_exact_single", "coherence_weak_envelope"):
            def spy(*args, _name=name, _kernel=getattr(cli, name)):
                calls.append((_name, threading.current_thread()))
                return _kernel(*args)
            monkeypatch.setattr(cli, name, spy)
        out = tmp_path / "s.csv"
        rc = main(["single-tlf", "--methods", "weak_envelope,exact",
                   "--out", str(out), "--t-max", "200", "--n-points", "30"])
        assert rc == 0
        assert read_csv(out).dtype.names == ("t", "weak_envelope", "exact")
        main_thread = threading.main_thread()
        assert calls == [("coherence_weak_envelope", main_thread),
                         ("coherence_exact_single", main_thread)]


# Input contract: every argv either exits 0 with an all-finite CSV, or exits
# 2 (invalid input) or 3 (numerical failure) with a one-line message last on
# stderr and no CSV.  Entries are inputs that once broke the contract or sit
# at the work budget; add each new one found.
CONTRACT_PROBES = [
    ["ensemble", "--half-width", "1e300", "--n-points", "5", "--methods", "narrow,envelope"],
    ["micro", "--n-points", "3", "--eps-max", "1e308"],
    ["jc-only", "--g", "1e300", "--n-points", "3", "--methods", "gr_short"],
    ["continuum", "--sigma", "1e-90", "--t-max", "1e-100", "--n-points", "5",
     "--methods", "broad"],
    ["continuum", "--mu", "1e300", "--n-points", "5", "--methods", "broad"],
    ["figure", "6", "--t-max", "1e300"],
    ["figure", "7", "--t-max", "1e300"],
    ["jc-only", "--delta", "-1e-3", "--n-points", "3"],
    ["continuum", "--mu", "-1E+2", "--n-points", "3"],
    ["jc-only", "--n-points", "abc"],
    ["figure", "1", "--seed", "1.5"],
    ["jc-only", "--t-max", "1e400"],
    ["dissipative", "--lambda", "1e308", "--n-points", "5"],
    ["dissipative", "--lambda", "-1e308", "--n-points", "5"],
    ["dissipative", "--lambda", "9e307", "--n-points", "5"],
    ["dissipative", "--gamma", "9e307", "--n-points", "5"],
    ["ensemble", "--half-width", "1e200", "--n-points", "3"],
]

# Runs whose error is raised inside a setup or a column, with their stderr
# lines: the error names its stage, after the warnings that stage raised.
LABELLED_ERRORS = {
    "continuum --g 1e300 --n-points 3 --methods erfc": (3, [
        "warning: continuum setup: g = 1e+300 is not small compared to min(epsilon_t, "
        "omega0); the exchange-coupling model may not apply",
        "numerical error: erfc: Numerical result out of range"]),
    "single-tlf --g 1e300 --n-points 3 --methods strong_higher": (3, [
        "warning: single-tlf setup: g = 1e+300 is not small compared to min(epsilon_t, "
        "omega0); the exchange-coupling model may not apply",
        "warning: strong_higher: strong-coupling formula outside regime: |lam|/g = 1e-302",
        "numerical error: strong_higher: Numerical result out of range"]),
    "single-tlf --lambda 1e-300 --n-points 3 --methods strong_higher": (3, [
        "warning: strong_higher: strong-coupling formula outside regime: |lam|/g = 1e-299",
        "numerical error: strong_higher: float division by zero"]),
    "micro --j0 1e300 --n-points 2": (3, [
        "numerical error: micro setup: Numerical result out of range"]),
    "ensemble --sampler spatial --w 1e200 --n-points 3": (2, [
        "error: ensemble setup: sigma2 must be finite, got inf"]),
    "ensemble --sampler spatial --box-lo 1e-200 --box-hi 2e-200 --n-points 3": (2, [
        "error: ensemble setup: lam must be finite, got -inf"]),
}
CONTRACT_PROBES += [argv.split() for argv in LABELLED_ERRORS]


def _stage_labels(argv):
    """The labels a run's stderr lines may name: its columns and its setups."""
    if argv[0] == "figure":
        fig = cli.FIGURES[int(argv[1])]
        return ({name for name, _, _ in fig.columns}
                | {f"{kind} setup" for kind, _, _ in fig.scenarios})
    return set(cli.METHODS[argv[0]]) | {f"{argv[0]} setup"}


def check_contract(argv, out):
    """Run ``main`` in-process and check the input contract on its exit code,
    its CSV and its stderr, where every line is a warning or the error."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as escaped, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(argv + ["--out", str(out)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3), (rc, lines)
    assert not escaped, [str(w.message) for w in escaped]
    assert all(line.startswith(("warning: ", "error: ", "numerical error: "))
               for line in lines), lines
    if rc == 0:
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))
    else:
        assert lines[-1].startswith({2: "error: ", 3: "numerical error: "}[rc])
        assert not os.path.exists(out)
    if rc == 3:
        # every numerical error names the column or the setup it came from
        m = re.match(r"numerical error: (?:column (\S+) is not finite |([^:]+): )", lines[-1])
        assert m and (m[1] or m[2]) in _stage_labels(argv), lines
    return rc, lines


@pytest.mark.parametrize("argv", CONTRACT_PROBES, ids=" ".join)
def test_input_contract(tmp_path, argv):
    check_contract(argv, tmp_path / "x.csv")


@pytest.mark.parametrize("argv", LABELLED_ERRORS)
def test_error_names_its_stage(tmp_path, argv):
    assert check_contract(argv.split(), tmp_path / "x.csv") == LABELLED_ERRORS[argv]


# Tokens every key is fuzzed with besides its own bounds and default.
_EDGE_TOKENS = ["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "5e-324", "-5e-324",
                "1e-300", "1e150", "abc"]


def _flag(key):
    return "--kt" if key == "kT" else "--" + re.sub("[A-Z]", lambda m: "-" + m[0].lower(), key)


def _bound_tokens(parse, default):
    """The default of a cli.SCHEMAS parser, its choices plus one unknown, or
    each of its bounds with the nearest values just inside and just past it."""
    nonlocals = inspect.getclosurevars(parse).nonlocals
    if "options" in nonlocals:
        return [*nonlocals["options"], "other"]
    tokens = [] if default is None else [str(default)]
    is_int = parse.__qualname__.startswith("_i.")
    for bound, outward in ((nonlocals["lo"], -1), (nonlocals["hi"], 1)):
        if bound is None:
            continue
        if is_int:
            tokens += [str(bound - outward), str(bound), str(bound + outward)]
        else:
            tokens += [repr(float(np.nextafter(bound, -outward * np.inf))), repr(float(bound)),
                       repr(float(np.nextafter(bound, outward * np.inf)))]
    return tokens


def _argv_strategy(kind):
    """argv for one subcommand: any subset of its schema flags, each from its
    bound tokens or _EDGE_TOKENS, a random method list and 2-17 points."""
    flags = {_flag(key): st.sampled_from(_bound_tokens(parse, default) + _EDGE_TOKENS)
             for key, (parse, default, _) in cli.SCHEMAS[kind].items()}
    flags["--t-max"] = st.sampled_from([str(cli.DEFAULT_T_MAX.get(kind, 1.0))] + _EDGE_TOKENS)
    return st.tuples(
        st.fixed_dictionaries({}, optional=flags),
        st.lists(st.sampled_from(list(cli.METHODS[kind])), min_size=1, unique=True),
        st.integers(2, 17),
    ).map(lambda drawn: [kind, *[tok for kv in drawn[0].items() for tok in kv],
                         "--methods", ",".join(drawn[1]), "--n-points", str(drawn[2])])


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(argv=st.sampled_from(cli.KINDS).flatmap(_argv_strategy))
def test_input_contract_fuzz(argv):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(argv, os.path.join(tmp, "x.csv"))


def test_exponent_form_negative_is_a_value(tmp_path):
    assert main(["jc-only", "--delta", "-1e-3", "--n-points", "3",
                 "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["jc-only", "--delta=-1e-3", "--n-points", "3",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("argv, key", [
    (["jc-only", "--n-points", "abc"], "tGrid.nPoints"),
    (["figure", "1", "--seed", "1.5"], "seed"),
    (["jc-only", "--t-max", "1e400"], "tGrid.tMax"),
    (["dissipative", "--g", "abc"], "g"),
], ids=["n-points", "seed", "t-max", "schema-key"])
def test_run_key_error_quotes_user_text(tmp_path, capsys, argv, key):
    # argparse no longer converts run keys, so the one parser quotes the text
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and err.endswith(f"(got {argv[-1]!r})\n")
    assert err.count(argv[-1]) == 1
    assert err.count("\n") == 1


class TestEntryPoint:
    def test_python_m_tlfsim(self):
        src = os.path.dirname(os.path.dirname(tlfsim.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "tlfsim", "validate", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "--config" in proc.stdout


def reference_write_csv(path, first_name, first, columns):
    """The CSV writer as it was before the block writer: one ``.17g`` format
    per value through ``zip(*data)``, every line joined before one write."""
    lines = [",".join([first_name] + [tag for tag, _ in columns])]
    data = [first] + [vals for _, vals in columns]
    for row in zip(*data):
        lines.append(",".join(f"{float(x):.17g}" for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


EDGE_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1 / 3, 1e308, -1e-300,
               float(2**53 + 1)]


class TestCsvWriter:
    """The block writer against the per-value reference writer, byte for byte."""

    @pytest.mark.parametrize("first_name", ["t", "kT"])
    @pytest.mark.parametrize("n_cols", range(1, 7))
    def test_matches_reference(self, tmp_path, first_name, n_cols):
        block = cli._CSV_BLOCK_ROWS
        rng = np.random.default_rng(n_cols)
        for n_rows in (0, 1, block - 1, block, block + 1, 2 * block + 1):
            # random magnitudes over the whole double range, edge values cycled in
            size = n_rows * n_cols
            pool = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
            pool[::7] = np.resize(EDGE_VALUES, pool[::7].size)
            table = pool.reshape(n_cols, n_rows)
            columns = [(f"c{j}", table[j]) for j in range(1, n_cols)]
            ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
            reference_write_csv(str(ref), first_name, table[0], columns)
            cli.write_csv(str(got), first_name, table[0], columns)
            assert got.read_bytes() == ref.read_bytes(), n_rows

    def test_edge_values_each_column(self, tmp_path):
        # each edge value appears once in each of the three columns
        values = np.array(EDGE_VALUES)
        columns = [("a", values[::-1]), ("b", values)]
        ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
        reference_write_csv(str(ref), "t", values, columns)
        cli.write_csv(str(got), "t", values, columns)
        assert got.read_bytes() == ref.read_bytes()
        assert got.read_text().splitlines()[1:4] == [
            "-0,9007199254740992,-0", "0,-1e-300,0", "nan,1e+308,nan"]

    @pytest.mark.parametrize("short", [0, 1])
    def test_unequal_lengths_rejected(self, tmp_path, short):
        # zip(*data) cut every column to the shortest; now nothing is written
        out = tmp_path / "x.csv"
        first, col = np.arange(5.0), np.arange(4.0)
        data = [first, col] if short else [col, first]
        with pytest.raises(ValueError, match="equal length"):
            cli.write_csv(str(out), "t", data[0], [("a", data[1])])
        assert not out.exists()
