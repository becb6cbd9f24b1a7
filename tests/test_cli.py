import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbmlab
from qbmlab import cli, dynamics, eigensolve
from qbmlab.cli import (
    _KNOWN_ERRORS,
    _finite_float,
    _fmt,
    _positive_int,
    _subparsers,
    _write_csv,
    build_parser,
    main,
)
import oracles


def run(argv):
    return main([str(a) for a in argv])


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestCsvWriter:
    def test_matches_per_value_formatting(self, tmp_path):
        # rows 0, 1 and 5 are finite; each other row holds one non-finite value
        columns = {
            "ints": [0, 1, -7, 2**53 + 1, 3, 42],
            "bools": [True, False, True, False, True, False],
            "mixed": [-0.0, 0.5, None, float("nan"), float("inf"), float("-inf")],
            "floats": np.array([0.1, -1e-300, 1e300, 5e-324, 2.0 / 3.0, -0.0]),
        }
        path = tmp_path / "t.csv"
        _write_csv(path, columns)
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns.values()))
        expected = [",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
        assert path.read_text().splitlines()[1] == "0,1,-0,0.10000000000000001"


class TestSolve:
    def test_writes_modes_csv_and_manifest(self, tmp_path):
        code = run(["solve", "--paper-defaults", "--n", 32,
                    "--out-dir", tmp_path, "--prefix", "s"])
        assert code == 0
        csv = (tmp_path / "s_modes.csv").read_text().splitlines()
        assert csv[0] == "nu,alpha,weight,residual"
        assert len(csv) == 33
        manifest = read_manifest(tmp_path / "s_manifest.json")
        assert manifest["command"] == "solve"
        assert manifest["derived"]["t_poincare"] == pytest.approx(11190, rel=0.05)
        assert "s_modes.csv" in manifest["outputs"]
        # both band-width conventions recorded
        assert manifest["derived"]["spacing_prose"] == pytest.approx(0.018 / 29)
        assert manifest["derived"]["spacing_formula"] == pytest.approx(0.018 / 30)
        # solver effort and the closest root to a pole
        modes = qbmlab.solve_normal_modes(qbmlab.paper_default_model(32))
        assert manifest["diagnostics"] == {
            "secular_evaluations": modes.secular_evaluations,
            "safeguard_fallbacks": modes.safeguard_fallbacks,
            "min_pole_offset": modes.min_pole_offset,
            "tabulated_clusters": modes.tabulated_clusters,
            "exact_clusters": modes.exact_clusters,
            "chebyshev_points": modes.chebyshev_points,
            "far_field_bound": modes.far_field_bound,
            "residual_ratio": modes.residual_ratio,
            "audit_residual_error": modes.audit_residual_error,
            "audit_weight_error": modes.audit_weight_error,
            "weight_sum_error": abs(math.fsum(modes.weights.tolist()) - 1.0),
        }
        assert modes.audit_residual_error <= eigensolve._audit_limit(modes.model.n_osc)
        assert modes.audit_weight_error <= eigensolve._audit_limit(modes.model.n_osc)
        assert 32 <= modes.secular_evaluations <= 6 * 32
        assert modes.min_pole_offset == np.abs(
            modes.alphas[:, None] - modes.model.bath_freqs).min()

    def test_tabulated_solve_of_a_jittered_file(self, tmp_path):
        # 2,047 oscillators: every cluster of the far field is tabulated
        rng = np.random.default_rng(2048)
        spacing = 0.018 / 2045
        freqs = 1.0 + spacing * (np.arange(1, 2048) - 1024.0)
        couplings = qbmlab.lorentzian_coupling(freqs, 1.0, spacing, spacing * 2045 / 2.0)
        freqs = freqs + rng.uniform(-0.25, 0.25, freqs.size) * spacing
        couplings = couplings * rng.uniform(0.8, 1.2, freqs.size)
        cfg = tmp_path / "model.txt"
        cfg.write_text("omega_sub = 1.0\nbeta = 1.0\nkappa = 1.0\n[bath]\n" + "".join(
            f"{w!r} {g!r}\n" for w, g in zip(freqs.tolist(), couplings.tolist())))
        assert run(["solve", "--config", cfg, "--out-dir", tmp_path, "--prefix", "t"]) == 0
        modes = qbmlab.solve_normal_modes(qbmlab.load_model(cfg))
        assert modes.tabulated_clusters == 2047 // 90 and modes.exact_clusters == 0
        rows = (tmp_path / "t_modes.csv").read_text().splitlines()[1:]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(table[:, 0], np.arange(2048))
        np.testing.assert_array_equal(table[:, 1], modes.alphas)
        np.testing.assert_array_equal(table[:, 2], modes.weights)
        np.testing.assert_array_equal(table[:, 3], modes.residuals)
        oracle = oracles.dense_oracle(modes.model)
        assert np.abs(modes.alphas - oracle.alphas).max() <= 1e-12

    def test_seventeen_digit_round_trip(self, tmp_path):
        run(["solve", "--paper-defaults", "--n", 10, "--out-dir", tmp_path,
             "--prefix", "s"])
        import qbmlab
        modes = qbmlab.solve_normal_modes(qbmlab.paper_default_model(10))
        rows = (tmp_path / "s_modes.csv").read_text().splitlines()[1:]
        alphas = np.array([float(r.split(",")[1]) for r in rows])
        np.testing.assert_array_equal(alphas, modes.alphas)

    def test_config_file_input(self, tmp_path):
        cfg = tmp_path / "model.txt"
        cfg.write_text(
            "omega_sub = 1.0\nbeta = 1.0\nkappa = 1.0\n[bath]\n"
            "0.9 0.05\n1.0 0.05\n1.1 0.05\n"
        )
        code = run(["solve", "--config", cfg, "--out-dir", tmp_path, "--prefix", "c"])
        assert code == 0
        rows = (tmp_path / "c_modes.csv").read_text().splitlines()
        assert len(rows) == 5

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "model.txt"
        cfg.write_text("omega_sub = 1.0\n[bath]\n0.9 0.05\n1.1 0.05\n")
        run(["solve", "--config", cfg, "--beta", 2.5, "--out-dir", tmp_path,
             "--prefix", "o"])
        manifest = read_manifest(tmp_path / "o_manifest.json")
        assert manifest["model"]["beta"] == 2.5

    def test_unreadable_config_fails(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("omega_sub = 1.0\n[bath]\n1.1 0.1\n0.9 0.1\n")
        assert run(["solve", "--config", cfg, "--out-dir", tmp_path]) == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "model.txt"
        cfg.write_text("omega_sub = 1.0\n[bath]\n0.9 0.05\n1.1 0.05\n")
        usage_errors = {
            "--paper-defaults requires --n": ["solve", "--paper-defaults"],
            "mutually exclusive": ["solve", "--config", cfg, "--paper-defaults", "--n", 10],
            "give either --config or --paper-defaults": ["solve"],
            "ullersma density needs --c1": ["continuum", "--density", "ullersma",
                                            "--band", 0.5, 1.5],
            "cannot parse --n-list '10,x'": ["sweep", "--n-list", "10,x"],
            "--n-list is empty": ["sweep", "--n-list", " , "],
            "--obs is empty": ["evolve", "--paper-defaults", "--n", 32, "--obs", ","],
        }
        for message, argv in usage_errors.items():
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--out-dir", tmp_path])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["bogus-subcommand"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_t_max_not_after_t0_is_refused(self, tmp_path, capsys):
        code = run(["evolve", "--paper-defaults", "--n", 10, "--t0", 5, "--t-max", 5,
                    "--out-dir", tmp_path])
        assert code == 1
        assert capsys.readouterr().err == "error: t_max = 5.0 must exceed t0 = 5.0\n"

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_coupling_whose_square_underflows_is_named(self, tmp_path, capsys, command):
        # couplings of ~1e-303 square to 0, which the solver took for a degenerate bath
        code = run([command, "--paper-defaults", "--n", 10, "--d-over-a", 1e-300,
                    "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coupling g[1] = 1.11504e-303 squares to zero")
        assert "Traceback" not in err


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"omega_sub = 1.0\n[bath]\n0.9 0.05\xff\n1.1 0.05\n")
    return ["solve", "--config", path, "--out-dir", tmp_path]


def _file_as_out_dir(command):
    def argv(tmp_path):
        (tmp_path / "file").write_text("")
        return [command, "--paper-defaults", "--n", 10, "--out-dir", tmp_path / "file" / "x"]
    return argv


# runs that fail on a file or a derived input: each argv is built in the test's directory
FILE_ERRORS = {
    "missing-config": lambda d: ["solve", "--config", d / "missing.txt", "--out-dir", d],
    "config-is-a-directory": lambda d: ["solve", "--config", d, "--out-dir", d],
    "config-not-utf8": _not_utf8,
    "out-dir-below-a-file": _file_as_out_dir("solve"),
    # validate writes only its manifest: the manifest write itself fails
    "manifest-below-a-file": _file_as_out_dir("validate"),
    # the step 5e-324 / 2 underflows to zero
    "time-step-underflows": lambda d: ["evolve", "--paper-defaults", "--n", 10,
                                       "--t-max", 5e-324, "--points", 3, "--out-dir", d],
    # both parts are finite, but |x0 + i p0| and the position columns overflow
    "start-point-overflows": lambda d: ["evolve", "--paper-defaults", "--n", 10,
                                        "--obs", "X_mean,P_tilde_mean", "--x0", 1.5e308,
                                        "--p0", 1.5e308, "--points", 50, "--out-dir", d],
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_errors_end_in_an_error_line(tmp_path, capsys, case):
    assert run(FILE_ERRORS[case](tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_known_errors_are_the_package_refusals():
    assert _KNOWN_ERRORS == (qbmlab.QbmlabError, OSError, MemoryError)


@pytest.mark.parametrize("argv", [["solve", "--paper-defaults", "--n", "10"],
                                  ["sweep", "--n-list", "10"]])
def test_a_bug_is_not_a_refusal(tmp_path, monkeypatch, argv):
    # an exception that is no refusal of the package keeps its traceback
    def bug(model):
        raise ValueError("bug")
    monkeypatch.setattr(cli, "solve_normal_modes", bug)
    with pytest.raises(ValueError, match="bug"):
        main(argv + ["--out-dir", str(tmp_path)])


# 10**17 float64 values are 8e17 bytes, past every 57-bit user address space,
# so no overcommit policy can map the array
HUGE = 10**17
COUNT_FLAGS = {
    "solve-n": ["solve", "--paper-defaults", "--n", HUGE],
    "evolve-points": ["evolve", "--paper-defaults", "--n", 32, "--points", HUGE],
    "langevin-points": ["langevin", "--paper-defaults", "--n", 32, "--points", HUGE],
    "recurrence-points": ["recurrence", "--paper-defaults", "--n", 32, "--points", HUGE],
    "continuum-survival-points": ["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                                  "--peak", 5e-4, "--half-width", 0.05,
                                  "--survival-t-max", 1000, "--survival-points", HUGE],
}


@pytest.mark.parametrize("case", sorted(COUNT_FLAGS))
def test_unallocatable_counts_end_in_an_error_line(tmp_path, capsys, case):
    assert run(COUNT_FLAGS[case] + ["--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


class TestEvolve:
    def test_series_and_plateau(self, tmp_path):
        code = run(["evolve", "--paper-defaults", "--n", 32, "--t-max", 2000,
                    "--points", 801, "--obs", "N_omega,P_surv",
                    "--out-dir", tmp_path, "--prefix", "e"])
        assert code == 0
        rows = (tmp_path / "e_series.csv").read_text().splitlines()
        assert rows[0] == "t,N_omega,P_surv"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data[0, 1] == pytest.approx(1.0, abs=1e-10)
        # relaxed tail fluctuates near the thermal plateau
        assert data[-200:, 1].mean() == pytest.approx(0.61, abs=0.05)
        assert (tmp_path / "e_series.gp").exists()

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["evolve", "--paper-defaults", "--n", 10, "--t-max", 300,
                "--points", 101, "--obs", "N_omega,N_total"]
        run(argv + ["--out-dir", tmp_path / "a", "--prefix", "r"])
        run(argv + ["--out-dir", tmp_path / "b", "--prefix", "r"])
        first = (tmp_path / "a" / "r_series.csv").read_bytes()
        second = (tmp_path / "b" / "r_series.csv").read_bytes()
        assert first == second

    def test_unresolvable_phases_are_refused(self, tmp_path, capsys):
        # phases of ~1e300 rad leave no information in the mode sums
        code = run(["evolve", "--paper-defaults", "--n", 32, "--t-max", 1e300,
                    "--points", 5, "--out-dir", tmp_path, "--prefix", "e"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "phases" in err
        assert "Traceback" not in err
        assert not (tmp_path / "e_series.csv").exists()

    def test_huge_beta_runs_without_warnings(self, tmp_path):
        argv = ["evolve", "--paper-defaults", "--n", "10", "--beta", "1e300",
                "--out-dir", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(qbmlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qbmlab.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "evolve_series.csv").exists()

    def test_error_line_prints_plain_floats(self, tmp_path, capsys):
        # omega_sub far above a narrow band: the weights miss closure at 1e-8
        code = run(["evolve", "--paper-defaults", "--n", 32, "--obs", "N_omega",
                    "--omega", 1e6, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: weights sum to 0.99")
        assert "np.float64(" not in err and "Traceback" not in err

    def test_occupation_diagnostics(self, tmp_path):
        run(["evolve", "--paper-defaults", "--n", 32, "--points", 11, "--obs", "N_omega",
             "--out-dir", tmp_path, "--prefix", "n"])
        run(["evolve", "--paper-defaults", "--n", 32, "--points", 11, "--obs", "P_surv",
             "--out-dir", tmp_path, "--prefix", "p"])
        modes = qbmlab.solve_normal_modes(qbmlab.paper_default_model(32))
        closure = abs(math.fsum(modes.weights.tolist()) - 1.0)
        diagnostics = read_manifest(tmp_path / "n_manifest.json")["diagnostics"]
        assert diagnostics["weight_sum_error"] == closure
        form = diagnostics["occupation_form"]
        assert set(form) == {"kind", "degree", "fit_residual", "error_bound"}
        assert form["kind"] == "chebyshev" and 0 <= form["degree"] < 31
        assert 0.0 <= form["fit_residual"] <= form["error_bound"] <= 1e-14
        # no occupation sum ran: only the closure is reported
        diagnostics = read_manifest(tmp_path / "p_manifest.json")["diagnostics"]
        assert "occupation_form" not in diagnostics
        assert diagnostics["weight_sum_error"] == closure

    def test_unknown_observable_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["evolve", "--paper-defaults", "--n", 10, "--obs", "energy",
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qbmlab evolve" in err and "qbmlab evolve: error:" in err


class TestLangevin:
    def test_columns_and_validity_flag(self, tmp_path):
        code = run(["langevin", "--paper-defaults", "--n", 10, "--t-max", 50,
                    "--points", 41, "--out-dir", tmp_path, "--prefix", "l"])
        assert code == 0
        rows = (tmp_path / "l_langevin.csv").read_text().splitlines()
        assert rows[0] == "t,a,b,delta,omega_sq,gamma,valid"
        first = rows[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-10)  # a(0)
        assert first[6] == "1"

    def test_invalid_sample_row_and_count(self, tmp_path):
        # modes 0.9 and 1.1 of equal weight: the wronskian vanishes at t = pi/0.2, sample 8
        cfg = tmp_path / "model.txt"
        cfg.write_text("omega_sub = 1.0\n[bath]\n1.0  0.1\n")
        code = run(["langevin", "--config", cfg, "--t-max", 31.41592653589793,
                    "--points", 17, "--out-dir", tmp_path, "--prefix", "i"])
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "i_langevin.csv").read_text().splitlines()[1:]]
        assert len(rows) == 17
        assert rows[8][4:] == ["", "", "0"]
        assert all(r[6] == "1" and r[4] and r[5] for i, r in enumerate(rows) if i != 8)
        assert read_manifest(tmp_path / "i_manifest.json")["invalid_samples"] == 1


class TestRecurrence:
    def test_report_fields(self, tmp_path):
        code = run(["recurrence", "--paper-defaults", "--n", 32, "--points", 3001,
                    "--out-dir", tmp_path, "--prefix", "r"])
        assert code == 0
        report = json.loads((tmp_path / "r_recurrence.json").read_text())
        for key in ("t_poincare", "min_gap", "peaks", "gamma_fit", "residual",
                    "plateau"):
            assert key in report
        assert report["t_poincare"] == pytest.approx(11190, rel=0.05)
        assert len(report["peaks"]) >= 2
        first = report["peaks"][0]
        assert set(first) == {"t", "h", "w"}
        assert first["t"] == pytest.approx(report["t_poincare"], rel=0.03)
        diagnostics = read_manifest(tmp_path / "r_manifest.json")["diagnostics"]
        assert diagnostics["occupation_form"]["kind"] == "chebyshev"
        assert 0.0 <= diagnostics["weight_sum_error"] < 1e-12

    def test_wide_cold_bath_records_the_dense_sum(self, tmp_path):
        # occupancies no low-degree polynomial resolves: N_omega is summed densely
        wide = qbmlab.SpectralModel(1.0, 20.0, 1.0, np.linspace(0.05, 3.0, 63),
                                    np.full(63, 0.01))
        cfg = tmp_path / "wide.txt"
        qbmlab.save_model(wide, cfg)
        assert run(["evolve", "--config", cfg, "--obs", "N_omega", "--points", 11,
                    "--out-dir", tmp_path, "--prefix", "e"]) == 0
        assert run(["recurrence", "--config", cfg, "--points", 501,
                    "--out-dir", tmp_path, "--prefix", "r"]) == 0
        modes = qbmlab.solve_normal_modes(wide)
        series = qbmlab.evolve_series(modes, qbmlab.InitialState.thermal(wide),
                                      qbmlab.TimeGrid(0.0, 1.0, 3), ["N_omega"])
        assert series.occupation_form == {"kind": "dense", "degree": None,
                                          "fit_residual": None, "error_bound": None}
        for prefix in "er":
            manifest = read_manifest(tmp_path / f"{prefix}_manifest.json")
            assert manifest["diagnostics"]["occupation_form"] == series.occupation_form

    def test_occupation_certificate_is_built_once_per_use(self, tmp_path, monkeypatch):
        calls = []
        build = dynamics._occupation_form

        def counted(*args):
            calls.append(args)
            return build(*args)

        # count every call, through whichever module binds the name
        for module in (dynamics, qbmlab.cli):
            if hasattr(module, "_occupation_form"):
                monkeypatch.setattr(module, "_occupation_form", counted)
        # the series' form also gives the plateau; the manifest reads its record
        assert run(["recurrence", "--paper-defaults", "--n", 32, "--points", 501,
                    "--out-dir", tmp_path]) == 0
        assert len(calls) == 1
        calls.clear()
        assert run(["evolve", "--paper-defaults", "--n", 32, "--points", 11,
                    "--obs", "N_omega", "--out-dir", tmp_path]) == 0
        assert len(calls) == 1


class TestContinuum:
    def test_json_payload_and_survival_csv(self, tmp_path):
        code = run(["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                    "--peak", 5e-4, "--half-width", 0.05,
                    "--survival-t-max", 200, "--survival-points", 5,
                    "--out-dir", tmp_path, "--prefix", "c"])
        assert code == 0
        payload = json.loads((tmp_path / "c_continuum.json").read_text())
        assert payload["gamma"] == pytest.approx(2 * np.pi * 5e-4, rel=1e-12)
        assert abs(payload["delta_omega"]) < 1e-10
        assert payload["z0"]["im"] == pytest.approx(-np.pi * 5e-4, rel=1e-12)
        assert payload["cpc"]["pass"] is True
        rows = (tmp_path / "c_survival.csv").read_text().splitlines()
        assert rows[0] == "t,p_survival"
        assert float(rows[1].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_ullersma_density_flag(self, tmp_path):
        code = run(["continuum", "--density", "ullersma", "--band", 0.001, 5.0,
                    "--c1", 0.3, "--out-dir", tmp_path, "--prefix", "u"])
        assert code == 0
        payload = json.loads((tmp_path / "u_continuum.json").read_text())
        g2 = 0.3**2 / 2.0  # c1^2 W^2/(c2^2+W^2) at W = c2 = 1
        assert payload["gamma"] == pytest.approx(2 * np.pi * g2, rel=1e-12)

    def test_unbounded_survival_span_is_refused(self, tmp_path, capsys):
        # 2.5e6 panels at t_max = 1e6: the weight table alone would need 1e11 node pairs
        start = time.perf_counter()
        code = run(["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                    "--peak", 5e-4, "--half-width", 0.05, "--survival-t-max", 1e6,
                    "--out-dir", tmp_path, "--prefix", "c"])
        assert time.perf_counter() - start < 20.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bound" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c_survival.csv").exists()

    def test_survival_is_summed_on_a_time_grid(self, tmp_path, monkeypatch):
        # the README command's 401 times reach the survival sum as the grid they are
        seen = []

        def spy(cm, t):
            seen.append(t)
            return qbmlab.survival_amplitude_continuum(cm, t)

        monkeypatch.setattr(qbmlab.cli, "survival_amplitude_continuum", spy)
        assert run(["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                    "--peak", 5e-4, "--half-width", 0.05, "--survival-t-max", 1000,
                    "--out-dir", tmp_path]) == 0
        assert seen == [qbmlab.TimeGrid(t0=0.0, dt=2.5, count=401)]
        rows = (tmp_path / "continuum_survival.csv").read_text().splitlines()
        assert rows[-1].startswith("1000,")

    @pytest.mark.parametrize("t_max", [0, -5])
    def test_survival_span_must_be_positive(self, tmp_path, capsys, t_max):
        code = run(["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                    "--peak", 5e-4, "--half-width", 0.05, "--survival-t-max", t_max,
                    "--out-dir", tmp_path, "--prefix", "c"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "c_survival.csv").exists()

    def test_missing_density_parameters(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: qbmlab continuum" in err and "qbmlab continuum: error:" in err

    @pytest.mark.parametrize("flags", [
        ["--density", "lorentzian", "--peak", 5e-4, "--half-width", 1e300],
        ["--density", "ullersma", "--c1", 1e200],
    ])
    def test_overflowing_density_is_refused(self, tmp_path, capsys, flags):
        # the squared parameter overflows; the density check refuses it
        code = run(["continuum", "--band", 0.5, 1.5, *flags, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spectral density" in err
        assert "Traceback" not in err

    def test_readme_command_runs_without_scipy(self, tmp_path):
        # the package needs numpy only: the README continuum command with scipy blocked
        argv = ["continuum", "--density", "lorentzian", "--band", "0.5", "1.5",
                "--peak", "5e-4", "--half-width", "0.05", "--survival-t-max", "1000",
                "--out-dir", str(tmp_path)]
        code = ("import sys; sys.modules['scipy'] = None; "
                f"from qbmlab.cli import main; sys.exit(main({argv!r}))")
        env = dict(os.environ, PYTHONPATH=str(Path(qbmlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "continuum_survival.csv").read_text().splitlines()
        assert rows[0] == "t,p_survival" and len(rows) == 402


class TestSweep:
    def test_rows_and_rescaled_series(self, tmp_path):
        code = run(["sweep", "--n-list", "10,32", "--rescaled-series",
                    "--points", 601, "--out-dir", tmp_path, "--prefix", "w"])
        assert code == 0
        rows = (tmp_path / "w_sweep.csv").read_text().splitlines()
        assert rows[0] == "n_plus_1,t_poincare,min_gap,plateau,gamma_fit,gamma_width"
        assert len(rows) == 3
        assert rows[1].startswith("10,")
        assert rows[2].startswith("32,")
        rescaled = (tmp_path / "w_n32_rescaled.csv").read_text().splitlines()
        assert rescaled[0] == "t_over_tp,N_omega"
        # the plot's x axis is the CSV's first column
        script = (tmp_path / "w_sweep.gp").read_text().splitlines()
        assert "set xlabel 'n_plus_1'" in script
        assert script[-1] == "plot 'w_sweep.csv' using 1:2 with lines title 't_poincare'"
        manifest = read_manifest(tmp_path / "w_manifest.json")
        assert manifest["status"] == "ok"
        assert [d["n_plus_1"] for d in manifest["diagnostics"]] == [10, 32]
        for member in manifest["diagnostics"]:
            assert set(member) == {"n_plus_1", "occupation_form", "weight_sum_error"} | {
                "secular_evaluations", "safeguard_fallbacks", "min_pole_offset",
                "tabulated_clusters", "exact_clusters", "chebyshev_points",
                "far_field_bound", "residual_ratio", "audit_residual_error",
                "audit_weight_error"}
            assert member["occupation_form"]["kind"] == "chebyshev"

    def test_member_diagnostics_match_a_solo_recurrence_run(self, tmp_path):
        grid = ["--t-max", 900.0, "--points", 301, "--out-dir", tmp_path]
        assert run(["sweep", "--n-list", "32", "--prefix", "w", *grid]) == 0
        assert run(["recurrence", "--paper-defaults", "--n", 32, "--prefix", "r", *grid]) == 0
        member, = read_manifest(tmp_path / "w_manifest.json")["diagnostics"]
        solo = read_manifest(tmp_path / "r_manifest.json")["diagnostics"]
        assert member == {"n_plus_1": 32, **solo}
        rows = (tmp_path / "w_sweep.csv").read_text().splitlines()
        report = json.loads((tmp_path / "r_recurrence.json").read_text())
        assert float(rows[1].split(",")[3]) == report["plateau"]

    def test_repeated_sizes_run_once(self, tmp_path, capsys):
        assert run(["sweep", "--n-list", "10,10", "--rescaled-series", "--points", 301,
                    "--out-dir", tmp_path, "--prefix", "dup"]) == 0
        rows = (tmp_path / "dup_sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("10,")
        manifest = read_manifest(tmp_path / "dup_manifest.json")
        assert manifest["outputs"] == ["dup_sweep.csv", "dup_n10_rescaled.csv", "dup_sweep.gp"]
        assert [d["n_plus_1"] for d in manifest["diagnostics"]] == [10]
        wrote, = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("wrote ")]
        assert wrote.count("dup_n10_rescaled.csv") == 1

    def test_a_bug_in_a_member_raises(self, tmp_path, monkeypatch):
        # only known errors end a sweep with its earlier rows kept; a bug is a traceback
        def broken(*args, **kwargs):
            raise TypeError("broken analysis")

        monkeypatch.setattr(qbmlab.cli, "analyze", broken)
        with pytest.raises(TypeError, match="broken analysis"):
            run(["sweep", "--n-list", "10,32", "--points", 301,
                 "--out-dir", tmp_path, "--prefix", "bug"])
        assert list(tmp_path.iterdir()) == []

    def test_single_member_matches_solo_run(self, tmp_path):
        run(["sweep", "--n-list", "10", "--points", 301,
             "--out-dir", tmp_path, "--prefix", "one"])
        rows = (tmp_path / "one_sweep.csv").read_text().splitlines()
        assert len(rows) == 2
        t_p = float(rows[1].split(",")[1])
        import qbmlab
        modes = qbmlab.solve_normal_modes(qbmlab.paper_default_model(10))
        assert t_p == qbmlab.poincare_time(modes).t_poincare

    def test_failure_aborts_with_partial_results(self, tmp_path):
        code = run(["sweep", "--n-list", "10,11,32", "--points", 301,
                    "--out-dir", tmp_path, "--prefix", "bad"])
        assert code == 1
        rows = (tmp_path / "bad_sweep.csv").read_text().splitlines()
        assert len(rows) == 2  # header + the one member that finished
        manifest = read_manifest(tmp_path / "bad_manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failed_member"]["n_plus_1"] == 11


class TestValidate:
    def test_reference_model_passes(self, tmp_path, capsys):
        assert run(["validate", "--paper-defaults", "--n", 32,
                    "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_overcoupled_model_fails_with_exit_one(self, tmp_path, capsys):
        code = run(["validate", "--paper-defaults", "--n", 32, "--d-over-a", 20,
                    "--out-dir", tmp_path])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "positivity" in captured.out + captured.err

    def test_manifest_records_the_check_solve_records(self, tmp_path):
        # an overcoupled model: validate exits 1 and still writes its manifest
        for command, code in (("solve", 0), ("validate", 1)):
            assert run([command, "--paper-defaults", "--n", 32, "--d-over-a", 20,
                        "--out-dir", tmp_path, "--prefix", command]) == code
        solved = read_manifest(tmp_path / "solve_manifest.json")
        checked = read_manifest(tmp_path / "validate_manifest.json")
        assert checked["dissipation"] == solved["dissipation"]
        assert checked["dissipation"]["passes"] == [False, False]
        assert checked["outputs"] == []

    def test_takes_no_solver_option(self, tmp_path, capsys):
        # validate solves nothing: no --rel-tol, and no tolerance in its manifest
        with pytest.raises(SystemExit) as exc:
            run(["validate", "--paper-defaults", "--n", 10, "--rel-tol", 1e-12,
                 "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err
        assert run(["validate", "--paper-defaults", "--n", 10, "--out-dir", tmp_path]) == 0
        manifest = read_manifest(tmp_path / "validate_manifest.json")
        assert manifest["tolerances"] == {}
        assert "--rel-tol" not in manifest["argv_effective"]

    def test_failing_config_file(self, tmp_path, capsys):
        import qbmlab
        cfg = tmp_path / "bad_model.txt"
        qbmlab.save_model(qbmlab.paper_default_model(32, d_over_a=20.0), cfg)
        assert run(["validate", "--config", cfg, "--out-dir", tmp_path]) == 1


# one small run per subcommand that writes a manifest (argv[0]), and its manifest keys
RERUNS = {
    "solve": (["solve", "--paper-defaults", "--n", 10],
              {"dissipation", "model", "derived", "diagnostics"}),
    "evolve": (["evolve", "--paper-defaults", "--n", 10, "--t-max", 120, "--points", 61,
                "--obs", "N_omega,P_surv,X_mean", "--x0", 0.3, "--p0", -0.2],
               {"model", "derived", "diagnostics"}),
    "langevin": (["langevin", "--paper-defaults", "--n", 10, "--t-max", 50, "--points", 41],
                 {"model", "derived", "diagnostics", "invalid_samples"}),
    "recurrence": (["recurrence", "--paper-defaults", "--n", 10, "--points", 501,
                    "--threshold", 0.4],
                   {"model", "derived", "diagnostics"}),
    "continuum": (["continuum", "--density", "lorentzian", "--band", 0.5, 1.5,
                   "--peak", 5e-4, "--half-width", 0.05, "--survival-t-max", 200,
                   "--survival-points", 5],
                  {"density", "band"}),
    # a negative value in exponent form, as argv_effective writes it, parses back
    "evolve-negative-p0": (["evolve", "--paper-defaults", "--n", 10, "--t-max", 50,
                            "--points", 11, "--obs", "X_mean", "--p0", -1e-05],
                           {"model", "derived", "diagnostics"}),
    "sweep": (["sweep", "--n-list", "10,12", "--rescaled-series", "--points", 301,
               "--beta", 2.0],
              {"convention", "status", "failed_member", "diagnostics"}),
    "validate": (["validate", "--paper-defaults", "--n", 10], {"dissipation"}),
}
COMMON_KEYS = {"command", "argv_effective", "version", "generated_at", "tolerances",
               "outputs"}
# each subcommand's fixed tolerances, and the recurrence run's --threshold
TOLERANCES = {
    "solve": {"rel_tol": 1e-13},
    "evolve": {"rel_tol": 1e-13},
    "evolve-negative-p0": {"rel_tol": 1e-13},
    "langevin": {"rel_tol": 1e-13, "wronskian_tol": 1e-12},
    "recurrence": {"rel_tol": 1e-13, "threshold": 0.4},
    "continuum": {"quad_tol": 1e-10},
    "sweep": {"rel_tol": 1e-13},
    "validate": {},
}


class TestManifest:
    @pytest.mark.parametrize("command", sorted(RERUNS))
    def test_rerun_from_manifest_argv(self, tmp_path, capsys, command):
        argv, extra_keys = RERUNS[command]
        assert run(argv + ["--out-dir", tmp_path / "a", "--prefix", "m"]) == 0
        manifest = read_manifest(tmp_path / "a" / "m_manifest.json")
        assert set(manifest) == COMMON_KEYS | extra_keys
        assert manifest["command"] == argv[0]
        assert manifest["tolerances"] == TOLERANCES[command]
        # one line names every file the run wrote, the manifest last
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == ["wrote " + ", ".join(
            str(tmp_path / "a" / name) for name in manifest["outputs"] + ["m_manifest.json"])]
        rerun = list(manifest["argv_effective"])
        rerun[rerun.index("--out-dir") + 1] = str(tmp_path / "b")
        assert run(rerun) == 0
        outputs = manifest["outputs"]
        assert outputs == read_manifest(tmp_path / "b" / "m_manifest.json")["outputs"]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
            outputs + ["m_manifest.json"])
        for name in outputs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
    @pytest.mark.parametrize("flag", ["--rel-tol", "--quad-tol", "--wronskian-tol"])
    def test_tolerances_are_not_options(self, tmp_path, capsys, command, flag):
        argv = RERUNS[command][0]
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, 1e-12, "--out-dir", tmp_path])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
    def test_every_option_is_named_after_its_dest(self, command):
        sub = _subparsers(build_parser())[command]
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                assert "--" + action.dest.replace("_", "-") in action.option_strings


def _typed_options():
    """(subcommand, flag, nargs, type) for every typed option of every subcommand."""
    for command, sub in _subparsers(build_parser()).items():
        for action in sub._actions:
            if action.type is not None:
                yield command, action.option_strings[-1], action.nargs or 1, action.type


# values each checked type must refuse
BAD_VALUES = {
    _finite_float: ("nan", "inf", "-inf"),
    _positive_int: ("0", "-3", "2.5"),
}


class TestInputBoundary:
    def test_every_numeric_flag_uses_a_checked_type(self):
        types = {t for *_, t in _typed_options()}
        assert types == set(BAD_VALUES)

    @pytest.mark.parametrize("command,flag,nargs,kind", list(_typed_options()))
    def test_invalid_numbers_are_usage_errors(self, tmp_path, capsys, command, flag,
                                              nargs, kind):
        for bad in BAD_VALUES[kind]:
            values = [bad] + ["1.5"] * (nargs - 1)
            with pytest.raises(SystemExit) as exc:
                run([command, flag, *values, "--out-dir", tmp_path])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"error: argument {flag}" in err
            assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_model_file_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "model.txt"
        cfg.write_text("omega_sub = 1.0\nbeta = nan\n[bath]\n0.9 0.05\n1.1 0.05\n")
        assert run(["solve", "--config", cfg, "--out-dir", tmp_path]) == 1
        assert "beta must be finite" in capsys.readouterr().err


def readme_block(heading, language):
    """The first ``language`` code block of README after ``heading``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def readme_quick_start():
    """The commands of README's Quick-start sh block, continuation lines joined."""
    block = readme_block("## Quick start", "sh")
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines]


class TestReadme:
    """README Quick-start commands, the ones the end-to-end numbers are quoted for."""

    def test_quick_start_block_is_found(self):
        commands = readme_quick_start()
        assert len(commands) >= 7
        assert all(argv[0] == "qbmlab" for argv in commands)
        assert {argv[1] for argv in commands} >= set(_subparsers(build_parser()))

    @pytest.mark.parametrize("argv", readme_quick_start(), ids=lambda a: a[1])
    def test_quick_start_command_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # validate's documented example is an overcoupled model: exit 1 by design
        assert main(argv[1:]) == (1 if argv[1] == "validate" else 0)
        assert "Traceback" not in capsys.readouterr().err

    def test_library_sketch_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sketch = readme_block("## Library sketch", "python")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(sketch, "README.md", "exec"), {})
