"""CLI outputs against reference files written before the mode sums were merged.

The files in ``data/golden`` were written by the commands in ``RUNS`` with the
earlier per-observable mode sums.  Tolerances are fixed: 1e-13 absolute on
O(1) columns, 1e-12 relative on N_total, 1e-9 relative on omega_sq and gamma
where the sample is valid and on JSON scalars; the valid flags and the solve
CSV are byte-identical.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qbmlab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

RUNS = {
    "solve32": ["solve", "--paper-defaults", "--n", "32"],
    "evolve32": ["evolve", "--paper-defaults", "--n", "32", "--points", "401",
                 "--obs", "P_surv,N_omega,N_total,X_mean,P_tilde_mean"],
    "langevin32": ["langevin", "--paper-defaults", "--n", "32", "--points", "401"],
    "recurrence32": ["recurrence", "--paper-defaults", "--n", "32"],
    "sweep": ["sweep", "--n-list", "10,32"],
    "continuum": ["continuum", "--density", "lorentzian", "--band", "0.5", "1.5",
                  "--peak", "5e-4", "--half-width", "0.05",
                  "--survival-t-max", "1000", "--survival-points", "41"],
}

ABS_O1 = 1e-13
REL_TOTAL = 1e-12
REL_DERIVED = 1e-9


def run(tmp_path, prefix):
    assert main(RUNS[prefix] + ["--out-dir", str(tmp_path), "--prefix", prefix]) == 0


def read_csv(path):
    """Header and the rows as raw string fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def numeric(rows, j):
    return np.array([float(r[j]) if r[j] else np.nan for r in rows])


def compare_csv(name, tmp_path, tolerances):
    """Compare columns by name: ("abs", tol), ("rel", tol), "exact" or None (skip)."""
    header, rows = read_csv(GOLDEN / name)
    new_header, new_rows = read_csv(tmp_path / name)
    assert new_header == header
    assert len(new_rows) == len(rows)
    for j, col in enumerate(header):
        kind = tolerances[col]
        if kind is None:
            continue
        if kind == "exact":
            assert [r[j] for r in new_rows] == [r[j] for r in rows], col
            continue
        mode, tol = kind
        want, got = numeric(rows, j), numeric(new_rows, j)
        if mode == "abs":
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=col)
        else:
            np.testing.assert_allclose(got, want, rtol=tol, atol=0, err_msg=col)
    return header, rows, new_rows


def compare_json(got, want, path="$"):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            compare_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            compare_json(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=REL_DERIVED, abs=0), path
    else:
        assert got == want, path


def test_solve_csv_byte_identical(tmp_path):
    run(tmp_path, "solve32")
    name = "solve32_modes.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_evolve_all_observables(tmp_path):
    run(tmp_path, "evolve32")
    o1 = ("abs", ABS_O1)
    compare_csv("evolve32_series.csv", tmp_path, {
        "t": "exact", "P_surv": o1, "N_omega": o1, "X_mean": o1, "P_tilde_mean": o1,
        "N_total": ("rel", REL_TOTAL),
    })


def test_langevin_table(tmp_path):
    run(tmp_path, "langevin32")
    o1 = ("abs", ABS_O1)
    header, rows, new_rows = compare_csv("langevin32_langevin.csv", tmp_path, {
        "t": "exact", "a": o1, "b": o1, "delta": o1, "valid": "exact",
        "omega_sq": None, "gamma": None,
    })
    valid = numeric(rows, header.index("valid")) == 1
    assert valid.any()
    for col in ("omega_sq", "gamma"):
        j = header.index(col)
        np.testing.assert_allclose(numeric(new_rows, j)[valid], numeric(rows, j)[valid],
                                   rtol=REL_DERIVED, atol=0, err_msg=col)


def test_recurrence_report(tmp_path):
    run(tmp_path, "recurrence32")
    name = "recurrence32_recurrence.json"
    compare_json(json.loads((tmp_path / name).read_text()),
                 json.loads((GOLDEN / name).read_text()))


def test_sweep_rows(tmp_path):
    run(tmp_path, "sweep")
    rel = ("rel", REL_DERIVED)
    compare_csv("sweep_sweep.csv", tmp_path, {
        "n_plus_1": "exact", "t_poincare": rel, "min_gap": rel, "plateau": rel,
        "gamma_fit": rel, "gamma_width": rel,
    })


def test_continuum_report_and_survival(tmp_path):
    run(tmp_path, "continuum")
    name = "continuum_continuum.json"
    compare_json(json.loads((tmp_path / name).read_text()),
                 json.loads((GOLDEN / name).read_text()))
    compare_csv("continuum_survival.csv", tmp_path,
                {"t": "exact", "p_survival": ("abs", ABS_O1)})
