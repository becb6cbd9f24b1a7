"""Command-line front end: batch runs, CSV/JSON artifacts, and run manifests.

Every subcommand takes one path.  Its handler ``_cmd_<name>(args, parser)``,
bound to its subparser as ``run``, writes the run's data files and returns
(exit code, paths written, manifest fields).  ``main`` then writes the
manifest, recording the exact model parameters, conventions, and tolerances
that shaped the numbers, and an effective argument vector from which the run
can be repeated verbatim; it prints one ``wrote ...`` line naming every file.
A known error, from a bad model to an unwritable output directory, ends the
run with ``error: ...`` and exit 1 instead.  Identical inputs produce
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .continuum import (
    QUAD_TOL,
    lorentzian_density,
    pole_estimate,
    survival_amplitude_continuum,
    ullersma_density,
    validate_continuum,
    width_from_discrete,
)
from .dynamics import OBSERVABLES, TimeGrid, evolve_series
from .eigensolve import REL_TOL, solve_normal_modes
from .langevin import WRONSKIAN_TOL, langevin_table
from .model import (
    InitialState,
    ModelError,
    QbmlabError,
    SpectralModel,
    load_model,
    paper_default_model,
    thermal_occupancy,
    validate_dissipation,
)
from .recurrence import analyze, poincare_time

# errors that end a run with "error: ..." and exit 1: the package's refusals, OSError for
# unreadable model files or unwritable output directories, MemoryError for unallocatable counts
_KNOWN_ERRORS = (QbmlabError, OSError, MemoryError)


def _fmt(value: float) -> str:
    """17 significant digits; non-finite values become empty fields."""
    return format(value, ".17g") if math.isfinite(value) else ""


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV column per entry of ``columns``, all of equal length.

    Every column is written as floats: ints and bools print as integers, and
    None (NaN as a float) prints as an empty field, like any non-finite value.
    A row of finite values is formatted by one %-operation, the same digits
    as ``_fmt``; only rows holding a non-finite value go through ``_fmt``.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    row_fmt = ",".join(["%.17g"] * table.shape[1])
    finite = np.isfinite(table).all(axis=1).tolist()
    lines = [",".join(columns)]
    lines += [row_fmt % tuple(row) if ok else ",".join(map(_fmt, row))
              for row, ok in zip(table.tolist(), finite)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _write_plot_script(path: Path, csv_name: str, columns: list[str], title: str) -> None:
    """Gnuplot script plotting CSV columns 2.. of ``columns`` against column 1, the x axis."""
    plots = ", ".join(
        f"'{csv_name}' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(columns[1:])
    )
    path.write_text(
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set key autotitle columnhead\n"
        f"set xlabel '{columns[0]}'\n"
        f"plot {plots}\n",
        encoding="utf-8",
    )


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent form as a value.

    Python 3.11's argparse takes only -5 and -0.5 as negative numbers, so
    ``--p0 -1e-05``, the form repr() and argv_effective write, ended the
    option's arguments with "expected one argument".  Subparsers are built
    from the same class, so the one pattern serves every subcommand.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of counts such as --n and --points."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# --- model construction from flags -------------------------------------------

def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="model file (key = value lines plus a [bath] section)")
    sub.add_argument("--paper-defaults", action="store_true",
                     help="equidistant band of width 0.018 with Lorentzian couplings, D = A")
    sub.add_argument("--n", type=_positive_int,
                     help="total oscillator count N+1 for --paper-defaults")
    _add_paper_model_args(sub)


def _add_paper_model_args(sub: argparse.ArgumentParser) -> None:
    """Parameters of the --paper-defaults family, shared with sweep."""
    sub.add_argument("--convention", choices=("prose", "formula"), default="prose",
                     help="band-width reading: spacing = width/(N-2) or width/(N-1)")
    sub.add_argument("--band-width", type=_finite_float, default=0.018)
    sub.add_argument("--d-over-a", type=_finite_float, default=1.0,
                     help="coupling peak in units of the grid spacing")
    sub.add_argument("--omega", type=_finite_float, default=None, help="subsystem frequency")
    sub.add_argument("--beta", type=_finite_float, default=None, help="inverse temperature")
    sub.add_argument("--kappa", type=_finite_float, default=None,
                     help="initial subsystem quanta")


def _model_overrides(args) -> dict:
    """--omega, --beta and --kappa as model fields, where given."""
    given = {"omega_sub": args.omega, "beta": args.beta, "kappa": args.kappa}
    return {name: value for name, value in given.items() if value is not None}


def _paper_model(args, n_plus_1: int) -> SpectralModel:
    return paper_default_model(n_plus_1, convention=args.convention,
                               band_width=args.band_width, d_over_a=args.d_over_a,
                               **_model_overrides(args))


def _resolve_model(args, parser: argparse.ArgumentParser) -> SpectralModel:
    if args.config and args.paper_defaults:
        parser.error("--config and --paper-defaults are mutually exclusive")
    if args.config:
        return dataclasses.replace(load_model(args.config), **_model_overrides(args))
    if args.paper_defaults:
        if args.n is None:
            parser.error("--paper-defaults requires --n")
        return _paper_model(args, args.n)
    parser.error("give either --config or --paper-defaults")


def _solved(args, model: SpectralModel):
    """The solved model and its manifest fields: model, derived scales, solver
    effort, and the solver's tolerance."""
    modes = solve_normal_modes(model)
    tp = poincare_time(modes)
    derived = {
        "t_poincare": tp.t_poincare,
        "min_gap": tp.min_gap,
        "coupling_peak": float(np.abs(model.couplings).max()),
    }
    source = getattr(args, "config", None)  # sweep members have no --config
    if source is None:
        n_osc = model.n_osc
        derived["spacing_prose"] = args.band_width / (n_osc - 2)
        derived["spacing_formula"] = args.band_width / (n_osc - 1)
        derived["lorentz_half_width"] = derived[
            "spacing_prose" if args.convention == "prose" else "spacing_formula"
        ] * (n_osc - 2) / 2.0
    if model.uniform_spacing() is not None:
        derived["gamma_width"] = width_from_discrete(model)
    return modes, {
        "tolerances": {"rel_tol": REL_TOL},
        "model": {
            "source": str(source) if source else "paper-defaults",
            "omega_sub": model.omega_sub,
            "beta": model.beta,
            "kappa": model.kappa,
            "mass": model.mass,
            "n_osc": model.n_osc,
            "band_width": model.band_width,
            "spacing": model.uniform_spacing(),
        },
        "derived": derived,
        "diagnostics": {  # every NormalModes field with a default is a solver diagnostic
            **{f.name: getattr(modes, f.name) for f in dataclasses.fields(modes)
               if f.default is not dataclasses.MISSING},
            "weight_sum_error": abs(math.fsum(modes.weights.tolist()) - 1.0),
        },
    }


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _argv_effective(args, sub: argparse.ArgumentParser) -> list[str]:
    """Subcommand plus every option of ``sub`` that has a value, as --dest-with-dashes."""
    argv = [args.command]
    for action in sub._actions:
        value = getattr(args, action.dest, None)
        if not action.option_strings or value is None or value is False:
            continue
        flag = "--" + action.dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            values = value if isinstance(value, list) else [value]
            argv += [flag, *(_fmt(v) if isinstance(v, float) else str(v) for v in values)]
    return argv


def _write_manifest(args, parser, written: list[Path], **fields) -> Path:
    """Write <prefix>_manifest.json: how to repeat the run and what it produced.

    ``fields`` come from the subcommand's handler, ``tolerances`` among them.
    """
    payload = {
        "command": args.command,
        "argv_effective": _argv_effective(args, parser),
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "outputs": [path.name for path in written],
        **fields,
    }
    path = _out(args, "_manifest.json")
    _write_json(path, payload)
    return path


def _out(args, suffix: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{args.prefix}{suffix}"


def _add_output_args(sub: argparse.ArgumentParser, default_prefix: str) -> None:
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument("--prefix", default=default_prefix, help="output file name prefix")


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t0", type=_finite_float, default=0.0)
    sub.add_argument("--t-max", type=_finite_float, default=None)
    sub.add_argument("--points", type=_positive_int, default=2001)


def _make_grid(args, fallback_t_max: float) -> TimeGrid:
    t0 = getattr(args, "t0", 0.0)  # sweep grids start at 0
    t_max = args.t_max if args.t_max is not None else fallback_t_max
    if t_max <= t0:
        raise ModelError(f"t_max = {t_max} must exceed t0 = {t0}")
    return TimeGrid(t0=t0, dt=(t_max - t0) / max(args.points - 1, 1), count=args.points)


# --- subcommands --------------------------------------------------------------

_Run = tuple[int, list[Path], dict]  # exit code, paths written, manifest fields


def _recurrence_report(args, modes, fallback_t_max: float, **analyze_kw):
    """N_omega of the thermal state over the run's grid, and its recurrence report."""
    series = evolve_series(modes, InitialState.thermal(modes.model),
                           _make_grid(args, fallback_t_max), ["N_omega"])
    return series, analyze(modes, series, "N_omega", **analyze_kw)


def _cmd_solve(args, parser) -> _Run:
    modes, record = _solved(args, _resolve_model(args, parser))
    csv_path = _out(args, "_modes.csv")
    _write_csv(csv_path, {"nu": np.arange(modes.n_modes), "alpha": modes.alphas,
                          "weight": modes.weights, "residual": modes.residuals})
    record["dissipation"] = dataclasses.asdict(validate_dissipation(modes.model))
    return 0, [csv_path], record


def _cmd_evolve(args, parser) -> _Run:
    observables = list(dict.fromkeys(o.strip() for o in args.obs.split(",") if o.strip()))
    unknown = [o for o in observables if o not in OBSERVABLES]
    if unknown:
        parser.error(f"unknown observables {unknown}; choose from {OBSERVABLES}")
    modes, record = _solved(args, _resolve_model(args, parser))
    grid = _make_grid(args, fallback_t_max=record["derived"]["t_poincare"] / 2.0)
    series = evolve_series(modes, InitialState.thermal(modes.model), grid, observables,
                           x0=args.x0, p0=args.p0)
    csv_path = _out(args, "_series.csv")
    _write_csv(csv_path, {"t": series.times, **series.columns})
    plot_path = _out(args, "_series.gp")
    _write_plot_script(plot_path, csv_path.name, ["t", *observables], "mean-value evolution")
    if series.occupation_form is not None:
        record["diagnostics"]["occupation_form"] = series.occupation_form
    return 0, [csv_path, plot_path], record


def _cmd_langevin(args, parser) -> _Run:
    modes, record = _solved(args, _resolve_model(args, parser))
    grid = _make_grid(args, fallback_t_max=500.0 / modes.model.omega_sub)
    table = langevin_table(modes, grid)
    csv_path = _out(args, "_langevin.csv")
    _write_csv(csv_path, {"t": table.times, **table.columns, "valid": table.valid})
    record["invalid_samples"] = int(np.count_nonzero(~table.valid))
    record["tolerances"]["wronskian_tol"] = WRONSKIAN_TOL
    return 0, [csv_path], record


def _cmd_recurrence(args, parser) -> _Run:
    modes, record = _solved(args, _resolve_model(args, parser))
    series, report = _recurrence_report(args, modes, 3.0 * record["derived"]["t_poincare"],
                                        threshold=args.threshold)
    payload = {
        "t_poincare": report.t_poincare,
        "min_gap": report.min_gap,
        "peaks": [{"t": p.time, "h": p.height, "w": p.width} for p in report.peaks],
        "peak_spacing": report.peak_spacing,
        "gamma_fit": report.gamma_fit,
        "residual": report.fit_residual,
        "fit_window": list(report.fit_window) if report.fit_window else None,
        "plateau": report.plateau,
    }
    json_path = _out(args, "_recurrence.json")
    _write_json(json_path, payload)
    record["diagnostics"]["occupation_form"] = series.occupation_form
    record["tolerances"]["threshold"] = args.threshold
    return 0, [json_path], record


def _continuum_model(args, parser):
    lo, hi = args.band
    if args.density == "lorentzian":
        if args.peak is None or args.half_width is None:
            parser.error("lorentzian density needs --peak and --half-width")
        return lorentzian_density(args.peak, args.half_width, args.omega, lo, hi,
                                  beta=args.beta)
    if args.c1 is None:
        parser.error("ullersma density needs --c1 (and optionally --c2)")
    c2 = args.c2 if args.c2 is not None else args.omega
    return ullersma_density(args.c1, c2, lo, hi, omega_sub=args.omega, beta=args.beta)


def _cmd_continuum(args, parser) -> _Run:
    cm = _continuum_model(args, parser)
    est = pole_estimate(cm)
    validity = validate_continuum(cm)
    payload = {
        "delta_omega": est.delta_omega,
        "gamma": est.gamma,
        "z0": {"re": est.z0.real, "im": est.z0.imag},
        "cpc": {
            "left": validity.left_value,
            "right": validity.right_value,
            "left_bound": validity.left_bound,
            "right_bound": validity.right_bound,
            "pass": validity.all_pass,
            "diverged": list(validity.diverged),
        },
        "asymptotic_occupation_weak": thermal_occupancy(cm.beta, cm.omega_sub),
    }

    written = []
    if args.survival_t_max is not None:
        ts = np.linspace(0.0, args.survival_t_max, args.survival_points)
        s = survival_amplitude_continuum(cm, ts)
        csv_path = _out(args, "_survival.csv")
        # Python's complex abs and float ** round differently from numpy's in the
        # last bit; they are the arithmetic the survival CSVs have always used
        _write_csv(csv_path, {"t": ts, "p_survival": [abs(v) ** 2 for v in s.tolist()]})
        written.append(csv_path)
        payload["survival_csv"] = csv_path.name

    json_path = _out(args, "_continuum.json")
    _write_json(json_path, payload)
    written.append(json_path)
    return 0, written, {"density": args.density, "band": list(args.band),
                        "tolerances": {"quad_tol": QUAD_TOL}}


def _sweep_member(n_plus_1: int, args):
    """One bath size, solved and analysed as ``recurrence`` does, over 1.5 decay times."""
    modes, record = _solved(args, _paper_model(args, n_plus_1))
    gamma = width_from_discrete(modes.model)
    series, report = _recurrence_report(args, modes, 1.5 / gamma)
    rescaled = None
    if args.rescaled_series:
        rescaled = (series.times / report.t_poincare, series.column("N_omega"))
    return {
        "n_plus_1": n_plus_1,
        "t_poincare": report.t_poincare,
        "min_gap": report.min_gap,
        "plateau": report.plateau,
        "gamma_fit": report.gamma_fit,
        "gamma_width": gamma,
        "rescaled": rescaled,
        "diagnostics": {"n_plus_1": n_plus_1, **record["diagnostics"],
                        "occupation_form": series.occupation_form},
    }


def _cmd_sweep(args, parser) -> _Run:
    try:
        n_values = list(dict.fromkeys(int(v) for v in args.n_list.split(",") if v.strip()))
    except ValueError:
        parser.error(f"cannot parse --n-list {args.n_list!r}")
    if not n_values:
        parser.error("--n-list is empty")

    rows = []
    failed = None
    for n in n_values:
        try:
            rows.append(_sweep_member(n, args))
        except _KNOWN_ERRORS as exc:  # abort but keep earlier rows
            failed = {"n_plus_1": n, "error": str(exc)}
            break

    csv_path = _out(args, "_sweep.csv")
    header = ["n_plus_1", "t_poincare", "min_gap", "plateau", "gamma_fit", "gamma_width"]
    _write_csv(csv_path, {name: [r[name] for r in rows] for name in header})
    written = [csv_path]
    if args.rescaled_series:
        for r in rows:
            ts_scaled, values = r["rescaled"]
            member_path = _out(args, f"_n{r['n_plus_1']}_rescaled.csv")
            _write_csv(member_path, {"t_over_tp": ts_scaled, "N_omega": values})
            written.append(member_path)
    plot_path = _out(args, "_sweep.gp")
    _write_plot_script(plot_path, csv_path.name, header[:2], "recurrence time sweep")
    written.append(plot_path)

    if failed:
        print(f"error: sweep aborted at N+1={failed['n_plus_1']}: {failed['error']}",
              file=sys.stderr)
    fields = {"convention": args.convention, "status": "failed" if failed else "ok",
              "failed_member": failed, "diagnostics": [r["diagnostics"] for r in rows],
              "tolerances": {"rel_tol": REL_TOL}}
    return (1 if failed else 0), written, fields


def _cmd_validate(args, parser) -> _Run:
    model = _resolve_model(args, parser)
    report = validate_dissipation(model, delta=args.delta)
    print(f"left positivity condition:  sum = {report.left_sum:.6g}  "
          f"bound = {report.left_bound:.6g}  -> {'pass' if report.passes[0] else 'FAIL'}")
    print(f"right positivity condition: sum = {report.right_sum:.6g}  "
          f"bound = {report.right_bound:.6g}  -> {'pass' if report.passes[1] else 'FAIL'}")
    if report.d_bound_ratio is not None:
        note = "" if report.d_bound_ratio < 1.0 else \
            "  (conservative guide exceeded; the sum conditions above are decisive)"
        print(f"coupling ratio D/(sqrt(2) A) = {report.d_bound_ratio:.6g}{note}")
    if not report.all_pass:
        print("model violates the positivity conditions; dissipation is not guaranteed",
              file=sys.stderr)
    return (0 if report.all_pass else 1), [], {"dissipation": dataclasses.asdict(report),
                                               "tolerances": {}}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbmlab",
        description="Exact oscillator-bath relaxation laboratory",
    )
    parser.add_argument("--version", action="version", version=f"qbmlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="normal frequencies and weights")
    p_solve.set_defaults(run=_cmd_solve)
    _add_model_args(p_solve)
    _add_output_args(p_solve, "solve")

    p_evolve = subs.add_parser("evolve", help="mean-observable time series")
    p_evolve.set_defaults(run=_cmd_evolve)
    _add_model_args(p_evolve)
    _add_grid_args(p_evolve)
    p_evolve.add_argument("--obs", default="N_omega",
                          help=f"comma-separated subset of {','.join(OBSERVABLES)}")
    p_evolve.add_argument("--x0", type=_finite_float, default=1.0)
    p_evolve.add_argument("--p0", type=_finite_float, default=0.0)
    _add_output_args(p_evolve, "evolve")

    p_lan = subs.add_parser("langevin", help="rotation kernels and damping coefficients")
    p_lan.set_defaults(run=_cmd_langevin)
    _add_model_args(p_lan)
    _add_grid_args(p_lan)
    _add_output_args(p_lan, "langevin")

    p_rec = subs.add_parser("recurrence", help="revival detection and decay fit")
    p_rec.set_defaults(run=_cmd_recurrence)
    _add_model_args(p_rec)
    _add_grid_args(p_rec)
    p_rec.add_argument("--threshold", type=_finite_float, default=0.5)
    _add_output_args(p_rec, "recurrence")

    p_cont = subs.add_parser("continuum", help="dense-bath decay analytics")
    p_cont.set_defaults(run=_cmd_continuum)
    p_cont.add_argument("--density", choices=("lorentzian", "ullersma"),
                        default="lorentzian")
    p_cont.add_argument("--band", type=_finite_float, nargs=2, required=True,
                        metavar=("LO", "HI"))
    p_cont.add_argument("--omega", type=_finite_float, default=1.0)
    p_cont.add_argument("--beta", type=_finite_float, default=1.0)
    p_cont.add_argument("--peak", type=_finite_float, default=None)
    p_cont.add_argument("--half-width", type=_finite_float, default=None)
    p_cont.add_argument("--c1", type=_finite_float, default=None)
    p_cont.add_argument("--c2", type=_finite_float, default=None)
    p_cont.add_argument("--survival-t-max", type=_finite_float, default=None)
    p_cont.add_argument("--survival-points", type=_positive_int, default=401)
    _add_output_args(p_cont, "continuum")

    p_sweep = subs.add_parser("sweep", help="one run per bath size")
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument("--n-list", required=True,
                         help="comma-separated N+1 values, e.g. 10,32,100,500")
    _add_paper_model_args(p_sweep)
    p_sweep.add_argument("--t-max", type=_finite_float, default=None)
    p_sweep.add_argument("--points", type=_positive_int, default=1201)
    p_sweep.add_argument("--rescaled-series", action="store_true",
                         help="also write per-member series against t/t_P")
    _add_output_args(p_sweep, "sweep")

    p_val = subs.add_parser("validate", help="check the positivity conditions")
    p_val.set_defaults(run=_cmd_validate)
    _add_model_args(p_val)
    p_val.add_argument("--delta", type=_finite_float, default=None,
                       help="regulator frequency; defaults to the smallest grid spacing")
    _add_output_args(p_val, "validate")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = _subparsers(parser)[args.command]
    try:  # handlers get their subcommand's parser, so usage errors print its usage
        code, written, fields = args.run(args, sub)
        written.append(_write_manifest(args, sub, written, **fields))
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("wrote " + ", ".join(map(str, written)))
    return code


if __name__ == "__main__":
    sys.exit(main())
