"""Property tests of the CLI's numeric flags.

Parsing: for every flag of type ``_finite_float`` and any finite float,
``--flag <repr>`` and ``--flag=<repr>`` parse to that value, and parse ->
argv_effective -> parse is the identity on the whole namespace.

Whole commands: over hostile values of the numeric flags, every run exits 0,
1 or 2, a failed run prints one error line and no traceback, and a run that
exits 0 writes no non-finite value.
"""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qbmlab.cli import (  # noqa: E402
    _argv_effective,
    _finite_float,
    _subparsers,
    build_parser,
    main,
)

PARSER = build_parser()
# what each subcommand's parser requires besides the flag under test
REQUIRED = {"continuum": ["--band", "0.5", "1.5"], "sweep": ["--n-list", "10"]}


def _float_flags():
    for command, sub in _subparsers(PARSER).items():
        for action in sub._actions:
            if action.type is _finite_float:
                yield command, action.option_strings[-1], action.dest, action.nargs


def _parse(argv):
    # repr() of the namespace tells -0.0 from 0.0, so equal reprs mean identical values
    return repr(vars(PARSER.parse_args(argv)))


@pytest.mark.parametrize("command,flag,dest,nargs", list(_float_flags()))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_float_flag_round_trip(command, flag, dest, nargs, value):
    required = REQUIRED.get(command, [])
    base = [command] + ([] if flag in required else required)
    values = [repr(value)] * (nargs or 1)
    args = PARSER.parse_args(base + [flag, *values])
    parsed = getattr(args, dest)
    assert repr(parsed) == repr([value] * nargs if nargs else value)
    if nargs is None:
        assert _parse(base + [f"{flag}={value!r}"]) == repr(vars(args))
    assert _parse(_argv_effective(args, _subparsers(PARSER)[command])) == repr(vars(args))


# each command's base arguments, with the bath size n and the point count of a
# draw, and the numeric flags drawn on top; small solves and grids keep every
# example to milliseconds
MODEL_FLAGS = ["--band-width", "--d-over-a", "--omega", "--beta", "--kappa"]
GRID_FLAGS = MODEL_FLAGS + ["--t0", "--t-max"]


def _model_argv(n, points):
    return ["--paper-defaults", "--n", str(n)]


def _grid_argv(n, points):
    return _model_argv(n, points) + ["--points", str(points)]


COMMANDS = {
    "solve": (_model_argv, MODEL_FLAGS),
    "evolve": (_grid_argv, GRID_FLAGS + ["--x0", "--p0"]),
    "langevin": (_grid_argv, GRID_FLAGS),
    "recurrence": (_grid_argv, GRID_FLAGS + ["--threshold"]),
    "validate": (_model_argv, MODEL_FLAGS + ["--delta"]),
    "sweep": (lambda n, points: ["--n-list", str(n), "--points", str(points)],
              MODEL_FLAGS + ["--t-max"]),
    "continuum": (lambda n, points: ["--band", "0.5", "1.5", "--peak", "1.0",
                                     "--half-width", "0.1", "--survival-points", str(points)],
                  ["--omega", "--beta", "--peak", "--half-width", "--survival-t-max"]),
}
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-5.0, 5.0).map(repr),
    st.sampled_from(["0", "-1", "1e-300", "1e300", "1e-14", "nan", "inf", "-inf", "x"]),
)


def _non_finite(value) -> bool:
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return isinstance(value, float) and not math.isfinite(value)


def _written_values_finite(out) -> bool:
    for path in out.iterdir():
        if path.suffix == ".json":
            if _non_finite(json.loads(path.read_text(encoding="utf-8"))):
                return False
        elif path.suffix == ".csv":  # an empty field marks a missing value
            rows = path.read_text(encoding="utf-8").splitlines()[1:]
            if not all(math.isfinite(float(v)) for row in rows for v in row.split(",") if v):
                return False
    return True


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_over_numeric_flags(command, tmp_path_factory):
    base, numeric = COMMANDS[command]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(-1, 48), points=st.integers(-1, 120),
           flags=st.dictionaries(st.sampled_from(numeric), NUMBERS, max_size=4))
    def check(n, points, flags):
        out = tmp_path_factory.mktemp(command)
        argv = [command, *base(n, points), "--out-dir", str(out)]
        argv += [f"{flag}={value}" for flag, value in flags.items()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        # an exception that escapes main fails the example with its traceback
        lines = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), argv
        if code == 0:
            assert _written_values_finite(out), argv
        elif code == 2 or not (command == "validate" and lines and
                               lines[-1].startswith("model violates")):
            assert sum(line.startswith("error:") or ": error:" in line
                       for line in lines) == 1, (argv, lines)

    check()
