"""Property test of the CLI's float flags: parsing only, no command runs.

For every flag of type ``_finite_float`` and any finite float, ``--flag <repr>``
and ``--flag=<repr>`` parse to that value, and parse -> argv_effective -> parse
is the identity on the whole namespace.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qbmlab.cli import _argv_effective, _finite_float, _subparsers, build_parser  # noqa: E402

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
