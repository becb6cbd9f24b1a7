"""The far field of the Cauchy-sum kernel against math.fsum of every term."""

import math

import numpy as np
import pytest

from qbmlab import _cauchy, eigensolve

N = 2047


def quartic(n):
    """Sources crowding quartically toward the middle, as the graded test bath."""
    s = (2 * np.arange(n) + 1 - n) / n
    return 1.0 + 0.009 * s**3 * np.abs(s) + 1e-7 * s


def clumps(n):
    """Two dense clumps of different widths, far apart for their widths."""
    rng = np.random.default_rng(7)
    return np.sort(np.r_[0.3 + 1e-4 * rng.random(n // 2), 0.7 + 1e-3 * rng.random(n - n // 2)])


SOURCES = {
    "uniform": lambda n: np.linspace(0.5, 1.5, n),
    "quartic": quartic,
    "clumps": clumps,
}


def field_of(name):
    """The kernel's clusters as the secular sweeps form them: 2 sqrt(N) sources
    each, box c from source starts[c] to source starts[c + 1]."""
    sources = SOURCES[name](N)
    starts = eigensolve._cluster_edges(N)
    return _cauchy.FarField(sources, starts, sources[np.minimum(starts, N - 1)])


def targets(field, c):
    """The box edges, one ulp on either side of them, and the Chebyshev points."""
    edges = field.bounds[c:c + 2]
    return np.unique(np.r_[edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           field.centres[c] + field.halves[c] * field.cheb])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_far_sums_match_fsum(name):
    """Signed columns and a column shifted per cluster, with their squares, within
    TOL (POINTS TOL for squares) of sum |terms| plus the pairwise rounding the exact
    audit allows."""
    field = field_of(name)
    s = field.sources
    rng = np.random.default_rng(3)
    signed = rng.normal(size=N)
    weights, smooth = rng.uniform(0.5, 1.0, N), np.cos(3.0 * s)
    buf, aux = np.empty(8 * N), np.empty(8 * N)
    limit = eigensolve._audit_limit(N)
    tabulated = 0
    for c, window in enumerate(field.windows):
        if window is None:
            continue
        tabulated += 1
        shifted = weights * (smooth - math.cos(3.0 * field.centres[c]))
        columns = (signed, shifted)
        x = targets(field, c)
        sums = [field.evaluate(c, x, field.table(c, col, buf, aux)) for col in columns]
        parts = (slice(0, window.start), slice(window.stop, N))
        for i, t in enumerate(x.tolist()):
            for side, part in enumerate(parts):
                d = t - s[part]
                for j, col in enumerate(columns):
                    terms, squares = col[part] / d, col[part] / d**2
                    value, square = sums[j][i, side], sums[j][i, 2 + side]
                    assert abs(value - math.fsum(terms.tolist())) <= (
                        (_cauchy.TOL + limit) * np.abs(terms).sum())
                    assert abs(square - math.fsum(squares.tolist())) <= (
                        (_cauchy.POINTS * _cauchy.TOL + limit) * np.abs(squares).sum())
    assert tabulated >= 2


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_windows_are_chosen_by_distance(name):
    """A window holds its cluster and both neighbours, and its nearest far
    source meets the bound; a cluster without a window sees every source."""
    field = field_of(name)
    s, starts = field.sources, field.starts
    count = starts.size - 1
    widened = 0
    for c, window in enumerate(field.windows):
        if window is None:
            continue
        assert window.start <= starts[max(c - 1, 0)] and window.stop >= starts[min(c + 2, count)]
        widened += (window.stop - window.start) > starts[min(c + 2, count)] - starts[max(c - 1, 0)]
        gap = min(field.centres[c] - s[window.start - 1] if window.start > 0 else math.inf,
                  s[window.stop] - field.centres[c] if window.stop < N else math.inf)
        assert _cauchy.chebyshev_bound(gap / field.halves[c], _cauchy.POINTS) <= field.bound
    assert field.bound <= _cauchy.TOL
    if name == "uniform":
        assert widened == 0 and None not in field.windows
    else:
        assert widened > 0
