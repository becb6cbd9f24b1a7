"""Far field of Cauchy sums sum_j c_j / (t - s_j) over sorted real sources s_j:
the secular sums of ``eigensolve``.

The solver clusters its sources, puts its targets in one box per cluster and
sums the sources of the box's near window term by term.  ``FarField`` chooses
the windows by distance and tabulates the sums over the other sources at
Chebyshev points of the box: the single-level fast Cauchy-sum evaluation of
Greengard & Rokhlin (J. Comput. Phys. 73, 1987) and Dutt, Gu & Rokhlin (SIAM J.
Numer. Anal. 33, 1996), in barycentric form (Berrut & Trefethen, SIAM Rev. 46, 2004).
"""

from __future__ import annotations

import math

import numpy as np

# on an equidistant bath the +-1 cluster windows give a bound of 2.9e-18
TOL = 2.0**-56
POINTS = 24


def chebyshev_bound(r: float, p: int) -> float:
    """Bound on the error of the p-point Chebyshev interpolant of 1/(u - z) on
    [-1, 1], relative to min |1/(u - z)| there, for real |z| >= r > 1.

    1/(z - u) = (2/sqrt(z^2-1)) sum' rho^-k T_k(u) with rho = z + sqrt(z^2-1)
    (the Bernstein ellipse through z), and the interpolant errs by at most
    twice the coefficients it drops (Trefethen, Approximation Theory and
    Approximation Practice, Thm 4.2).  The bound falls as r grows.
    """
    rho = r + math.sqrt(r * r - 1.0)
    return 4.0 * math.sqrt((r + 1.0) / (r - 1.0)) * rho**-p / (1.0 - 1.0 / rho)


class FarField:
    """Near windows and far-field tables of the clusters of sorted ``sources``.

    Cluster c holds sources[starts[c]:starts[c + 1]] and the targets in its box
    [bounds[c], bounds[c + 1]].  Its window ``windows[c]`` (None: every source)
    widens from the cluster and its neighbours, one cluster at a time towards
    the nearest far source, until ``chebyshev_bound`` is within ``TOL``.
    ``bound``, the largest such bound (0 if none), bounds the error of a
    tabulated sum of c/(t - s) relative to sum |terms|; of c/(t - s)^2, about
    ``POINTS`` times that.
    """

    def __init__(self, sources: np.ndarray, starts: np.ndarray, bounds: np.ndarray):
        self.sources, self.starts, self.bounds = sources, starts, bounds
        self.centres = 0.5 * (bounds[:-1] + bounds[1:])
        self.halves = 0.5 * (bounds[1:] - bounds[:-1])
        # the Chebyshev points of the first kind on [-1, 1], and their barycentric weights
        theta = (2 * np.arange(POINTS) + 1) * (0.5 * math.pi / POINTS)
        self.cheb, self.lam = np.cos(theta), np.sin(theta) * (-1.0) ** np.arange(POINTS)
        self.windows, self.bound = [], 0.0
        count = starts.size - 1
        for c, centre in enumerate(self.centres):
            lo, hi = max(c - 1, 0), min(c + 2, count)
            while lo > 0 or hi < count:
                below = centre - sources[starts[lo] - 1] if lo > 0 else math.inf
                above = sources[starts[hi]] - centre if hi < count else math.inf
                bound = chebyshev_bound(float(min(below, above) / self.halves[c]), POINTS)
                if bound <= TOL:
                    self.windows.append(slice(int(starts[lo]), int(starts[hi])))
                    self.bound = max(self.bound, bound)
                    break
                lo, hi = (lo - 1, hi) if below < above else (lo, hi + 1)
            else:
                self.windows.append(None)

    def table(self, c: int, columns: tuple[np.ndarray, ...], buf: np.ndarray,
              aux: np.ndarray) -> np.ndarray:
        """Sums of each column's c/(t - s) and c/(t - s)^2 over the sources below
        and above cluster c's window at the Chebyshev points t of its box:
        [below..., above..., below squares..., above squares...].

        t - s is (centre - s) + offset, since rounding t would move a point of
        a narrow box far from 0 by more than the truncation error.  Pairwise
        row sums, not BLAS, leave the table independent of the BLAS thread
        count; ``buf`` and ``aux`` are flat scratch."""
        window, k = self.windows[c], len(columns)
        offsets = self.halves[c] * self.cheb
        table = np.zeros((POINTS, 4 * k))
        for side, part in enumerate((slice(0, window.start),
                                     slice(window.stop, self.sources.size))):
            size = part.stop - part.start
            if size == 0:
                continue
            gaps = self.centres[c] - self.sources[part]
            rows = max(1, buf.size // size)
            for j in range(0, POINTS, rows):
                m = min(rows, POINTS - j)
                d = buf[:m * size].reshape(m, size)
                terms = aux[:m * size].reshape(m, size)
                np.add(gaps, offsets[j:j + m, None], out=d)
                for i, col in enumerate(columns):
                    np.divide(col[part], d, out=terms)
                    table[j:j + m, side * k + i] = terms.sum(axis=1)
                    np.divide(terms, d, out=terms)
                    table[j:j + m, (2 + side) * k + i] = terms.sum(axis=1)
        return table

    def evaluate(self, c: int, targets: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The columns of cluster c's ``table`` interpolated to ``targets`` in its
        box by the second (true) barycentric formula, exact at a Chebyshev point."""
        diff = np.subtract(((targets - self.centres[c]) / self.halves[c])[:, None], self.cheb)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = self.lam / diff
            result = (q @ table) / q.sum(axis=1)[:, None]
        hit_row, hit_col = np.nonzero(diff == 0)
        result[hit_row] = table[hit_col]
        return result
