import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qbmlab import (
    ConditioningWarning,
    _cauchy,
    eigensolve,
    EigensolveError,
    NormalModes,
    SpectralModel,
    solve_normal_modes,
)
from qbmlab.continuum import (
    build_weight_table,
    lorentzian_density,
    pv_shift,
    survival_amplitude_continuum,
    validate_continuum,
)
from qbmlab.model import lorentzian_coupling, paper_default_model
from conftest import random_model
from oracles import dense_oracle, secular_value, verify_closure


def make(omega, freqs, coups, beta=1.0, kappa=1.0):
    return SpectralModel(omega, beta, kappa, np.asarray(freqs, float),
                         np.asarray(coups, float))


class TestSecularValue:
    def test_resonant_two_by_two_root(self):
        m = make(1.0, [1.0], [0.1])
        # alpha = 1.1 solves (alpha - 1) = g^2/(alpha - 1)
        assert secular_value(1.1, m) == pytest.approx(0.0, abs=1e-15)

    def test_pole_is_reported(self):
        m = make(1.0, [1.0], [0.1])
        with pytest.raises(EigensolveError, match="pole"):
            secular_value(1.0, m)

    def test_sign_just_above_pole(self):
        m = make(1.0, [0.9, 1.0, 1.1], [0.05, 0.05, 0.05])
        for w in m.bath_freqs:
            assert secular_value(np.nextafter(w, np.inf), m) < 0
            assert secular_value(np.nextafter(w, -np.inf), m) > 0

    def test_single_sign_change_per_interval(self):
        # scan oracle: f changes sign exactly once strictly inside each interval
        rng = np.random.default_rng(3)
        m = random_model(rng, 8)
        w = m.bath_freqs
        for lo, hi in zip(w[:-1], w[1:]):
            xs = np.linspace(lo, hi, 2002)[1:-1]
            vals = np.array([secular_value(x, m) for x in xs])
            changes = np.count_nonzero(np.diff(np.sign(vals)) != 0)
            assert changes == 1


class TestSmallClosedForms:
    def test_resonant_pair(self):
        m = make(1.0, [1.0], [0.1])
        modes = solve_normal_modes(m)
        np.testing.assert_allclose(modes.alphas, [0.9, 1.1], rtol=1e-13)
        np.testing.assert_allclose(modes.weights, [0.5, 0.5], rtol=1e-12)

    def test_detuned_pair_quadratic_oracle(self):
        # (alpha-1)(alpha-2) = 0.01 has roots (3 -+ sqrt(1.04))/2
        m = make(1.0, [2.0], [0.1])
        modes = solve_normal_modes(m)
        root = math.sqrt(1.04)
        np.testing.assert_allclose(
            modes.alphas, [(3.0 - root) / 2.0, (3.0 + root) / 2.0], rtol=1e-14
        )
        # weights from the analytic normalization at those roots
        expected = 1.0 / (1.0 + (0.1 / (modes.alphas - 2.0)) ** 2)
        np.testing.assert_allclose(modes.weights, expected, rtol=1e-14)
        assert modes.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_dense_oracle_matches_analytic(self):
        m = make(1.0, [1.0], [0.1])
        oracle = dense_oracle(m)
        np.testing.assert_allclose(oracle.alphas, [0.9, 1.1], rtol=1e-12)
        np.testing.assert_allclose(oracle.weights, [0.5, 0.5], rtol=1e-10)


class TestSolverAgainstDenseOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_n64(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 64)
        fast = solve_normal_modes(m)
        slow = dense_oracle(m)
        scale = m.omega_sub
        assert np.abs(fast.alphas - slow.alphas).max() < 1e-10 * scale
        assert np.abs(fast.weights - slow.weights).max() < 1e-9

    def test_reference_32(self, model_32, modes_32):
        slow = dense_oracle(model_32)
        assert np.abs(modes_32.alphas - slow.alphas).max() < 1e-10
        assert np.abs(modes_32.weights - slow.weights).max() < 1e-9

    def test_omega_outside_band(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 16, omega_in_band=False)
        fast = solve_normal_modes(m)
        slow = dense_oracle(m)
        assert np.abs(fast.alphas - slow.alphas).max() < 1e-10 * m.omega_sub

    def test_dense_size_cap(self):
        n = 4097
        freqs = np.linspace(0.5, 1.5, n)
        m = SpectralModel(1.0, 1.0, 1.0, freqs, np.full(n, 1e-4))
        with pytest.raises(EigensolveError, match="capped"):
            dense_oracle(m)


class TestExactIdentities:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_interlacing_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 40)
        modes = solve_normal_modes(m)
        w = m.bath_freqs
        a = modes.alphas
        assert a[0] < w[0] and a[-1] > w[-1]
        assert np.all(a[1:-1] > w[:-1]) and np.all(a[1:-1] < w[1:])

    def test_weight_sum_and_traces(self, model_32, modes_32):
        w = model_32.bath_freqs
        assert abs(modes_32.weights.sum() - 1.0) < 10 * 1e-13
        trace = model_32.omega_sub + w.sum()
        assert abs(modes_32.alphas.sum() - trace) < 1e-12 * trace
        # first-row identity: weighted mean of normal frequencies is omega_sub
        first_row = float(modes_32.weights @ modes_32.alphas)
        assert abs(first_row - model_32.omega_sub) < 1e-10 * model_32.omega_sub

    def test_scaling_covariance(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 24)
        s = 2.75
        scaled = SpectralModel(
            s * m.omega_sub, m.beta, m.kappa, s * m.bath_freqs, s * m.couplings
        )
        base = solve_normal_modes(m)
        big = solve_normal_modes(scaled)
        np.testing.assert_allclose(big.alphas, s * base.alphas, rtol=1e-12)
        np.testing.assert_allclose(big.weights, base.weights, rtol=1e-10, atol=1e-13)

    def test_residuals_are_small(self, modes_32):
        assert np.abs(modes_32.residuals).max() < 1e-9


class TestClosure:
    def test_resonant_pair_exact(self):
        modes = solve_normal_modes(make(1.0, [1.0], [0.1]))
        rep = verify_closure(modes)
        assert rep.weight_norm < 1e-14
        assert rep.cross_max < 1e-14
        assert rep.bath_orth_max < 1e-14

    def test_reference_32(self, modes_32):
        rep = verify_closure(modes_32)
        assert rep.weight_norm < 1e-10
        assert rep.cross_max < 1e-10
        assert rep.bath_orth_max < 1e-10

    def test_perturbed_root_detected(self, modes_32):
        # negative control: closure must be sensitive to a 1e-6 eigenvalue error
        alphas = modes_32.alphas.copy()
        alphas[0] += 1e-6
        broken = NormalModes(
            model=modes_32.model,
            alphas=alphas,
            weights=modes_32.weights.copy(),
            residuals=modes_32.residuals.copy(),
        )
        rep = verify_closure(broken)
        assert max(rep.cross_max, rep.bath_orth_max) > 1e-8


def lorentzian_tail_model():
    """Couplings falling to ~2.5e-8 in the band tails: roots hug the poles there."""
    w = np.linspace(0.9, 1.1, 64)
    return make(1.0, w, 1e-3 / (1.0 + ((w - 1.0) / 5e-4) ** 2))


def mp_oracle(model, alphas):
    """50-digit roots, polished from ``alphas`` by 4 Newton steps, and their weights."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w = [mpmath.mpf(float(v)) for v in model.bath_freqs]
        g2 = [mpmath.mpf(float(v)) ** 2 for v in model.couplings]
        omega = mpmath.mpf(model.omega_sub)
        roots, weights = [], []
        for alpha in alphas:
            x = mpmath.mpf(float(alpha))
            for _ in range(4):
                terms = [gn / (x - wn) for gn, wn in zip(g2, w)]
                f = x - omega - mpmath.fsum(terms)
                slope = 1 + mpmath.fsum(t / (x - wn) for t, wn in zip(terms, w))
                x -= f / slope
            roots.append(x)
            norm = 1 + mpmath.fsum(gn / (x - wn) ** 2 for gn, wn in zip(g2, w))
            weights.append(1 / norm)
        return roots, weights


ORACLE_MODELS = {
    "random0": lambda: random_model(np.random.default_rng(0), 64),
    "random1": lambda: random_model(np.random.default_rng(1), 64),
    "random2": lambda: random_model(np.random.default_rng(2), 64),
    "lorentzian_tail": lorentzian_tail_model,
}


class TestHighPrecisionOracle:
    """Float64 roots within 2 ulp and weights within 1e-13 of a 50-digit solution.

    The dense oracle agrees with the solver only to ~1e-10.  Roots of the
    Lorentzian tail sit as close as 6e-15 to their poles, where a root a few
    hundred ulp off already moves the weight by ~1e-11.
    """

    @pytest.mark.parametrize("case", sorted(ORACLE_MODELS))
    def test_roots_and_weights(self, case):
        m = ORACLE_MODELS[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            modes = solve_normal_modes(m)
        roots, weights = mp_oracle(m, modes.alphas)
        root_err = np.array([float(abs(r - float(a))) for r, a in zip(roots, modes.alphas)])
        weight_err = np.array([float(abs(v - float(u)))
                               for v, u in zip(weights, modes.weights)])
        assert np.all(root_err <= 2.0 * np.spacing(modes.alphas))
        assert weight_err.max() <= 1e-13


def criterion_10_model(jitter_seed=None):
    n = 4096
    spacing = 1.0 / (n - 1)
    freqs = 0.5 + spacing * np.arange(n)
    couplings = lorentzian_coupling(freqs, 1.0, d_amp=spacing, a_width=0.25)
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        freqs = freqs + rng.uniform(-0.25, 0.25, n) * spacing
        couplings = couplings * rng.uniform(0.8, 1.2, n)
    return make(1.0, freqs, couplings)


class TestSolverEffort:
    @pytest.mark.parametrize("jitter_seed", [None, 1])
    def test_evaluations_per_root(self, jitter_seed):
        modes = solve_normal_modes(criterion_10_model(jitter_seed))
        assert modes.secular_evaluations <= 4 * modes.n_modes
        assert modes.safeguard_fallbacks == 0

    def test_exterior_roots_of_a_small_scale_model(self):
        # the exterior brackets span O(1) while the roots sit near 1e-6; a
        # one-pole model without the linear term needs ~20 evaluations a root
        m = make(1e-6, [0.9e-6, 1.2e-6], [1e-8, 2e-8])
        modes = solve_normal_modes(m)
        assert modes.secular_evaluations <= 5 * modes.n_modes
        np.testing.assert_allclose(modes.alphas, dense_oracle(m).alphas, rtol=1e-13)


class TestSolverBehavior:
    def test_iteration_cap_is_an_error(self, model_32, monkeypatch):
        monkeypatch.setattr(eigensolve, "_MAX_ITER", 2)
        with pytest.raises(EigensolveError,
                           match=r"root \d+ did not converge in 2 .* last bracket \["):
            solve_normal_modes(model_32)

    def test_conditioning_warning_for_feeble_coupling(self):
        m = make(1.0, [0.9, 1.0, 1.1], [1e-8, 1e-8, 1e-8])
        with pytest.warns(ConditioningWarning):
            solve_normal_modes(m)

    def test_validate_rejects_wrong_mode_count(self, model_32, modes_32):
        broken = NormalModes(
            model=model_32,
            alphas=modes_32.alphas[:-1],
            weights=modes_32.weights[:-1],
            residuals=modes_32.residuals[:-1],
        )
        with pytest.raises(EigensolveError):
            broken.validate()

    def test_solver_far_exterior_root(self):
        # subsystem far above the band: one normal frequency follows it
        m = make(50.0, [0.5, 1.0, 1.5], [0.2, 0.2, 0.2])
        modes = solve_normal_modes(m)
        assert modes.alphas[-1] > 49.9
        # couplings larger than the band put both exterior roots far outside it
        strong = make(1.0, [0.5, 2.0], [3.0, 0.1])
        for model in (m, strong):
            np.testing.assert_allclose(solve_normal_modes(model).alphas,
                                       dense_oracle(model).alphas, rtol=1e-12)


def solve_large_model(seed=1001):
    """The benchmark's solve-large bath: the paper's N+1 = 4096 grid, jittered."""
    n = 4095
    spacing = 0.018 / (n - 2)
    freqs = 1.0 + spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    half_width = spacing * (n - 2) / 2.0
    couplings = spacing * half_width**2 / (half_width**2 + (freqs - 1.0) ** 2)
    rng = np.random.default_rng([seed, 1])
    freqs = freqs + rng.uniform(-0.25, 0.25, n) * spacing
    couplings = couplings * rng.uniform(0.8, 1.2, n)
    return make(1.0, freqs, couplings)


def quartic_graded_model():
    """Poles crowding quartically toward the band centre: a cluster there is
    much narrower than its neighbours, so their far poles sit close to it."""
    n = 4095
    s = (2 * np.arange(n) + 1 - n) / n
    return make(1.0, 1.0 + 0.009 * s**3 * np.abs(s) + 1e-7 * s, np.full(n, 1e-5))


FAR_FIELD_MODELS = {
    "paper4096": lambda: paper_default_model(4096),
    "solve_large": solve_large_model,
    "quartic_graded": quartic_graded_model,
}


def far_field_errors(model, alphas, stride):
    """Largest error of the near-plus-tabulated sums against math.fsum of every
    term, over sum |terms| (value sums) and sum terms (slope sums), at the
    roots and bracket midpoints next to each cluster edge and every stride-th."""
    w, g2 = model.bath_freqs, model.couplings**2
    field = eigensolve._far_field(w)
    buf, aux = np.empty(64 * w.size), np.empty(64 * w.size)
    worst_value = worst_slope = 0.0
    tabulated, last = 0, None
    for nus, window, far in eigensolve._chunks(w, g2, field, 1, buf, aux):
        if far is None:
            continue
        # the chunks of one cluster share its far field
        tabulated, last = tabulated + (far is not last), far
        pick = np.unique(np.r_[nus[:2], nus[-2:], nus[::stride]])
        x = np.r_[alphas[pick], 0.5 * (w[pick - 1] + w[pick])]
        nu = np.r_[pick, pick]
        sums = eigensolve._pole_sums(x, nu - window.start, w[window], g2[window],
                                     buf, aux, far)
        for i in range(x.size):
            terms = g2 / (x[i] - w)
            slopes = terms / (x[i] - w)
            below, above = terms[:nu[i]].tolist(), terms[nu[i]:].tolist()
            scale = math.fsum(np.abs(terms).tolist())
            slope_scale = math.fsum(slopes.tolist())
            worst_value = max(worst_value,
                              abs(sums[0][i] - math.fsum(below)) / scale,
                              abs(sums[1][i] - math.fsum(above)) / scale)
            worst_slope = max(worst_slope,
                              abs(sums[2][i] - math.fsum(slopes[:nu[i]].tolist())) / slope_scale,
                              abs(sums[3][i] - math.fsum(slopes[nu[i]:].tolist())) / slope_scale)
    assert tabulated == sum(window is not None for window in field.windows)
    return worst_value, worst_slope, tabulated


def tabulated_roots(model):
    """The roots whose sweeps take the far field: those of clusters with a near window."""
    n = model.n_osc
    field = eigensolve._far_field(model.bath_freqs)
    return np.array([nu for start, stop, window in zip(field.starts, field.starts[1:],
                                                        field.windows)
                     if window is not None for nu in range(start + 1, min(stop + 1, n))],
                    dtype=int)


def all_near_roots(model, monkeypatch):
    """The solve with one cluster: every pole summed term by term in every sweep."""
    with monkeypatch.context() as mp:
        mp.setattr(eigensolve, "_MIN_CLUSTERS", model.n_osc + 1)
        modes = solve_normal_modes(model)
    assert modes.tabulated_clusters == 0
    return modes


def fsum_errors(modes, nus):
    """Largest |residual - fsum| / sum |terms| and |weight - fsum weight| / weight
    over the roots ``nus``, the references summed by math.fsum at the stored roots."""
    m = modes.model
    w, g = m.bath_freqs, m.couplings
    residual_error = weight_error = 0.0
    for nu in nus.tolist():
        alpha = modes.alphas[nu]
        terms = g**2 / (alpha - w)
        exact = math.fsum([alpha, -m.omega_sub, *(-terms).tolist()])
        residual_error = max(residual_error,
                             abs(modes.residuals[nu] - exact) / np.abs(terms).sum())
        weight = 1.0 / (1.0 + math.fsum(((g / (alpha - w)) ** 2).tolist()))
        weight_error = max(weight_error, abs(modes.weights[nu] - weight) / weight)
    return residual_error, weight_error


def assert_same_roots(fast, exact):
    """Roots at most 2 ulp apart (the message counts those that differ).  Roots of
    tabulated clusters take residuals and weights from the near and far sums:
    within 1e-15 of their math.fsum values.  Elsewhere both solves use the
    exact kernel, so identical roots have identical residuals and weights."""
    ulps = np.abs(fast.alphas - exact.alphas) / np.spacing(np.abs(exact.alphas))
    same = ulps == 0
    assert ulps.max() <= 2.0, (f"{int(np.count_nonzero(~same))} roots differ, "
                               f"by up to {ulps.max():.0f} ulp")
    tabulated = tabulated_roots(fast.model)
    residual_error, weight_error = fsum_errors(fast, tabulated)
    assert residual_error <= 1e-15
    assert weight_error <= 1e-15
    same[tabulated] = False
    np.testing.assert_array_equal(fast.weights[same], exact.weights[same])
    np.testing.assert_array_equal(fast.residuals[same], exact.residuals[same])


class TestFarFieldSecular:
    """The iteration sweeps' near field plus tabulated far field (``_cauchy.FarField``)."""

    @pytest.mark.parametrize("case", sorted(FAR_FIELD_MODELS))
    def test_sums_match_fsum(self, case):
        model = FAR_FIELD_MODELS[case]()
        modes = solve_normal_modes(model)
        value, slope, tabulated = far_field_errors(model, modes.alphas, stride=29)
        assert tabulated >= 2
        assert value <= 1e-15
        assert slope <= 1e-15

    @pytest.mark.parametrize("case", sorted(FAR_FIELD_MODELS))
    def test_roots_match_the_all_near_kernel(self, case, monkeypatch):
        model = FAR_FIELD_MODELS[case]()
        fast = solve_normal_modes(model)
        assert fast.tabulated_clusters >= 2
        assert_same_roots(fast, all_near_roots(model, monkeypatch))

    def test_gate_keeps_crowded_clusters_exact(self, monkeypatch):
        # far poles sit within ~2.8 half-widths of the narrow clusters: their near
        # windows widen until the bound holds, and every cluster is tabulated
        model = quartic_graded_model()
        gated = solve_normal_modes(model)
        assert gated.exact_clusters == 0
        assert gated.far_field_bound <= _cauchy.TOL
        # without the gate the crowded clusters' interpolants move roots, and the
        # residuals they give fail the exact audit
        monkeypatch.setattr(_cauchy, "TOL", math.inf)
        with pytest.raises(EigensolveError, match="exact sum"):
            solve_normal_modes(model)
        monkeypatch.setattr(eigensolve.NormalModes, "validate", lambda self: None)
        ungated = solve_normal_modes(model)
        assert ungated.exact_clusters == 0
        assert ungated.far_field_bound > 1e-6
        assert np.any(ungated.alphas != gated.alphas)

    def test_diagnostics(self):
        modes = solve_normal_modes(paper_default_model(4096))
        assert modes.tabulated_clusters + modes.exact_clusters == 4095 // 126
        assert modes.chebyshev_points == _cauchy.POINTS
        assert 0.0 < modes.far_field_bound <= _cauchy.TOL
        terms = modes.model.couplings**2 / (modes.alphas[:, None] - modes.model.bath_freqs)
        ratio = np.abs(modes.residuals) / np.abs(terms).sum(axis=1)
        assert modes.residual_ratio == pytest.approx(ratio.max(), rel=1e-12)
        # 3 clusters of 10 poles: fewer than the far field asks for
        small = solve_normal_modes(paper_default_model(32))
        assert (small.tabulated_clusters, small.exact_clusters) == (0, 3)
        assert (small.chebyshev_points, small.far_field_bound) == (0, 0.0)

    def test_random_baths(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        # clusters of 2 sqrt(N) poles: 3 to 13 clusters, all of them eligible
        monkeypatch.setattr(eigensolve, "_MIN_CLUSTERS", 3)

        @hyp.settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @hyp.given(st.integers(0, 2**32 - 1), st.integers(40, 700), st.booleans())
        def check(seed, n_osc, in_band):
            model = random_model(np.random.default_rng(seed), n_osc, omega_in_band=in_band)
            fast = solve_normal_modes(model)
            assert fast.tabulated_clusters + fast.exact_clusters >= 3
            if fast.tabulated_clusters:
                value, slope, _ = far_field_errors(model, fast.alphas, stride=7)
                assert value <= 1e-15 and slope <= 1e-15
            assert_same_roots(fast, all_near_roots(model, monkeypatch))

        check()


def mesh_integrals():
    """The README density's shift and edge integrals, and the edge integrals of a
    Lorentzian of half-width 2e-5."""
    cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
    report = validate_continuum(cm)
    narrow = validate_continuum(lorentzian_density(5e-7, 2e-5, 1.0, 0.5, 1.5))
    return np.array([pv_shift(cm), report.left_value, report.right_value,
                     narrow.left_value, narrow.right_value])


def run_single_threaded(script, out):
    """Run ``script`` with argument ``out`` in a fresh process with one BLAS thread."""
    src = Path(eigensolve.__file__).parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
    return np.load(out)


class TestBlasThreads:
    """A single-threaded BLAS in a fresh process gives the same bits."""

    def test_solve_ignores_the_blas_thread_count(self, tmp_path):
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from test_eigensolve import solve_large_model\n"
                  "from qbmlab import solve_normal_modes\n"
                  "m = solve_normal_modes(solve_large_model())\n"
                  "np.save(sys.argv[1], np.stack([m.alphas, m.weights, m.residuals]))\n")
        single = run_single_threaded(script, tmp_path / "modes.npy")
        modes = solve_normal_modes(solve_large_model())
        assert modes.tabulated_clusters > 0
        np.testing.assert_array_equal(single[0], modes.alphas)
        np.testing.assert_array_equal(single[1], modes.weights)
        np.testing.assert_array_equal(single[2], modes.residuals)

    def test_weight_table_ignores_the_blas_thread_count(self, tmp_path):
        # the README and benchmark continuum density at 2,501 panels
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from qbmlab.continuum import build_weight_table, lorentzian_density\n"
                  "cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, "
                  "omega_max=1.5)\n"
                  "np.save(sys.argv[1], build_weight_table(cm, 2501).density)\n")
        single = run_single_threaded(script, tmp_path / "density.npy")
        cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        np.testing.assert_array_equal(single, build_weight_table(cm, 2501).density)

    def test_continuum_survival_sum_ignores_the_blas_thread_count(self, tmp_path):
        # the README continuum command's sum: 2,001 panel centres, 12
        # columns, 401 times; its whole 64-row block products differ
        # between one and two OpenBLAS threads, its panels do not
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from qbmlab.continuum import lorentzian_density, "
                  "survival_amplitude_continuum\n"
                  "cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, "
                  "omega_max=1.5)\n"
                  "np.save(sys.argv[1], "
                  "survival_amplitude_continuum(cm, np.linspace(0.0, 1000.0, 401)))\n")
        single = run_single_threaded(script, tmp_path / "survival.npy")
        cm = lorentzian_density(5e-4, 0.05, omega_sub=1.0, omega_min=0.5, omega_max=1.5)
        np.testing.assert_array_equal(
            single, survival_amplitude_continuum(cm, np.linspace(0.0, 1000.0, 401)))

    def test_mesh_integrals_ignore_the_blas_thread_count(self, tmp_path):
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from test_eigensolve import mesh_integrals\n"
                  "np.save(sys.argv[1], mesh_integrals())\n")
        single = run_single_threaded(script, tmp_path / "integrals.npy")
        np.testing.assert_array_equal(single, mesh_integrals())


class TestExactAudit:
    """``NormalModes.validate`` recomputes sampled residuals and weights from exact sums."""

    def test_solves_pass_and_record_it(self):
        for model in (solve_large_model(), paper_default_model(32)):
            modes = solve_normal_modes(model)
            limit = eigensolve._audit_limit(model.n_osc)
            assert 0.0 <= modes.audit_residual_error <= limit
            assert 0.0 <= modes.audit_weight_error <= limit
        # the dense oracle's weights come from eigenvectors: only residuals are audited
        oracle = dense_oracle(paper_default_model(32))
        assert oracle.audit_residual_error <= eigensolve._audit_limit(31)
        assert math.isnan(oracle.audit_weight_error)

    @pytest.mark.parametrize("scratch", [None, 1], ids=["one block", "a block per root"])
    def test_a_root_on_a_pole_records_nan(self, scratch, monkeypatch):
        # the root at the pole 1.0 has residual -inf and a nan exact sum: its
        # deviation is nan, after an earlier block's or within one block
        if scratch:
            monkeypatch.setattr(eigensolve, "_SCRATCH_BYTES", scratch)
        model = make(1.0, [0.9, 1.0, 1.1], [0.05, 0.05, 0.05])
        roots = np.array([0.8, 1.0, 1.05, 1.2])
        residuals = eigensolve._secular_batch(roots, model.omega_sub, model.bath_freqs,
                                              model.couplings**2)
        modes = NormalModes(model, roots, np.full(4, 0.25), residuals)
        residual_error, weight_error = eigensolve._audit(modes)
        assert math.isnan(residual_error) and math.isnan(weight_error)

    def test_limit_covers_pairwise_summation(self):
        @functools.lru_cache(maxsize=None)
        def depth(n):
            """The most roundings a term meets in numpy's pairwise sum of n terms:
            8 running sums over blocks of at most 128, halving at multiples of 8."""
            if n < 8:
                return max(n - 1, 0)
            if n <= 128:
                return n // 8 + 2 + n % 8
            half = n // 2 - n // 2 % 8
            return 1 + max(depth(half), depth(n - half))

        u = np.finfo(float).eps / 2
        for n in [*range(1, 2100), 4095, 16383, 65535, 10**6]:
            assert eigensolve._audit_limit(n) >= (depth(n) + 8) * u

    def test_exact_sums_against_fsum(self):
        # rows whose halves cancel to 1e-12, scaled over 1e-30 .. 1e30, within the
        # bound of _exact_sums plus the rounding of math.fsum itself
        rng = np.random.default_rng(17)
        u = np.finfo(float).eps / 2
        rows, n = 70, 4160
        k = 25 + ((n - 1) // 128).bit_length()
        for _ in range(3):
            half = rng.standard_normal((rows, n // 2)) * np.exp(rng.uniform(-5, 5, (rows, n // 2)))
            half *= 10.0 ** rng.uniform(-30, 30, (rows, 1))
            t = np.hstack([half, -half * (1 + 1e-12 * rng.standard_normal((rows, 1)))])
            t = t[:, rng.permutation(n)]
            ref = np.array([math.fsum(row) for row in t.tolist()])
            bound = 2 * u * np.abs(ref) + 4 * k * n * (n + 2) * u**2 * np.abs(t).max(axis=1)
            assert np.all(np.abs(eigensolve._exact_sums(t) - ref) <= bound)
        # zero rows sum to 0, rows with an inf or nan term give nan
        odd = np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 2.0], [1.0, -np.inf, 2.0],
                        [np.inf, -np.inf, 0.0], [1e-310, 3e-310, -1e-320]])
        sums = eigensolve._exact_sums(odd)
        assert sums[0] == 0.0 and np.all(np.isnan(sums[1:4]))
        assert sums[4] == math.fsum(odd[4].tolist())

    @pytest.mark.parametrize("field", ["residuals", "weights"])
    def test_a_perturbed_cluster_root_is_caught(self, field):
        modes = solve_normal_modes(solve_large_model())
        nu = int(eigensolve._cluster_edges(modes.model.n_osc)[7]) + 1
        values = getattr(modes, field)
        scale = np.abs(modes.model.couplings**2 / (modes.alphas[nu] - modes.model.bath_freqs)
                       ).sum() if field == "residuals" else values[nu]
        values[nu] += 64 * np.finfo(float).eps * scale
        with pytest.raises(EigensolveError, match="exact sum"):
            modes.validate()

    def test_a_corrupt_far_field_is_caught(self, monkeypatch):
        # tables off by 1e-12: the roots still interlace and the weights sum to 1
        # within 1e-8, so only the audit sees it
        table = _cauchy.FarField.table

        def corrupt(*args, **kwargs):
            return table(*args, **kwargs) * (1.0 + 1e-12)

        monkeypatch.setattr(_cauchy.FarField, "table", corrupt)
        with pytest.raises(EigensolveError, match="exact sum"):
            solve_normal_modes(solve_large_model())
