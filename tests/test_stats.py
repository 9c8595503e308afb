import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, ndtr

from prophet_samples import (
    CountDist,
    NormalSpec,
    binom,
    chernoff_check,
    convolve,
    discretized_normal,
    sum_of_binomials,
    tv_binom_vs_normal,
    tv_distance,
    tv_same_mean_normals,
)
from prophet_samples import stats
from prophet_samples.hardness import ProbVector, ones_count_dist
from prophet_samples.stats import SIZE_CAP, _normal_bin_masses, binom_pmf_rows, point_mass

# Frozen from the quadrature oracle: sup of tv / |ratio - 1| over variance
# ratios in [0.5, 2] is 0.3321; the bound below uses a small cushion.
TV_RATIO_CONSTANT = 0.34


@st.composite
def count_dists(draw, max_len: int = 8, max_offset: int = 5) -> CountDist:
    length = draw(st.integers(1, max_len))
    raw = np.array([draw(st.floats(0.01, 1.0)) for _ in range(length)])
    return CountDist(draw(st.integers(-max_offset, max_offset)), raw / raw.sum())


# -- binomials -------------------------------------------------------------------


def test_binom_small():
    d = binom(2, 0.5)
    assert d.offset == 0
    assert np.allclose(d.masses, [0.25, 0.5, 0.25], atol=1e-15)


def test_binom_degenerate():
    assert binom(5, 0.0).pmf(0) == 1.0
    assert binom(5, 1.0).pmf(5) == 1.0
    assert binom(0, 0.7).pmf(0) == 1.0


def test_binom_point_value():
    # C(10,3) * 0.3^3 * 0.7^7
    assert binom(10, 0.3).pmf(3) == pytest.approx(0.266827932, abs=1e-9)


def test_binom_large_n_accuracy():
    d = binom(10**6, 0.3)
    i = 300_000
    log_exact = (
        math.lgamma(10**6 + 1)
        - math.lgamma(i + 1)
        - math.lgamma(10**6 - i + 1)
        + i * math.log(0.3)
        + (10**6 - i) * math.log(0.7)
    )
    assert d.pmf(i) == pytest.approx(math.exp(log_exact), abs=1e-12)


def test_convolve_bernoulli_sum():
    got = convolve(binom(1, 0.5), binom(1, 0.5))
    want = binom(2, 0.5)
    assert got.offset == want.offset
    assert np.allclose(got.masses, want.masses, atol=1e-15)


def test_convolve_point_mass_shift():
    d = convolve(binom(3, 0.25), point_mass(4))
    assert d.offset == 4
    assert np.allclose(d.masses, binom(3, 0.25).masses, atol=1e-15)


def test_three_fold_third_convolution():
    got = sum_of_binomials([(1, 1 / 3), (1, 1 / 3), (1, 1 / 3)])
    want = np.array([8.0, 12.0, 6.0, 1.0]) / 27.0
    assert np.allclose(got.masses, want, atol=1e-12)


def test_sum_of_binomials_merge_identity():
    got = sum_of_binomials([(2, 0.5), (2, 0.5)])
    assert np.allclose(got.masses, binom(4, 0.5).masses, atol=1e-12)


@pytest.mark.parametrize(
    "specs",
    [
        [(5, 0.3)],
        [(7, 1 / 3), (7, 0.0), (7, 1.0), (7, 2e-4)],
        [(400, 1 / 3)] * 3 + [(400, 1e-4)],
        [(3, 1.0), (2, 1.0)],
    ],
)
def test_sum_of_binomials_is_the_convolve_fold_bit_for_bit(specs):
    want = binom(*specs[0])
    for n, p in specs[1:]:
        want = convolve(want, binom(n, p))
    got = sum_of_binomials(specs)
    assert got.offset == want.offset
    assert [x.hex() for x in got.masses.tolist()] == [x.hex() for x in want.masses.tolist()]


@pytest.mark.parametrize(
    "specs, match",
    [
        ([(-1, 0.5)], "n must be"),
        ([(3, 0.5), (-2, 0.0)], "n must be"),
        ([(3, -0.1)], "p must be"),
        ([(3, 1.5)], "p must be"),
        ([(2, 1.0), (2, 1.0 + 1e-12)], "p must be"),
        ([(3, math.nan)], "p must be"),
        ([(3, 0.5), (4, math.nan)], "p must be"),
        ([(0, math.nan)], "p must be"),
    ],
)
def test_sum_of_binomials_rejects_bad_parts(specs, match):
    with pytest.raises(ValueError, match=match):
        sum_of_binomials(specs)


def test_sum_of_binomials_makes_one_row_call_per_trial_count(monkeypatch):
    calls = []

    def counted(n, ps):
        calls.append((n, len(ps)))
        return binom_pmf_rows(n, ps)

    monkeypatch.setattr(stats, "binom_pmf_rows", counted)
    d = ones_count_dist(ProbVector((1.0, 1 / 3, 1 / 3, 1 / 3, 1e-4, 0.0)), 16)
    assert calls == [(16, 4)] and d.offset == 0
    calls.clear()
    d = sum_of_binomials([(5, 0.5), (3, 1.0), (7, 0.2), (5, 0.0), (5, 0.9), (0, 0.5)])
    assert calls == [(5, 2), (7, 1)] and d.offset == 3


# -- windowed kernels against their dense formulas -----------------------------------


def dense_binom_pmf_rows(n: int, ps) -> np.ndarray:
    """binom_pmf_rows without the window: the log-gamma formula on every column."""
    ps = np.asarray(ps, dtype=float)
    i = np.arange(n + 1, dtype=float)
    lg = gammaln(n + 1.0) - gammaln(i + 1.0) - gammaln(n - i + 1.0)
    rows = np.zeros((len(ps), n + 1))
    interior = (ps > 0.0) & (ps < 1.0)
    if np.any(interior):
        pi = ps[interior][:, None]
        rows[interior] = np.exp(
            lg[None, :] + i[None, :] * np.log(pi) + (n - i)[None, :] * np.log1p(-pi)
        )
    rows[ps == 0.0, 0] = 1.0
    rows[ps == 1.0, n] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def dense_normal_bin_masses(spec: NormalSpec, lo: int, hi: int) -> np.ndarray:
    """_normal_bin_masses with ndtr evaluated at every edge."""
    edges = np.arange(lo, hi + 2, dtype=float) - 0.5
    return np.diff(ndtr((edges - spec.mu) / spec.sigma))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    differ = int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))
    assert differ == 0, f"{differ} of {want.size} entries differ in their bits"


GRID_NS = (1, 2, 400, 3200, 10**5, 10**6, 1 << 22)
GRID_PS = (0.0, 1.0, 1e-12, 1e-4, 1 / 3, 0.5, 1 - 1e-12)


def test_exp_and_ndtr_are_exact_past_the_cuts():
    # The windows skip exactly the arguments where these already hold.
    assert np.exp(stats._EXP_ZERO) == 0.0 and np.exp(-745.2) == 0.0
    assert np.exp(-745.0) > 0.0
    assert stats._NDTR_RANGE == (-40.0, 9.0)
    assert ndtr(-40.0) == 0.0 and ndtr(9.0) == 1.0


@pytest.mark.parametrize("n", GRID_NS)
def test_binom_pmf_rows_matches_the_dense_formula_bit_for_bit(n):
    for p in GRID_PS:
        assert_same_bits(binom_pmf_rows(n, [p]), dense_binom_pmf_rows(n, [p]))


@pytest.mark.parametrize("n", [n for n in GRID_NS if n <= 10**5])
def test_binom_pmf_rows_blocks_match_the_dense_formula_bit_for_bit(n):
    interior = [p for p in GRID_PS if 0.0 < p < 1.0]
    ramp = np.clip(np.linspace(-0.1, 1.1, 37), 0.0, 1.0)  # degenerate rows at both ends
    for ps in (GRID_PS, interior, ramp, [0.0, 1.0], [0.3]):
        assert_same_bits(binom_pmf_rows(n, ps), dense_binom_pmf_rows(n, ps))


@pytest.mark.parametrize(
    "mu, sigma2, lo, hi",
    [
        *[(n * p, n * p * (1.0 - p), 0, n) for n in (1, 400, 10**5, 10**6) for p in (1e-4, 0.3, 0.5)],
        (0.0, 1.0, -60, 60),  # both cuts inside the range
        (1e6, 1.0, 0, 50),  # every edge below -40
        (-1e6, 1.0, 0, 50),  # every edge above 9
        (5.0, 1e-6, 0, 10),  # a point-like normal
    ],
)
def test_normal_bin_masses_match_full_range_ndtr_bit_for_bit(mu, sigma2, lo, hi):
    spec = NormalSpec(mu, sigma2)
    assert_same_bits(_normal_bin_masses(spec, lo, hi), dense_normal_bin_masses(spec, lo, hi))


@pytest.mark.parametrize(
    "n, p, want",
    [
        # recorded with the dense kernels
        (10**6, 0.3, "0x1.ccb0e25e92c99p-13"),
        (10**5, 0.3, "0x1.6c3508ac90cd8p-11"),
        (1 << 22, 0.01, "0x1.3d48b03ff8bc6p-10"),
    ],
)
def test_tv_binom_vs_normal_golden_at_large_n(n, p, want):
    assert tv_binom_vs_normal(n, p).hex() == want


def test_count_dist_validation():
    with pytest.raises(ValueError):
        CountDist(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        CountDist(0, np.array([1.5, -0.5]))


# -- discretized normal ------------------------------------------------------------


def test_discretized_normal_center_bin():
    d = discretized_normal(NormalSpec(0.0, 1.0), -8, 8)
    assert d.pmf(0) == pytest.approx(0.3829249225480262, abs=1e-12)


def test_discretized_normal_symmetry_and_mass():
    d = discretized_normal(NormalSpec(0.0, 1.0), -8, 8)
    assert d.pmf(1) == pytest.approx(d.pmf(-1), abs=1e-14)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretized_normal_folds_tails():
    d = discretized_normal(NormalSpec(0.0, 4.0), -1, 1)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.pmf(-1) > d.pmf(0) * 0.5  # boundary bins absorb the tails


# -- total variation -----------------------------------------------------------------


def test_tv_identical_and_disjoint():
    a = binom(3, 0.4)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(point_mass(0), point_mass(5)) == 1.0


def test_tv_bernoulli_pair():
    assert tv_distance(binom(1, 0.5), binom(1, 0.75)) == pytest.approx(0.25, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(count_dists(), count_dists())
def test_tv_symmetry_and_range(a, b):
    d = tv_distance(a, b)
    assert d == pytest.approx(tv_distance(b, a), abs=1e-15)
    assert -1e-15 <= d <= 1.0 + 1e-15


@settings(max_examples=60, deadline=None)
@given(count_dists(), count_dists(), count_dists())
def test_tv_triangle(a, b, c):
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_tv_upper_bound_form():
    # half-L1 equals the positive-part sum
    a, b = binom(4, 0.3), binom(4, 0.6)
    pos = float(np.maximum(a.masses - b.masses, 0.0).sum())
    assert tv_distance(a, b) == pytest.approx(pos, abs=1e-15)


# -- expectation gaps under TV (the convexity toolkit) ---------------------------------


def test_expectation_gap_bounded_by_tv(rng):
    # E_D1[q] <= E_D2[q] + tv(D1, D2) for any q: {0..m} -> [0, 1]
    for _ in range(200):
        m = int(rng.integers(1, 9))
        wa = rng.random(m + 1) + 1e-3
        wb = rng.random(m + 1) + 1e-3
        da = CountDist(0, wa / wa.sum())
        db = CountDist(0, wb / wb.sum())
        q = rng.random(m + 1)
        gap = float(np.sum(q * (da.masses - db.masses)))
        assert gap <= tv_distance(da, db) + 1e-12


def test_expectation_gap_bounded_by_tv_mixture(rng):
    for _ in range(200):
        m = int(rng.integers(1, 9))
        parts = int(rng.integers(1, 5))
        coeffs = rng.random(parts) + 1e-3
        coeffs = coeffs / coeffs.sum()
        comp = []
        for _ in range(parts):
            w = rng.random(m + 1) + 1e-3
            comp.append(w / w.sum())
        mixture = CountDist(0, np.einsum("p,pm->m", coeffs, np.array(comp)))
        wd = rng.random(m + 1) + 1e-3
        d = CountDist(0, wd / wd.sum())
        q = rng.random(m + 1)
        gap = float(np.sum(q * (d.masses - mixture.masses)))
        assert gap <= tv_distance(d, mixture) + 1e-12


# -- binomial vs normal ------------------------------------------------------------------


def test_tv_binom_vs_normal_single_trial():
    # 4 * (Phi(0) - Phi(-2)), from the erf oracle
    assert tv_binom_vs_normal(1, 0.5) == pytest.approx(0.09100052779271685, abs=1e-12)


def test_tv_binom_vs_normal_trend():
    assert tv_binom_vs_normal(10_000, 0.3) < tv_binom_vs_normal(100, 0.3)
    assert tv_binom_vs_normal(10_000, 0.3) < 0.05


def test_tv_binom_vs_normal_validates_p():
    with pytest.raises(ValueError):
        tv_binom_vs_normal(10, 0.0)


# -- same-mean normals ----------------------------------------------------------------------


def tv_normals_quad_oracle(s1: NormalSpec, s2: NormalSpec) -> float:
    def gap(x):
        d1 = math.exp(-((x - s1.mu) ** 2) / (2 * s1.sigma2)) / math.sqrt(2 * math.pi * s1.sigma2)
        d2 = math.exp(-((x - s2.mu) ** 2) / (2 * s2.sigma2)) / math.sqrt(2 * math.pi * s2.sigma2)
        return abs(d1 - d2)

    width = 12.0 * max(s1.sigma, s2.sigma)
    val, _ = quad(gap, s1.mu - width, s1.mu + width, limit=200)
    return 0.5 * val


def test_tv_same_mean_normals_trivia():
    s = NormalSpec(1.0, 2.0)
    assert tv_same_mean_normals(s, s) == 0.0
    a, b = NormalSpec(0.0, 1.0), NormalSpec(0.0, 1.7)
    assert tv_same_mean_normals(a, b) == tv_same_mean_normals(b, a)
    with pytest.raises(ValueError):
        tv_same_mean_normals(NormalSpec(0.0, 1.0), NormalSpec(1.0, 1.0))


def test_tv_same_mean_normals_matches_quadrature():
    for s2 in (0.6, 0.9, 1.1, 1.9):
        a, b = NormalSpec(0.5, 1.0), NormalSpec(0.5, s2)
        assert tv_same_mean_normals(a, b) == pytest.approx(
            tv_normals_quad_oracle(a, b), abs=1e-7
        )


def test_tv_same_mean_normals_ratio_bound():
    for ratio in np.linspace(0.5, 2.0, 31):
        if abs(ratio - 1.0) < 1e-9:
            continue
        got = tv_same_mean_normals(NormalSpec(0.0, float(ratio)), NormalSpec(0.0, 1.0))
        assert got <= TV_RATIO_CONSTANT * abs(ratio - 1.0)


# -- Chernoff -----------------------------------------------------------------------------


def test_chernoff_all_zero(rng):
    report = chernoff_check([0.0] * 50, 0.5, 10_000, rng)
    assert report.empirical == 0.0
    assert report.passed


def test_chernoff_standard_case(rng):
    report = chernoff_check([0.5] * 1000, 0.2, 100_000, rng)
    assert report.bound == pytest.approx(2.0 * math.exp(-0.04 * 500 / 3.0), rel=1e-12)
    assert report.empirical <= report.bound + 3.0 * report.stderr
    assert report.passed


def test_chernoff_extreme_tail(rng):
    report = chernoff_check([0.5] * 2000, 0.9, 10_000, rng)
    assert report.empirical == 0.0
    assert report.bound < 1e-100


def test_sizes_above_the_cap_fail_before_allocation(rng):
    with pytest.raises(ValueError, match=str(SIZE_CAP)):
        tv_binom_vs_normal(10**15, 0.5)
    big = 10**15
    for call in (
        lambda: binom_pmf_rows(big, [0.0, 0.5]),
        lambda: binom(big, 0.5),
        lambda: sum_of_binomials([(3, 0.5), (big, 0.5)]),
        lambda: ones_count_dist(ProbVector((1.0, 1 / 3, 0.0, 0.0, 0.0, 0.0)), big),
    ):
        with pytest.raises(ValueError, match=f"n = {big} exceeds the cap of {SIZE_CAP}"):
            call()
    # the largest accepted n still works
    assert binom_pmf_rows(SIZE_CAP, [0.5]).shape == (1, SIZE_CAP + 1)
    with pytest.raises(ValueError, match=str(SIZE_CAP)):
        chernoff_check([0.5], 0.5, 10**15, rng)
    # a lazy sequence: its length is checked before it is read
    with pytest.raises(ValueError, match=str(SIZE_CAP)):
        chernoff_check(range(10**15), 0.5, 10_000, rng)


def test_chernoff_validation(rng):
    with pytest.raises(ValueError):
        chernoff_check([0.5], 0.5, 100, rng)
    with pytest.raises(ValueError):
        chernoff_check([0.5], 1.5, 10_000, rng)
