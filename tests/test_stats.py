import gc
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from prophet_samples import (
    CountDist,
    binom,
    chernoff_check,
    convolve,
    sum_of_binomials,
    tv_binom_vs_normal,
    tv_distance,
)
from prophet_samples import stats
from prophet_samples.hardness import ProbVector, ones_count_dist
from prophet_samples.stats import (
    _WINDOW_TAIL,
    CONVOLVE_CAP,
    SIZE_CAP,
    _binom_windows,
    _normal_bin_masses,
    _trimmed_windows,
    binom_pmf_rows,
)

from conftest import (
    dense_binom_pmf_rows,
    dense_trimmed_window,
    dense_tv_binom_vs_normal,
    mc_chernoff_tail,
    rational_chernoff_tails,
)


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
    d = convolve(binom(3, 0.25), CountDist(4, [1.0]))
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
        ([(2.5, 0.5)], "n must be an int >= 0, got 2.5"),
        ([(True, 0.5)], "n must be an int >= 0, got True"),
        ([(3, 0.5), (np.float64(4.0), 0.5)], "n must be an int"),
    ],
)
def test_sum_of_binomials_rejects_bad_parts(specs, match):
    with pytest.raises(ValueError, match=match):
        sum_of_binomials(specs)


def test_sum_of_binomials_makes_one_row_call_per_trial_count(monkeypatch):
    calls = []

    def counted(n, ps, tail_log):
        calls.append((n, len(ps)))
        return _trimmed_windows(n, ps, tail_log)

    monkeypatch.setattr(stats, "_trimmed_windows", counted)
    d = ones_count_dist(ProbVector((1.0, 1 / 3, 1 / 3, 1 / 3, 1e-4, 0.0)), 16)
    assert calls == [(16, 4)] and d.offset == 0
    calls.clear()
    d = sum_of_binomials([(5, 0.5), (3, 1.0), (7, 0.2), (5, 0.0), (5, 0.9), (0, 0.5)])
    assert calls == [(5, 2), (7, 1)] and d.offset == 3


def no_windows(*args):
    raise AssertionError("a pmf window was built")


def test_sum_of_binomials_bounds_the_fold_before_building_rows(monkeypatch):
    # four parts of 2^17 each pass the per-part cap, but their folds would take 1.3e9 steps
    monkeypatch.setattr(stats, "_trimmed_windows", no_windows)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="multiply-adds"):
        sum_of_binomials([(2**17, 0.5)] * 4)
    assert time.perf_counter() - t0 < 0.1
    monkeypatch.undo()
    # the adversary's largest ones-count law stays inside the cap, and spans the four parts' windows
    d = ones_count_dist(ProbVector((1.0, 0.5, 0.5, 0.5, 0.5, 0.0)), 10_000)
    part = binom(10_000, 0.5)
    assert (d.offset, d.upper) == (4 * part.offset, 4 * part.upper)
    # the cap counts window lengths: two parts of 2^21 trials at p = 0.01 fold,
    # 1.4e8 multiply-adds on their windows where full rows would take 4.4e12
    d = sum_of_binomials([(2**21, 0.01)] * 2)
    assert d.offset > 0 and d.upper < 2**22 and d.mean() == pytest.approx(2**22 * 0.01, rel=1e-12)


# -- windowed kernels against their dense formulas -----------------------------------


def dense_normal_bin_masses(mu: float, sigma: float, lo: int, hi: int) -> np.ndarray:
    """_normal_bin_masses with ndtr evaluated at every edge."""
    edges = np.arange(lo, hi + 2, dtype=float) - 0.5
    return np.diff(ndtr((edges - mu) / sigma))


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


def test_binom_pmf_rows_matches_the_dense_formula_on_random_draws():
    # up to 80 rows, so several chunks of stats._CHUNK rows, some of them p = 0 or 1
    rng = np.random.default_rng(1717)
    for _ in range(200):
        n = int(rng.integers(0, 3001))
        ps = rng.random(int(rng.integers(1, 81))) ** rng.choice([1, 4, 12])
        ps[rng.random(len(ps)) < 0.15] = 0.0
        ps[rng.random(len(ps)) < 0.15] = 1.0
        assert_same_bits(binom_pmf_rows(n, ps), dense_binom_pmf_rows(n, ps))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 400, 3200, 10**5, 10**6, 1 << 22])
def test_binom_keeps_exactly_the_nonzero_columns_of_the_dense_formula(n):
    # its window drops only exact zeros; each mass is divided by the window's
    # sum, not the full row's, so it may move a few ulps from the dense row
    for p in GRID_PS:
        d = binom(n, p)
        (want,) = dense_binom_pmf_rows(n, [p])
        (support,) = np.nonzero(want)
        assert (d.offset, d.upper) == (support[0], support[-1]) and len(support) == len(d.masses)
        got = d.masses
        want = want[d.offset : d.upper + 1]
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), (p, np.abs(got - want).max())


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_binom_pmf_rows_rejects_probabilities_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        binom_pmf_rows(5, [0.5, bad])


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
    sigma = math.sqrt(sigma2)
    assert_same_bits(_normal_bin_masses(mu, sigma, lo, hi), dense_normal_bin_masses(mu, sigma, lo, hi))


@pytest.mark.parametrize("n", [1, 2, 400, 3200, 10**5])
def test_binom_windows_leave_at_most_1e_18_per_tail(n):
    # 47 rows, so two chunks, from p next to 0 to p next to 1; a chunk's window is
    # the union of its rows' windows, so a row can reach subnormal masses there
    ps = np.array([1e-12, 1e-4, 0.01, 1 / 3, 0.5, 0.99, 1 - 1e-12, *np.linspace(0.05, 0.95, 40)])
    dense = dense_binom_pmf_rows(n, ps)
    rows = 0
    for a, c, block in _binom_windows(n, ps):
        for want, got in zip(dense[a : a + len(block)], block):
            d = c + len(got)
            assert want[:c].sum() <= 1e-18 and want[d:].sum() <= 1e-18
            np.testing.assert_allclose(got, want[c:d] / want[c:d].sum(), rtol=1e-15, atol=1e-300)
            rows += 1
    assert rows == len(ps)


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10_000, SIZE_CAP])
def test_trimmed_windows_match_the_dense_trim(n):
    # the windows' trims against the old rule, the dense row's: each p alone,
    # as the 1-D count laws and the mixture take it, and pairs from one call,
    # as the trinomial count laws take them. A window's cut never sees the at
    # most 1e-18 per tail that the Bernstein window left off the row, so it
    # can end a few columns inside the dense run (4 at each end at n = 2^22,
    # p = 1/3, where a column near the cut holds about 1e-20); the columns it
    # cuts beyond the dense run hold at most 1e-18 per end
    ps = (0.0, 1e-12, 1e-8, 0.01, 1 / 3, 0.5, 0.99, 1 - 1e-12, 1.0)
    for call in [[p] for p in ps] + [[1 / 3, 0.5], [1.0, 0.5], [0.01, 0.0]]:
        for p, (offset, masses, dropped) in zip(call, _trimmed_windows(n, call), strict=True):
            want_offset, want, want_dropped = dense_trimmed_window(n, p)
            end, want_end = offset + len(masses), want_offset + len(want)
            assert want_offset <= offset < end <= want_end, (call, p, offset, end, want_offset, want_end)
            lo, hi = offset - want_offset, end - want_offset
            assert want[:lo].sum() <= _WINDOW_TAIL and want[hi:].sum() <= _WINDOW_TAIL, (call, p)
            np.testing.assert_allclose(masses, want[lo:hi], rtol=1e-15, atol=0.0)
            # dropped bounds the mass the law has outside the run (up to
            # rounding): at most 1e-18 per tail cut, 1e-18 per tail left off
            outside = want_dropped + want[:lo].sum() + want[hi:].sum()
            assert outside <= dropped * (1.0 + 1e-12) and dropped <= 4 * _WINDOW_TAIL, (call, p, outside, dropped)
            if p in (0.0, 1.0):
                assert (offset, masses.tolist(), dropped) == (n * int(p), [1.0], 0.0)


def test_trimmed_windows_check_the_cap_first():
    for p in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match=f"n = {SIZE_CAP + 1} exceeds the cap of {SIZE_CAP}"):
            _trimmed_windows(SIZE_CAP + 1, [p])


@pytest.mark.parametrize(
    "n, p, want",
    [
        # recorded once the TV was summed on the binomial's trimmed window
        (10**6, 0.3, "0x1.ccb0e25e92c9ap-13"),
        (10**5, 0.3, "0x1.6c3508ac90cd1p-11"),
        (1 << 22, 0.01, "0x1.3d48b03ff8bbep-10"),
    ],
)
def test_tv_binom_vs_normal_golden_at_large_n(n, p, want):
    assert tv_binom_vs_normal(n, p).hex() == want


# The windowed TV moved by at most 6.9e-17 from the dense sum on this grid.
@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 10**4, 10**5, 10**6, 1 << 22])
def test_tv_binom_vs_normal_matches_the_dense_oracle(n):
    for p in (1e-6, 1e-4, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
        assert abs(tv_binom_vs_normal(n, p) - dense_tv_binom_vs_normal(n, p)) <= 1e-16


def test_count_dist_validation():
    with pytest.raises(ValueError):
        CountDist(0, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        CountDist(0, np.array([1.5, -0.5]))
    for masses in ([math.nan], [0.5, math.nan], [0.5, 0.5, math.inf], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            CountDist(0, np.array(masses))


# -- total variation -----------------------------------------------------------------


def test_tv_identical_and_disjoint():
    a = binom(3, 0.4)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(CountDist(0, [1.0]), CountDist(5, [1.0])) == 1.0


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
    # nor n: Bin(0, p) has no spread, so there is no matching normal
    with pytest.raises(ValueError, match=r"n = 0 must be in \[1, "):
        tv_binom_vs_normal(0, 0.5)
    for n in (10.5, True):
        with pytest.raises(ValueError, match="and an int"):
            tv_binom_vs_normal(n, 0.3)


# -- Chernoff -----------------------------------------------------------------------------


def _assert_rational_tails(ps, deltas):
    reports = [chernoff_check(ps, delta) for delta in deltas]
    for report, exact in zip(reports, rational_chernoff_tails(ps, deltas)):
        assert abs(Fraction(report.tail) - exact) <= 1e-12 * exact, (report.delta, report.tail, float(exact))
    return reports


@pytest.mark.parametrize("n, p", [(1, 0.5), (37, 0.1), (120, 0.93), (200, 0.013), (200, 0.5)])
def test_chernoff_tail_matches_a_rational_sum(n, p):
    for report in _assert_rational_tails([p] * n, (0.05, 0.2, 0.5, 0.9)):
        assert report.mu == pytest.approx(n * p, rel=1e-14)
        assert report.passed == (report.tail <= report.bound)


@pytest.mark.parametrize(
    "ps",
    [[0.3] * 100 + [0.7] * 50, [0.2] * 60 + [0.5] * 80 + [0.9] * 40, [0.0] * 10 + [1.0] * 5 + [0.4] * 30],
)
def test_chernoff_tail_matches_a_rational_convolution(ps):
    _assert_rational_tails(ps, (0.1, 0.3, 0.6))


def test_chernoff_tail_within_five_standard_errors_of_monte_carlo(rng):
    ps = [0.3] * 400 + [0.6] * 300
    for delta in (0.05, 0.1):
        report = chernoff_check(ps, delta)
        freq, stderr = mc_chernoff_tail(ps, delta, 100_000, rng)
        assert abs(freq - report.tail) <= 5.0 * stderr, (freq, report.tail, stderr)


def test_chernoff_all_zero():
    report = chernoff_check([0.0] * 50, 0.5)
    assert (report.mu, report.tail) == (0.0, 0.0)
    assert report.passed


def test_chernoff_standard_case():
    report = chernoff_check([0.5] * 1000, 0.2)
    assert report.bound == pytest.approx(2.0 * math.exp(-0.04 * 500 / 3.0), rel=1e-12)
    assert report.tail == pytest.approx(2.728464156066e-10, rel=1e-12)
    assert report.passed


def test_chernoff_extreme_tail():
    report = chernoff_check([0.5] * 2000, 0.9)
    assert report.tail == 0.0
    assert report.bound < 1e-100


def test_chernoff_ignores_the_bench_bound_arguments(rng):
    # bench/ still passes reps and an rng: neither changes the report, and nothing is drawn
    state = rng.bit_generator.state
    report = chernoff_check([0.5] * 100, 0.2, 10, rng)
    assert report == chernoff_check([0.5] * 100, 0.2)
    assert report.empirical == report.tail
    assert rng.bit_generator.state == state


def test_sizes_above_the_cap_fail_before_allocation():
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
    # a lazy sequence: its length is checked before it is read
    with pytest.raises(ValueError, match=str(SIZE_CAP)):
        chernoff_check(range(10**15), 0.5)


def test_chernoff_distinct_ps_over_the_convolve_cap_fail_before_any_row(monkeypatch):
    monkeypatch.setattr(stats, "_trimmed_windows", no_windows)
    # the call allocates 50,000 tuples; collect first, so that a full collection
    # of the earlier tests' objects, already due, does not land in the timing
    gc.collect()
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"over the cap of {CONVOLVE_CAP}"):
        chernoff_check(np.linspace(0.01, 0.99, 50_000), 0.5)
    assert time.perf_counter() - t0 < 0.1


def test_chernoff_validation():
    for ps, delta in (
        ([0.5], 1.5), ([0.5], 0.0), ([0.5], 1.0), ([0.5], math.nan),
        ([0.5, math.nan], 0.5), ([1.5], 0.5), ([-0.1, 0.5], 0.5),
    ):
        with pytest.raises(ValueError):
            chernoff_check(ps, delta)
