"""Peak estimation, two-sample chi-square and the discord verdicts.

The decision-soundness tests simulate ground truth: product states must
come out not-detected (false-positive control) and strongly correlated
states must come out discordant.  Seeds are fixed, so every number in
here is reproducible.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import helpers as H
from cvdiscord import (
    DegenerateSplitError,
    Histogram,
    InsufficientDataError,
    RecordSet,
    SwitchedNoise,
    ValidationError,
    analytic_peak_separation,
    chi_square_two_sample,
    estimate_density,
    estimate_peak,
    joint_marginal_form,
    modulated_beam,
    sample_gaussian,
    sample_scheme,
    split_balanced,
    split_by_threshold,
    sweep_modulation,
    tensor,
    vacuum_single,
    verdict_gaussian,
    verdict_mixture,
)
from cvdiscord import sampler, verifier
from cvdiscord.sampler import CHUNK, _draw, _gaussian_chunk, _streams
from cvdiscord.verifier import (
    CANONICAL_PAIRS,
    ChiSquareResult,
    DiscordVerdict,
    PairStats,
    _bin_sides,
    _fit_peaks,
    _order_stat,
    _pair_stats,
    _percentile,
    bin_count_fd,
    sweep_to_csv,
    verdict_to_json,
)

HALF_PI = np.pi / 2.0


def _records_for_pairs(state, n_per_pair, seed, pairs=CANONICAL_PAIRS):
    parts = [sample_gaussian(state, [(ta, tb)], n_per_pair, seed=seed + i)
             for i, (ta, tb) in enumerate(pairs)]
    return H.concat_records(parts)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_sides_are_balanced_and_exhaustive():
    n = 100_000
    rs = sample_gaussian(split_balanced(modulated_beam(1.0, 1.0)),
                         [(0.0, 0.0)], n, seed=1)
    plus, minus = split_by_threshold(rs)
    assert len(plus) + len(minus) == n
    assert abs(len(plus) - n / 2) < 3.0 * np.sqrt(n) / 2.0
    assert np.array_equal(plus, rs.x_b[rs.x_a >= 0.0])
    assert np.array_equal(minus, rs.x_b[rs.x_a < 0.0])


def test_split_ties_go_to_the_plus_side():
    rs = RecordSet(np.array([-1.0, 0.0, 0.0, 2.0]), np.arange(4.0),
                   [(0.0, 0.0)], [4])
    plus, minus = split_by_threshold(rs, 0.0)
    assert plus.tolist() == [1.0, 2.0, 3.0] and minus.tolist() == [0.0]


def test_split_degenerates_when_one_side_is_empty():
    rs = RecordSet(np.ones(3), np.ones(3), [(0.0, 0.0)], [3])
    with pytest.raises(DegenerateSplitError, match="at phase pair .0, 0. "):
        split_by_threshold(rs, 100.0)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_density_binning_is_deterministic_and_padded():
    values = np.random.default_rng(2).normal(size=10_000)
    one = estimate_density(values)
    two = estimate_density(values)
    assert np.array_equal(one.edges, two.edges)
    assert np.array_equal(one.counts, two.counts)
    assert one.total == 10_000
    # one empty guard bin on each side
    assert one.counts[0] == 0 and one.counts[-1] == 0
    assert one.edges[0] < values.min() <= one.edges[1]
    assert MIN_BINS_OK(len(one.counts))


def MIN_BINS_OK(k):
    from cvdiscord.verifier import MAX_BINS, MIN_BINS
    return MIN_BINS <= k <= MAX_BINS + 2


def test_density_respects_explicit_edges():
    values = np.array([0.1, 0.5, 0.9])
    edges = np.linspace(0.0, 1.0, 6)
    hist = estimate_density(values, edges=edges)
    assert np.array_equal(hist.counts, [1, 0, 1, 0, 1])
    with pytest.raises(InsufficientDataError):
        estimate_density(np.array([]))


def _exactness_cases():
    # every n mod 4, small and large, as numpy's quartile index (n - 1) q
    # has a different fraction for each
    rng = np.random.default_rng(8)
    large = int(rng.integers(1_000, 200_000)) // 4 * 4
    for n in [1, 2, 3, 4, 5, 6, 7] + [large + r for r in range(4)]:
        x = rng.normal(size=n) * 3.0
        yield pytest.param(x, id=f"normal-{n}")
        yield pytest.param(np.round(x, 1), id=f"rounded-{n}")  # ties
    for value in (2.5, 0.0, -0.0, -7.0):
        for n in (1, 2, 5, 1000):
            yield pytest.param(np.full(n, value), id=f"constant-{value}-{n}")


@pytest.mark.parametrize("values", _exactness_cases())
def test_binning_from_one_sort_matches_numpy_bit_for_bit(values):
    ordered = np.sort(values)
    quartiles = np.array([_percentile((ordered,), 0.75), _percentile((ordered,), 0.25)])
    assert quartiles.tobytes() == np.percentile(values, [75.0, 25.0]).tobytes()
    hist = estimate_density(values)
    counts, _ = np.histogram(values, bins=hist.edges)
    assert hist.counts.dtype == counts.dtype and np.array_equal(hist.counts, counts)
    # values already in order are not sorted again; one out of order at the
    # end is caught
    for given in (ordered, np.append(ordered[1:], ordered[0])):
        again = estimate_density(given)
        assert np.array_equal(again.edges, hist.edges)
        assert np.array_equal(again.counts, hist.counts)
    # given edges that leave values outside, on both ends, and on an edge
    mid = float(np.median(values))
    for edges in (np.linspace(mid - 1.0, mid + 1.0, 7), [mid, mid + 0.5],
                  [ordered[0] - 1.0, ordered[-1]]):
        counts, _ = np.histogram(values, bins=edges)
        assert np.array_equal(estimate_density(values, edges=edges).counts, counts)


def test_bin_count_clamps():
    rng = np.random.default_rng(3)
    small = bin_count_fd((np.sort(rng.normal(size=30)),))
    huge = bin_count_fd((np.sort(rng.normal(size=4_000_000)),))
    from cvdiscord.verifier import MAX_BINS, MIN_BINS
    assert small == MIN_BINS
    assert huge == MAX_BINS
    assert bin_count_fd((np.ones(100),)) == MIN_BINS


def test_order_statistic_of_two_parts_matches_a_sort():
    # small integers, so ties within and across the parts are common
    rng = np.random.default_rng(12)
    for _ in range(300):
        a, b = (np.sort(rng.integers(-3, 4, size=rng.integers(0, 6)).astype(float))
                for _ in range(2))
        whole = np.sort(np.concatenate([a, b]))
        for parts in ((a, b), (b, a), (whole,)):
            assert [_order_stat(parts, k) for k in range(len(whole))] == whole.tolist()


def _pair_cases():
    # (x_A, x_B, threshold) of one pair
    rng = np.random.default_rng(13)
    x_a, x_b = rng.normal(size=(2, 1_001))
    yield pytest.param(x_a, np.round(x_b, 1), 0.0, id="ties-across-sides")
    yield pytest.param(x_a, np.full(1_001, 2.5), 0.0, id="all-equal")
    yield pytest.param(np.r_[-1.0, x_a[:40] ** 2], x_b[:41], 0.0, id="a-side-of-one")
    yield pytest.param(np.array([1.0, -1.0]), np.array([0.5, 3.0]), 0.0, id="n-2")
    # integers 0..50 twice, one zero negative, on 50 bins of width 1: every
    # value on an edge, and each side holds one of each
    ints = np.repeat(np.arange(51.0), 2)
    ints[1] = -0.0
    yield pytest.param(np.tile([1.0, -1.0], 51), ints, 0.0, id="on-the-edges")
    signed = np.where(np.arange(1_001) % 2 == 0, np.copysign(0.0, x_a), x_b)
    yield pytest.param(x_a, signed, 0.0, id="signed-zeros")
    yield pytest.param(x_a, x_b, 1.0, id="unequal-sides")


@pytest.mark.parametrize("x_a, x_b, threshold", _pair_cases())
def test_pair_binning_from_two_sorted_sides_matches_the_whole(x_a, x_b, threshold):
    rs = RecordSet(x_a, x_b, [(0.0, 0.0)], [len(x_a)])
    hists, (plus, minus) = _bin_sides(rs, threshold)
    whole = estimate_density(np.concatenate([plus, minus]))
    assert hists.whole.edges.tobytes() == whole.edges.tobytes()
    assert hists.whole.edges.tobytes() == estimate_density(x_b).edges.tobytes()
    assert hists.whole.counts.dtype == whole.counts.dtype
    assert np.array_equal(hists.whole.counts, whole.counts)
    for hist, side in ((hists.plus, x_b[x_a >= threshold]),
                       (hists.minus, x_b[x_a < threshold])):
        assert np.array_equal(hist.counts, np.histogram(side, hists.whole.edges)[0])
    ordered = np.sort(x_b)
    assert bin_count_fd((plus, minus)) == bin_count_fd((ordered,))
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        got, want = _percentile((plus, minus), q), np.percentile(x_b, 100.0 * q)
        # bit for bit, but for the sign of a zero, which the order of ties sets
        assert np.float64(got).tobytes() == want.tobytes() or got == want == 0


def test_histogram_validation():
    with pytest.raises(ValidationError):
        Histogram(np.array([0.0, 1.0]), np.array([1, 2]))
    with pytest.raises(ValidationError):
        Histogram(np.array([0.0, 1.0, 0.5]), np.array([1, 2]))
    with pytest.raises(ValidationError):
        Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, -2]))


# ---------------------------------------------------------------------------
# peak estimation
# ---------------------------------------------------------------------------


def test_peak_location_on_a_known_gaussian():
    rng = np.random.default_rng(5)
    values = rng.normal(2.0, 1.0, size=1_000_000)
    est = estimate_peak(estimate_density(values), np.random.default_rng(0), 200)
    assert not est.boundary
    assert est.std_error > 0.0
    assert abs(est.location - 2.0) < 3.0 * est.std_error
    assert abs(est.location - 2.0) < 0.02


def test_peak_bootstrap_error_tracks_repeated_simulation():
    n, reps = 100_000, 30
    locs = []
    for i in range(reps):
        values = np.random.default_rng(100 + i).normal(0.0, 1.0, size=n)
        est = estimate_peak(estimate_density(values),
                            np.random.default_rng(0), n_boot=2)
        locs.append(est.location)
    spread = np.std(locs)
    values = np.random.default_rng(200).normal(0.0, 1.0, size=n)
    est = estimate_peak(estimate_density(values), np.random.default_rng(0), 200)
    assert spread / 2.0 < est.std_error < spread * 2.0


def test_peak_flags_a_boundary_mode():
    # counts rising through the last bin: the mode sits on the edge
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.arange(10, 110, 10)
    est = estimate_peak(Histogram(edges, counts), np.random.default_rng(0), 20)
    assert est.boundary
    assert est.location == pytest.approx(0.95, abs=1e-12)
    # a cliff-edged sample under automatic padded binning stays unflagged
    values = -np.abs(np.random.default_rng(6).normal(size=50_000))
    auto = estimate_peak(estimate_density(values), np.random.default_rng(0), 20)
    assert not auto.boundary
    assert abs(auto.location) < 0.15


def test_peak_needs_three_occupied_bins():
    with pytest.raises(InsufficientDataError):
        estimate_peak(estimate_density(np.array([1.0])), np.random.default_rng(0))
    with pytest.raises(InsufficientDataError):
        estimate_peak(estimate_density(np.full(10, 3.25)), np.random.default_rng(0))


@pytest.mark.parametrize("n_boot", [1, 0, -3, 2.5])
def test_peak_needs_two_bootstrap_replicates(n_boot):
    hist = estimate_density(np.random.default_rng(3).normal(size=2_000))
    with pytest.raises(ValidationError, match=f"n_boot .* got {n_boot}$"):
        estimate_peak(hist, np.random.default_rng(0), n_boot)


# a Gaussian profile of sd 6 bins peaked at bin 20, on 40 bins
GAUSS_COUNTS = np.rint(1000 * np.exp(-(np.arange(40) - 20) ** 2 / 72.0)).astype(int)


def _changed(counts, changes: dict) -> np.ndarray:
    counts = np.array(counts, dtype=int)
    for index, value in changes.items():
        counts[index] = value
    return counts


# rows that take each branch of the peak fit, on 40 bins of width 0.5
BRANCH_ROWS = {
    "maximum on the left edge": np.arange(40, 0, -1),
    "maximum on the right edge": np.arange(1, 41),
    "fewer than 3 occupied bins": _changed(np.zeros(40), {19: 3, 20: 50, 21: 5}),
    "2 occupied bins about an empty one": _changed(
        np.zeros(40), {5: 5, 18: 40, 20: 50, 21: 3, 35: 5}),
    "one occupied bin": _changed(np.zeros(40), {20: 7}),
    "3 occupied bins": _changed(np.zeros(40), {19: 30, 20: 50, 21: 20}),
    "shallow curvature": np.rint(
        1000 * np.exp(-(np.arange(40) - 20.4) ** 2 / 1800.0)).astype(int),
    "no downward curvature": _changed(GAUSS_COUNTS, {
        16: 900, 17: 600, 18: 450, 19: 600, 21: 600, 22: 450, 23: 600, 24: 900}),
    "vertex clamped to the window": _changed(GAUSS_COUNTS, {
        16: 300, 17: 450, 18: 620, 19: 800, 21: 40, 22: 30, 23: 20, 24: 10,
        25: 5}),
    "lobes trimmed at both ends": _changed(GAUSS_COUNTS,
                                           {15: 50, 16: 60, 24: 700, 25: 30}),
    "empty bin inside the window": _changed(GAUSS_COUNTS, {21: 950, 22: 0}),
    "gaussian": GAUSS_COUNTS,
}
BRANCH_EDGES = np.linspace(-10.0, 10.0, 41)


def test_batched_peak_fit_matches_the_scalar_reference_on_each_branch():
    rows = np.array(list(BRANCH_ROWS.values()))
    ref = [H.reference_peak(BRANCH_EDGES, row) for row in rows]
    locs, boundary = _fit_peaks(BRANCH_EDGES, rows)
    assert np.abs(locs - [loc for loc, _ in ref]).max() <= 1e-10
    assert boundary.tolist() == [edge for _, edge in ref]
    assert boundary.tolist() == [name.startswith("maximum") for name in BRANCH_ROWS]
    for row, (loc, edge) in zip(rows, ref):
        alone, flag = _fit_peaks(BRANCH_EDGES, row[None])
        assert abs(alone[0] - loc) <= 1e-10 and flag[0] == edge


@pytest.mark.parametrize("n", [500, 20_000, 1_000_000])
@pytest.mark.parametrize("depth", [0.0, 4.5])
def test_batched_peak_fit_matches_the_scalar_reference_on_replicates(depth, n):
    state = split_balanced(modulated_beam(0.0, depth))
    rs = sample_gaussian(state, [(HALF_PI, HALF_PI)], n, seed=17)
    hist = estimate_density(split_by_threshold(rs)[0])
    est = estimate_peak(hist, np.random.default_rng(4), 100)
    # the bootstrap draws, as estimate_peak makes them
    reps = np.random.default_rng(4).multinomial(
        hist.total, hist.counts / hist.total, size=100)
    counts = np.vstack([hist.counts, reps])
    locs, boundary = _fit_peaks(hist.edges, counts)
    ref = np.array([H.reference_peak(hist.edges, row) for row in counts])
    assert np.abs(locs - ref[:, 0]).max() <= 1e-10
    assert boundary.tolist() == ref[:, 1].astype(bool).tolist()
    assert (est.location, est.std_error) == (locs[0], locs[1:].std())
    assert est.boundary == boundary[0]
    assert abs(est.std_error - ref[1:, 0].std()) <= 1e-10


def test_peak_estimates_converge_with_sample_size():
    state = split_balanced(modulated_beam(0.0, 2.0))
    form = joint_marginal_form(state, HALF_PI, HALF_PI)
    want = analytic_peak_separation(form)
    medians = []
    for n in (10_000, 100_000, 1_000_000):
        errors = []
        for seed in range(20):
            rs = sample_gaussian(state, [(HALF_PI, HALF_PI)], n, seed=300 + seed)
            delta = verdict_gaussian(rs, pairs=[(HALF_PI, HALF_PI)], seed=seed,
                                     n_boot=2).per_pair[0].delta
            errors.append(abs(delta - want))
        medians.append(np.median(errors))
    assert medians[0] > medians[1] > medians[2]


def test_separation_matches_analytic_on_reference_state():
    state = H.measured_state()
    for ta, tb, want in ((0.0, 0.0, H.MEASURED_DELTA_00),
                         (HALF_PI, HALF_PI, H.MEASURED_DELTA_90_90)):
        rs = sample_gaussian(state, [(ta, tb)], 400_000, seed=17)
        pair = verdict_gaussian(rs, pairs=[(ta, tb)], seed=17).per_pair[0]
        assert abs(pair.delta - want) < 3.0 * pair.sigma_delta
        peak_p, peak_m = (estimate_peak(estimate_density(side), np.random.default_rng(17))
                          for side in split_by_threshold(rs))
        assert peak_p.location > 0.0 > peak_m.location


def test_separation_is_noise_level_on_a_product_state():
    rng = np.random.default_rng(19)
    state = H.random_product_state(rng)
    rs = sample_gaussian(state, [(0.0, 0.0)], 200_000, seed=19)
    pair = verdict_gaussian(rs, pairs=[(0.0, 0.0)], seed=19).per_pair[0]
    assert abs(pair.delta) < 4.0 * pair.sigma_delta


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------


def test_chi_square_identical_histograms():
    counts = np.random.default_rng(7).integers(50, 200, size=40)
    edges = np.linspace(-1.0, 1.0, 41)
    h = Histogram(edges, counts)
    res = chi_square_two_sample(h, h)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.dof == res.merged_bins - 1


def test_chi_square_requires_common_binning():
    h1 = Histogram(np.linspace(0, 1, 11), np.full(10, 50))
    h2 = Histogram(np.linspace(0, 2, 11), np.full(10, 50))
    with pytest.raises(ValidationError):
        chi_square_two_sample(h1, h2)
    h3 = Histogram(np.linspace(0, 1, 6), np.full(5, 100))
    with pytest.raises(ValidationError):
        chi_square_two_sample(h1, h3)


def test_chi_square_needs_two_merged_bins():
    edges = np.linspace(0, 1, 5)
    sparse = Histogram(edges, np.array([0, 1, 1, 0]))
    with pytest.raises(InsufficientDataError):
        chi_square_two_sample(sparse, sparse)


def test_chi_square_merges_thin_tails():
    rng = np.random.default_rng(8)
    edges = np.linspace(-6, 6, 200)
    a = Histogram(edges, np.histogram(rng.normal(size=20_000), bins=edges)[0])
    b = Histogram(edges, np.histogram(rng.normal(size=20_000), bins=edges)[0])
    res = chi_square_two_sample(a, b)
    assert res.merged_bins < 199
    assert res.p_value > 1e-4


def test_chi_square_p_values_are_uniform_under_the_null():
    trials, n = 500, 100_000
    rng = np.random.default_rng(9)
    ps = []
    for _ in range(trials):
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        edges = estimate_density(np.concatenate([x, y])).edges
        res = chi_square_two_sample(estimate_density(x, edges=edges),
                                    estimate_density(y, edges=edges))
        ps.append(res.p_value)
    ps = np.asarray(ps)
    assert stats.kstest(ps, "uniform").pvalue > 0.01
    rejections = np.mean(ps < 0.05)
    assert 0.02 <= rejections <= 0.08


def test_chi_square_separates_different_scales():
    rng = np.random.default_rng(10)
    x = rng.normal(0.0, 1.0, size=50_000)
    y = rng.normal(0.0, 1.2, size=50_000)
    edges = estimate_density(np.concatenate([x, y])).edges
    res = chi_square_two_sample(estimate_density(x, edges=edges),
                                estimate_density(y, edges=edges))
    assert res.p_value < 1e-12


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verdict_discordant_on_reference_state():
    rs = _records_for_pairs(H.measured_state(), 200_000, seed=50)
    verdict = verdict_gaussian(rs, seed=50)
    assert verdict.decision == "discordant"
    by_pair = {(p.theta_a, p.theta_b): p for p in verdict.per_pair}
    assert by_pair[(0.0, 0.0)].k >= 3.0
    assert by_pair[(HALF_PI, HALF_PI)].k >= 3.0
    assert by_pair[(0.0, HALF_PI)].k < 3.0
    assert by_pair[(HALF_PI, 0.0)].k < 3.0


def test_verdict_localizes_a_cross_quadrature_correlation():
    rng = np.random.default_rng(51)
    state = H.random_cross_only_state(rng)
    rs = _records_for_pairs(state, 200_000, seed=51)
    verdict = verdict_gaussian(rs, seed=51)
    assert verdict.decision == "discordant"
    by_pair = {(p.theta_a, p.theta_b): p for p in verdict.per_pair}
    assert by_pair[(0.0, HALF_PI)].k >= 3.0
    for key in ((0.0, 0.0), (HALF_PI, 0.0), (HALF_PI, HALF_PI)):
        assert by_pair[key].k < 3.0


def test_verdict_requires_complete_balanced_pairs():
    state = H.measured_state()
    rs = _records_for_pairs(state, 5_000, seed=52, pairs=CANONICAL_PAIRS[:2])
    with pytest.raises(ValidationError, match="missing records"):
        verdict_gaussian(rs, seed=52)

    lopsided = H.concat_records([
        sample_gaussian(state, [(ta, tb)], 5_000 if i else 20_000, seed=53 + i)
        for i, (ta, tb) in enumerate(CANONICAL_PAIRS)
    ])
    with pytest.raises(ValidationError, match="differ by more than 10%"):
        verdict_gaussian(lopsided, seed=53)


@pytest.mark.parametrize("interleaved", [False, True])
def test_verdicts_leave_the_callers_records_as_they_were(interleaved):
    # one run per pair gives select_pair views of the columns, interleaved
    # runs a copy; each side is sorted in place in the split's own copy
    rs = _records_for_pairs(H.measured_state(), 3_000, seed=64)
    if interleaved:
        rows = np.arange(len(rs)).reshape(4, -1).T.ravel()
        rs = RecordSet(rs.x_a[rows], rs.x_b[rows], np.tile(CANONICAL_PAIRS, (3_000, 1)),
                       [1] * len(rows))
    before = rs.x_a.tobytes(), rs.x_b.tobytes()
    verdict_gaussian(rs, seed=64, n_boot=20)
    one = rs.select_pair(0.0, 0.0)
    verdict_mixture(one, threshold=0.3)
    verdict_gaussian(one, pairs=[(0.0, 0.0)], n_boot=2)
    assert (rs.x_a.tobytes(), rs.x_b.tobytes()) == before


def test_a_sweep_leaves_the_records_it_draws_as_they_were(monkeypatch):
    seen, bin_sides = [], verifier._bin_sides

    def checked(records, threshold):
        drawn = records.x_a.tobytes(), records.x_b.tobytes()
        out = bin_sides(records, threshold)
        seen.append(drawn == (records.x_a.tobytes(), records.x_b.tobytes()))
        return out

    monkeypatch.setattr(verifier, "_bin_sides", checked)
    sweep_modulation([0.0, 2.0], n=2_000, seed=64, n_boot=2)
    assert seen == [True, True]


def test_sweep_rows_hold_the_pair_stats_of_each_depths_records():
    # depth i draws and bootstraps as item i of the seed; its row carries
    # what verify computes on those records, and the first depth's records
    # are those sample_gaussian draws at one pair and the seed
    depths, n, seed, n_boot = [0.5, 2.0], 3_000, 66, 20
    rows = sweep_modulation(depths, n=n, seed=seed, n_boot=n_boot)
    pair = [(HALF_PI, HALF_PI)]
    for i, (depth, row) in enumerate(zip(depths, rows)):
        form = joint_marginal_form(split_balanced(modulated_beam(0.0, depth)), *pair[0])
        rs = RecordSet(*_draw([(n, _streams(seed, i), _gaussian_chunk(form))]), pair, [n])
        stats = _pair_stats(rs, *pair[0], 0.0, _streams(seed, i), n_boot)
        assert (row["delta"], row["sigma_delta"]) == (stats.delta, stats.sigma_delta)
    rs = sample_gaussian(split_balanced(modulated_beam(0.0, depths[0])), pair, n, seed)
    verified = verdict_gaussian(rs, seed=seed, n_boot=n_boot, pairs=pair).per_pair[0]
    assert (rows[0]["delta"], rows[0]["sigma_delta"]) == (verified.delta,
                                                          verified.sigma_delta)


def test_pair_stats_on_the_pool_match_serial_calls():
    state = H.measured_state()
    rs = _records_for_pairs(state, CHUNK, seed=60)
    verdict = verdict_gaussian(rs, seed=61, n_boot=50)
    serial = tuple(_pair_stats(rs.select_pair(ta, tb), ta, tb, 0.0, _streams(61, i), 50)
                   for i, (ta, tb) in enumerate(CANONICAL_PAIRS))
    assert verdict.per_pair == serial
    for ours, theirs in zip(verdict.per_pair, serial):
        assert np.array_equal(ours.hists.whole.counts, theirs.hists.whole.counts)


@pytest.mark.parametrize("n", [2_000, CHUNK])
def test_empty_side_error_names_the_first_pair_in_order(n):
    # pairs 1 and 3 of four have every x_A below the threshold; pairs of
    # CHUNK records run on the pool, smaller ones serially
    x_a = np.tile(np.linspace(-1.0, 1.0, n), 4)
    x_a[n:2 * n] -= 10.0
    x_a[3 * n:] -= 10.0
    rs = RecordSet(x_a, np.sin(np.arange(4 * n)), CANONICAL_PAIRS, [n] * 4)
    with pytest.raises(DegenerateSplitError,
                       match=rf"at phase pair \(0, 1\.5708\) \(0 of {n}"):
        verdict_gaussian(rs, n_boot=20)


def test_pairs_under_one_chunk_stay_on_the_calling_thread(monkeypatch):
    class NoPool:
        def submit(self, *args):
            raise AssertionError("a pair under CHUNK records went to the pool")

    rs = _records_for_pairs(H.measured_state(), CHUNK - 1, seed=62)
    serial = verdict_gaussian(rs, seed=63, n_boot=20)
    monkeypatch.setattr(sampler, "_POOL", NoPool())
    assert verdict_gaussian(rs, seed=63, n_boot=20).per_pair == serial.per_pair


def test_false_positive_rate_on_product_states():
    rng = np.random.default_rng(54)
    detected = 0
    ps = []
    for i in range(100):
        state = H.random_product_state(rng)
        rs = _records_for_pairs(state, 20_000, seed=1_000 + 7 * i)
        verdict = verdict_gaussian(rs, seed=1_000 + 7 * i, n_boot=100)
        detected += verdict.decision == "discordant"
        ps.extend(p.chi2.p_value for p in verdict.per_pair)
    assert detected <= 5
    # the diagnostic chi-square must stay calibrated through the pipeline
    assert stats.kstest(np.asarray(ps), "uniform").pvalue > 0.01


def test_detection_rate_on_correlated_states():
    rng = np.random.default_rng(55)
    missed = 0
    for i in range(100):
        state = H.random_bipartite_state(rng, min_c=0.5)
        rs = _records_for_pairs(state, 1_000_000, seed=5_000 + 11 * i)
        verdict = verdict_gaussian(rs, seed=5_000 + 11 * i, n_boot=40)
        missed += verdict.decision != "discordant"
    assert missed <= 5


def test_mixture_verdict_detects_switched_noise():
    rs = sample_scheme(SwitchedNoise(3.0, 3.0, 0.5), [(0.0, 0.0)], 500_000, 56)
    verdict = verdict_mixture(rs, threshold=0.0)
    assert verdict.decision == "discordant"
    assert min(s.chi2.p_value for s in verdict.sides) < 1e-6
    # the gate is sign-symmetric, so the two sides mirror each other
    assert verdict.variance_ratio == pytest.approx(1.0, abs=0.02)
    shifts = sorted(s.mean_shift for s in verdict.sides)
    assert shifts[0] < -0.3 < 0.3 < shifts[1]


def test_mixture_verdict_passes_an_unmodulated_control():
    vacuum = tensor(vacuum_single(), vacuum_single())
    rs = sample_gaussian(vacuum, [(0.0, 0.0)], 500_000, 57)
    verdict = verdict_mixture(rs, threshold=0.0)
    assert verdict.decision == "not-detected"
    assert verdict.variance_ratio < 1.02


def test_mixture_verdict_degenerate_threshold():
    vacuum = tensor(vacuum_single(), vacuum_single())
    rs = sample_gaussian(vacuum, [(0.0, 0.0)], 1_000, 58)
    with pytest.raises(DegenerateSplitError):
        verdict_mixture(rs, threshold=1e9)


# ---------------------------------------------------------------------------
# sweep and serialization
# ---------------------------------------------------------------------------


def test_sweep_rows_track_the_analytic_curve():
    rows = sweep_modulation([0.0, 1.0, 4.5], n=50_000, seed=59, n_boot=50)
    assert [r["depth"] for r in rows] == [0.0, 1.0, 4.5]
    assert rows[0]["delta_analytic"] == 0.0
    assert abs(rows[0]["delta"]) <= 4.0 * rows[0]["sigma_delta"]
    for row, frozen in ((rows[1], H.SWEEP_FROZEN[1.0]), (rows[2], H.SWEEP_FROZEN[4.5])):
        assert row["delta_analytic"] == pytest.approx(frozen, abs=5e-6)
        assert abs(row["delta"] - row["delta_analytic"]) < 4.0 * row["sigma_delta"]
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match=r"^depths must be a finite number in \[0, 1000\]"):
            sweep_modulation([0.5, bad], n=100, seed=0)


def test_sweeps_one_seed_apart_share_no_row():
    # equal depths, so a depth that drew from a neighbouring seed's stream
    # would repeat a row of the other sweep
    rows = [sweep_modulation([2.0] * 3, n=3_000, seed=seed, n_boot=20)
            for seed in (6, 7)]
    assert not [r for r in rows[0] if r in rows[1]]
    assert len({r["delta"] for r in rows[0] + rows[1]}) == 6


def test_sweep_rows_on_the_pool_match_serial_ones(monkeypatch):
    # depths go to the pool, and at CHUNK records draw their chunks there
    # too; a dedicated one-thread pool makes that so on any machine
    depths = [0.0, 2.0, 4.0]
    monkeypatch.setattr(sampler, "_POOL", None)
    serial = sweep_modulation(depths, n=CHUNK, seed=3, n_boot=20)
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(sampler, "_POOL", pool)
    try:
        assert sweep_modulation(depths, n=CHUNK, seed=3, n_boot=20) == serial
    finally:
        pool.shutdown()


def test_verdict_json_and_csv_outputs(tmp_path):
    rs = _records_for_pairs(H.measured_state(), 20_000, seed=60)
    verdict = verdict_gaussian(rs, seed=60, n_boot=40)
    doc = verdict_to_json(verdict, {})
    import json

    parsed = json.loads(doc)
    assert parsed["decision"] == "discordant"
    assert len(parsed["pairs"]) == 4
    for entry in parsed["pairs"]:
        assert set(entry) >= {"theta_A", "theta_B", "delta", "sigma_delta",
                              "k", "chi2_p"}

    sweep_path = tmp_path / "sweep.csv"
    rows = [{"depth": 0.0, "delta": 0.0, "sigma_delta": 1.0,
             "delta_analytic": 0.0, "n": 10}]
    sweep_to_csv(rows, sweep_path)
    header = sweep_path.read_text().splitlines()[0]
    assert header == "depth,delta,sigma_delta,delta_analytic,n"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_verdict_json_is_strict_with_null_k_for_zero_sigma():
    chi2 = ChiSquareResult(statistic=3.5, dof=4, p_value=0.48, merged_bins=0)
    pairs = (
        PairStats(theta_a=0.0, theta_b=0.0, delta=0.25, sigma_delta=0.0,
                  k=np.inf, chi2=chi2, n_plus=10, n_minus=10),
        PairStats(theta_a=0.0, theta_b=HALF_PI, delta=0.1, sigma_delta=0.03,
                  k=0.1 / 0.03, chi2=chi2, n_plus=10, n_minus=10),
    )
    verdict = DiscordVerdict(per_pair=pairs, decision="discordant", k_min=3.0,
                             threshold=0.0)
    text = verdict_to_json(verdict, {"seed": 1})
    assert "Infinity" not in text
    parsed = _strict_json(text)
    assert parsed["pairs"][0]["k"] is None
    assert parsed["pairs"][0]["sigma_delta"] == 0.0
    assert parsed["pairs"][1]["k"] == 0.1 / 0.03
