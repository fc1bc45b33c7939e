"""Peak estimation, two-sample chi-square and the discord verdicts.

The decision-soundness tests simulate ground truth: product states must
come out not-detected (false-positive control) and strongly correlated
states must come out discordant.  Seeds are fixed, so every number in
here is reproducible.
"""

import json

import numpy as np
import pytest
from scipy import stats

import helpers as H
from cvdiscord import (
    DegenerateSplitError,
    GaussianModulation,
    Histogram,
    InsufficientDataError,
    RecordSet,
    SimulationConfig,
    SwitchedNoise,
    ValidationError,
    analytic_peak_separation,
    chi_square_two_sample,
    concat_records,
    estimate_density,
    estimate_peak,
    joint_marginal_form,
    modulated_beam,
    sample_gaussian,
    sample_scheme,
    separation_statistic,
    split_balanced,
    split_by_threshold,
    sweep_modulation,
    verdict_gaussian,
    verdict_mixture,
)
from cvdiscord.verifier import (
    CANONICAL_PAIRS,
    ChiSquareResult,
    DiscordVerdict,
    PairStats,
    bin_count_fd,
    histogram_to_csv,
    sweep_to_csv,
    verdict_to_json,
)

HALF_PI = np.pi / 2.0


def _records_for_pairs(state, n_per_pair, seed, pairs=CANONICAL_PAIRS):
    parts = [sample_gaussian(state, ta, tb, n_per_pair, seed=seed + i)
             for i, (ta, tb) in enumerate(pairs)]
    return concat_records(parts)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_sides_are_balanced_and_exhaustive():
    n = 100_000
    rs = sample_gaussian(split_balanced(modulated_beam(1.0, 1.0)),
                         0.0, 0.0, n, seed=1)
    plus, minus = split_by_threshold(rs)
    assert len(plus) + len(minus) == n
    assert abs(len(plus) - n / 2) < 3.0 * np.sqrt(n) / 2.0
    assert np.all(plus.x_a >= 0.0)
    assert np.all(minus.x_a < 0.0)
    rebuilt = np.sort(np.concatenate([plus.x_b, minus.x_b]))
    assert np.array_equal(rebuilt, np.sort(rs.x_b))


def test_split_ties_go_to_the_plus_side():
    rs = RecordSet(np.zeros(4), np.zeros(4),
                   np.array([-1.0, 0.0, 0.0, 2.0]), np.arange(4.0))
    plus, minus = split_by_threshold(rs, 0.0)
    assert len(plus) == 3 and len(minus) == 1


def test_split_degenerates_when_one_side_is_empty():
    rs = RecordSet(np.zeros(3), np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(DegenerateSplitError):
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


def test_bin_count_clamps():
    rng = np.random.default_rng(3)
    small = bin_count_fd(rng.normal(size=30))
    huge = bin_count_fd(rng.normal(size=4_000_000))
    from cvdiscord.verifier import MAX_BINS, MIN_BINS
    assert small == MIN_BINS
    assert huge == MAX_BINS
    assert bin_count_fd(np.ones(100)) == MIN_BINS


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
    assert est.method == "bin-parabolic"
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
        estimate_peak(estimate_density(np.array([1.0])))
    with pytest.raises(InsufficientDataError):
        estimate_peak(estimate_density(np.full(10, 3.25)))


def test_peak_estimates_converge_with_sample_size():
    state = split_balanced(modulated_beam(0.0, 2.0))
    form = joint_marginal_form(state, HALF_PI, HALF_PI)
    want = analytic_peak_separation(form)
    medians = []
    for n in (10_000, 100_000, 1_000_000):
        errors = []
        for seed in range(20):
            rs = sample_gaussian(state, HALF_PI, HALF_PI, n, seed=300 + seed)
            delta, _, _, _ = separation_statistic(rs, seed=seed, n_boot=2)
            errors.append(abs(delta - want))
        medians.append(np.median(errors))
    assert medians[0] > medians[1] > medians[2]


def test_separation_matches_analytic_on_reference_state():
    state = H.measured_state()
    for ta, tb, want in ((0.0, 0.0, H.MEASURED_DELTA_00),
                         (HALF_PI, HALF_PI, H.MEASURED_DELTA_90_90)):
        rs = sample_gaussian(state, ta, tb, 400_000, seed=17)
        delta, sigma, peak_p, peak_m = separation_statistic(rs, seed=17)
        assert abs(delta - want) < 3.0 * sigma
        assert peak_p.location > 0.0 > peak_m.location


def test_separation_is_noise_level_on_a_product_state():
    rng = np.random.default_rng(19)
    state = H.random_product_state(rng)
    rs = sample_gaussian(state, 0.0, 0.0, 200_000, seed=19)
    delta, sigma, _, _ = separation_statistic(rs, seed=19)
    assert abs(delta) < 4.0 * sigma


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

    lopsided = concat_records([
        sample_gaussian(state, ta, tb, 5_000 if i else 20_000, seed=53 + i)
        for i, (ta, tb) in enumerate(CANONICAL_PAIRS)
    ])
    with pytest.raises(ValidationError, match="differ by more than 10%"):
        verdict_gaussian(lopsided, seed=53)


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
    cfg = SimulationConfig(SwitchedNoise(3.0, 3.0, 0.5), 500_000, seed=56)
    rs = sample_scheme(cfg)
    verdict = verdict_mixture(rs, threshold=0.0, seed=56)
    assert verdict.decision == "discordant"
    assert min(s.chi2.p_value for s in verdict.sides) < 1e-6
    # the gate is sign-symmetric, so the two sides mirror each other
    assert verdict.variance_ratio == pytest.approx(1.0, abs=0.02)
    shifts = sorted(s.mean_shift for s in verdict.sides)
    assert shifts[0] < -0.3 < 0.3 < shifts[1]


def test_mixture_verdict_passes_an_unmodulated_control():
    cfg = SimulationConfig(GaussianModulation(0.0, 0.0), 500_000, seed=57)
    rs = sample_scheme(cfg)
    verdict = verdict_mixture(rs, threshold=0.0, seed=57)
    assert verdict.decision == "not-detected"
    assert verdict.variance_ratio < 1.02


def test_mixture_verdict_degenerate_threshold():
    cfg = SimulationConfig(GaussianModulation(0.0, 0.0), 1_000, seed=58)
    rs = sample_scheme(cfg)
    with pytest.raises(DegenerateSplitError):
        verdict_mixture(rs, threshold=1e9, seed=58)


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
    with pytest.raises(ValidationError):
        sweep_modulation([-1.0], n=100, seed=0)


def test_verdict_json_and_csv_outputs(tmp_path):
    rs = _records_for_pairs(H.measured_state(), 20_000, seed=60)
    verdict = verdict_gaussian(rs, seed=60, n_boot=40)
    doc = verdict_to_json(verdict)
    import json

    parsed = json.loads(doc)
    assert parsed["decision"] == "discordant"
    assert len(parsed["pairs"]) == 4
    for entry in parsed["pairs"]:
        assert set(entry) >= {"theta_A", "theta_B", "delta", "sigma_delta",
                              "k", "chi2_p"}

    hist = estimate_density(rs.select_pair(0.0, 0.0))
    path = tmp_path / "hist.csv"
    histogram_to_csv(hist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "left_edge,right_edge,count"
    assert len(lines) == len(hist.counts) + 1

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
                             threshold=0.0, meta={"seed": 1})
    text = verdict_to_json(verdict)
    assert "Infinity" not in text
    parsed = _strict_json(text)
    assert parsed["pairs"][0]["k"] is None
    assert parsed["pairs"][0]["sigma_delta"] == 0.0
    assert parsed["pairs"][1]["k"] == 0.1 / 0.03
