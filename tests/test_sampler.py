"""Record generation: determinism, moments and distributional correctness.

Each modulation scheme is checked against the analytic joint density of the
matching classical mixture on the splitter, with a chi-square goodness of
fit at significance 1e-3.  The mixtures are independent oracles: they come
from the closed-form densities, not from the sampling code.
"""

import gc
import hashlib
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import helpers as H
from cvdiscord import (
    ArcsineComponent,
    AsyncSine,
    CoherentPoint,
    ParseError,
    PMixtureState,
    RecordSet,
    SwitchedNoise,
    SwitchedPhase,
    ThermalComponent,
    ValidationError,
    joint_marginal_density,
    joint_marginal_form,
    modulated_beam,
    output_joint_density,
    read_records,
    sample_gaussian,
    sample_scheme,
    split_balanced,
    split_by_threshold,
    tensor,
    vacuum_single,
    write_records,
)
from cvdiscord import sampler
from cvdiscord.cli import main
from cvdiscord.sampler import (
    CHUNK,
    SWITCHED_PHASE_AMPLITUDE,
    SWITCHED_PHASE_THRESHOLD,
    _draw,
    _starmap,
    _streams,
)

HALF_PI = np.pi / 2.0
GOF_ALPHA = 1e-3
ROOT_HALF = 1.0 / np.sqrt(2.0)


def _gof(rs, density) -> float:
    return H.chi2_gof_2d(rs.x_a, rs.x_b, density)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_bitwise():
    state = split_balanced(modulated_beam(2.0, 1.0))
    one = sample_gaussian(state, [(0.0, 0.0)], 20_000, seed=42)
    two = sample_gaussian(state, [(0.0, 0.0)], 20_000, seed=42)
    assert np.array_equal(one.x_a, two.x_a)
    assert np.array_equal(one.x_b, two.x_b)
    other = sample_gaussian(state, [(0.0, 0.0)], 20_000, seed=43)
    assert not np.array_equal(one.x_a, other.x_a)


def test_worker_count_does_not_change_the_stream(monkeypatch):
    # three chunks, the last one partial, so the pool fills two of them
    n = 2 * CHUNK + 1
    state = split_balanced(modulated_beam(1.0, 3.0))

    def draw():
        return (sample_gaussian(state, [(HALF_PI, HALF_PI)], n, seed=7),
                sample_scheme(SwitchedNoise(2.0, 2.0, 0.3), [(0.0, 0.0)], n, 9))

    pooled = draw()
    monkeypatch.setattr(sampler, "_POOL", None)
    for threaded, serial in zip(pooled, draw()):
        assert np.array_equal(threaded.x_a, serial.x_a)
        assert np.array_equal(threaded.x_b, serial.x_b)


# each public sampler with its source, called as sampler(pairs, n, seed)
SAMPLERS = {
    "sample_gaussian": lambda *args: sample_gaussian(
        split_balanced(modulated_beam(2.0, 1.0)), *args),
    "sample_scheme": lambda *args: sample_scheme(SwitchedNoise(2.0, 1.0, 0.3), *args),
}


@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS)
def test_a_prefix_of_the_pairs_draws_the_first_runs(sample):
    # chunk boundaries fall inside each pair and between pairs
    n = 2 * CHUNK + 1
    pairs = [(0.0, 0.0), (0.0, HALF_PI), (HALF_PI, HALF_PI)]
    together = sample(pairs, n, 9)
    assert np.array_equal(together.phases, pairs)
    assert np.array_equal(together.counts, [n] * 3)
    for j in (1, 2):
        first = sample(pairs[:j], n, 9)
        for name in ("x_a", "x_b"):
            assert np.array_equal(getattr(first, name), getattr(together, name)[:j * n])
        assert np.array_equal(first.phases, together.phases[:j])
        assert np.array_equal(first.counts, together.counts[:j])


@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS)
def test_an_empty_pair_list_is_rejected(sample):
    with pytest.raises(ValidationError, match="^no phase pairs given$"):
        sample([], 1_000, 9)


@pytest.mark.parametrize("sample", SAMPLERS.values(), ids=SAMPLERS)
@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_phase_is_rejected_naming_the_pair(sample, side, bad):
    pair = (bad, 0.0) if side == "a" else (0.0, bad)
    with pytest.raises(ValidationError,
                       match=f"^theta_{side} of pair 2 must be a finite number"):
        sample([(0.0, 0.0), pair], 1_000, 9)


def test_draws_one_seed_apart_share_no_run():
    # equal pairs, so a run that drew from a neighbouring seed's stream
    # would repeat a run of the other draw
    runs = [np.split(sample_scheme(SwitchedNoise(2.0, 1.0, 0.3), [(0.0, 0.0)] * 3,
                                   1_000, seed).x_b, 3) for seed in (4, 5)]
    assert not [1 for a in runs[0] for b in runs[1] if np.intersect1d(a, b).size]


def test_streams_of_nearby_seeds_items_and_children_are_distinct():
    firsts = {tuple(_streams(seed, item)(k).integers(1 << 62, size=4))
              for seed in (0, 1) for item in range(4) for k in range(6)}
    assert len(firsts) == 2 * 4 * 6
    # streams 0 and 1 are the two children that SeedSequence((s, i)).spawn
    # gives, which the bootstraps of a verdict have always drawn from
    spawned = np.random.SeedSequence((3, 1)).spawn(2)
    for k in (0, 1):
        assert np.array_equal(_streams(3, 1)(k).integers(1 << 62, size=4),
                              np.random.default_rng(spawned[k]).integers(1 << 62, size=4))


@pytest.mark.parametrize("seed", [-1, 1.0, "1", True, None, (1, 2), 2**32])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    with pytest.raises(ValidationError, match="^seed must be a non-negative integer"):
        sample_gaussian(split_balanced(modulated_beam(1.0, 1.0)), [(0.0, 0.0)], 10, seed)


def _sha256(*columns) -> list[str]:
    return [hashlib.sha256(col.tobytes()).hexdigest() for col in columns]


# SHA-256 of the x_A and x_B bytes of each draw below, pinned so that a
# faster sampling kernel must keep every record bit
DIGESTS = {
    "gaussian": ["a0b5550fef8b11f49313d594e401ebef2336922fcbbad3e4f228e336e2ede4c3",
                 "b8e497ec0cf7b5b5318747581eff4ca0918c4abc6284eda0e171c0f2c57185ba"],
    "split": ["fa122258e82ceba65ebf0b60e4558722b70cc346924c91b45fce9f66ac96817d",
              "de6ddf9f8ed8647009f11e68452a0232b7efdf043d8a4b90a574e7618a782475"],
    "switched_noise": ["f5909edbf2cc7074b0ab57ec86fe09644919f758c8b1d40920704c15a54bb27e",
                       "55a6d912fb7f9d84d3d956cd1aee9465b4b056ff2220d7cc7966f7db5bff48d9"],
    "switched_phase": ["c10ed9e8186a2f1c3714eeffa05e8f2cc6f51f02223f61a36ff644ff4ce671d0",
                       "3d2221972fc0bb5d9aa91c9d34e4f40ddb984d99cfa3dd8f50a8e949332fe3b5"],
    "async_sine": ["aec3ff9b6103bf4d3b330bf6fe9f1330c642c71f85b647752e31b21921bae77e",
                   "360aaaae364f6e9a009fd4e79d616bfba83ccb0ea250f5915e187eaa881176d3"],
}


def test_sampled_records_and_their_sides_keep_every_bit():
    # 70000 = 65536 + 4464: chunk boundaries inside pair 0 and between the pairs
    rs = sample_gaussian(split_balanced(modulated_beam(1.5, 1.5)),
                         [(0.0, 0.0), (HALF_PI, HALF_PI)], 70_000, 21)
    assert _sha256(rs.x_a, rs.x_b) == DIGESTS["gaussian"]
    assert _sha256(*split_by_threshold(rs)) == DIGESTS["split"]
    for scheme in (SwitchedNoise(3.0, 1.0), SwitchedPhase(), AsyncSine(2.0)):
        rs = sample_scheme(scheme, [(0.0, HALF_PI)], 70_000, 22)
        assert _sha256(rs.x_a, rs.x_b) == DIGESTS[scheme.kind], scheme.kind


def test_a_failing_chunk_raises_the_first_error_in_order():
    def chunk(rng, out_a, out_b):
        if (m := len(out_a)) < CHUNK:
            # the first short chunk fails last on two or more threads
            time.sleep(0.3 if m == 5 else 0.0)
            raise ValueError(f"short chunk of {m}")
        out_a[:], out_b[:] = 0.0, 1.0

    with pytest.raises(ValueError, match="short chunk of 5"):
        _draw([(5, _streams(1), chunk), (7, _streams(1, 1), chunk),
               (CHUNK + 9, _streams(1, 2), chunk)])
    x_a, x_b = _draw([(CHUNK, _streams(1), chunk), (2 * CHUNK, _streams(1, 1), chunk)])
    assert len(x_a) == 3 * CHUNK and (x_b == 1.0).all()


def test_concurrent_and_nested_starmaps_return_every_result_in_order():
    # a lost or misplaced result, or a wait on a call that no thread runs,
    # fails here; a short switch interval interleaves the threads densely
    def nested(k):
        return _starmap(lambda i: 100 * k + i, [(i,) for i in range(20)])

    def caller(t):
        results[t] = _starmap(nested, [(k,) for k in range(10)])

    results, old = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(t,), daemon=True)
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old)
    expected = [[100 * k + i for i in range(20)] for k in range(10)]
    assert results == dict.fromkeys(range(4), expected)


def test_starmap_frees_its_arguments_when_it_returns(monkeypatch):
    # the one pool thread is busy, so every call, the nested ones too, is
    # cancelled and run by its caller while its queue entry stays behind
    pool, release = ThreadPoolExecutor(1), threading.Event()
    pool.submit(release.wait, 60)
    monkeypatch.setattr(sampler, "_POOL", pool)

    class Column:
        pass

    def outer(column, k):
        # nested calls hold the column through fn, as _draw's fill does,
        # and through their arguments
        held = _starmap(lambda i: (column, i)[1], [(i,) for i in range(3)])
        given = _starmap(lambda c, i: i, [(column, i) for i in range(3)])
        return sum(held + given) + k

    try:
        columns = [Column() for _ in range(4)]
        refs = [weakref.ref(c) for c in columns]
        assert _starmap(outer, [(c, k) for k, c in enumerate(columns)]) == [6, 7, 8, 9]
        del columns
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
    finally:
        release.set()
        pool.shutdown()


def test_a_single_call_or_pool_false_runs_on_the_calling_thread():
    me = threading.get_ident()
    assert _starmap(threading.get_ident, [()]) == [me]
    assert _starmap(threading.get_ident, [()] * 8, pool=False) == [me] * 8


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_unmodulated_records_are_shot_noise():
    vacuum = tensor(vacuum_single(), vacuum_single())
    rs = sample_gaussian(vacuum, [(0.0, 0.0)], 1_000_000, 5)
    assert np.var(rs.x_a) == pytest.approx(1.0, abs=0.01)
    assert np.var(rs.x_b) == pytest.approx(1.0, abs=0.01)
    assert np.mean(rs.x_a) == pytest.approx(0.0, abs=0.005)
    corr = np.corrcoef(rs.x_a, rs.x_b)[0, 1]
    assert corr == pytest.approx(0.0, abs=0.004)


def test_gaussian_sampling_matches_analytic_covariance():
    state = split_balanced(modulated_beam(0.0, 4.5))
    form = joint_marginal_form(state, HALF_PI, HALF_PI)
    det = form.lam * form.mu - form.nu**2
    want = np.array([[form.mu, form.nu], [form.nu, form.lam]]) / (2.0 * det)

    n = 400_000
    rs = sample_gaussian(state, [(HALF_PI, HALF_PI)], n, seed=11)
    got = np.cov(np.vstack([rs.x_a, rs.x_b]))
    # moment standard errors for a bivariate normal
    se_var = want.diagonal() * np.sqrt(2.0 / n)
    se_cov = np.sqrt((want[0, 0] * want[1, 1] + want[0, 1] ** 2) / n)
    assert abs(got[0, 0] - want[0, 0]) < 3.0 * se_var[0]
    assert abs(got[1, 1] - want[1, 1]) < 3.0 * se_var[1]
    assert abs(got[0, 1] - want[0, 1]) < 3.0 * se_cov


# ---------------------------------------------------------------------------
# distributional correctness per scheme
# ---------------------------------------------------------------------------


def test_gaussian_state_records_match_joint_density():
    state = split_balanced(modulated_beam(0.0, 3.0))
    form = joint_marginal_form(state, HALF_PI, HALF_PI)
    rs = sample_gaussian(state, [(HALF_PI, HALF_PI)], 1_000_000, seed=21)
    p = _gof(rs, lambda a, b: joint_marginal_density(form, a, b))
    assert p > GOF_ALPHA


def test_simulate_gaussian_records_match_mixture_density(tmp_path, monkeypatch):
    # the state algebra against the mixture algebra, off the balanced splitter
    depth, eta = 2.0, 0.9
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scheme", "gaussian", "--eta", str(eta),
                 "--depth", str(depth), "--pairs", "0,0", "--n", "1000000",
                 "--seed", "22", "--out", "rec.npz"]) == 0
    rs = read_records(tmp_path / "rec.npz")
    mix = PMixtureState((ThermalComponent(1.0, depth**2 / 2.0),), eta=eta)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA


def test_switched_noise_records_match_mixture_density():
    depth, duty = 3.0, 0.35
    rs = sample_scheme(SwitchedNoise(depth, depth, duty), [(0.0, 0.0)], 1_000_000, 23)
    mix = PMixtureState(
        (CoherentPoint(1.0 - duty, 0.0), ThermalComponent(duty, depth**2 / 2.0)),
        eta=ROOT_HALF)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA


def test_switched_phase_records_match_mixture_density():
    rs = sample_scheme(SwitchedPhase(), [(HALF_PI, HALF_PI)], 1_000_000, 24)
    shifted = SWITCHED_PHASE_AMPLITUDE / np.sqrt(2.0)
    mix = PMixtureState(
        (CoherentPoint(0.5, 0.0), CoherentPoint(0.5, shifted)),
        eta=ROOT_HALF)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA


def test_async_records_match_mixture_density():
    depth = 3.0
    rs = sample_scheme(AsyncSine(depth), [(0.0, 0.0)], 1_000_000, 25)
    mix = PMixtureState((ArcsineComponent(1.0, depth / np.sqrt(2.0)),),
                        eta=ROOT_HALF)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA


def test_always_on_gate_reduces_to_plain_modulation():
    depth = 2.5
    rs = sample_scheme(SwitchedNoise(depth, depth, 1.0), [(0.0, 0.0)], 500_000, 26)
    mix = PMixtureState((ThermalComponent(1.0, depth**2 / 2.0),), eta=ROOT_HALF)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA

    rs = sample_scheme(SwitchedPhase(duty=1.0), [(HALF_PI, HALF_PI)], 500_000, 27)
    shifted = SWITCHED_PHASE_AMPLITUDE / np.sqrt(2.0)
    mix = PMixtureState((CoherentPoint(1.0, shifted),), eta=ROOT_HALF)
    assert _gof(rs, lambda a, b: output_joint_density(mix, a, b)) > GOF_ALPHA


def test_switched_phase_gate_fraction_at_threshold():
    n = 1_000_000
    rs = sample_scheme(SwitchedPhase(), [(HALF_PI, HALF_PI)], n, 28)
    below = np.mean(rs.x_a < SWITCHED_PHASE_THRESHOLD)
    # the gated half sits 12 sigma below threshold, the idle half 6 above
    assert below == pytest.approx(0.5, abs=3.0 * 0.5 / np.sqrt(n))


def test_modulation_lands_on_the_measured_quadrature():
    # p modulation must not show up when both stations measure x
    rs = sample_scheme(SwitchedPhase(), [(0.0, 0.0)], 200_000, 29)
    assert np.var(rs.x_a) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(rs.x_a)) < 0.02


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_write_read_round_trip_is_bitwise(tmp_path):
    rs = sample_scheme(SwitchedNoise(2.0, 1.0, 0.4), [(0.0, 0.0)], 5_000, 31)
    path = tmp_path / "records.csv"
    write_records(rs, path)
    assert list(tmp_path.iterdir()) == [path]
    back = read_records(path)
    assert np.array_equal(back.x_a, rs.x_a)
    assert np.array_equal(back.x_b, rs.x_b)
    assert np.array_equal(back.phases, rs.phases)
    assert np.array_equal(back.counts, rs.counts)


def test_write_read_empty_records(tmp_path):
    empty = RecordSet(np.array([]), np.array([]), [], [])
    path = tmp_path / "empty.csv"
    write_records(empty, path)
    back = read_records(path)
    assert len(back) == 0
    assert back.phases.shape == (0, 2) and back.counts.shape == (0,)


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta_a,theta_b,x_a,x_b\n0,0,oops,1.0\n")
    with pytest.raises(ParseError, match="row 2"):
        read_records(path)

    path.write_text("theta_a,theta_b,x_a,x_b\n0,0,1.0,2.0\n0,0,1.0\n")
    with pytest.raises(ParseError, match="row 3"):
        read_records(path)

    path.write_text("theta_a,theta_b,x_a,x_b\n0,0,1.0\n")
    with pytest.raises(ParseError, match="3 columns"):
        read_records(path)

    with pytest.raises(ValidationError):
        read_records(tmp_path / "no-such-file.csv")


@pytest.mark.parametrize("counts", [[3, -1], [2, 0]])
def test_run_counts_below_one_are_rejected(counts):
    with pytest.raises(ValidationError,
                       match=f"run 2 has count {counts[1]}, expected at least 1"):
        RecordSet(np.arange(2.0), np.arange(2.0), [(0, 0), (1, 1)], counts)


def test_concat_and_pair_selection():
    state = H.measured_state()
    parts = [sample_gaussian(state, [(ta, tb)], 1_000, seed=40 + i)
             for i, (ta, tb) in enumerate([(0.0, 0.0), (HALF_PI, HALF_PI)])]
    rs = H.concat_records(parts)
    assert len(rs) == 2_000
    assert len(rs.pair_keys()) == 2
    sub = rs.select_pair(0.0, 0.0)
    assert len(sub) == 1_000
    assert np.array_equal(sub.x_b, parts[0].x_b)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValidationError):
        modulated_beam(-1.0, 0.0)
    with pytest.raises(ValidationError):
        SwitchedNoise(1.0, 1.0, duty=0.0)
    with pytest.raises(ValidationError):
        SwitchedPhase(duty=1.2)
    with pytest.raises(ValidationError):
        AsyncSine(-2.0)
    with pytest.raises(ValidationError):
        sample_scheme(AsyncSine(1.0), [(0.0, 0.0)], 0, 0)
    with pytest.raises(ValidationError, match="transmissivity must lie in"):
        sample_scheme(AsyncSine(1.0), [(0.0, 0.0)], 10, 0, eta=1.3)


@pytest.mark.parametrize("build, name", [
    (lambda bad: modulated_beam(bad, 0.0), "depth_x"),
    (lambda bad: SwitchedNoise(1.0, bad), "depth_p"),
    (lambda bad: SwitchedPhase(amplitude=bad), "amplitude"),
    (lambda bad: AsyncSine(bad), "depth"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_are_rejected_by_name(build, name, bad):
    with pytest.raises(ValidationError, match=f"^{name} must be a finite number"):
        build(bad)

