"""Verdicts under relabellings of the same records.

The witness asks whether B's distribution depends on the sign of A's
outcome, so what it reports should not depend on how the records are
labelled.  These relations hold exactly, or to the last bits of a sum
taken in file order, for every record set; each is checked on seeded
records of 5,000 per phase pair, so the suite stays deterministic.
"""

import json

import numpy as np
import pytest

from cvdiscord import (RecordSet, SwitchedNoise, modulated_beam, sample_gaussian,
                       sample_scheme, split_balanced, verdict_gaussian,
                       verdict_mixture, write_records)
from cvdiscord.cli import main
from cvdiscord.verifier import CANONICAL_PAIRS

N_PER_PAIR = 5_000
N_BOOT = 50


@pytest.fixture(scope="module")
def gaussian_records():
    return sample_gaussian(split_balanced(modulated_beam(2.0, 1.5)),
                           list(CANONICAL_PAIRS), N_PER_PAIR, 83)


@pytest.fixture(scope="module")
def mixture_records():
    return sample_scheme(SwitchedNoise(2.0, 1.0, 0.4), [(0.0, 0.0)],
                         N_PER_PAIR, 29)


def gaussian_numbers(rs):
    """(delta, sigma_delta, k, chi-square statistic) of each pair."""
    verdict = verdict_gaussian(rs, seed=5, n_boot=N_BOOT)
    return np.array([(p.delta, p.sigma_delta, p.k, p.chi2.statistic)
                     for p in verdict.per_pair])


def permuted_within_runs(rs, seed):
    """rs with the records of each run, a stretch at one phase pair, in a
    random order."""
    rng = np.random.default_rng(seed)
    ends = np.cumsum(rs.counts)
    order = np.concatenate([start + rng.permutation(end - start)
                            for start, end in zip(ends - rs.counts, ends)])
    return RecordSet(rs.x_a[order], rs.x_b[order], rs.phases, rs.counts)


@pytest.mark.parametrize("j", [-3, 1, 4])
def test_scaling_x_b_by_a_power_of_two_scales_delta_and_sigma(gaussian_records, j):
    rs = gaussian_records
    base = gaussian_numbers(rs)
    scaled = gaussian_numbers(RecordSet(rs.x_a, rs.x_b * 2.0 ** j, rs.phases,
                                        rs.counts))
    # delta and sigma_delta scale with x_B; k and chi-square do not
    assert scaled[:, :2] == pytest.approx(base[:, :2] * 2.0 ** j, rel=1e-12)
    assert scaled[:, 2:] == pytest.approx(base[:, 2:], rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2])
def test_permuting_records_within_a_pair_changes_no_gaussian_number(
        gaussian_records, seed):
    base = gaussian_numbers(gaussian_records)
    permuted = gaussian_numbers(permuted_within_runs(gaussian_records, seed))
    assert permuted.tobytes() == base.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
def test_permuting_records_changes_the_mixture_verdict_only_in_its_sums(
        mixture_records, seed):
    base, permuted = (verdict_mixture(rs, threshold=0.0) for rs in
                      (mixture_records, permuted_within_runs(mixture_records, seed)))
    assert permuted.decision == base.decision
    for got, want in zip(permuted.sides, base.sides):
        assert (got.chi2, got.peak_shift) == (want.chi2, want.peak_shift)
        # means and variances are summed in file order
        assert got.mean_shift == pytest.approx(want.mean_shift, rel=1e-12, abs=1e-15)
        assert got.variance == pytest.approx(want.variance, rel=1e-12)
    assert permuted.variance_ratio == pytest.approx(base.variance_ratio, rel=1e-12)


@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_csv_and_npz_records_give_the_same_verdict_bytes(
        tmp_path, monkeypatch, gaussian_records, mixture_records, mode):
    monkeypatch.chdir(tmp_path)
    rs = gaussian_records if mode == "gaussian" else mixture_records
    docs = []
    for suffix in (".csv", ".npz"):
        write_records(rs, f"rec{suffix}")
        assert main(["verify", "--records", f"rec{suffix}", "--mode", mode,
                     "--boot", str(N_BOOT), "--out", f"v{suffix}.json"]) == 0
        doc = json.loads((tmp_path / f"v{suffix}.json").read_text())
        doc.pop("meta")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
