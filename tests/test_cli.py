"""Command line driver: argument handling, file outputs, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvdiscord
from cvdiscord import cli
from cvdiscord.cli import main, parse_depths, parse_pairs
from cvdiscord.errors import ParseError, ValidationError
from cvdiscord.fock import (build_ce_hidden_discord, build_ce_zero_discord,
                            commutator_norm)
from cvdiscord.sampler import RecordSet, read_records, write_records
from cvdiscord.states import MAX_DEPTH
from cvdiscord.verifier import (estimate_density, split_by_threshold,
                                verdict_gaussian, verdict_mixture)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def test_parse_depths_range_is_inclusive():
    got = parse_depths("0:5:11")
    assert np.allclose(got, np.linspace(0.0, 5.0, 11))
    assert got[0] == 0.0 and got[-1] == 5.0


def test_parse_depths_comma_list():
    got = parse_depths("0.5, 1.5 ,2")
    assert np.allclose(got, [0.5, 1.5, 2.0])


@pytest.mark.parametrize("text", ["0:5", "a:b:7", "0:5:0", "one,two"])
def test_parse_depths_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_depths(text)


def test_parse_pairs_all_gives_four_canonical():
    pairs = parse_pairs("all")
    assert len(pairs) == 4
    expect = [(0.0, 0.0), (0.0, math.pi / 2), (math.pi / 2, 0.0),
              (math.pi / 2, math.pi / 2)]
    assert np.allclose(pairs, expect)


def test_parse_pairs_degrees_to_radians():
    pairs = parse_pairs("0,0;45,90")
    assert np.allclose(pairs, [(0.0, 0.0), (math.pi / 4, math.pi / 2)])


@pytest.mark.parametrize("text", ["1,2,3", "0,0;1", "", "a,b"])
def test_parse_pairs_rejects_malformed(text):
    with pytest.raises(ValidationError):
        parse_pairs(text)


@pytest.mark.parametrize("text", ["nan,0", "0,0;90,inf", "-inf,-inf"])
def test_parse_pairs_rejects_non_finite_phases(text):
    with pytest.raises(ValidationError, match="phases must be finite"):
        parse_pairs(text)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_records_sidecar_manifest(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    code = run("simulate", "--depth", "1.0", "--n", "2000", "--seed", "7",
               "--pairs", "0,0;90,90", "--out", "rec.csv")
    assert code == 0
    rec = tmp_path / "rec.csv"
    sidecar = tmp_path / "rec.csv.meta.json"
    manifest = tmp_path / "rec.csv.manifest.json"
    assert rec.exists() and sidecar.exists() and manifest.exists()

    doc = json.loads(manifest.read_text())
    assert doc["command"] == "simulate"
    assert doc["seed"] == 7
    assert doc["config"]["n"] == 2000
    assert set(doc["versions"]) == {"python", "numpy", "scipy", "cvdiscord"}
    assert doc["timings_s"]["total_s"] > 0
    # manifest hashes must match the files on disk
    for name, digest in doc["outputs"].items():
        assert sha256(tmp_path / name) == digest
    assert str(rec) in doc["outputs"] or "rec.csv" in doc["outputs"]

    meta = json.loads(sidecar.read_text())
    assert meta["n_per_pair"] == 2000
    assert meta["scheme"]["kind"] == "gaussian"
    assert np.allclose(meta["pairs"], [[0.0, 0.0], [math.pi / 2, math.pi / 2]])

    # every produced file is announced on stdout, manifest last
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[-1].endswith("rec.csv.manifest.json")


@pytest.mark.parametrize("flags, name", [
    (("--depth", "nan"), "depth_x"),
    (("--depth", "inf"), "depth_x"),
    (("--depth-p", "nan"), "depth_p"),
    (("--scheme", "async", "--depth", "inf"), "depth"),
    (("--scheme", "switched-phase", "--amplitude", "nan"), "amplitude"),
    (("--scheme", "switched-noise", "--depth-x", "nan"), "depth_x"),
    (("--scheme", "switched-noise", "--depth-p=-inf"), "depth_p"),
    (("--scheme", "async", "--pairs", "nan,0"), "phase pair"),
    (("--scheme", "async", "--pairs", "0,-inf"), "phase pair"),
    (("--pairs", "nan,0"), "phase pair"),
    # options that the run does not use, as the manifest records them all
    (("--duty", "inf"), "duty"),
    (("--scheme", "async", "--duty", "nan"), "duty"),
    (("--amplitude", "nan"), "amplitude"),
    (("--scheme", "switched-phase", "--depth", "nan"), "depth"),
    (("--scheme", "async", "--depth-x", "nan"), "depth_x"),
    (("--scheme", "async", "--pairs", "0,0", "--depth-x", "inf"), "depth_x"),
])
def test_simulate_rejects_non_finite_parameters(tmp_path, monkeypatch, capsys,
                                                flags, name):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way out
        assert run("simulate", "--n", "1000", *flags, "--out", "rec.npz") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert list(tmp_path.iterdir()) == []

@pytest.mark.parametrize("argv, name", [
    (("verify", "--records", "rec.npz", "--k-min", "nan"), "k_min"),
    (("verify", "--records", "rec.npz", "--mode", "mixture", "--alpha", "nan"),
     "alpha"),
    (("verify", "--records", "rec.npz", "--mode", "mixture", "--alpha", "5"),
     "alpha"),
    (("counterexample", "--alpha", "nan"), "alpha"),
    (("counterexample", "--nbar", "nan"), "nbar"),
    (("counterexample", "--r", "nan"), "r"),
    (("counterexample", "--r", "inf"), "r"),
    # too large for the truncated Fock basis
    (("counterexample", "--alpha", "10"), "alpha"),
    (("counterexample", "--nbar", "1000"), "nbar"),
    (("counterexample", "--r", "5"), "r"),
    (("sweep", "--depths", ","), "depths"),
    (("verify", "--records", "rec.npz", "--k-min", "-1"), "k_min"),
    (("verify", "--records", "rec.npz", "--k-min", "0"), "k_min"),
    # gaussian mode does not use alpha, but the manifest records it
    (("verify", "--records", "rec.npz", "--alpha", "nan"), "alpha"),
    (("simulate", "--n", "100", "--duty", "nan"), "duty"),
    (("simulate", "--n", "100", "--scheme", "async", "--duty", "0"), "duty"),
    (("verify", "--records", "rec.npz", "--pairs", "0,0", "--threshold", "nan"),
     "threshold"),
    (("verify", "--records", "rec.npz", "--mode", "mixture", "--threshold", "inf"),
     "threshold"),
    # options that --which does not use, as the manifest records them all
    (("counterexample", "--which", "zero", "--nbar", "nan"), "nbar"),
    (("counterexample", "--which", "zero", "--r", "inf"), "r"),
    (("counterexample", "--which", "hidden", "--alpha", "nan"), "alpha"),
    # a depth or displacement beyond MAX_DEPTH, in every scheme and the sweep
    (("simulate", "--depth", "1e200", "--n", "100"), "depth_x"),
    (("sweep", "--depths", "1e200"), "depths"),
    (("simulate", "--scheme", "switched-noise", "--depth", "1e200", "--n", "100"),
     "depth_x"),
    (("simulate", "--scheme", "async", "--depth", "1e200", "--n", "100"), "depth"),
    (("simulate", "--scheme", "switched-phase", "--amplitude=-1e200", "--n", "100"),
     "amplitude"),
    (("simulate", "--depth-p", repr(math.nextafter(MAX_DEPTH, math.inf)), "--n", "100"),
     "depth_p"),
    (("sweep", "--depths", f"1,{math.nextafter(MAX_DEPTH, math.inf)!r}"), "depths"),
    # a negative number in exponent form is the flag's value, not a flag
    (("verify", "--records", "rec.npz", "--pairs", "0,0", "--threshold", "-inf"),
     "threshold"),
])
def test_bad_numbers_exit_1_naming_the_parameter(tmp_path, monkeypatch, capsys,
                                                 argv, name):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "rec.npz") == 0
    inputs = sorted(tmp_path.iterdir())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any computation
        assert run(*argv, "--out", "out.json") == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must ")
    assert sorted(tmp_path.iterdir()) == inputs


def test_negative_numbers_in_exponent_form_are_values(tmp_path, monkeypatch):
    # the cli hands argparse its own test of a negative number, through an
    # attribute that argparse does not document
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--scheme", "switched-phase", "--amplitude", "-1e3",
               "--n", "2000", "--out", "phase.npz") == 0
    meta = json.loads((tmp_path / "phase.npz.meta.json").read_text())
    assert meta["scheme"]["amplitude"] == -1000.0
    assert run("simulate", "--n", "2000", "--out", "rec.npz") == 0
    assert run("verify", "--records", "rec.npz", "--threshold", "-1e-3",
               "--boot", "20") == 0
    doc = json.loads((tmp_path / "verdict.json.manifest.json").read_text())
    assert doc["config"]["threshold"] == -1e-3


def test_simulate_and_verify_keep_their_own_manifests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "5000", "--out", "run.npz") == 0
    assert run("verify", "--records", "run.npz", "--boot", "20",
               "--out", "run.json") == 0
    assert sorted(p.name for p in tmp_path.glob("*.manifest.json")) == [
        "run.json.manifest.json", "run.npz.manifest.json"]
    sim = json.loads((tmp_path / "run.npz.manifest.json").read_text())
    assert sim["command"] == "simulate"
    assert sim["outputs"] == {name: sha256(tmp_path / name)
                              for name in ("run.npz", "run.npz.meta.json")}
    ver = json.loads((tmp_path / "run.json.manifest.json").read_text())
    assert ver["command"] == "verify"
    assert ver["outputs"] == {"run.json": sha256(tmp_path / "run.json")}


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "500", "--pairs", "0,0", "--out", "rec.npz"),
    ("sweep", "--depths", "0.5", "--n", "1000", "--out", "sweep.csv"),
    ("counterexample", "--which", "zero", "--out", "ce.json"),
], ids=lambda argv: argv[0])
def test_manifest_records_the_version_and_one_timing_layout(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 0
    manifest = capsys.readouterr().out.splitlines()[-1]
    assert manifest == f"{argv[-1]}.manifest.json"
    doc = json.loads((tmp_path / manifest).read_text())
    assert doc["versions"]["cvdiscord"] == cvdiscord.__version__
    timings = doc["timings_s"]
    assert set(timings) == {"compute_s", "write_s", "total_s"}
    assert timings["total_s"] == pytest.approx(
        timings["compute_s"] + timings["write_s"])


def test_simulate_gaussian_defaults_to_all_pairs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "500", "--out", "r.csv") == 0
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert len(meta["pairs"]) == 4


def test_simulate_rejects_unknown_scheme(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--scheme", "bogus") == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate -> verify round trip
# ---------------------------------------------------------------------------


def test_round_trip_gaussian_verdict(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--depth", "2.0", "--n", "10000", "--seed", "1",
               "--out", "rec.csv") == 0
    assert run("verify", "--records", "rec.csv", "--boot", "50",
               "--out", "verdict.json") == 0
    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["decision"] == "discordant"
    assert len(doc["pairs"]) == 4
    ks = [row["k"] for row in doc["pairs"]]
    assert max(ks) >= 3.0


def _plotdata_reference(rs, threshold=0.0):
    """The five --plotdata columns rebuilt from the public API."""
    plus, minus = split_by_threshold(rs, threshold)
    whole = estimate_density(rs.x_b)
    x = whole.centers
    mean = float(rs.x_b.mean())
    avg_var = 0.5 * (float(plus.var()) + float(minus.var()))
    ref = np.exp(-((x - mean) ** 2) / (2.0 * avg_var)) / math.sqrt(
        2.0 * math.pi * avg_var)
    return np.column_stack([
        x, whole.density(),
        estimate_density(plus, edges=whole.edges).density(),
        estimate_density(minus, edges=whole.edges).density(), ref])


@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_round_trip_verdict_with_plotdata(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    if mode == "gaussian":
        simulate = ("--depth", "2.0", "--n", "10000", "--seed", "1")
        # the first requested pair is not the first pair in the file
        verify = ("--pairs", "90,90;0,0", "--boot", "50")
    else:
        simulate = ("--scheme", "switched-noise", "--depth", "3.0",
                    "--duty", "0.5", "--n", "20000", "--seed", "2")
        verify = ("--mode", "mixture")
    assert run("simulate", *simulate, "--out", "rec.csv") == 0
    assert run("verify", "--records", "rec.csv", *verify,
               "--out", "verdict.json", "--plotdata", "plot.csv") == 0

    doc = json.loads((tmp_path / "verdict.json").read_text())
    assert doc["decision"] == "discordant"
    assert len(doc["pairs" if mode == "gaussian" else "sides"]) == 2

    plot = tmp_path / "plot.csv"
    header = plot.read_text().splitlines()[0]
    assert header == ("x,unconditional,conditional_plus,conditional_minus,"
                      "gaussian_reference")
    cols = np.loadtxt(plot, delimiter=",", skiprows=1)
    assert cols.shape[1] == 5
    assert np.all(np.isfinite(cols))
    # the unconditional curve is a density over the plotted window
    mass = np.trapezoid(cols[:, 1], cols[:, 0])
    assert mass == pytest.approx(1.0, abs=0.05)

    # gaussian mode plots the first requested pair, mixture mode all records
    rs = read_records(tmp_path / "rec.csv")
    if mode == "gaussian":
        rs = rs.select_pair(math.radians(90.0), math.radians(90.0))
    np.testing.assert_array_equal(cols, _plotdata_reference(rs))


def test_verdict_histograms_agree_with_the_verdict():
    rng = np.random.default_rng(4)
    n = 6000
    x_a = np.round(rng.normal(size=n), 2)  # some x_A sit on the threshold
    # x_B on a 0.05 grid, so many records share a value
    x_b = np.round(rng.normal(size=n) + 0.8 * x_a, 1) / 2.0
    rs = RecordSet(x_a, x_b, [(0.0, 0.0)], [n])
    n_plus = int((x_a >= 0.0).sum())
    pair = verdict_gaussian(rs, n_boot=20, pairs=[(0.0, 0.0)]).per_pair[0]
    assert (pair.n_plus, pair.n_minus) == (n_plus, n - n_plus)
    for hists in (pair.hists, verdict_mixture(rs, 0.0).hists):
        assert (hists.plus.total, hists.minus.total) == (n_plus, n - n_plus)
        assert hists.whole.total == n
        assert np.array_equal(hists.plus.edges, hists.whole.edges)
        assert np.array_equal(hists.minus.edges, hists.whole.edges)
        assert np.all(hists.minus.counts >= 0)
        assert np.array_equal(hists.plus.counts + hists.minus.counts,
                              hists.whole.counts)
        assert np.array_equal(
            hists.minus.counts,
            np.histogram(x_b[x_a < 0.0], bins=hists.whole.edges)[0])


def test_empty_side_of_the_threshold_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--scheme", "switched-phase", "--depth", "1.5",
               "--n", "3000", "--seed", "5", "--out", "sp.npz") == 0
    assert run("simulate", "--n", "3000", "--pairs", "0,0;90,90",
               "--out", "g.npz") == 0
    capsys.readouterr()
    assert run("verify", "--records", "sp.npz", "--mode", "mixture",
               "--threshold", "-6", "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        "error: threshold -6.0 leaves one side empty at phase pair (0, 0) "
        "(3000 of 3000 records on the plus side)\n")
    assert run("verify", "--records", "g.npz", "--pairs", "0,0;90,90",
               "--threshold", "100", "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        "error: threshold 100.0 leaves one side empty at phase pair (0, 0) "
        "(0 of 3000 records on the plus side)\n")
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_a_glitch_record_exits_1_naming_the_pair_and_side(tmp_path, monkeypatch,
                                                          capsys, mode):
    # one x_B = 1e4 among 2e4 records per pair, at (90, 0) of the four
    # canonical pairs, or at the one pair of a switched-noise file
    monkeypatch.chdir(tmp_path)
    scheme = ("--scheme", "switched-noise") if mode == "mixture" else ()
    assert run("simulate", *scheme, "--depth", "1.5", "--n", "20000",
               "--out", "clean.npz") == 0
    rs = read_records(tmp_path / "clean.npz")
    row = 40_007 if mode == "gaussian" else 7
    rs.x_b[row] = 1e4
    write_records(rs, tmp_path / "glitch.npz")
    capsys.readouterr()
    assert run("verify", "--records", "glitch.npz", "--mode", mode,
               "--out", "v.json") == 1
    side = "plus" if rs.x_a[row] >= 0.0 else "minus"
    pair = "(1.5708, 0)" if mode == "gaussian" else "(0, 0)"
    err = capsys.readouterr().err
    assert err.startswith(f"error: x_B on the {side} side at phase pair {pair} spans [")
    assert "10000], over 400 times its interquartile range" in err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
@pytest.mark.parametrize("scale", [1e300, 1e-300, 5e-324])
def test_records_in_other_units_exit_1_naming_the_pair_side_and_spread(
        tmp_path, monkeypatch, capsys, mode, scale):
    # x_B of a correlated one-pair record CSV multiplied by scale
    monkeypatch.chdir(tmp_path)
    x_a, noise = np.random.default_rng(17).standard_normal((2, 4000))
    rows = [f"0,0,{a:.17g},{(0.6 * a + 0.8 * b) * scale:.17g}" for a, b in zip(x_a, noise)]
    Path("scaled.csv").write_text("\n".join(["theta_A,theta_B,x_A,x_B", *rows]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", "--records", "scaled.csv", "--mode", mode,
                   *(("--pairs", "0,0") if mode == "gaussian" else ()),
                   "--out", "v.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x_B on the plus side at phase pair (0, 0) "
                          "has interquartile range ")
    assert err.endswith(", outside [1e-06, 1e+06]; are the records in "
                        "shot-noise units?\n")
    assert not (tmp_path / "v.json").exists()


def test_a_depth_the_splitter_rounds_is_simulated(tmp_path, monkeypatch):
    # 158 is past where an absolute symmetry tolerance rejected the state
    # that simulate builds at the default transmissivity
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--depth", "158", "--n", "100", "--out", "r.npz") == 0
    assert len(read_records(tmp_path / "r.npz")) == 400


def test_mixture_verdict_takes_one_phase_pair(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--depth", "2", "--n", "5000",
               "--out", "four.npz") == 0
    capsys.readouterr()
    assert run("verify", "--records", "four.npz", "--mode", "mixture",
               "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        "error: the mixture verdict takes records at one phase pair; the "
        "records hold phase pairs (0, 0), (0, 1.5708), (1.5708, 0), "
        "(1.5708, 1.5708)\n")
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("simulate, argv, err", [
    (("--n", "4", "--seed", "1"),
     ("verify", "--records", "few.npz", "--out", "v.json"),
     "need at least 3 occupied bins at phase pair (0, 0)"),
    (("--scheme", "async", "--depth", "2", "--n", "8", "--seed", "6"),
     ("verify", "--records", "few.npz", "--mode", "mixture", "--out", "v.json"),
     "fewer than 2 merged bins at phase pair (0, 0)"),
    (None, ("sweep", "--n", "5", "--depths", "1", "--out", "s.csv"),
     "need at least 3 occupied bins at depth 1"),
    # enough bins for both peak fits, too few for verify's chi-square
    (None, ("sweep", "--n", "12", "--depths", "1", "--out", "s.csv"),
     "fewer than 2 merged bins at depth 1"),
    (None, ("sweep", "--n", "2", "--depths", "0,1,2", "--out", "s.csv"),
     "threshold 0.0 leaves one side empty at phase pair (1.5708, 1.5708) "
     "(2 of 2 records on the plus side) at depth 0"),
], ids=["verify", "verify-mixture", "sweep", "sweep-chi-square", "sweep-empty-side"])
def test_too_few_records_exit_1_naming_the_pair_or_depth(tmp_path, monkeypatch,
                                                         capsys, simulate, argv, err):
    monkeypatch.chdir(tmp_path)
    if simulate is not None:
        assert run("simulate", *simulate, "--out", "few.npz") == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("boot", ["1", "0", "-3"])
@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_verify_needs_two_bootstrap_replicates(tmp_path, monkeypatch, capsys,
                                               mode, boot):
    # one replicate has no spread: sigma_delta 0 would make any pair discordant
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--depth", "0", "--n", "3000", "--pairs", "0,0",
               "--out", "rec.npz") == 0
    capsys.readouterr()
    assert run("verify", "--records", "rec.npz", "--mode", mode,
               "--pairs", "0,0", "--boot", boot, "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        f"error: n_boot (bootstrap replicates) must be an integer >= 2, "
        f"got {boot}\n")
    assert not (tmp_path / "v.json").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_config_and_seed_reproduce_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for tag, workers in (("a", "1"), ("b", "3")):
        assert run("simulate", "--depth", "1.5", "--n", "8000", "--seed", "9",
                   "--pairs", "0,0;90,90", "--workers", workers,
                   "--out", f"rec_{tag}.csv") == 0
        assert run("verify", "--records", f"rec_{tag}.csv",
                   "--pairs", "0,0;90,90", "--boot", "40",
                   "--out", f"verdict_{tag}.json") == 0
    assert (tmp_path / "rec_a.csv").read_bytes() == \
        (tmp_path / "rec_b.csv").read_bytes()
    assert (tmp_path / "rec_a.csv.meta.json").read_bytes() == \
        (tmp_path / "rec_b.csv.meta.json").read_bytes()
    assert (tmp_path / "verdict_a.json").read_bytes() == \
        (tmp_path / "verdict_b.json").read_bytes()


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------


def test_config_file_applies_and_flags_win(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 600, "seed": 3, "depth": 1.0}))
    assert run("simulate", "--config", cfg, "--n", "400",
               "--pairs", "0,0", "--out", "rec.csv") == 0
    doc = json.loads((tmp_path / "rec.csv.manifest.json").read_text())
    assert doc["config"]["n"] == 400      # flag beats file
    assert doc["config"]["seed"] == 3     # file beats default
    meta = json.loads((tmp_path / "rec.csv.meta.json").read_text())
    assert meta["n_per_pair"] == 400 and meta["seed"] == 3


def test_unknown_config_key_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("simulate", "--config", cfg) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_json_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("simulate", "--config", "cfg.json") == 1
    assert "bad config file cfg.json" in capsys.readouterr().err
    # a directory, and a file that is not UTF-8 text
    (tmp_path / "dir.json").mkdir()
    cfg.write_bytes(b'{"n": 10\xff}')
    for name in ("dir.json", "cfg.json"):
        assert run("simulate", "--config", name) == 1
        assert f"bad config file {name}" in capsys.readouterr().err
    assert not (tmp_path / "records.npz").exists()


@pytest.mark.parametrize("text, why", [
    ("[1]", "must be a JSON object, got list"),
    ('"x"', "must be a JSON object, got str"),
    ('{"depth": NaN}', "non-finite number NaN"),
    ('{"depth": Infinity}', "non-finite number Infinity"),
    ('{"depth": 1e999}', "non-finite number 1e999"),
], ids=["list", "string", "NaN", "Infinity", "1e999"])
def test_malformed_config_exits_1_naming_it(tmp_path, monkeypatch, capsys,
                                            text, why):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(ParseError, match="bad config file .*cfg.json"):
        cli._read_object(cfg, "config file")
    assert run("simulate", "--config", "cfg.json") == 1
    assert capsys.readouterr().err == f"error: bad config file cfg.json: {why}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def _subparsers():
    action = next(a for a in cli._build_parser()._actions
                  if a.dest == "command")
    return action.choices


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep",
                                     "counterexample"])
def test_every_option_is_a_flag_and_a_config_key(command, tmp_path):
    parser = _subparsers()[command]
    flags = {s for a in parser._actions for s in a.option_strings}
    options = cli._OPTIONS[command]
    assert flags == {"-h", "--help", "--config"} | {
        "--" + key.replace("_", "-") for key in options}
    bare = cli._effective_config(cli._build_parser().parse_args([command]))
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({key: default
                               for key, (default, _) in options.items()}))
    full = cli._effective_config(
        cli._build_parser().parse_args([command, "--config", str(cfg)]))
    assert set(bare) == set(options)
    assert full == bare


def test_scheme_choices_are_the_builder_table():
    scheme_flag = next(a for a in _subparsers()["simulate"]._actions
                       if a.dest == "scheme")
    assert list(scheme_flag.choices) == ["gaussian", *cli._MIXTURES]
    for name in cli._MIXTURES:
        cfg = cli._effective_config(cli._build_parser().parse_args(
            ["simulate", "--scheme", name, "--depth", "1.5"]))
        scheme = cli._MIXTURES[name](cfg)
        # the fields that the sidecar holds rebuild the scheme
        assert type(scheme)(**dataclasses.asdict(scheme)) == scheme


@pytest.mark.parametrize("command, doc", [
    ("verify", {"mode": "bogus", "records": "rec.npz"}),
    ("counterexample", {"which": "neither"}),
    ("simulate", {"scheme": ["gaussian"]}),
])
def test_config_values_outside_the_choices_are_rejected(command, doc, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "300", "--out", "rec.npz") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(command, "--config", cfg, "--out", "out.json") == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, doc, named", [
    ("simulate", {"n": "100"}, "'n' of the config must be an integer, got str"),
    ("simulate", {"seed": True}, "'seed' of the config must be an integer"),
    ("verify", {"threshold": "0"}, "'threshold' of the config must be a number"),
    ("verify", {"boot": 2.5}, "'boot' of the config must be an integer, got float"),
    ("counterexample", {"out": 5}, "'out' of the config must be a string"),
])
def test_config_values_of_the_wrong_type_are_rejected(command, doc, named,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "300", "--out", "rec.npz") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    records = ("--records", "rec.npz") if command == "verify" else ()
    assert run(command, "--config", cfg, *records, "--out", "out.json") == 1
    assert f"error: field {named}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_null_config_value_takes_the_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "depth": None, "n": 300}))
    assert run("simulate", "--config", cfg, "--pairs", "0,0",
               "--out", "rec.npz") == 0
    doc = json.loads((tmp_path / "rec.npz.manifest.json").read_text())
    assert doc["seed"] == 0 and doc["config"]["n"] == 300
    assert run("simulate", "--n", "300", "--pairs", "0,0",
               "--out", "plain.npz") == 0
    assert sha256(tmp_path / "rec.npz") == sha256(tmp_path / "plain.npz")

    cfg.write_text(json.dumps({"bogus": None}))
    assert run("simulate", "--config", cfg) == 1
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_sweep_has_no_eta(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("sweep", "--depths", "1", "--n", "500", "--eta", "0.3") == 1
    assert "--eta" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta": 0.3}))
    assert run("sweep", "--config", cfg, "--depths", "1", "--n", "500") == 1
    assert "unknown config key 'eta'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_missing_records_file_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--records", "nope.csv") == 1
    assert "error:" in capsys.readouterr().err
    # a directory with a record file's name
    (tmp_path / "dir.csv").mkdir()
    assert run("verify", "--records", "dir.csv") == 1
    assert "not a record file: dir.csv" in capsys.readouterr().err


def test_verify_without_records_flag_exits_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("verify") == 1


def test_missing_subcommand_exits_1():
    assert main([]) == 1


def test_malformed_records_exit_1_and_no_partial_output(tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_a,theta_b,x_a,x_b\n0,0,1.0,2.0\n0,0,oops,2.0\n")
    assert run("verify", "--records", "bad.csv",
               "--out", "verdict.json") == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()
    assert list(tmp_path.glob("*.tmp")) == []
    # a byte that is not UTF-8 text, in a data row and in the header
    for data, where in ((b"x_a,x_b\n0,0,1.0,2.0\n0,0,1.0,\xff2.0\n", "row 3"),
                        (b"x_\xff,x_b\n0,0,1.0,2.0\n", "'utf-8' codec")):
        bad.write_bytes(b"theta_a,theta_b," + data)
        assert run("verify", "--records", "bad.csv",
                   "--out", "verdict.json") == 1
        assert f"cannot parse bad.csv: {where}" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()


def test_main_returns_int(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run("sweep", "--depths", "1.0", "--n", "2000", "--out", "s.csv")
    assert isinstance(code, int) and code == 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_expected_rows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("sweep", "--depths", "0:2:3", "--n", "4000",
               "--out", "sweep.csv") == 0
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "depth,delta,sigma_delta,delta_analytic,n"
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 5)
    assert np.allclose(rows[:, 0], [0.0, 1.0, 2.0])
    assert np.all(np.diff(rows[:, 3]) > 0)
    assert (tmp_path / "sweep.csv.manifest.json").exists()


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def _check_zero_report_curves_and_state(tmp_path, monkeypatch, alpha,
                                        dim_a):
    monkeypatch.chdir(tmp_path)
    assert run("counterexample", "--which", "zero", "--alpha", str(alpha),
               "--out", "ce.json", "--plotdata", "curves",
               "--dump-state", "state") == 0
    doc = json.loads((tmp_path / "ce.json").read_text())
    rep = doc["zero_discord"]
    assert "hidden_discord" not in doc
    assert rep["dim_A"] == dim_a
    assert rep["classical_on_B"] is True
    assert rep["peak_separation"] > 0.1
    assert rep["p_plus"] + rep["p_minus"] == pytest.approx(1.0, abs=1e-8)

    curves = tmp_path / "curves_zero.csv"
    head = curves.read_text().splitlines()[0]
    assert head == "x,unconditional,conditional_plus,conditional_minus"
    cols = np.loadtxt(curves, delimiter=",", skiprows=1)
    assert cols.shape[1] == 4
    assert np.trapezoid(cols[:, 1], cols[:, 0]) == pytest.approx(1.0,
                                                                 abs=1e-6)

    state = json.loads((tmp_path / "state_zero.json").read_text())
    assert state["dim_A"] == rep["dim_A"] and state["dim_B"] == rep["dim_B"]
    matrix = build_ce_zero_discord(alpha=alpha).matrix
    assert np.array(state["entries"]).tobytes() == np.column_stack(
        [matrix.real.ravel(), matrix.imag.ravel()]).tobytes()


def test_counterexample_zero_report_curves_and_state(tmp_path, monkeypatch):
    _check_zero_report_curves_and_state(tmp_path, monkeypatch, 1.0, 20)


def test_counterexample_zero_report_at_dim_40(tmp_path, monkeypatch):
    _check_zero_report_curves_and_state(tmp_path, monkeypatch, 2.5, 40)


def test_counterexample_both_reports_hidden_limits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("counterexample", "--which", "both", "--out", "ce.json") == 0
    doc = json.loads((tmp_path / "ce.json").read_text())
    hid = doc["hidden_discord"]
    assert abs(hid["peak_separation"]) < 1e-3
    assert hid["variance_ratio"] > 1.1
    assert hid["commutator_norm"] > 1e-3
    assert hid["dim_B"] <= 40
    assert "zero_discord" in doc
    # |+> on A falls on x >= 0 with probability 1/2 + 1/sqrt(2 pi), so the
    # plus side holds the thermal component with that weight w, the minus
    # side with 1 - w; both components have mean 0
    for side, w in (("plus", 0.5 + 1 / math.sqrt(2 * math.pi)),
                    ("minus", 0.5 - 1 / math.sqrt(2 * math.pi))):
        want = w * (2 * hid["nbar"] + 1) + (1 - w) * math.exp(-2 * hid["r"])
        assert hid[f"variance_{side}"] == pytest.approx(want, abs=1e-6)


def test_hidden_commutator_is_that_of_the_states_own_components(tmp_path,
                                                                monkeypatch):
    # the squeezed component is built at dim 20 and padded in the state;
    # rebuilt at the state's dim 40 its commutator differs in the last bits
    monkeypatch.chdir(tmp_path)
    assert run("counterexample", "--which", "hidden", "--nbar", "1.0",
               "--r", "0.2", "--out", "ce.json") == 0
    hid = json.loads((tmp_path / "ce.json").read_text())["hidden_discord"]
    state = build_ce_hidden_discord(nbar=1.0, r=0.2)
    # A = |+><+| with the thermal component, A = |-><-| with the squeezed one
    thermal, squeezed = (np.einsum("a,ajbk,b->jk", plus_minus, state.tensor, plus_minus)
                         for plus_minus in np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert hid["commutator_norm"] == commutator_norm(thermal / thermal.trace(),
                                                     squeezed / squeezed.trace())


# ---------------------------------------------------------------------------
# output routing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("relative", [False, True],
                         ids=["absolute", "relative"])
def test_outdir_env_redirects_relative_outputs(tmp_path, monkeypatch, capsys,
                                               relative):
    workdir = tmp_path / "work"
    outdir = tmp_path / "results"
    workdir.mkdir()
    outdir.mkdir()
    # a relative outdir is taken from the working directory, its parent
    env = "results" if relative else str(outdir)
    monkeypatch.chdir(tmp_path if relative else workdir)
    monkeypatch.setenv("CVDISCORD_OUTDIR", env)
    assert run("simulate", "--n", "500", "--pairs", "0,0",
               "--out", "rec.csv") == 0
    assert run("counterexample", "--which", "zero", "--out", "ce.json",
               "--plotdata", "curves", "--dump-state", "state") == 0
    names = ["rec.csv", "rec.csv.meta.json", "rec.csv.manifest.json",
             "ce.json", "curves_zero.csv", "state_zero.json",
             "ce.json.manifest.json"]
    # each output and its manifest land once, directly under the outdir
    assert capsys.readouterr().out.splitlines() == [str(Path(env) / n)
                                                    for n in names]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results", "work"]
    assert list(workdir.iterdir()) == []
    manifest = json.loads((outdir / "rec.csv.manifest.json").read_text())
    assert manifest["outputs"] == {str(Path(env) / n): sha256(outdir / n)
                                   for n in names[:2]}


def _snapshot(root):
    """Every path under root, with the bytes of each file."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("argv, fault", [
    (["simulate", "--out", ""], "--out '.' is not a file name"),
    (["sweep", "--depths", "1", "--out", "."], "--out '.' is not a file name"),
    (["verify", "--records", "r.npz", "--out", "outdir.json"],
     "--out outdir.json is a directory"),
    (["verify", "--records", "r.npz", "--plotdata", "r.npz/sub/p.csv"],
     "--plotdata r.npz/sub/p.csv: r.npz is not a directory"),
    (["verify", "--records", "r.npz", "--out", "sub/v.json",
      "--plotdata", "sub/../sub/v.json"],
     "--plotdata sub/../sub/v.json is also the --out output"),
    (["verify", "--records", "r.npz", "--out", "r.npz"],
     "--out r.npz is also the --records file"),
    (["verify", "--records", "r.npz", "--out", "r.npz.meta.json"],
     "--out r.npz.meta.json is also the --records sidecar"),
    (["verify", "--records", "r.npz", "--out", "v.json",
      "--plotdata", "v.json.manifest.json"],
     "--out v.json.manifest.json is also the --plotdata output"),
    (["simulate", "--config", "c.json"], "--out c.json is also the --config file"),
    (["counterexample", "--which", "zero", "--out", "state_zero.json",
      "--dump-state", "state"],
     "--dump-state state_zero.json is also the --out output"),
], ids=["empty", "dot", "directory", "under-a-file", "plotdata-is-out", "out-is-records",
        "out-is-sidecar", "manifest-is-plotdata", "out-is-config",
        "dump-is-out"])
def test_bad_output_names_exit_1_and_change_no_file(tmp_path, monkeypatch,
                                                    capsys, argv, fault):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--out", "r.npz") == 0
    (tmp_path / "outdir.json").mkdir()
    (tmp_path / "c.json").write_text('{"out": "c.json"}')
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {fault}\n"
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "500", "--pairs", "0,0", "--seed", "-1", "--out", "new.npz"),
    ("sweep", "--depths", "0.5", "--n", "1000", "--seed", "-3", "--out", "new.csv"),
    ("verify", "--records", "r.npz", "--pairs", "0,0", "--seed", "-2",
     "--out", "new.json"),
    # the mixture verdict draws nothing, but the manifest records the seed
    ("verify", "--records", "r.npz", "--mode", "mixture", "--seed", "-5",
     "--out", "new.json"),
], ids=["simulate", "sweep", "verify", "verify-mixture"])
def test_a_negative_seed_exits_1_naming_it_and_writes_nothing(tmp_path, monkeypatch,
                                                             capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0", "--out", "r.npz") == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    seed = argv[argv.index("--seed") + 1]
    assert capsys.readouterr().err == (
        f"error: seed must be a non-negative integer below 2**32, got {seed}\n")
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("command", [
    ("simulate", "--n", "500", "--pairs", "0,0", "--out", "new.npz"),
    ("sweep", "--depths", "2", "--n", "3000", "--out", "new.csv"),
    ("verify", "--records", "r.npz", "--pairs", "0,0", "--out", "new.json"),
], ids=["simulate", "sweep", "verify"])
def test_a_seed_of_2_32_or_more_exits_1_naming_it_and_writes_nothing(
        tmp_path, monkeypatch, capsys, command):
    # numpy splits a seed of 2**32 or more into 32-bit words, so seed
    # 2**32 at item 0 would draw what seed 0 draws at item 1
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0", "--out", "r.npz") == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert run(*command, "--seed", str(2**32)) == 1
    assert capsys.readouterr().err == (
        f"error: seed must be a non-negative integer below 2**32, got {2**32}\n")
    assert _snapshot(tmp_path) == before
    assert run(*command, "--seed", str(2**32 - 1)) == 0


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "500", "--v0", "1", "--out", "new.npz"),
    ("sweep", "--depths", "1", "--n", "1000", "--v0", "1", "--out", "new.csv"),
    ("counterexample", "--which", "zero", "--v0", "1", "--out", "new.json"),
    ("simulate", "--n", "500", "--config", "v0.json", "--out", "new.npz"),
], ids=["simulate", "sweep", "counterexample", "config"])
def test_v0_is_not_an_option_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                argv):
    # every quadrature is in shot-noise units, vacuum variance 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v0.json").write_text(json.dumps({"v0": 1}))
    before = _snapshot(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "v0" in err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "500", "--theta-a", "0", "--out", "new.npz"),
    ("simulate", "--scheme", "async", "--n", "500", "--theta-b", "0",
     "--out", "new.npz"),
    ("simulate", "--n", "500", "--config", "theta.json", "--out", "new.npz"),
], ids=["theta-a", "theta-b", "config"])
def test_theta_is_not_an_option_and_writes_nothing(tmp_path, monkeypatch,
                                                   capsys, argv):
    # --pairs is the one phase input of simulate
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.json").write_text(json.dumps({"theta_a": 0}))
    before = _snapshot(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta" in err
    assert _snapshot(tmp_path) == before


def test_mixture_mode_rejects_pairs_and_writes_nothing(tmp_path, monkeypatch,
                                                       capsys):
    # a mixture verdict reads the file's one phase pair, whatever --pairs says
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--scheme", "async", "--depth", "2", "--n", "5000",
               "--out", "r.npz") == 0
    (tmp_path / "pairs.json").write_text(json.dumps({"pairs": "0,0"}))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    verify = ("verify", "--records", "r.npz", "--mode", "mixture")
    assert run(*verify, "--pairs", "90,90", "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        "error: --pairs 90,90 applies to gaussian mode; mixture mode reads "
        "the file's one pair\n")
    assert run(*verify, "--config", "pairs.json", "--out", "v.json") == 1
    assert "--pairs 0,0 applies to gaussian mode" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before
    assert run(*verify, "--pairs", "all", "--out", "v.json") == 0


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--config", "depth.json", "--out", "new.npz"), "depth_x"),
    (("counterexample", "--config", "alpha.json", "--out", "new.json"),
     "alpha"),
    (("simulate", "--n", str(10**30), "--out", "new.npz"), "n"),
    (("sweep", "--depths", "1", "--n", str(10**30), "--out", "new.csv"), "n"),
    # two pairs of 2**62 records: an int64 sum wraps to a negative total
    (("simulate", "--n", str(2**62), "--pairs", "0,0;90,90",
      "--out", "new.npz"), "n"),
], ids=["config-depth", "config-alpha", "simulate-n", "sweep-n", "n-wraps"])
def test_integers_too_large_exit_1_naming_them_and_write_nothing(
        tmp_path, monkeypatch, capsys, argv, name):
    # an int beyond float64 (10**400) or beyond what numpy can index
    monkeypatch.chdir(tmp_path)
    (tmp_path / "depth.json").write_text(json.dumps({"depth": 10**400}))
    (tmp_path / "alpha.json").write_text(json.dumps({"alpha": 10**400}))
    before = _snapshot(tmp_path)
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must ")
    assert _snapshot(tmp_path) == before


def test_outputs_and_inputs_compare_as_resolved_paths(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CVDISCORD_OUTDIR", "results")
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "r.npz") == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    # the input results/r.npz is the output r.npz under the outdir
    assert run("verify", "--records", "results/r.npz", "--out", "r.npz") == 1
    assert capsys.readouterr().err == (
        "error: --out results/r.npz is also the --records file\n")
    assert run("verify", "--records", tmp_path / "results" / "r.npz",
               "--out", "../results/r.npz.meta.json") == 1
    assert capsys.readouterr().err == ("error: --out results/../results/"
                                       "r.npz.meta.json is also the "
                                       "--records sidecar\n")
    assert _snapshot(tmp_path) == before
    assert run("verify", "--records", "results/r.npz", "--pairs", "0,0",
               "--out", "v.json") == 0
    assert (tmp_path / "results" / "v.json").is_file()


def test_a_failed_write_leaves_every_file_as_it_was(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "r.npz") == 0
    (tmp_path / "v.json").write_text("an earlier verdict")
    before = _snapshot(tmp_path)

    def emit_plotdata(hists, path):
        path.write_text("half a table")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "emit_plotdata", emit_plotdata)
    capsys.readouterr()
    assert run("verify", "--records", "r.npz", "--pairs", "0,0",
               "--out", "v.json", "--plotdata", "p.csv") == 2
    assert capsys.readouterr().err == "error: disk full\n"
    # neither the verdict, nor its manifest, nor a temp file
    assert _snapshot(tmp_path) == before


def test_a_failed_command_leaves_no_directory_behind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "r.npz") == 0
    (tmp_path / "kept").mkdir()
    before = _snapshot(tmp_path)

    def emit_plotdata(hists, path):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "emit_plotdata", emit_plotdata)
    capsys.readouterr()
    assert run("verify", "--records", "r.npz", "--pairs", "0,0",
               "--out", "out/v.json", "--plotdata", "kept/new/sub/p.csv") == 2
    assert capsys.readouterr().err == "error: disk full\n"
    # neither out nor kept/new/sub; kept, made before, stays
    assert _snapshot(tmp_path) == before
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--records", "r.npz", "--pairs", "0,0",
               "--out", "out/v.json", "--plotdata", "kept/new/sub/p.csv") == 0
    assert {p.name for p in tmp_path.iterdir()} == {"kept", "out", "r.npz",
                                                   "r.npz.manifest.json",
                                                   "r.npz.meta.json"}
    assert sorted(p.name for p in (tmp_path / "kept/new/sub").iterdir()) == ["p.csv"]


def test_no_temp_file_takes_the_name_of_a_later_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "r.npz") == 0
    # the verdict v.tmp.json is the first temp name of the plot data v.json
    assert run("verify", "--records", "r.npz", "--pairs", "0,0",
               "--out", "v.tmp.json", "--plotdata", "v.json") == 0
    assert json.loads((tmp_path / "v.tmp.json").read_text())["decision"]
    assert (tmp_path / "v.json").read_text().startswith("x,unconditional,")
    manifest = json.loads((tmp_path / "v.tmp.json.manifest.json").read_text())
    assert manifest["outputs"] == {name: sha256(tmp_path / name)
                                   for name in ("v.tmp.json", "v.json")}


def test_a_temp_file_name_never_takes_an_existing_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # v.tmp.csv is the first temp name of the verdict v.csv
    assert run("simulate", "--n", "2000", "--pairs", "0,0",
               "--out", "v.tmp.csv") == 0
    records = (tmp_path / "v.tmp.csv").read_bytes()
    assert run("verify", "--records", "v.tmp.csv", "--pairs", "0,0",
               "--out", "v.csv") == 0
    assert (tmp_path / "v.tmp.csv").read_bytes() == records
    assert json.loads((tmp_path / "v.csv").read_text())["pairs"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "v.csv", "v.csv.manifest.json", "v.tmp.csv", "v.tmp.csv.manifest.json",
        "v.tmp.csv.meta.json"]


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cvdiscord.cli", "simulate", "--n", "500",
         "--pairs", "0,0", "--out", "rec.csv"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rec.csv").exists()


def test_importing_the_command_line_leaves_out_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cvdiscord.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_installed(tmp_path):
    exe = shutil.which("cvdiscord")
    assert exe is not None, (
        "the cvdiscord console script is not on PATH: install the package "
        "with `pip install -e .` (needs setuptools>=68 and wheel)")
    proc = subprocess.run(
        [exe, "sweep", "--depths", "0.5", "--n", "1000", "--out", "s.csv"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.csv").exists()
