"""Command line driver: argument handling, file outputs, exit codes."""

import hashlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cvdiscord import cli
from cvdiscord.cli import main, parse_depths, parse_pairs
from cvdiscord.errors import ValidationError
from cvdiscord.fock import fock_state_from_json
from cvdiscord.sampler import (RecordSet, read_records, scheme_from_dict,
                               scheme_to_dict)
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
    manifest = tmp_path / "rec.manifest.json"
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
    assert lines[-1].endswith("rec.manifest.json")


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
    whole = estimate_density(rs)
    x = whole.centers
    mean = float(rs.x_b.mean())
    avg_var = 0.5 * (float(plus.x_b.var()) + float(minus.x_b.var()))
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
                    "--duty", "0.5", "--n", "20000", "--seed", "2",
                    "--theta-a", "0", "--theta-b", "0")
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
    rs = RecordSet(np.zeros(n), np.zeros(n), x_a, x_b)
    n_plus = int((x_a >= 0.0).sum())
    pair = verdict_gaussian(rs, n_boot=20, pairs=[(0.0, 0.0)]).per_pair[0]
    assert (pair.n_plus, pair.n_minus) == (n_plus, n - n_plus)
    for hists in (pair.hists, verdict_mixture(rs, 0.0, n_boot=20).hists):
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
        "error: threshold -6.0 leaves one side empty "
        "(3000 of 3000 records on the plus side)\n")
    assert run("verify", "--records", "g.npz", "--pairs", "0,0;90,90",
               "--threshold", "100", "--out", "v.json") == 1
    assert capsys.readouterr().err == (
        "error: threshold 100.0 leaves one side empty at phase pair (0, 0) "
        "(0 of 3000 records on the plus side)\n")
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
    doc = json.loads((tmp_path / "rec.manifest.json").read_text())
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
    assert run("simulate", "--config", cfg) == 1
    assert "bad config JSON" in capsys.readouterr().err


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
    assert list(scheme_flag.choices) == list(cli._SCHEMES)
    for name in scheme_flag.choices:
        cfg = cli._effective_config(cli._build_parser().parse_args(
            ["simulate", "--scheme", name, "--depth", "1.5"]))
        scheme = cli._SCHEMES[name](cfg)
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme


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


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_missing_records_file_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("verify", "--records", "nope.csv") == 1
    assert "error:" in capsys.readouterr().err


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
    assert (tmp_path / "sweep.manifest.json").exists()


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_zero_report_curves_and_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("counterexample", "--which", "zero", "--out", "ce.json",
               "--plotdata", "curves", "--dump-state", "state") == 0
    doc = json.loads((tmp_path / "ce.json").read_text())
    rep = doc["zero_discord"]
    assert "hidden_discord" not in doc
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

    state = fock_state_from_json((tmp_path / "state_zero.json").read_text())
    assert state.dim_a == rep["dim_A"] and state.dim_b == rep["dim_B"]


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


# ---------------------------------------------------------------------------
# output routing
# ---------------------------------------------------------------------------


def test_outdir_env_redirects_relative_outputs(tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    outdir = tmp_path / "results"
    workdir.mkdir()
    outdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("CVDISCORD_OUTDIR", str(outdir))
    assert run("simulate", "--n", "500", "--pairs", "0,0",
               "--out", "rec.csv") == 0
    assert (outdir / "rec.csv").exists()
    assert (outdir / "rec.manifest.json").exists()
    assert not (workdir / "rec.csv").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cvdiscord.cli", "simulate", "--n", "500",
         "--pairs", "0,0", "--out", "rec.csv"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rec.csv").exists()


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
