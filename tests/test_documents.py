"""JSON documents and tables: a record file's sidecar, which simulate
writes with its modulation scheme, a Fock state from counterexample
--dump-state, which holds the state's matrix bit for bit, and the bytes
of the sweep table, a mixture and a Gaussian sidecar and a CSV record
file."""

import dataclasses
import json

import numpy as np

from cvdiscord import (AsyncSine, SwitchedNoise, SwitchedPhase,
                       build_ce_hidden_discord, build_ce_zero_discord,
                       modulated_beam)
from cvdiscord.cli import _MIXTURES, main
from cvdiscord.sampler import RecordSet, write_records
from cvdiscord.verifier import sweep_to_csv


def test_simulate_sidecar_scheme_of_every_kind_reads_back(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    classes = {cls.kind: cls for cls in (SwitchedNoise, SwitchedPhase, AsyncSine)}
    kinds = set()
    for name in ["gaussian", *_MIXTURES]:
        assert main(["simulate", "--scheme", name, "--depth", "1.5",
                     "--n", "50", "--out", f"{name}.npz"]) == 0
        doc = json.loads((tmp_path / f"{name}.npz.meta.json").read_text())
        fields = dict(doc["scheme"])
        kind = fields.pop("kind")
        if kind == "gaussian":
            # the fields rebuild the beam that enters the splitter
            assert np.array_equal(modulated_beam(**fields).cov,
                                  np.diag([1.0 + 1.5**2] * 2))
        else:
            assert dataclasses.asdict(classes[kind](**fields)) == fields
        kinds.add(kind)
    assert kinds == {"gaussian", *classes}


def test_every_document_writer_reads_back(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["counterexample", "--which", "both", "--alpha", "0.8",
                 "--dump-state", "state"]) == 0
    for name, state in (("zero", build_ce_zero_discord(alpha=0.8)),
                        ("hidden", build_ce_hidden_discord())):
        doc = json.loads((tmp_path / f"state_{name}.json").read_text())
        assert (doc["dim_A"], doc["dim_B"], doc["v0"]) == (state.dim_a,
                                                           state.dim_b, 1.0)
        assert np.array(doc["entries"]).tobytes() == np.column_stack(
            [state.matrix.real.ravel(), state.matrix.imag.ravel()]).tobytes()


def test_tables_and_the_sidecar_keep_their_bytes(tmp_path, monkeypatch):
    # pinned as version 0.2.0 wrote them
    sweep_to_csv([{"depth": 1.5, "delta": 0.123456789012345678,
                   "sigma_delta": 1e-3 / 3, "delta_analytic": 0.12,
                   "n": 20000}], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == (
        "depth,delta,sigma_delta,delta_analytic,n\n"
        "1.5,0.12345678901234568,0.00033333333333333332,0.12,20000\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scheme", "async", "--depth", "2", "--n", "2",
                 "--seed", "7", "--out", "sim.csv"]) == 0
    assert (tmp_path / "sim.csv.meta.json").read_text() == (
        '{\n  "eta": 0.7071067811865475,\n  "kind": "scheme",\n'
        '  "n_per_pair": 2,\n  "pairs": [\n    [\n      0.0,\n      0.0\n'
        '    ]\n  ],\n  "scheme": {\n    "depth": 2.0,\n'
        '    "kind": "async_sine"\n  },\n  "seed": 7,\n  "v0": 1.0\n}\n')
    assert main(["simulate", "--depth-x", "1.5", "--depth-p", "0.5", "--n", "2",
                 "--pairs", "0,0", "--seed", "7", "--out", "gauss.npz"]) == 0
    assert (tmp_path / "gauss.npz.meta.json").read_text() == (
        '{\n  "eta": 0.7071067811865475,\n  "kind": "scheme",\n'
        '  "n_per_pair": 2,\n  "pairs": [\n    [\n      0.0,\n      0.0\n'
        '    ]\n  ],\n  "scheme": {\n    "depth_p": 0.5,\n    "depth_x": 1.5,\n'
        '    "kind": "gaussian"\n  },\n  "seed": 7,\n  "v0": 1.0\n}\n')
    # the mixture sampler at two pairs and a non-default eta
    assert main(["simulate", "--scheme", "switched-noise", "--depth", "3",
                 "--pairs", "0,0;90,90", "--eta", "0.9", "--n", "2", "--seed", "7",
                 "--out", "mix.csv"]) == 0
    assert (tmp_path / "mix.csv").read_text() == (
        "theta_A,theta_B,x_A,x_B\n"
        "0,0,-0.31346393925871607,-0.77076550218303053\n"
        "0,0,2.6483761058248469,1.4584590212641304\n"
        "1.5707963267948966,1.5707963267948966,-1.5293575733972216,"
        "-1.5395930665570865\n"
        "1.5707963267948966,1.5707963267948966,3.2565264624491186,"
        "2.5663958699209988\n")
    write_records(RecordSet([0.5, -1.25], [2.0, 1 / 3], [(0.0, np.pi / 2)],
                            [2]), tmp_path / "rec.csv")
    assert (tmp_path / "rec.csv").read_text() == (
        "theta_A,theta_B,x_A,x_B\n0,1.5707963267948966,0.5,2\n"
        "0,1.5707963267948966,-1.25,0.33333333333333331\n")

