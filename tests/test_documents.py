"""JSON documents: a record file's sidecar, which simulate writes with its
modulation scheme, and a Fock state from counterexample --dump-state,
which its reader reads back and which rejects a field it does not know,
or a field of the wrong type, as a ValidationError naming that field."""

import dataclasses
import json

import numpy as np
import pytest

from cvdiscord import (AsyncSine, GaussianModulation, SwitchedNoise,
                       SwitchedPhase, ValidationError, build_ce_hidden_discord,
                       build_ce_zero_discord, fock_state_from_json,
                       fock_state_to_json)
from cvdiscord.cli import _SCHEMES, main
from cvdiscord.sampler import RecordSet, write_records
from cvdiscord.verifier import sweep_to_csv


def fock_document():
    return fock_state_to_json(build_ce_zero_discord(alpha=0.8, dim_b=4))


def test_simulate_sidecar_scheme_of_every_kind_reads_back(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    classes = {cls.kind: cls for cls in (GaussianModulation, SwitchedNoise,
                                         SwitchedPhase, AsyncSine)}
    kinds = set()
    for name in _SCHEMES:
        assert main(["simulate", "--scheme", name, "--depth", "1.5",
                     "--n", "50", "--out", f"{name}.npz"]) == 0
        doc = json.loads((tmp_path / f"{name}.npz.meta.json").read_text())
        fields = dict(doc["scheme"])
        kind = fields.pop("kind")
        assert dataclasses.asdict(classes[kind](**fields)) == fields
        kinds.add(kind)
    assert kinds == set(classes)


def test_every_document_writer_reads_back(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["counterexample", "--which", "both", "--alpha", "0.8",
                 "--dump-state", "state"]) == 0
    for name, state in (("zero", build_ce_zero_discord(alpha=0.8)),
                        ("hidden", build_ce_hidden_discord())):
        back = fock_state_from_json((tmp_path / f"state_{name}.json").read_text())
        assert (back.dim_a, back.dim_b, back.v0) == (state.dim_a, state.dim_b,
                                                     state.v0)
        assert np.array_equal(back.matrix, state.matrix)


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
    write_records(RecordSet([0.5, -1.25], [2.0, 1 / 3], [(0.0, np.pi / 2)],
                            [2]), tmp_path / "rec.csv")
    assert (tmp_path / "rec.csv").read_text() == (
        "theta_A,theta_B,x_A,x_B\n0,1.5707963267948966,0.5,2\n"
        "0,1.5707963267948966,-1.25,0.33333333333333331\n")


def _with(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("read, text, fault", [
    (fock_state_from_json, _with(fock_document(), lambda d: d.update(v0="x")),
     "'v0' of the state document must be a number, got str"),
], ids=["fock-v0"])
def test_a_wrong_typed_field_is_named(read, text, fault):
    with pytest.raises(ValidationError, match=f"field {fault}"):
        read(text)


@pytest.mark.parametrize("read, text, what", [
    (fock_state_from_json, _with(fock_document(), lambda d: d.update(V0=2.0)),
     "state document"),
], ids=["fock"])
def test_an_unknown_field_is_named(read, text, what):
    with pytest.raises(ValidationError, match=f"unknown {what} key 'V0'"):
        read(text)


def test_fock_dimensions_must_be_integers():
    doc = json.loads(fock_document())
    doc["dim_B"] = 4.0
    with pytest.raises(ValidationError,
                       match="field 'dim_B' of the state document must be "
                             "an integer, got float"):
        fock_state_from_json(json.dumps(doc))
