"""JSON documents: the two kinds the program writes, a modulation scheme
in a record file's sidecar and a Fock state from counterexample
--dump-state, read back through their readers, and each reader rejects a
field it does not know, or a field of the wrong type, as a
ValidationError naming that field."""

import json

import numpy as np
import pytest

from cvdiscord import (ValidationError, build_ce_hidden_discord,
                       build_ce_zero_discord, fock_state_from_json,
                       fock_state_to_json)
from cvdiscord.cli import _SCHEMES, main
from cvdiscord.sampler import (SCHEMES, RecordSet, scheme_from_dict,
                               scheme_to_dict, write_records)
from cvdiscord.verifier import sweep_to_csv


def fock_document():
    return fock_state_to_json(build_ce_zero_discord(alpha=0.8, dim_b=4))


def test_simulate_sidecar_scheme_of_every_kind_reads_back(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    kinds = set()
    for name in _SCHEMES:
        assert main(["simulate", "--scheme", name, "--depth", "1.5",
                     "--n", "50", "--out", f"{name}.npz"]) == 0
        doc = json.loads((tmp_path / f"{name}.npz.meta.json").read_text())
        scheme = scheme_from_dict(doc["scheme"])
        assert scheme_to_dict(scheme) == doc["scheme"]
        kinds.add(scheme.kind)
    assert kinds == set(SCHEMES)


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


def test_tables_and_the_sidecar_keep_their_bytes(tmp_path):
    # pinned as version 0.2.0 wrote them
    sweep_to_csv([{"depth": 1.5, "delta": 0.123456789012345678,
                   "sigma_delta": 1e-3 / 3, "delta_analytic": 0.12,
                   "n": 20000}], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == (
        "depth,delta,sigma_delta,delta_analytic,n\n"
        "1.5,0.12345678901234568,0.00033333333333333332,0.12,20000\n")
    meta = {"kind": "scheme", "scheme": {"kind": "async_sine", "depth": 2.0},
            "n": 2, "seed": 7, "eta": 1 / np.sqrt(2), "v0": 1.0}
    write_records(RecordSet([0.5, -1.25], [2.0, 1 / 3], [(0.0, np.pi / 2)],
                            [2], meta), tmp_path / "rec.csv", sidecar=True)
    assert (tmp_path / "rec.csv.meta.json").read_text() == (
        '{\n  "eta": 0.7071067811865475,\n  "kind": "scheme",\n  "n": 2,\n'
        '  "scheme": {\n    "depth": 2.0,\n    "kind": "async_sine"\n  },\n'
        '  "seed": 7,\n  "v0": 1.0\n}\n')
    assert (tmp_path / "rec.csv").read_text() == (
        "theta_A,theta_B,x_A,x_B\n0,1.5707963267948966,0.5,2\n"
        "0,1.5707963267948966,-1.25,0.33333333333333331\n")


def _with(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("read, text, fault", [
    (scheme_from_dict, {"kind": "switched_noise", "depth_x": 1.0, "duty": "x"},
     "'duty' of the switched_noise scheme must be a number, got str"),
    (fock_state_from_json, _with(fock_document(), lambda d: d.update(v0="x")),
     "'v0' of the state document must be a number, got str"),
], ids=["scheme-duty", "fock-v0"])
def test_a_wrong_typed_field_is_named(read, text, fault):
    with pytest.raises(ValidationError, match=f"field {fault}"):
        read(text)


@pytest.mark.parametrize("read, text, what", [
    (fock_state_from_json, _with(fock_document(), lambda d: d.update(V0=2.0)),
     "state document"),
    (scheme_from_dict, {"kind": "async_sine", "depth": 1.0, "V0": 2.0},
     "async_sine scheme"),
], ids=["fock", "scheme"])
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
