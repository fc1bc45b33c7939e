"""JSON documents: each one the program writes reads back through its
reader, and each reader rejects a field it does not know, or a field of
the wrong type, as a ValidationError naming that field."""

import json

import numpy as np
import pytest

from cvdiscord import (ArcsineComponent, CoherentPoint, PMixtureState,
                       ThermalComponent, ValidationError,
                       build_ce_zero_discord, fock_state_from_json,
                       fock_state_to_json, mixture_from_json, mixture_to_json,
                       modulated_beam, split_balanced, state_from_json,
                       state_to_json)
from cvdiscord.cli import _SCHEMES, main
from cvdiscord.sampler import (SCHEMES, RecordSet, scheme_from_dict,
                               scheme_to_dict, write_records)
from cvdiscord.verifier import Histogram, histogram_to_csv, sweep_to_csv

MIXTURE = PMixtureState(
    (CoherentPoint(0.25, 1.0 - 2.0j), ThermalComponent(0.5, 0.8),
     ArcsineComponent(0.25, 1.1)),
    eta=0.62, v0=2.0)


def gaussian_state():
    return split_balanced(modulated_beam(1.5, 2.0, 2.0))


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


def test_every_document_writer_reads_back():
    assert mixture_from_json(mixture_to_json(MIXTURE)) == MIXTURE
    assert {type(c) for c in MIXTURE.components} == {
        CoherentPoint, ThermalComponent, ArcsineComponent}

    state = gaussian_state()
    back = state_from_json(state_to_json(state))
    assert np.array_equal(back.means, state.means)
    assert np.array_equal(back.cov, state.cov)
    assert back.v0 == state.v0

    fock = build_ce_zero_discord(alpha=0.8, dim_b=4)
    back = fock_state_from_json(fock_state_to_json(fock))
    assert (back.dim_a, back.dim_b, back.v0) == (fock.dim_a, fock.dim_b,
                                                 fock.v0)
    assert np.array_equal(back.matrix, fock.matrix)


def test_tables_and_the_sidecar_keep_their_bytes(tmp_path):
    # outputs no command writes, pinned as version 0.2.0 wrote them
    histogram_to_csv(Histogram([-1.5, -0.25, 0.5, 2.0], [3, 0, 12]),
                     tmp_path / "hist.csv")
    assert (tmp_path / "hist.csv").read_text() == (
        "left_edge,right_edge,count\n-1.5,-0.25,3\n-0.25,0.5,0\n0.5,2,12\n")
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
    (mixture_from_json, _with(mixture_to_json(MIXTURE),
                              lambda d: d.update(v0="x")),
     "'v0' of the mixture document must be a number, got str"),
    (state_from_json, _with(state_to_json(gaussian_state()),
                            lambda d: d.update(v0="x")),
     "'v0' of the state document must be a number, got str"),
    (state_from_json, _with(state_to_json(gaussian_state()),
                            lambda d: d.update(means=["x", 0, 0, 0])),
     "'means' of the state document must be a list of numbers, got list"),
    (state_from_json, _with(state_to_json(gaussian_state()),
                            lambda d: d.update(cov=[[1, 0], [0, 1, 0]])),
     "'cov' of the state document must be a matrix of numbers, got list"),
], ids=["mixture", "state", "means", "cov"])
def test_a_wrong_typed_field_is_named(read, text, fault):
    with pytest.raises(ValidationError, match=f"field {fault}"):
        read(text)


@pytest.mark.parametrize("read, text, what", [
    (state_from_json, _with(state_to_json(gaussian_state()),
                            lambda d: d.update(V0=2.0)), "state document"),
    (mixture_from_json, _with(mixture_to_json(MIXTURE),
                              lambda d: d.update(V0=2.0)), "mixture document"),
    (mixture_from_json, _with(mixture_to_json(MIXTURE),
                              lambda d: d["components"][1].update(V0=2.0)),
     "thermal component"),
    (fock_state_from_json,
     _with(fock_state_to_json(build_ce_zero_discord(alpha=0.8, dim_b=4)),
           lambda d: d.update(V0=2.0)), "state document"),
    (scheme_from_dict, {"kind": "async_sine", "depth": 1.0, "V0": 2.0},
     "async_sine scheme"),
], ids=["state", "mixture", "component", "fock", "scheme"])
def test_an_unknown_field_is_named(read, text, what):
    with pytest.raises(ValidationError, match=f"unknown {what} key 'V0'"):
        read(text)


def test_fock_dimensions_must_be_integers():
    doc = json.loads(fock_state_to_json(build_ce_zero_discord(alpha=0.8,
                                                              dim_b=4)))
    doc["dim_B"] = 4.0
    with pytest.raises(ValidationError,
                       match="field 'dim_B' of the state document must be "
                             "an integer, got float"):
        fock_state_from_json(json.dumps(doc))
