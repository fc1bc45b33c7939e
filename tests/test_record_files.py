"""Record files: the format follows the suffix (.npz binary, anything else
CSV), both formats carry the same records and give the same verdicts, and
bad files fail at the boundary as a ParseError (exit 1) that says where.
"""

import hashlib
import json
import math
import zipfile

import numpy as np
import pytest

from cvdiscord import (
    ParseError,
    RecordSet,
    SwitchedNoise,
    read_records,
    sample_scheme,
    write_records,
)
from cvdiscord.cli import _read_sidecar, main
from cvdiscord.errors import _COMPRESSORS, BLOCK_ROWS, write_table
from cvdiscord.sampler import COLUMNS, CSV_HEADER, NPZ_LAYOUT
from cvdiscord.verifier import CANONICAL_PAIRS


def run(*argv):
    return main([str(a) for a in argv])


def sample(n=3_000, seed=61):
    return sample_scheme(SwitchedNoise(2.0, 1.0, 0.4), [(0.0, 0.0)], n, seed)


def assert_bitwise_equal(a, b):
    for name, got, want in zip(COLUMNS, a.columns(), b.columns()):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), name


def savez(path, **members):
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def savecsv(path, *columns, header=CSV_HEADER):
    """The oracle of the CSV bytes: what write_table and write_records write."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")


# ---------------------------------------------------------------------------
# the CSV bytes
# ---------------------------------------------------------------------------

# values whose %.17g text is an edge: a signed zero, the smallest
# subnormal, the largest floats, integers, and values that need 17 digits
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.0, 3.0, -12.0, 2.0**53, 0.1, 1 / 3, -2e-300 / 3, math.pi]
# counts of rows on and around the writer's block boundary
ROW_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_write_table_bytes_equal_savetxt(tmp_path, n):
    # plot curves may hold nan and infinities
    values = np.resize(EDGE_VALUES + [math.nan, math.inf, -math.inf], n)
    columns = {"x": values, "unconditional": values[::-1], "plus": -values}
    write_table(tmp_path / "table.csv", columns)
    savecsv(tmp_path / "oracle.csv", *columns.values(),
            header="x,unconditional,plus")
    assert (tmp_path / "table.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_csv_record_bytes_equal_savetxt(tmp_path, n):
    x_a = np.resize(EDGE_VALUES, n)
    x_b = -np.resize(EDGE_VALUES[::-1], n)
    # a last run of up to 3 rows, so that a run crosses the block boundary
    counts = [c for c in (n - min(n, 3), min(n, 3)) if c]
    phases = [(-0.0, 5e-324), (math.pi / 2, 1 / 3)][-len(counts):] if n else []
    rs = RecordSet(x_a, x_b, phases, counts)
    write_records(rs, tmp_path / "rec.csv")
    savecsv(tmp_path / "oracle.csv", *rs.columns())
    assert (tmp_path / "rec.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


def test_csv_read_back_writes_its_runs_in_file_order(tmp_path):
    # pair (0, 0) in two runs, and runs of one row, within and across blocks
    theta_a = np.repeat([0.0, 1.0, 0.0, 1.0, 0.0], [3, 1, BLOCK_ROWS, 1, 2])
    x = np.linspace(-7.0, 7.0, len(theta_a))
    savecsv(tmp_path / "lab.csv", theta_a, np.zeros_like(x), x, x / 3)
    rs = read_records(tmp_path / "lab.csv")
    assert rs.counts.tolist() == [3, 1, BLOCK_ROWS, 1, 2]
    write_records(rs, tmp_path / "back.csv")
    assert (tmp_path / "back.csv").read_bytes() == \
        (tmp_path / "lab.csv").read_bytes()


def test_write_table_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError, match="mismatched lengths"):
        write_table(tmp_path / "table.csv", {"x": [1.0, 2.0], "y": [1.0]})
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("suffix, magic", [(".gz", b"\x1f\x8b"), (".bz2", b"BZh"),
                                           (".xz", b"\xfd7zXZ")])
def test_compressed_csv_suffixes_round_trip(tmp_path, suffix, magic):
    rs = sample(n=10)
    path = tmp_path / f"rec.csv{suffix}"
    write_records(rs, path)
    assert path.read_bytes().startswith(magic)
    assert_bitwise_equal(read_records(path), rs)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_a_non_finite_compressed_csv_record_names_its_file_row(tmp_path, suffix):
    # the header is row 1, so record 41 is row 42
    rs = sample(n=50)
    x_a = rs.x_a.copy()
    x_a[40] = math.nan
    path = tmp_path / f"rec.csv{suffix}"
    write_records(RecordSet(x_a, rs.x_b, rs.phases, rs.counts), path)
    with pytest.raises(ParseError, match="row 42: non-finite x_A"):
        read_records(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_a_malformed_compressed_csv_line_names_its_file_row(tmp_path, suffix):
    write_records(sample(n=50), tmp_path / "rec.csv")
    lines = (tmp_path / "rec.csv").read_text().splitlines(keepends=True)
    lines[42] = "0,0,abc,1\n"
    path = tmp_path / f"rec.csv{suffix}"
    with _COMPRESSORS[suffix](path, "wt") as fh:
        fh.writelines(lines)
    with pytest.raises(ParseError, match="row 43: could not convert .*'abc'"):
        read_records(path)


# ---------------------------------------------------------------------------
# the .npz format
# ---------------------------------------------------------------------------


def test_csv_and_npz_read_back_bitwise_equal(tmp_path):
    rs = sample()
    write_records(rs, tmp_path / "rec.csv")
    write_records(rs, tmp_path / "rec.npz")
    from_csv = read_records(tmp_path / "rec.csv")
    from_npz = read_records(tmp_path / "rec.npz")
    assert_bitwise_equal(from_csv, rs)
    assert_bitwise_equal(from_npz, from_csv)


def test_npz_holds_x_columns_and_the_run_table(tmp_path):
    rs = sample()
    rs = RecordSet(rs.x_a, rs.x_b, CANONICAL_PAIRS[:3], [1_000, 1_200, 800])
    path = tmp_path / "rec.npz"
    write_records(rs, path)
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == [f"{m}.npy" for m in NPZ_LAYOUT]
    assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    forms = {name: (col.dtype, col.shape) for name, col in members.items()}
    assert forms == {"x_A": (np.float64, (3_000,)), "x_B": (np.float64, (3_000,)),
                     "phases": (np.float64, (3, 2)), "counts": (np.int64, (3,))}
    theta = np.repeat(members["phases"], members["counts"], axis=0)
    expanded = (theta[:, 0], theta[:, 1], members["x_A"], members["x_B"])
    for name, got, want in zip(COLUMNS, expanded, rs.columns()):
        assert got.tobytes() == want.tobytes(), name


def test_npz_bytes_are_deterministic(tmp_path):
    rs = sample()
    write_records(rs, tmp_path / "a.npz")
    write_records(rs, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_write_read_empty_records_npz(tmp_path):
    empty = RecordSet(np.array([]), np.array([]), [], [])
    path = tmp_path / "empty.npz"
    write_records(empty, path)
    back = read_records(path)
    assert len(back) == 0
    assert all(column.dtype == np.float64 for column in back.columns())
    assert back.phases.shape == (0, 2) and back.counts.shape == (0,)


def test_other_suffixes_are_csv(tmp_path):
    rs = sample(n=10)
    path = tmp_path / "rec.dat"
    write_records(rs, path)
    assert path.read_text().splitlines()[0] == "theta_A,theta_B,x_A,x_B"
    assert_bitwise_equal(read_records(path), rs)


# ---------------------------------------------------------------------------
# non-finite records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("suffix, where", [(".csv", "row 5"),
                                           (".npz", "record 4")])
def test_non_finite_record_exits_1_naming_it(tmp_path, monkeypatch, capsys,
                                             value, suffix, where):
    monkeypatch.chdir(tmp_path)
    rs = sample(n=2_000)
    rs.x_b[3] = value
    write_records(rs, tmp_path / f"rec{suffix}")
    assert run("verify", "--records", f"rec{suffix}") == 1
    err = capsys.readouterr().err
    assert f"rec{suffix}" in err and where in err
    assert "non-finite x_B" in err
    assert not (tmp_path / "verdict.json").exists()


@pytest.mark.parametrize("text", ['[1]', '"x"', '{"eta": NaN}',
                                  '{"eta": Infinity}', '{"eta": 1e999}',
                                  pytest.param(None, id="directory")])
@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_malformed_sidecar_exits_1_naming_it(tmp_path, monkeypatch, capsys,
                                             text, mode):
    monkeypatch.chdir(tmp_path)
    pairs = ("--pairs", "90,90") if mode == "mixture" else ()
    assert run("simulate", "--n", "2000", *pairs, "--out", "rec.npz") == 0
    sidecar = tmp_path / "rec.npz.meta.json"
    if text is None:
        sidecar.unlink()
        sidecar.mkdir()
    else:
        sidecar.write_text(text)
    with pytest.raises(ParseError, match="bad sidecar .*rec.npz.meta.json"):
        _read_sidecar(tmp_path / "rec.npz")
    capsys.readouterr()
    assert run("verify", "--records", "rec.npz", "--mode", mode) == 1
    assert "bad sidecar rec.npz.meta.json" in capsys.readouterr().err
    assert not (tmp_path / "verdict.json").exists()


def test_non_finite_csv_row_counts_file_lines(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("theta_A,theta_B,x_A,x_B\n0,0,1,2\n\n# note\n"
                    "0,0,1,2\n0,inf,1,2\n")
    with pytest.raises(ParseError, match="row 6: non-finite theta_B"):
        read_records(path)


def test_first_non_finite_record_is_named(tmp_path):
    rs = sample(n=100)
    rs.x_b[40] = math.nan
    rs.x_a[40] = math.inf
    path = tmp_path / "rec.npz"
    # theta_A is infinite from record 71 on
    savez(path, x_A=rs.x_a, x_B=rs.x_b,
          phases=np.array([(0.0, 0.0), (0.0, 1.0), (math.inf, 0.0)]),
          counts=np.array([40, 30, 30]))
    with pytest.raises(ParseError, match="record 41: non-finite x_A"):
        read_records(path)


# ---------------------------------------------------------------------------
# malformed .npz files
# ---------------------------------------------------------------------------


def _run_table():
    """The members of a good run-table .npz: 50 records in four runs."""
    rs = sample(n=50)
    return {"x_A": rs.x_a, "x_B": rs.x_b, "phases": np.array(CANONICAL_PAIRS),
            "counts": np.array([10, 15, 12, 13])}


def _not_a_zip(path):
    path.write_text("theta_A,theta_B,x_A,x_B\n0,0,1,2\n")


def _empty_file(path):
    path.write_bytes(b"")


def _npy_file(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros((50, 4)))


def _truncated(path):
    savez(path, **_run_table())
    path.write_bytes(path.read_bytes()[:600])


def _missing_member(path):
    cols = _run_table()
    del cols["x_B"]
    savez(path, **cols)


def _misnamed_member(path):
    cols = _run_table()
    cols["x_b"] = cols.pop("x_B")
    savez(path, **cols)


def _per_row_layout(path):
    # the four per-row columns that cvdiscord 0.1.0 wrote
    savez(path, **dict(zip(COLUMNS, sample(n=50).columns())))


def _two_d_member(path):
    cols = _run_table()
    cols["x_B"] = cols["x_B"].reshape(-1, 1)
    savez(path, **cols)


def _int_member(path):
    cols = _run_table()
    cols["x_A"] = np.arange(50)
    savez(path, **cols)


def _object_member(path):
    cols = _run_table()
    cols["phases"] = np.array([None] * 4, dtype=object)
    savez(path, **cols)


def _uneven_members(path):
    cols = _run_table()
    cols["x_B"] = cols["x_B"][:-1]
    savez(path, **cols)


@pytest.mark.parametrize("make, fault", [
    (_not_a_zip, "not a .npz"),
    (_empty_file, "not a .npz"),
    (_npy_file, "not a .npz"),
    (_truncated, "not a .npz"),
    (_missing_member, "members"),
    (_misnamed_member, "members"),
    (_per_row_layout, "members ['theta_A', 'theta_B', 'x_A', 'x_B'], "
                      "expected ['x_A', 'x_B', 'phases', 'counts']"),
    (_two_d_member, "x_B is 2-D float64, expected 1-D float64"),
    (_int_member, "x_A is 1-D int64, expected 1-D float64"),
    (_object_member, "allow_pickle"),
    (_uneven_members, "lengths"),
])
def test_malformed_npz_exits_1(tmp_path, monkeypatch, capsys, make, fault):
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "bad.npz")
    with pytest.raises(ParseError, match="bad.npz"):
        read_records(tmp_path / "bad.npz")
    assert run("verify", "--records", "bad.npz") == 1
    err = capsys.readouterr().err
    assert "bad.npz" in err and fault in err


@pytest.mark.parametrize("change, fault", [
    ({"counts": None}, "members"),
    ({"counts": np.array([10.0, 15.0, 12.0, 13.0])},
     "counts is 1-D float64, expected 1-D int64"),
    ({"phases": np.zeros(4)},
     "phases is 1-D float64, expected (runs, 2) float64"),
    ({"phases": np.zeros((4, 3))},
     "phases is (runs, 3) float64, expected (runs, 2) float64"),
    ({"counts": np.array([10, 15, 25])}, "lengths"),
    ({"counts": np.array([10, 0, 27, 13])},
     "run 2 has count 0, expected at least 1"),
    ({"counts": np.array([10, 15, 12, 12])},
     "run counts sum to 49, expected 50 records"),
    ({"counts": np.array([10, 15, 12, 14])},
     "run counts sum to 51, expected 50 records"),
    # an int64 sum of these wraps around to 50
    ({"counts": np.array([2**62, 2**62, 2**62, 2**62 + 50])},
     "run counts sum to 18446744073709551616, expected 50 records"),
    ({"phases": np.array([[0, 0], [0, np.nan], [1, 0], [1, 1]])},
     "record 11: non-finite theta_B (nan)"),
], ids=["no counts", "float counts", "1-D phases", "3 phase columns",
        "uneven runs", "zero count", "sum short", "sum over", "sum wraps",
        "nan phase"])
def test_malformed_run_table_exits_1(tmp_path, monkeypatch, capsys, change,
                                     fault):
    monkeypatch.chdir(tmp_path)
    members = {**_run_table(), **change}
    savez(tmp_path / "bad.npz",
          **{name: col for name, col in members.items() if col is not None})
    with pytest.raises(ParseError, match="bad.npz"):
        read_records(tmp_path / "bad.npz")
    assert run("verify", "--records", "bad.npz") == 1
    err = capsys.readouterr().err
    assert "bad.npz" in err and fault in err


# ---------------------------------------------------------------------------
# phase pairs
# ---------------------------------------------------------------------------


def test_missing_pair_lists_pairs_and_hints_at_degrees(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--out", "rad.csv") == 0
    theta_a, theta_b, x_a, x_b = read_records("rad.csv").columns()
    savecsv(tmp_path / "deg.csv", np.degrees(theta_a), np.degrees(theta_b),
            x_a, x_b)
    capsys.readouterr()
    assert run("verify", "--records", "deg.csv") == 1
    err = capsys.readouterr().err
    assert "missing records for phase pair (0, 1.5708)" in err
    assert "(0, 90), (90, 0), (90, 90)" in err
    assert "radians" in err


def test_missing_pair_in_radians_gets_no_degree_hint(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "2000", "--pairs", "0,0;0,90",
               "--out", "two.npz") == 0
    capsys.readouterr()
    assert run("verify", "--records", "two.npz") == 1
    err = capsys.readouterr().err
    assert "phase pairs (0, 0), (0, 1.5708)" in err
    assert "radians" not in err


@pytest.mark.parametrize("suffix", [".npz", ".csv"])
def test_four_pair_file_reads_four_runs_and_selects_views(tmp_path,
                                                          monkeypatch, suffix):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--n", "1000", "--out", f"four{suffix}") == 0
    rs = read_records(f"four{suffix}")
    assert rs.counts.tolist() == [1000] * 4
    assert np.array_equal(rs.phases, CANONICAL_PAIRS)
    for theta_a, theta_b in CANONICAL_PAIRS:
        sub = rs.select_pair(theta_a, theta_b)
        assert len(sub) == 1000
        assert np.shares_memory(sub.x_a, rs.x_a)
        assert np.shares_memory(sub.x_b, rs.x_b)


def test_phases_within_tolerance_select_as_one_pair_in_file_order(tmp_path):
    theta_a = np.array([0.0, 0.0, 1e-12, 1e-12, 0.0, 1.0, 1e-12])
    x = np.arange(7.0)
    savecsv(tmp_path / "rec.csv", theta_a, np.zeros(7), x, 10.0 + x)
    rs = read_records(tmp_path / "rec.csv")
    assert rs.counts.tolist() == [2, 2, 1, 1, 1]
    sub = rs.select_pair(0.0, 0.0)
    assert sub.x_a.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    assert sub.x_b.tolist() == [10.0, 11.0, 12.0, 13.0, 14.0, 16.0]


def test_interleaved_pairs_give_the_block_ordered_verdict(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--depth", "2", "--n", "5000", "--seed", "8",
               "--out", "rec.npz") == 0
    block = np.column_stack(read_records("rec.npz").columns())
    # row i of every pair in turn, so each row is a run of its own
    mixed = block.reshape(4, 5000, 4).transpose(1, 0, 2).reshape(-1, 4)
    savecsv("block.csv", *block.T)
    savecsv("mixed.csv", *mixed.T)
    assert len(read_records("mixed.csv").counts) == 20_000
    for name in ("block", "mixed"):
        assert run("verify", "--records", f"{name}.csv", "--boot", "50",
                   "--out", f"v_{name}.json", "--plotdata",
                   f"p_{name}.csv") == 0
    for prefix in ("v_", "p_"):
        ext = ".json" if prefix == "v_" else ".csv"
        assert (tmp_path / f"{prefix}block{ext}").read_bytes() == \
            (tmp_path / f"{prefix}mixed{ext}").read_bytes()


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["gaussian", "mixture"])
def test_verdict_bytes_do_not_depend_on_format(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    # the mixture verdict takes one phase pair
    pairs = ("--pairs", "90,90") if mode == "mixture" else ()
    assert run("simulate", "--depth", "2", "--n", "5000", "--seed", "8",
               *pairs, "--out", "rec.npz") == 0
    write_records(read_records("rec.npz"), tmp_path / "rec.csv")
    (tmp_path / "rec.csv.meta.json").write_bytes(
        (tmp_path / "rec.npz.meta.json").read_bytes())
    for suffix in ("npz", "csv"):
        assert run("verify", "--records", f"rec.{suffix}", "--mode", mode,
                   "--boot", "50", "--out", f"verdict_{suffix}.json") == 0
    npz_bytes = (tmp_path / "verdict_npz.json").read_bytes()
    assert npz_bytes == (tmp_path / "verdict_csv.json").read_bytes()


def test_simulate_defaults_to_npz(tmp_path, monkeypatch, capsys):
    workdir, outdir = tmp_path / "work", tmp_path / "out"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("CVDISCORD_OUTDIR", str(outdir))
    assert run("simulate", "--n", "1000", "--pairs", "0,0") == 0
    printed = capsys.readouterr().out.splitlines()
    names = ["records.npz", "records.npz.meta.json", "records.npz.manifest.json"]
    assert printed == [str(outdir / n) for n in names]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    assert list(workdir.iterdir()) == []
    manifest = json.loads((outdir / "records.npz.manifest.json").read_text())
    assert manifest["config"]["out"] == "records.npz"
    assert manifest["outputs"] == {
        str(outdir / n): hashlib.sha256((outdir / n).read_bytes()).hexdigest()
        for n in names[:2]}
    assert zipfile.is_zipfile(outdir / "records.npz")
    assert len(read_records(outdir / "records.npz")) == 1000


def test_npz_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workers in ("1", "4"):
        assert run("simulate", "--depth", "1.5", "--n", "150000",
                   "--seed", "42", "--pairs", "0,0;90,90",
                   "--workers", workers, "--out", f"rec_{workers}.npz") == 0
    assert (tmp_path / "rec_1.npz").read_bytes() == \
        (tmp_path / "rec_4.npz").read_bytes()


def test_malformed_csv_row_counts_file_lines(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("theta_A,theta_B,x_A,x_B\n0,0,1,2\n\n# note\n"
                    "0,0,1,2\n0,0,oops,2.0\n")
    with pytest.raises(ParseError, match="row 6: could not convert .* .oops."):
        read_records(path)
