"""Compare the command line outputs of two cvdiscord source trees, or
list the exported functions that no command reaches in one tree.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC
    python scripts/compare_outputs.py --trace SRC

Each SRC is a directory that holds the ``cvdiscord`` package, e.g. the
``src`` of a checkout.  A tree of the previous commit can be made with

    mkdir /tmp/old && git archive HEAD~1 src | tar -x -C /tmp/old

and then compared with ``python scripts/compare_outputs.py /tmp/old/src src``.

For each tree the script writes the files of CONFIGS and RECORDS into a
fresh temporary directory and runs there each command of COMMANDS, with
PYTHONPATH set to that tree.  The set runs every command, scheme, mode and
record format, and bad input that must exit 1 and write nothing; the
comments in COMMANDS say what each entry is there for.  The script then
compares every output file byte for byte, and each command's exit code,
stdout and stderr.  In a manifest every value inside its "timings_s" and
"versions" objects reads null before the comparison, as those vary from
run to run; the rest of the manifest, its layout included, must match.
Each manifest is named after its command's primary output
(gauss.npz.manifest.json), so no command overwrites another's manifest and
all of them are compared; a tree that names manifests otherwise shows as
files written by one tree only.  It
prints one line per difference and exits 1 if there is any, else 0.  For a
JSON or CSV file that differs, the line gives the largest relative
difference between its paired numbers, whether a "decision" field changed,
the path of each true or false that flipped, and whether any text, null or
layout differs too.  For a .npz record file that differs, it loads both
files with numpy, expands a run table into the four per-row columns, and
says whether the records are equal bit for bit ("layout differs, records
equal") or not ("records differ"); either way the difference counts.

With --trace it runs the same command set in one tree, each command under
the standard library's ``python -m trace --listfuncs --module
cvdiscord.cli``, which follows the pool threads too.  It then prints each
function in that tree's ``cvdiscord.__all__`` that no command called, one
per line, and a count.  A command that writes to stderr is named too, as
what it did not reach would show as unreached.  The trace runs the
commands many times slower than plain runs; it is not part of the test
suite.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIM = ("simulate", "--n", "20000")
COMMANDS = [
    # every scheme in both record formats, and a gaussian one on 3 workers
    (*SIM, "--depth", "1.5", "--seed", "3", "--out", "gauss.npz"),
    (*SIM, "--depth", "1.5", "--seed", "3", "--out", "gauss.csv"),
    (*SIM, "--depth", "1.5", "--seed", "3", "--workers", "3",
     "--out", "gauss_w3.npz"),
    (*SIM, "--scheme", "switched-noise", "--depth", "3", "--seed", "2",
     "--out", "noise.npz"),
    (*SIM, "--scheme", "switched-noise", "--depth", "3", "--seed", "2",
     "--out", "noise.csv"),
    (*SIM, "--scheme", "switched-phase", "--pairs", "90,90",
     "--seed", "4", "--out", "phase.npz"),
    (*SIM, "--scheme", "switched-phase", "--pairs", "90,90",
     "--seed", "4", "--out", "phase.csv"),
    (*SIM, "--scheme", "async", "--depth", "2", "--seed", "6",
     "--out", "async.npz"),
    (*SIM, "--scheme", "async", "--depth", "2", "--seed", "6",
     "--out", "async.csv"),
    # CSV records of one row, and of one row more than the CSV writer's
    # block (errors.BLOCK_ROWS, 4096 rows) per pair: each pair's run ends
    # a row after a block, and the next run starts inside that block
    ("simulate", "--n", "4097", "--seed", "13", "--out", "block_plus_1.csv"),
    ("simulate", "--n", "1", "--seed", "13", "--out", "one_row.csv"),
    # a record file and its verdict that share a stem, each with a manifest
    (*SIM, "--depth", "2", "--seed", "8", "--out", "run.npz"),
    ("verify", "--records", "run.npz", "--boot", "50", "--out", "run.json"),
    # verify in both modes with --plotdata, on .npz and on CSV records
    ("verify", "--records", "gauss.npz", "--boot", "50",
     "--out", "v_gauss.json", "--plotdata", "p_gauss.csv"),
    ("verify", "--records", "gauss.npz", "--boot", "50",
     "--pairs", "90,90;0,90", "--out", "v_pairs.json",
     "--plotdata", "p_pairs.csv"),
    ("verify", "--records", "gauss.csv", "--boot", "50",
     "--out", "v_gauss_csv.json", "--plotdata", "p_gauss_csv.csv"),
    ("verify", "--records", "noise.npz", "--mode", "mixture", "--boot", "50",
     "--out", "v_noise.json", "--plotdata", "p_noise.csv"),
    ("verify", "--records", "async.npz", "--mode", "mixture", "--boot", "50",
     "--out", "v_async.json", "--plotdata", "p_async.csv"),
    ("verify", "--records", "phase.npz", "--mode", "mixture",
     "--threshold", "-6", "--boot", "50", "--out", "v_phase.json",
     "--plotdata", "p_phase.csv"),
    ("verify", "--records", "phase.csv", "--mode", "mixture",
     "--threshold", "-6", "--boot", "50", "--out", "v_phase_csv.json",
     "--plotdata", "p_phase_csv.csv"),
    # simulate, and below verify, from a config file
    ("simulate", "--config", "sim.json"),
    # 140000 = 2 * 65536 + 8928: chunk boundaries inside and between pairs
    ("simulate", "--n", "140000", "--depth", "1.5", "--seed", "11",
     "--out", "chunks.npz"),
    ("verify", "--records", "chunks.npz", "--boot", "50",
     "--out", "v_chunks.json"),
    # unequal sides on pooled pairs: the whole-pair edges from two parts
    ("verify", "--records", "chunks.npz", "--boot", "50", "--threshold", "1.5",
     "--out", "v_chunks_t.json", "--plotdata", "p_chunks_t.csv"),
    ("verify", "--config", "verify.json", "--boot", "50"),
    # the mixture sampler at two pairs and eta 0.9, 70000 = 65536 + 4464:
    # chunk boundaries inside pair 0 and between the pairs
    ("simulate", "--scheme", "switched-noise", "--depth", "3",
     "--pairs", "0,0;90,90", "--eta", "0.9", "--n", "70000", "--seed", "12",
     "--out", "mix_pairs.npz"),
    # the gaussian state off the balanced splitter, with unequal depths
    (*SIM, "--depth-x", "2", "--depth-p", "0.5", "--eta", "0.9", "--seed", "9",
     "--out", "gauss_eta.npz"),
    ("verify", "--records", "gauss_eta.npz", "--boot", "50",
     "--out", "v_gauss_eta.json"),
    # under one sampling chunk per depth
    ("sweep", "--depths", "0:3:4", "--n", "5000", "--out", "sweep.csv"),
    # at least one sampling chunk per depth: pooled depths that draw their
    # chunks on the pool in turn
    ("sweep", "--depths", "0:3:5", "--n", "70000", "--out", "sweep_chunks.csv"),
    ("counterexample", "--which", "both", "--out", "ce.json",
     "--plotdata", "curves", "--dump-state", "state"),
    # alpha 2.5 needs dim_A 40: the 800 x 800 positivity check, the largest
    # basis the command line reaches
    ("counterexample", "--which", "zero", "--alpha", "2.5",
     "--plotdata", "ce_wide", "--out", "ce_wide.json"),
    # alpha 0: each conditional B density has twin maxima at -1 and 1, and
    # the grid's argmax picks the bracket of one
    ("counterexample", "--which", "zero", "--alpha", "0", "--out", "ce_alpha0.json"),
    # records without a sidecar: the verdicts hold an empty "meta"
    ("verify", "--records", "bare.csv", "--pairs", "0,0", "--boot", "50",
     "--out", "v_bare.json"),
    ("verify", "--records", "bare.csv", "--mode", "mixture",
     "--out", "v_bare_mix.json"),
    # records too few for a verdict, read by the bad-input commands below
    ("simulate", "--n", "4", "--seed", "1", "--out", "few.npz"),
    ("simulate", "--scheme", "async", "--depth", "2", "--n", "8", "--seed", "6",
     "--out", "few_async.npz"),
    # a depth below MAX_DEPTH at which the splitter's rounding leaves the
    # covariance asymmetric by more than 1e-12
    ("simulate", "--depth", "158", "--n", "100", "--out", "depth_158.npz"),
    # bad input, each of which exits 1 and writes nothing
    ("verify", "--records", "async.npz", "--mode", "mixture", "--seed", "-5",
     "--out", "v_seed.json"),
    (*SIM, "--seed", "4294967296", "--out", "seed_2_32.npz"),
    ("counterexample", "--alpha", "10", "--out", "ce_alpha10.json"),
    (*SIM, "--pairs", "nan,0", "--out", "theta_nan.npz"),
    ("counterexample", "--which", "zero", "--nbar", "nan",
     "--out", "ce_nbar_nan.json"),
    # too few records, each of which names the pair or the depth
    ("verify", "--records", "few.npz", "--out", "v_few.json"),
    ("verify", "--records", "few_async.npz", "--mode", "mixture",
     "--out", "v_few_async.json"),
    ("sweep", "--depths", "1", "--n", "5", "--out", "sweep_few.csv"),
    # enough records for both peak fits, too few for the chi-square
    ("sweep", "--depths", "1", "--n", "12", "--out", "sweep_chi2_few.csv"),
    # both records on the plus side
    ("sweep", "--depths", "0", "--n", "2", "--out", "sweep_one_side.csv"),
    # a depth far above MAX_DEPTH, in the gaussian and the async scheme
    ("simulate", "--depth", "1e200", "--n", "100", "--out", "depth_1e200.npz"),
    ("simulate", "--scheme", "async", "--depth", "1e200", "--n", "100",
     "--out", "async_1e200.npz"),
    # records in other units: x_B 1e300 times too large
    ("verify", "--records", "bare_1e300.csv", "--pairs", "0,0", "--boot", "50",
     "--out", "v_bare_1e300.json"),
    # config files that are not a JSON object or hold a non-finite number
    ("simulate", "--config", "list.json", "--out", "cfg_list.npz"),
    ("simulate", "--config", "nan.json", "--out", "cfg_nan.npz"),
    # negative numbers in exponent form, each the value of its flag
    ("simulate", "--scheme", "switched-phase", "--amplitude", "-1e3",
     "--n", "2000", "--out", "phase_neg.npz"),
    ("verify", "--records", "run.npz", "--threshold", "-1e-3", "--boot", "50",
     "--out", "v_run_neg.json"),
    # integers too large for float64 (a config depth) or for numpy to index
    # (--n 10**30), each of which exits 1 naming itself
    ("simulate", "--config", "huge.json", "--out", "cfg_huge.npz"),
    ("simulate", "--n", str(10**30), "--out", "n_1e30.npz"),
    ("sweep", "--n", str(10**30), "--depths", "1", "--out", "sweep_n_1e30.csv"),
    # a phase pair that mixture mode cannot honour: exits 1
    ("verify", "--records", "async.npz", "--mode", "mixture",
     "--pairs", "90,90", "--out", "v_async_pairs.json"),
]

# config files the commands above read, written into each work directory
CONFIGS = {
    "sim.json": {"scheme": "switched-noise", "depth": 2, "duty": 0.4,
                 "n": 20000, "seed": 5, "pairs": "90,90",
                 "out": "cfg.npz"},
    "verify.json": {"records": "cfg.npz", "mode": "mixture",
                    "threshold": 0.5, "seed": 2, "out": "v_cfg.json",
                    "plotdata": "p_cfg.csv"},
    "list.json": [1],
    "nan.json": {"depth": math.nan},
    "huge.json": {"depth": 10**400},
}


def _bare_records(scale: float = 1.0, n: int = 20000, seed: int = 17) -> str:
    """The text of a record CSV at phase pair (0, 0) whose x_B, times
    scale, is correlated with x_A, written by this script and not by the
    program."""
    x_a, noise = np.random.default_rng(seed).standard_normal((2, n))
    rows = (f"0,0,{a:.17g},{(0.6 * a + 0.8 * b) * scale:.17g}"
            for a, b in zip(x_a, noise))
    return "\n".join(["theta_A,theta_B,x_A,x_B", *rows]) + "\n"


# record files the commands above read, written into each work directory
RECORDS = {"bare.csv": _bare_records(), "bare_1e300.csv": _bare_records(1e300)}


# how the commands run: as a module, or as a module under the trace
PLAIN = ("-m", "cvdiscord.cli")
TRACE = ("-m", "trace", "--listfuncs", "--module", "cvdiscord.cli")
# a function in the list that --listfuncs prints after the command's output
CALLED = re.compile(r"^filename: (.*), modulename: .*, funcname: (.*)$", re.M)
# prints the functions of cvdiscord.__all__ as [name, file, code name]
EXPORTED = """
import cvdiscord, inspect, json
print(json.dumps([(name, fn.__code__.co_filename, fn.__code__.co_name)
                  for name in cvdiscord.__all__
                  if inspect.isfunction(fn := getattr(cvdiscord, name))]))
"""


def tree_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.pop("CVDISCORD_OUTDIR", None)
    return env


def run_tree(src: Path, workdir: Path,
             how: tuple = PLAIN) -> list[tuple[int, str, str]]:
    env = tree_env(src)
    for name, doc in CONFIGS.items():
        (workdir / name).write_text(json.dumps(doc))
    for name, text in RECORDS.items():
        (workdir / name).write_text(text)
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, *how, *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def unreached(src: Path) -> int:
    """Print each function of cvdiscord.__all__ in the tree at src that no
    command calls, and each command that wrote to stderr; returns 0."""
    exported = json.loads(subprocess.run(
        [sys.executable, "-c", EXPORTED], env=tree_env(src),
        capture_output=True, text=True, check=True).stdout)
    with tempfile.TemporaryDirectory() as workdir:
        runs = run_tree(src, Path(workdir), TRACE)
    called = {pair for _, out, _ in runs for pair in CALLED.findall(out)}
    for argv, (_, _, err) in zip(COMMANDS, runs):
        if err:
            print(f"stderr of {' '.join(argv)}: {err.strip()}")
    missed = [name for name, *code in exported if tuple(code) not in called]
    for name in missed:
        print(name)
    print(f"{len(missed)} of {len(exported)} functions in cvdiscord.__all__ "
          f"called by none of {len(COMMANDS)} commands")
    return 0


# a manifest's "timings_s" or "versions" object, up to its closing brace
VOLATILE = re.compile(rb'("(?:timings_s|versions)": \{)([^}]*)')


def comparable(path: Path) -> bytes:
    """The bytes of an output file, with the values in a manifest's
    "timings_s" and "versions" objects replaced by null."""
    data = path.read_bytes()
    if not path.name.endswith(".manifest.json"):
        return data
    return VOLATILE.sub(lambda m: m[1] + re.sub(rb'": [^,\n]*', b'": null', m[2]),
                        data)


def _parsed(path: Path):
    """A JSON or CSV output as nested lists and dicts, CSV fields as
    floats where they parse; None for any other file."""
    if path.suffix == ".json":
        return json.loads(comparable(path))
    if path.suffix != ".csv":
        return None
    rows = []
    for line in path.read_text().splitlines():
        row = []
        for text in line.split(","):
            try:
                row.append(float(text))
            except ValueError:
                row.append(text)
        rows.append(row)
    return rows


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(old, new, found: dict, where: str = "") -> None:
    """Pair the numbers of old and new, keeping in found the largest
    relative difference and where it is, whether a "decision" changed, the
    paths of the booleans that flipped and whether anything else (text,
    null, layout) differs."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            if key == "decision" and old[key] != new[key]:
                found["decision"] = True
            _walk(old[key], new[key], found, f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, found, f"{where}[{i}]")
    elif _number(old) and _number(new):
        if old != new:
            rel = abs(old - new) / max(abs(old), abs(new))
            found["rel"] = max(found["rel"], (rel, where))
    elif isinstance(old, bool) and isinstance(new, bool):
        if old != new:
            found["flipped"].append(where)
    elif old != new:
        found["other"] = True


def _records(path: Path) -> dict:
    """The per-row columns of a .npz record file, as dtype and bytes; a run
    table (phases, counts) is expanded into theta_A and theta_B."""
    with np.load(path, allow_pickle=False) as npz:
        members = {name: npz[name] for name in npz.files}
    if "counts" in members:
        theta = np.repeat(members.pop("phases"), members.pop("counts"), axis=0)
        members.update(theta_A=theta[:, 0], theta_B=theta[:, 1])
    return {name: (col.dtype, col.tobytes()) for name, col in members.items()}


def describe(old: Path, new: Path) -> str:
    """How the contents of two differing output files differ."""
    if old.suffix == ".npz":
        return ("layout differs, records equal"
                if _records(old) == _records(new) else "records differ")
    old_doc, new_doc = _parsed(old), _parsed(new)
    if old_doc is None:
        return "contents differ"
    found = {"rel": (0.0, ""), "decision": False, "flipped": [], "other": False}
    _walk(old_doc, new_doc, found)
    rel, where = found["rel"]
    parts = [f"numbers differ by at most {rel:.3g} relative (at {where})"
             if rel else "numbers equal",
             "decision changed" if found["decision"] else "decision unchanged"]
    parts += [f"{where} flipped" for where in found["flipped"]]
    if found["other"]:
        parts.append("text, null or layout differs")
    return ", ".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--trace":
        return unreached(Path(argv[1]))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old_src, new_src = (Path(a) for a in argv)
    diffs = []
    with tempfile.TemporaryDirectory() as old_dir, \
            tempfile.TemporaryDirectory() as new_dir:
        old_dir, new_dir = Path(old_dir), Path(new_dir)
        old_runs = run_tree(old_src, old_dir)
        new_runs = run_tree(new_src, new_dir)
        for argv_i, old, new in zip(COMMANDS, old_runs, new_runs):
            for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    diffs.append(f"{what} of {' '.join(argv_i)}: "
                                 f"{a!r} != {b!r}")
        old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*")
                     if p.is_file()}
        new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*")
                     if p.is_file()}
        for name in sorted(old_files ^ new_files):
            side = "old" if name in old_files else "new"
            diffs.append(f"{name}: written only by the {side} tree")
        for name in sorted(old_files & new_files):
            if comparable(old_dir / name) != comparable(new_dir / name):
                diffs.append(f"{name}: {describe(old_dir / name, new_dir / name)}")
        checked = len(old_files & new_files)
    for line in diffs:
        print(line)
    print(f"{checked} output files and {len(COMMANDS)} commands compared, "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
