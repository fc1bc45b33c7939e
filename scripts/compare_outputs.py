"""Compare the command line outputs of two cvdiscord source trees.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``cvdiscord`` package, e.g. the
``src`` of a checkout.  A tree of the previous commit can be made with

    mkdir /tmp/old && git archive HEAD~1 src | tar -x -C /tmp/old

and then compared with ``python scripts/compare_outputs.py /tmp/old/src src``.

For each tree the script runs the same command set (simulate for every
scheme in both record formats and with --workers 3, verify in both modes
with --plotdata, sweep, and counterexample with --plotdata and
--dump-state) in a fresh temporary directory, with PYTHONPATH set to that
tree.  It then compares every output file byte for byte, except manifests,
which are compared as JSON without their "timings_s" and "versions"
entries, and each command's exit code, stdout and stderr.  It prints one
line per difference and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIM = ("simulate", "--n", "20000")
COMMANDS = [
    (*SIM, "--depth", "1.5", "--seed", "3", "--out", "gauss.npz"),
    (*SIM, "--depth", "1.5", "--seed", "3", "--out", "gauss.csv"),
    (*SIM, "--depth", "1.5", "--seed", "3", "--workers", "3",
     "--out", "gauss_w3.npz"),
    (*SIM, "--scheme", "switched-noise", "--depth", "3", "--seed", "2",
     "--out", "noise.npz"),
    (*SIM, "--scheme", "switched-noise", "--depth", "3", "--seed", "2",
     "--out", "noise.csv"),
    (*SIM, "--scheme", "switched-phase", "--theta-a", "90", "--theta-b", "90",
     "--seed", "4", "--out", "phase.npz"),
    (*SIM, "--scheme", "switched-phase", "--theta-a", "90", "--theta-b", "90",
     "--seed", "4", "--out", "phase.csv"),
    (*SIM, "--scheme", "async", "--depth", "2", "--seed", "6",
     "--out", "async.npz"),
    (*SIM, "--scheme", "async", "--depth", "2", "--seed", "6",
     "--out", "async.csv"),
    ("verify", "--records", "gauss.npz", "--boot", "50",
     "--out", "v_gauss.json", "--plotdata", "p_gauss.csv"),
    ("verify", "--records", "gauss.npz", "--boot", "50",
     "--pairs", "90,90;0,90", "--out", "v_pairs.json",
     "--plotdata", "p_pairs.csv"),
    ("verify", "--records", "noise.npz", "--mode", "mixture", "--boot", "50",
     "--out", "v_noise.json", "--plotdata", "p_noise.csv"),
    ("verify", "--records", "async.npz", "--mode", "mixture", "--boot", "50",
     "--out", "v_async.json", "--plotdata", "p_async.csv"),
    ("verify", "--records", "phase.npz", "--mode", "mixture",
     "--threshold", "-6", "--boot", "50", "--out", "v_phase.json",
     "--plotdata", "p_phase.csv"),
    ("sweep", "--depths", "0:3:4", "--n", "5000", "--out", "sweep.csv"),
    ("counterexample", "--which", "both", "--out", "ce.json",
     "--plotdata", "curves", "--dump-state", "state"),
]


def run_tree(src: Path, workdir: Path) -> list[tuple[int, str, str]]:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.pop("CVDISCORD_OUTDIR", None)
    results = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "cvdiscord.cli", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              text=True)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def comparable(path: Path):
    if not path.name.endswith(".manifest.json"):
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("timings_s", None)
    doc.pop("versions", None)
    return doc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
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
                diffs.append(f"{name}: contents differ")
        checked = len(old_files & new_files)
    for line in diffs:
        print(line)
    print(f"{checked} output files and {len(COMMANDS)} commands compared, "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
