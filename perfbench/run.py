#!/usr/bin/env python3
"""Outside-in benchmark of the cvdiscord command line.

One process per workload and one client in a closed loop: each op calls
``cvdiscord.cli.main(argv)`` in-process (edge-cases also runs an analytic
model check), checks every output and deletes it.  Run from the root of a
checkout:

    python3 perfbench/run.py --workload paper-roundtrip --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a JSON report with every metric
named in NOTES.md, per step and workload, plus the machine description.
With ``--trace 1`` the ops alternate between untraced and traced (the
wrappers of tracer.py installed); the per-layer metrics come from the
traced ones and ``trace.overhead_s`` from the difference.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import stats  # noqa: E402

from tracer import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
TRACES = BENCH / "traces"

# A check's chance false-failure rate per op stays at or below this.
FALSE_FAILURE_RATE = 1e-5
# Allowed estimator bias of a peak separation, as a share of the analytic
# value.  At 10^6 records per pair the bin-parabolic peak fit sits
# 1.9 +- 1.1 standard errors (about 1.5%) above the analytic separation
# (12 seeds at depth 4.5), so a pure 5-sigma check would fail about one op
# in 200 by chance.  The measured z-scores are reported as max_abs_z.
PEAK_BIAS = 0.02
# Extra set-ups measured in child processes for the setup_s median.
SETUP_REPEATS = 2


class CheckFailed(Exception):
    """An op's output failed its check, or a command exited non-zero."""


def z_limit(checks: int) -> float:
    """Standard errors allowed per check so that `checks` two-sided normal
    checks fail together with chance at most FALSE_FAILURE_RATE, and never
    fewer than 5."""
    return max(5.0, float(stats.norm.isf(FALSE_FAILURE_RATE / (2 * checks))))


def check_separations(found, expected, sigmas, what: str) -> list[float]:
    """|found - expected| <= z*sigma + PEAK_BIAS*|expected| for every entry;
    returns the z-scores."""
    limit = z_limit(len(found))
    zs = []
    for got, want, sigma in zip(found, expected, sigmas):
        if not abs(got - want) <= limit * sigma + PEAK_BIAS * abs(want):
            raise CheckFailed(f"{what}: separation {got:.6g}, analytic "
                              f"{want:.6g}, sigma {sigma:.3g}")
        zs.append((got - want) / sigma)
    return zs


def gof_pvalue(x1, x2, density, bins: int, subsample: int = 3,
               min_expected: float = 5.0) -> float:
    """Chi-square goodness of fit of 2-D records against a joint density
    on a bins x bins box, expected counts from a subsample x subsample
    midpoint grid per cell; cells under min_expected pool into one."""
    n = len(x1)
    e1 = np.linspace(x1.min() - 1e-9, x1.max() + 1e-9, bins + 1)
    e2 = np.linspace(x2.min() - 1e-9, x2.max() + 1e-9, bins + 1)
    observed = np.histogram2d(x1, x2, bins=[e1, e2])[0].ravel()
    fine = subsample * bins
    f1 = e1[0] + (np.arange(fine) + 0.5) * (e1[-1] - e1[0]) / fine
    f2 = e2[0] + (np.arange(fine) + 0.5) * (e2[-1] - e2[0]) / fine
    g1, g2 = np.meshgrid(f1, f2, indexing="ij")
    dens = np.asarray(density(g1, g2), dtype=float)
    cell = (e1[1] - e1[0]) * (e2[1] - e2[0])
    expected = (dens.reshape(bins, subsample, bins, subsample).mean(axis=(1, 3))
                * cell * n).ravel()
    keep = expected >= min_expected
    obs, exp = observed[keep], expected[keep]
    rest = expected[~keep].sum() + max(0.0, n - expected.sum())
    if rest > min_expected:
        obs = np.append(obs, observed[~keep].sum())
        exp = np.append(exp, rest)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, len(obs) - 1))


CANONICAL = ((0.0, 0.0), (0.0, math.pi / 2), (math.pi / 2, 0.0),
             (math.pi / 2, math.pi / 2))


def _key(theta_a: float, theta_b: float) -> tuple[float, float]:
    return round(theta_a, 9), round(theta_b, 9)


class Workload:
    """One workload: inputs made in prepare(), one untimed op per command
    in warm_up(), and op(i) returning the seconds of each timed step."""

    cycle = 1  # distinct inputs the ops rotate through
    min_ops = 1
    records_per_op = 0

    def __init__(self, lib, seed: int, tracer=None):
        self.lib = lib
        self.seed = seed
        self.tracer = tracer
        self.dir = WORK / f"{self.name}-{os.getpid()}"
        self.out = self.dir / "out"
        self.bytes_per_record = None
        self.zs: list[float] = []

    def op_seed(self, i: int) -> int:
        return random.Random(f"{self.seed}/{i}").randrange(1 << 30)

    def cli(self, *argv: str) -> tuple[float, list[Path]]:
        """Run one command; return its wall time and the paths it printed."""
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.lib.cli.main(list(argv))
        seconds = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}: "
                              f"{stderr.getvalue().strip()}")
        return seconds, [Path(p) for p in stdout.getvalue().splitlines()]

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    @contextlib.contextmanager
    def untraced(self):
        """Benchmark-side library calls (reading records for a check) are
        not part of any layer."""
        op = self.tracer.op if self.tracer else None
        if self.tracer:
            self.tracer.op = None
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.op = op

    def gaussian_separations(self, depth_x: float, depth_p: float,
                             pairs=CANONICAL) -> dict:
        """Analytic peak separation per phase pair of a modulated beam on a
        balanced splitter."""
        states, marginals = self.lib.states, self.lib.marginals
        state = states.split_balanced(states.modulated_beam(depth_x, depth_p))
        return {_key(ta, tb): marginals.analytic_peak_separation(
            marginals.joint_marginal_form(state, ta, tb)) for ta, tb in pairs}

    def check_verdict(self, path: Path, expected: dict) -> dict:
        verdict = json.loads(path.read_text())
        pairs = verdict["pairs"]
        keys = [_key(p["theta_A"], p["theta_B"]) for p in pairs]
        if sorted(keys) != sorted(expected):
            raise CheckFailed(f"verdict pairs {keys}, want {list(expected)}")
        self.zs += check_separations([p["delta"] for p in pairs],
                                     [expected[k] for k in keys],
                                     [p["sigma_delta"] for p in pairs],
                                     f"verify {path.name}")
        return verdict

    def prepare(self) -> None:
        pass


class PaperRoundtrip(Workload):
    name = "paper-roundtrip"
    n = 1_000_000
    records_per_op = 4 * n

    def prepare(self):
        self.expected = self.gaussian_separations(4.5, 4.5)

    def roundtrip(self, n: int, seed: int) -> tuple[float, float, Path, Path]:
        # no --out: the record format is the program's default
        t_sim, printed = self.cli("simulate", "--depth", "4.5", "--n", str(n),
                                  "--seed", str(seed))
        records = printed[0]
        t_ver, printed = self.cli("verify", "--records", str(records),
                                  "--seed", str(seed))
        return t_sim, t_ver, records, printed[0]

    def warm_up(self):
        # a full op takes ~25 s, so the warm-up runs both commands at 10^4
        self.roundtrip(10_000, self.op_seed(-1))

    def op(self, i):
        t_sim, t_ver, records, verdict_path = self.roundtrip(self.n,
                                                             self.op_seed(i))
        self.bytes_per_record = records.stat().st_size / self.records_per_op
        verdict = self.check_verdict(verdict_path, self.expected)
        if verdict["decision"] != "discordant":
            raise CheckFailed("paper-scale verdict is not discordant")
        return {"simulate_s": t_sim, "verify_s": t_ver}


class LabVerify(Workload):
    name = "lab-verify"
    depths = (0.0, 1.0, 2.0, 4.5)
    n = 20_000
    cycle = len(depths)
    min_ops = cycle + 1  # op `cycle` repeats op 0 for the byte check
    records_per_op = 4 * n

    def prepare(self):
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.records = []
        for k, depth in enumerate(self.depths):
            # CSV on purpose: the interchange format
            _, printed = self.cli(
                "simulate", "--depth", str(depth), "--n", str(self.n),
                "--seed", str(self.op_seed(-1 - k)),
                "--out", str(inputs / f"lab-{k}.csv"))
            self.records.append(printed[0])
        self.bytes_per_record = statistics.mean(
            p.stat().st_size for p in self.records) / self.records_per_op
        self.expected = [self.gaussian_separations(d, d) for d in self.depths]
        self.first_bytes = None

    def verify(self, i: int) -> tuple[float, Path]:
        k = i % self.cycle
        seed = self.op_seed(0 if i == self.cycle else i)
        t_ver, printed = self.cli("verify", "--records", str(self.records[k]),
                                  "--seed", str(seed))
        return t_ver, printed[0]

    def warm_up(self):
        self.verify(1)

    def op(self, i):
        t_ver, verdict_path = self.verify(i)
        k = i % self.cycle
        verdict = self.check_verdict(verdict_path, self.expected[k])
        if self.depths[k] == 4.5 and verdict["decision"] != "discordant":
            raise CheckFailed("depth 4.5 verdict is not discordant")
        if i == 0:
            self.first_bytes = verdict_path.read_bytes()
        elif i == self.cycle and verdict_path.read_bytes() != self.first_bytes:
            raise CheckFailed("repeated verify changed the verdict bytes")
        return {"verify_s": t_ver}


class DepthSweep(Workload):
    name = "depth-sweep"
    n = 100_000
    points = 22
    records_per_op = points * n

    def prepare(self):
        self.depths = np.linspace(0.0, 5.0, self.points)
        self.expected = [
            self.gaussian_separations(0.0, d, CANONICAL[3:])[_key(*CANONICAL[3])]
            for d in self.depths]

    def sweep(self, n: int, seed: int) -> tuple[float, Path]:
        t_swp, printed = self.cli("sweep", "--depths", f"0:5:{self.points}",
                                  "--n", str(n), "--seed", str(seed))
        return t_swp, printed[0]

    def warm_up(self):
        self.sweep(self.n, self.op_seed(-1))

    def op(self, i):
        t_swp, path = self.sweep(self.n, self.op_seed(i))
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        # columns: depth, delta, sigma_delta, delta_analytic, n
        if rows.shape != (self.points, 5) or not np.allclose(
                rows[:, 0], self.depths) or np.any(rows[:, 4] != self.n):
            raise CheckFailed(f"sweep table has shape {rows.shape} or wrong "
                              "depths or n")
        if not np.allclose(rows[:, 3], self.expected, rtol=1e-9, atol=1e-12):
            raise CheckFailed("sweep delta_analytic differs from the model")
        self.zs += check_separations(rows[:, 1], self.expected, rows[:, 2],
                                     "sweep")
        return {"sweep_s": t_swp}


class EdgeCases(Workload):
    name = "edge-cases"
    n = 250_000
    records_per_op = n
    gof_bins = 50

    def prepare(self):
        marginals = self.lib.marginals
        self.mixture = marginals.PMixtureState(
            (marginals.ArcsineComponent(1.0, 3.0 / math.sqrt(2.0)),),
            eta=1.0 / math.sqrt(2.0))

    def steps(self, n: int, seed: int, bins: int, check: bool) -> dict:
        t_sim, printed = self.cli("simulate", "--scheme", "async", "--depth",
                                  "3", "--n", str(n), "--seed", str(seed))
        records = printed[0]
        self.bytes_per_record = records.stat().st_size / n
        t_ver, printed = self.cli("verify", "--mode", "mixture", "--records",
                                  str(records), "--seed", str(seed))
        verdict = json.loads(printed[0].read_text())
        with self.untraced():
            rs = self.lib.sampler.read_records(records)
        start = time.perf_counter()
        p_gof = gof_pvalue(rs.x_a, rs.x_b, lambda a, b:
                           self.lib.marginals.output_joint_density(
                               self.mixture, a, b), bins)
        t_grid = time.perf_counter() - start
        t_ce, printed = self.cli("counterexample", "--which", "both")
        report = json.loads(printed[0].read_text())
        if check:
            self.check(verdict, p_gof, report)
        return {"simulate_s": t_sim, "verify_s": t_ver,
                "density_grid_s": t_grid, "counterexample_s": t_ce}

    @staticmethod
    def check(verdict: dict, p_gof: float, report: dict) -> None:
        if verdict["decision"] != "discordant":
            raise CheckFailed("async mixture verdict is not discordant")
        if not p_gof > 1e-6:
            raise CheckFailed(f"async records misfit the arcsine model, "
                              f"p = {p_gof:.3g}")
        zero, hidden = report["zero_discord"], report["hidden_discord"]
        if not (zero["classical_on_B"]
                and abs(zero["peak_separation"] - 2.0) <= 1e-3):
            raise CheckFailed(f"zero_discord report is wrong: {zero}")
        if not (abs(hidden["peak_separation"]) < 1e-9
                and hidden["variance_ratio"] > 1
                and hidden["commutator_norm"] > 0):
            raise CheckFailed(f"hidden_discord report is wrong: {hidden}")

    def warm_up(self):
        # the full density grid takes ~4 s, so the warm-up uses 10 x 10 cells
        self.steps(10_000, self.op_seed(-1), 10, check=False)

    def op(self, i):
        return self.steps(self.n, self.op_seed(i), self.gof_bins, check=True)


WORKLOADS = {w.name: w for w in (PaperRoundtrip, LabVerify, DepthSweep,
                                 EdgeCases)}


def import_library():
    if not (SRC / "cvdiscord" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvdiscord sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvdiscord.cli
    return cvdiscord


def set_up(args, tracer=None):
    """Import, make the inputs and warm up; returns the workload."""
    lib = import_library()
    workload = WORKLOADS[args.workload](lib, args.seed, tracer)
    os.environ["CVDISCORD_OUTDIR"] = str(workload.out)
    workload.clear_outputs()
    workload.prepare()
    workload.warm_up()
    workload.clear_outputs()
    return workload


def child_set_up_seconds(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def tail(values: list[float]):
    """Highest whole percentile with at least 10 samples above it, or None
    when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct / 100 * n)  # nearest rank
    return {"value": sorted(values)[rank - 1], "percentile": pct, "samples": n}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (SRC / "cvdiscord").glob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    workload = set_up(args, tracer)
    setup_own = time.perf_counter() - T_START
    if args.setup_only:
        shutil.rmtree(workload.dir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_own}))
        return 0
    try:
        setups = [setup_own] + [child_set_up_seconds(args)
                                for _ in range(SETUP_REPEATS)]
        result = measure(workload, args, tracer)
    finally:
        shutil.rmtree(workload.dir, ignore_errors=True)
    ops, failures = result
    good = [o for o in ops if o["error"] is None]
    untraced = [o for o in good if not o["traced"]]
    traced = [o for o in good if o["traced"]]
    if not untraced or (tracer and not traced):
        for message in failures[:5]:
            print(f"error: {message}", file=sys.stderr)
        print("error: no untraced or no traced op succeeded", file=sys.stderr)
        return 1
    report, metrics = summarize(workload, args, ops, untraced, traced,
                                setups, tracer)
    report["failures"] = failures[:5]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def measure(workload, args, tracer):
    """Closed loop: the next op starts when the previous one is checked,
    and only if, at the previous op's duration, it would end within
    --seconds.  With a tracer, blocks of `cycle` ops alternate untraced
    and traced."""
    min_ops = max(workload.min_ops, 2 * workload.cycle if tracer else 0)
    ops, failures = [], []
    start = time.perf_counter()
    last = 0.0  # wall time of the previous op, checks included
    i = 0
    while i < min_ops or time.perf_counter() - start + last <= args.seconds:
        op_start = time.perf_counter()
        traced = tracer is not None and (i // workload.cycle) % 2 == 1
        if traced:
            tracer.install()
            tracer.op = i
        steps, error = None, None
        try:
            steps = workload.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"op {i}: {type(exc).__name__}: {exc}"
            failures.append(error)
        finally:
            if traced:
                tracer.op = None
                tracer.uninstall()
            workload.clear_outputs()
        ops.append({"i": i, "traced": traced, "steps": steps, "error": error})
        last = time.perf_counter() - op_start
        i += 1
    return ops, failures


def op_seconds(rows) -> list[float]:
    return [sum(o["steps"].values()) for o in rows]


def summarize(workload, args, ops, untraced, traced, setups, tracer):
    def median_of(rows, key):
        return statistics.median(o["steps"][key] for o in rows)

    failed = len(ops) - len(untraced) - len(traced)
    # The mean, not the median: on a shared machine single-thread speed can
    # switch between a fast and a slow state, and the median of a run jumps
    # with the share of slow ops where the mean moves in proportion (see
    # NOTES.md).
    op_s = statistics.mean(op_seconds(untraced))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {
        "op_s": (op_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "records_per_s": (workload.records_per_op / op_s, "1/s"),
        "bytes_per_record": (workload.bytes_per_record, "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / len(ops), "1"),
    }
    tails = {}
    for key in untraced[0]["steps"]:
        named[key] = (median_of(untraced, key), "s")
        found = tail([o["steps"][key] for o in untraced])
        if found:
            tails[key] = found
            named[key[:-2] + "_tail_s"] = (found["value"], "s")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "ops_untraced": len(untraced),
        "setup_samples_s": setups, "tails": tails,
        "op_median_s": statistics.median(op_seconds(untraced)),
        "op_samples_s": op_seconds(untraced),
        "max_abs_z": max((abs(z) for z in workload.zs), default=None),
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()
                    if v is not None},
    }
    if tracer is None:
        metrics = {k: report["metrics"][k] for k in ("op_s", "setup_s",
                                                     "peak_rss_mb")}
        return report, metrics

    traced_op_s = statistics.mean(op_seconds(traced))
    totals = tracer.totals()
    layers = layer_metrics(totals, len(traced), traced_op_s - op_s)
    report["overhead_per_step_s"] = {
        key: median_of(traced, key) - median_of(untraced, key)
        for key in untraced[0]["steps"]}
    # share of the traced op time per layer; cli.self and states are
    # residues, not layers an optimisation targets
    report["layer_shares"] = {
        k[:-len(".busy_s")]: v / traced_op_s for k, v in layers.items()
        if k.endswith(".busy_s") and not k.startswith(("cli.", "states."))}
    report["largest_layer"] = max(report["layer_shares"],
                                  key=report["layer_shares"].get)
    report["functions"] = {
        name: {k: v / len(traced) for k, v in t.items()}
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["busy_s"])}
    TRACES.mkdir(exist_ok=True)
    spans_path = TRACES / f"{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"ops": [o["i"] for o in traced],
                                      "spans": tracer.spans}))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
               for k, v in layers.items()}
    return report, metrics


if __name__ == "__main__":
    sys.exit(main())
