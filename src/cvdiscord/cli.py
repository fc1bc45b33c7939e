"""Config-driven command line front end.

Four commands: simulate (draw homodyne records for a modulation scheme),
verify (run a discord verdict over a record file), sweep (peak separation
versus modulation depth), counterexample (build and certify the Fock-space
edge cases).  Options come from flags, falling back to a JSON config file
(--config), falling back to defaults.  Every run writes a manifest next to
the primary output with the effective config, library versions, wall-clock
timings and a sha256 of each output file.  Outputs are written atomically;
timings live only in the manifest so the data files are byte-reproducible.

Exit codes: 0 success (whatever the verdict says), 1 bad input or config,
2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ToolkitError, ValidationError
from .fock import (build_ce_hidden_discord, build_ce_zero_discord,
                   commutator_norm, conditional_b_given_sign, default_grid,
                   fock_state_to_json, grid_moments, grid_peak,
                   homodyne_marginal_fock, squeezed_vacuum_fock,
                   superposition_basis, thermal_fock, verify_classical_on_b)
from .sampler import (SWITCHED_PHASE_AMPLITUDE, AsyncSine, GaussianModulation,
                      RecordSet, SimulationConfig, SwitchedNoise,
                      SwitchedPhase, concat_records, read_records,
                      sample_scheme, scheme_to_dict, write_records)
from .verifier import (estimate_density, split_by_threshold, sweep_modulation,
                       sweep_to_csv, verdict_gaussian, verdict_mixture,
                       mixture_verdict_to_json, verdict_to_json)

CANONICAL_PAIRS_DEG = ((0.0, 0.0), (0.0, 90.0), (90.0, 0.0), (90.0, 90.0))

_DEFAULTS = {
    "simulate": {
        "scheme": "gaussian",
        "depth": None,
        "depth_x": None,
        "depth_p": None,
        "duty": 0.5,
        "amplitude": None,
        "n": 100000,
        "seed": 0,
        "eta": 1.0 / math.sqrt(2.0),
        "theta_a": 0.0,
        "theta_b": 0.0,
        "pairs": None,
        "v0": 1.0,
        "workers": None,
        "out": "records.npz",
    },
    "verify": {
        "records": None,
        "mode": "gaussian",
        "threshold": 0.0,
        "k_min": 3.0,
        "alpha": 0.05,
        "seed": 0,
        "boot": 200,
        "pairs": "all",
        "out": "verdict.json",
        "plotdata": None,
    },
    "sweep": {
        "depths": "0:5:22",
        "n": 100000,
        "seed": 0,
        "eta": 1.0 / math.sqrt(2.0),
        "v0": 1.0,
        "workers": None,
        "out": "sweep.csv",
    },
    "counterexample": {
        "which": "both",
        "alpha": 1.0,
        "nbar": 1.0,
        "r": 0.5,
        "v0": 1.0,
        "out": "counterexample.json",
        "plotdata": None,
        "dump_state": None,
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is a validation failure, exit 1
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvdiscord",
                     description="Discord verification for homodyne records")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], description=(
        "Draw homodyne records.  The gaussian scheme simulates all four "
        "canonical phase pairs by default (n records each, per-pair seeds "
        "seed, seed+1, ...); other schemes use a single pair."))
    sim.add_argument("--config", type=Path)
    sim.add_argument("--scheme", choices=["gaussian", "switched-noise",
                                          "switched-phase", "async"])
    sim.add_argument("--depth", type=float,
                     help="modulation depth for both quadratures")
    sim.add_argument("--depth-x", type=float, dest="depth_x")
    sim.add_argument("--depth-p", type=float, dest="depth_p")
    sim.add_argument("--duty", type=float, help="gate duty cycle in (0, 1]")
    sim.add_argument("--amplitude", type=float,
                     help="switched-phase displacement in sqrt(v0) units")
    sim.add_argument("--n", type=int, help="records per phase pair")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--eta", type=float, help="splitter transmissivity")
    sim.add_argument("--theta-a", type=float, dest="theta_a",
                     help="station A phase, degrees")
    sim.add_argument("--theta-b", type=float, dest="theta_b",
                     help="station B phase, degrees")
    sim.add_argument("--pairs",
                     help='"all" or "ta,tb;ta,tb;..." in degrees')
    sim.add_argument("--v0", type=float)
    sim.add_argument("--workers", type=int)
    sim.add_argument("--out", type=Path,
                     help="record file: .npz (the default, records.npz) is "
                          "binary, any other suffix is CSV")

    ver = sub.add_parser("verify", description=(
        "Run a discord verdict over a record file."))
    ver.add_argument("--config", type=Path)
    ver.add_argument("--records", type=Path,
                     help="record file: .npz is binary, any other suffix "
                          "is read as CSV")
    ver.add_argument("--mode", choices=["gaussian", "mixture"])
    ver.add_argument("--threshold", type=float)
    ver.add_argument("--k-min", type=float, dest="k_min")
    ver.add_argument("--alpha", type=float,
                     help="mixture-mode significance level")
    ver.add_argument("--seed", type=int, help="bootstrap seed")
    ver.add_argument("--boot", type=int, help="bootstrap replicates")
    ver.add_argument("--pairs",
                     help='"all" or "ta,tb;..." in degrees (gaussian mode)')
    ver.add_argument("--out", type=Path)
    ver.add_argument("--plotdata", type=Path,
                     help="write aligned density curves here")

    swp = sub.add_parser("sweep", description=(
        "Peak separation versus modulation depth on a balanced splitter."))
    swp.add_argument("--config", type=Path)
    swp.add_argument("--depths",
                     help='"a:b:n" for n evenly spaced values, or a comma list')
    swp.add_argument("--n", type=int)
    swp.add_argument("--seed", type=int)
    swp.add_argument("--eta", type=float)
    swp.add_argument("--v0", type=float)
    swp.add_argument("--workers", type=int)
    swp.add_argument("--out", type=Path)

    ce = sub.add_parser("counterexample", description=(
        "Build and certify the Fock-space edge cases."))
    ce.add_argument("--config", type=Path)
    ce.add_argument("--which", choices=["zero", "hidden", "both"])
    ce.add_argument("--alpha", type=float, help="coherent amplitude")
    ce.add_argument("--nbar", type=float)
    ce.add_argument("--r", type=float, help="squeeze parameter")
    ce.add_argument("--v0", type=float)
    ce.add_argument("--out", type=Path)
    ce.add_argument("--plotdata", type=Path,
                    help="prefix for marginal curve CSVs")
    ce.add_argument("--dump-state", type=Path, dest="dump_state",
                    help="prefix for density-matrix JSON dumps")
    return parser


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _effective_config(args: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[args.command]
    eff = dict(defaults)
    if getattr(args, "config", None) is not None:
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise ValidationError(f"no such config file: {cfg_path}")
        try:
            doc = json.loads(cfg_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad config JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        for key, value in doc.items():
            if key not in defaults:
                raise ValidationError(
                    f"unknown config key {key!r} for {args.command}"
                )
            eff[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    return eff


def _resolve_out(path) -> Path:
    path = Path(path)
    outdir = os.environ.get("CVDISCORD_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _atomic(path: Path):
    """Yield a temp path in the same directory; replace on success.  The
    temp name keeps the destination's suffix (records.tmp.npz), because
    write_records picks the file format from the suffix."""
    tmp = path.with_name(f"{path.stem}.tmp{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_text(path: Path, text: str) -> None:
    with _atomic(path) as tmp:
        tmp.write_text(text)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("cvdiscord")
    except Exception:
        return "unknown"


def _write_manifest(primary_out: Path, command: str, config: dict,
                    outputs: list[Path], timings: dict) -> Path:
    import scipy
    manifest_path = primary_out.with_suffix(".manifest.json")
    jsonable = {
        k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()
    }
    doc = {
        "command": command,
        "config": jsonable,
        "seed": jsonable.get("seed"),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cvdiscord": _package_version(),
        },
        "timings_s": timings,
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    _atomic_text(manifest_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def parse_depths(text: str) -> np.ndarray:
    """Depth list: "a:b:n" means n evenly spaced values from a to b
    inclusive; otherwise a comma-separated list."""
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad depth range {text!r}, want a:b:n")
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"bad depth range {text!r}") from exc
        if n < 1:
            raise ValidationError("depth range needs at least one point")
        return np.linspace(a, b, n)
    try:
        return np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ValidationError(f"bad depth list {text!r}") from exc


def parse_pairs(text: str) -> list[tuple[float, float]]:
    """Phase pairs in degrees: "all" or "ta,tb;ta,tb;...". Returns radians."""
    if text == "all":
        return [(math.radians(a), math.radians(b))
                for a, b in CANONICAL_PAIRS_DEG]
    pairs = []
    for chunk in str(text).split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValidationError(f"bad phase pair {chunk!r}, want ta,tb")
        try:
            pairs.append((math.radians(float(parts[0])),
                          math.radians(float(parts[1]))))
        except ValueError as exc:
            raise ValidationError(f"bad phase pair {chunk!r}") from exc
    if not pairs:
        raise ValidationError("no phase pairs given")
    return pairs


def _pick(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _build_scheme(cfg: dict):
    kind = cfg["scheme"]
    if kind == "gaussian":
        depth_x = _pick(cfg["depth_x"], cfg["depth"], 0.0)
        depth_p = _pick(cfg["depth_p"], cfg["depth"], 0.0)
        return GaussianModulation(depth_x, depth_p)
    if kind == "switched-noise":
        depth_x = _pick(cfg["depth_x"], cfg["depth"], 0.0)
        depth_p = _pick(cfg["depth_p"], cfg["depth"], 0.0)
        return SwitchedNoise(depth_x, depth_p, cfg["duty"])
    if kind == "switched-phase":
        amp = _pick(cfg["amplitude"], SWITCHED_PHASE_AMPLITUDE)
        return SwitchedPhase(amp, cfg["duty"])
    if kind == "async":
        depth = _pick(cfg["depth"], 1.0)
        return AsyncSine(depth)
    raise ValidationError(f"unknown scheme {kind!r}")


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def emit_plotdata(rs: RecordSet, threshold: float, path: Path) -> None:
    """Aligned density curves of the B outcome: unconditional, both
    sign-conditioned sides, and a Gaussian of the overall mean and the
    average of the two conditional variances (the reference curve a
    Gaussian mixture would have to match)."""
    if len(rs) == 0:
        raise ValidationError("no records to plot")
    plus, minus = split_by_threshold(rs, threshold)
    hist_all = estimate_density(rs)
    edges = hist_all.edges
    hist_p = estimate_density(plus, edges=edges)
    hist_m = estimate_density(minus, edges=edges)
    x = hist_all.centers
    mean = float(rs.x_b.mean())
    avg_var = 0.5 * (float(plus.x_b.var()) + float(minus.x_b.var()))
    ref = np.exp(-((x - mean) ** 2) / (2.0 * avg_var)) / math.sqrt(
        2.0 * math.pi * avg_var)
    cols = np.column_stack([x, hist_all.density(), hist_p.density(),
                            hist_m.density(), ref])
    with _atomic(path) as tmp:
        np.savetxt(
            tmp, cols, fmt="%.17g", delimiter=",",
            header="x,unconditional,conditional_plus,conditional_minus,"
                   "gaussian_reference",
            comments="")


def _fock_curves_csv(grid, curves: dict, path: Path) -> None:
    names = list(curves)
    cols = np.column_stack([grid.points] + [curves[n] for n in names])
    with _atomic(path) as tmp:
        np.savetxt(tmp, cols, fmt="%.17g", delimiter=",",
                   header=",".join(["x"] + names), comments="")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> tuple[Path, list[Path], dict]:
    scheme = _build_scheme(cfg)
    if cfg["pairs"] is not None:
        pairs = parse_pairs(cfg["pairs"])
    elif cfg["scheme"] == "gaussian":
        pairs = parse_pairs("all")
    else:
        pairs = [(math.radians(cfg["theta_a"]), math.radians(cfg["theta_b"]))]
    t0 = time.perf_counter()
    parts = []
    for i, (ta, tb) in enumerate(pairs):
        sim = SimulationConfig(scheme=scheme, n_samples=cfg["n"],
                               seed=cfg["seed"] + i, eta=cfg["eta"],
                               theta_a=ta, theta_b=tb, v0=cfg["v0"])
        parts.append(sample_scheme(sim, workers=cfg["workers"]))
    rs = concat_records(parts, meta={
        "kind": "scheme",
        "scheme": scheme_to_dict(scheme),
        "eta": cfg["eta"],
        "pairs": [[ta, tb] for ta, tb in pairs],
        "n_per_pair": cfg["n"],
        "seed": cfg["seed"],
        "v0": cfg["v0"],
    })
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    with _atomic(out) as tmp:
        write_records(rs, tmp, sidecar=False)
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    _atomic_text(sidecar, json.dumps(rs.meta, indent=2, sort_keys=True) + "\n")
    t2 = time.perf_counter()
    timings = {"sample_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, [out, sidecar], timings


def _cmd_verify(cfg: dict) -> tuple[Path, list[Path], dict]:
    if cfg["records"] is None:
        raise ValidationError("verify needs --records")
    t0 = time.perf_counter()
    rs = read_records(cfg["records"])
    if cfg["mode"] == "gaussian":
        pairs = parse_pairs(cfg["pairs"])
        verdict = verdict_gaussian(rs, threshold=cfg["threshold"],
                                   k_min=cfg["k_min"], seed=cfg["seed"],
                                   n_boot=cfg["boot"], pairs=pairs)
        text = verdict_to_json(verdict)
    else:
        verdict = verdict_mixture(rs, threshold=cfg["threshold"],
                                  alpha=cfg["alpha"], seed=cfg["seed"],
                                  n_boot=cfg["boot"])
        text = mixture_verdict_to_json(verdict)
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    _atomic_text(out, text + "\n")
    outputs = [out]
    if cfg["plotdata"] is not None:
        plot_path = _resolve_out(cfg["plotdata"])
        plot_rs = rs
        if cfg["mode"] == "gaussian":
            first = rs.select_pair(*parse_pairs(cfg["pairs"])[0])
            if len(first):
                plot_rs = first
        emit_plotdata(plot_rs, cfg["threshold"], plot_path)
        outputs.append(plot_path)
    t2 = time.perf_counter()
    timings = {"verify_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, outputs, timings


def _cmd_sweep(cfg: dict) -> tuple[Path, list[Path], dict]:
    depths = parse_depths(cfg["depths"])
    t0 = time.perf_counter()
    rows = sweep_modulation(depths, n=cfg["n"], seed=cfg["seed"],
                            eta=cfg["eta"], v0=cfg["v0"],
                            workers=cfg["workers"])
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    with _atomic(out) as tmp:
        sweep_to_csv(rows, tmp)
    t2 = time.perf_counter()
    timings = {"sweep_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, [out], timings


def _certify_zero(cfg: dict) -> tuple[dict, dict]:
    state = build_ce_zero_discord(alpha=cfg["alpha"], v0=cfg["v0"])
    basis = superposition_basis(state.dim_b)
    classical = verify_classical_on_b(state, basis, tol=1e-8)
    rho_p, p_plus = conditional_b_given_sign(state, +1)
    rho_m, p_minus = conditional_b_given_sign(state, -1)
    grid = default_grid(state.dim_b, state.v0)
    dens_p = homodyne_marginal_fock(rho_p, grid)
    dens_m = homodyne_marginal_fock(rho_m, grid)
    dens_all = homodyne_marginal_fock(state.reduced_b(), grid)
    peak_p = grid_peak(grid, dens_p)
    peak_m = grid_peak(grid, dens_m)
    report = {
        "alpha": cfg["alpha"],
        "dim_A": state.dim_a,
        "dim_B": state.dim_b,
        "classical_on_B": bool(classical),
        "p_plus": p_plus,
        "p_minus": p_minus,
        "peak_plus": peak_p,
        "peak_minus": peak_m,
        "peak_separation": peak_p - peak_m,
    }
    curves = {"grid": grid, "unconditional": dens_all,
              "conditional_plus": dens_p, "conditional_minus": dens_m,
              "state": state}
    return report, curves


def _certify_hidden(cfg: dict) -> tuple[dict, dict]:
    state = build_ce_hidden_discord(nbar=cfg["nbar"], r=cfg["r"],
                                    v0=cfg["v0"])
    rho_p, p_plus = conditional_b_given_sign(state, +1)
    rho_m, p_minus = conditional_b_given_sign(state, -1)
    grid = default_grid(state.dim_b, state.v0)
    dens_p = homodyne_marginal_fock(rho_p, grid)
    dens_m = homodyne_marginal_fock(rho_m, grid)
    dens_all = homodyne_marginal_fock(state.reduced_b(), grid)
    peak_p = grid_peak(grid, dens_p)
    peak_m = grid_peak(grid, dens_m)
    _, var_p = grid_moments(grid, dens_p)
    _, var_m = grid_moments(grid, dens_m)
    thermal = thermal_fock(cfg["nbar"], state.dim_b)
    squeezed = np.outer(squeezed_vacuum_fock(cfg["r"], state.dim_b),
                        squeezed_vacuum_fock(cfg["r"], state.dim_b).conj())
    report = {
        "nbar": cfg["nbar"],
        "r": cfg["r"],
        "dim_A": state.dim_a,
        "dim_B": state.dim_b,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "peak_plus": peak_p,
        "peak_minus": peak_m,
        "peak_separation": peak_p - peak_m,
        "variance_plus": var_p,
        "variance_minus": var_m,
        "variance_ratio": max(var_p, var_m) / min(var_p, var_m),
        "commutator_norm": commutator_norm(thermal, squeezed),
    }
    curves = {"grid": grid, "unconditional": dens_all,
              "conditional_plus": dens_p, "conditional_minus": dens_m,
              "state": state}
    return report, curves


def _cmd_counterexample(cfg: dict) -> tuple[Path, list[Path], dict]:
    t0 = time.perf_counter()
    report = {}
    curve_sets = {}
    if cfg["which"] in ("zero", "both"):
        report["zero_discord"], curve_sets["zero"] = _certify_zero(cfg)
    if cfg["which"] in ("hidden", "both"):
        report["hidden_discord"], curve_sets["hidden"] = _certify_hidden(cfg)
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    _atomic_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs = [out]
    if cfg["plotdata"] is not None:
        prefix = _resolve_out(cfg["plotdata"])
        for name, curves in curve_sets.items():
            path = prefix.with_name(f"{prefix.name}_{name}.csv")
            _fock_curves_csv(curves["grid"], {
                "unconditional": curves["unconditional"],
                "conditional_plus": curves["conditional_plus"],
                "conditional_minus": curves["conditional_minus"],
            }, path)
            outputs.append(path)
    if cfg["dump_state"] is not None:
        prefix = _resolve_out(cfg["dump_state"])
        for name, curves in curve_sets.items():
            path = prefix.with_name(f"{prefix.name}_{name}.json")
            _atomic_text(path, fock_state_to_json(curves["state"]) + "\n")
            outputs.append(path)
    t2 = time.perf_counter()
    timings = {"build_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, outputs, timings


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _effective_config(args)
        primary, outputs, timings = _COMMANDS[args.command](cfg)
        manifest = _write_manifest(primary, args.command, cfg, outputs,
                                   timings)
        for path in outputs + [manifest]:
            print(path)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # I/O, numpy, anything unforeseen
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
