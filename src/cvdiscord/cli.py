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
from .marginals import density_curve_to_csv
from .sampler import (SWITCHED_PHASE_AMPLITUDE, AsyncSine, GaussianModulation,
                      SimulationConfig, SwitchedNoise, SwitchedPhase,
                      concat_records, read_records, sample_scheme,
                      scheme_to_dict, write_records)
from .verifier import (CANONICAL_PAIRS, ConditionalHistograms,
                       sweep_modulation, sweep_to_csv, verdict_gaussian,
                       verdict_mixture, mixture_verdict_to_json,
                       verdict_to_json)

# --scheme name -> builder of the modulation scheme from the effective config
_SCHEMES = {
    "gaussian": lambda cfg: GaussianModulation(*_noise_depths(cfg)),
    "switched-noise": lambda cfg: SwitchedNoise(*_noise_depths(cfg), cfg["duty"]),
    "switched-phase": lambda cfg: SwitchedPhase(
        _pick(cfg["amplitude"], SWITCHED_PHASE_AMPLITUDE), cfg["duty"]),
    "async": lambda cfg: AsyncSine(_pick(cfg["depth"], 1.0)),
}

# command -> option -> (default, argparse keywords).  Each option is both
# the flag --<option, with - for _> and the config-file key <option>.
_OPTIONS = {
    "simulate": {
        "scheme": ("gaussian", {"choices": list(_SCHEMES)}),
        "depth": (None, {"type": float, "help": "modulation depth for both quadratures"}),
        "depth_x": (None, {"type": float}),
        "depth_p": (None, {"type": float}),
        "duty": (0.5, {"type": float, "help": "gate duty cycle in (0, 1]"}),
        "amplitude": (None, {"type": float, "help": "switched-phase displacement "
                             "in sqrt(v0) units"}),
        "n": (100000, {"type": int, "help": "records per phase pair"}),
        "seed": (0, {"type": int}),
        "eta": (1.0 / math.sqrt(2.0), {"type": float, "help": "splitter transmissivity"}),
        "theta_a": (0.0, {"type": float, "help": "station A phase, degrees"}),
        "theta_b": (0.0, {"type": float, "help": "station B phase, degrees"}),
        "pairs": (None, {"help": '"all" or "ta,tb;ta,tb;..." in degrees'}),
        "v0": (1.0, {"type": float}),
        "workers": (None, {"type": int, "help": "accepted; has no effect"}),
        "out": ("records.npz", {"type": Path, "help": "record file: .npz (the "
                                "default, records.npz) is binary, any other "
                                "suffix is CSV"}),
    },
    "verify": {
        "records": (None, {"type": Path, "help": "record file: .npz is binary, "
                           "any other suffix is read as CSV"}),
        "mode": ("gaussian", {"choices": ["gaussian", "mixture"]}),
        "threshold": (0.0, {"type": float}),
        "k_min": (3.0, {"type": float}),
        "alpha": (0.05, {"type": float, "help": "mixture-mode significance level"}),
        "seed": (0, {"type": int, "help": "bootstrap seed"}),
        "boot": (200, {"type": int, "help": "bootstrap replicates"}),
        "pairs": ("all", {"help": '"all" or "ta,tb;..." in degrees (gaussian mode)'}),
        "out": ("verdict.json", {"type": Path}),
        "plotdata": (None, {"type": Path, "help": "write aligned density curves here"}),
    },
    "sweep": {
        "depths": ("0:5:22", {"help": '"a:b:n" for n evenly spaced values, or a '
                              'comma list'}),
        "n": (100000, {"type": int}),
        "seed": (0, {"type": int}),
        "eta": (1.0 / math.sqrt(2.0), {"type": float}),
        "v0": (1.0, {"type": float}),
        "workers": (None, {"type": int, "help": "accepted; has no effect"}),
        "out": ("sweep.csv", {"type": Path}),
    },
    "counterexample": {
        "which": ("both", {"choices": ["zero", "hidden", "both"]}),
        "alpha": (1.0, {"type": float, "help": "coherent amplitude"}),
        "nbar": (1.0, {"type": float}),
        "r": (0.5, {"type": float, "help": "squeeze parameter"}),
        "v0": (1.0, {"type": float}),
        "out": ("counterexample.json", {"type": Path}),
        "plotdata": (None, {"type": Path, "help": "prefix for marginal curve CSVs"}),
        "dump_state": (None, {"type": Path, "help": "prefix for density-matrix "
                              "JSON dumps"}),
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad usage is a validation failure, exit 1
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvdiscord",
                     description="Discord verification for homodyne records")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        cmd = sub.add_parser(command, description=run.__doc__)
        cmd.add_argument("--config", type=Path)
        for key, (_, kwargs) in _OPTIONS[command].items():
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _effective_config(args: argparse.Namespace) -> dict:
    options = _OPTIONS[args.command]
    eff = {key: default for key, (default, _) in options.items()}
    if args.config is not None:
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
            if key not in options:
                raise ValidationError(
                    f"unknown config key {key!r} for {args.command}"
                )
            choices = options[key][1].get("choices")
            if choices is not None and value not in choices:
                raise ValidationError(f"config key {key!r}: invalid choice: "
                                      f"{value!r} (choose from {choices})")
            eff[key] = value
    for key in options:
        value = getattr(args, key)
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
        return list(CANONICAL_PAIRS)
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


def _noise_depths(cfg: dict) -> tuple[float, float]:
    return (_pick(cfg["depth_x"], cfg["depth"], 0.0),
            _pick(cfg["depth_p"], cfg["depth"], 0.0))


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def emit_plotdata(hists: ConditionalHistograms, path: Path) -> None:
    """Aligned density curves of the B outcome from a verdict's histograms:
    unconditional, both sign-conditioned sides, and a Gaussian of the
    overall mean and the average of the two conditional variances (the
    reference curve a Gaussian mixture would have to match)."""
    x = hists.whole.centers
    avg_var = 0.5 * (hists.var_plus + hists.var_minus)
    ref = np.exp(-((x - hists.mean) ** 2) / (2.0 * avg_var)) / math.sqrt(
        2.0 * math.pi * avg_var)
    curves = {"unconditional": hists.whole.density(),
              "conditional_plus": hists.plus.density(),
              "conditional_minus": hists.minus.density(),
              "gaussian_reference": ref}
    with _atomic(path) as tmp:
        density_curve_to_csv(tmp, x, curves)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> tuple[Path, list[Path], dict]:
    """Draw homodyne records.  The gaussian scheme simulates all four
    canonical phase pairs by default (n records each, per-pair seeds seed,
    seed+1, ...); other schemes use a single pair."""
    scheme = _SCHEMES[cfg["scheme"]](cfg)
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
        parts.append(sample_scheme(sim))
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
    """Run a discord verdict over a record file."""
    if cfg["records"] is None:
        raise ValidationError("verify needs --records")
    t0 = time.perf_counter()
    rs = read_records(cfg["records"])
    if cfg["mode"] == "gaussian":
        pairs = parse_pairs(cfg["pairs"])
        verdict = verdict_gaussian(rs, threshold=cfg["threshold"],
                                   k_min=cfg["k_min"], seed=cfg["seed"],
                                   n_boot=cfg["boot"], pairs=pairs)
        hists = verdict.per_pair[0].hists
        text = verdict_to_json(verdict)
    else:
        verdict = verdict_mixture(rs, threshold=cfg["threshold"],
                                  alpha=cfg["alpha"], seed=cfg["seed"],
                                  n_boot=cfg["boot"])
        hists = verdict.hists
        text = mixture_verdict_to_json(verdict)
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    _atomic_text(out, text + "\n")
    outputs = [out]
    if cfg["plotdata"] is not None:
        plot_path = _resolve_out(cfg["plotdata"])
        emit_plotdata(hists, plot_path)
        outputs.append(plot_path)
    t2 = time.perf_counter()
    timings = {"verify_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, outputs, timings


def _cmd_sweep(cfg: dict) -> tuple[Path, list[Path], dict]:
    """Peak separation versus modulation depth on a balanced splitter."""
    depths = parse_depths(cfg["depths"])
    t0 = time.perf_counter()
    rows = sweep_modulation(depths, n=cfg["n"], seed=cfg["seed"],
                            eta=cfg["eta"], v0=cfg["v0"])
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    with _atomic(out) as tmp:
        sweep_to_csv(rows, tmp)
    t2 = time.perf_counter()
    timings = {"sweep_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
    return out, [out], timings


def _sign_report(state) -> tuple:
    """Condition B on the sign of A's x outcome and locate the peaks of the
    two conditional homodyne marginals of B on the default grid; returns
    the report, the grid and the marginals in plot-file column order."""
    rho_p, p_plus = conditional_b_given_sign(state, +1)
    rho_m, p_minus = conditional_b_given_sign(state, -1)
    grid = default_grid(state.dim_b, state.v0)
    dens_p = homodyne_marginal_fock(rho_p, grid)
    dens_m = homodyne_marginal_fock(rho_m, grid)
    peak_p = grid_peak(grid, dens_p)
    peak_m = grid_peak(grid, dens_m)
    report = {
        "dim_A": state.dim_a,
        "dim_B": state.dim_b,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "peak_plus": peak_p,
        "peak_minus": peak_m,
        "peak_separation": peak_p - peak_m,
    }
    curves = {"unconditional": homodyne_marginal_fock(state.reduced_b(), grid),
              "conditional_plus": dens_p, "conditional_minus": dens_m}
    return report, grid, curves


def _certify_zero(cfg: dict) -> tuple:
    state = build_ce_zero_discord(alpha=cfg["alpha"], v0=cfg["v0"])
    report, grid, curves = _sign_report(state)
    classical = verify_classical_on_b(state, superposition_basis(state.dim_b),
                                      tol=1e-8)
    report.update(alpha=cfg["alpha"], classical_on_B=bool(classical))
    return report, state, grid, curves


def _certify_hidden(cfg: dict) -> tuple:
    state = build_ce_hidden_discord(nbar=cfg["nbar"], r=cfg["r"],
                                    v0=cfg["v0"])
    report, grid, curves = _sign_report(state)
    _, var_p = grid_moments(grid, curves["conditional_plus"])
    _, var_m = grid_moments(grid, curves["conditional_minus"])
    squeezed = squeezed_vacuum_fock(cfg["r"], state.dim_b)
    report.update(
        nbar=cfg["nbar"],
        r=cfg["r"],
        variance_plus=var_p,
        variance_minus=var_m,
        variance_ratio=max(var_p, var_m) / min(var_p, var_m),
        commutator_norm=commutator_norm(thermal_fock(cfg["nbar"], state.dim_b),
                                        np.outer(squeezed, squeezed.conj())),
    )
    return report, state, grid, curves


def _cmd_counterexample(cfg: dict) -> tuple[Path, list[Path], dict]:
    """Build and certify the Fock-space edge cases."""
    t0 = time.perf_counter()
    cases = {}
    if cfg["which"] in ("zero", "both"):
        cases["zero"] = _certify_zero(cfg)
    if cfg["which"] in ("hidden", "both"):
        cases["hidden"] = _certify_hidden(cfg)
    report = {f"{name}_discord": case[0] for name, case in cases.items()}
    t1 = time.perf_counter()
    out = _resolve_out(cfg["out"])
    _atomic_text(out, json.dumps(report, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")
    outputs = [out]
    if cfg["plotdata"] is not None:
        prefix = _resolve_out(cfg["plotdata"])
        for name, (_, _, grid, curves) in cases.items():
            path = prefix.with_name(f"{prefix.name}_{name}.csv")
            with _atomic(path) as tmp:
                density_curve_to_csv(tmp, grid.points, curves)
            outputs.append(path)
    if cfg["dump_state"] is not None:
        prefix = _resolve_out(cfg["dump_state"])
        for name, (_, state, _, _) in cases.items():
            path = prefix.with_name(f"{prefix.name}_{name}.json")
            _atomic_text(path, fock_state_to_json(state) + "\n")
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
