"""Config-driven command line front end.

Four commands: simulate (draw homodyne records for a modulation scheme),
verify (run a discord verdict over a record file), sweep (peak separation
versus modulation depth), counterexample (build and certify the Fock-space
edge cases).  Options come from flags, falling back to a JSON config file
(--config), falling back to defaults.  Before anything is computed, main
checks that each output is a file name of its own that names no input.
It writes every output and a manifest <primary output>.manifest.json,
with the effective config, library versions, wall-clock timings and a
sha256 of each output file, to temp files, and makes missing directories
and puts the outputs in place once all are written, so a command that
fails leaves no output and no directory.
Timings live only in the manifest so the data files are byte-reproducible.
A record file's provenance is this module's alone: simulate writes it to a
sidecar <records>.meta.json, and verify copies it into the verdict.

Exit codes: 0 success (whatever the verdict says), 1 bad input or config,
2 runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
import types
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ParseError, ValidationError, dump_document, require_finite,
                     write_table)
from .fock import (build_ce_hidden_discord, build_ce_zero_discord,
                   commutator_norm, condition_b_on_sign, default_grid,
                   fock_state_to_json, homodyne_marginal_fock, marginal_peak,
                   quadrature_moments, superposition_basis,
                   verify_classical_on_b)
from .sampler import (SWITCHED_PHASE_AMPLITUDE, AsyncSine, SwitchedNoise,
                      SwitchedPhase, _check_duty, _check_seed, read_records,
                      sample_gaussian, sample_scheme, write_records)
from .states import apply_beam_splitter, modulated_beam, tensor, vacuum_single
from .verifier import (BOOTSTRAP_DEFAULT, CANONICAL_PAIRS, CHI2_ALPHA,
                       K_MIN_DEFAULT, ConditionalHistograms, _check_settings,
                       sweep_modulation, sweep_to_csv, verdict_gaussian,
                       verdict_mixture, mixture_verdict_to_json,
                       verdict_to_json)

# --scheme name -> builder of the modulation scheme from the effective
# config, for each scheme but gaussian, whose records are a Gaussian state's
_MIXTURES = {
    "switched-noise": lambda cfg: SwitchedNoise(*_noise_depths(cfg), cfg["duty"]),
    "switched-phase": lambda cfg: SwitchedPhase(
        _pick(cfg["amplitude"], SWITCHED_PHASE_AMPLITUDE), cfg["duty"]),
    "async": lambda cfg: AsyncSine(_pick(cfg["depth"], 1.0)),
}

# a record file's JSON provenance sidecar is <file><META_SUFFIX>
META_SUFFIX = ".meta.json"

# command -> option -> (default, argparse keywords).  Each option is both
# the flag --<option, with - for _> and the config-file key <option>.
_OPTIONS = {
    "simulate": {
        "scheme": ("gaussian", {"choices": ["gaussian", *_MIXTURES]}),
        "depth": (None, {"type": float, "help": "modulation depth for both quadratures"}),
        "depth_x": (None, {"type": float}),
        "depth_p": (None, {"type": float}),
        "duty": (0.5, {"type": float, "help": "gate duty cycle in (0, 1]"}),
        "amplitude": (None, {"type": float, "help": "switched-phase displacement "
                             "in shot-noise units"}),
        "n": (100000, {"type": int, "help": "records per phase pair"}),
        "seed": (0, {"type": int}),
        "eta": (1.0 / math.sqrt(2.0), {"type": float, "help": "splitter transmissivity"}),
        "pairs": (None, {"help": '"all" or "ta,tb;ta,tb;..." in degrees '
                         '(default "all" for gaussian, else "0,0")'}),
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
        "k_min": (K_MIN_DEFAULT, {"type": float}),
        "alpha": (CHI2_ALPHA, {"type": float,
                               "help": "mixture-mode significance level"}),
        "seed": (0, {"type": int, "help": "bootstrap seed (gaussian mode; a "
                     "mixture verdict does not depend on it)"}),
        "boot": (BOOTSTRAP_DEFAULT, {"type": int, "help": "bootstrap replicates, "
                                     "at least 2 (gaussian mode; a mixture "
                                     "verdict does not depend on it)"}),
        "pairs": ("all", {"help": '"all" or "ta,tb;..." in degrees (gaussian mode)'}),
        "out": ("verdict.json", {"type": Path}),
        "plotdata": (None, {"type": Path, "help": "write aligned density curves here"}),
    },
    "sweep": {
        "depths": ("0:5:22", {"help": '"a:b:n" for n evenly spaced values, or a '
                              'comma list'}),
        "n": (100000, {"type": int}),
        "seed": (0, {"type": int}),
        "workers": (None, {"type": int, "help": "accepted; has no effect"}),
        "out": ("sweep.csv", {"type": Path}),
    },
    "counterexample": {
        "which": ("both", {"choices": ["zero", "hidden", "both"]}),
        "alpha": (1.0, {"type": float, "help": "coherent amplitude"}),
        "nbar": (1.0, {"type": float}),
        "r": (0.5, {"type": float, "help": "squeeze parameter"}),
        "out": ("counterexample.json", {"type": Path}),
        "plotdata": (None, {"type": Path, "help": "prefix for marginal curve CSVs"}),
        "dump_state": (None, {"type": Path, "help": "prefix for density-matrix "
                              "JSON dumps"}),
    },
}


def _negative_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a token after a flag as its value, not as a flag,
        # when this matches it; its own pattern knows only -12 and -1.5,
        # this one any negative float (-1e3, -inf)
        self._negative_number_matcher = types.SimpleNamespace(
            match=_negative_float)

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


def _read_object(path: Path, what: str) -> dict:
    """The JSON object in the file at path.  A file that cannot be read,
    bytes that are not UTF-8, bad JSON, any other JSON value, and a number
    that is not finite (NaN, Infinity, 1e999), which no strict JSON output
    can copy, are a ParseError "bad <what> <path>: ..."."""
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {text}")
        return value

    try:
        doc = json.loads(path.read_text(), parse_float=finite,
                         parse_constant=finite)
    except (OSError, ValueError) as exc:  # a directory, bad JSON or UTF-8
        raise ParseError(f"bad {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"bad {what} {path}: must be a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


# the JSON values a config key may take for its flag's argparse type, and
# their name; a Path or untyped flag takes a string
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer")}


def _effective_config(args: argparse.Namespace) -> dict:
    options = _OPTIONS[args.command]
    eff = {key: default for key, (default, _) in options.items()}
    if args.config is not None:
        # a config value has its flag's choices or type, and null leaves
        # the option at its default
        for key, value in _read_object(args.config, "config file").items():
            if key not in options:
                raise ValidationError(f"unknown config key {key!r}")
            if value is None:
                continue
            kwargs = options[key][1]
            kinds, name = _JSON_TYPES.get(kwargs.get("type"), (str, "a string"))
            if "choices" in kwargs:
                if value not in kwargs["choices"]:
                    raise ValidationError(
                        f"config key {key!r}: invalid choice: {value!r} "
                        f"(choose from {kwargs['choices']})")
            elif isinstance(value, bool) or not isinstance(value, kinds):
                raise ValidationError(f"field {key!r} of the config must be "
                                      f"{name}, got {type(value).__name__}")
            eff[key] = value
    for key in options:
        value = getattr(args, key)
        if value is not None:
            eff[key] = value
    return eff


def _output_names(command: str, cfg: dict) -> list[tuple[str, object]]:
    """(option, name) of each output of a command, in the order its writers
    come, and last the manifest <primary output>.manifest.json."""
    out = cfg["out"]
    names = [("out", out)]
    if command == "simulate":
        names.append(("out", f"{out}{META_SUFFIX}"))
    elif command == "verify" and cfg["plotdata"] is not None:
        names.append(("plotdata", cfg["plotdata"]))
    elif command == "counterexample":
        for option, suffix in (("plotdata", ".csv"), ("dump_state", ".json")):
            if cfg[option] is not None:
                names += [(option, f"{Path(cfg[option])}_{case}{suffix}")
                          for case in _cases(cfg)]
    return names + [("out", f"{out}.manifest.json")]


def _output_paths(args: argparse.Namespace, cfg: dict) -> list[Path]:
    """The paths of the outputs that _output_names gives, each joined to
    the directory CVDISCORD_OUTDIR names, if it is set and not empty
    (which keeps an absolute name).  An output that is not a file name,
    is a directory or lies under a file, or is the same file as an earlier
    output or an input (the --config file, the --records file or its
    sidecar) is a ValidationError naming its flag.  Files are compared by
    their resolved paths, as the inputs are not under CVDISCORD_OUTDIR."""
    inputs = [("the --config file", args.config)]
    if cfg.get("records") is not None:
        records = Path(cfg["records"])
        inputs += [("the --records file", records),
                   ("the --records sidecar", Path(f"{records}{META_SUFFIX}"))]
    seen = {path.resolve(): what for what, path in inputs if path is not None}
    paths = []
    for option, name in _output_names(args.command, cfg):
        flag = "--" + option.replace("_", "-")
        if not Path(name).name:
            raise ValidationError(f"{flag} {str(name)!r} is not a file name")
        path = Path(os.environ.get("CVDISCORD_OUTDIR", "")) / name
        if path.is_dir():
            raise ValidationError(f"{flag} {path} is a directory")
        folder = next(p for p in path.parents if p.exists())
        if not folder.is_dir():
            raise ValidationError(f"{flag} {path}: {folder} is not a directory")
        if (key := path.resolve()) in seen:
            raise ValidationError(f"{flag} {path} is also {seen[key]}")
        seen[key] = f"the {flag} output"
        paths.append(path)
    return paths


def _temp(path: Path, outputs: list[Path]) -> Path:
    """A temp file name in the deepest existing directory above path (main
    makes missing ones only as it puts the outputs in place): the first of
    records.tmp.npz, records.tmp1.npz, ... that names no file and no output,
    so no file there, an input included, is written over or removed.  It
    keeps the suffix, because write_records picks the file format from it.
    The file is left to its writer, as ext4 starts writing back a file
    that was truncated on open, even an empty one, when it is closed."""
    folder = next(p for p in path.parents if p.exists())
    for i in itertools.count():
        tmp = folder / f"{path.stem}.tmp{i or ''}{path.suffix}"
        if not (os.path.lexists(tmp) or tmp.resolve() in outputs):
            return tmp


def _text(text: str):
    """A writer that fills its path with text."""
    return functools.partial(Path.write_text, data=text)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(command: str, config: dict, hashes: dict,
              timings: dict) -> str:
    import scipy
    # default=str writes the Path values of the config as strings
    return dump_document({
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cvdiscord": __version__,
        },
        "timings_s": timings,
        "outputs": hashes,
    }, default=str)


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
            pair = tuple(map(float, parts))
        except ValueError as exc:
            raise ValidationError(f"bad phase pair {chunk!r}") from exc
        if not all(map(math.isfinite, pair)):
            raise ValidationError(f"bad phase pair {chunk!r}: phases must be finite")
        pairs.append(tuple(map(math.radians, pair)))
    if not pairs:
        raise ValidationError("no phase pairs given")
    return pairs


def _pick(*values):
    return next((v for v in values if v is not None), None)


def _noise_depths(cfg: dict) -> tuple[float, float]:
    return (_pick(cfg["depth_x"], cfg["depth"], 0.0),
            _pick(cfg["depth_p"], cfg["depth"], 0.0))


def _check_numbers(command: str, cfg: dict) -> None:
    """A ValidationError naming the first set number option of command that
    is not finite, used or not, as the manifest records it."""
    numbers = {key: cfg[key] for key, (_, kwargs) in _OPTIONS[command].items()
               if kwargs.get("type") is float and cfg[key] is not None}
    require_finite(numbers, *numbers)


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
    write_table(path, {"x": x, "unconditional": hists.whole.density(),
                       "conditional_plus": hists.plus.density(),
                       "conditional_minus": hists.minus.density(),
                       "gaussian_reference": ref})


# ---------------------------------------------------------------------------
# commands, each returning write(path) for each output _output_names gives
# but the manifest, in that order
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict) -> list:
    """Draw homodyne records, n at each pair of --pairs (by default all four
    canonical pairs for the gaussian scheme, (0, 0) for the others), pair i
    as item i of --seed.  The gaussian scheme sends a beam modulated to the
    depths through the splitter, with vacuum on the idle port.  --duty, the
    scheme's own options, every number option, used or not, then the pairs
    are checked before anything is drawn."""
    _check_duty(cfg["duty"])
    gaussian = cfg["scheme"] == "gaussian"
    depth_x, depth_p = _noise_depths(cfg)
    source = (modulated_beam(depth_x, depth_p) if gaussian
              else _MIXTURES[cfg["scheme"]](cfg))
    _check_numbers("simulate", cfg)
    pairs = parse_pairs(_pick(cfg["pairs"], "all" if gaussian else "0,0"))
    if gaussian:
        state = apply_beam_splitter(tensor(source, vacuum_single()), cfg["eta"])
        scheme = {"kind": "gaussian", "depth_x": depth_x, "depth_p": depth_p}
        rs = sample_gaussian(state, pairs, cfg["n"], cfg["seed"])
    else:
        scheme = {"kind": source.kind, **dataclasses.asdict(source)}
        rs = sample_scheme(source, pairs, cfg["n"], cfg["seed"], cfg["eta"])
    meta = {
        "kind": "scheme",
        "scheme": scheme,
        "eta": cfg["eta"],
        "pairs": [[ta, tb] for ta, tb in pairs],
        "n_per_pair": cfg["n"],
        "seed": cfg["seed"],
        # the unit of the records: shot-noise units, vacuum variance 1
        "v0": 1.0,
    }
    return [functools.partial(write_records, rs), _text(dump_document(meta))]


def _read_sidecar(records: Path) -> dict:
    """The JSON object in the sidecar of a record file, or {} if it has
    none."""
    path = Path(f"{records}{META_SUFFIX}")
    return _read_object(path, "sidecar") if path.exists() else {}


def _cmd_verify(cfg: dict) -> list:
    """Run a discord verdict over a record file.  --k-min, --alpha, --boot
    and --seed are checked in both modes, as the manifest records them all."""
    if cfg["records"] is None:
        raise ValidationError("verify needs --records")
    _check_settings(cfg["k_min"], cfg["alpha"], cfg["boot"])
    _check_seed(cfg["seed"])
    if cfg["mode"] == "mixture" and cfg["pairs"] != "all":
        raise ValidationError(f"--pairs {cfg['pairs']} applies to gaussian "
                              "mode; mixture mode reads the file's one pair")
    rs = read_records(cfg["records"])
    meta = _read_sidecar(Path(cfg["records"]))
    if cfg["mode"] == "gaussian":
        pairs = parse_pairs(cfg["pairs"])
        verdict = verdict_gaussian(rs, threshold=cfg["threshold"],
                                   k_min=cfg["k_min"], seed=cfg["seed"],
                                   n_boot=cfg["boot"], pairs=pairs)
        hists = verdict.per_pair[0].hists
        text = verdict_to_json(verdict, meta)
    else:
        verdict = verdict_mixture(rs, threshold=cfg["threshold"],
                                  alpha=cfg["alpha"])
        hists = verdict.hists
        text = mixture_verdict_to_json(verdict, meta)
    outputs = [_text(text)]
    if cfg["plotdata"] is not None:
        outputs.append(functools.partial(emit_plotdata, hists))
    return outputs


def _cmd_sweep(cfg: dict) -> list:
    """Peak separation versus modulation depth on a balanced splitter."""
    depths = parse_depths(cfg["depths"])
    rows = sweep_modulation(depths, n=cfg["n"], seed=cfg["seed"])
    return [functools.partial(sweep_to_csv, rows)]


def _sign_report(state) -> tuple:
    """Condition B on the sign of A's x outcome and locate the peaks of the
    two conditional homodyne marginals of B, each near the largest of its
    values on the default grid; returns the report, the plot-file columns
    (the grid first) and the two conditioned B states."""
    (rho_p, p_plus), (rho_m, p_minus) = condition_b_on_sign(state)
    xs = default_grid(state.dim_b)
    dens_p, dens_m = (homodyne_marginal_fock(rho, xs) for rho in (rho_p, rho_m))
    peak_p, peak_m = (marginal_peak(rho, xs[np.argmax(dens)])
                      for rho, dens in ((rho_p, dens_p), (rho_m, dens_m)))
    report = {
        "dim_A": state.dim_a,
        "dim_B": state.dim_b,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "peak_plus": peak_p,
        "peak_minus": peak_m,
        "peak_separation": peak_p - peak_m,
    }
    curves = {"x": xs,
              "unconditional": homodyne_marginal_fock(state.reduced_b(), xs),
              "conditional_plus": dens_p, "conditional_minus": dens_m}
    return report, curves, (rho_p, rho_m)


def _certify_zero(cfg: dict) -> tuple:
    state = build_ce_zero_discord(alpha=cfg["alpha"])
    report, curves, _ = _sign_report(state)
    classical = verify_classical_on_b(state, superposition_basis(state.dim_b))
    report.update(alpha=cfg["alpha"], classical_on_B=bool(classical))
    return report, state, curves


def _certify_hidden(cfg: dict) -> tuple:
    state = build_ce_hidden_discord(nbar=cfg["nbar"], r=cfg["r"])
    report, curves, sides = _sign_report(state)
    var_p, var_m = (quadrature_moments(rho)[1] for rho in sides)
    # the state's own B components, A projected on |+> and on |->, each of trace 1
    basis = superposition_basis(2)
    parts = np.einsum("ia,ajbk,ib->ijk", basis.conj(), state.tensor, basis)
    report.update(
        nbar=cfg["nbar"],
        r=cfg["r"],
        variance_plus=var_p,
        variance_minus=var_m,
        variance_ratio=max(var_p, var_m) / min(var_p, var_m),
        commutator_norm=commutator_norm(*(part / part.trace() for part in parts)),
    )
    return report, state, curves


def _cases(cfg: dict) -> list[str]:
    """The edge cases that --which names, in output order."""
    return [case for case in ("zero", "hidden") if cfg["which"] in (case, "both")]


def _cmd_counterexample(cfg: dict) -> list:
    """Build and certify the Fock-space edge cases, each number option checked."""
    _check_numbers("counterexample", cfg)
    certify = {"zero": _certify_zero, "hidden": _certify_hidden}
    cases = {case: certify[case](cfg) for case in _cases(cfg)}
    report = {f"{case}_discord": result[0] for case, result in cases.items()}
    outputs = [_text(dump_document(report, allow_nan=False))]
    if cfg["plotdata"] is not None:
        outputs += [functools.partial(write_table, columns=curves)
                    for _, _, curves in cases.values()]
    if cfg["dump_state"] is not None:
        outputs += [_text(fock_state_to_json(state) + "\n")
                    for _, state, _ in cases.values()]
    return outputs


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
        *outputs, manifest = paths = _output_paths(args, cfg)
        t0 = time.perf_counter()
        writers = _COMMANDS[args.command](cfg)
        t1 = time.perf_counter()
        temps, resolved = [], [path.resolve() for path in paths]
        try:
            # every output and the manifest go to temp files first, and
            # replace their destinations only once all of them are written
            for path, write in zip(outputs, writers):
                temps.append(_temp(path, resolved))
                write(temps[-1])
            t2 = time.perf_counter()
            timings = {"compute_s": t1 - t0, "write_s": t2 - t1, "total_s": t2 - t0}
            hashes = {str(path): _sha256(tmp) for path, tmp in zip(outputs, temps)}
            temps.append(_temp(manifest, resolved))
            temps[-1].write_text(_manifest(args.command, cfg, hashes, timings))
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(temps.pop(0), path)
        finally:
            for tmp in temps:
                tmp.unlink(missing_ok=True)
        for path in paths:
            print(path)
        return 0
    except Exception as exc:  # bad input; else a runtime, I/O or numpy failure
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2


if __name__ == "__main__":
    sys.exit(main())
