"""Simulated homodyne records.

Records are rows (theta_A, theta_B, x_A, x_B): the local-oscillator phases
and the two quadrature outcomes of one joint measurement.  Sampling is
serial and chunked, with one RNG substream per fixed-size chunk derived
from (seed, chunk index); the samplers accept a workers keyword, which
has no effect.

The modulation schemes draw a per-sample classical displacement for the
pre-splitter beam, mix it through the splitter (vacuum on the idle port)
and add independent vacuum noise to each output quadrature.  That is
exactly sampling from the classical-mixture joint density, so the scheme
records match the analytic output densities.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, kind_class
from .marginals import joint_marginal_form
from .states import DEFAULT_V0, GaussianBipartiteState

CHUNK = 1 << 16

CSV_HEADER = "theta_A,theta_B,x_A,x_B"
# record columns in file order, also the member names of a .npz record file
COLUMNS = tuple(CSV_HEADER.split(","))
# record files with this suffix are binary .npz; any other suffix is CSV
NPZ_SUFFIX = ".npz"

# default signed displacement of the switched-phase scheme, chosen so the
# measured-mode peak of the displaced component sits at -12 vacuum units
# for a balanced splitter and a -6 threshold falls between the two peaks
SWITCHED_PHASE_AMPLITUDE = -12.0 * np.sqrt(2.0)
SWITCHED_PHASE_THRESHOLD = -6.0


@dataclass(frozen=True)
class GaussianModulation:
    """Independent Gaussian displacement noise on each quadrature."""

    depth_x: float = 0.0
    depth_p: float = 0.0

    kind = "gaussian"

    def __post_init__(self):
        if self.depth_x < 0 or self.depth_p < 0:
            raise ValidationError("modulation depths must be non-negative")

    def displace(self, rng, d: np.ndarray, root: float) -> None:
        d[:, 0] = self.depth_x * root * rng.standard_normal(len(d))
        d[:, 1] = self.depth_p * root * rng.standard_normal(len(d))


@dataclass(frozen=True)
class SwitchedNoise:
    """Gaussian displacement noise gated on with probability duty."""

    depth_x: float = 0.0
    depth_p: float = 0.0
    duty: float = 0.5

    kind = "switched_noise"

    def __post_init__(self):
        if self.depth_x < 0 or self.depth_p < 0:
            raise ValidationError("modulation depths must be non-negative")
        _check_duty(self.duty)

    def displace(self, rng, d: np.ndarray, root: float) -> None:
        m = len(d)
        gate = rng.random(m) < self.duty
        d[:, 0] = np.where(gate, self.depth_x * root * rng.standard_normal(m), 0.0)
        d[:, 1] = np.where(gate, self.depth_p * root * rng.standard_normal(m), 0.0)


@dataclass(frozen=True)
class SwitchedPhase:
    """Fixed p-quadrature displacement gated on with probability duty.

    The amplitude is a signed coherent displacement (the sign is the
    demodulation phase), unlike the noise depths which are magnitudes.
    """

    amplitude: float = SWITCHED_PHASE_AMPLITUDE
    duty: float = 0.5
    threshold_hint: float = SWITCHED_PHASE_THRESHOLD

    kind = "switched_phase"

    def __post_init__(self):
        _check_duty(self.duty)

    def displace(self, rng, d: np.ndarray, root: float) -> None:
        gate = rng.random(len(d)) < self.duty
        d[:, 1] = np.where(gate, self.amplitude * root, 0.0)


@dataclass(frozen=True)
class AsyncSine:
    """x displacement depth*cos(phi) with phi uniform: sine modulation
    demodulated at an offset frequency."""

    depth: float = 0.0

    kind = "async_sine"

    def __post_init__(self):
        if self.depth < 0:
            raise ValidationError("modulation depth must be non-negative")

    def displace(self, rng, d: np.ndarray, root: float) -> None:
        phi = rng.uniform(0.0, 2.0 * np.pi, len(d))
        d[:, 0] = self.depth * root * np.cos(phi)


# scheme.displace(rng, d, root) fills the zeroed per-sample pre-splitter
# displacement d, shape (m, 2), in absolute units (root = sqrt(v0))
ModulationScheme = GaussianModulation | SwitchedNoise | SwitchedPhase | AsyncSine
SCHEMES = {cls.kind: cls for cls in
           (GaussianModulation, SwitchedNoise, SwitchedPhase, AsyncSine)}


def _check_duty(duty: float) -> None:
    if not 0.0 < duty <= 1.0:
        raise ValidationError(f"duty must lie in (0, 1], got {duty}")


@dataclass(frozen=True)
class SimulationConfig:
    scheme: ModulationScheme
    n_samples: int
    seed: int
    eta: float = 1.0 / np.sqrt(2.0)
    theta_a: float = 0.0
    theta_b: float = 0.0
    v0: float = DEFAULT_V0

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValidationError("n_samples must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"transmissivity must lie in [0, 1], got {self.eta}")
        if self.v0 <= 0:
            raise ValidationError("vacuum variance must be positive")


@dataclass
class RecordSet:
    """Columnar record store plus provenance metadata."""

    theta_a: np.ndarray
    theta_b: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.x_a)
        for name in ("theta_a", "theta_b", "x_b"):
            if len(getattr(self, name)) != n:
                raise ValidationError("record columns have mismatched lengths")

    def __len__(self) -> int:
        return len(self.x_a)

    def pair_keys(self) -> list[tuple[float, float]]:
        pairs = np.unique(np.column_stack([self.theta_a, self.theta_b]), axis=0)
        return [tuple(row) for row in pairs]

    def select_pair(self, theta_a: float, theta_b: float,
                    atol: float = 1e-9) -> "RecordSet":
        mask = (np.abs(self.theta_a - theta_a) <= atol) & (
            np.abs(self.theta_b - theta_b) <= atol
        )
        return RecordSet(
            self.theta_a[mask], self.theta_b[mask],
            self.x_a[mask], self.x_b[mask], dict(self.meta),
        )


def concat_records(parts: list[RecordSet], meta: dict | None = None) -> RecordSet:
    if not parts:
        raise ValidationError("nothing to concatenate")
    return RecordSet(
        np.concatenate([p.theta_a for p in parts]),
        np.concatenate([p.theta_b for p in parts]),
        np.concatenate([p.x_a for p in parts]),
        np.concatenate([p.x_b for p in parts]),
        meta if meta is not None else dict(parts[0].meta),
    )


def _chunks(n: int, seed):
    """(rng, start, stop) for each fixed-size chunk of n records, the rng a
    substream derived from (seed, chunk index)."""
    for idx, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        yield rng, start, min(start + CHUNK, n)


def sample_gaussian(state: GaussianBipartiteState, theta_a: float, theta_b: float,
                    n: int, seed: int, workers: int | None = None) -> RecordSet:
    """Draw n joint outcomes from a Gaussian state at fixed phases."""
    if n <= 0:
        raise ValidationError("n must be positive")
    form = joint_marginal_form(state, theta_a, theta_b)
    det = form.lam * form.mu - form.nu**2
    cov = np.array([[form.mu, form.nu], [form.nu, form.lam]]) / (2.0 * det)
    chol = np.linalg.cholesky(cov)
    mean = np.array([form.mean_a, form.mean_b])

    x_a = np.empty(n)
    x_b = np.empty(n)
    for rng, start, stop in _chunks(n, seed):
        z = rng.standard_normal((stop - start, 2))
        xy = z @ chol.T + mean
        x_a[start:stop] = xy[:, 0]
        x_b[start:stop] = xy[:, 1]

    meta = {
        "kind": "gaussian_state",
        "theta_a": theta_a,
        "theta_b": theta_b,
        "n": n,
        "seed": seed,
        "v0": state.v0,
    }
    return RecordSet(np.full(n, float(theta_a)), np.full(n, float(theta_b)),
                     x_a, x_b, meta)


def sample_scheme(config: SimulationConfig, workers: int | None = None) -> RecordSet:
    """Draw homodyne records for a modulation scheme.

    Per sample: draw the latent gate/phase, form the displacement, send it
    through the splitter (mode A keeps eta of it, mode B sqrt(1-eta^2)),
    project onto the measured quadratures and add independent vacuum noise.
    """
    n = config.n_samples
    eta = config.eta
    eta_t = np.sqrt(1.0 - eta * eta)
    proj_a = np.array([np.cos(config.theta_a), np.sin(config.theta_a)])
    proj_b = np.array([np.cos(config.theta_b), np.sin(config.theta_b)])
    root = np.sqrt(config.v0)

    x_a = np.empty(n)
    x_b = np.empty(n)
    for rng, start, stop in _chunks(n, config.seed):
        m = stop - start
        d = np.zeros((m, 2))
        config.scheme.displace(rng, d, root)
        noise = rng.standard_normal((m, 2)) * root
        x_a[start:stop] = eta * (d @ proj_a) + noise[:, 0]
        x_b[start:stop] = eta_t * (d @ proj_b) + noise[:, 1]

    meta = {
        "kind": "scheme",
        "scheme": scheme_to_dict(config.scheme),
        "eta": eta,
        "theta_a": config.theta_a,
        "theta_b": config.theta_b,
        "n": n,
        "seed": config.seed,
        "v0": config.v0,
    }
    return RecordSet(np.full(n, float(config.theta_a)),
                     np.full(n, float(config.theta_b)), x_a, x_b, meta)


def scheme_to_dict(scheme: ModulationScheme) -> dict:
    return {"kind": scheme.kind, **dataclasses.asdict(scheme)}


def scheme_from_dict(doc: dict) -> ModulationScheme:
    """Inverse of scheme_to_dict.  A missing field takes its default; an
    unknown field or a value that is not a number is a ValidationError."""
    cls = kind_class(doc, SCHEMES, "scheme")
    fields = {key: value for key, value in doc.items() if key != "kind"}
    names = {f.name for f in dataclasses.fields(cls)}
    for key, value in fields.items():
        if key not in names:
            raise ValidationError(f"unknown field {key!r} for a {cls.kind} scheme")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"field {key!r} of a {cls.kind} scheme must "
                                  f"be a number, got {value!r}")
    return cls(**fields)


# ---------------------------------------------------------------------------
# record file I/O
# ---------------------------------------------------------------------------


def write_records(rs: RecordSet, path, sidecar: bool = True) -> None:
    """Write records in the format named by the file suffix, plus an
    optional JSON provenance sidecar ``<file>.meta.json``.

    A ``.npz`` file holds one uncompressed 1-D float64 member per column,
    named as in the CSV header.  Any other suffix gets CSV with 17
    significant digits, so float64 round-trips bitwise in either format.
    """
    path = Path(path)
    columns = (rs.theta_a, rs.theta_b, rs.x_a, rs.x_b)
    if path.suffix == NPZ_SUFFIX:
        # a file handle, because given a path numpy appends .npz to any
        # name that lacks it
        with open(path, "wb") as fh:
            np.savez(fh, **{name: np.asarray(col, dtype=np.float64)
                            for name, col in zip(COLUMNS, columns)})
    else:
        data = np.column_stack(columns)
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=CSV_HEADER,
                   comments="")
    if sidecar and rs.meta:
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(rs.meta, indent=2, sort_keys=True) + "\n"
        )


def read_records(path) -> RecordSet:
    """Read a record file written by write_records, in the format named by
    its suffix; a CSV may be any file with the same four-column layout.

    Malformed content and non-finite values raise ParseError naming the
    first bad file row (CSV) or record and column (.npz).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such record file: {path}")
    if path.suffix == NPZ_SUFFIX:
        columns = _read_npz(path)
    else:
        columns = _read_csv(path)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta = {}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad sidecar {meta_path}: {exc}") from exc
    return RecordSet(*columns, meta)


def _read_csv(path: Path) -> list[np.ndarray]:
    try:
        with warnings.catch_warnings():
            # header-only files are a legal empty record set, not a warning
            warnings.filterwarnings("ignore", message=".*no data.*")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"cannot parse {path}: {_locate_bad_row(path, exc)}") from exc
    if data.size == 0:
        data = data.reshape(0, 4)
    if data.shape[1] != 4:
        raise ParseError(f"{path} has {data.shape[1]} columns, expected 4")
    bad = _first_nonfinite(data.T)
    if bad is not None:
        index, col = bad
        raise ParseError(f"cannot parse {path}: row {_data_line(path, index)}: "
                         f"non-finite {COLUMNS[col]} ({data[index, col]})")
    return [data[:, 0].copy(), data[:, 1].copy(),
            data[:, 2].copy(), data[:, 3].copy()]


def _read_npz(path: Path) -> list[np.ndarray]:
    if not zipfile.is_zipfile(path):
        raise ParseError(f"cannot parse {path}: not a .npz (zip) archive")
    try:
        with np.load(path, allow_pickle=False) as npz:
            members = npz.files
            columns = [npz[name] for name in COLUMNS if name in members]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if sorted(members) != sorted(COLUMNS):
        raise ParseError(f"cannot parse {path}: members {members}, "
                         f"expected {list(COLUMNS)}")
    for name, col in zip(COLUMNS, columns):
        if col.ndim != 1 or col.dtype != np.float64:
            raise ParseError(f"cannot parse {path}: member {name} is "
                             f"{col.ndim}-D {col.dtype}, expected 1-D float64")
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ParseError(f"cannot parse {path}: member lengths "
                         f"{dict(zip(COLUMNS, lengths))} differ")
    bad = _first_nonfinite(columns)
    if bad is not None:
        index, col = bad
        raise ParseError(f"cannot parse {path}: record {index + 1}: "
                         f"non-finite {COLUMNS[col]} ({columns[col][index]})")
    return columns


def _first_nonfinite(columns) -> tuple[int, int] | None:
    """(record index, column index) of the first non-finite value."""
    bad = [(int(np.argmin(ok)), col)
           for col, ok in enumerate(map(np.isfinite, columns)) if not ok.all()]
    return min(bad, default=None)


def _data_line(path: Path, index: int) -> int:
    """File line of data row `index` (from 0), skipping what np.loadtxt
    skips: the header, blank lines and # comments."""
    with open(path) as fh:
        next(fh, None)  # header
        lines = (row for row, line in enumerate(fh, start=2)
                 if line.split("#", 1)[0].strip())
        return next(itertools.islice(lines, index, None))


def _locate_bad_row(path: Path, exc: Exception) -> str:
    with open(path) as fh:
        next(fh, None)  # header
        for row, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 4:
                return f"row {row}: expected 4 fields, got {len(parts)}"
            try:
                [float(p) for p in parts]
            except ValueError:
                return f"row {row}: non-numeric field"
    return str(exc)
