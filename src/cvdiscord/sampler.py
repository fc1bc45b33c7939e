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

from .errors import ParseError, ValidationError, kind_class, require_fields
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
    """Columnar record store plus provenance metadata: the outcome columns
    x_a and x_b, and a run table in place of per-row phases.  Run i is a
    maximal stretch of counts[i] consecutive rows at phases[i] = (theta_A,
    theta_B)."""

    x_a: np.ndarray
    x_b: np.ndarray
    phases: np.ndarray
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=np.float64).reshape(-1, 2)
        self.counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if (len(self.x_b) != len(self.x_a) or len(self.counts) != len(self.phases)
                or self.counts.sum() != len(self.x_a)):
            raise ValidationError("record columns have mismatched lengths")
        self.phases, self.counts = _runs(*self.phases.T, self.counts)

    def __len__(self) -> int:
        return len(self.x_a)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The four record columns in file order, phases expanded per row."""
        return (*(np.repeat(t, self.counts) for t in self.phases.T),
                self.x_a, self.x_b)

    def pair_keys(self) -> list[tuple[float, float]]:
        return [tuple(row) for row in np.unique(self.phases, axis=0)]

    def select_pair(self, theta_a: float, theta_b: float,
                    atol: float = 1e-9) -> "RecordSet":
        """The records of every run within atol of the phase pair, in file
        order; views of the columns when a single run matches."""
        match = np.flatnonzero(
            (np.abs(self.phases - (theta_a, theta_b)) <= atol).all(axis=1))
        counts = self.counts[match]
        first = np.cumsum(self.counts)[match] - counts
        rows = (slice(first[0], first[0] + counts[0]) if len(match) == 1 else
                np.repeat(first - np.cumsum(counts) + counts, counts)
                + np.arange(counts.sum()))
        return RecordSet(self.x_a[rows], self.x_b[rows], self.phases[match],
                         counts, dict(self.meta))


def _runs(theta_a, theta_b, counts) -> tuple[np.ndarray, np.ndarray]:
    """The run table of phase columns whose rows hold counts records each:
    one row per maximal run of bitwise-equal phase pairs, found in one pass
    in file order."""
    a, b = (np.asarray(t, dtype=np.float64).view(np.int64) for t in (theta_a, theta_b))
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])][:len(a)])
    return (np.column_stack([theta_a[starts], theta_b[starts]]),
            np.add.reduceat(counts, starts))


def concat_records(parts: list[RecordSet], meta: dict | None = None) -> RecordSet:
    if not parts:
        raise ValidationError("nothing to concatenate")
    return RecordSet(
        np.concatenate([p.x_a for p in parts]),
        np.concatenate([p.x_b for p in parts]),
        np.concatenate([p.phases for p in parts]),
        np.concatenate([p.counts for p in parts]),
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
    return RecordSet(x_a, x_b, [(theta_a, theta_b)], [n], meta)


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
    return RecordSet(x_a, x_b, [(config.theta_a, config.theta_b)], [n], meta)


def scheme_to_dict(scheme: ModulationScheme) -> dict:
    return {"kind": scheme.kind, **dataclasses.asdict(scheme)}


def scheme_from_dict(doc: dict) -> ModulationScheme:
    """Inverse of scheme_to_dict.  A missing field takes its default; an
    unknown field or a value that is not a number is a ValidationError."""
    cls = kind_class(doc, SCHEMES, "scheme")
    names = [f.name for f in dataclasses.fields(cls)]
    require_fields(doc, {"kind": "a string"}, f"{cls.kind} scheme",
                   dict.fromkeys(names, "a number"))
    return cls(**{name: doc[name] for name in names if name in doc})


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
    columns = rs.columns()
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
    theta_a, theta_b, x_a, x_b = columns
    ones = np.broadcast_to(np.int64(1), len(x_a))  # each row is one record
    return RecordSet(x_a, x_b, *_runs(theta_a, theta_b, ones), meta)


def _read_csv(path: Path) -> list[np.ndarray]:
    try:
        with warnings.catch_warnings():
            # header-only files are a legal empty record set, not a warning
            warnings.filterwarnings("ignore", message=".*no data.*")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        for row, line in _data_lines(path):
            try:
                _, _, _, _ = map(float, line.split(","))  # four numbers
            except ValueError as fault:
                raise ParseError(f"cannot parse {path}: row {row}: {fault}") from exc
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, 4)
    if data.shape[1] != 4:
        raise ParseError(f"{path} has {data.shape[1]} columns, expected 4")
    bad = _first_nonfinite(data.T)
    if bad is not None:
        index, col = bad
        row, _ = next(itertools.islice(_data_lines(path), index, None))
        raise ParseError(f"cannot parse {path}: row {row}: "
                         f"non-finite {COLUMNS[col]} ({data[index, col]})")
    # the phase columns only feed the run table; x_a and x_b are kept
    return [data[:, 0], data[:, 1], data[:, 2].copy(), data[:, 3].copy()]


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


def _data_lines(path: Path):
    """(file row, line) for each data line of a CSV record file, skipping
    what np.loadtxt skips: the header, blank lines and # comments, which it
    also strips from the line."""
    with open(path) as fh:
        next(fh, None)  # header
        for row, line in enumerate(fh, start=2):
            data = line.split("#", 1)[0].strip()
            if data:
                yield row, data
