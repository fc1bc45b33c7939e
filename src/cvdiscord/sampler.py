"""Simulated homodyne records and record files.

A record is (theta_A, theta_B, x_A, x_B): the local-oscillator phases and
the two quadrature outcomes of one joint measurement.  Records are held,
and stored in a .npz file, as the x_A and x_B columns plus a run table of
phase pairs; a CSV file holds the four columns per row.  Each fixed-size
chunk of records has its own random stream (_streams) and is sampled
straight into its slices of the two columns, so the chunks are filled on
all the process's CPUs in any order.

Both samplers take (source, pairs, n, seed) and draw pair i as item i of
the seed through one checked path.  A Gaussian state's records come from
its joint marginal form, two normals per record.  The three modulation
schemes (sample_scheme), whose records are not Gaussian, draw a per-sample
classical displacement for the pre-splitter beam, mix it through the
splitter (vacuum on the idle port) and add independent vacuum noise to
each output quadrature, all in shot-noise units (vacuum variance 1).
That is exactly sampling from the classical-mixture joint density, so the
scheme records match the analytic output densities.
"""

from __future__ import annotations

import itertools
import os
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import _COMPRESSORS, ParseError, ValidationError, require_finite, write_csv
from .marginals import MarginalForm, joint_marginal_form
from .states import MAX_DEPTH, GaussianBipartiteState, _check_transmissivity

CHUNK = 1 << 16

# a worker thread for each CPU this process may run on but one, the one
# that the calling thread of _starmap runs on
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_CPUS - 1, "cvdiscord") if _CPUS > 1 else None

CSV_HEADER = "theta_A,theta_B,x_A,x_B"
# record columns in CSV file order
COLUMNS = tuple(CSV_HEADER.split(","))
# record files with this suffix are binary .npz; any other suffix is CSV
NPZ_SUFFIX = ".npz"
# the members of a .npz record file, each with its form, in file order
NPZ_LAYOUT = {"x_A": "1-D float64", "x_B": "1-D float64",
              "phases": "(runs, 2) float64", "counts": "1-D int64"}
# largest phase difference, in radians, at which select_pair matches a run
PAIR_ATOL = 1e-9

# default signed displacement of the switched-phase scheme, chosen so the
# measured-mode peak of the displaced component sits at -12 vacuum units
# for a balanced splitter and a -6 threshold falls between the two peaks
SWITCHED_PHASE_AMPLITUDE = -12.0 * np.sqrt(2.0)
SWITCHED_PHASE_THRESHOLD = -6.0


@dataclass(frozen=True)
class SwitchedNoise:
    """Gaussian displacement noise gated on with probability duty."""

    depth_x: float = 0.0
    depth_p: float = 0.0
    duty: float = 0.5

    kind = "switched_noise"

    def __post_init__(self):
        require_finite(self, "depth_x", "depth_p", low=0.0, high=MAX_DEPTH)
        _check_duty(self.duty)

    def displace(self, rng, d: np.ndarray) -> None:
        m = len(d)
        gate = rng.random(m) < self.duty
        d[:, 0] = np.where(gate, self.depth_x * rng.standard_normal(m), 0.0)
        d[:, 1] = np.where(gate, self.depth_p * rng.standard_normal(m), 0.0)


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
        require_finite(self, "amplitude", low=-MAX_DEPTH, high=MAX_DEPTH)
        require_finite(self, "threshold_hint")
        _check_duty(self.duty)

    def displace(self, rng, d: np.ndarray) -> None:
        gate = rng.random(len(d)) < self.duty
        d[:, 1] = np.where(gate, self.amplitude, 0.0)


@dataclass(frozen=True)
class AsyncSine:
    """x displacement depth*cos(phi) with phi uniform: sine modulation
    demodulated at an offset frequency."""

    depth: float = 0.0

    kind = "async_sine"

    def __post_init__(self):
        require_finite(self, "depth", low=0.0, high=MAX_DEPTH)

    def displace(self, rng, d: np.ndarray) -> None:
        phi = rng.uniform(0.0, 2.0 * np.pi, len(d))
        d[:, 0] = self.depth * np.cos(phi)


# scheme.displace(rng, d) fills the zeroed per-sample pre-splitter
# displacement d, shape (m, 2), in shot-noise units
ModulationScheme = SwitchedNoise | SwitchedPhase | AsyncSine


def _check_duty(duty: float) -> None:
    if not 0.0 < duty <= 1.0:
        raise ValidationError(f"duty must lie in (0, 1], got {duty}")


@dataclass
class RecordSet:
    """Columnar record store: the outcome columns x_a and x_b, and a run
    table in place of per-row phases.  Run i is a maximal stretch of
    counts[i] consecutive rows at phases[i] = (theta_A, theta_B)."""

    x_a: np.ndarray
    x_b: np.ndarray
    phases: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.x_a, self.x_b = (np.asarray(x, dtype=np.float64) for x in (self.x_a, self.x_b))
        self.phases = np.asarray(self.phases, dtype=np.float64).reshape(-1, 2)
        self.counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if len(self.x_b) != len(self.x_a) or len(self.counts) != len(self.phases):
            raise ValidationError("record columns have mismatched lengths")
        if (low := np.flatnonzero(self.counts < 1)).size:
            raise ValidationError(f"run {low[0] + 1} has count "
                                  f"{self.counts[low[0]]}, expected at least 1")
        # a float sum, because an int64 sum of huge counts can wrap around
        if (total := self.counts.sum(dtype=np.float64)) != len(self.x_a):
            raise ValidationError(f"run counts sum to {total:.0f}, expected "
                                  f"{len(self.x_a)} records")
        self.phases, self.counts = _runs(*self.phases.T, self.counts)

    def __len__(self) -> int:
        return len(self.x_a)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The four record columns in file order, phases expanded per row."""
        return (*(np.repeat(t, self.counts) for t in self.phases.T),
                self.x_a, self.x_b)

    def pair_keys(self) -> list[tuple[float, float]]:
        return [tuple(row) for row in np.unique(self.phases, axis=0)]

    def select_pair(self, theta_a: float, theta_b: float) -> "RecordSet":
        """The records of every run within PAIR_ATOL of the phase pair, in
        file order; views of the columns when a single run matches."""
        match = np.flatnonzero(
            (np.abs(self.phases - (theta_a, theta_b)) <= PAIR_ATOL).all(axis=1))
        counts = self.counts[match]
        first = np.cumsum(self.counts)[match] - counts
        rows = (slice(first[0], first[0] + counts[0]) if len(match) == 1 else
                np.repeat(first - np.cumsum(counts) + counts, counts)
                + np.arange(counts.sum()))
        return RecordSet(self.x_a[rows], self.x_b[rows], self.phases[match], counts)


def _runs(theta_a, theta_b, counts=None) -> tuple[np.ndarray, np.ndarray]:
    """The run table of phase columns whose rows hold counts records each,
    or one each when counts is None: one row per maximal run of
    bitwise-equal phase pairs, found in one pass in file order."""
    a, b = (np.asarray(t, dtype=np.float64).view(np.int64) for t in (theta_a, theta_b))
    starts = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])][:len(a)])
    return (np.column_stack([theta_a[starts], theta_b[starts]]),
            np.diff(starts, append=len(a)) if counts is None
            else np.add.reduceat(counts, starts))


def _starmap(fn, args, pool: bool = True) -> list:
    """[fn(*a) for a in args] on the calling thread and, with pool and two
    or more calls, the pool.  The pool takes calls from the last; the
    caller runs each call in order that the pool has not started, else
    waits for it, so the first failed call in order raises, once none
    runs.  Only started calls are waited for, so fn may call _starmap in
    turn.  A cancelled call stays queued until a pool thread gets to it,
    so the queue holds each call in a cell that is emptied on return, and
    fn and its arguments are freed then."""
    args = list(args)
    if _POOL is None or not pool or len(args) < 2:
        return [fn(*a) for a in args]
    cells = [[fn, a] for a in args]
    futures = [_POOL.submit(_call, cell) for cell in reversed(cells)][::-1]
    try:
        return [fn(*a) if f.cancel() else f.result() for f, a in zip(futures, args)]
    finally:
        for f, cell in zip(futures, cells):
            if not f.cancel():
                f.exception()  # waits for a call that the pool started
            cell.clear()


def _call(cell):
    fn, a = cell
    return fn(*a)


def _check_seed(seed) -> None:
    """A ValidationError unless seed is an integer in [0, 2**32).  numpy
    splits a larger one into 32-bit words with no length, so seed
    s + 2**32 * b at item 0 would draw what seed s draws at item b."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 1 << 32):
        raise ValidationError(f"seed must be a non-negative integer below 2**32, "
                              f"got {seed!r}")


def _streams(seed, item: int = 0):
    """stream(k) for item `item` of a call seeded `seed` (_check_seed): a
    generator on child k of the item's root SeedSequence((seed, item)),
    from which nothing draws directly.  Streams 0 and 1 bootstrap the plus
    and minus sides, and 2 + c fills sample chunk c."""
    _check_seed(seed)
    root = (int(seed), item)
    return lambda k: np.random.default_rng(np.random.SeedSequence(root, spawn_key=(k,)))


def _draw(parts) -> tuple[np.ndarray, np.ndarray]:
    """The x_A and x_B columns of the records of each (n, streams, chunk)
    part in turn, filled in fixed-size chunks on the pool: chunk(rng, out_a,
    out_b) writes the records of the two column slices, rng the chunk's
    stream (_streams).  The counts add up as Python ints, which do not wrap."""
    ends = list(itertools.accumulate(n for n, _, _ in parts))
    if min(n for n, _, _ in parts) <= 0 or ends[-1] > np.iinfo(np.intp).max:
        raise ValidationError(f"n must be positive, with at most {np.iinfo(np.intp).max}"
                              f" records over all pairs, got {parts[0][0]}")
    x_a, x_b = np.empty(ends[-1]), np.empty(ends[-1])

    def fill(end, n, streams, chunk, start):
        rows = slice(end - n + start, end - n + min(start + CHUNK, n))
        chunk(streams(2 + start // CHUNK), x_a[rows], x_b[rows])

    _starmap(fill, [(end, *part, start) for end, part in zip(ends, parts)
                    for start in range(0, part[0], CHUNK)])
    return x_a, x_b


def _gaussian_chunk(form: MarginalForm):
    """chunk(rng, out_a, out_b) for _draw: joint outcomes of a marginal form."""
    cov = np.array([[form.mu, form.nu], [form.nu, form.lam]]) / (2.0 * form.det)
    chol = np.linalg.cholesky(cov)
    mean = np.array([form.mean_a, form.mean_b])

    def chunk(rng, out_a, out_b):
        y = rng.standard_normal((len(out_a), 2)) @ chol.T
        np.add(y[:, 0], mean[0], out=out_a)
        np.add(y[:, 1], mean[1], out=out_b)
    return chunk


def _mixture_chunk(scheme: ModulationScheme, eta: float, theta_a: float, theta_b: float):
    """chunk(rng, out_a, out_b) for _draw: records of a scheme, each a
    displacement sent through the splitter (mode A keeps eta of it, mode B
    sqrt(1-eta^2)), projected on the measured quadratures, plus independent
    vacuum noise."""
    def chunk(rng, out_a, out_b):
        d = np.zeros((len(out_a), 2))
        scheme.displace(rng, d)
        noise = rng.standard_normal(d.shape)
        np.add(eta * (d @ [np.cos(theta_a), np.sin(theta_a)]), noise[:, 0], out=out_a)
        np.add(np.sqrt(1.0 - eta * eta) * (d @ [np.cos(theta_b), np.sin(theta_b)]),
               noise[:, 1], out=out_b)
    return chunk


def _sample(pairs, n: int, seed: int, chunk_at) -> RecordSet:
    """n records at each phase pair, a run each, pair i drawn as item i of
    seed by the _draw chunk function that chunk_at(theta_A, theta_B) gives.
    An empty pair list or a non-finite phase is a ValidationError naming the pair."""
    if len(pairs) == 0:
        raise ValidationError("no phase pairs given")
    for i, pair in enumerate(pairs, 1):
        phases = {f"theta_{side} of pair {i}": t for side, t in zip("ab", pair)}
        require_finite(phases, *phases)
    return RecordSet(*_draw([(n, _streams(seed, i), chunk_at(*pair))
                             for i, pair in enumerate(pairs)]), pairs, [n] * len(pairs))


def sample_gaussian(state: GaussianBipartiteState, pairs: list[tuple[float, float]],
                    n: int, seed: int) -> RecordSet:
    """n joint outcomes of a Gaussian state at each phase pair (_sample)."""
    return _sample(pairs, n, seed, lambda *p: _gaussian_chunk(joint_marginal_form(state, *p)))


def sample_scheme(scheme: ModulationScheme, pairs: list[tuple[float, float]],
                  n: int, seed: int, eta: float = 1.0 / np.sqrt(2.0)) -> RecordSet:
    """n records of a scheme on a splitter of transmissivity eta (_sample)."""
    _check_transmissivity(eta)
    return _sample(pairs, n, seed, lambda *p: _mixture_chunk(scheme, eta, *p))


# ---------------------------------------------------------------------------
# record file I/O
# ---------------------------------------------------------------------------


def write_records(rs: RecordSet, path) -> None:
    """Write records in the format named by the file suffix.

    A ``.npz`` file holds the records as a RecordSet does, in the
    uncompressed members of NPZ_LAYOUT; any other suffix gets the four
    CSV columns per row with 17 significant digits, each run's phases
    formatted once, in the bytes of errors.write_table.
    Either format round-trips float64 bitwise.
    """
    path = Path(path)
    if path.suffix == NPZ_SUFFIX:
        # a file handle, because given a path numpy appends .npz to any
        # name that lacks it
        with open(path, "wb") as fh:
            np.savez(fh, x_A=rs.x_a, x_B=rs.x_b, phases=rs.phases, counts=rs.counts)
    else:
        write_csv(path, CSV_HEADER, (rs.x_a, rs.x_b),
                  zip(rs.phases.tolist(), rs.counts.tolist()))


def read_records(path) -> RecordSet:
    """Read a record file written by write_records, in the format named by
    its suffix; a CSV may be any file with the same four-column layout.

    A path that is not a file raises ValidationError; malformed content,
    bytes that are not UTF-8 text in a CSV and non-finite values raise
    ParseError naming the first bad file row (CSV) or record and column
    (.npz).
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"not a record file: {path}" if path.exists()
                              else f"no such record file: {path}")
    npz = path.suffix == NPZ_SUFFIX
    rs = _read_npz(path) if npz else _read_csv(path)
    if not all(np.isfinite(col).all() for col in (rs.phases, rs.x_a, rs.x_b)):
        columns = rs.columns()
        index, col = min((int(np.argmin(ok)), col) for col, ok in
                         enumerate(map(np.isfinite, columns)) if not ok.all())
        where = (f"record {index + 1}" if npz else
                 f"row {next(itertools.islice(_data_lines(path), index, None))[0]}")
        raise ParseError(f"cannot parse {path}: {where}: "
                         f"non-finite {COLUMNS[col]} ({columns[col][index]})")
    return rs


def _read_csv(path: Path) -> RecordSet:
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
    # the phase columns only feed the run table; x_a and x_b are kept
    return RecordSet(data[:, 2].copy(), data[:, 3].copy(), *_runs(data[:, 0], data[:, 1]))


def _read_npz(path: Path) -> RecordSet:
    if not zipfile.is_zipfile(path):
        raise ParseError(f"cannot parse {path}: not a .npz (zip) archive")
    try:
        with np.load(path, allow_pickle=False) as npz:
            members = npz.files
            columns = ({name: npz[name] for name in NPZ_LAYOUT}
                       if sorted(members) == sorted(NPZ_LAYOUT) else None)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if columns is None:
        raise ParseError(f"cannot parse {path}: members {members}, "
                         f"expected {list(NPZ_LAYOUT)}")
    for name, col in columns.items():
        dims = (f"(runs, {col.shape[1]})" if name == "phases" and col.ndim == 2
                else f"{col.ndim}-D")
        if f"{dims} {col.dtype}" != NPZ_LAYOUT[name]:
            raise ParseError(f"cannot parse {path}: member {name} is {dims} "
                             f"{col.dtype}, expected {NPZ_LAYOUT[name]}")
    try:
        return RecordSet(*columns.values())
    except ValidationError as exc:  # the lengths and the run counts
        raise ParseError(f"cannot parse {path}: {exc}") from exc


def _data_lines(path: Path):
    """(file row, line) for each data line of a CSV record file, read through
    the compressor its suffix names, skipping what np.loadtxt skips: the
    header, blank lines and # comments, which it also strips from the line.
    A byte that does not decode reads as U+FFFD, so its line is not a number."""
    with _COMPRESSORS.get(path.suffix, open)(path, "rt", errors="replace") as fh:
        next(fh, None)  # header
        for row, line in enumerate(fh, start=2):
            data = line.split("#", 1)[0].strip()
            if data:
                yield row, data
