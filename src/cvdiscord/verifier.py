"""Statistical verification of discord from homodyne records.

The detection statistic is the separation between the peaks of the two
B-outcome marginals conditioned on the sign of the A outcome relative to
a threshold.  Peak locations come from a least-squares parabola fitted to
log bin counts over a window around the maximum bin (exact for Gaussian
shapes, and reducing to classic three-point parabolic interpolation when
the window is thin); their uncertainty comes from a multinomial bootstrap
of the histogram, which is the record bootstrap expressed on fixed bins.

Two verdicts are provided.  For Gaussian states the decision is that any
phase pair shows |Delta| >= k_min standard errors; the per-pair two-sample
chi-square between the conditional histograms is reported as a diagnostic
but does not decide, which keeps the null false-positive rate at the few
per mille of the k >= 3 cut instead of the ~18% that four chi-square
tests at 0.05 would add.  For non-Gaussian mixtures the chi-square of
conditional against unconditional histograms is the decision statistic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .errors import (EmptySideError, InsufficientDataError, NumericError,
                     ValidationError, dump_document, require_finite, write_table)
from .marginals import analytic_peak_separation, joint_marginal_form
from .sampler import CHUNK, RecordSet, _draw, _gaussian_chunk, _starmap, _streams
from .states import MAX_DEPTH, modulated_beam, split_balanced

MIN_BINS = 50
MAX_BINS = 400
BOOTSTRAP_DEFAULT = 200
K_MIN_DEFAULT = 3.0
CHI2_ALPHA = 0.05
# the two-sample chi-square merges bins until each expects this many counts
CHI2_MIN_EXPECTED = 5.0
# window half-width of the peak fit, in units of the side's spread
PEAK_WINDOW = 0.65
# bins below max/LOBE_CUT are excluded so the fit stays on the main lobe
LOBE_CUT = 8.0
# a side's x_B interquartile range in shot-noise units (vacuum's is 1.35): 1e-6
# is 120 dB of squeezing, and 1e6 far below where the fit's squares overflow
IQR_RANGE = (1e-6, 1e6)

CANONICAL_PAIRS = (
    (0.0, 0.0),
    (0.0, np.pi / 2),
    (np.pi / 2, 0.0),
    (np.pi / 2, np.pi / 2),
)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts))
        if len(self.edges) != len(self.counts) + 1:
            raise ValidationError("edges must have one more entry than counts")
        if np.any(np.diff(self.edges) <= 0):
            raise ValidationError("edges must be strictly increasing")
        if np.any(self.counts < 0):
            raise ValidationError("negative bin count")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    def density(self) -> np.ndarray:
        return self.counts / (self.total * self.width)


@dataclass(frozen=True)
class ConditionalHistograms:
    """One pair's B outcomes binned whole and per side, on shared edges,
    with the mean of the whole and the mean and variance of each side."""

    whole: Histogram
    plus: Histogram
    minus: Histogram
    mean: float
    mean_plus: float
    mean_minus: float
    var_plus: float
    var_minus: float


@dataclass(frozen=True)
class PeakEstimate:
    location: float
    std_error: float
    boundary: bool = False


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    merged_bins: int


@dataclass(frozen=True)
class PairStats:
    theta_a: float
    theta_b: float
    delta: float
    sigma_delta: float
    k: float
    chi2: ChiSquareResult
    n_plus: int
    n_minus: int
    hists: ConditionalHistograms | None = field(default=None, compare=False)


@dataclass(frozen=True)
class DiscordVerdict:
    per_pair: tuple[PairStats, ...]
    decision: str  # "discordant" | "not-detected"
    k_min: float
    threshold: float


@dataclass(frozen=True)
class SideReport:
    sign: int
    chi2: ChiSquareResult
    peak_shift: float
    mean_shift: float
    variance: float


@dataclass(frozen=True)
class MixtureVerdict:
    sides: tuple[SideReport, ...]
    decision: str
    alpha: float
    threshold: float
    variance_ratio: float
    hists: ConditionalHistograms | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# splitting and binning
# ---------------------------------------------------------------------------


def split_by_threshold(rs: RecordSet, threshold: float = 0.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The B outcomes of each side of a split on the A outcome: x_A >=
    threshold is the plus side, the rest the minus side.  A threshold that
    is not finite, or one that leaves a side empty, is bad input; the
    empty-side error names the threshold and the phase pairs of rs."""
    require_finite(locals(), "threshold")
    plus_mask = rs.x_a >= threshold
    n_plus = int(np.count_nonzero(plus_mask))
    if n_plus == 0 or n_plus == len(rs):
        pairs = ", ".join(dict.fromkeys(f"({ta:.6g}, {tb:.6g})"
                                        for ta, tb in rs.phases))
        raise EmptySideError(
            f"threshold {threshold} leaves one side empty"
            f"{f' at phase pair {pairs}' if pairs else ''} "
            f"({n_plus} of {len(rs)} records on the plus side)"
        )
    return np.compress(plus_mask, rs.x_b), np.compress(~plus_mask, rs.x_b)


def _order_stat(parts, k: int):
    """The k-th smallest value (from 0) of one or two ascending arrays a
    and b together.  The k + 1 smallest are a[:i] and b[:k + 1 - i] for the
    least i with a[i] >= b[k - i], which a bisection finds; the k-th is the
    larger of the last two taken.  One array is a with an empty b."""
    a, b = (*parts, parts[0][:0])[:2]
    lo, hi = max(0, k + 1 - len(b)), min(k + 1, len(a))
    while lo < hi:
        i = (lo + hi) // 2
        if a[i] < b[k - i]:
            lo = i + 1
        else:
            hi = i
    if lo == 0:
        return b[k]
    return a[k] if lo > k else max(a[lo - 1], b[k - lo])


def _percentile(parts, q: float) -> float:
    """np.percentile(values, 100 q) bit for bit, values given as one or two
    ascending arrays: numpy's linear rule blends the order statistics a and
    b around the virtual index (n - 1) q by its fraction t, as
    b - (b - a)(1 - t) when t >= 0.5, else a + (b - a) t."""
    last = sum(map(len, parts)) - 1
    v = last * q
    i = int(v)
    if i >= last:  # a single value, which numpy returns as it is
        return _order_stat(parts, last)
    a, b, t = _order_stat(parts, i), _order_stat(parts, i + 1), v - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _ascending(values: np.ndarray) -> np.ndarray:
    """values when they are already in ascending order, else a sorted copy;
    the one pass of comparisons costs far less than the sort it saves."""
    return values if (values[:-1] <= values[1:]).all() else np.sort(values)


def bin_count_fd(parts) -> int:
    """Freedman-Diaconis bin count, clamped to [MIN_BINS, MAX_BINS], of the
    values of one or two ascending arrays together."""
    n = sum(map(len, parts))
    span = float(_order_stat(parts, n - 1) - _order_stat(parts, 0))
    iqr = _percentile(parts, 0.75) - _percentile(parts, 0.25)
    if span <= 0 or iqr <= 0:
        return MIN_BINS
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    k = int(np.ceil(span / width)) if width > 0 else MAX_BINS
    return min(max(k, MIN_BINS), MAX_BINS)


def _fd_edges(parts) -> np.ndarray:
    """Equal-width edges spanning [min, max] of the values of one or two
    ascending arrays together, padded by one bin on each side, the bin
    count from bin_count_fd."""
    lo, hi = (float(_order_stat(parts, k)) for k in (0, sum(map(len, parts)) - 1))
    if hi <= lo:  # one bin of width 1 about the value, and a pad bin of 1 each side
        return np.linspace(lo - 0.5 - 1.0, hi + 0.5 + 1.0, 4)
    k = bin_count_fd(parts)
    width = (hi - lo) / k
    return np.linspace(lo - width, hi + width, k + 3)


def _bin_counts(ordered: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram's counts of ascending values, by bisecting at the edges."""
    return np.diff(np.concatenate([ordered.searchsorted(edges[:-1], "left"),
                                   ordered.searchsorted(edges[-1:], "right")]))


def estimate_density(values, edges: np.ndarray | None = None) -> Histogram:
    """Equal-width histogram spanning [min, max] padded by one bin on each
    side, bin count from the clamped Freedman-Diaconis rule; or on edges.
    All of it comes from the values in ascending order, sorted unless they
    already are: the range from the ends, the quartiles from the order
    statistics, and np.histogram's counts from bisecting at the edges."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise InsufficientDataError("no records to bin")
    ordered = _ascending(values)
    edges = _fd_edges((ordered,)) if edges is None else np.asarray(edges, dtype=float)
    return Histogram(edges, _bin_counts(ordered, edges))


def _bin_sides(rs: RecordSet, threshold: float
               ) -> tuple[ConditionalHistograms, tuple[np.ndarray, np.ndarray]]:
    """The B outcomes of rs (one phase pair) binned whole and per side of
    the threshold on the whole pair's Freedman-Diaconis edges, and the
    (plus, minus) sides in ascending order.  Each side is the one copy that
    split_by_threshold makes: its moments are taken in file order, as the
    order of summation sets their last bits, and then it is sorted in
    place.  The edges come from the order statistics of the two sides and
    whole = plus + minus, so x_b is neither sorted nor copied whole.  A side
    whose nonzero interquartile range is outside IQR_RANGE, as in records
    in other units, or whose range exceeds MAX_BINS interquartile ranges, as
    one glitch record makes it, cannot be binned: a ValidationError names
    the pair, the side and the range."""
    sides = split_by_threshold(rs, threshold)
    with np.errstate(over="ignore"):  # a side too wide to square is rejected below
        means, variances = ([float(f(side)) for side in sides] for f in (np.mean, np.var))
    pair = "({:.6g}, {:.6g})".format(*rs.phases[0])
    for name, side in zip(("plus", "minus"), sides):
        side.sort()
        lo, hi = side[0], side[-1]
        iqr = _percentile((side,), 0.75) - _percentile((side,), 0.25)
        where = f"x_B on the {name} side at phase pair {pair}"
        if iqr and not IQR_RANGE[0] <= iqr <= IQR_RANGE[1]:  # 0 is left to the checks below
            raise ValidationError(
                f"{where} has interquartile range {iqr:.6g}, outside [{IQR_RANGE[0]:g}, "
                f"{IQR_RANGE[1]:g}]; are the records in shot-noise units?")
        if hi - lo > MAX_BINS * iqr:
            raise ValidationError(
                f"{where} spans [{lo:.6g}, {hi:.6g}], over {MAX_BINS} "
                f"times its interquartile range {iqr:.6g}, so no binning resolves "
                f"its peak; is a record a glitch?")
    edges = _fd_edges(sides)
    plus, minus = (_bin_counts(side, edges) for side in sides)
    hists = ConditionalHistograms(
        Histogram(edges, plus + minus), Histogram(edges, plus),
        Histogram(edges, minus), float(rs.x_b.mean()), *means, *variances)
    return hists, sides


# ---------------------------------------------------------------------------
# peak estimation
# ---------------------------------------------------------------------------


def _fit_peaks(edges: np.ndarray, counts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Peak of every row of a (rows, bins) count matrix by the windowed
    log-parabola fit; returns (locations, max bin on the boundary).

    The window spans PEAK_WINDOW spreads, shrunk by the skew, each side of
    the max bin, trimmed to the outermost bins at or above max/LOBE_CUT.
    """
    counts = np.asarray(counts, dtype=float)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    rows, last = np.arange(len(counts)), counts.shape[1] - 1
    total = counts.sum(axis=1)
    dev = centers - ((centers * counts).sum(axis=1) / total)[:, None]
    sd = np.sqrt((dev ** 2 * counts).sum(axis=1) / total)
    z = np.divide(dev, sd[:, None], out=np.zeros_like(dev), where=sd[:, None] > 0)
    skew = (z * z * z * counts).sum(axis=1) / total
    i0 = counts.argmax(axis=1)
    boundary = (i0 == 0) | (i0 == last)
    half = np.maximum(1, np.rint(PEAK_WINDOW * sd / (1.0 + np.abs(skew))
                                 / width).astype(int))
    # each row's bins at the offsets -h..h from its max bin, h the widest half
    h = half.max()
    offsets = np.arange(-h, h + 1)
    cols = i0[:, None] + offsets
    c = np.take_along_axis(counts, np.clip(cols, 0, last), axis=1)
    keep = ((np.abs(offsets) <= half[:, None]) & (cols >= 0) & (cols <= last)
            & (c >= c[:, h, None] / LOBE_CUT))
    # the window runs from the first kept bin to the last
    occupied = (np.logical_or.accumulate(keep, axis=1) & (c > 0)
                & np.logical_or.accumulate(keep[:, ::-1], axis=1)[:, ::-1])
    first = cols[rows, occupied.argmax(axis=1)]
    final = cols[rows, 2 * h - occupied[:, ::-1].argmax(axis=1)]
    # fewer than 3 occupied window bins: the three-point parabola at the max
    c_l, c_0, c_r = c[:, h - 1], c[:, h], c[:, h + 1]
    den = c_l - 2 * c_0 + c_r
    off = np.divide(0.5 * (c_l - c_r), den, out=np.zeros_like(den), where=den != 0)
    x0 = centers[i0]
    loc = np.where(boundary, x0, x0 + off * width)
    fit = ~boundary & (occupied.sum(axis=1) >= 3)
    if fit.any():
        # count-weighted least squares on log counts, about each max bin
        w = np.where(occupied[fit], c[fit], 0.0)
        powers = (offsets * width)[:, None] ** np.arange(5)
        sums = np.concatenate([w, w * np.log(np.where(w > 0, w, 1.0))]) @ powers
        try:
            coef = np.linalg.solve(sums[:len(w), [[0, 1, 2], [1, 2, 3], [2, 3, 4]]],
                                   sums[len(w):, :3, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericError("singular system in peak fit") from exc
        # no downward curvature: the max bin; else the vertex, within the window
        curved = coef[:, 2] < 0
        shift = -coef[:, 1] / (2.0 * np.where(curved, coef[:, 2], -1.0))
        loc[fit] = np.where(curved, np.clip(x0[fit] + shift, centers[first[fit]],
                                            centers[final[fit]]), x0[fit])
    return loc, boundary


def estimate_peak(hist: Histogram, rng: np.random.Generator,
                  n_boot: int = BOOTSTRAP_DEFAULT) -> PeakEstimate:
    """Peak location of a histogram with a bootstrap standard error: the
    spread of n_boot >= 2 multinomial redraws of the bin counts (the
    record bootstrap, as records enter only through the counts), located
    with the histogram itself in one batched fit."""
    _check_settings(n_boot=n_boot)
    _check_peaked(hist)
    total = hist.total
    reps = rng.multinomial(total, hist.counts / total, size=n_boot)
    locs, boundary = _fit_peaks(hist.edges, np.vstack([hist.counts, reps]))
    return PeakEstimate(location=float(locs[0]), std_error=float(locs[1:].std()),
                        boundary=bool(boundary[0]))


def _check_peaked(hist: Histogram) -> None:
    if (hist.counts > 0).sum() < 3:
        raise InsufficientDataError("need at least 3 occupied bins")


@contextmanager
def _naming(where: str, kind=InsufficientDataError):
    """Append where, the pair or depth, to an error of kind raised inside."""
    try:
        yield
    except kind as exc:
        raise type(exc)(f"{exc} {where}") from exc


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------


def _merge_bins(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent bins until each merged bin's expected count is at
    least CHI2_MIN_EXPECTED in both samples; a short tail joins the last."""
    n_min, total = min(r.sum(), s.sum()), r.sum() + s.sum()
    starts, acc = [0], 0
    for i, pooled in enumerate(r + s):
        acc += pooled
        if acc > 0 and n_min * acc / total >= CHI2_MIN_EXPECTED:
            starts.append(i + 1)
            acc = 0
    # the last start opens the tail, or lies past the end
    starts = starts[:-1] or [0]
    return (np.add.reduceat(r, starts).astype(float),
            np.add.reduceat(s, starts).astype(float))


def chi_square_two_sample(hist_r: Histogram, hist_s: Histogram) -> ChiSquareResult:
    """Two-sample chi-square on a common binning.

    Counts are scaled for unequal totals; tail bins are merged until every
    merged bin has expected count >= CHI2_MIN_EXPECTED; dof = merged bins - 1.
    """
    if len(hist_r.counts) != len(hist_s.counts) or not np.allclose(
            hist_r.edges, hist_s.edges):
        raise ValidationError("histograms must share their binning")
    r, s = _merge_bins(hist_r.counts, hist_s.counts)
    if len(r) < 2:
        raise InsufficientDataError("fewer than 2 merged bins")
    n_r, n_s = r.sum(), s.sum()
    if n_r == 0 or n_s == 0:
        raise InsufficientDataError("empty sample in chi-square")
    k_r = np.sqrt(n_s / n_r)
    k_s = np.sqrt(n_r / n_s)
    pooled = r + s
    stat = float((((k_r * r - k_s * s) ** 2) / pooled).sum())
    dof = len(r) - 1
    p = float(chdtrc(dof, stat))
    return ChiSquareResult(statistic=stat, dof=dof, p_value=p,
                           merged_bins=len(r))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _check_settings(k_min: float = K_MIN_DEFAULT, alpha: float = CHI2_ALPHA,
                    n_boot: int = BOOTSTRAP_DEFAULT) -> None:
    """A ValidationError naming the first bad setting of a verdict: k_min
    must be a finite number > 0, alpha lie in (0, 1) and n_boot be an
    integer >= 2."""
    require_finite(locals(), "k_min")
    if k_min <= 0:
        raise ValidationError(f"k_min must be a finite number > 0, got {k_min}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(n_boot, (int, np.integer)) or n_boot < 2:
        raise ValidationError(f"n_boot (bootstrap replicates) must be an "
                              f"integer >= 2, got {n_boot!r}")


def _pair_stats(rs: RecordSet, theta_a: float, theta_b: float, threshold: float,
                streams, n_boot: int, where: str | None = None) -> PairStats:
    """The verify statistics of one phase pair's records, the plus side
    bootstrapped on the item's stream 0 and the minus side on its stream 1
    (_streams).  Too-few-records errors end with where, else the pair."""
    with _naming(where or f"at phase pair ({theta_a:.6g}, {theta_b:.6g})"):
        hists, sides = _bin_sides(rs, threshold)
        peak_p, peak_m = (estimate_peak(estimate_density(side), streams(k), n_boot)
                          for k, side in enumerate(sides))
        chi2 = chi_square_two_sample(hists.plus, hists.minus)
    delta = peak_p.location - peak_m.location
    sigma = float(np.hypot(peak_p.std_error, peak_m.std_error))
    k = abs(delta) / sigma if sigma > 0 else np.inf
    return PairStats(theta_a=theta_a, theta_b=theta_b, delta=delta,
                     sigma_delta=sigma, k=float(k), chi2=chi2,
                     n_plus=hists.plus.total, n_minus=hists.minus.total, hists=hists)


def _pairs_present(rs: RecordSet, shown: int = 8) -> str:
    """The phase pairs a record set holds, for an error message, with a
    hint when the stored phases look like degrees."""
    keys = rs.pair_keys()
    listed = ", ".join(f"({ta:.6g}, {tb:.6g})" for ta, tb in keys[:shown])
    if len(keys) > shown:
        listed += f" and {len(keys) - shown} more"
    text = f"the records hold phase pairs {listed or 'none'}"
    if any(abs(t) > 2.0 * np.pi for key in keys for t in key):
        text += ("; phases are stored in radians, but some exceed 2*pi: "
                 "were they written in degrees?")
    return text


def verdict_gaussian(rs: RecordSet, threshold: float = 0.0,
                     k_min: float = K_MIN_DEFAULT, seed: int = 0,
                     n_boot: int = BOOTSTRAP_DEFAULT,
                     pairs=CANONICAL_PAIRS) -> DiscordVerdict:
    """Peak-separation verdict over the four canonical phase pairs.

    Requires records for every requested pair with sample sizes matching
    within 10%.  Decides "discordant" when any pair's separation is at
    least k_min bootstrap standard errors; the per-pair chi-square between
    the two conditional histograms is reported as a diagnostic.  Pair i
    bootstraps as item i of seed; pairs of at least CHUNK records run on the
    process's CPUs, smaller ones on the calling thread, as a second thread
    saves them little time and makes that time vary with the load on the
    other CPU.  Results and the first error come back in pair order.
    """
    _check_settings(k_min=k_min, n_boot=n_boot)
    subsets = []
    for theta_a, theta_b in pairs:
        sub = rs.select_pair(theta_a, theta_b)
        if len(sub) == 0:
            raise ValidationError(
                f"missing records for phase pair ({theta_a:.6g}, {theta_b:.6g})"
                f"; {_pairs_present(rs)}"
            )
        subsets.append((theta_a, theta_b, sub))
    sizes = np.array([len(s) for _, _, s in subsets], dtype=float)
    if sizes.max() > 1.1 * sizes.min():
        raise ValidationError(
            f"pair sample sizes differ by more than 10%: {sizes.astype(int).tolist()}"
        )
    per_pair = tuple(_starmap(_pair_stats, [
        (sub, ta, tb, threshold, _streams(seed, i), n_boot)
        for i, (ta, tb, sub) in enumerate(subsets)], pool=sizes.min() >= CHUNK))
    discordant = any(p.k >= k_min for p in per_pair)
    return DiscordVerdict(per_pair=per_pair, k_min=k_min, threshold=threshold,
                          decision="discordant" if discordant else "not-detected")


def verdict_mixture(rs: RecordSet, threshold: float,
                    alpha: float = CHI2_ALPHA) -> MixtureVerdict:
    """Chi-square verdict for non-Gaussian mixtures at one phase pair.

    Compares each sign-conditioned histogram of the B outcome against the
    unconditional one on a common binning; "discordant" when either side's
    p-value drops below alpha.  Peak and mean shifts per side are reported
    as diagnostics; the peaks are located without a bootstrap.  Records at
    more than one phase pair are bad input.
    """
    _check_settings(alpha=alpha)
    if len(rs) and len(rs.select_pair(*rs.phases[0])) < len(rs):
        raise ValidationError("the mixture verdict takes records at one phase "
                              f"pair; {_pairs_present(rs)}")
    hists = _bin_sides(rs, threshold)[0]
    with _naming("at phase pair ({:.6g}, {:.6g})".format(*rs.phases[0])):
        _check_peaked(hists.whole)
        chi2s = []
        for hist_side in (hists.plus, hists.minus):
            chi2s.append(chi_square_two_sample(hist_side, hists.whole))
            _check_peaked(hist_side)
    # the peaks of the whole histogram and of each side, one fitted row each
    locs = _fit_peaks(hists.whole.edges, np.vstack(
        [hists.whole.counts, hists.plus.counts, hists.minus.counts]))[0]
    variances = (hists.var_plus, hists.var_minus)
    sides = tuple(SideReport(sign, chi2, float(loc) - float(locs[0]),
                             mean - hists.mean, variance)
                  for sign, chi2, loc, mean, variance in zip(
                      (1, -1), chi2s, locs[1:], (hists.mean_plus, hists.mean_minus),
                      variances))
    discordant = any(s.chi2.p_value < alpha for s in sides)
    return MixtureVerdict(
        sides=sides,
        decision="discordant" if discordant else "not-detected",
        alpha=alpha,
        threshold=threshold,
        variance_ratio=float(max(variances) / min(variances)),
        hists=hists,
    )


# ---------------------------------------------------------------------------
# modulation-depth sweep
# ---------------------------------------------------------------------------


def sweep_modulation(depths, n: int, seed: int,
                     n_boot: int = BOOTSTRAP_DEFAULT) -> list[dict]:
    """Simulate a phase-modulated beam split on a balanced splitter over a
    list of depths; per depth, take verify's delta and sigma_delta of that
    depth's records (_pair_stats) and attach the analytic value.

    Modulation rides on the p quadrature and both stations measure it
    (theta = pi/2), matching the locked-quadrature protocol.  Depth i
    draws and bootstraps as item i of seed.  Depths run on the process's CPUs;
    rows and the first error come back in depth order.
    """
    depths = np.asarray(list(depths), dtype=float)
    if depths.size == 0:
        raise ValidationError("depths must be one or more numbers, got []")
    for depth in depths:
        require_finite({"depths": depth}, "depths", low=0.0, high=MAX_DEPTH)
    return _starmap(_sweep_row, [(depth, n, _streams(seed, i), n_boot)
                                 for i, depth in enumerate(depths)])


def _sweep_row(depth: float, n: int, streams, n_boot: int) -> dict:
    half_pi = np.pi / 2.0
    state = split_balanced(modulated_beam(0.0, depth))
    form = joint_marginal_form(state, half_pi, half_pi)
    rs = RecordSet(*_draw([(n, streams, _gaussian_chunk(form))]), [(half_pi, half_pi)], [n])
    where = f"at depth {depth:.6g}"
    with _naming(where, EmptySideError):
        stats = _pair_stats(rs, half_pi, half_pi, 0.0, streams, n_boot, where)
    return {
        "depth": float(depth),
        "delta": stats.delta,
        "sigma_delta": stats.sigma_delta,
        "delta_analytic": float(analytic_peak_separation(form)),
        "n": int(n),
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def verdict_to_json(verdict: DiscordVerdict, provenance: dict) -> str:
    """Strict JSON, with the record file's provenance under "meta"; a
    pair's "k" is null exactly when its sigma_delta is 0."""
    doc = {
        "decision": verdict.decision,
        "k_min": verdict.k_min,
        "threshold": verdict.threshold,
        "pairs": [
            {
                "theta_A": p.theta_a,
                "theta_B": p.theta_b,
                "delta": p.delta,
                "sigma_delta": p.sigma_delta,
                "k": None if np.isinf(p.k) else p.k,
                "chi2_p": p.chi2.p_value,
            }
            for p in verdict.per_pair
        ],
        "meta": provenance,
    }
    return dump_document(doc, allow_nan=False)


def mixture_verdict_to_json(verdict: MixtureVerdict, provenance: dict) -> str:
    """Strict JSON, with the record file's provenance under "meta"."""
    doc = {
        "decision": verdict.decision,
        "alpha": verdict.alpha,
        "threshold": verdict.threshold,
        "variance_ratio": verdict.variance_ratio,
        "sides": [
            {
                "sign": s.sign,
                "chi2_p": s.chi2.p_value,
                "chi2_statistic": s.chi2.statistic,
                "chi2_dof": s.chi2.dof,
                "peak_shift": s.peak_shift,
                "mean_shift": s.mean_shift,
                "variance": s.variance,
            }
            for s in verdict.sides
        ],
        "meta": provenance,
    }
    return dump_document(doc, allow_nan=False)


def sweep_to_csv(rows: list[dict], path) -> None:
    write_table(path, {name: [r[name] for r in rows] for name in
                       ("depth", "delta", "sigma_delta", "delta_analytic", "n")})
