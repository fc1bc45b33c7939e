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

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import (EmptySideError, InsufficientDataError, NumericError,
                     ValidationError)
from .marginals import analytic_peak_separation, joint_marginal_form
from .sampler import RecordSet, sample_gaussian

MIN_BINS = 50
MAX_BINS = 400
BOOTSTRAP_DEFAULT = 200
K_MIN_DEFAULT = 3.0
CHI2_ALPHA = 0.05
# window half-width of the peak fit, in units of the side's spread
PEAK_WINDOW = 0.65
# bins below max/LOBE_CUT are excluded so the fit stays on the main lobe
LOBE_CUT = 8.0

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
    """One pair's B outcomes binned whole and per side, on shared edges."""

    whole: Histogram
    plus: Histogram
    minus: Histogram
    mean: float
    var_plus: float
    var_minus: float


@dataclass(frozen=True)
class PeakEstimate:
    location: float
    std_error: float
    method: str
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
    meta: dict = field(default_factory=dict)


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
    meta: dict = field(default_factory=dict)
    hists: ConditionalHistograms | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# splitting and binning
# ---------------------------------------------------------------------------


def _sign_split(rs: RecordSet, threshold: float, where: str = ""):
    """The plus-side mask x_A >= threshold and the B outcomes of each side;
    an empty side is bad input, named by the threshold and where."""
    plus_mask = rs.x_a >= threshold
    n_plus = int(plus_mask.sum())
    if n_plus == 0 or n_plus == len(rs):
        raise EmptySideError(
            f"threshold {threshold} leaves one side empty{where} "
            f"({n_plus} of {len(rs)} records on the plus side)"
        )
    return plus_mask, rs.x_b[plus_mask], rs.x_b[~plus_mask]


def split_by_threshold(rs: RecordSet, threshold: float = 0.0
                       ) -> tuple[RecordSet, RecordSet]:
    """Partition records on the A outcome: x_A >= threshold goes to the
    plus side, the rest to the minus side."""
    plus_mask, plus_b, minus_b = _sign_split(rs, threshold)
    minus_mask = ~plus_mask
    plus = RecordSet(rs.theta_a[plus_mask], rs.theta_b[plus_mask],
                     rs.x_a[plus_mask], plus_b, dict(rs.meta))
    minus = RecordSet(rs.theta_a[minus_mask], rs.theta_b[minus_mask],
                      rs.x_a[minus_mask], minus_b, dict(rs.meta))
    return plus, minus


def _values(data) -> np.ndarray:
    if isinstance(data, RecordSet):
        return data.x_b
    return np.asarray(data, dtype=float)


def bin_count_fd(values: np.ndarray) -> int:
    """Freedman-Diaconis bin count clamped to [MIN_BINS, MAX_BINS]."""
    span = float(values.max() - values.min())
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = q75 - q25
    if span <= 0 or iqr <= 0:
        return MIN_BINS
    width = 2.0 * iqr / len(values) ** (1.0 / 3.0)
    k = int(np.ceil(span / width)) if width > 0 else MAX_BINS
    return min(max(k, MIN_BINS), MAX_BINS)


def estimate_density(data, bins: int | None = None,
                     edges: np.ndarray | None = None) -> Histogram:
    """Equal-width histogram spanning [min, max] padded by one bin on each
    side; bin count from the clamped Freedman-Diaconis rule unless given."""
    values = _values(data)
    if len(values) == 0:
        raise InsufficientDataError("no records to bin")
    if edges is not None:
        counts, _ = np.histogram(values, bins=edges)
        return Histogram(np.asarray(edges, dtype=float), counts)
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        width = 1.0
        lo, hi = lo - 0.5, hi + 0.5
        k = 1
    else:
        k = bins if bins is not None else bin_count_fd(values)
        width = (hi - lo) / k
    full = np.linspace(lo - width, hi + width, k + 3)
    counts, _ = np.histogram(values, bins=full)
    return Histogram(full, counts)


def _bin_sides(x_b, plus_b, minus_b) -> ConditionalHistograms:
    """Bin x_b whole by the Freedman-Diaconis rule and the plus side on its
    edges; minus = whole - plus is exact, as the range holds every value."""
    whole = estimate_density(x_b)
    plus = estimate_density(plus_b, edges=whole.edges)
    return ConditionalHistograms(
        whole, plus, Histogram(whole.edges, whole.counts - plus.counts),
        float(x_b.mean()), float(plus_b.var()), float(minus_b.var()))


# ---------------------------------------------------------------------------
# peak estimation
# ---------------------------------------------------------------------------


def _hist_moments(centers: np.ndarray, counts: np.ndarray
                  ) -> tuple[float, float, float]:
    total = counts.sum()
    mean = float((centers * counts).sum() / total)
    var = float((((centers - mean) ** 2) * counts).sum() / total)
    sd = np.sqrt(var) if var > 0 else 0.0
    if sd > 0:
        skew = float(((((centers - mean) / sd) ** 3) * counts).sum() / total)
    else:
        skew = 0.0
    return mean, sd, skew


def _peak_from_counts(edges: np.ndarray, counts: np.ndarray, sd: float,
                      skew: float) -> tuple[float, bool]:
    """Windowed log-parabola peak of one histogram; returns (location,
    on_boundary)."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    i0 = int(np.argmax(counts))
    if i0 == 0 or i0 == len(counts) - 1:
        return float(centers[i0]), True
    half = max(1, int(round(PEAK_WINDOW * sd / (1.0 + abs(skew)) / width)))
    lo = max(0, i0 - half)
    hi = min(len(counts), i0 + half + 1)
    floor = counts[i0] / LOBE_CUT
    while lo < i0 and counts[lo] < floor:
        lo += 1
    while hi - 1 > i0 and counts[hi - 1] < floor:
        hi -= 1
    x = centers[lo:hi]
    c = counts[lo:hi].astype(float)
    occupied = c > 0
    if occupied.sum() < 3:
        # classic three-point parabola through the max bin
        c_l, c_0, c_r = counts[i0 - 1], counts[i0], counts[i0 + 1]
        den = float(c_l - 2 * c_0 + c_r)
        off = 0.5 * (c_l - c_r) / den if den != 0 else 0.0
        return float(centers[i0] + off * width), False
    xs = x[occupied]
    cs = c[occupied]
    design = np.stack([np.ones_like(xs), xs, xs * xs], axis=1)
    weighted = design * cs[:, None]
    try:
        coef = np.linalg.solve(weighted.T @ design, weighted.T @ np.log(cs))
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular system in peak fit") from exc
    if coef[2] >= 0:
        # no downward curvature resolved; the max bin is the best guess
        return float(centers[i0]), False
    vertex = -coef[1] / (2.0 * coef[2])
    # never report a vertex outside the fitted window
    vertex = min(max(vertex, xs[0]), xs[-1])
    return float(vertex), False


def estimate_peak(hist: Histogram, rng=None,
                  n_boot: int = BOOTSTRAP_DEFAULT) -> PeakEstimate:
    """Peak location of a histogram with a bootstrap standard error.

    The bootstrap redraws the bin counts multinomially (equivalent to
    resampling the records, which enter only through the counts) and
    refits the peak per replicate.
    """
    if (hist.counts > 0).sum() < 3:
        raise InsufficientDataError("need at least 3 occupied bins")
    centers = hist.centers
    _, sd, skew = _hist_moments(centers, hist.counts)
    loc, boundary = _peak_from_counts(hist.edges, hist.counts, sd, skew)
    if rng is None:
        rng = np.random.default_rng(0)
    total = hist.total
    probs = hist.counts / total
    reps = rng.multinomial(total, probs, size=n_boot)
    locs = np.empty(n_boot)
    for b in range(n_boot):
        counts_b = reps[b]
        _, sd_b, skew_b = _hist_moments(centers, counts_b)
        locs[b], _ = _peak_from_counts(hist.edges, counts_b, sd_b, skew_b)
    return PeakEstimate(location=loc, std_error=float(locs.std()),
                        method="bin-parabolic", boundary=boundary)


def separation_statistic(rs: RecordSet, threshold: float = 0.0,
                         seed: int = 0, n_boot: int = BOOTSTRAP_DEFAULT
                         ) -> tuple[float, float, PeakEstimate, PeakEstimate]:
    """Peak separation Delta between the sign-conditioned B marginals,
    with its bootstrap standard error."""
    ss = np.random.SeedSequence((seed, 0xB007))
    return _separation(rs, threshold, ss, n_boot)[1]


def _separation(rs: RecordSet, threshold: float, ss: np.random.SeedSequence,
                n_boot: int, where: str = ""):
    """Split on the A outcome and fit both B peaks, bootstrapping each side
    with its own stream spawned from ss; returns ((plus_b, minus_b),
    (delta, sigma, peak_plus, peak_minus))."""
    _, plus_b, minus_b = _sign_split(rs, threshold, where)
    rng_p, rng_m = [np.random.default_rng(s) for s in ss.spawn(2)]
    peak_p = estimate_peak(estimate_density(plus_b), rng_p, n_boot)
    peak_m = estimate_peak(estimate_density(minus_b), rng_m, n_boot)
    delta = peak_p.location - peak_m.location
    sigma = float(np.hypot(peak_p.std_error, peak_m.std_error))
    return (plus_b, minus_b), (delta, sigma, peak_p, peak_m)


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------


def _merge_bins(r: np.ndarray, s: np.ndarray, min_expected: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent bins until each merged bin's expected count is at
    least min_expected in both samples."""
    n_r, n_s = r.sum(), s.sum()
    total = n_r + n_s
    out_r, out_s = [], []
    acc_r = acc_s = 0
    for cr, cs in zip(r, s):
        acc_r += cr
        acc_s += cs
        pooled = acc_r + acc_s
        if pooled > 0 and min(n_r, n_s) * pooled / total >= min_expected:
            out_r.append(acc_r)
            out_s.append(acc_s)
            acc_r = acc_s = 0
    if acc_r or acc_s:
        if out_r:
            out_r[-1] += acc_r
            out_s[-1] += acc_s
        else:
            out_r.append(acc_r)
            out_s.append(acc_s)
    return np.array(out_r, dtype=float), np.array(out_s, dtype=float)


def chi_square_two_sample(hist_r: Histogram, hist_s: Histogram,
                          min_expected: float = 5.0) -> ChiSquareResult:
    """Two-sample chi-square on a common binning.

    Counts are scaled for unequal totals; tail bins are merged until every
    merged bin has expected count >= min_expected; dof = merged bins - 1.
    """
    if len(hist_r.counts) != len(hist_s.counts) or not np.allclose(
            hist_r.edges, hist_s.edges):
        raise ValidationError("histograms must share their binning")
    r, s = _merge_bins(hist_r.counts, hist_s.counts, min_expected)
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
    p = float(stats.chi2.sf(stat, dof))
    return ChiSquareResult(statistic=stat, dof=dof, p_value=p,
                           merged_bins=len(r))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _pair_stats(rs: RecordSet, theta_a: float, theta_b: float,
                threshold: float, seed: int, n_boot: int,
                pair_index: int) -> PairStats:
    ss = np.random.SeedSequence((seed, pair_index))
    (plus_b, minus_b), (delta, sigma, _, _) = _separation(
        rs, threshold, ss, n_boot,
        f" at phase pair ({theta_a:.6g}, {theta_b:.6g})")
    k = abs(delta) / sigma if sigma > 0 else np.inf
    hists = _bin_sides(rs.x_b, plus_b, minus_b)
    return PairStats(theta_a=theta_a, theta_b=theta_b, delta=delta,
                     sigma_delta=sigma, k=float(k),
                     chi2=chi_square_two_sample(hists.plus, hists.minus),
                     n_plus=len(plus_b), n_minus=len(minus_b), hists=hists)


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
    the two conditional histograms is reported as a diagnostic.
    """
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
    per_pair = tuple(
        _pair_stats(sub, ta, tb, threshold, seed, n_boot, i)
        for i, (ta, tb, sub) in enumerate(subsets)
    )
    discordant = any(p.k >= k_min for p in per_pair)
    return DiscordVerdict(
        per_pair=per_pair,
        decision="discordant" if discordant else "not-detected",
        k_min=k_min,
        threshold=threshold,
        meta=dict(rs.meta),
    )


def verdict_mixture(rs: RecordSet, threshold: float,
                    alpha: float = CHI2_ALPHA, seed: int = 0,
                    n_boot: int = BOOTSTRAP_DEFAULT) -> MixtureVerdict:
    """Chi-square verdict for non-Gaussian mixtures at one phase pair.

    Compares each sign-conditioned histogram of the B outcome against the
    unconditional one on a common binning; "discordant" when either side's
    p-value drops below alpha.  Peak and mean shifts per side are reported
    as diagnostics.
    """
    _, plus_b, minus_b = _sign_split(rs, threshold)
    hists = _bin_sides(rs.x_b, plus_b, minus_b)
    ss = np.random.SeedSequence((seed, 0xA11))
    rngs = [np.random.default_rng(s) for s in ss.spawn(3)]
    peak_all = estimate_peak(hists.whole, rngs[0], n_boot)
    sides = []
    for sign, hist_side, side_b, variance, rng in (
            (1, hists.plus, plus_b, hists.var_plus, rngs[1]),
            (-1, hists.minus, minus_b, hists.var_minus, rngs[2])):
        chi2 = chi_square_two_sample(hist_side, hists.whole)
        peak_side = estimate_peak(hist_side, rng, n_boot)
        sides.append(SideReport(
            sign=sign,
            chi2=chi2,
            peak_shift=peak_side.location - peak_all.location,
            mean_shift=float(side_b.mean()) - hists.mean,
            variance=variance,
        ))
    variance_ratio = max(sides[0].variance, sides[1].variance) / min(
        sides[0].variance, sides[1].variance)
    discordant = any(s.chi2.p_value < alpha for s in sides)
    return MixtureVerdict(
        sides=tuple(sides),
        decision="discordant" if discordant else "not-detected",
        alpha=alpha,
        threshold=threshold,
        variance_ratio=float(variance_ratio),
        meta=dict(rs.meta),
        hists=hists,
    )


# ---------------------------------------------------------------------------
# modulation-depth sweep
# ---------------------------------------------------------------------------


def sweep_modulation(depths, n: int, seed: int, eta: float = 1.0 / np.sqrt(2.0),
                     v0: float = 1.0, n_boot: int = BOOTSTRAP_DEFAULT,
                     workers: int | None = None) -> list[dict]:
    """Simulate a phase-modulated beam split on a balanced splitter over a
    list of depths; per depth, measure the peak separation and attach the
    analytic value.

    Modulation rides on the p quadrature and both stations measure it
    (theta = pi/2), matching the locked-quadrature protocol.
    """
    from .states import modulated_beam, split_balanced

    depths = np.asarray(list(depths), dtype=float)
    if np.any(depths < 0):
        raise ValidationError("depths must be non-negative")
    half_pi = np.pi / 2.0
    rows = []
    for i, depth in enumerate(depths):
        state = split_balanced(modulated_beam(0.0, depth, v0))
        form = joint_marginal_form(state, half_pi, half_pi)
        rs = sample_gaussian(state, half_pi, half_pi, n, seed=int(seed + i))
        delta, sigma, _, _ = separation_statistic(rs, 0.0, seed=int(seed + i),
                                                  n_boot=n_boot)
        rows.append({
            "depth": float(depth),
            "delta": float(delta),
            "sigma_delta": float(sigma),
            "delta_analytic": float(analytic_peak_separation(form)),
            "n": int(n),
        })
    return rows


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def verdict_to_json(verdict: DiscordVerdict) -> str:
    """Strict JSON; a pair's "k" is null exactly when its sigma_delta is 0."""
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
        "meta": verdict.meta,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def mixture_verdict_to_json(verdict: MixtureVerdict) -> str:
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
        "meta": verdict.meta,
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def histogram_to_csv(hist: Histogram, path) -> None:
    data = np.column_stack([hist.edges[:-1], hist.edges[1:], hist.counts])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header="left_edge,right_edge,count", comments="")


def sweep_to_csv(rows: list[dict], path) -> None:
    data = np.array([
        [r["depth"], r["delta"], r["sigma_delta"], r["delta_analytic"], r["n"]]
        for r in rows
    ])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header="depth,delta,sigma_delta,delta_analytic,n", comments="")
