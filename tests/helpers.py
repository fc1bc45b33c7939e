"""Shared fixtures and independent oracles for the test suite.

The reference covariance matrix below was measured on a split beam with
strong independent modulation on both quadratures; the frozen numbers next
to it were derived by hand from the closed-form expressions (cross
coefficient of the exponent, peak separation of the sign-conditioned
marginals) and pin the library against regressions.

Random physical states are built by a reverse Williamson construction:
draw symplectic eigenvalues >= 1, conjugate with a random symplectic
assembled from local rotations, single-mode squeezes and a mode-mixing
splitter.  Every state so built is physical by construction.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import erf

from cvdiscord import (
    GaussianBipartiteState,
    RecordSet,
    beam_splitter_matrix,
    default_grid,
    joint_marginal_form,
    oscillator_eigenfunctions,
    rotation_matrix,
)
from cvdiscord.errors import NumericError, ValidationError
from cvdiscord.fock import GRID_SPACING
from cvdiscord.marginals import PEAK_XTOL

# measured on a split beam with both quadratures strongly modulated,
# shot-noise units, (x_A, p_A, x_B, p_B) ordering
MEASURED_COV = np.array([
    [15.96, 0.0, 17.58, 0.0],
    [0.0, 14.37, 0.0, 13.55],
    [17.58, 0.0, 22.62, 0.0],
    [0.0, 13.55, 0.0, 14.81],
])

# frozen closed-form values for MEASURED_COV
MEASURED_NU_00 = 0.16917249821011995
MEASURED_NU_90_90 = 0.23188395876401602
MEASURED_DELTA_00 = 4.825757488518451
MEASURED_DELTA_90_90 = 3.8738058790416363

# frozen analytic separations for a p-modulated balanced split measured
# at theta = pi/2 on both stations, indexed by modulation depth
SWEEP_FROZEN = {
    0.2: 0.031599,
    1.0: 0.640815,
    2.0: 1.683394,
    4.5: 3.475633,
    5.0: 3.722643,
}


def measured_state() -> GaussianBipartiteState:
    return GaussianBipartiteState(np.zeros(4), MEASURED_COV)


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def symplectic_form() -> np.ndarray:
    """Two-mode symplectic form in (x_A, p_A, x_B, p_B) ordering."""
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = w
    out[2:, 2:] = w
    return out


def number_mean(state: np.ndarray) -> float:
    """<n> of a vector or density matrix in the number basis."""
    state = np.asarray(state)
    n = np.arange(state.shape[0])
    if state.ndim == 1:
        return float((n * np.abs(state) ** 2).sum())
    return float((n * np.diagonal(state).real).sum())


def simpson_sign_projectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Number-basis projectors onto x >= 0 and x < 0 by quadrature: Simpson
    integrals of eigenfunction products over the non-negative half of
    default_grid(dim), padded to an even interval count, symmetrized; the
    negative side is parity times the positive one."""
    n_half = (len(default_grid(dim)) - 1) // 2
    n_half += n_half % 2
    xs = np.arange(n_half + 1) * GRID_SPACING
    psi = oscillator_eigenfunctions(dim, xs)
    plus = simpson(psi[:, None, :] * psi[None, :, :], x=xs, axis=-1)
    plus = 0.5 * (plus + plus.T)
    parity = (-1.0) ** (np.arange(dim)[:, None] + np.arange(dim)[None, :])
    return plus, parity * plus


def grid_moments(xs: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a density sampled on the uniform points xs, by
    Simpson quadrature."""
    norm = simpson(density, x=xs)
    mean = simpson(xs * density, x=xs) / norm
    var = simpson((xs - mean) ** 2 * density, x=xs) / norm
    return float(mean), float(var)


def grid_peak(xs: np.ndarray, density: np.ndarray) -> float:
    """Peak of a density sampled on the uniform points xs: the argmax,
    refined by a log-parabola through it and its two neighbours."""
    i = int(np.argmax(density))
    if i == 0 or i == len(density) - 1:
        return float(xs[i])
    tri = density[i - 1:i + 2]
    if np.any(tri <= 0):
        return float(xs[i])
    y = np.log(tri)
    den = y[0] - 2.0 * y[1] + y[2]
    off = 0.5 * (y[0] - y[2]) / den if den != 0 else 0.0
    return float(xs[i] + off * (xs[1] - xs[0]))


def brentq_peak_separation(form) -> float:
    """Twice the mode of D(x_B | +) on a zero-mean form, by scipy's brentq
    on d/dx log D over [0, 10 sd(x_B)] (mirrored for nu < 0) to PEAK_XTOL."""
    if form.nu == 0.0:
        return 0.0
    s2 = form.det / form.lam
    c = form.nu / np.sqrt(form.lam)

    def dlog(x):
        return -2.0 * s2 * x + (2.0 * c / np.sqrt(np.pi)) * np.exp(-c * c * x * x) / (
            1.0 + erf(c * x))

    hi = np.copysign(10.0 * np.sqrt(form.mu / (2.0 * form.det)), form.nu)
    return 2.0 * brentq(dlog, *sorted((0.0, hi)), xtol=PEAK_XTOL)


# ---------------------------------------------------------------------------
# random physical states
# ---------------------------------------------------------------------------


def random_single_cov(rng, nu_max: float = 2.5, r_max: float = 0.5) -> np.ndarray:
    """Random physical single-mode covariance: squeezed thermal, rotated."""
    nu = rng.uniform(1.001, nu_max)
    r = rng.uniform(0.0, r_max)
    rot = rotation2(rng.uniform(0.0, 2.0 * np.pi))
    return rot @ np.diag([nu * np.exp(2 * r), nu * np.exp(-2 * r)]) @ rot.T


def random_product_state(rng) -> GaussianBipartiteState:
    cov = np.zeros((4, 4))
    cov[:2, :2] = random_single_cov(rng)
    cov[2:, 2:] = random_single_cov(rng)
    return GaussianBipartiteState(np.zeros(4), cov)


def _random_symplectic(rng, r_max: float = 0.5) -> np.ndarray:
    def passive():
        mix = beam_splitter_matrix(rng.uniform(0.1, 0.995))
        loc = rotation_matrix(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        return loc @ mix

    r1, r2 = rng.uniform(0.0, r_max, size=2)
    squeeze = np.diag([np.exp(r1), np.exp(-r1), np.exp(r2), np.exp(-r2)])
    return passive() @ squeeze @ passive()


def random_bipartite_state(rng, min_c: float | None = None,
                           nu_max: float = 2.5, r_max: float = 0.5,
                           max_tries: int = 500) -> GaussianBipartiteState:
    """Random physical two-mode state; optionally insist the cross block
    have an entry of magnitude at least min_c."""
    for _ in range(max_tries):
        d1, d2 = rng.uniform(1.001, nu_max, size=2)
        core = np.diag([d1, d1, d2, d2])
        s = _random_symplectic(rng, r_max)
        cov = s @ core @ s.T
        cov = 0.5 * (cov + cov.T)
        if min_c is not None and np.max(np.abs(cov[:2, 2:])) < min_c:
            continue
        return GaussianBipartiteState(np.zeros(4), cov)
    raise AssertionError("no state satisfied the cross-correlation floor")


def random_diag_block_state(rng, max_tries: int = 500) -> GaussianBipartiteState:
    """Random physical state whose A, B and C blocks are all diagonal."""
    from cvdiscord import ValidationError

    for _ in range(max_tries):
        a1, a2, b1, b2 = rng.uniform(1.2, 8.0, size=4)
        c1 = rng.uniform(-0.9, 0.9) * np.sqrt((a1 - 1.0) * (b1 - 1.0))
        c2 = rng.uniform(-0.9, 0.9) * np.sqrt((a2 - 1.0) * (b2 - 1.0))
        cov = np.diag([a1, a2, b1, b2]).astype(float)
        cov[0, 2] = cov[2, 0] = c1
        cov[1, 3] = cov[3, 1] = c2
        try:
            return GaussianBipartiteState(np.zeros(4), cov)
        except ValidationError:
            continue
    raise AssertionError("no physical diagonal-block state found")


def random_cross_only_state(rng, max_tries: int = 500) -> GaussianBipartiteState:
    """Random physical state whose only cross correlation is x_A with p_B."""
    from cvdiscord import ValidationError

    for _ in range(max_tries):
        a1, a2, b1, b2 = rng.uniform(1.5, 5.0, size=4)
        c = rng.uniform(0.3, 0.9) * np.sqrt((a1 - 1.0) * (b2 - 1.0))
        cov = np.diag([a1, a2, b1, b2]).astype(float)
        cov[0, 3] = cov[3, 0] = c
        try:
            return GaussianBipartiteState(np.zeros(4), cov)
        except ValidationError:
            continue
    raise AssertionError("no physical cross-only state found")


# ---------------------------------------------------------------------------
# record sets
# ---------------------------------------------------------------------------


def concat_records(parts: list[RecordSet]) -> RecordSet:
    """The records of parts end to end."""
    columns = zip(*((p.x_a, p.x_b, p.phases, p.counts) for p in parts))
    return RecordSet(*map(np.concatenate, columns))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def nu_forms_from_blocks(cov: np.ndarray) -> dict:
    """Closed-form cross coefficients for diagonal-block covariances."""
    a1, a2 = cov[0, 0], cov[1, 1]
    b1, b2 = cov[2, 2], cov[3, 3]
    c1, c2, c3, c4 = cov[0, 2], cov[0, 3], cov[1, 2], cov[1, 3]
    return {
        "nu_00": c1 / (2.0 * (a1 * b1 - c1**2)),
        "nu_0_90": c2 / (2.0 * (a1 * b2 - c2**2)),
        "nu_90_0": c3 / (2.0 * (a2 * b1 - c3**2)),
        "nu_90_90": c4 / (2.0 * (a2 * b2 - c4**2)),
    }


def wigner_axes(state: GaussianBipartiteState, half_sigmas: float,
                points: int) -> list[np.ndarray]:
    """Per-axis quadrature grids spanning +-half_sigmas standard deviations."""
    sd = np.sqrt(np.diag(state.cov))
    return [state.means[i] + np.linspace(-half_sigmas * sd[i],
                                         half_sigmas * sd[i], points)
            for i in range(4)]


@dataclass(frozen=True)
class NuTable:
    """Cross coefficient nu at the four canonical phase pairs."""

    nu_00: float
    nu_0_90: float
    nu_90_0: float
    nu_90_90: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def max_abs(self) -> float:
        return max(abs(v) for v in self.as_dict().values())


def nu_table(state: GaussianBipartiteState) -> NuTable:
    """nu at the four phase pairs (0,0), (0,90), (90,0), (90,90) degrees."""
    phases = (0.0, np.pi / 2.0)
    return NuTable(*(joint_marginal_form(state, ta, tb).nu
                     for ta in phases for tb in phases))


def wigner_density(state: GaussianBipartiteState, point):
    """Phase-space quasiprobability density at 4-vector points.

    W(x) = exp(-(x - m) sigma^{-1} (x - m)^T / 2) / (4 pi^2 sqrt(det sigma)),
    a normal density over (x_A, p_A, x_B, p_B); Gaussian states have
    non-negative Wigner functions.  Accepts a single 4-vector or an array
    of points with the vector on the last axis.
    """
    point = np.asarray(point, dtype=float)
    if point.shape[-1:] != (4,):
        raise ValidationError(f"points must have a last axis of 4, got {point.shape}")
    det = np.linalg.det(state.cov)
    if det <= 0 or not np.isfinite(det):
        raise NumericError(f"covariance determinant {det} is not usable")
    d = point - state.means
    try:
        sol = np.linalg.solve(state.cov, d[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular covariance in density evaluation") from exc
    val = np.exp(-0.5 * np.sum(d * sol, axis=-1)) / (4.0 * np.pi**2 * np.sqrt(det))
    return val if val.ndim else float(val)


def integrate_wigner_4d(state: GaussianBipartiteState, half_sigmas: float = 9.0,
                        points: int = 81) -> float:
    """Trapezoid integral of the phase-space density over a 4-D box,
    chunked over the first axis to bound memory."""
    axes = wigner_axes(state, half_sigmas, points)
    steps = [ax[1] - ax[0] for ax in axes]
    g1, g2, g3 = np.meshgrid(*axes[1:], indexing="ij")
    inner = np.stack([np.zeros_like(g1), g1, g2, g3], axis=-1)
    total = 0.0
    for i, x0 in enumerate(axes[0]):
        inner[..., 0] = x0
        sheet = wigner_density(state, inner)
        for axis in (2, 1, 0):
            sheet = np.trapezoid(sheet, dx=steps[axis + 1], axis=axis)
        weight = 0.5 if i in (0, points - 1) else 1.0
        total += weight * steps[0] * sheet
    return float(total)


def integrate_marginal_from_wigner(state, theta_a: float, theta_b: float,
                                   x_a: float, x_b: float,
                                   half_sigmas: float = 9.0,
                                   points: int = 301) -> float:
    """Joint density of the measured quadratures by brute force: rotate the
    state so the measured combinations sit on the x axes, then integrate
    the phase-space density over the two unmeasured axes."""
    from cvdiscord import rotate_local

    rotated = rotate_local(state, theta_a, theta_b)
    sd_pa = np.sqrt(rotated.cov[1, 1])
    sd_pb = np.sqrt(rotated.cov[3, 3])
    pa = rotated.means[1] + np.linspace(-half_sigmas * sd_pa,
                                        half_sigmas * sd_pa, points)
    pb = rotated.means[3] + np.linspace(-half_sigmas * sd_pb,
                                        half_sigmas * sd_pb, points)
    g1, g2 = np.meshgrid(pa, pb, indexing="ij")
    pts = np.stack([np.full_like(g1, x_a), g1, np.full_like(g2, x_b), g2],
                   axis=-1)
    sheet = wigner_density(rotated, pts)
    return float(np.trapezoid(np.trapezoid(sheet, pb, axis=1), pa, axis=0))


def chi2_gof_2d(x1: np.ndarray, x2: np.ndarray, density, bins: int = 50,
                subsample: int = 3, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of 2-D records against an analytic joint
    density.  Expected counts come from a midpoint subsample of each cell;
    cells below the expectation floor are pooled into one remainder cell.
    """
    n = len(x1)
    e1 = np.linspace(x1.min() - 1e-9, x1.max() + 1e-9, bins + 1)
    e2 = np.linspace(x2.min() - 1e-9, x2.max() + 1e-9, bins + 1)
    observed = np.histogram2d(x1, x2, bins=[e1, e2])[0]

    fine = subsample * bins
    f1 = e1[0] + (np.arange(fine) + 0.5) * (e1[-1] - e1[0]) / fine
    f2 = e2[0] + (np.arange(fine) + 0.5) * (e2[-1] - e2[0]) / fine
    g1, g2 = np.meshgrid(f1, f2, indexing="ij")
    dens = np.asarray(density(g1, g2), dtype=float)
    cell = (e1[1] - e1[0]) * (e2[1] - e2[0])
    expected = dens.reshape(bins, subsample, bins, subsample).mean(axis=(1, 3))
    expected = expected * cell * n

    obs = observed.ravel()
    exp = expected.ravel()
    keep = exp >= min_expected
    # the box covers every sample, so the tail mass pairs with zero counts
    obs_rest = obs[~keep].sum()
    exp_rest = exp[~keep].sum() + max(0.0, n - exp.sum())
    obs_k, exp_k = obs[keep], exp[keep]
    if exp_rest > min_expected:
        obs_k = np.append(obs_k, obs_rest)
        exp_k = np.append(exp_k, exp_rest)
    stat = float(np.sum((obs_k - exp_k) ** 2 / exp_k))
    dof = len(obs_k) - 1
    return float(stats.chi2.sf(stat, dof))


# ---------------------------------------------------------------------------
# scalar peak-fit reference
# ---------------------------------------------------------------------------


def reference_moments(centers: np.ndarray, counts: np.ndarray
                      ) -> tuple[float, float, float]:
    """Mean, sd and skew of one histogram, one bin at a time in numpy."""
    total = counts.sum()
    mean = float((centers * counts).sum() / total)
    var = float((((centers - mean) ** 2) * counts).sum() / total)
    sd = np.sqrt(var) if var > 0 else 0.0
    if sd > 0:
        skew = float(((((centers - mean) / sd) ** 3) * counts).sum() / total)
    else:
        skew = 0.0
    return mean, sd, skew


def reference_peak(edges: np.ndarray, counts: np.ndarray
                   ) -> tuple[float, bool]:
    """The windowed log-parabola peak of one histogram, fitted on its own
    with loops and a per-histogram solve on the raw bin centres; returns
    (location, on_boundary)."""
    from cvdiscord.verifier import LOBE_CUT, PEAK_WINDOW

    centers = 0.5 * (edges[:-1] + edges[1:])
    _, sd, skew = reference_moments(centers, counts)
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
        c_l, c_0, c_r = counts[i0 - 1], counts[i0], counts[i0 + 1]
        den = float(c_l - 2 * c_0 + c_r)
        off = 0.5 * (c_l - c_r) / den if den != 0 else 0.0
        return float(centers[i0] + off * width), False
    xs = x[occupied]
    cs = c[occupied]
    design = np.stack([np.ones_like(xs), xs, xs * xs], axis=1)
    weighted = design * cs[:, None]
    coef = np.linalg.solve(weighted.T @ design, weighted.T @ np.log(cs))
    if coef[2] >= 0:
        return float(centers[i0]), False
    vertex = -coef[1] / (2.0 * coef[2])
    return float(min(max(vertex, xs[0]), xs[-1])), False
