"""Analytic joint and conditional homodyne marginals.

For a zero-mean Gaussian state measured at local-oscillator phases
(theta_A, theta_B) the joint density of the two outcomes is

    D(x_A, x_B) = sqrt(lam*mu - nu^2)/pi
                  * exp(-lam x_A^2 - mu x_B^2 + 2 nu x_A x_B)

with (lam, mu, nu) read off the inverse of the rotated (x_A, x_B)
covariance.  The cross coefficient nu vanishes iff the measured pair is
uncorrelated; a nonzero nu splits the two sign-conditioned marginals of
x_B apart, and that peak separation is the discord witness.

Also implements the non-Gaussian analogue: a classical mixture of
coherent/thermal components on the splitter input has output joint density

    D(x1, x2) = D_1(eta x1 + etat x2) * exp(-(eta x2 - etat x1)^2) / sqrt(pi)

in natural units where the vacuum marginal is exp(-x^2)/sqrt(pi); the
module converts to shot-noise units, vacuum variance 1, at the boundary
(x_natural = x / sqrt(2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfc

from .errors import NumericError, ValidationError, require_finite
from .states import GaussianBipartiteState, _check_transmissivity, rotate_local

PEAK_XTOL = 1e-10
PEAK_MAXITER = 200


@dataclass(frozen=True)
class MarginalForm:
    """Exponent coefficients and means of a joint two-outcome density."""

    lam: float
    mu: float
    nu: float
    mean_a: float = 0.0
    mean_b: float = 0.0

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValidationError("diagonal exponent coefficients must be positive")
        if self.det <= 0:
            raise ValidationError("non-integrable exponent: lam*mu - nu^2 <= 0")

    @property
    def det(self) -> float:
        """lam*mu - nu^2, the determinant of the exponent's quadratic form."""
        return self.lam * self.mu - self.nu**2


def joint_marginal_form(state: GaussianBipartiteState, theta_a: float,
                        theta_b: float) -> MarginalForm:
    """Exponent coefficients of the measured (x_A, x_B) joint density.

    Rotates the state, extracts the 2x2 covariance of the measured pair,
    and inverts it: lam = inv[0,0]/2, mu = inv[1,1]/2, nu = -inv[0,1]/2.
    """
    rotated = rotate_local(state, theta_a, theta_b)
    sigma = rotated.cov[np.ix_([0, 2], [0, 2])]
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    if det <= 0:
        raise NumericError("measured-pair covariance is not positive definite")
    inv = np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det
    return MarginalForm(
        lam=inv[0, 0] / 2.0,
        mu=inv[1, 1] / 2.0,
        nu=-inv[0, 1] / 2.0,
        mean_a=rotated.means[0],
        mean_b=rotated.means[2],
    )


def joint_marginal_density(form: MarginalForm, x_a, x_b):
    """Normalized joint density of the two measured outcomes."""
    x_a = np.asarray(x_a, dtype=float) - form.mean_a
    x_b = np.asarray(x_b, dtype=float) - form.mean_b
    norm = np.sqrt(form.det) / np.pi
    val = norm * np.exp(
        -form.lam * x_a**2 - form.mu * x_b**2 + 2.0 * form.nu * x_a * x_b
    )
    return val if val.ndim else float(val)


def marginal_b_density(form: MarginalForm, x_b):
    """Unconditional density of the B outcome."""
    x_b = np.asarray(x_b, dtype=float) - form.mean_b
    s2 = form.det / form.lam
    val = np.sqrt(s2 / np.pi) * np.exp(-s2 * x_b**2)
    return val if val.ndim else float(val)


def side_probability(form: MarginalForm, sign: int, threshold: float = 0.0) -> float:
    """Probability that the A outcome lands on the requested side of the
    threshold."""
    var_a = form.mu / (2.0 * form.det)
    z = (threshold - form.mean_a) / np.sqrt(2.0 * var_a)
    p_plus = 0.5 * erfc(z)
    return float(p_plus if sign > 0 else 1.0 - p_plus)


def conditional_marginal_density(form: MarginalForm, x_b, sign: int,
                                 threshold: float = 0.0):
    """Density of the B outcome conditioned on the A outcome's side of a
    threshold cut (sign > 0 means x_A >= threshold).

    Normalized to unit integral.  At threshold 0 on a zero-mean form:

        D(x_B | +) = sqrt((lam*mu - nu^2)/(pi*lam))
                     * exp(-((mu*lam - nu^2)/lam) x_B^2)
                     * (1 + erf(nu x_B / sqrt(lam)))

    and the minus side mirrors it, so the equal-weight mixture of the two
    sides reproduces the unconditional marginal exactly.
    """
    if sign == 0:
        raise ValidationError("sign must be nonzero")
    sgn = 1 if sign > 0 else -1
    xb = np.asarray(x_b, dtype=float) - form.mean_b
    t = threshold - form.mean_a
    lam, nu = form.lam, form.nu
    # tail weight of the A-side Gaussian at fixed x_B
    arg = (lam * t - nu * xb) / np.sqrt(lam)
    half_tail = 0.5 * (erfc(arg) if sgn > 0 else erfc(-arg))
    prob = side_probability(form, sgn, threshold)
    if prob <= 0:
        raise NumericError("conditioning side has zero probability")
    val = marginal_b_density(form, x_b) * half_tail / prob
    return val if val.ndim else float(val)


def analytic_peak_separation(form: MarginalForm) -> float:
    """Distance between the modes of the two sign-conditioned marginals,
    Delta = argmax D(x_B | +) - argmax D(x_B | -), at threshold 0 on a
    zero-mean form.  D(x|-) is D(-x|+), so Delta is twice the plus mode.

    Antisymmetric in nu and exactly zero at nu = 0.
    """
    lam, mu, nu = form.lam, form.mu, form.nu
    if nu == 0.0:
        return 0.0
    s2 = form.det / lam
    c = nu / np.sqrt(lam)

    def dlog(x):
        # d/dx log D(x | +) up to the vanishing-at-mode factor
        return -2.0 * s2 * x + (2.0 * c / np.sqrt(np.pi)) * np.exp(-c * c * x * x) / (
            1.0 + erf(c * x)
        )

    # the derivative is positive at 0 (toward the correlation sign) and
    # eventually negative; bracket outward then bisect
    direction = 1.0 if nu > 0 else -1.0
    sigma_b = np.sqrt(mu / (2.0 * form.det))
    hi = direction * 10.0 * sigma_b
    if dlog(hi) * direction > 0:
        raise NumericError("failed to bracket the conditional mode")
    lo, hi = (0.0, hi) if direction > 0 else (hi, 0.0)
    try:
        return 2.0 * float(brentq(dlog, lo, hi, xtol=PEAK_XTOL, maxiter=PEAK_MAXITER))
    except (ValueError, RuntimeError) as exc:
        raise NumericError("conditional mode search failed") from exc


# ---------------------------------------------------------------------------
# classical mixtures on the splitter input
# ---------------------------------------------------------------------------

ARCSINE_NODES_START = 32
ARCSINE_NODES_MAX = 4096
ARCSINE_ATOL = 1e-13
ARCSINE_BLOCK = 2048


@dataclass(frozen=True)
class CoherentPoint:
    """Single coherent component displaced by a real alpha along x: a
    Gaussian marginal of vacuum width centered at alpha."""

    weight: float
    alpha: float

    def __post_init__(self):
        if isinstance(self.alpha, complex):
            raise ValidationError(f"alpha must be a real displacement, "
                                  f"got {self.alpha}")
        require_finite(self, "alpha")

    def d1(self, u):
        return np.exp(-((u - self.alpha) ** 2)) / np.sqrt(np.pi)


@dataclass(frozen=True)
class ThermalComponent:
    """Thermal component with mean occupation nbar: a zero-mean Gaussian
    marginal of variance (2*nbar + 1)/2."""

    weight: float
    nbar: float

    def __post_init__(self):
        require_finite(self, "nbar", low=0.0)

    def d1(self, u):
        var = (2.0 * self.nbar + 1.0) / 2.0
        return np.exp(-(u**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


@dataclass(frozen=True)
class ArcsineComponent:
    """Coherent amplitude alpha0*cos(phi) with phi uniform: the arcsine
    displacement distribution left by asynchronous sine modulation, with a
    marginal peaked near +-alpha0."""

    weight: float
    alpha0: float

    def d1(self, u) -> np.ndarray:
        """The phase average mean_phi exp(-(u - alpha0 cos phi)^2)/sqrt(pi),
        by the periodic trapezoid rule, which converges exponentially for
        this analytic integrand (Trefethen & Weideman, SIAM Review 56 (2014)
        385).  The node count starts at ARCSINE_NODES_START and doubles,
        reusing the nodes already evaluated, until two successive rules
        agree to ARCSINE_ATOL on a block of points.
        """
        flat = np.asarray(u, dtype=float).ravel()
        out = np.empty_like(flat)
        for start in range(0, flat.size, ARCSINE_BLOCK):
            block = flat[start:start + ARCSINE_BLOCK, None]
            turns = np.arange(ARCSINE_NODES_START) / ARCSINE_NODES_START
            n, total, coarse = 0, 0.0, np.inf
            while True:
                nodes = self.alpha0 * np.cos(2.0 * np.pi * turns)
                total = total + np.exp(-((block - nodes) ** 2)).sum(axis=1)
                n += turns.size
                fine = total / (n * np.sqrt(np.pi))
                # a NaN point compares False and passes through as NaN
                if not (np.abs(fine - coarse) > ARCSINE_ATOL).any():
                    break
                if n >= ARCSINE_NODES_MAX:
                    raise NumericError(f"arcsine phase average did not "
                                       f"converge in {n} nodes "
                                       f"(alpha0 = {self.alpha0})")
                turns = (np.arange(n) + 0.5) / n
                coarse = fine
            out[start:start + ARCSINE_BLOCK] = fine
        return out.reshape(np.shape(u))


# component.d1(u) is its measured-quadrature marginal in natural units
# (vacuum: exp(-u^2)/sqrt(pi))
Component = CoherentPoint | ThermalComponent | ArcsineComponent


@dataclass(frozen=True)
class PMixtureState:
    """Classical mixture entering a beam splitter of transmissivity eta,
    with vacuum on the idle port."""

    components: tuple[Component, ...]
    eta: float

    def __post_init__(self):
        if not self.components:
            raise ValidationError("mixture needs at least one component")
        _check_transmissivity(self.eta)
        weights = [c.weight for c in self.components]
        if any(w < 0 for w in weights):
            raise ValidationError("component weights must be >= 0")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"component weights must sum to 1, got {total}")

    @property
    def eta_tilde(self) -> float:
        return float(np.sqrt(1.0 - self.eta**2))


def input_marginal_D1(mixture: PMixtureState, x):
    """Measured-quadrature marginal of the splitter input, in shot-noise units:
    the weighted sum of the component marginals d1."""
    x = np.asarray(x, dtype=float)
    scale = np.sqrt(2.0)
    u = x / scale
    total = sum(c.weight * c.d1(u) for c in mixture.components)
    val = total / scale
    return val if np.ndim(val) else float(val)


def output_joint_density(mixture: PMixtureState, x1, x2):
    """Joint density of the two output-mode measured quadratures, in
    shot-noise units.

    In natural units D(u1, u2) = D_1(eta u1 + etat u2)
    * exp(-(eta u2 - etat u1)^2) / sqrt(pi); the idle-port vacuum fixes the
    orthogonal combination to vacuum width while the input marginal rides
    on the transmitted combination.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scale = np.sqrt(2.0)
    u1 = x1 / scale
    u2 = x2 / scale
    eta, eta_t = mixture.eta, mixture.eta_tilde
    along = eta * u1 + eta_t * u2
    across = eta * u2 - eta_t * u1
    d1 = sum(c.weight * c.d1(along) for c in mixture.components)
    val = d1 * np.exp(-(across**2)) / np.sqrt(np.pi) / scale**2
    return val if np.ndim(val) else float(val)
