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
module converts to the configured v0 units at the boundary
(x_natural = x / sqrt(2 v0)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfc

from .errors import NumericError, ValidationError
from .states import DEFAULT_V0, GaussianBipartiteState, rotate_local

PEAK_XTOL = 1e-10
PEAK_MAXITER = 200


@dataclass(frozen=True)
class MarginalForm:
    """Exponent coefficients of a joint two-outcome density, plus the
    phases that produced it."""

    lam: float
    mu: float
    nu: float
    theta_a: float
    theta_b: float
    mean_a: float = 0.0
    mean_b: float = 0.0

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValidationError("diagonal exponent coefficients must be positive")
        if self.lam * self.mu - self.nu**2 <= 0:
            raise ValidationError("non-integrable exponent: lam*mu - nu^2 <= 0")


@dataclass(frozen=True)
class NuTable:
    """Cross coefficient nu at the four canonical phase pairs."""

    nu_00: float
    nu_0_90: float
    nu_90_0: float
    nu_90_90: float

    def as_dict(self) -> dict:
        return {
            "nu_00": self.nu_00,
            "nu_0_90": self.nu_0_90,
            "nu_90_0": self.nu_90_0,
            "nu_90_90": self.nu_90_90,
        }

    def max_abs(self) -> float:
        return max(abs(v) for v in self.as_dict().values())


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
        theta_a=theta_a,
        theta_b=theta_b,
        mean_a=rotated.means[0],
        mean_b=rotated.means[2],
    )


def nu_table(state: GaussianBipartiteState) -> NuTable:
    """nu at the four phase pairs (0,0), (0,90), (90,0), (90,90) degrees."""
    half_pi = np.pi / 2.0
    return NuTable(
        nu_00=joint_marginal_form(state, 0.0, 0.0).nu,
        nu_0_90=joint_marginal_form(state, 0.0, half_pi).nu,
        nu_90_0=joint_marginal_form(state, half_pi, 0.0).nu,
        nu_90_90=joint_marginal_form(state, half_pi, half_pi).nu,
    )


def joint_marginal_density(form: MarginalForm, x_a, x_b):
    """Normalized joint density of the two measured outcomes."""
    x_a = np.asarray(x_a, dtype=float) - form.mean_a
    x_b = np.asarray(x_b, dtype=float) - form.mean_b
    norm = np.sqrt(form.lam * form.mu - form.nu**2) / np.pi
    val = norm * np.exp(
        -form.lam * x_a**2 - form.mu * x_b**2 + 2.0 * form.nu * x_a * x_b
    )
    return val if val.ndim else float(val)


def marginal_b_density(form: MarginalForm, x_b):
    """Unconditional density of the B outcome."""
    x_b = np.asarray(x_b, dtype=float) - form.mean_b
    s2 = (form.lam * form.mu - form.nu**2) / form.lam
    val = np.sqrt(s2 / np.pi) * np.exp(-s2 * x_b**2)
    return val if val.ndim else float(val)


def side_probability(form: MarginalForm, sign: int, threshold: float = 0.0) -> float:
    """Probability that the A outcome lands on the requested side of the
    threshold."""
    var_a = form.mu / (2.0 * (form.lam * form.mu - form.nu**2))
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
    x = np.asarray(x_b, dtype=float)
    xb = x - form.mean_b
    t = threshold - form.mean_a
    lam, mu, nu = form.lam, form.mu, form.nu
    s2 = (lam * mu - nu**2) / lam
    gauss = np.sqrt(s2 / np.pi) * np.exp(-s2 * xb**2)
    # tail weight of the A-side Gaussian at fixed x_B
    arg = (lam * t - nu * xb) / np.sqrt(lam)
    half_tail = 0.5 * (erfc(arg) if sgn > 0 else erfc(-arg))
    prob = side_probability(form, sgn, threshold)
    if prob <= 0:
        raise NumericError("conditioning side has zero probability")
    val = gauss * half_tail / prob
    return val if val.ndim else float(val)


def _plus_peak(form: MarginalForm) -> float:
    """Mode of the plus-side conditional at threshold 0 (zero-mean form)."""
    lam, mu, nu = form.lam, form.mu, form.nu
    if nu == 0.0:
        return 0.0
    s2 = (lam * mu - nu**2) / lam
    c = nu / np.sqrt(lam)

    def dlog(x):
        # d/dx log D(x | +) up to the vanishing-at-mode factor
        return -2.0 * s2 * x + (2.0 * c / np.sqrt(np.pi)) * np.exp(-c * c * x * x) / (
            1.0 + erf(c * x)
        )

    # the derivative is positive at 0 (toward the correlation sign) and
    # eventually negative; bracket outward then bisect
    direction = 1.0 if nu > 0 else -1.0
    sigma_b = np.sqrt(mu / (2.0 * (lam * mu - nu**2)))
    hi = direction * 10.0 * sigma_b
    if dlog(hi) * direction > 0:
        raise NumericError("failed to bracket the conditional mode")
    lo, hi = (0.0, hi) if direction > 0 else (hi, 0.0)
    try:
        return float(brentq(dlog, lo, hi, xtol=PEAK_XTOL, maxiter=PEAK_MAXITER))
    except (ValueError, RuntimeError) as exc:
        raise NumericError("conditional mode search failed") from exc


def analytic_peak_separation(form: MarginalForm) -> float:
    """Distance between the modes of the two sign-conditioned marginals,
    Delta = argmax D(x_B | +) - argmax D(x_B | -).

    Antisymmetric in nu and exactly zero at nu = 0.
    """
    peak_plus = _plus_peak(form)
    # D(x|-) at nu equals D(x|+) at -nu, so its mode needs no extra flip
    flipped = MarginalForm(form.lam, form.mu, -form.nu, form.theta_a, form.theta_b)
    peak_minus = _plus_peak(flipped)
    return peak_plus - peak_minus


# ---------------------------------------------------------------------------
# classical mixtures on the splitter input
# ---------------------------------------------------------------------------

ARCSINE_NODES_START = 32
ARCSINE_NODES_MAX = 4096
ARCSINE_ATOL = 1e-13
ARCSINE_BLOCK = 2048


@dataclass(frozen=True)
class CoherentPoint:
    """Single coherent component at complex amplitude alpha."""

    weight: float
    alpha: complex

    kind = "coherent"


@dataclass(frozen=True)
class ThermalComponent:
    """Thermal component with mean occupation nbar."""

    weight: float
    nbar: float

    kind = "thermal"

    def __post_init__(self):
        if self.nbar < 0:
            raise ValidationError("thermal occupation must be >= 0")


@dataclass(frozen=True)
class ArcsineComponent:
    """Coherent amplitude alpha0*cos(phi) with phi uniform: the arcsine
    displacement distribution left by asynchronous sine modulation."""

    weight: float
    alpha0: float

    kind = "arcsine"


Component = CoherentPoint | ThermalComponent | ArcsineComponent


@dataclass(frozen=True)
class PMixtureState:
    """Classical mixture entering a beam splitter of transmissivity eta,
    with vacuum on the idle port."""

    components: tuple[Component, ...]
    eta: float
    v0: float = DEFAULT_V0

    def __post_init__(self):
        if not self.components:
            raise ValidationError("mixture needs at least one component")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"transmissivity must lie in [0, 1], got {self.eta}")
        weights = [c.weight for c in self.components]
        if any(w < 0 for w in weights):
            raise ValidationError("component weights must be >= 0")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"component weights must sum to 1, got {total}")

    @property
    def eta_tilde(self) -> float:
        return float(np.sqrt(1.0 - self.eta**2))


def _arcsine_d1_natural(alpha0: float, u) -> np.ndarray:
    """Arcsine marginal in natural units, the phase average
    mean_phi exp(-(u - alpha0 cos phi)^2)/sqrt(pi), by the periodic trapezoid
    rule, which converges exponentially for this analytic integrand
    (Trefethen & Weideman, SIAM Review 56 (2014) 385).  The node count starts
    at ARCSINE_NODES_START and doubles, reusing the nodes already evaluated,
    until two successive rules agree to ARCSINE_ATOL on a block of points.
    """
    flat = np.asarray(u, dtype=float).ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, ARCSINE_BLOCK):
        block = flat[start:start + ARCSINE_BLOCK, None]
        turns = np.arange(ARCSINE_NODES_START) / ARCSINE_NODES_START
        n, total, coarse = 0, 0.0, np.inf
        while True:
            nodes = alpha0 * np.cos(2.0 * np.pi * turns)
            total = total + np.exp(-((block - nodes) ** 2)).sum(axis=1)
            n += turns.size
            fine = total / (n * np.sqrt(np.pi))
            # a NaN point compares False and passes through as NaN
            if not (np.abs(fine - coarse) > ARCSINE_ATOL).any():
                break
            if n >= ARCSINE_NODES_MAX:
                raise NumericError(f"arcsine phase average did not converge "
                                   f"in {n} nodes (alpha0 = {alpha0})")
            turns = (np.arange(n) + 0.5) / n
            coarse = fine
        out[start:start + ARCSINE_BLOCK] = fine
    return out.reshape(np.shape(u))


def _d1_natural(component: Component, u):
    """Measured-quadrature marginal of one input component in natural units
    (vacuum marginal exp(-u^2)/sqrt(pi); coherent alpha centered Re alpha)."""
    u = np.asarray(u, dtype=float)
    if isinstance(component, CoherentPoint):
        m = component.alpha.real
        return np.exp(-((u - m) ** 2)) / np.sqrt(np.pi)
    if isinstance(component, ThermalComponent):
        var = (2.0 * component.nbar + 1.0) / 2.0
        return np.exp(-(u**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    if isinstance(component, ArcsineComponent):
        return _arcsine_d1_natural(component.alpha0, u)
    raise ValidationError(f"unknown component kind {component!r}")


def input_marginal_D1(mixture: PMixtureState, x):
    """Measured-quadrature marginal of the splitter input, in v0 units.

    Weighted sum of component marginals: a coherent point is a Gaussian of
    vacuum width centered at sqrt(2*v0)*Re(alpha); a thermal component is a
    zero-mean Gaussian of variance (2*nbar + 1)*v0; an arcsine component
    averages displaced vacuua over the phase and peaks near
    +-sqrt(2*v0)*alpha0.
    """
    x = np.asarray(x, dtype=float)
    scale = np.sqrt(2.0 * mixture.v0)
    u = x / scale
    total = sum(c.weight * _d1_natural(c, u) for c in mixture.components)
    val = total / scale
    return val if np.ndim(val) else float(val)


def output_joint_density(mixture: PMixtureState, x1, x2):
    """Joint density of the two output-mode measured quadratures, in v0
    units.

    In natural units D(u1, u2) = D_1(eta u1 + etat u2)
    * exp(-(eta u2 - etat u1)^2) / sqrt(pi); the idle-port vacuum fixes the
    orthogonal combination to vacuum width while the input marginal rides
    on the transmitted combination.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    scale = np.sqrt(2.0 * mixture.v0)
    u1 = x1 / scale
    u2 = x2 / scale
    eta, eta_t = mixture.eta, mixture.eta_tilde
    along = eta * u1 + eta_t * u2
    across = eta * u2 - eta_t * u1
    d1 = sum(c.weight * _d1_natural(c, along) for c in mixture.components)
    val = d1 * np.exp(-(across**2)) / np.sqrt(np.pi) / scale**2
    return val if np.ndim(val) else float(val)


def _component_wigner_natural(component: Component, u, w):
    """Phase-space density of one input component in natural units
    (vacuum: exp(-u^2 - w^2)/pi)."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if isinstance(component, CoherentPoint):
        mu, mw = component.alpha.real, component.alpha.imag
        return np.exp(-((u - mu) ** 2) - (w - mw) ** 2) / np.pi
    if isinstance(component, ThermalComponent):
        var = (2.0 * component.nbar + 1.0) / 2.0
        return np.exp(-(u**2 + w**2) / (2.0 * var)) / (2.0 * np.pi * var)
    if isinstance(component, ArcsineComponent):
        return _d1_natural(component, u) * np.exp(-(w**2)) / np.sqrt(np.pi)
    raise ValidationError(f"unknown component kind {component!r}")


def output_wigner_from_P(mixture: PMixtureState, point):
    """Two-mode phase-space density of the splitter output at a 4-vector
    point (x1, p1, x2, p2) in v0 units.

    Each component's input density W_1 is carried onto the transmitted
    combination while the reflected combination picks up a vacuum factor:

        W_out = W_1(eta x1 + etat x2, eta p1 + etat p2)
                * exp(-(eta x2 - etat x1)^2 - (eta p2 - etat p1)^2) / pi.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (4,):
        raise ValidationError(f"point must have shape (4,), got {point.shape}")
    scale = np.sqrt(2.0 * mixture.v0)
    u1, w1, u2, w2 = point / scale
    eta, eta_t = mixture.eta, mixture.eta_tilde
    along_u = eta * u1 + eta_t * u2
    along_w = eta * w1 + eta_t * w2
    across_u = eta * u2 - eta_t * u1
    across_w = eta * w2 - eta_t * w1
    w_in = sum(
        c.weight * _component_wigner_natural(c, along_u, along_w)
        for c in mixture.components
    )
    vac = np.exp(-(across_u**2) - across_w**2) / np.pi
    return float(w_in * vac / scale**4)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mixture_to_json(mixture: PMixtureState) -> str:
    comps = []
    for c in mixture.components:
        if isinstance(c, CoherentPoint):
            comps.append({"kind": "coherent", "weight": c.weight,
                          "alpha": [c.alpha.real, c.alpha.imag]})
        elif isinstance(c, ThermalComponent):
            comps.append({"kind": "thermal", "weight": c.weight, "nbar": c.nbar})
        else:
            comps.append({"kind": "arcsine", "weight": c.weight, "alpha0": c.alpha0})
    return json.dumps({"eta": mixture.eta, "v0": mixture.v0, "components": comps},
                      indent=2)


def mixture_from_json(text: str) -> PMixtureState:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad mixture document: {exc}") from exc
    comps: list[Component] = []
    for entry in doc.get("components", []):
        kind = entry.get("kind")
        if kind == "coherent":
            re, im = entry["alpha"]
            comps.append(CoherentPoint(entry["weight"], complex(re, im)))
        elif kind == "thermal":
            comps.append(ThermalComponent(entry["weight"], entry["nbar"]))
        elif kind == "arcsine":
            comps.append(ArcsineComponent(entry["weight"], entry["alpha0"]))
        else:
            raise ValidationError(f"unknown component kind {kind!r}")
    return PMixtureState(tuple(comps), float(doc["eta"]),
                         float(doc.get("v0", DEFAULT_V0)))


def density_curve_to_csv(path, x, columns: dict) -> None:
    """Write aligned density curves as CSV with an x column."""
    names = ["x"] + list(columns.keys())
    data = np.column_stack([np.asarray(x, dtype=float)]
                           + [np.asarray(v, dtype=float) for v in columns.values()])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def density_curve_to_json(x, columns: dict) -> str:
    doc = {"x": np.asarray(x, dtype=float).tolist()}
    for name, vals in columns.items():
        doc[name] = np.asarray(vals, dtype=float).tolist()
    return json.dumps(doc)
