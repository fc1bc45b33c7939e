"""Gaussian bipartite states of two optical modes.

Quadratures are ordered (x_A, p_A, x_B, p_B) and expressed in shot-noise
units: the vacuum has variance 1 in every quadrature.  Any other vacuum
convention v0 is a rescale of every quadrature by sqrt(v0).
A state is its mean vector plus a 4x4 covariance matrix with blocks

    sigma = [[A, C], [C^T, B]]

where A, B are the 2x2 single-mode blocks and C holds the intermode
correlations.  A bipartite Gaussian state has zero quantum discord exactly
when C = 0, so every nonzero C block is a detection target.  Every
modulation depth and displacement, in every scheme and the sweep, lies
within MAX_DEPTH, so every state built from them passes the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite

# tolerances of the physicality checks (validate_covariance)
SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = -1e-9
# the largest modulation depth and |displacement| of every scheme and the
# sweep: every state built within it passes validate_covariance, and near 2e3
# the rounding of a splitter or rotation first breaks the uncertainty bound
MAX_DEPTH = 1e3


def validate_covariance(cov) -> list[str]:
    """The checks that a candidate covariance matrix, 4x4 or 2x2 for one
    mode, fails among symmetric, positive_definite and uncertainty_bound, in
    that order; empty for a physical covariance.  Symmetry allows an
    asymmetry of SYMMETRY_TOL times max(1, the largest |entry|), as the
    rounding of a splitter or rotation grows with the entries.  Positivity
    and the uncertainty bound (the smallest eigenvalue of cov + i*Omega at
    least PHYSICALITY_TOL) stay absolute: a relative bound would pass
    diag(1e8, 1e-9), whose product 0.1 breaks the bound tenfold.  A matrix
    that is not square, of even dimension and finite is a ValidationError.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValidationError(f"covariance must be square with even dimension, got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValidationError("covariance has non-finite entries")

    n_modes, scale = cov.shape[0] // 2, np.abs(cov).max()
    sym_part = 0.5 * (cov + cov.T)
    omega = np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    phys = np.linalg.eigvalsh(sym_part + 1j * omega)
    checks = {
        "symmetric": np.abs(cov - cov.T).max() <= SYMMETRY_TOL * max(1.0, scale),
        "positive_definite": np.linalg.eigvalsh(sym_part).min() > 0,
        "uncertainty_bound": phys.min() >= PHYSICALITY_TOL,
    }
    return [name for name, passed in checks.items() if not passed]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _set_moments(state, dim: int, what: str) -> None:
    """Freeze a state's means and covariance, once they have dim entries
    per axis and are finite and physical; what prefixes the messages."""
    means, cov = _freeze(state.means), _freeze(state.cov)
    if means.shape != (dim,):
        raise ValidationError(f"{what}means must have shape ({dim},), got {means.shape}")
    if not np.all(np.isfinite(means)):
        raise ValidationError("means have non-finite entries")
    if cov.shape != (dim, dim):
        raise ValidationError(f"covariance must have shape ({dim}, {dim}), got {cov.shape}")
    failures = validate_covariance(cov)
    if failures:
        raise ValidationError(f"unphysical {what}covariance: {failures}")
    object.__setattr__(state, "means", means)
    object.__setattr__(state, "cov", cov)


@dataclass(frozen=True)
class SingleModeState:
    """Gaussian state of one mode: 2-vector mean, 2x2 covariance."""

    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _set_moments(self, 2, "single-mode ")


@dataclass(frozen=True)
class GaussianBipartiteState:
    """Two-mode Gaussian state in (x_A, p_A, x_B, p_B) ordering."""

    means: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _set_moments(self, 4, "")

    @property
    def block_a(self) -> np.ndarray:
        return self.cov[:2, :2]

    @property
    def block_b(self) -> np.ndarray:
        return self.cov[2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        return self.cov[:2, 2:]


def vacuum_single() -> SingleModeState:
    return SingleModeState(np.zeros(2), np.eye(2))


def tensor(mode_a: SingleModeState, mode_b: SingleModeState) -> GaussianBipartiteState:
    """Uncorrelated two-mode state from two single-mode states."""
    means = np.concatenate([mode_a.means, mode_b.means])
    zero = np.zeros((2, 2))
    cov = np.block([[mode_a.cov, zero], [zero, mode_b.cov]])
    return GaussianBipartiteState(means, cov)


def modulated_beam(depth_x: float, depth_p: float) -> SingleModeState:
    """Vacuum carrying independent Gaussian displacement noise on each
    quadrature.

    A modulation depth d adds classical noise of variance d^2, so the beam
    has quadrature variances 1 + d^2.  Depths must lie in [0, MAX_DEPTH].
    """
    require_finite(locals(), "depth_x", "depth_p", low=0.0, high=MAX_DEPTH)
    cov = np.diag([1.0 + depth_x**2, 1.0 + depth_p**2])
    return SingleModeState(np.zeros(2), cov)


def split_balanced(mode: SingleModeState) -> GaussianBipartiteState:
    """Send a single-mode state through a balanced splitter with vacuum on
    the idle port.

    For input variances (V_x, V_p) the output blocks are
    A = B = diag((V_x+1)/2, (V_p+1)/2) and C = diag((V_x-1)/2, (V_p-1)/2):
    any classical noise above vacuum becomes a positive intermode
    correlation.
    """
    half_sum = 0.5 * (mode.cov + np.eye(2))
    half_diff = 0.5 * (mode.cov - np.eye(2))
    cov = np.block([[half_sum, half_diff], [half_diff.T, half_sum]])
    m = mode.means / np.sqrt(2.0)
    return GaussianBipartiteState(np.concatenate([m, m]), cov)


def _check_transmissivity(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmissivity must lie in [0, 1], got {eta}")


def beam_splitter_matrix(eta: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter with amplitude transmissivity eta.

    Forward action on the quadrature operators, applied identically to x and
    p: mode 1 keeps eta of itself minus sqrt(1-eta^2) of mode 2, mode 2
    gains sqrt(1-eta^2) of mode 1.  A coherent displacement d on port 1
    therefore exits as (eta*d, sqrt(1-eta^2)*d) with equal signs.
    """
    _check_transmissivity(eta)
    eta_t = np.sqrt(1.0 - eta * eta)
    return np.kron([[eta, -eta_t], [eta_t, eta]], np.eye(2))


def apply_beam_splitter(state: GaussianBipartiteState,
                        eta: float) -> GaussianBipartiteState:
    """Mix the two modes of a bipartite state on a beam splitter of
    amplitude transmissivity eta in [0, 1]."""
    s = beam_splitter_matrix(eta)
    return GaussianBipartiteState(s @ state.means, s @ state.cov @ s.T)


def rotation_matrix(theta_a: float, theta_b: float) -> np.ndarray:
    """Block-diagonal local-oscillator rotation for both modes."""
    out = np.zeros((4, 4))
    for i, th in ((0, theta_a), (2, theta_b)):
        c, s = np.cos(th), np.sin(th)
        out[i:i + 2, i:i + 2] = [[c, s], [-s, c]]
    return out


def rotate_local(state: GaussianBipartiteState, theta_a: float,
                 theta_b: float) -> GaussianBipartiteState:
    """Rotate each mode's measured quadrature by its local-oscillator phase.

    theta = 0 measures x, theta = pi/2 measures p.
    """
    u = rotation_matrix(theta_a, theta_b)
    return GaussianBipartiteState(u @ state.means, u @ state.cov @ u.T)


def c_block_is_zero(state: GaussianBipartiteState) -> bool:
    """True when the intermode block vanishes to within 1e-12, i.e. the
    state is a product state with zero discord."""
    return bool(np.abs(state.block_c).max() <= 1e-12)
