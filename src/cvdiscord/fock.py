"""Truncated number-basis numerics for the method's edge cases.

Two bipartite states are built here.  One is classical on mode B (zero
discord under B measurements) yet produces a clear peak separation in the
sign-conditioned B marginals, so peak separation alone must not be read
as a discord witness for non-Gaussian states.  The other carries nonzero
discord through non-commuting B components (thermal against squeezed
vacuum) while both conditional marginals peak at exactly zero, so the
absence of separation proves nothing either.

Position eigenfunctions are in shot-noise units, as the rest of the
package: the vacuum marginal is a Gaussian of variance 1.  The sign
projectors, quadrature moments and marginal peaks that certify a state are
closed forms on the number basis, a peak the root of its slope; grids serve
only the plotted marginals and the bracket of each peak.  A density matrix
must be finite, Hermitian and of unit trace, with no eigenvalue below
EIGEN_TOL, which holds exactly when H - EIGEN_TOL * I has a Cholesky factor
(H its Hermitian part); no eigenvalues are computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSplitError, TruncationError, ValidationError,
                     require_finite)
from .marginals import _bracketed_root

DIM_DEFAULT = 20
DIM_MAX = 40
TAIL_TOL = 1e-8
GRID_SPACING = 0.01  # in shot-noise units
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
EIGEN_TOL = -1e-8
# off-diagonal B-block entries up to this size count as zero in verify_classical_on_b
CLASSICAL_TOL = 1e-8


def default_grid(dim: int) -> np.ndarray:
    """Read-only symmetric grid of spacing GRID_SPACING past the classical
    turning point of |dim-1>, plus a margin for the tails, so covering
    every number state up to dim."""
    n_half = int(math.ceil((math.sqrt(2.0 * dim + 1.0) + 5.0) * math.sqrt(2.0)
                           / GRID_SPACING))
    xs = np.arange(-n_half, n_half + 1) * GRID_SPACING
    xs.setflags(write=False)
    return xs


def oscillator_eigenfunctions(dim: int, xs: np.ndarray) -> np.ndarray:
    """Position eigenfunctions psi_n(x) for n < dim, one row per n.

    Normalized so each |psi_n|^2 integrates to 1 in x; the vacuum row
    squared is a Gaussian of variance 1.
    """
    xs = np.asarray(xs, dtype=float)
    scale = math.sqrt(2.0)
    u = xs / scale
    psi = np.empty((dim, len(xs)))
    psi[0] = np.exp(-0.5 * u * u) / (np.pi ** 0.25 * math.sqrt(scale))
    if dim > 1:
        psi[1] = math.sqrt(2.0) * u * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = (math.sqrt(2.0 / (n + 1)) * u * psi[n]
                      - math.sqrt(n / (n + 1.0)) * psi[n - 1])
    return psi


# ---------------------------------------------------------------------------
# single-mode constructors
# ---------------------------------------------------------------------------


def _truncate(build, dim: int | None, name: str, what: str) -> np.ndarray:
    """The amplitudes of (amplitudes, tail mass) = build(d) at the first
    size d, dim or else the default then DIM_MAX, whose tail is below
    TAIL_TOL; else a TruncationError naming the parameter name."""
    for d in (dim,) if dim is not None else (DIM_DEFAULT, DIM_MAX):
        amplitudes, tail = build(d)
        if tail < TAIL_TOL:
            return amplitudes
    raise TruncationError(f"{name} must fit the truncated Fock basis: {what} "
                          f"needs dim > {d}")


def coherent_fock(alpha: complex, dim: int | None = None) -> np.ndarray:
    """Truncated coherent state vector, renormalized.

    Truncation must leave tail mass below TAIL_TOL; with dim unset the
    size escalates from the default before giving up.
    """
    require_finite({"alpha": abs(alpha)}, "alpha")  # alpha may be complex

    def build(d):
        c = np.empty(d, dtype=complex)
        c[0] = 1.0
        for n in range(1, d):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        c *= math.exp(-0.5 * abs(alpha) ** 2)
        return c, 1.0 - float(np.vdot(c, c).real)

    c = _truncate(build, dim, "alpha", f"coherent state |alpha|={abs(alpha):.3g}")
    return c / math.sqrt(np.vdot(c, c).real)


def thermal_fock(nbar: float, dim: int | None = None) -> np.ndarray:
    """Truncated thermal density matrix (diagonal), renormalized."""
    require_finite(locals(), "nbar", low=0.0)
    ratio = nbar / (nbar + 1.0)
    # nbar 0: 0.0 ** 0 is 1
    p = _truncate(lambda d: (ratio ** np.arange(d) / (nbar + 1.0), ratio ** d),
                  dim, "nbar", f"thermal state nbar={nbar:.3g}")
    return np.diag(p / p.sum()).astype(complex)


def squeezed_vacuum_fock(r: float, dim: int | None = None) -> np.ndarray:
    """Truncated squeezed vacuum vector, renormalized.

    Positive r squeezes the x quadrature: the marginal variance is
    exp(-2r).
    """
    require_finite(locals(), "r")

    def build(d):
        c = np.zeros(d, dtype=complex)
        c[0] = 1.0 / math.sqrt(math.cosh(r))
        amp = c[0]
        for m in range(0, (d - 1) // 2):
            amp = amp * (-math.tanh(r)) * math.sqrt((2 * m + 1) / (2 * m + 2.0))
            c[2 * m + 2] = amp
        return c, 1.0 - float(np.vdot(c, c).real)

    c = _truncate(build, dim, "r", f"squeezed vacuum r={r:.3g}")
    return c / math.sqrt(np.vdot(c, c).real)


def density_from_vector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# bipartite container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockDensityMatrix:
    """Bipartite density matrix on a truncated A x B number basis.

    The matrix is indexed A-major (row a*dim_b + j), matching np.kron of
    single-mode operators.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValidationError("density matrix has non-finite entries")
        d = self.dim_a * self.dim_b
        if m.shape != (d, d):
            raise ValidationError(f"matrix shape {m.shape} does not match dims ({d}, {d})")
        h = m.conj().T  # m's conjugate transpose, then in place H - EIGEN_TOL * I
        if np.abs(m - h).max() > HERMITIAN_TOL:
            raise ValidationError("density matrix is not Hermitian")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} is not 1")
        h += m
        h *= 0.5
        h.flat[::d + 1] -= EIGEN_TOL
        try:  # no eigenvalue below EIGEN_TOL: H - EIGEN_TOL * I is positive definite
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise ValidationError("density matrix has a negative eigenvalue") from None
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def tensor(self) -> np.ndarray:
        """View indexed [a, j, b, k] = <a, j| rho |b, k>."""
        d = (self.dim_a, self.dim_b)
        return self.matrix.reshape(d + d)

    def reduced_a(self) -> np.ndarray:
        return np.einsum("ajbj->ab", self.tensor)

    def reduced_b(self) -> np.ndarray:
        return np.einsum("ajak->jk", self.tensor)


def bipartite_from_parts(parts, dim_a: int, dim_b: int) -> FockDensityMatrix:
    """Weighted sum of product terms (weight, rho_A, rho_B)."""
    d = dim_a * dim_b
    m = np.zeros((d, d), dtype=complex)
    for weight, rho_a, rho_b in parts:
        m += weight * np.kron(rho_a, rho_b)
    return FockDensityMatrix(dim_a, dim_b, m)


# ---------------------------------------------------------------------------
# sign projectors and conditioning
# ---------------------------------------------------------------------------


def sign_projectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Number-basis projectors onto x >= 0 and x < 0.

    For m != n, the Wronskian identity of phi_n'' = (u^2 - 2n - 1) phi_n,
    u = x / sqrt(2), gives the positive side as [phi_m(0) phi_n'(0) -
    phi_n(0) phi_m'(0)] / (2 (n - m)), where the ladder recurrences give
    phi_n'(0) = sqrt(2n) phi_{n-1}(0); its diagonal is 1/2.  The negative
    side is parity times the positive one; the entries with m + n even are
    0, so the two sum to the identity exactly.
    """
    value = np.zeros(dim)  # phi_n(0)
    value[0] = np.pi ** -0.25
    for n in range(1, dim - 1):
        value[n + 1] = -math.sqrt(n / (n + 1.0)) * value[n - 1]
    n = np.arange(dim)
    slope = np.sqrt(2.0 * n) * np.r_[0.0, value[:-1]]
    gap = n - n[:, None] + np.eye(dim, dtype=int)  # n - m; the diagonal is set below
    plus = (np.outer(value, slope) - np.outer(slope, value)) / (2.0 * gap)
    np.fill_diagonal(plus, 0.5)
    parity = (-1.0) ** (n[:, None] + n)
    return plus, parity * plus


def condition_b_on_sign(state: FockDensityMatrix) -> tuple[tuple[np.ndarray, float], ...]:
    """The reduced B states conditioned on x_A >= 0 and on x_A < 0, each
    with its probability, from one build of the sign projectors."""
    sides = []
    for sign, proj in zip((1, -1), sign_projectors(state.dim_a)):
        raw = np.einsum("ajbk,ba->jk", state.tensor, proj)
        if (prob := float(raw.trace().real)) < 1e-12:
            raise DegenerateSplitError(f"conditioning probability {prob:.3g} on sign {sign:+d}")
        rho = raw / prob
        sides.append((0.5 * (rho + rho.conj().T), prob))
    return tuple(sides)


# ---------------------------------------------------------------------------
# homodyne marginals and their peaks
# ---------------------------------------------------------------------------


def homodyne_marginal_fock(rho_b: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """x-quadrature density of a single-mode state at the points xs."""
    rho_b = np.asarray(rho_b, dtype=complex)
    psi = oscillator_eigenfunctions(len(rho_b), xs)
    return np.einsum("mx,mn,nx->x", psi, rho_b, psi, optimize=True).real


def marginal_peak(rho_b: np.ndarray, near: float) -> float:
    """The x at which the x-quadrature density f of a single-mode state
    peaks, within GRID_SPACING of near: the root of f' = 2 Re psi'^T rho
    psi, with psi_n' = (sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}) / 2 from
    the ladder recurrences and psi_n'' = (x^2/4 - n - 1/2) psi_n."""
    rho_b = np.asarray(rho_b, dtype=complex)
    n = np.arange(len(rho_b))

    def slope(x):
        psi = oscillator_eigenfunctions(len(rho_b) + 1, [x])[:, 0]
        d1 = 0.5 * (np.sqrt(n) * np.r_[0.0, psi[:-2]] - np.sqrt(n + 1.0) * psi[1:])
        psi = psi[:-1]
        d2 = (0.25 * x * x - n - 0.5) * psi
        return (2.0 * (d1 @ rho_b @ psi).real,
                2.0 * (d2 @ rho_b @ psi + d1 @ rho_b @ d1).real)

    return _bracketed_root(slope, near - GRID_SPACING, near + GRID_SPACING)


# ---------------------------------------------------------------------------
# counterexample states
# ---------------------------------------------------------------------------


def _superposition_01(dim: int, sign: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[:2] = (1.0 / math.sqrt(2.0), sign / math.sqrt(2.0))
    return vec


def build_ce_zero_discord(alpha: complex = 1.0) -> FockDensityMatrix:
    """Equal mixture of |alpha><alpha| x |+><+| and |-alpha><-alpha| x |-><-|
    with |+-> = (|0> +- |1>)/sqrt(2) in a B basis of DIM_DEFAULT states.

    Classical on B in the {|+>, |->} basis, hence zero discord under B
    measurements, yet sign-conditioning on A separates the B marginal
    peaks.
    """
    parts = [(0.5, density_from_vector(coherent_fock(a)),
              density_from_vector(_superposition_01(DIM_DEFAULT, sign)))
             for a, sign in ((alpha, 1), (-alpha, -1))]
    return bipartite_from_parts(parts, len(parts[0][1]), DIM_DEFAULT)


def build_ce_hidden_discord(nbar: float = 1.0, r: float = 0.5) -> FockDensityMatrix:
    """Equal mixture of |+><+| x thermal(nbar) and |-><-| x squeezed(r)
    with |+-> = (|0> +- |1>)/sqrt(2) on A.

    The two B components do not commute, so the state carries discord,
    but both are zero-mean with symmetric marginals: the conditional
    peaks coincide at the origin and only the widths differ.  The two A
    components are distinguishable, so that sign-conditioning on A
    actually selects between the B components.
    """
    th = thermal_fock(nbar)
    sq = density_from_vector(squeezed_vacuum_fock(r))
    db = max(th.shape[0], sq.shape[0])
    th, sq = (_pad_density(rho, db) for rho in (th, sq))
    parts = [(0.5, density_from_vector(_superposition_01(2, +1)), th),
             (0.5, density_from_vector(_superposition_01(2, -1)), sq)]
    return bipartite_from_parts(parts, 2, db)


def _pad_density(rho: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    out[:rho.shape[0], :rho.shape[1]] = rho
    return out


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def quadrature_moments(rho: np.ndarray) -> tuple[float, float]:
    """(Tr rho x, Tr rho x^2 - mean^2) of a single-mode state, x = a +
    a^dagger built one number state larger, so that x^2 is exact on the
    truncated state."""
    x = np.diag(np.sqrt(np.arange(1.0, len(rho) + 1)), k=1)
    x += x.T
    rho = _pad_density(rho, len(x))
    mean = float(np.trace(rho @ x).real)
    return mean, float(np.trace(rho @ x @ x).real) - mean ** 2


def commutator_norm(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Frobenius norm of the commutator of two equal-size matrices."""
    rho1, rho2 = (np.asarray(rho, dtype=complex) for rho in (rho1, rho2))
    if rho1.shape != rho2.shape:
        raise ValidationError(f"dimension mismatch: {rho1.shape} vs {rho2.shape}")
    return float(np.linalg.norm(rho1 @ rho2 - rho2 @ rho1))


def verify_classical_on_b(state: FockDensityMatrix, basis: np.ndarray) -> bool:
    """True iff the state is block-diagonal on B in the given basis, to
    within CLASSICAL_TOL, i.e. of the form sum_j p_j rho_{A|j} x |b_j><b_j|.

    basis holds one B vector per row and must be orthonormal and
    complete.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (state.dim_b, state.dim_b):
        raise ValidationError("basis must hold dim_B vectors of length dim_B")
    gram = basis @ basis.conj().T
    if np.abs(gram - np.eye(state.dim_b)).max() > 1e-10:
        raise ValidationError("basis is not orthonormal")
    # <b_i| rho |b_l> blocks on the B side, axes (i, l, a, b)
    blocks = np.einsum("ij,ajbk,lk->ilab", basis.conj(), state.tensor, basis,
                       optimize=True)
    off_diagonal = ~np.eye(state.dim_b, dtype=bool)
    return float(np.abs(blocks[off_diagonal]).max(initial=0.0)) <= CLASSICAL_TOL


def superposition_basis(dim: int) -> np.ndarray:
    """Orthonormal B basis {|+>, |->, |2>, |3>, ...}."""
    basis = np.eye(dim, dtype=complex)
    basis[0] = _superposition_01(dim, +1)
    basis[1] = _superposition_01(dim, -1)
    return basis


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def fock_state_to_json(state: FockDensityMatrix) -> str:
    entries = [[float(z.real), float(z.imag)] for z in state.matrix.ravel()]
    return json.dumps({
        "dim_A": state.dim_a,
        "dim_B": state.dim_b,
        "v0": 1.0,  # the unit: shot-noise units, vacuum variance 1
        "entries": entries,
    }, sort_keys=True)

