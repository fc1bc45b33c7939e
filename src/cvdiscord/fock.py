"""Truncated number-basis numerics for the method's edge cases.

Two bipartite states are built here.  One is classical on mode B (zero
discord under B measurements) yet produces a clear peak separation in the
sign-conditioned B marginals, so peak separation alone must not be read
as a discord witness for non-Gaussian states.  The other carries nonzero
discord through non-commuting B components (thermal against squeezed
vacuum) while both conditional marginals peak at exactly zero, so the
absence of separation proves nothing either.

Position eigenfunctions follow the toolkit's unit convention: the vacuum
marginal is a Gaussian of variance v0.  Sign projectors are assembled
from eigenfunction overlap integrals on a uniform grid wide enough to
hold the classical turning point of the highest retained number state;
parity then gives the complementary projector, and the pair sums to the
identity at machine precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import (DegenerateSplitError, TruncationError, ValidationError)

DIM_DEFAULT = 20
DIM_MAX = 40
TAIL_TOL = 1e-8
GRID_SPACING = 0.01  # in units of sqrt(v0)
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8
EIGEN_TOL = -1e-8


@dataclass(frozen=True)
class QuadratureGrid:
    points: np.ndarray
    v0: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) < 3:
            raise ValidationError("grid needs at least 3 points")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValidationError("grid points must be strictly ascending")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
            raise ValidationError("grid spacing must be uniform")

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])


def _grid_halfwidth(dim: int, v0: float) -> float:
    # classical turning point of |dim-1>, plus margin for the tails
    return (math.sqrt(2.0 * dim + 1.0) + 5.0) * math.sqrt(2.0 * v0)


def default_grid(dim: int, v0: float = 1.0,
                 spacing: float = GRID_SPACING) -> QuadratureGrid:
    """Symmetric uniform grid covering every number state up to dim."""
    half = _grid_halfwidth(dim, v0)
    step = spacing * math.sqrt(v0)
    n_half = int(math.ceil(half / step))
    pts = np.arange(-n_half, n_half + 1) * step
    return QuadratureGrid(pts, v0)


def oscillator_eigenfunctions(dim: int, xs: np.ndarray,
                              v0: float = 1.0) -> np.ndarray:
    """Position eigenfunctions psi_n(x) for n < dim, one row per n.

    Normalized so each |psi_n|^2 integrates to 1 in x; the vacuum row
    squared is a Gaussian of variance v0.
    """
    xs = np.asarray(xs, dtype=float)
    scale = math.sqrt(2.0 * v0)
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


def _resolve_dims(dim: int | None):
    return (dim,) if dim is not None else (DIM_DEFAULT, DIM_MAX)


def coherent_fock(alpha: complex, dim: int | None = None) -> np.ndarray:
    """Truncated coherent state vector, renormalized.

    Truncation must leave tail mass below TAIL_TOL; with dim unset the
    size escalates from the default before giving up.
    """
    for d in _resolve_dims(dim):
        c = np.empty(d, dtype=complex)
        c[0] = 1.0
        for n in range(1, d):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        c *= math.exp(-0.5 * abs(alpha) ** 2)
        tail = 1.0 - float(np.vdot(c, c).real)
        if tail < TAIL_TOL:
            return c / math.sqrt(np.vdot(c, c).real)
    raise TruncationError(
        f"coherent state |alpha|={abs(alpha):.3g} needs dim > {DIM_MAX}"
    )


def thermal_fock(nbar: float, dim: int | None = None) -> np.ndarray:
    """Truncated thermal density matrix (diagonal), renormalized."""
    if nbar < 0:
        raise ValidationError("mean photon number must be non-negative")
    for d in _resolve_dims(dim):
        if nbar == 0:
            tail = 0.0
            p = np.zeros(d)
            p[0] = 1.0
        else:
            ratio = nbar / (nbar + 1.0)
            p = ratio ** np.arange(d) / (nbar + 1.0)
            tail = ratio ** d
        if tail < TAIL_TOL:
            return np.diag(p / p.sum()).astype(complex)
    raise TruncationError(f"thermal state nbar={nbar:.3g} needs dim > {DIM_MAX}")


def squeezed_vacuum_fock(r: float, dim: int | None = None) -> np.ndarray:
    """Truncated squeezed vacuum vector, renormalized.

    Positive r squeezes the x quadrature: the marginal variance is
    v0 * exp(-2r).
    """
    for d in _resolve_dims(dim):
        c = np.zeros(d, dtype=complex)
        c[0] = 1.0 / math.sqrt(math.cosh(r))
        amp = c[0]
        for m in range(0, (d - 1) // 2):
            amp = amp * (-math.tanh(r)) * math.sqrt((2 * m + 1) / (2 * m + 2.0))
            c[2 * m + 2] = amp
        tail = 1.0 - float(np.vdot(c, c).real)
        if tail < TAIL_TOL:
            return c / math.sqrt(np.vdot(c, c).real)
    raise TruncationError(f"squeezed vacuum r={r:.3g} needs dim > {DIM_MAX}")


def density_from_vector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def number_mean(state: np.ndarray) -> float:
    """<n> of a vector or density matrix in the number basis."""
    state = np.asarray(state)
    n = np.arange(state.shape[0])
    if state.ndim == 1:
        return float((n * np.abs(state) ** 2).sum())
    return float((n * np.diagonal(state).real).sum())


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
    v0: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if m.shape != (d, d):
            raise ValidationError(
                f"matrix shape {m.shape} does not match dims ({d}, {d})"
            )
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise ValidationError("density matrix is not Hermitian")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace {tr} is not 1")
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < EIGEN_TOL:
            raise ValidationError("density matrix has a negative eigenvalue")
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


def bipartite_from_parts(parts, dim_a: int, dim_b: int,
                         v0: float = 1.0) -> FockDensityMatrix:
    """Weighted sum of product terms (weight, rho_A, rho_B)."""
    d = dim_a * dim_b
    m = np.zeros((d, d), dtype=complex)
    for weight, rho_a, rho_b in parts:
        m += weight * np.kron(rho_a, rho_b)
    return FockDensityMatrix(dim_a, dim_b, m, v0)


# ---------------------------------------------------------------------------
# sign projectors and conditioning
# ---------------------------------------------------------------------------


def sign_projectors(dim: int, v0: float = 1.0,
                    theta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Number-basis projectors onto x_theta >= 0 and x_theta < 0.

    The positive-side matrix elements are Simpson integrals of
    eigenfunction products over [0, L]; the negative side follows from
    parity, and the two sum to the identity at machine precision.
    """
    half = _grid_halfwidth(dim, v0)
    step = GRID_SPACING * math.sqrt(v0)
    n_half = int(math.ceil(half / step))
    if n_half % 2 == 1:
        n_half += 1  # Simpson wants an even interval count
    xs = np.arange(n_half + 1) * step
    psi = oscillator_eigenfunctions(dim, xs, v0)
    plus = simpson(psi[:, None, :] * psi[None, :, :], x=xs, axis=-1)
    plus = 0.5 * (plus + plus.T)
    parity = (-1.0) ** (np.arange(dim)[:, None] + np.arange(dim)[None, :])
    minus = parity * plus
    if theta != 0.0:
        phases = np.exp(1j * theta * np.arange(dim))
        plus = phases[:, None] * plus * phases[None, :].conj()
        minus = phases[:, None] * minus * phases[None, :].conj()
    return plus, minus


def conditional_b_given_sign(state: FockDensityMatrix, sign: int,
                             theta_a: float = 0.0
                             ) -> tuple[np.ndarray, float]:
    """Reduced B state conditioned on sign(x_A - 0), with its probability."""
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    plus, minus = sign_projectors(state.dim_a, state.v0, theta_a)
    proj = plus if sign == 1 else minus
    raw = np.einsum("ajbk,ba->jk", state.tensor, proj)
    prob = float(raw.trace().real)
    if prob < 1e-12:
        raise DegenerateSplitError(
            f"conditioning probability {prob:.3g} on sign {sign:+d}"
        )
    rho = raw / prob
    return 0.5 * (rho + rho.conj().T), prob


# ---------------------------------------------------------------------------
# marginals on a grid
# ---------------------------------------------------------------------------


def homodyne_marginal_fock(rho_b: np.ndarray, grid: QuadratureGrid,
                           theta: float = 0.0) -> np.ndarray:
    """Quadrature density of a single-mode state on the grid points."""
    rho_b = np.asarray(rho_b, dtype=complex)
    dim = rho_b.shape[0]
    if theta != 0.0:
        phases = np.exp(-1j * theta * np.arange(dim))
        rho_b = phases[:, None] * rho_b * phases[None, :].conj()
    psi = oscillator_eigenfunctions(dim, grid.points, grid.v0)
    return np.einsum("mx,mn,nx->x", psi, rho_b, psi, optimize=True).real


def grid_peak(grid: QuadratureGrid, density: np.ndarray) -> float:
    """Peak location refined by a log-parabola through the top 3 points."""
    i = int(np.argmax(density))
    if i == 0 or i == len(density) - 1:
        return float(grid.points[i])
    tri = density[i - 1:i + 2]
    if np.any(tri <= 0):
        return float(grid.points[i])
    y = np.log(tri)
    den = y[0] - 2.0 * y[1] + y[2]
    off = 0.5 * (y[0] - y[2]) / den if den != 0 else 0.0
    return float(grid.points[i] + off * grid.spacing)


def grid_moments(grid: QuadratureGrid,
                 density: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of a density sampled on the grid."""
    xs = grid.points
    norm = simpson(density, x=xs)
    mean = simpson(xs * density, x=xs) / norm
    var = simpson((xs - mean) ** 2 * density, x=xs) / norm
    return float(mean), float(var)


# ---------------------------------------------------------------------------
# counterexample states
# ---------------------------------------------------------------------------


def _superposition_01(dim: int, sign: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0 / math.sqrt(2.0)
    vec[1] = sign / math.sqrt(2.0)
    return vec


def build_ce_zero_discord(alpha: complex = 1.0, dim_a: int | None = None,
                          dim_b: int = DIM_DEFAULT,
                          v0: float = 1.0) -> FockDensityMatrix:
    """Equal mixture of |alpha><alpha| x |+><+| and |-alpha><-alpha| x |-><-|
    with |+-> = (|0> +- |1>)/sqrt(2).

    Classical on B in the {|+>, |->} basis, hence zero discord under B
    measurements, yet sign-conditioning on A separates the B marginal
    peaks.
    """
    plus_a = coherent_fock(alpha, dim_a)
    minus_a = coherent_fock(-alpha, dim_a)
    da = len(plus_a)
    parts = [
        (0.5, density_from_vector(plus_a),
         density_from_vector(_superposition_01(dim_b, +1))),
        (0.5, density_from_vector(minus_a),
         density_from_vector(_superposition_01(dim_b, -1))),
    ]
    return bipartite_from_parts(parts, da, dim_b, v0)


def build_ce_hidden_discord(nbar: float = 1.0, r: float = 0.5,
                            dim_a: int = 2, dim_b: int | None = None,
                            rho_a1: np.ndarray | None = None,
                            rho_a2: np.ndarray | None = None,
                            v0: float = 1.0) -> FockDensityMatrix:
    """Equal mixture of rho_A1 x thermal(nbar) and rho_A2 x squeezed(r).

    The two B components do not commute, so the state carries discord,
    but both are zero-mean with symmetric marginals: the conditional
    peaks coincide at the origin and only the widths differ.  The default
    A components are the distinguishable (|0> +- |1>)/sqrt(2) pair, so
    that sign-conditioning on A actually selects between the B
    components.
    """
    th = thermal_fock(nbar, dim_b)
    sq = density_from_vector(squeezed_vacuum_fock(r, dim_b))
    db = max(th.shape[0], sq.shape[0])
    th = _pad_density(th, db)
    sq = _pad_density(sq, db)
    if rho_a1 is None:
        rho_a1 = density_from_vector(_superposition_01(dim_a, +1))
    if rho_a2 is None:
        rho_a2 = density_from_vector(_superposition_01(dim_a, -1))
    rho_a1 = np.asarray(rho_a1, dtype=complex)
    rho_a2 = np.asarray(rho_a2, dtype=complex)
    if rho_a1.shape != rho_a2.shape or rho_a1.shape[0] != dim_a:
        raise ValidationError("A components must be dim_a x dim_a")
    parts = [(0.5, rho_a1, th), (0.5, rho_a2, sq)]
    return bipartite_from_parts(parts, dim_a, db, v0)


def _pad_density(rho: np.ndarray, dim: int) -> np.ndarray:
    if rho.shape[0] == dim:
        return rho
    out = np.zeros((dim, dim), dtype=complex)
    out[:rho.shape[0], :rho.shape[1]] = rho
    return out


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def commutator_norm(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Frobenius norm of the commutator of two equal-size matrices."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValidationError(
            f"dimension mismatch: {rho1.shape} vs {rho2.shape}"
        )
    return float(np.linalg.norm(rho1 @ rho2 - rho2 @ rho1))


def verify_classical_on_b(state: FockDensityMatrix, basis: np.ndarray,
                          tol: float = 1e-10) -> bool:
    """True iff the state is block-diagonal on B in the given basis,
    i.e. of the form sum_j p_j rho_{A|j} x |b_j><b_j|.

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
    return float(np.abs(blocks[off_diagonal]).max(initial=0.0)) <= tol


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
        "v0": state.v0,
        "entries": entries,
    }, sort_keys=True)


def fock_state_from_json(text: str) -> FockDensityMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad state document: {exc}") from exc
    da, db = int(doc["dim_A"]), int(doc["dim_B"])
    d = da * db
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    if len(flat) != d * d:
        raise ValidationError("entry count does not match dims")
    return FockDensityMatrix(da, db, flat.reshape(d, d), float(doc["v0"]))
