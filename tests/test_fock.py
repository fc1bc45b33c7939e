"""Truncated number-basis numerics and the two counterexample states.

These states mark the limits of the peak-separation criterion: one has
zero discord yet separated conditional peaks, the other nonzero discord
with coinciding peaks.  Everything here is deterministic linear algebra,
no sampling.
"""

import json

import numpy as np
import pytest
from scipy.integrate import simpson

import helpers as H
from cvdiscord import (
    FockDensityMatrix,
    QuadratureGrid,
    TruncationError,
    ValidationError,
    bipartite_from_parts,
    build_ce_hidden_discord,
    build_ce_zero_discord,
    coherent_fock,
    commutator_norm,
    condition_b_on_sign,
    default_grid,
    density_from_vector,
    fock_state_to_json,
    grid_peak,
    homodyne_marginal_fock,
    input_marginal_D1,
    oscillator_eigenfunctions,
    quadrature_moments,
    sign_projectors,
    squeezed_vacuum_fock,
    superposition_basis,
    thermal_fock,
    verify_classical_on_b,
)
from cvdiscord.marginals import CoherentPoint, PMixtureState


# ---------------------------------------------------------------------------
# eigenfunctions and single-mode states
# ---------------------------------------------------------------------------


def test_eigenfunctions_are_orthonormal():
    grid = default_grid(25)
    psi = oscillator_eigenfunctions(25, grid.points)
    gram = simpson(psi[:, None, :] * psi[None, :, :], x=grid.points, axis=-1)
    assert np.abs(gram - np.eye(25)).max() < 1e-8


def test_coherent_state_amplitudes():
    vac = coherent_fock(0.0, dim=20)
    assert vac[0] == pytest.approx(1.0)
    assert np.abs(vac[1:]).max() == 0.0

    one = coherent_fock(1.0, dim=20)
    assert H.number_mean(one) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(one) == pytest.approx(1.0, abs=1e-12)

    for alpha in (0.5, 1.0 + 1.0j, 2.0, -2.0j):
        vec = coherent_fock(alpha, dim=30)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)
        assert H.number_mean(vec) == pytest.approx(abs(alpha) ** 2, abs=1e-8)


@pytest.mark.parametrize("alpha", [10**400, -10**400, np.nan, np.inf,
                                   complex(np.nan, 1.0), complex(1.0, -np.inf)],
                         ids=["1e400", "-1e400", "nan", "inf", "nan+1j", "1-infj"])
def test_non_finite_alpha_is_bad_input_naming_alpha(alpha):
    # an int beyond float64 is checked exactly, not handed to np.isfinite
    for build in (coherent_fock, lambda a: build_ce_zero_discord(alpha=a)):
        with pytest.raises(ValidationError, match="^alpha must be a finite number"):
            build(alpha)


def test_truncation_is_checked_not_assumed():
    with pytest.raises(TruncationError):
        coherent_fock(3.0, dim=10)
    # automatic sizing escalates instead of failing
    auto = coherent_fock(2.0)
    assert len(auto) == 40
    with pytest.raises(TruncationError):
        thermal_fock(5.0, dim=10)
    with pytest.raises(TruncationError):
        squeezed_vacuum_fock(0.5, dim=20)
    assert len(squeezed_vacuum_fock(0.5)) == 40


def test_thermal_and_squeezed_quadrature_variances():
    grid = default_grid(40)
    nbar = 1.0
    dens = homodyne_marginal_fock(thermal_fock(nbar, dim=40), grid)
    mean, var = H.grid_moments(grid, dens)
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(2.0 * nbar + 1.0, abs=1e-6)

    r = 0.5
    sq = density_from_vector(squeezed_vacuum_fock(r, dim=30))
    dens_x = homodyne_marginal_fock(sq, default_grid(30))
    _, var_x = H.grid_moments(default_grid(30), dens_x)
    assert var_x == pytest.approx(np.exp(-2.0 * r), abs=1e-6)
    # the p quadrature of squeeze r is the x quadrature of squeeze -r
    anti = density_from_vector(squeezed_vacuum_fock(-r, dim=30))
    dens_p = homodyne_marginal_fock(anti, default_grid(30))
    _, var_p = H.grid_moments(default_grid(30), dens_p)
    assert var_p == pytest.approx(np.exp(2.0 * r), abs=1e-5)

    assert H.number_mean(np.diag(thermal_fock(0.6, dim=40)).real ** 0 *
                       thermal_fock(0.6, dim=40)) == pytest.approx(0.6, abs=1e-7)


@pytest.mark.parametrize("rho, mean, var", [
    (density_from_vector(coherent_fock(0.0, 20)), 0.0, 1.0),
    (density_from_vector(coherent_fock(0.8 + 0.3j)), 1.6, 1.0),
    (thermal_fock(1.0), 0.0, 3.0),
    (density_from_vector(squeezed_vacuum_fock(0.5)), 0.0, np.exp(-1.0)),
], ids=["vacuum", "coherent", "thermal", "squeezed"])
def test_quadrature_moments_are_exact(rho, mean, var):
    # mean 2 Re alpha of a coherent state, variance 2 nbar + 1 of a thermal
    # one and exp(-2r) of a squeezed vacuum; only the truncation, with its
    # tail below 1e-8, stands between the traces and these values
    got_mean, got_var = quadrature_moments(rho)
    assert got_mean == pytest.approx(mean, abs=1e-12)
    assert got_var == pytest.approx(var, abs=1e-9)


def test_vacuum_marginal_is_the_shot_noise_gaussian():
    grid = default_grid(10)
    dens = homodyne_marginal_fock(density_from_vector(coherent_fock(0.0, 10)),
                                  grid)
    want = np.exp(-grid.points**2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.abs(dens - want).max() < 1e-10
    assert simpson(dens, x=grid.points) == pytest.approx(1.0, abs=1e-6)


def test_single_photon_marginal_is_double_humped():
    grid = default_grid(10)
    one = np.zeros(10)
    one[1] = 1.0
    dens = homodyne_marginal_fock(density_from_vector(one), grid)
    mid = np.argmin(np.abs(grid.points))
    assert dens[mid] < 1e-12
    assert grid_peak(grid, dens) != pytest.approx(0.0, abs=0.5)
    assert np.all(dens > -1e-10)
    assert simpson(dens, x=grid.points) == pytest.approx(1.0, abs=1e-6)


def test_zero_one_superposition_peaks_off_center():
    grid = default_grid(10)
    vec = np.zeros(10)
    vec[0] = vec[1] = 1.0 / np.sqrt(2.0)
    dens = homodyne_marginal_fock(density_from_vector(vec), grid)
    # mean of x in this state is sqrt(2) <0|x|1> overlap = 1
    mean, _ = H.grid_moments(grid, dens)
    assert mean == pytest.approx(1.0, abs=1e-8)
    assert grid_peak(grid, dens) > 0.5


def test_coherent_marginal_matches_displaced_vacuum_and_mixture_form():
    alpha = 0.8 + 0.3j
    grid = default_grid(30)
    rho = density_from_vector(coherent_fock(alpha, 30))

    dens_x = homodyne_marginal_fock(rho, grid)
    center = 2.0 * alpha.real
    want = np.exp(-(grid.points - center) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.abs(dens_x - want).max() < 1e-6

    # the same curve through the classical-mixture marginal, which uses
    # the natural displacement convention (factor sqrt(2) larger)
    mix = PMixtureState((CoherentPoint(1.0, np.sqrt(2.0) * alpha.real),), eta=0.5)
    assert np.abs(dens_x - input_marginal_D1(mix, grid.points)).max() < 1e-6

    # the p quadrature of alpha is the x quadrature of -i alpha, a local
    # oscillator turned by pi/2: it picks out the imaginary part
    dens_p = homodyne_marginal_fock(density_from_vector(coherent_fock(-1j * alpha, 30)),
                                    grid)
    mean_p, _ = H.grid_moments(grid, dens_p)
    assert mean_p == pytest.approx(2.0 * alpha.imag, abs=1e-8)


# ---------------------------------------------------------------------------
# density-matrix container and projectors
# ---------------------------------------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        FockDensityMatrix(2, 2, np.eye(3) / 3.0)
    herm = np.eye(4, dtype=complex) / 4.0
    herm[0, 1] = 0.1
    with pytest.raises(ValidationError):
        FockDensityMatrix(2, 2, herm)
    with pytest.raises(ValidationError):
        FockDensityMatrix(2, 2, np.eye(4) / 2.0)  # trace 2
    neg = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValidationError):
        FockDensityMatrix(2, 2, neg)


def test_a_non_finite_density_matrix_is_bad_input():
    # checked before anything else: a positivity check alone accepts inf
    for value, where in ((np.nan, (0, 0)), (np.inf, (0, 1)), (-np.inf, (1, 0))):
        m = np.eye(4, dtype=complex) / 4.0
        m[where] = value
        with pytest.raises(ValidationError, match="non-finite entries"):
            FockDensityMatrix(2, 2, m)


@pytest.mark.parametrize("smallest, accepted", [(-2e-8, False), (-0.5e-8, True), (0.0, True)])
def test_positivity_is_decided_at_the_eigenvalue_tolerance(smallest, accepted):
    # a random-unitary 400 x 400 state of trace 1, its smallest eigenvalue
    # on either side of EIGEN_TOL = -1e-8
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.standard_normal((400, 400))
                        + 1j * rng.standard_normal((400, 400)))
    eig = rng.uniform(1.0, 2.0, 400)
    eig *= (1.0 - smallest) / eig[1:].sum()
    eig[0] = smallest
    m = (u * eig) @ u.conj().T
    if accepted:
        FockDensityMatrix(20, 20, m)
    else:
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            FockDensityMatrix(20, 20, m)


def test_reduced_states_and_tensor_view():
    rho_a = density_from_vector(coherent_fock(0.7, 12))
    rho_b = thermal_fock(0.5, 20)
    state = bipartite_from_parts([(1.0, rho_a, rho_b)], 12, 20)
    assert np.abs(state.reduced_a() - rho_a).max() < 1e-12
    assert np.abs(state.reduced_b() - rho_b).max() < 1e-12
    assert state.tensor.shape == (12, 20, 12, 20)


def test_sign_projectors_complete_and_parity_related():
    for dim in (2, 20, 40):
        plus, minus = sign_projectors(dim)
        # the entries with m + n even are 0 by parity, so the sum is exact
        assert np.array_equal(plus + minus, np.eye(dim))
        # vacuum splits evenly
        assert plus[0, 0] == 0.5
        # the closed form against Simpson quadrature on the 0.01 grid
        oracle, _ = H.simpson_sign_projectors(dim)
        assert np.abs(plus - oracle).max() < 1e-8
    # a projector compressed to a subspace: eigenvalues in [0, 1]
    for dim in (20, 40):
        eig = np.linalg.eigvalsh(sign_projectors(dim)[0])
        assert eig.min() >= -1e-14 and eig.max() <= 1.0 + 1e-14
    # the parity operator maps x to -x, so it swaps the two sides
    plus, minus = sign_projectors(12)
    parity = np.diag((-1.0) ** np.arange(12))
    assert np.abs(parity @ plus @ parity - minus).max() < 1e-10


def test_conditioning_is_a_proper_decomposition():
    state = build_ce_zero_discord(alpha=1.0)
    (rho_p, p_plus), (rho_m, p_minus) = condition_b_on_sign(state)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-8)
    mix = p_plus * rho_p + p_minus * rho_m
    assert np.abs(mix - state.reduced_b()).max() < 1e-8
    assert np.trace(rho_p).real == pytest.approx(1.0, abs=1e-10)


def test_product_state_is_unchanged_by_conditioning():
    rho_a = density_from_vector(coherent_fock(1.0, 20))
    rho_b = thermal_fock(0.8, 30)
    state = bipartite_from_parts([(1.0, rho_a, rho_b)], 20, 30)
    (rho_p, _), (rho_m, _) = condition_b_on_sign(state)
    assert np.abs(rho_p - rho_b).max() < 1e-10
    assert np.abs(rho_m - rho_b).max() < 1e-10


# ---------------------------------------------------------------------------
# counterexample: zero discord, separated peaks
# ---------------------------------------------------------------------------


def test_zero_discord_state_is_classical_yet_separates():
    state = build_ce_zero_discord(alpha=1.0)
    assert state.dim_a == 20

    basis = superposition_basis(state.dim_b)
    assert verify_classical_on_b(state, basis)
    # but not diagonal in the bare number basis
    assert not verify_classical_on_b(state, np.eye(state.dim_b, dtype=complex))

    grid = default_grid(state.dim_b)
    (rho_p, p_plus), (rho_m, p_minus) = condition_b_on_sign(state)
    assert p_plus == pytest.approx(0.5, abs=1e-6)
    assert p_minus == pytest.approx(0.5, abs=1e-6)
    peak_p = grid_peak(grid, homodyne_marginal_fock(rho_p, grid))
    peak_m = grid_peak(grid, homodyne_marginal_fock(rho_m, grid))
    separation = abs(peak_p - peak_m)
    assert separation > 0.1
    assert separation == pytest.approx(2.0, abs=5e-3)


def test_zero_discord_state_with_degenerate_displacement():
    # alpha = 0 collapses the A components onto vacuum: still classical,
    # but nothing to condition on, so the peaks coincide
    state = build_ce_zero_discord(alpha=0.0)
    assert verify_classical_on_b(state, superposition_basis(state.dim_b))
    grid = default_grid(state.dim_b)
    (rho_p, _), (rho_m, _) = condition_b_on_sign(state)
    peak_p = grid_peak(grid, homodyne_marginal_fock(rho_p, grid))
    peak_m = grid_peak(grid, homodyne_marginal_fock(rho_m, grid))
    assert abs(peak_p - peak_m) < 1e-9


# ---------------------------------------------------------------------------
# counterexample: discord hidden from the peaks
# ---------------------------------------------------------------------------


def test_hidden_discord_state_certifies_all_three_limits():
    state = build_ce_hidden_discord(nbar=1.0, r=0.5)
    assert state.dim_a == 2
    assert state.dim_b <= 40

    grid = default_grid(state.dim_b)
    (rho_p, p_plus), (rho_m, p_minus) = condition_b_on_sign(state)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-8)

    dens_p = homodyne_marginal_fock(rho_p, grid)
    dens_m = homodyne_marginal_fock(rho_m, grid)
    separation = abs(grid_peak(grid, dens_p) - grid_peak(grid, dens_m))
    assert separation < 1e-3

    (_, var_p), (_, var_m) = (quadrature_moments(rho) for rho in (rho_p, rho_m))
    ratio = max(var_p, var_m) / min(var_p, var_m)
    assert ratio > 1.1

    th = thermal_fock(1.0, state.dim_b)
    sq = density_from_vector(squeezed_vacuum_fock(0.5, 40))
    assert commutator_norm(th, sq) > 1e-3
    assert not verify_classical_on_b(state, np.eye(state.dim_b, dtype=complex))


def test_commutator_norm_basics():
    th = thermal_fock(1.0, 40)
    assert commutator_norm(th, th) == 0.0
    other = thermal_fock(0.6, 40)
    assert commutator_norm(th, other) < 1e-14  # both diagonal
    with pytest.raises(ValidationError):
        commutator_norm(th, thermal_fock(1.0, 30))


def test_classicality_check_demands_an_orthonormal_basis():
    state = build_ce_zero_discord(alpha=1.0)
    skew = superposition_basis(state.dim_b)
    skew[2] = skew[3]
    with pytest.raises(ValidationError, match="orthonormal"):
        verify_classical_on_b(state, skew)
    with pytest.raises(ValidationError):
        verify_classical_on_b(state, np.eye(3, dtype=complex))


def test_maximally_mixed_b_is_classical_in_any_basis():
    dim_a, dim_b = 4, 6
    rho_a = density_from_vector(np.full(dim_a, 0.5, dtype=complex))
    state = bipartite_from_parts(
        [(1.0, rho_a, np.eye(dim_b, dtype=complex) / dim_b)], dim_a, dim_b)
    assert verify_classical_on_b(state, superposition_basis(dim_b))
    assert verify_classical_on_b(state, np.eye(dim_b, dtype=complex))


# ---------------------------------------------------------------------------
# grids and serialization
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValidationError):
        QuadratureGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        QuadratureGrid(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValidationError):
        QuadratureGrid(np.array([0.0, 0.5, 1.7]))
    grid = default_grid(20)
    assert grid.points[0] == -grid.points[-1]
    assert grid.spacing == pytest.approx(0.01, abs=1e-12)


def test_grid_peak_boundary_and_flat_guards():
    grid = QuadratureGrid(np.linspace(0.0, 1.0, 11))
    rising = np.linspace(0.1, 1.0, 11)
    assert grid_peak(grid, rising) == 1.0
    with_zero = np.array([0.0, 0.0, 1.0, 0.5, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    assert grid_peak(grid, with_zero) == pytest.approx(0.2, abs=0.05)


def test_fock_state_json_round_trip():
    state = build_ce_zero_discord(alpha=0.8)
    doc = json.loads(fock_state_to_json(state))
    assert sorted(doc) == ["dim_A", "dim_B", "entries", "v0"]
    assert (doc["dim_A"], doc["dim_B"], doc["v0"]) == (state.dim_a, state.dim_b, 1.0)
    assert np.array(doc["entries"]).tobytes() == np.column_stack(
        [state.matrix.real.ravel(), state.matrix.imag.ravel()]).tobytes()
