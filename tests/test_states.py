"""State constructors, symplectic maps and the phase-space density."""

import numpy as np
import pytest

import helpers as H
from cvdiscord import (
    AsyncSine,
    CoherentPoint,
    GaussianBipartiteState,
    NumericError,
    PMixtureState,
    SingleModeState,
    ValidationError,
    apply_beam_splitter,
    beam_splitter_matrix,
    c_block_is_zero,
    modulated_beam,
    rotate_local,
    rotation_matrix,
    sample_scheme,
    split_balanced,
    tensor,
    vacuum_single,
    validate_covariance,
)
from cvdiscord.marginals import joint_marginal_form
from cvdiscord.states import MAX_DEPTH
from cvdiscord.verifier import CANONICAL_PAIRS


def test_vacuum_is_shot_noise_limited():
    vac = tensor(vacuum_single(), vacuum_single())
    assert np.array_equal(vac.cov, np.eye(4))
    assert np.array_equal(vac.means, np.zeros(4))
    single = vacuum_single()
    assert np.array_equal(single.cov, np.eye(2))
    assert np.array_equal(single.means, np.zeros(2))


def test_modulated_beam_variances():
    mode = modulated_beam(4.5, 4.5)
    assert np.allclose(np.diag(mode.cov), [21.25, 21.25])
    mode = modulated_beam(5.0, 0.0)
    assert np.allclose(np.diag(mode.cov), [26.0, 1.0])
    assert mode.cov[0, 1] == 0.0
    with pytest.raises(ValidationError):
        modulated_beam(-0.1, 0.0)


def test_split_balanced_closed_form():
    out = split_balanced(SingleModeState(np.zeros(2), np.diag([21.25, 21.25])))
    assert np.allclose(np.diag(out.block_a), [11.125, 11.125])
    assert np.allclose(np.diag(out.block_b), [11.125, 11.125])
    assert np.allclose(np.diag(out.block_c), [10.125, 10.125])

    out = split_balanced(SingleModeState(np.zeros(2), np.diag([3.0, 1.0])))
    assert np.allclose(np.diag(out.block_a), [2.0, 1.0])
    assert np.allclose(np.diag(out.block_c), [1.0, 0.0])


def test_split_balanced_matches_general_splitter():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cov1 = H.random_single_cov(rng)
        mode = SingleModeState(np.zeros(2), cov1)
        via_split = split_balanced(mode)
        via_bs = apply_beam_splitter(tensor(mode, vacuum_single()),
                                     1.0 / np.sqrt(2.0))
        assert np.allclose(via_split.cov, via_bs.cov, atol=1e-12)
        assert np.allclose(via_split.means, via_bs.means, atol=1e-12)


def test_beam_splitter_thermal_against_vacuum():
    thermal = SingleModeState(np.zeros(2), 5.0 * np.eye(2))
    out = apply_beam_splitter(tensor(thermal, vacuum_single()), 1.0 / np.sqrt(2.0))
    assert np.allclose(out.block_a, 3.0 * np.eye(2))
    assert np.allclose(out.block_b, 3.0 * np.eye(2))
    assert np.allclose(out.block_c, 2.0 * np.eye(2))


def test_beam_splitter_identity_and_range():
    state = H.measured_state()
    same = apply_beam_splitter(state, 1.0)
    assert np.allclose(same.cov, state.cov, atol=1e-12)

    with pytest.raises(ValidationError):
        apply_beam_splitter(state, 1.2)


@pytest.mark.parametrize("eta", [1.5, -0.1, np.nan])
@pytest.mark.parametrize("entry", ["beam_splitter_matrix", "sample_scheme",
                                   "PMixtureState"])
def test_every_transmissivity_is_checked_with_one_message(entry, eta):
    check = {
        "beam_splitter_matrix": lambda: beam_splitter_matrix(eta),
        "sample_scheme": lambda: sample_scheme(AsyncSine(1.0), [(0.0, 0.0)], 10, 0, eta),
        "PMixtureState": lambda: PMixtureState((CoherentPoint(1.0, 0.0),), eta),
    }[entry]
    with pytest.raises(ValidationError) as err:
        check()
    assert str(err.value) == f"transmissivity must lie in [0, 1], got {eta}"


def test_beam_splitter_preserves_physicality():
    rng = np.random.default_rng(23)
    for _ in range(20):
        st = H.random_bipartite_state(rng)
        eta = rng.uniform(0.0, 1.0)
        out = apply_beam_splitter(st, eta)
        assert validate_covariance(out.cov) == []


def test_beam_splitter_matrix_is_symplectic_orthogonal():
    omega = H.symplectic_form()
    for eta in (0.0, 0.3, 1.0 / np.sqrt(2.0), 1.0):
        s = beam_splitter_matrix(eta)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)
        assert np.allclose(s @ s.T, np.eye(4), atol=1e-12)


def test_local_rotation_examples():
    state = H.measured_state()
    rot = rotate_local(state, np.pi / 4.0, 0.0)
    assert rot.cov[0, 0] == pytest.approx((15.96 + 14.37) / 2.0, abs=1e-12)

    swap = rotate_local(state, np.pi / 2.0, np.pi / 2.0)
    assert np.allclose(np.diag(swap.cov), [14.37, 15.96, 14.81, 22.62])
    assert swap.cov[0, 2] == pytest.approx(13.55, abs=1e-12)
    assert swap.cov[1, 3] == pytest.approx(17.58, abs=1e-12)


def test_local_rotation_periodicity_and_symplecticity():
    rng = np.random.default_rng(3)
    omega = H.symplectic_form()
    for _ in range(10):
        st = H.random_bipartite_state(rng)
        ta, tb = rng.uniform(0.0, 2.0 * np.pi, size=2)
        r = rotation_matrix(ta, tb)
        assert np.allclose(r @ omega @ r.T, omega, atol=1e-12)
        full = rotate_local(st, ta + 2.0 * np.pi, tb + 2.0 * np.pi)
        part = rotate_local(st, ta, tb)
        assert np.allclose(full.cov, part.cov, atol=1e-10)
        assert np.allclose(full.means, part.means, atol=1e-10)


def test_cross_block_flag():
    rng = np.random.default_rng(2)
    assert c_block_is_zero(random_product := H.random_product_state(rng))
    assert not c_block_is_zero(H.measured_state())
    weak = split_balanced(modulated_beam(0.2, 0.0))
    assert not c_block_is_zero(weak)
    assert weak.block_c[0, 0] == pytest.approx(0.02, abs=1e-12)


def test_wigner_reference_values():
    vac = tensor(vacuum_single(), vacuum_single())
    assert H.wigner_density(vac, np.zeros(4)) == pytest.approx(
        1.0 / (4.0 * np.pi**2), rel=1e-12)
    assert H.wigner_density(vac, [1.0, 0.0, 0.0, 0.0]) == pytest.approx(
        np.exp(-0.5) / (4.0 * np.pi**2), rel=1e-12)
    state = H.measured_state()
    det = np.linalg.det(H.MEASURED_COV)
    assert H.wigner_density(state, np.zeros(4)) == pytest.approx(
        1.0 / (4.0 * np.pi**2 * np.sqrt(det)), rel=1e-12)


def test_wigner_batch_matches_scalar_and_normalizes():
    rng = np.random.default_rng(17)
    state = H.random_bipartite_state(rng)
    pts = rng.normal(scale=2.0, size=(40, 4))
    batch = H.wigner_density(state, pts)
    singles = np.array([H.wigner_density(state, p) for p in pts])
    assert np.allclose(batch, singles, rtol=1e-13)
    assert H.integrate_wigner_4d(state, half_sigmas=8.0, points=61) == pytest.approx(
        1.0, abs=1e-4)
    with pytest.raises(ValidationError):
        H.wigner_density(state, [0.0, 0.0, 0.0])


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        GaussianBipartiteState(np.zeros(4), np.eye(3))
    with pytest.raises(ValidationError):
        GaussianBipartiteState(np.zeros(3), np.eye(4))
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(ValidationError):
        GaussianBipartiteState(np.zeros(4), asym)
    # below the shot-noise floor in one quadrature without squeezing partner
    with pytest.raises(ValidationError):
        GaussianBipartiteState(np.zeros(4), np.diag([0.2, 0.2, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        GaussianBipartiteState(np.full(4, np.nan), np.eye(4))


def test_validation_report_names_failed_checks():
    assert validate_covariance(np.diag([0.2, 0.2, 1.0, 1.0])) == [
        "uncertainty_bound"]
    assert validate_covariance(np.diag([-1.0, 1.0])) == [
        "positive_definite", "uncertainty_bound"]
    assert validate_covariance([[2.0, 1e-6], [0.0, 2.0]]) == ["symmetric"]
    assert validate_covariance(np.eye(4)) == []


def test_symmetry_is_checked_at_the_scale_of_the_entries():
    # the rounding of s @ cov @ s.T grows with the entries
    assert validate_covariance([[2e6, 1e-7], [0.0, 2e6]]) == []
    assert validate_covariance([[2e6, 1e-5], [0.0, 2e6]]) == ["symmetric"]
    # the uncertainty bound stays absolute: the product 0.1 breaks it tenfold
    assert validate_covariance(np.diag([1e8, 1e-9])) == ["uncertainty_bound"]


@pytest.mark.parametrize("eta", [1.0 / np.sqrt(2.0), 0.9, 0.3])
def test_every_depth_up_to_max_depth_builds_physical_states(eta):
    # simulate's state at the four canonical pairs, and the sweep's state
    for depth in np.linspace(0.0, MAX_DEPTH, 401):
        for dx, dp in ((depth, depth), (depth, 0.0), (0.0, depth)):
            state = apply_beam_splitter(tensor(modulated_beam(dx, dp), vacuum_single()), eta)
            for pair in CANONICAL_PAIRS:
                joint_marginal_form(state, *pair)
        joint_marginal_form(split_balanced(modulated_beam(0.0, depth)), np.pi / 2, np.pi / 2)


def test_states_are_frozen():
    state = tensor(vacuum_single(), vacuum_single())
    with pytest.raises(ValueError):
        state.cov[0, 0] = 5.0
    with pytest.raises(Exception):
        state.means = np.ones(4)
