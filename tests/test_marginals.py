"""Measured-quadrature marginals, conditional splits and mixture densities."""

import math

import numpy as np
import pytest
from scipy import integrate

import helpers as H
from cvdiscord import (
    ArcsineComponent,
    CoherentPoint,
    MarginalForm,
    NumericError,
    PMixtureState,
    ThermalComponent,
    ValidationError,
    analytic_peak_separation,
    conditional_marginal_density,
    input_marginal_D1,
    joint_marginal_density,
    joint_marginal_form,
    marginal_b_density,
    modulated_beam,
    output_joint_density,
    side_probability,
    split_balanced,
)
from cvdiscord import marginals
from cvdiscord.marginals import PEAK_XTOL, _bracketed_root

HALF_PI = np.pi / 2.0
# shot-noise units x are natural units u = x / ROOT2
ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cross coefficients
# ---------------------------------------------------------------------------


def test_nu_closed_forms_on_reference_covariance():
    table = H.nu_table(H.measured_state())
    assert table.nu_00 == pytest.approx(H.MEASURED_NU_00, abs=1e-12)
    assert table.nu_90_90 == pytest.approx(H.MEASURED_NU_90_90, abs=1e-12)
    assert abs(table.nu_0_90) < 1e-12
    assert abs(table.nu_90_0) < 1e-12
    assert table.max_abs() == pytest.approx(H.MEASURED_NU_90_90, abs=1e-12)


def test_nu_closed_forms_on_random_diagonal_blocks():
    rng = np.random.default_rng(31)
    for _ in range(30):
        state = H.random_diag_block_state(rng)
        table = H.nu_table(state).as_dict()
        forms = H.nu_forms_from_blocks(state.cov)
        for key, want in forms.items():
            assert table[key] == pytest.approx(want, abs=1e-10)


def test_cross_only_correlation_shows_in_one_pair():
    rng = np.random.default_rng(8)
    state = H.random_cross_only_state(rng)
    table = H.nu_table(state)
    assert abs(table.nu_0_90) > 0.01
    assert abs(table.nu_00) < 1e-12
    assert abs(table.nu_90_0) < 1e-12
    assert abs(table.nu_90_90) < 1e-12
    want = H.nu_forms_from_blocks(state.cov)["nu_0_90"]
    assert table.nu_0_90 == pytest.approx(want, abs=1e-10)


def test_product_state_has_vanishing_cross_coefficients():
    rng = np.random.default_rng(4)
    state = H.random_product_state(rng)
    assert H.nu_table(state).max_abs() < 1e-14


# ---------------------------------------------------------------------------
# joint and conditional densities
# ---------------------------------------------------------------------------


def test_joint_density_matches_phase_space_integration():
    rng = np.random.default_rng(12)
    for _ in range(5):
        state = H.random_bipartite_state(rng)
        ta, tb = rng.uniform(0.0, 2.0 * np.pi, size=2)
        form = joint_marginal_form(state, ta, tb)
        for _ in range(3):
            xa = rng.normal(scale=np.sqrt(state.cov[0, 0]))
            xb = rng.normal(scale=np.sqrt(state.cov[2, 2]))
            direct = joint_marginal_density(form, xa, xb)
            brute = H.integrate_marginal_from_wigner(state, ta, tb, xa, xb)
            assert direct == pytest.approx(brute, rel=1e-5)


def test_joint_density_normalizes():
    form = joint_marginal_form(H.measured_state(), 0.3, 1.1)
    sa = np.sqrt(form.mu / (2.0 * (form.lam * form.mu - form.nu**2)))
    sb = np.sqrt(form.lam / (2.0 * (form.lam * form.mu - form.nu**2)))
    xa = np.linspace(-9 * sa, 9 * sa, 801)
    xb = np.linspace(-9 * sb, 9 * sb, 801)
    grid = joint_marginal_density(form, xa[:, None], xb[None, :])
    total = np.trapezoid(np.trapezoid(grid, xb, axis=1), xa, axis=0)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_b_is_joint_integrated_over_a():
    form = joint_marginal_form(H.measured_state(), HALF_PI, HALF_PI)
    sa = np.sqrt(form.mu / (2.0 * (form.lam * form.mu - form.nu**2)))
    xa = np.linspace(-10 * sa, 10 * sa, 2001)
    for xb in (-2.0, 0.0, 0.7, 3.5):
        joint_slice = joint_marginal_density(form, xa, xb)
        want = np.trapezoid(joint_slice, xa)
        assert marginal_b_density(form, xb) == pytest.approx(want, rel=1e-8)


def test_side_probabilities_partition_unity():
    form = joint_marginal_form(H.measured_state(), 0.0, 0.0)
    for threshold in (-1.3, 0.0, 2.4):
        p_plus = side_probability(form, +1, threshold)
        p_minus = side_probability(form, -1, threshold)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-14)
    assert side_probability(form, +1) == pytest.approx(0.5, abs=1e-14)


def test_conditional_mixture_reassembles_marginal():
    form = joint_marginal_form(H.measured_state(), 0.0, 0.0)
    xb = np.linspace(-20.0, 20.0, 401)
    for threshold in (0.0, 1.5):
        p_plus = side_probability(form, +1, threshold)
        p_minus = side_probability(form, -1, threshold)
        mix = (p_plus * conditional_marginal_density(form, xb, +1, threshold)
               + p_minus * conditional_marginal_density(form, xb, -1, threshold))
        assert np.max(np.abs(mix - marginal_b_density(form, xb))) < 1e-9


def test_conditionals_normalize_at_any_threshold():
    form = joint_marginal_form(H.measured_state(), HALF_PI, HALF_PI)
    sb = np.sqrt(form.lam / (2.0 * (form.lam * form.mu - form.nu**2)))
    xb = np.linspace(-12 * sb, 12 * sb, 4001)
    for threshold in (0.0, -2.0):
        for sign in (+1, -1):
            dens = conditional_marginal_density(form, xb, sign, threshold)
            assert np.all(dens >= 0.0)
            assert np.trapezoid(dens, xb) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValidationError):
        conditional_marginal_density(form, xb, 0)


def test_form_validation():
    with pytest.raises(ValidationError):
        MarginalForm(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        MarginalForm(1.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# analytic peak separation
# ---------------------------------------------------------------------------


def test_separation_frozen_values_on_reference_covariance():
    state = H.measured_state()
    d00 = analytic_peak_separation(joint_marginal_form(state, 0.0, 0.0))
    d99 = analytic_peak_separation(joint_marginal_form(state, HALF_PI, HALF_PI))
    assert d00 == pytest.approx(H.MEASURED_DELTA_00, abs=1e-9)
    assert d99 == pytest.approx(H.MEASURED_DELTA_90_90, abs=1e-9)


def test_separation_vanishes_without_correlation():
    rng = np.random.default_rng(6)
    form = joint_marginal_form(H.random_product_state(rng), 0.0, 0.0)
    assert analytic_peak_separation(form) == 0.0


def test_separation_is_odd_in_the_cross_coefficient():
    form = MarginalForm(0.3, 0.4, 0.2)
    flipped = MarginalForm(0.3, 0.4, -0.2)
    assert analytic_peak_separation(form) == pytest.approx(
        -analytic_peak_separation(flipped), abs=1e-12)
    assert analytic_peak_separation(form) > 0.0


def test_separation_against_dense_scan():
    # independent oracle: evaluate the conditional on a dense grid and
    # locate its maximum by parabolic refinement of the top sample
    form = joint_marginal_form(
        split_balanced(modulated_beam(0.0, 2.0)), HALF_PI, HALF_PI)
    xb = np.linspace(-6.0, 6.0, 240001)
    peaks = []
    for sign in (+1, -1):
        dens = conditional_marginal_density(form, xb, sign)
        i = int(np.argmax(dens))
        a, b, c = np.log(dens[i - 1: i + 2])
        peaks.append(xb[i] + 0.5 * (a - c) / (a - 2.0 * b + c) * (xb[1] - xb[0]))
    assert analytic_peak_separation(form) == pytest.approx(
        peaks[0] - peaks[1], abs=1e-7)


def test_separation_frozen_sweep_values():
    for depth, frozen in H.SWEEP_FROZEN.items():
        form = joint_marginal_form(
            split_balanced(modulated_beam(0.0, depth)), HALF_PI, HALF_PI)
        assert analytic_peak_separation(form) == pytest.approx(frozen, abs=5e-6)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_separation_agrees_with_the_brentq_oracle(sign):
    for lam in (0.05, 0.3, 2.0):
        for mu in (0.05, 0.4, 3.0):
            for share in (1e-3, 0.1, 0.5, 0.9, 0.999):
                # |nu| a share of its bound sqrt(lam * mu)
                form = MarginalForm(lam, mu, sign * share * math.sqrt(lam * mu))
                assert analytic_peak_separation(form) == pytest.approx(
                    H.brentq_peak_separation(form), abs=PEAK_XTOL)


def test_bracketed_root_takes_a_newton_step_onto_the_bracket_end():
    calls = []

    def slope(x):
        calls.append(x)
        return 0.75 - x * x, -2.0 * x

    # after the two ends, the Newton step from the midpoint 0.5 lands on
    # the end 1.0 and is taken, not replaced by a bisection
    assert _bracketed_root(slope, 0.0, 1.0) == pytest.approx(math.sqrt(0.75), abs=1e-15)
    assert calls[:4] == [0.0, 1.0, 0.5, 1.0]
    assert len(calls) <= 8


def test_bracketed_root_failures_are_numeric_errors(monkeypatch):
    with pytest.raises(NumericError, match="no sign change"):
        _bracketed_root(lambda x: (x + 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(NumericError, match="no sign change"):
        _bracketed_root(lambda x: (math.nan, 1.0), 0.0, 1.0)
    # a flat slope leaves only bisection, which one step does not finish
    monkeypatch.setattr(marginals, "PEAK_MAXITER", 1)
    with pytest.raises(NumericError, match="did not converge in 1 steps"):
        marginals._bracketed_root(lambda x: (0.3 - x, 0.0), 0.0, 1.0)


def test_separation_grows_with_modulation():
    depths = np.linspace(0.0, 5.0, 22)
    values = []
    for depth in depths:
        form = joint_marginal_form(
            split_balanced(modulated_beam(0.0, depth)), HALF_PI, HALF_PI)
        values.append(analytic_peak_separation(form))
    assert values[0] == 0.0
    assert np.all(np.diff(values) > 0.0)


# ---------------------------------------------------------------------------
# classical mixtures
# ---------------------------------------------------------------------------


def test_input_marginal_component_shapes():
    x = np.linspace(-16.0, 20.0, 3601)

    coherent = PMixtureState((CoherentPoint(1.0, 1.5),), eta=0.7)
    dens = input_marginal_D1(coherent, x)
    mean = np.trapezoid(x * dens, x)
    var = np.trapezoid((x - mean) ** 2 * dens, x)
    assert mean == pytest.approx(np.sqrt(2.0) * 1.5, abs=1e-9)
    assert var == pytest.approx(1.0, abs=1e-9)

    xt = np.linspace(-30.0, 30.0, 6001)
    thermal = PMixtureState((ThermalComponent(1.0, 1.7),), eta=0.7)
    dens = input_marginal_D1(thermal, xt)
    assert np.trapezoid(xt**2 * dens, xt) == pytest.approx(2 * 1.7 + 1, abs=1e-8)

    xs = np.linspace(-12.0, 12.0, 2401)
    arcsine = PMixtureState((ArcsineComponent(1.0, 3.0),), eta=0.7)
    dens = input_marginal_D1(arcsine, xs)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)
    # double humped, maxima just inside the turning points of the
    # modulation (the vacuum convolution pulls the edge spikes inward)
    turning = np.sqrt(2.0) * 3.0
    peaks = xs[np.nonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]))[0] + 1]
    assert len(peaks) == 2
    assert peaks[0] == pytest.approx(-peaks[1], abs=0.02)
    assert turning - 1.2 < peaks[1] < turning


def _arcsine_by_quad(alpha0, u):
    """Reference arcsine marginal in natural units, one adaptive quadrature
    per point over the half period (the integrand is even in phi)."""
    val, _ = integrate.quad(lambda phi: np.exp(-((u - alpha0 * np.cos(phi)) ** 2)),
                            0.0, np.pi, epsabs=1e-15, epsrel=1e-13, limit=400)
    return val / (np.pi * np.sqrt(np.pi))


def _natural_d1(mix, u):
    """input_marginal_D1 in natural units: the shot-noise density D at
    x = sqrt(2) u, times sqrt(2)."""
    return input_marginal_D1(mix, ROOT2 * np.asarray(u)) * ROOT2


@pytest.mark.parametrize("alpha0", [0.0, 0.5, 3.0, 8.0])
def test_arcsine_marginal_matches_quadrature(alpha0):
    mix = PMixtureState((ArcsineComponent(1.0, alpha0),), eta=0.7)
    u = np.linspace(-12.0, 12.0, 231)
    want = np.array([_arcsine_by_quad(alpha0, v) for v in u])
    got = _natural_d1(mix, u.reshape(11, 21))
    assert got.shape == (11, 21)
    assert np.max(np.abs(got.ravel() - want)) <= 1e-12
    for v in (-12.0, -3.7, 0.0, 2.5, 8.0, 12.0):
        assert isinstance(input_marginal_D1(mix, ROOT2 * v), float)
        assert abs(_natural_d1(mix, v) - _arcsine_by_quad(alpha0, v)) <= 1e-12
    if alpha0 == 0.0:
        vacuum = PMixtureState((CoherentPoint(1.0, 0.0),), eta=0.7)
        np.testing.assert_allclose(input_marginal_D1(mix, ROOT2 * u),
                                   input_marginal_D1(vacuum, ROOT2 * u),
                                   rtol=1e-15, atol=0.0)


def test_arcsine_marginal_spans_blocks_and_keeps_nan():
    # more points than one evaluation block, in an order that mixes blocks
    mix = PMixtureState((ArcsineComponent(1.0, 2.2),), eta=0.7)
    u = np.random.default_rng(5).uniform(-9.0, 9.0, 5000)
    got = _natural_d1(mix, u)
    for i in range(0, 5000, 499):
        assert abs(got[i] - _arcsine_by_quad(2.2, u[i])) <= 1e-12
    # the node count is chosen per block, so values agree to the tolerance
    np.testing.assert_allclose(_natural_d1(mix, u[::-1]), got[::-1],
                               rtol=0.0, atol=1e-13)
    with_nan = _natural_d1(mix, np.array([np.nan, u[0]]))
    assert np.isnan(with_nan[0])
    assert with_nan[1] == pytest.approx(got[0], rel=0.0, abs=1e-13)


def test_arcsine_marginal_refuses_an_unresolvable_amplitude():
    mix = PMixtureState((ArcsineComponent(1.0, 1000.0),), eta=0.7)
    with pytest.raises(NumericError):
        input_marginal_D1(mix, 0.3)


def test_vacuum_thermal_blend_is_heavy_tailed():
    x = np.linspace(-16.0, 16.0, 3201)
    blend = PMixtureState(
        (CoherentPoint(0.5, 0.0), ThermalComponent(0.5, 2.0)), eta=0.7)
    dens = input_marginal_D1(blend, x)
    var = np.trapezoid(x**2 * dens, x)
    kurt = np.trapezoid(x**4 * dens, x) / var**2
    assert kurt > 3.05


def test_output_joint_for_coherent_input_is_product():
    mix = PMixtureState((CoherentPoint(1.0, 0.9),), eta=0.6)
    x1 = np.linspace(-9.0, 11.0, 401)
    x2 = np.linspace(-9.0, 11.0, 411)
    joint = output_joint_density(mix, x1[:, None], x2[None, :])
    m1 = np.trapezoid(joint, x2, axis=1)
    m2 = np.trapezoid(joint, x1, axis=0)
    total = np.trapezoid(m1, x1)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(joint - m1[:, None] * m2[None, :] / total)) < 1e-9
    # transmitted means: eta and eta-tilde shares of the displacement
    mean1 = np.trapezoid(x1 * m1, x1)
    assert mean1 == pytest.approx(0.6 * np.sqrt(2.0) * 0.9, abs=1e-8)
    # the displacement is real and finite
    for bad in (0.9 - 2.0j, complex(0.9), np.complex128(0.9), np.nan, np.inf):
        with pytest.raises(ValidationError, match="^alpha must be"):
            CoherentPoint(1.0, bad)


def test_output_joint_normalizes_for_every_component_kind():
    x1 = np.linspace(-14.0, 14.0, 241)
    x2 = np.linspace(-14.0, 14.0, 243)
    for mix in (
        PMixtureState((ThermalComponent(1.0, 2.5),), eta=1 / np.sqrt(2)),
        PMixtureState((CoherentPoint(0.4, -2.0), CoherentPoint(0.6, 1.0)),
                      eta=0.45),
        PMixtureState((ArcsineComponent(1.0, 2.0),), eta=1 / np.sqrt(2)),
    ):
        joint = output_joint_density(mix, x1[:, None], x2[None, :])
        total = np.trapezoid(np.trapezoid(joint, x2, axis=1), x1, axis=0)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_mixture_validation():
    with pytest.raises(ValidationError):
        PMixtureState((), eta=0.5)
    with pytest.raises(ValidationError):
        PMixtureState((CoherentPoint(0.7, 0.0),), eta=0.5)
    with pytest.raises(ValidationError):
        PMixtureState((CoherentPoint(1.0, 0.0),), eta=1.5)
    with pytest.raises(ValidationError):
        PMixtureState((CoherentPoint(1.5, 0.0), CoherentPoint(-0.5, 1.0)), eta=0.5)
    with pytest.raises(ValidationError):
        ThermalComponent(1.0, -0.2)
