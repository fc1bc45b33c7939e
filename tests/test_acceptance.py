"""Acceptance gate: one test per shipped guarantee.

Each test asserts the full guarantee at the stated tolerance and prints a
single ACCEPTANCE line, so `pytest -v` (or -s) reads as a checklist.  The
tolerances and sample sizes here are contractual; loosening them to make a
failing build green defeats the point of the gate.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from cvdiscord.cli import main
from cvdiscord.fock import (build_ce_hidden_discord, build_ce_zero_discord,
                            commutator_norm, condition_b_on_sign,
                            default_grid, homodyne_marginal_fock,
                            marginal_peak, quadrature_moments, squeezed_vacuum_fock,
                            superposition_basis, thermal_fock,
                            verify_classical_on_b)
from cvdiscord.marginals import (ArcsineComponent, CoherentPoint,
                                 PMixtureState, ThermalComponent,
                                 conditional_marginal_density,
                                 input_marginal_D1, joint_marginal_density,
                                 joint_marginal_form, marginal_b_density,
                                 output_joint_density)
from cvdiscord.sampler import (AsyncSine, SwitchedNoise, SwitchedPhase,
                               SWITCHED_PHASE_THRESHOLD, sample_gaussian,
                               sample_scheme)
from cvdiscord.states import (c_block_is_zero, modulated_beam, split_balanced,
                              tensor, vacuum_single)
from cvdiscord.verifier import (CANONICAL_PAIRS, sweep_modulation,
                                verdict_gaussian, verdict_mixture)

from helpers import (MEASURED_NU_00, MEASURED_NU_90_90, concat_records,
                     integrate_marginal_from_wigner, integrate_wigner_4d,
                     measured_state, nu_forms_from_blocks, nu_table,
                     random_bipartite_state, random_diag_block_state,
                     random_product_state)

HALF_PI = math.pi / 2.0


def form_cov(form):
    det = form.lam * form.mu - form.nu**2
    return np.array([[form.mu, form.nu], [form.nu, form.lam]]) / (2.0 * det)


def test_acceptance_01_reference_covariance_verdict():
    t0 = time.perf_counter()
    state = measured_state()
    assert not c_block_is_zero(state)

    table = nu_table(state)
    assert table.nu_00 == pytest.approx(0.1692, abs=1e-3)
    assert table.nu_90_90 == pytest.approx(0.2323, abs=1e-3)
    # and the values themselves are pinned much tighter
    assert table.nu_00 == pytest.approx(MEASURED_NU_00, abs=1e-12)
    assert table.nu_90_90 == pytest.approx(MEASURED_NU_90_90, abs=1e-12)

    parts = [sample_gaussian(state, [(ta, tb)], 1_000_000, seed=11 + i)
             for i, (ta, tb) in enumerate(CANONICAL_PAIRS)]
    verdict = verdict_gaussian(concat_records(parts), k_min=3.0, seed=1,
                               n_boot=60)
    assert verdict.decision == "discordant"
    by_pair = {(p.theta_a, p.theta_b): p for p in verdict.per_pair}
    assert by_pair[(0.0, 0.0)].k >= 3.0
    assert by_pair[(HALF_PI, HALF_PI)].k >= 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 01 reference-covariance verdict: PASS ({elapsed:.1f}s)")


def test_acceptance_02_modulation_depth_sweep():
    t0 = time.perf_counter()
    depths = np.linspace(0.0, 5.0, 22)
    rows = sweep_modulation(depths, n=100_000, seed=21, n_boot=60)

    analytic = np.array([r["delta_analytic"] for r in rows])
    assert np.all(np.diff(analytic) > 0)

    hits = sum(abs(r["delta"] - r["delta_analytic"]) <= 3.0 * r["sigma_delta"]
               for r in rows)
    assert hits >= 20

    # the smallest nonzero depth is still detectable with enough data
    state = split_balanced(modulated_beam(0.0, 0.2))
    rs = sample_gaussian(state, [(HALF_PI, HALF_PI)], 2_000_000, seed=77)
    pair = verdict_gaussian(rs, pairs=[(HALF_PI, HALF_PI)], seed=77,
                            n_boot=60).per_pair[0]
    delta, sigma = pair.delta, pair.sigma_delta
    assert abs(delta) / sigma >= 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 02 modulation depth sweep: PASS "
          f"({hits}/22 within 3 sigma, small-depth k={abs(delta) / sigma:.1f}, "
          f"{elapsed:.0f}s)")


def test_acceptance_03_null_soundness():
    detected = 0
    p_values = []
    for i in range(100):
        rng = np.random.default_rng(3000 + 17 * i)
        state = random_product_state(rng)
        parts = [sample_gaussian(state, [(ta, tb)], 20_000, seed=4000 + 4 * i + j)
                 for j, (ta, tb) in enumerate(CANONICAL_PAIRS)]
        verdict = verdict_gaussian(concat_records(parts), k_min=3.0,
                                   seed=i, n_boot=100)
        detected += verdict.decision == "discordant"
        p_values.extend(p.chi2.p_value for p in verdict.per_pair)
    assert detected <= 5

    ks = stats.kstest(p_values, "uniform")
    assert ks.pvalue > 0.01
    print(f"ACCEPTANCE 03 null soundness: PASS "
          f"({detected}/100 false alarms, KS p={ks.pvalue:.3f})")


def test_acceptance_04_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        state = random_bipartite_state(rng)
        ta, tb = rng.uniform(0.0, np.pi, size=2)
        form = joint_marginal_form(state, ta, tb)
        cov = form_cov(form)
        xa = form.mean_a + 0.6 * math.sqrt(cov[0, 0])
        xb = form.mean_b - 0.8 * math.sqrt(cov[1, 1])
        ref = integrate_marginal_from_wigner(state, ta, tb, xa, xb)
        got = joint_marginal_density(form, xa, xb)
        # the form parameters must stand on their own as a 2D Gaussian
        via_form = stats.multivariate_normal(
            mean=[form.mean_a, form.mean_b], cov=cov).pdf([xa, xb])
        worst = max(worst, abs(got - ref) / ref, abs(via_form - ref) / ref)
    assert worst <= 1e-5

    rng = np.random.default_rng(405)
    worst_nu = 0.0
    for _ in range(50):
        state = random_diag_block_state(rng)
        table = nu_table(state)
        forms = nu_forms_from_blocks(state.cov)
        for key in ("nu_00", "nu_0_90", "nu_90_0", "nu_90_90"):
            worst_nu = max(worst_nu, abs(getattr(table, key) - forms[key]))
    assert worst_nu <= 1e-10
    print(f"ACCEPTANCE 04 oracle equivalence: PASS "
          f"(joint rel err {worst:.2e}, nu abs err {worst_nu:.2e})")


def test_acceptance_05_normalization_suite():
    state = measured_state()
    rng = np.random.default_rng(505)
    other = random_bipartite_state(rng)

    for s in (state, other):
        assert integrate_wigner_4d(s, points=61) == pytest.approx(1.0,
                                                                  abs=1e-6)

    for ta, tb in ((0.0, 0.0), (0.7, 1.9)):
        form = joint_marginal_form(state, ta, tb)
        cov = form_cov(form)
        sa, sb = np.sqrt(np.diag(cov))
        xa = np.linspace(form.mean_a - 9 * sa, form.mean_a + 9 * sa, 801)
        xb = np.linspace(form.mean_b - 9 * sb, form.mean_b + 9 * sb, 801)
        joint = joint_marginal_density(form, xa[:, None], xb[None, :])
        mass = np.trapezoid(np.trapezoid(joint, xb, axis=1), xa)
        assert mass == pytest.approx(1.0, abs=1e-6)

        assert np.trapezoid(marginal_b_density(form, xb),
                            xb) == pytest.approx(1.0, abs=1e-6)
        for threshold in (0.0, 0.8):
            for sign in (+1, -1):
                dens = conditional_marginal_density(form, xb, sign, threshold)
                assert np.trapezoid(dens, xb) == pytest.approx(1.0, abs=1e-6)

    # equal-weight split: at threshold 0 the zero-mean state conditions
    # with p=1/2 each, so the plain average must rebuild the marginal
    form = joint_marginal_form(state, 0.0, 0.0)
    xb = np.linspace(-45.0, 45.0, 4001)
    blend = 0.5 * (conditional_marginal_density(form, xb, +1, 0.0)
                   + conditional_marginal_density(form, xb, -1, 0.0))
    assert np.max(np.abs(blend - marginal_b_density(form, xb))) <= 1e-9

    mix = PMixtureState((CoherentPoint(0.35, 1.2),
                         ThermalComponent(0.45, 0.8),
                         ArcsineComponent(0.20, 1.5)),
                        eta=1.0 / math.sqrt(2.0))
    x = np.linspace(-16.0, 16.0, 4001)
    assert np.trapezoid(input_marginal_D1(mix, x), x) == pytest.approx(
        1.0, abs=1e-6)

    mix2 = PMixtureState((CoherentPoint(0.5, 0.9), ThermalComponent(0.5, 1.1)),
                         eta=1.0 / math.sqrt(2.0))
    g = np.linspace(-14.0, 14.0, 701)
    dens = output_joint_density(mix2, g[:, None], g[None, :])
    mass = np.trapezoid(np.trapezoid(dens, g, axis=1), g)
    assert mass == pytest.approx(1.0, abs=1e-6)
    print("ACCEPTANCE 05 normalization suite: PASS")


def test_acceptance_06_non_gaussian_verdicts():
    runs = [
        ("switched noise", SwitchedNoise(3.0, 3.0, 0.5), 0.0, 0.0, 0.0),
        ("switched phase", SwitchedPhase(), HALF_PI, HALF_PI,
         SWITCHED_PHASE_THRESHOLD),
        ("async sine", AsyncSine(3.0), 0.0, 0.0, 0.0),
    ]
    worst_p = 0.0
    for i, (name, scheme, ta, tb, threshold) in enumerate(runs):
        rs = sample_scheme(scheme, [(ta, tb)], 1_000_000, 600 + i)
        verdict = verdict_mixture(rs, threshold=threshold)
        assert verdict.decision == "discordant", name
        p = min(s.chi2.p_value for s in verdict.sides)
        assert p < 1e-6, name
        worst_p = max(worst_p, p)

    vacuum = tensor(vacuum_single(), vacuum_single())
    control = sample_gaussian(vacuum, [(0.0, 0.0)], 1_000_000, 699)
    verdict = verdict_mixture(control, threshold=0.0)
    assert verdict.decision == "not-detected"
    print(f"ACCEPTANCE 06 non-Gaussian verdicts: PASS "
          f"(worst chi2 p={worst_p:.1e}, control clean)")


def test_acceptance_07_counterexample_certification():
    t0 = time.perf_counter()

    zero = build_ce_zero_discord(alpha=1.0)
    assert verify_classical_on_b(zero, superposition_basis(zero.dim_b))
    def peak(rho, xs):
        return marginal_peak(rho, xs[np.argmax(homodyne_marginal_fock(rho, xs))])

    xs = default_grid(zero.dim_b)
    (rho_p, _), (rho_m, _) = condition_b_on_sign(zero)
    sep = peak(rho_p, xs) - peak(rho_m, xs)
    assert sep > 0.1

    hidden = build_ce_hidden_discord(nbar=1.0, r=0.5)
    assert hidden.dim_a <= 40 and hidden.dim_b <= 40
    xs = default_grid(hidden.dim_b)
    (rho_p, _), (rho_m, _) = condition_b_on_sign(hidden)
    hidden_sep = abs(peak(rho_p, xs) - peak(rho_m, xs))
    assert hidden_sep < 1e-3
    (_, var_p), (_, var_m) = (quadrature_moments(rho) for rho in (rho_p, rho_m))
    assert max(var_p, var_m) / min(var_p, var_m) > 1.1
    sq = squeezed_vacuum_fock(0.5, hidden.dim_b)
    assert commutator_norm(thermal_fock(1.0, hidden.dim_b),
                           np.outer(sq, sq.conj())) > 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 07 counterexample certification: PASS "
          f"(zero sep={sep:.2f}, hidden sep={hidden_sep:.1e}, "
          f"{elapsed:.1f}s)")


def test_acceptance_08_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = []
    verdicts = []
    for tag, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        assert main(["simulate", "--depth", "2.5", "--n", "50000",
                     "--seed", "42", "--pairs", "0,0;90,90",
                     "--workers", workers, "--out", f"rec_{tag}.csv"]) == 0
        assert main(["verify", "--records", f"rec_{tag}.csv",
                     "--pairs", "0,0;90,90", "--boot", "50",
                     "--out", f"verdict_{tag}.json"]) == 0
        records.append((tmp_path / f"rec_{tag}.csv").read_bytes())
        verdicts.append((tmp_path / f"verdict_{tag}.json").read_bytes())
    assert records[0] == records[1] == records[2]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    assert json.loads(verdicts[0])["decision"] == "discordant"
    print("ACCEPTANCE 08 determinism: PASS (bytes stable across runs "
          "and worker counts)")
