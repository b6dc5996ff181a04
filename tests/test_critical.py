"""Critical-limit studies: sweeps, distance reports, smallness, interpolation."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from sqglab.critical import (
    DEFAULT_SWEEP_ALPHAS,
    L43_FROZEN_CONSTANT,
    SMALLNESS_THRESHOLD,
    AlphaSweepConfig,
    ConvergenceReport,
    DiscreteConstants,
    calibrate_l43_constant,
    h_minus_half_distance,
    interpolation_upgrade,
    l43_interpolation_check,
    pairwise_bound_check,
    smallness_coefficient,
    sweep_with_runs,
    weak_form_residual,
)
from sqglab.dynamics import SimulationState, SqgParams, default_dt
from sqglab.fields import random_smooth_field, shear_field
from sqglab.spectral import Basis, DomainSpec, cosine_field, sobolev_norm


@pytest.fixture(scope="module")
def small_sweep(torus32):
    """One modest random-data sweep shared by the report-shape tests."""
    config = AlphaSweepConfig(
        theta0=random_smooth_field(torus32, seed=7, amplitude=0.05),
        kappa=0.2,
        alphas=(0.75, 0.65, 0.6, 0.55),
        t_end=0.5,
    )
    report, runs = sweep_with_runs(config)
    return config, report, runs


class TestSmallness:
    def test_threshold_value(self):
        assert SMALLNESS_THRESHOLD == pytest.approx(1.0 / (2.0 / math.pi + 2.0))
        assert SMALLNESS_THRESHOLD == pytest.approx(0.379273496, abs=1e-9)

    def test_zero_data_gives_minus_c1(self):
        constants = DiscreteConstants(coercivity_c1=2.5)
        assert smallness_coefficient(0.0, 0.0, constants) == pytest.approx(-2.5)

    def test_sign_flips_exactly_at_threshold(self):
        half = SMALLNESS_THRESHOLD / 2.0
        assert smallness_coefficient(half, half) == pytest.approx(0.0, abs=1e-15)
        assert smallness_coefficient(0.9 * half, 0.9 * half) < 0.0
        assert smallness_coefficient(1.1 * half, 1.1 * half) > 0.0

    def test_negative_norms_rejected(self):
        with pytest.raises(ValueError, match="sup norms must be nonnegative"):
            smallness_coefficient(-0.1, 0.0)

    def test_from_domain_coercivity(self, torus32):
        # 2*pi box: smallest positive |k|^2 is 1, so c1 = 1/sqrt(2 kappa).
        constants = DiscreteConstants.from_domain(torus32, kappa=0.5)
        assert constants.coercivity_c1 == pytest.approx(1.0)
        assert constants.resolvent_m == 1.0 and constants.riesz_c == 1.0

    def test_from_domain_validation(self, torus32):
        with pytest.raises(ValueError, match="kappa must be positive"):
            DiscreteConstants.from_domain(torus32, kappa=0.0)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            DiscreteConstants.from_domain(torus32, kappa=1.0, alpha=1.5)

    def test_constants_positivity(self):
        with pytest.raises(ValueError, match="riesz_c must be positive"):
            DiscreteConstants(riesz_c=0.0)


class TestHMinusHalfDistance:
    def test_identical_fields(self, torus32):
        a = random_smooth_field(torus32, seed=1)
        assert h_minus_half_distance(a, a) == 0.0

    def test_single_mode_scaling(self, torus64):
        # A pure |k| = 4 difference: H^{-1/2} norm is exactly half the L2 norm.
        a = cosine_field(torus64, k=(4, 0))
        b = cosine_field(torus64, k=(4, 0), amplitude=-1.0)
        dist = h_minus_half_distance(a, b)
        assert dist == pytest.approx(0.5 * sobolev_norm(a - b, 0.0), rel=1e-12)

    def test_triangle_inequality(self, torus32):
        a = random_smooth_field(torus32, seed=2)
        b = random_smooth_field(torus32, seed=3)
        c = random_smooth_field(torus32, seed=4)
        assert h_minus_half_distance(a, c) <= (
            h_minus_half_distance(a, b) + h_minus_half_distance(b, c) + 1e-12
        )

    def test_domain_mismatch(self, torus32, torus64):
        a = random_smooth_field(torus32, seed=5)
        b = random_smooth_field(torus64, seed=5)
        with pytest.raises(ValueError, match="must share a domain"):
            h_minus_half_distance(a, b)


class TestSweepConfig:
    def test_default_ladder(self):
        assert DEFAULT_SWEEP_ALPHAS == (0.75, 0.65, 0.6, 0.55, 0.52, 0.51)

    def test_alpha_validation(self, torus32):
        theta0 = shear_field(torus32, amplitude=0.1)
        with pytest.raises(ValueError, match="at least one dissipation order"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, alphas=())
        with pytest.raises(ValueError, match=r"sweep alphas must lie in \(1/2, 1\]"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, alphas=(0.75, 0.5))
        with pytest.raises(ValueError, match="strictly decreasing"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, alphas=(0.6, 0.75))
        with pytest.raises(ValueError, match="at or above 0.505"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, alphas=(0.6, 0.504))

    def test_parameter_validation(self, torus32, torus64):
        theta0 = shear_field(torus32, amplitude=0.1)
        with pytest.raises(ValueError, match="kappa must be positive"):
            AlphaSweepConfig(theta0=theta0, kappa=0.0)
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, lam=-1.0)
        with pytest.raises(ValueError, match="t_end must be positive"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, t_end=0.0)
        with pytest.raises(ValueError, match=r"dt must lie in \(0, t_end\], got -0.1"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, dt=-0.1)
        with pytest.raises(ValueError, match=r"dt must lie in \(0, t_end\], got 1.0"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, t_end=0.005, dt=1.0)
        with pytest.raises(ValueError, match="sample_every must be a positive integer"):
            AlphaSweepConfig(theta0=theta0, kappa=0.1, sample_every=0)
        with pytest.raises(ValueError, match="forcing must live on the same domain"):
            AlphaSweepConfig(
                theta0=theta0, kappa=0.1, forcing=shear_field(torus64, amplitude=0.1)
            )

    def test_cfl_dt_capped_by_horizon(self, torus32):
        # a pinned dt above t_end is rejected; the CFL-derived one is capped
        theta0 = shear_field(torus32, amplitude=0.1)
        config = AlphaSweepConfig(theta0=theta0, kappa=0.1, t_end=0.005)
        assert default_dt(theta0) > 0.005
        assert config.shared_dt() == 0.005
        assert AlphaSweepConfig(theta0=theta0, kappa=0.1, t_end=0.005, dt=0.005).shared_dt() == 0.005

    def test_params_for_carries_shared_settings(self, torus32):
        theta0 = shear_field(torus32, amplitude=0.1)
        config = AlphaSweepConfig(theta0=theta0, kappa=0.3, lam=0.2)
        params = config.params_for(0.6)
        assert params.kappa == 0.3 and params.alpha == 0.6 and params.lam == 0.2


class TestConvergenceReport:
    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError, match="pairwise matrix must be"):
            ConvergenceReport(
                alphas=(0.75, 0.6), times=(0.0,), pairwise=np.zeros((3, 3)),
                sup_infnorms=(1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )

    def test_symmetry_and_diagonal_validation(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="must be symmetric"):
            ConvergenceReport(
                alphas=(0.75, 0.6), times=(0.0,), pairwise=bad,
                sup_infnorms=(1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )
        with pytest.raises(ValueError, match="zero diagonal"):
            ConvergenceReport(
                alphas=(0.75, 0.6), times=(0.0,), pairwise=np.eye(2),
                sup_infnorms=(1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )

    def test_as_dict_keys(self, small_sweep):
        _, report, _ = small_sweep
        d = report.as_dict()
        assert set(d) == {
            "alphas", "times", "pairwise_h_minus_half", "sup_infnorms",
            "smallness_coeff", "per_pair_bound", "fitted_exponent",
        }
        assert d["per_pair_bound"][0]["delta_alpha"] == pytest.approx(0.2)

    def test_distance_table_matches_pairwise_distances(self, small_sweep):
        config, report, runs = small_sweep
        m = len(config.alphas)
        assert report.distances.shape == (m * (m - 1) // 2, len(report.times))
        pair = 0
        for i in range(m):
            for j in range(i + 1, m):
                want = [
                    h_minus_half_distance(a.theta, b.theta)
                    for a, b in zip(runs[i].states, runs[j].states)
                ]
                np.testing.assert_allclose(report.distances[pair], want, rtol=1e-12, atol=0)
                assert report.pairwise[i, j] == report.distances[pair].max()
                pair += 1
        np.testing.assert_array_equal(report.pairwise, report.pairwise.T)


class TestSweeps:
    def test_shear_sweep_is_alpha_degenerate(self, torus32):
        # The |k| = 1 shear has unit Laplacian symbol, so every dissipation
        # order produces the same trajectory and all distances vanish.
        config = AlphaSweepConfig(
            theta0=shear_field(torus32, amplitude=0.05), kappa=0.2,
            alphas=(0.75, 0.6, 0.55), t_end=0.5,
        )
        report, _ = sweep_with_runs(config)
        assert float(np.abs(report.pairwise).max()) == 0.0
        assert report.fitted_exponent == 0.0

    def test_report_trend_toward_critical(self, small_sweep):
        config, report, runs = small_sweep
        assert report.alphas == config.alphas
        assert len(runs) == len(config.alphas)
        distances = report.distances_to_most_critical()
        assert len(distances) == len(config.alphas) - 1
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert report.fitted_exponent > 0.0
        assert report.smallness_coeff < 0.0

    def test_sweep_runs_share_sample_times(self, small_sweep):
        _, report, runs = small_sweep
        for run in runs:
            assert tuple(run.series.times) == report.times

    def test_pairwise_bound_records(self, small_sweep):
        _, report, _ = small_sweep
        records = pairwise_bound_check(report, c3_guess=1.0)
        names = [r.name for r in records]
        assert "fitted-exponent-positive" in names
        assert any(name.startswith("pair-monotone-alpha-") for name in names)
        assert any(name.startswith("linear-rate-bound-dalpha-") for name in names)
        assert all(r.passed for r in records)

    def test_pairwise_bound_requires_contraction(self, small_sweep):
        _, report, _ = small_sweep
        with pytest.raises(ValueError, match="c2 must be positive"):
            pairwise_bound_check(report, c2=-1.0)
        with pytest.raises(ValueError, match="c3_guess must be positive"):
            pairwise_bound_check(report, c3_guess=0.0)

    def test_large_data_warns(self, torus32):
        config = AlphaSweepConfig(
            theta0=random_smooth_field(torus32, seed=8, amplitude=5.0),
            kappa=0.2, alphas=(0.75, 0.6), t_end=0.02, dt=0.01,
        )
        with pytest.warns(UserWarning, match="too large for the smallness regime"):
            sweep_with_runs(config)

    def test_single_alpha_report_is_degenerate(self, torus32):
        config = AlphaSweepConfig(
            theta0=shear_field(torus32, amplitude=0.05), kappa=0.2,
            alphas=(0.6,), t_end=0.1,
        )
        report, _ = sweep_with_runs(config)
        assert report.pairwise.shape == (1, 1)
        assert report.distances_to_most_critical() == ()
        assert report.per_pair_bound == ()
        assert report.fitted_exponent == 0.0

    def test_dirichlet_sweep_produces_report(self, dirichlet32):
        config = AlphaSweepConfig(
            theta0=random_smooth_field(dirichlet32, seed=9, amplitude=0.05),
            kappa=0.2, alphas=(0.75, 0.6), t_end=0.3,
        )
        report, _ = sweep_with_runs(config)
        assert report.pairwise[0, 1] > 0.0
        assert report.smallness_coeff < 0.0


class TestInterpolationUpgrade:
    def test_single_mode_is_equality(self, torus32):
        a = cosine_field(torus32, k=(3, 0))
        b = cosine_field(torus32, k=(3, 0), amplitude=0.25)
        lhs, rhs = interpolation_upgrade(a, b, epsilon=0.3)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_general_fields_satisfy_inequality(self, torus32):
        a = random_smooth_field(torus32, seed=10)
        b = random_smooth_field(torus32, seed=11)
        for eps in (0.1, 0.25, 0.4):
            lhs, rhs = interpolation_upgrade(a, b, eps)
            assert lhs <= rhs * (1.0 + 1e-10)

    def test_identical_fields_return_zeros(self, torus32):
        a = random_smooth_field(torus32, seed=12)
        assert interpolation_upgrade(a, a, 0.25) == (0.0, 0.0)

    def test_epsilon_validation(self, torus32):
        a = random_smooth_field(torus32, seed=13)
        for eps in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/2\)"):
                interpolation_upgrade(a, a, eps)


class TestL43Check:
    def test_frozen_constant_holds_on_study_grid(self, torus64):
        for seed in (0, 1, 2):
            a = random_smooth_field(torus64, seed=seed)
            b = random_smooth_field(torus64, seed=seed + 100)
            record = l43_interpolation_check(a, b)
            assert record.name == "l43-interpolation"
            assert record.passed

    def test_zero_difference(self, torus32):
        a = random_smooth_field(torus32, seed=14)
        record = l43_interpolation_check(a, a)
        assert record.lhs == 0.0 and record.rhs == 0.0 and record.passed

    def test_parameter_validation(self, torus32):
        a = random_smooth_field(torus32, seed=15)
        with pytest.raises(ValueError, match="constant must be positive"):
            l43_interpolation_check(a, a, constant=0.0)
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\)"):
            l43_interpolation_check(a, a, mu=1.0)

    def test_calibration_sits_below_frozen_value(self, torus32):
        assert calibrate_l43_constant(torus32) < L43_FROZEN_CONSTANT


class TestWeakFormResidual:
    @staticmethod
    def _critical_shear_states(domain, kappa, times):
        # Exact critical-equation trajectory: the unit-symbol shear decays as
        # exp(-kappa t) and its transport term vanishes identically.
        chi = shear_field(domain, amplitude=1.0)
        return [
            SimulationState(t=t, theta=chi * float(np.exp(-kappa * t)))
            for t in times
        ], chi

    def test_residual_second_order_in_sampling(self, torus32):
        kappa = 0.3
        params = SqgParams(kappa=kappa, alpha=0.75)
        coarse, chi = self._critical_shear_states(
            torus32, kappa, [0.0, 0.05, 0.1, 0.15, 0.2]
        )
        fine, _ = self._critical_shear_states(
            torus32, kappa, [0.0, 0.025, 0.05, 0.075, 0.1]
        )
        (res_coarse,) = weak_form_residual(coarse, [chi], params)
        (res_fine,) = weak_form_residual(fine, [chi], params)
        assert res_coarse > 0.0
        assert res_coarse / res_fine == pytest.approx(4.0, rel=0.1)

    def test_orthogonal_test_function_sees_nothing(self, torus32):
        params = SqgParams(kappa=0.3, alpha=0.75)
        states, chi = self._critical_shear_states(
            torus32, 0.3, [0.0, 0.05, 0.1, 0.15]
        )
        residuals = weak_form_residual(
            states, [chi, cosine_field(torus32, k=(0, 2))], params
        )
        assert residuals[1] == 0.0

    def test_validation(self, torus32, torus64):
        params = SqgParams(kappa=0.3, alpha=0.75)
        states, chi = self._critical_shear_states(torus32, 0.3, [0.0, 0.1])
        with pytest.raises(ValueError, match="at least three samples"):
            weak_form_residual(states, [chi], params)
        states3, chi3 = self._critical_shear_states(torus32, 0.3, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="at least one test function"):
            weak_form_residual(states3, [], params)
        with pytest.raises(ValueError, match="must live on the trajectory domain"):
            weak_form_residual(states3, [shear_field(torus64)], params)
