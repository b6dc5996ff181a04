"""Critical-limit studies: sweeps, distance reports, smallness, interpolation."""

from __future__ import annotations

import dataclasses
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
    SweepRun,
    _coercivity,
    h_minus_half_distance,
    interpolation_upgrade,
    l43_interpolation_check,
    pairwise_bound_check,
    smallness_coefficient,
    sweep_with_runs,
)
from sqglab.dynamics import SimulationState, default_dt, integrate
from sqglab.fields import random_smooth_field, shear_field
from sqglab.spectral import (
    Basis,
    DomainSpec,
    cosine_field,
    grid_lp_norm,
    sine_mode_field,
    sobolev_norm,
)


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


@pytest.fixture(scope="module")
def dirichlet_sweep(dirichlet32):
    """The same kind of sweep on the Dirichlet box, whose block is a corner."""
    config = AlphaSweepConfig(
        theta0=random_smooth_field(dirichlet32, seed=7, amplitude=0.05),
        kappa=0.2,
        alphas=(0.75, 0.6, 0.55),
        t_end=0.25,
    )
    report, runs = sweep_with_runs(config)
    return config, report, runs


def _assert_distance_table_matches(config, report, runs):
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


class TestSmallness:
    def test_threshold_value(self):
        assert SMALLNESS_THRESHOLD == pytest.approx(1.0 / (2.0 / math.pi + 2.0))
        assert SMALLNESS_THRESHOLD == pytest.approx(0.379273496, abs=1e-9)

    def test_zero_data_gives_minus_c1(self):
        assert smallness_coefficient(0.0, 0.0, 2.5) == pytest.approx(-2.5)

    def test_sign_flips_exactly_at_threshold(self):
        half = SMALLNESS_THRESHOLD / 2.0
        assert smallness_coefficient(half, half, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert smallness_coefficient(0.9 * half, 0.9 * half, 1.0) < 0.0
        assert smallness_coefficient(1.1 * half, 1.1 * half, 1.0) > 0.0

    def test_negative_norms_rejected(self):
        with pytest.raises(ValueError, match="sup norms must be nonnegative"):
            smallness_coefficient(-0.1, 0.0, 1.0)

    def test_from_domain_coercivity(self, torus32):
        # 2*pi box: smallest positive |k|^2 is 1, so c1 = 1/sqrt(2 kappa).
        assert _coercivity(torus32, kappa=0.5) == pytest.approx(1.0)


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
    def test_distance_table_shape_validation(self):
        # three runs make three pairs: one row per pair, one column per time
        with pytest.raises(ValueError, match="distance table must be 3x2, got"):
            ConvergenceReport(
                alphas=(0.75, 0.6, 0.55), times=(0.0, 0.1), distances=np.zeros((2, 2)),
                sup_infnorms=(1.0, 1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )
        table = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        report = ConvergenceReport(
            alphas=(0.75, 0.6, 0.55), times=(0.0, 0.1), distances=table,
            sup_infnorms=(1.0, 1.0, 1.0), smallness_coeff=-1.0,
            per_pair_bound=(), fitted_exponent=0.0,
        )
        np.testing.assert_array_equal(
            report.pairwise, [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
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
        _assert_distance_table_matches(*small_sweep)

    def test_dirichlet_distance_table_matches_pairwise_distances(self, dirichlet_sweep):
        # on the box every block mode counts once, on the torus columns
        # 1 .. n/3 count twice for their conjugate mirror
        _assert_distance_table_matches(*dirichlet_sweep)

    @pytest.mark.parametrize("sweep", ["small_sweep", "dirichlet_sweep"])
    def test_runs_keep_one_block_per_sample(self, sweep, request):
        config, report, runs = request.getfixturevalue(sweep)
        n = config.domain.n
        shape = (n, n // 3 + 1) if config.domain.basis is Basis.TORUS else (2 * n // 3,) * 2
        assert [f.name for f in dataclasses.fields(SweepRun)] == ["series", "domain", "blocks"]
        for run in runs:
            assert len(run.blocks) == len(report.times)
            for block in run.blocks:
                # its own array: a view would keep the full sampled state alive
                assert block.shape == shape and block.base is None
            assert len({id(block) for block in run.blocks}) == len(run.blocks)

    @pytest.mark.parametrize("sweep", ["small_sweep", "dirichlet_sweep"])
    def test_states_equal_the_sampled_states(self, sweep, request):
        config, report, runs = request.getfixturevalue(sweep)
        for alpha, run in zip(config.alphas, runs):
            sampled = []
            integrate(
                SimulationState(t=0.0, theta=config.theta0),
                config.params_for(alpha),
                config.stepper(),
                sample=sampled.append,
            )
            states = run.states
            assert len(states) == len(sampled) == len(report.times)
            for got, want in zip(states, sampled):
                assert got.t == want.t
                assert np.array_equal(got.theta.coeffs, want.theta.coeffs)
            assert np.array_equal(run.final.theta.coeffs, sampled[-1].theta.coeffs)


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
        distances = report.pairwise[:-1, -1]
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

    @pytest.mark.parametrize("contracting", [True, False], ids=["contracting", "not-contracting"])
    def test_linear_bound_constant_follows_smallness(self, small_sweep, contracting):
        # c2 is the negated smallness coefficient, or 1 once contraction fails
        _, report, _ = small_sweep
        assert report.smallness_coeff < 0.0
        if not contracting:
            report = dataclasses.replace(report, smallness_coeff=0.5)
        c2 = -report.smallness_coeff if contracting else 1.0
        bounds = pairwise_bound_check(report, c3_guess=2.0)[-len(report.per_pair_bound) :]
        assert [b.rhs for b in bounds] == [(2.0 / c2) * d for d, _, _ in report.per_pair_bound]

    def test_pairwise_bound_rejects_nonpositive_c3(self, small_sweep):
        _, report, _ = small_sweep
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
        assert report.pairwise[:-1, -1].size == 0
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

    def test_calibration_sits_below_frozen_value(self, torus32):
        assert _calibrate_l43_constant(torus32) < L43_FROZEN_CONSTANT


def _calibrate_l43_constant(domain: DomainSpec, seed: int = 0, trials: int = 64) -> float:
    """Largest observed ``|d|_{L^{4/3}} / (|d|_{H^{-1/2}}^{1/2} |d|_{L^2}^{1/2})`` on one grid.

    Sweeps random smooth fields over a range of spectral decay rates plus
    single-mode extremes (lowest and highest retained wavenumbers): the
    calibration behind ``L43_FROZEN_CONSTANT``, which freezes its worst
    value with headroom.
    """
    rng = np.random.default_rng(seed)
    decays = (1.5, 2.0, 3.0, 4.0, 6.0)
    fields = [
        random_smooth_field(
            domain, seed=int(rng.integers(0, 2**31)), decay=decays[trial % len(decays)]
        )
        for trial in range(trials)
    ]
    k_hi = max(1, domain.n // 3 - 1)
    mode = cosine_field if domain.basis is Basis.TORUS else sine_mode_field
    lowest = (1, 0) if domain.basis is Basis.TORUS else (1, 1)
    fields += [mode(domain, k) for k in (lowest, (k_hi, lowest[1]), (k_hi, k_hi))]
    worst = 0.0
    for diff in fields:
        zero = sobolev_norm(diff, 0.0)
        if zero > 0.0:
            denom = sobolev_norm(diff, -0.5) ** 0.5 * zero**0.5
            worst = max(worst, grid_lp_norm(diff, 4.0 / 3.0) / denom)
    return worst
