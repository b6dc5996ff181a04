"""Critical-limit studies: sweeps, distance reports, smallness, interpolation."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sqglab import critical
from sqglab.critical import (
    DEFAULT_SWEEP_ALPHAS,
    L43_FROZEN_CONSTANT,
    SMALLNESS_THRESHOLD,
    AlphaSweepConfig,
    ConvergenceReport,
    _coercivity,
    assemble_report,
    h_minus_half_distance,
    interpolation_upgrade,
    l43_interpolation_check,
    pairwise_bound_check,
    smallness_coefficient,
    sweep_with_runs,
)
from sqglab.dynamics import RunResult, SimulationState, _plan, default_dt, integrate
from sqglab.errors import BlowUpError, CflWarning, FieldError
from sqglab.fields import random_smooth_field, shear_field
from sqglab.series import DiagnosticsSeries
from sqglab.spectral import (
    Basis,
    DomainSpec,
    cosine_field,
    grid_lp_norm,
    lq_norm,
    sine_mode_field,
    sobolev_norm,
)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it found."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, threading.enumerate()


def _sweep(config, **kwargs):
    """``sweep_with_runs`` and the ``(t, states)`` pairs its ``on_sample`` hook saw."""
    sampled = []
    report, runs = sweep_with_runs(
        config, on_sample=lambda t, states: sampled.append((t, states)), **kwargs
    )
    return config, report, runs, sampled


@pytest.fixture(scope="module")
def small_sweep(torus32):
    """One modest random-data sweep shared by the report-shape tests."""
    config = AlphaSweepConfig(
        theta0=random_smooth_field(torus32, seed=7, amplitude=0.05),
        kappa=0.2,
        alphas=(0.75, 0.65, 0.6, 0.55),
        t_end=0.5,
    )
    return _sweep(config)


@pytest.fixture(scope="module")
def dirichlet_sweep(dirichlet32):
    """The same kind of sweep on the Dirichlet box, whose block is a corner."""
    config = AlphaSweepConfig(
        theta0=random_smooth_field(dirichlet32, seed=7, amplitude=0.05),
        kappa=0.2,
        alphas=(0.75, 0.6, 0.55),
        t_end=0.25,
    )
    return _sweep(config)


def _assert_distance_table_matches(config, report, _runs, sampled):
    m = len(config.alphas)
    assert report.distances.shape == (m * (m - 1) // 2, len(report.times))
    # the hook sees every shared time once, in order, with one state per member
    assert tuple(t for t, _ in sampled) == report.times
    assert all(len(states) == m for _, states in sampled)
    pair = 0
    for i in range(m):
        for j in range(i + 1, m):
            want = [h_minus_half_distance(s[i].theta, s[j].theta) for _, s in sampled]
            np.testing.assert_allclose(report.distances[pair], want, rtol=1e-12, atol=0)
            assert report.pairwise[i, j] == report.distances[pair].max()
            pair += 1
    np.testing.assert_array_equal(report.pairwise, report.pairwise.T)


def _fail_members(monkeypatch, samples_before_failure):
    """Make each member whose alpha is a key blow up after yielding that many samples."""
    real = critical._sampled_run

    def failing(state, params, *args):
        run = real(state, params, *args)
        if params.alpha not in samples_before_failure:
            return run

        def fail():
            for _ in range(samples_before_failure[params.alpha]):
                yield next(run)
            raise BlowUpError(params.alpha, 1.0)

        return fail()

    monkeypatch.setattr(critical, "_sampled_run", failing)


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
        with pytest.raises(FieldError, match="sup norms must be nonnegative") as err:
            smallness_coefficient(-0.1, 0.0, 1.0)
        assert err.value.field == "sup_norm_a"
        with pytest.raises(FieldError, match="sup norms must be nonnegative") as err:
            smallness_coefficient(0.0, -0.1, 1.0)
        assert err.value.field == "sup_norm_b"

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
        with pytest.raises(FieldError, match="must share a domain") as err:
            h_minus_half_distance(a, b)
        assert err.value.field == "b"


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
        with pytest.raises(FieldError, match="forcing must live on the same domain") as err:
            AlphaSweepConfig(
                theta0=theta0, kappa=0.1, forcing=shear_field(torus64, amplitude=0.1)
            )
        assert err.value.field == "forcing"

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
        with pytest.raises(FieldError, match="distance table must be 3x2, got") as err:
            ConvergenceReport(
                alphas=(0.75, 0.6, 0.55), times=(0.0, 0.1), distances=np.zeros((2, 2)),
                sup_infnorms=(1.0, 1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )
        assert err.value.field == "distances"
        with pytest.raises(FieldError, match="one entry per alpha") as err:
            ConvergenceReport(
                alphas=(0.75, 0.6, 0.55), times=(0.0, 0.1), distances=np.zeros((3, 2)),
                sup_infnorms=(1.0, 1.0), smallness_coeff=-1.0,
                per_pair_bound=(), fitted_exponent=0.0,
            )
        assert err.value.field == "sup_infnorms"
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
        _, report, _, _ = small_sweep
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
    def test_sampled_states_and_finals_equal_the_runs_states(self, sweep, request):
        config, report, runs, sampled = request.getfixturevalue(sweep)
        assert all(type(run) is RunResult for run in runs)
        for i, (alpha, run) in enumerate(zip(config.alphas, runs)):
            want = []
            integrate(
                SimulationState(t=0.0, theta=config.theta0),
                config.params_for(alpha),
                config.stepper(),
                sample=want.append,
            )
            assert len(sampled) == len(want) == len(report.times)
            for (t, states), state in zip(sampled, want):
                assert states[i].t == t == state.t
                assert np.array_equal(states[i].theta.coeffs, state.theta.coeffs)
            assert run.final.t == want[-1].t
            assert np.array_equal(run.final.theta.coeffs, want[-1].theta.coeffs)

    @pytest.mark.parametrize(("sweep", "rel"), [("small_sweep", 1e-15), ("dirichlet_sweep", 0.0)])
    def test_linf_columns_are_the_sampled_states_sup_norms(self, sweep, rel, request):
        # a box sample goes through to_physical, as lq_norm does; a torus
        # sample is the plan's real synthesis of the kept block, which
        # rounds apart from to_physical's complex ifft2
        config, report, runs, sampled = request.getfixturevalue(sweep)
        for i, run in enumerate(runs):
            got = run.series.column("linf")
            want = [lq_norm(states[i].theta, math.inf) for _, states in sampled]
            assert got == pytest.approx(want, rel=rel, abs=0.0)
            assert report.sup_infnorms[i] == max(got)


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
        config, report, runs, _ = small_sweep
        assert report.alphas == config.alphas
        assert len(runs) == len(config.alphas)
        distances = report.pairwise[:-1, -1]
        assert len(distances) == len(config.alphas) - 1
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert report.fitted_exponent > 0.0
        assert report.smallness_coeff < 0.0

    def test_sweep_runs_share_sample_times(self, small_sweep):
        _, report, runs, _ = small_sweep
        for run in runs:
            assert tuple(run.series.times) == report.times

    def test_pairwise_bound_records(self, small_sweep):
        _, report, _, _ = small_sweep
        records = pairwise_bound_check(report, c3_guess=1.0)
        names = [r.name for r in records]
        assert "fitted-exponent-positive" in names
        assert any(name.startswith("pair-monotone-alpha-") for name in names)
        assert any(name.startswith("linear-rate-bound-dalpha-") for name in names)
        assert all(r.passed for r in records)

    @pytest.mark.parametrize("contracting", [True, False], ids=["contracting", "not-contracting"])
    def test_linear_bound_constant_follows_smallness(self, small_sweep, contracting):
        # c2 is the negated smallness coefficient, or 1 once contraction fails
        _, report, _, _ = small_sweep
        assert report.smallness_coeff < 0.0
        if not contracting:
            report = dataclasses.replace(report, smallness_coeff=0.5)
        c2 = -report.smallness_coeff if contracting else 1.0
        bounds = pairwise_bound_check(report, c3_guess=2.0)[-len(report.per_pair_bound) :]
        assert [b.rhs for b in bounds] == [(2.0 / c2) * d for d, _, _ in report.per_pair_bound]

    def test_report_needs_one_run_per_alpha_on_shared_times(self, small_sweep):
        config, report, runs, _ = small_sweep
        with pytest.raises(FieldError, match="one run per sweep alpha") as err:
            assemble_report(config, runs[1:], report.distances)
        assert err.value.field == "runs"
        unsampled = RunResult(DiagnosticsSeries(), runs[1].final)
        with pytest.raises(FieldError, match="share their sample times") as err:
            assemble_report(config, [runs[0], unsampled, *runs[2:]], report.distances)
        assert err.value.field == "runs"

    def test_pairwise_bound_rejects_nonpositive_c3(self, small_sweep):
        _, report, _, _ = small_sweep
        with pytest.raises(FieldError, match="c3_guess must be positive") as err:
            pairwise_bound_check(report, c3_guess=0.0)
        assert err.value.field == "c3_guess"

    @pytest.mark.parametrize("max_workers", [1, 2, None])
    def test_results_do_not_depend_on_the_pool(self, small_sweep, max_workers):
        # None runs one thread per member, more threads than cores: switching
        # often, they would show a lost update in the shared schedule
        config, report, runs, sampled = small_sweep
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, other, other_runs, other_sampled = _sweep(config, max_workers=max_workers)
        finally:
            sys.setswitchinterval(interval)
        assert other.as_dict() == report.as_dict()
        assert other.distances.tobytes() == report.distances.tobytes()
        for got, want in zip(other_runs, runs):
            assert got.series == want.series
            assert got.final.theta.coeffs.tobytes() == want.final.theta.coeffs.tobytes()
        assert [t for t, _ in other_sampled] == [t for t, _ in sampled]

    def test_memory_does_not_grow_with_the_sample_count(self, torus64):
        def peak(t_end):
            config = AlphaSweepConfig(
                theta0=random_smooth_field(torus64, seed=7, amplitude=0.05),
                kappa=0.2, alphas=(0.75, 0.65, 0.6, 0.55), t_end=t_end, dt=0.0125,
            )
            sweep_with_runs(config, max_workers=2)  # plan and weights cached first
            tracemalloc.start()
            try:
                sweep_with_runs(config, max_workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 41 and 81 samples: kept blocks would add 4 x 40 x 22.5 kB
        short, long = peak(0.5), peak(1.0)
        assert long <= 1.1 * short, (short, long)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_worker_allocates_one_buffer_set(self, torus32, monkeypatch, max_workers):
        # each worker's members march through its one transport scratch,
        # and its sample pass reads every linf grid from the same set: every
        # synthesis in the sweep writes into the half plane of one of them
        plan_type = type(_plan(torus32))
        scratch, synthesize = plan_type.scratch, plan_type.synthesize
        made, used = [], set()

        def counted(self):
            made.append(scratch(self))
            return made[-1]

        def recording(self, mult, coeffs, buffers, grid):
            used.add(id(buffers[0]))
            return synthesize(self, mult, coeffs, buffers, grid)

        monkeypatch.setattr(plan_type, "scratch", counted)
        monkeypatch.setattr(plan_type, "synthesize", recording)
        config = AlphaSweepConfig(
            theta0=random_smooth_field(torus32, seed=7, amplitude=0.05),
            kappa=0.2, alphas=(0.75, 0.65, 0.55), t_end=0.1, dt=0.0125,
        )
        sweep_with_runs(config, max_workers=max_workers)
        assert len(made) == max_workers
        assert used == {id(buffers[0]) for buffers in made}

    @pytest.mark.parametrize(
        "kind, domain, sections",
        [
            ("sweep-alpha", "n = 256", "[sweep]\nalphas = [0.75, 0.65, 0.55]\n"),
            ("simulate", "n = 256", "[monitors]\nlq = [2, 4, 8]\nsobolev = [1.5]\n"),
            # the box's members sample through the same pass as a run
            ("dirichlet-sweep", "n = 32\nbasis = dirichlet", "[sweep]\nalphas = [0.75, 0.65, 0.55]\n"),
        ],
        ids=["sweep-alpha", "simulate", "dirichlet-sweep"],
    )
    def test_artifacts_do_not_depend_on_the_blas_thread_count(
        self, tmp_path, kind, domain, sections
    ):
        # n = 256: a kept block of 256 x 86 = 22016 values and a grid of
        # 65536, where a BLAS product splits its reduction by thread count;
        # the sweep's distances and interpolation records and a run's norm
        # columns and records all reduce without BLAS
        config = tmp_path / "run.toml"
        config.write_text(
            f"[experiment]\nkind = {kind}\n[domain]\n{domain}\n[params]\nkappa = 0.2\n"
            + ("alpha = 0.75\n" if kind == "simulate" else "")
            + "[stepper]\ndt = 0.0125\nt_end = 0.05\n"
            "[init]\ntype = random\namplitude = 0.05\nseed = 3\n" + sections,
            encoding="utf-8",
        )
        src = os.path.dirname(os.path.dirname(critical.__file__))
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            argv = [kind, "--config", str(config), "--out", str(out)]
            script = f"import sys\nfrom sqglab.cli import main\nsys.exit(main({argv!r}))\n"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            }
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            names = ("series.csv", "summary.json", "checks.json")
            artifacts.append([(out / name).read_bytes() for name in names])
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("max_workers", [1, 2, None])
    def test_lowest_failed_member_is_raised(self, torus32, monkeypatch, max_workers):
        # members 1 and 3 blow up, member 3 first: member 1's failure wins
        config = AlphaSweepConfig(
            theta0=random_smooth_field(torus32, seed=7, amplitude=0.05),
            kappa=0.2, alphas=(0.75, 0.65, 0.6, 0.55), t_end=0.1, dt=0.0125,
        )
        _fail_members(monkeypatch, {0.65: 3, 0.55: 0})
        with pytest.raises(BlowUpError, match=r"\[sweep run alpha=0\.65\]") as info:
            sweep_with_runs(config, max_workers=max_workers)
        assert info.value.t == 0.65 and info.value.__cause__.t == 0.65

    def test_a_failed_sweep_keeps_no_blocks(self, torus64, monkeypatch):
        # member 3 blows up at its second resumption and members 0-2 run on
        # to t_end: no sample completes after the failure, so none is queued
        _fail_members(monkeypatch, {0.55: 1})

        def peak(t_end):
            config = AlphaSweepConfig(
                theta0=random_smooth_field(torus64, seed=7, amplitude=0.05),
                kappa=0.2, alphas=(0.75, 0.65, 0.6, 0.55), t_end=t_end, dt=0.0125,
            )
            with pytest.raises(BlowUpError, match=r"\[sweep run alpha=0\.55\]"):
                sweep_with_runs(config, max_workers=2)  # plan and weights cached first
            tracemalloc.start()
            try:
                with pytest.raises(BlowUpError, match=r"\[sweep run alpha=0\.55\]"):
                    sweep_with_runs(config, max_workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 41 and 161 samples: queued blocks would add 3 x 120 x 22.5 kB
        short, long = peak(0.5), peak(2.0)
        assert long <= 1.25 * short, (short, long)

    @pytest.mark.parametrize("max_workers", [1, 2, None])
    def test_a_failing_hook_is_raised(self, small_sweep, max_workers):
        # switching often, a worker that files between the hook's failure
        # and the halt would call the hook a fourth time
        config, report, _, _ = small_sweep
        calls = []

        def hook(t, states):
            calls.append(t)
            if len(calls) == 3:
                raise RuntimeError("hook failed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with pytest.raises(RuntimeError, match="hook failed"):
                sweep_with_runs(config, max_workers=max_workers, on_sample=hook)
        finally:
            sys.setswitchinterval(interval)
        assert calls == list(report.times[:3])

    def test_cfl_warnings_point_at_the_sweep(self, torus32):
        # the strong shear of test_cfl_warning_points_at_the_caller: two
        # warnings per member, raised while the sweep advances it
        config = AlphaSweepConfig(
            theta0=shear_field(torus32) * 1e4, kappa=0.1, alphas=(0.75, 0.6), t_end=0.1, dt=0.1,
        )
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            sweep_with_runs(config)
        cfl = [w for w in record if issubclass(w.category, CflWarning)]
        assert len(cfl) == 4
        assert {w.filename for w in cfl} == {critical.__file__}
        # escalated, as under --strict, the first member's warning is raised
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "initial data is too large", UserWarning)
            warnings.simplefilter("error", CflWarning)
            with pytest.raises(CflWarning, match=r"advective CFL 5\.09e\+03 exceeds"):
                sweep_with_runs(config)

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
            with pytest.raises(FieldError, match=r"epsilon must lie in \(0, 1/2\)") as err:
                interpolation_upgrade(a, a, eps)
            assert err.value.field == "epsilon"


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
