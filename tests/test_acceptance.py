"""Acceptance battery: fourteen end-to-end verification targets.

Each test exercises one headline property of the solver or the analysis
toolkit at realistic resolution, with the tolerance stated next to the
assertion.  The conftest hook prints one PASS/FAIL line per criterion at
the end of the session, annotated with the measured margin recorded here
via ``record_criterion_detail``.

The numbered tests are ordered from exact solutions (1), through norm
inequalities along trajectories (2-5), fractional-operator quadrature
contracts (6-9), the critical-limit convergence study and its
interpolation upgrades (10-11), localized and boundary-value analogues
(12-13), to cross-validation of the stepper against an independent
integral-equation solve (14).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import record_criterion_detail

from sqglab.critical import (
    AlphaSweepConfig,
    interpolation_upgrade,
    l43_interpolation_check,
    sweep_with_runs,
)
from sqglab.dynamics import (
    SimulationState,
    SqgParams,
    StepperConfig,
    default_dt,
    embed_odd_extension,
    integrate,
    picard_reference,
)
from sqglab.estimates import (
    CutoffSpec,
    cordoba_slack_field,
    max_principle_monitor,
    positivity_integral_check,
    tail_mass,
)
from sqglab.fields import gaussian_bump_field, random_smooth_field, shear_field
from sqglab.operators import (
    balakrishnan_neg_power,
    diagonal_operator,
    dirichlet_laplacian_1d,
    identity_minus_negpower_decay,
    inv_I_plus_Apow,
    lemma62_convergence,
    moment_inequality_check,
    random_spd,
    scalar_operator,
)
from sqglab.spectral import (
    Basis,
    DomainSpec,
    SpectralField,
    cosine_field,
    fractional_laplacian,
    lq_norm,
    sobolev_norm,
    to_physical,
)

ALPHA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@pytest.fixture(scope="module")
def torus64() -> DomainSpec:
    return DomainSpec(n=64, box=2 * np.pi, basis=Basis.TORUS)


@pytest.fixture(scope="module")
def torus128() -> DomainSpec:
    return DomainSpec(n=128, box=2 * np.pi, basis=Basis.TORUS)


@pytest.fixture(scope="module")
def critical_sweep(torus128):
    """The six-run critical-limit sweep shared by criteria 10 and 11."""
    theta0 = random_smooth_field(torus128, seed=1, amplitude=0.05)
    config = AlphaSweepConfig(
        theta0=theta0,
        kappa=0.2,
        alphas=(0.75, 0.65, 0.6, 0.55, 0.52, 0.51),
        t_end=2.0,
        sample_every=5,
    )
    sampled = []  # every shared sample's states, for criterion 11
    started = time.monotonic()
    report, _ = sweep_with_runs(config, on_sample=lambda t, states: sampled.append(states))
    elapsed = time.monotonic() - started
    return config, report, sampled, elapsed


def test_criterion_01_exact_shear_decay(torus64):
    """A single-mode shear decays by the exact linear factor for every alpha."""
    theta0 = shear_field(torus64)  # cos x1: the transport term vanishes
    worst = 0.0
    for alpha in (0.55, 0.75, 1.0):
        final = integrate(
            SimulationState(t=0.0, theta=theta0),
            SqgParams(kappa=0.1, alpha=alpha),
            StepperConfig(dt=0.025, t_end=5.0),
        ).final
        exact = SpectralField(
            coeffs=np.exp(-0.1 * 5.0) * theta0.coeffs, domain=torus64
        )
        diff = SpectralField(
            coeffs=final.theta.coeffs - exact.coeffs, domain=torus64
        )
        worst = max(worst, lq_norm(diff, np.inf))
    record_criterion_detail(1, f"max Linf error {worst:.2e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_02_maximum_principle(torus128):
    """Unforced Lq norms never increase; the forced q=2 envelope holds."""
    worst_slack = np.inf
    for seed in range(10):
        theta0 = random_smooth_field(torus128, seed=seed, amplitude=1.0)
        states = []
        integrate(
            SimulationState(t=0.0, theta=theta0),
            SqgParams(kappa=0.2, alpha=0.75),
            StepperConfig(dt=default_dt(theta0), t_end=5.0, sample_every=20),
            sample=states.append,
        )
        times = [s.t for s in states]
        for q in (2, 4, 8):
            norms = [lq_norm(s.theta, q) for s in states]
            records = max_principle_monitor(times, norms, q)
            assert all(r.passed for r in records), f"seed {seed}, q={q}"
            worst_slack = min(worst_slack, min(r.slack for r in records))

    forcing = cosine_field(torus128, (1, 0), 0.1)
    theta0 = random_smooth_field(torus128, seed=20, amplitude=1.0)
    forced = []
    integrate(
        SimulationState(t=0.0, theta=theta0),
        SqgParams(kappa=0.2, alpha=0.75, forcing=forcing),
        StepperConfig(dt=default_dt(theta0), t_end=5.0, sample_every=20),
        sample=forced.append,
    )
    envelope = max_principle_monitor(
        [s.t for s in forced],
        [lq_norm(s.theta, 2) for s in forced],
        2,
        forcing=forcing,
    )
    assert all(r.passed for r in envelope)
    record_criterion_detail(
        2, f"30 monotone ladders ok, min slack {worst_slack:.2e}; forced q=2 envelope ok"
    )


def test_criterion_03_damped_energy_decay(torus64):
    """With damping lam the energy sits under |theta0|^2 e^(-lam t)."""
    lam = 0.5
    theta0 = random_smooth_field(torus64, seed=8, amplitude=0.5)
    states = []
    integrate(
        SimulationState(t=0.0, theta=theta0),
        SqgParams(kappa=0.1, alpha=0.75, lam=lam),
        StepperConfig(dt=0.02, t_end=3.0, sample_every=5),
        sample=states.append,
    )
    base = sobolev_norm(theta0, 0.0) ** 2
    margin = np.inf
    for state in states:
        energy = sobolev_norm(state.theta, 0.0) ** 2
        bound = base * np.exp(-lam * state.t) * (1 + 1e-6)
        margin = min(margin, bound - energy)
        assert energy <= bound, f"t={state.t}"
    record_criterion_detail(3, f"min envelope margin {margin:.2e} over samples")


def test_criterion_04_pointwise_dissipation_inequality(torus64):
    """2 phi L^a phi >= L^a(phi^2) pointwise, plus its closed-form witness."""
    worst_rel = np.inf
    for seed in range(50):
        phi = random_smooth_field(torus64, seed=seed)
        phi_phys = to_physical(phi).values
        for alpha in ALPHA_GRID:
            slack = cordoba_slack_field(phi, alpha).values
            diss = to_physical(fractional_laplacian(phi, alpha)).values
            scale = max(np.abs(2.0 * phi_phys * diss).max(), 1.0)
            worst_rel = min(worst_rel, slack.min() / scale)
    assert worst_rel >= -1e-8

    cos_mode = cosine_field(torus64, (1, 0), 1.0)
    slack = cordoba_slack_field(cos_mode, 1.0).values
    x1 = torus64.physical_coordinates[0]
    closed_form = 2.0 - 2.0 * np.cos(x1) ** 2
    gap = np.abs(slack - closed_form).max()
    assert gap <= 1e-10
    record_criterion_detail(
        4, f"min relative slack {worst_rel:.2e} over 300 fields; closed-form gap {gap:.1e}"
    )


def test_criterion_05_positivity_integral(torus64):
    """The dissipation-against-power integral is nonnegative for q in [2, 8]."""
    worst = np.inf
    for seed in range(50):
        phi = random_smooth_field(torus64, seed=seed)
        for q in (2, 3, 4, 8):
            for alpha in ALPHA_GRID:
                worst = min(worst, positivity_integral_check(phi, q, alpha))
    record_criterion_detail(5, f"min integral {worst:.2e} over 1200 cases (tol -1e-8)")
    assert worst >= -1e-8


def test_criterion_06_operator_quadrature_exactness():
    """Both operator quadratures match the eigendecomposition oracle."""
    value = balakrishnan_neg_power(scalar_operator(4.0), 0.5, np.ones(1))[0]
    scalar_err = abs(value - 0.5)
    assert scalar_err <= 1e-10
    value = inv_I_plus_Apow(scalar_operator(1.0), 0.5, np.ones(1))[0]
    assert abs(value - 0.5) <= 1e-10

    rng = np.random.default_rng(6)
    cases = (
        ("scalar", scalar_operator(3.0)),
        ("diagonal", diagonal_operator([0.5, 1.0, 2.0, 10.0])),
        ("laplacian-32", dirichlet_laplacian_1d(32)),
        ("spd-16", random_spd(16, seed=6)),
    )
    worst = 0.0
    for label, A in cases:
        phi = rng.standard_normal(A.size)
        for alpha in (0.25, 0.5, 0.75):
            got = balakrishnan_neg_power(A, alpha, phi)
            want = A.apply_power(-alpha, phi)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-6, f"negative power, {label}, alpha={alpha}"
            worst = max(worst, rel)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            got = inv_I_plus_Apow(A, alpha, phi)
            want = A.apply_function(lambda mu, a=alpha: 1.0 / (1.0 + mu**a), phi)
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-6, f"resolvent-of-power, {label}, alpha={alpha}"
            worst = max(worst, rel)
    record_criterion_detail(
        6, f"scalar error {scalar_err:.1e} (tol 1e-10); worst matrix rel err {worst:.1e} (tol 1e-6)"
    )


def test_criterion_07_resolvent_critical_limit():
    """(I+A^a)^(-1) phi converges monotonically to the a=1/2 resolvent."""
    lap = dirichlet_laplacian_1d(32)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(lap.size)
    phi = lap.apply(psi / np.linalg.norm(psi))  # phi in the range of A
    ladder = lemma62_convergence(lap, phi)
    errors = [err for _, err in ladder]
    assert all(b < a for a, b in zip(errors, errors[1:])), ladder
    ratio = errors[0] / errors[-1]
    record_criterion_detail(
        7, f"errors {errors[0]:.2e} -> {errors[-1]:.2e}, ratio {ratio:.1f} (need >= 5)"
    )
    assert errors[-1] <= errors[0] / 5.0


def test_criterion_08_vanishing_power_decay():
    """|(I - A^(-beta)) phi| -> 0 monotonically as beta -> 0."""
    A = random_spd(16, seed=3)
    condition = A.eigenvalues[-1] / A.eigenvalues[0]
    assert condition <= 1e4
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(16)
    decay = identity_minus_negpower_decay(A, phi)
    values = [v for _, v in decay]
    assert all(b < a for a, b in zip(values, values[1:])), decay
    final_rel = values[-1] / np.linalg.norm(phi)
    record_criterion_detail(
        8,
        f"cond {condition:.1e}; decay {values[0]:.2e} -> {values[-1]:.2e}, "
        f"final/|phi| {final_rel:.1e} (tol 1e-3)",
    )
    assert final_rel <= 1e-3


def test_criterion_09_moment_inequality_battery():
    """The interpolation moment bound holds on 1000 random (A, phi, beta)."""
    rng = np.random.default_rng(14)
    failures = 0
    for _ in range(1000):
        size = int(rng.integers(2, 13))
        A = random_spd(size, seed=int(rng.integers(0, 2**31)))
        vec = rng.standard_normal(size)
        beta = rng.uniform(0.51, 0.99)
        _, _, ok = moment_inequality_check(A, vec, beta)
        failures += not ok
    record_criterion_detail(9, f"{failures}/1000 violations")
    assert failures == 0


def test_criterion_10_critical_limit_sweep(critical_sweep):
    """Trajectories converge in H^(-1/2) as alpha marches to the critical order."""
    config, report, _, elapsed = critical_sweep
    assert report.smallness_coeff < 0, "smallness hypothesis must hold"
    distances = [
        float(report.pairwise[i, -1]) for i in range(len(config.alphas) - 1)
    ]
    assert all(b < a for a, b in zip(distances, distances[1:])), distances
    assert report.fitted_exponent > 0
    record_criterion_detail(
        10,
        f"distances {distances[0]:.2e} -> {distances[-1]:.2e} strictly decreasing, "
        f"exponent {report.fitted_exponent:.2f}, smallness {report.smallness_coeff:.2f}, "
        f"{elapsed:.0f}s (cap 600s)",
    )
    assert elapsed <= 600.0


def test_criterion_11_interpolation_upgrades(critical_sweep):
    """Negative-order closeness upgrades hold on every sampled sweep pair."""
    config, _, sampled, _ = critical_sweep
    m = len(config.alphas)
    n_checked = 0
    for i in range(m):
        for j in range(i + 1, m):
            for states in sampled:
                si, sj = states[i], states[j]
                for epsilon in (0.1, 0.25, 0.4):
                    lhs, rhs = interpolation_upgrade(si.theta, sj.theta, epsilon)
                    assert lhs <= rhs * (1 + 1e-10), (i, j, si.t, epsilon)
                    n_checked += 1
            record = l43_interpolation_check(sampled[-1][i].theta, sampled[-1][j].theta)
            assert record.passed, (i, j, record.as_dict())
    record_criterion_detail(
        11, f"{n_checked} interpolation bounds plus 15 mixed-norm bounds, all hold"
    )


def test_criterion_12_tail_decay_and_sobolev_boundedness():
    """A damped localized bump loses far-field mass and H^1.5 stays bounded."""
    domain = DomainSpec(n=128, box=8 * np.pi, basis=Basis.TORUS)
    theta0 = gaussian_bump_field(domain, width=np.pi / 2, amplitude=0.5)
    states = []
    integrate(
        SimulationState(t=0.0, theta=theta0),
        SqgParams(kappa=0.2, alpha=0.75, lam=0.5),
        StepperConfig(dt=default_dt(theta0), t_end=20.0, sample_every=10),
        sample=states.append,
    )
    cutoff = CutoffSpec(k=domain.box / 6)
    mass_start = tail_mass(to_physical(states[0].theta), cutoff)
    mass_end = tail_mass(to_physical(states[-1].theta), cutoff)
    assert mass_end < mass_start

    norms = [(s.t, sobolev_norm(s.theta, 1.5)) for s in states]
    transient_peak = max(v for t, v in norms if t <= 1.0)
    late_max = max(v for t, v in norms if t >= 1.0)
    assert late_max <= 2.0 * transient_peak
    record_criterion_detail(
        12,
        f"tail mass {mass_start:.2e} -> {mass_end:.2e}; "
        f"H^1.5 after t=1 peaks at {late_max:.2f} <= 2 x {transient_peak:.2f}",
    )


def test_criterion_13_dirichlet_sweep():
    """The sweep contract holds in the sine basis, with exact boundary trace."""
    domain = DomainSpec(n=128, box=np.pi, basis=Basis.DIRICHLET)
    theta0 = random_smooth_field(domain, seed=2, amplitude=0.05)
    config = AlphaSweepConfig(
        theta0=theta0,
        kappa=0.2,
        alphas=(0.75, 0.65, 0.6, 0.55, 0.52, 0.51),
        t_end=2.0,
        sample_every=5,
    )
    report, runs = sweep_with_runs(config)
    distances = [
        float(report.pairwise[i, -1]) for i in range(len(config.alphas) - 1)
    ]
    assert all(b < a for a, b in zip(distances, distances[1:])), distances
    assert report.fitted_exponent > 0

    worst_trace = 0.0
    for run in runs:
        values = to_physical(embed_odd_extension(run.final.theta)).values
        m = values.shape[0]
        edges = np.concatenate(
            [values[0, :], values[m // 2, :], values[:, 0], values[:, m // 2]]
        )
        worst_trace = max(worst_trace, float(np.abs(edges).max()))
    assert worst_trace == 0.0
    record_criterion_detail(
        13,
        f"distances {distances[0]:.2e} -> {distances[-1]:.2e}, "
        f"exponent {report.fitted_exponent:.2f}, boundary trace {worst_trace}",
    )


def test_criterion_14_stepper_cross_validation():
    """ETD2RK agrees with an integral-equation reference at second order."""
    domain = DomainSpec(n=32, box=2 * np.pi, basis=Basis.TORUS)
    theta0 = random_smooth_field(domain, seed=4, amplitude=0.2)
    params = SqgParams(kappa=0.3, alpha=0.75)
    t_end = 0.2
    reference = picard_reference(
        SimulationState(t=0.0, theta=theta0),
        params,
        t_end,
        iterations=10,
        subintervals=64,
    )
    errors = []
    for dt in (0.02, 0.01, 0.005):
        final = integrate(
            SimulationState(t=0.0, theta=theta0),
            params,
            StepperConfig(dt=dt, t_end=t_end),
        ).final
        diff = SpectralField(
            coeffs=final.theta.coeffs - reference.theta.coeffs, domain=domain
        )
        errors.append(sobolev_norm(diff, 0.0))
        assert errors[-1] <= 1e-2 * dt**2, (dt, errors[-1])
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    record_criterion_detail(
        14,
        f"errors {errors[0]:.1e}/{errors[1]:.1e}/{errors[2]:.1e}, "
        f"orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 1.8)",
    )
    assert min(orders) >= 1.8
