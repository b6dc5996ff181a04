"""A-priori inequality monitors: records, envelopes, pointwise and tail checks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from oracles import dealias_mask

from sqglab.cli import _NUMERICAL_ERRORS
from sqglab.dynamics import SimulationState, SqgParams, StepperConfig, integrate
from sqglab.errors import FieldError, NonFiniteError
from sqglab.estimates import (
    DEFAULT_TOL,
    CutoffSpec,
    InequalityRecord,
    _battery_plan,
    _sample_pass,
    cordoba_pointwise_check,
    cordoba_slack_field,
    damped_energy_monitor,
    linf_monitor,
    max_principle_monitor,
    positivity_integral_check,
    sobolev_bound_monitor,
    tail_mass,
)
from sqglab.fields import random_smooth_field
from sqglab.spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
    _dealiased,
    _grid_norms,
    cosine_field,
    dealias,
    fractional_laplacian,
    lq_norm,
    sobolev_norm,
    to_physical,
    to_spectral,
)


def _short_run(domain, *, lam=0.0, seed=1, amplitude=0.2, alpha=0.75):
    theta0 = random_smooth_field(domain, seed=seed, amplitude=amplitude)
    params = SqgParams(kappa=0.2, alpha=alpha, lam=lam)
    config = StepperConfig(dt=0.01, t_end=0.1)
    states = []
    integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
    return states


def _sampled(states, q):
    """Sample times and L^q norms of states, as a run's monitor columns hold them."""
    return [s.t for s in states], [lq_norm(s.theta, q) for s in states]


def _h_norms(states, l):
    """H^l norms of states, as a run's ``h{l}`` column holds them."""
    return [sobolev_norm(s.theta, l) for s in states]


def _bound_inputs(states, l, alpha=0.75):
    """Times, H^l and H^(l+alpha) norms of states, as a run samples them."""
    return [s.t for s in states], _h_norms(states, l), _h_norms(states, l + alpha)


def _energies(states):
    """Sample times and L^2 norms of states, as a run's ``l2`` column holds them."""
    return [s.t for s in states], _h_norms(states, 0.0)


class TestInequalityRecord:
    def test_slack_and_pass_semantics(self):
        rec = InequalityRecord(name="demo", t=0.0, lhs=1.0, rhs=2.0)
        assert rec.slack == 1.0 and rec.passed

    def test_small_violation_within_tolerance_passes(self):
        rec = InequalityRecord(name="demo", t=0.0, lhs=1.0 + 5e-9, rhs=1.0)
        assert rec.slack < 0 and rec.passed

    def test_violation_beyond_tolerance_fails(self):
        rec = InequalityRecord(name="demo", t=0.0, lhs=1.0 + 1e-7, rhs=1.0)
        assert not rec.passed

    def test_non_finite_sides_rejected(self):
        with pytest.raises(ValueError, match="non-finite sides"):
            InequalityRecord(name="demo", t=0.0, lhs=np.inf, rhs=1.0)

    def test_non_finite_sides_are_a_numerical_error(self):
        # the command-line driver maps it to exit 2 with a run.log
        with pytest.raises(NonFiniteError, match="'demo': non-finite sides"):
            InequalityRecord(name="demo", t=0.0, lhs=0.0, rhs=np.nan)
        assert NonFiniteError in _NUMERICAL_ERRORS

    def test_tolerance_scales_with_the_larger_side(self):
        # relative tolerance: the same absolute violation passes at 1e3, fails at 1
        assert InequalityRecord(name="demo", t=0.0, lhs=1e3 + 5e-6, rhs=1e3).passed
        assert not InequalityRecord(name="demo", t=0.0, lhs=1.0 + 5e-6, rhs=1.0).passed

    def test_as_dict_scale_is_at_least_one(self):
        rec = InequalityRecord(name="demo", t=0.0, lhs=0.1, rhs=-0.2)
        assert rec.as_dict()["scale"] == 1.0

    def test_as_dict_round_trip(self):
        rec = InequalityRecord(name="demo", t=1.5, lhs=2.0, rhs=3.0)
        d = rec.as_dict()
        assert d["name"] == "demo" and d["t"] == 1.5
        assert d["slack"] == 1.0 and d["passed"] is True
        assert d["tol"] == DEFAULT_TOL and d["scale"] == 3.0


class TestMaxPrincipleMonitor:
    def test_q_validation(self):
        with pytest.raises(FieldError, match=r"q must lie in \[2, inf\)") as err:
            max_principle_monitor([], [], q=1.5)
        assert err.value.field == "q"
        with pytest.raises(FieldError, match=r"q must lie in \[2, inf\)") as err:
            max_principle_monitor([], [], q=np.inf)
        assert err.value.field == "q"

    def test_empty_states(self):
        assert max_principle_monitor([], [], q=2.0) == []

    def test_times_and_norms_must_pair(self):
        with pytest.raises(FieldError, match="2 sample times for 1 norms") as err:
            max_principle_monitor([0.0, 1.0], [1.0], q=2.0)
        assert err.value.field == "norms"
        with pytest.raises(FieldError, match="1 sample times for 2 norms") as err:
            linf_monitor([0.0], [1.0, 0.5])
        assert err.value.field == "norms"

    def test_unforced_run_is_monotone(self, torus32):
        states = _short_run(torus32)
        for q in (2.0, 4.0, 8.0):
            records = max_principle_monitor(*_sampled(states, q), q=q)
            assert len(records) == len(states)
            assert all(r.passed for r in records)
            assert records[0].name == f"lq-monotone-q{q:g}"
            assert records[0].rhs == pytest.approx(lq_norm(states[0].theta, q))

    def test_forced_envelope_formula(self, torus32):
        theta0 = random_smooth_field(torus32, seed=2, amplitude=0.2)
        forcing = random_smooth_field(torus32, seed=3, amplitude=0.05)
        later = SimulationState(t=0.5, theta=theta0)
        records = max_principle_monitor(
            *_sampled([SimulationState(t=0.0, theta=theta0), later], 2.0),
            q=2.0,
            forcing=forcing,
        )
        assert records[0].name == "lq-envelope-q2"
        base = lq_norm(theta0, 2.0) ** 2
        force = lq_norm(forcing, 2.0) ** 2
        expected = base * np.exp(0.5) + (np.exp(0.5) - 1.0) * force
        assert records[1].rhs == pytest.approx(expected, rel=1e-12)
        assert records[1].lhs == pytest.approx(base, rel=1e-12)

    def test_forced_run_respects_envelope(self, torus32):
        theta0 = random_smooth_field(torus32, seed=4, amplitude=0.2)
        forcing = random_smooth_field(torus32, seed=5, amplitude=0.1)
        params = SqgParams(kappa=0.2, alpha=0.75, forcing=forcing)
        config = StepperConfig(dt=0.01, t_end=0.2)
        states = []
        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
        for q in (2.0, 4.0):
            records = max_principle_monitor(*_sampled(states, q), q=q, forcing=forcing)
            assert all(r.passed for r in records)


class TestLinfMonitor:
    def test_envelope_formula(self, torus32):
        theta0 = random_smooth_field(torus32, seed=6, amplitude=0.3)
        forcing = random_smooth_field(torus32, seed=7, amplitude=0.1)
        states = [SimulationState(t=0.0, theta=theta0), SimulationState(t=1.0, theta=theta0)]
        records = linf_monitor(*_sampled(states, np.inf), forcing=forcing)
        base = lq_norm(theta0, np.inf)
        force = lq_norm(forcing, np.inf)
        assert records[0].name == "linf-envelope"
        assert records[1].rhs == pytest.approx((base + force) * np.e, rel=1e-12)

    def test_decaying_run_passes(self, torus32):
        states = _short_run(torus32, seed=8)
        assert all(r.passed for r in linf_monitor(*_sampled(states, np.inf)))

    def test_empty_states(self):
        assert linf_monitor([], []) == []


class TestDampedEnergyMonitor:
    def test_lam_validation(self):
        with pytest.raises(FieldError, match="lam must be nonnegative") as err:
            damped_energy_monitor([], [], lam=-0.1)
        assert err.value.field == "lam"

    def test_times_and_norms_must_pair(self):
        with pytest.raises(FieldError, match="2 sample times for 1 norms") as err:
            damped_energy_monitor([0.0, 1.0], [1.0], lam=0.1)
        assert err.value.field == "norms"

    def test_damped_run_passes(self, torus32):
        states = _short_run(torus32, lam=0.5, seed=9)
        records = damped_energy_monitor(*_energies(states), lam=0.5)
        assert records and all(r.passed for r in records)
        assert records[0].name == "damped-energy"

    def test_envelope_is_initial_energy_decay(self, torus32):
        theta0 = random_smooth_field(torus32, seed=10, amplitude=0.2)
        states = [SimulationState(t=0.0, theta=theta0), SimulationState(t=2.0, theta=theta0)]
        records = damped_energy_monitor(*_energies(states), lam=1.0)
        base = sobolev_norm(theta0, 0.0) ** 2
        assert records[1].rhs == pytest.approx(base * np.exp(-2.0), rel=1e-12)


def test_overflowing_powers_are_non_finite_records(torus32):
    # 10^400 and (1e200)^2 pass the largest float: each record names its
    # check, where a bare OverflowError named none
    times, forcing = [0.0, 0.5, 1.0], random_smooth_field(torus32, seed=3, amplitude=0.05)
    params = SqgParams(kappa=0.2, alpha=0.75)
    cases = [
        ("lq-envelope-q400", lambda: max_principle_monitor(times, [10.0] * 3, 400.0, forcing)),
        ("damped-energy", lambda: damped_energy_monitor(times, [1e200] * 3, lam=0.1)),
        (
            "sobolev-ineq-l1",
            lambda: sobolev_bound_monitor(times, [1.0] * 3, [1e200] * 3, 1.0, params),
        ),
    ]
    for name, monitor in cases:
        with pytest.raises(NonFiniteError, match=f"'{name}': non-finite sides"):
            monitor()


class TestCordobaPointwise:
    def test_alpha_zero_slack_is_square(self, torus32):
        phi = random_smooth_field(torus32, seed=11, amplitude=0.5)
        slack = cordoba_slack_field(phi, 0.0)
        expected = to_physical(phi).values ** 2
        assert np.allclose(slack.values, expected, atol=1e-13)

    def test_cosine_closed_form_at_alpha_one(self, torus32):
        # phi = cos x1: 2 phi (-Lap) phi - (-Lap)(phi^2) = 2 - 2 cos^2 x1.
        phi = cosine_field(torus32, k=(1, 0))
        slack = cordoba_slack_field(phi, 1.0)
        x1 = torus32.physical_coordinates[0]
        expected = 2.0 - 2.0 * np.cos(x1) ** 2
        assert np.allclose(slack.values, expected, atol=1e-10)

    def test_min_slack_nonnegative_for_smooth_batch(self, torus32):
        for seed in range(12):
            phi = random_smooth_field(torus32, seed=seed, amplitude=1.0)
            for alpha in (0.25, 0.5, 1.0):
                min_slack = cordoba_pointwise_check(phi, alpha)
                diss = to_physical(fractional_laplacian(phi, alpha)).values
                scale = float(np.abs(2.0 * to_physical(phi).values * diss).max())
                assert min_slack >= -1e-8 * scale, f"seed={seed} alpha={alpha}"

    def test_alpha_validation(self, torus32):
        phi = random_smooth_field(torus32, seed=1)
        with pytest.raises(FieldError, match=r"alpha must lie in \[0, 1\]") as err:
            cordoba_slack_field(phi, 1.5)
        assert err.value.field == "alpha"

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_refined_multiplier_vanishes_outside_the_square_support(self, n):
        domain = DomainSpec(n=n)
        mult = _battery_plan(domain, 0.75).square
        big, top = 3 * n // 2, 2 * (n // 3)
        # the table holds the support columns k2 <= 2c of the 3n/2 grid only
        assert mult.shape == (big, top + 1)
        k1 = np.fft.fftfreq(big, d=1.0 / big)[:, None]
        k2 = np.arange(top + 1)[None, :]
        inside = np.maximum(np.abs(k1), k2) <= top
        assert np.all(mult[~inside] == 0.0)
        inside[0, 0] = False  # |k|^{2a} vanishes on the zero mode
        assert np.all(mult[inside] > 0.0)

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
    @pytest.mark.parametrize(
        "mode",
        [
            pytest.param(lambda n: (0, n // 4), id="square-on-nyquist-column"),
            pytest.param(lambda n: (0, n // 3), id="square-beyond-nyquist-column"),
            pytest.param(lambda n: (-(n // 3), n // 4), id="mixed-negative-k1"),
            pytest.param(lambda n: (-(n // 3), n // 3), id="mixed-corner"),
        ],
    )
    def test_single_mode_closed_form(self, n, alpha, mode):
        # phi = cos(k.x): 2 phi (-Lap)^a phi - (-Lap)^a(phi^2)
        #     = 2 |k|^{2a} cos^2(k.x) - |2k|^{2a} cos(2k.x) / 2,
        # the square's mode 2k reaching the fold's Nyquist, conjugate and
        # negative-row parts of the n grid
        domain = DomainSpec(n=n)
        k = mode(n)
        slack = cordoba_slack_field(cosine_field(domain, k=k), alpha).values
        x1, x2 = domain.physical_coordinates
        phase = k[0] * x1 + k[1] * x2
        size = np.hypot(*k)
        first = 2.0 * size ** (2 * alpha) * np.cos(phase) ** 2
        want = first - (2.0 * size) ** (2 * alpha) * np.cos(2.0 * phase) / 2.0
        assert np.abs(slack - want).max() <= 1e-12 * np.abs(first).max()

    @settings(max_examples=40)
    @given(
        n=st.sampled_from([16, 32, 64]),
        alpha=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
        full_spectrum=st.booleans(),
    )
    def test_matches_composed_refinement(self, n, alpha, seed, full_spectrum):
        domain = _TORI[n]
        if full_spectrum:
            rng = np.random.default_rng(seed)
            phi = to_spectral(rng.standard_normal((n, n)), domain)
        else:
            phi = random_smooth_field(domain, seed, amplitude=1.0)
        got = cordoba_slack_field(phi, alpha).values
        want, scale = _composed_cordoba(phi, alpha)
        assert np.abs(got - want).max() <= 1e-12 * scale


_TORI = {n: DomainSpec(n=n) for n in (16, 32, 64)}


def _composed_cordoba(phi, alpha):
    """Torus Córdoba slack composed from complex transforms on the doubled grid.

    Returns the slack ``2 phi (-Lap)^a phi - (-Lap)^a(phi^2)`` of the
    dealiased field and the grid max of ``|2 phi (-Lap)^a phi|``.  The
    square is cut to its exact support ``|k_i| <= 2 floor(n/3)`` before
    ``|k|^{2a}`` is applied: beyond it the doubled grid holds only
    round-off, which the multiplier would amplify.
    """
    phi = dealias(phi)
    domain = phi.domain
    phi_phys = to_physical(phi).values
    diss = to_physical(fractional_laplacian(phi, alpha)).values
    fine = DomainSpec(n=2 * domain.n, box=domain.box, basis=Basis.TORUS)
    i1, i2 = domain.index_grids
    fine_coeffs = np.zeros(fine.spectral_shape, dtype=np.complex128)
    fine_coeffs[i1 % fine.n, i2 % fine.n] = phi.coeffs
    phi_fine = to_physical(SpectralField(coeffs=fine_coeffs, domain=fine)).values
    square_fine = to_spectral(phi_fine**2, fine)
    k1, k2 = fine.index_grids
    support = np.maximum(np.abs(k1), np.abs(k2)) <= 2 * (domain.n // 3)
    square_fine = SpectralField(coeffs=square_fine.coeffs * support, domain=fine)
    diss_sq = to_physical(fractional_laplacian(square_fine, alpha)).values[::2, ::2]
    first = 2.0 * phi_phys * diss
    return first - diss_sq, float(np.abs(first).max())


class TestPositivityIntegral:
    def test_q2_equals_seminorm_single_mode(self, torus32):
        theta = cosine_field(torus32, k=(1, 0))
        # integral of cos^2 over the (2 pi)^2 box
        assert positivity_integral_check(theta, 2.0, 0.75) == pytest.approx(
            2.0 * np.pi**2, rel=1e-12
        )

    def test_q2_equals_seminorm_random(self, torus32):
        theta = random_smooth_field(torus32, seed=13, amplitude=0.7)
        value = positivity_integral_check(theta, 2.0, 0.6)
        assert value == pytest.approx(sobolev_norm(theta, 0.6) ** 2, rel=1e-10)

    def test_nonnegative_for_batch(self, torus32):
        for seed in range(8):
            theta = random_smooth_field(torus32, seed=seed, amplitude=1.0)
            for q in (2.0, 3.0, 4.0, 8.0):
                value = positivity_integral_check(theta, q, 0.75)
                assert value >= -1e-10, f"seed={seed} q={q}"

    @settings(max_examples=30)
    @given(
        basis=st.sampled_from(list(Basis)),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-100, 100),
        q=st.sampled_from([2.0, 3.0, 4.0, 8.0]),
        alpha=st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    )
    def test_power_of_two_factors_scale_integrals_exactly(self, basis, seed, k, q, alpha):
        # the integrand is homogeneous of degree q; the kernel sees the same
        # scaled grid for theta and 2^k theta, so only the exponent moves
        domain = DomainSpec(n=16, box=np.pi, basis=basis)
        theta = random_smooth_field(domain, seed, amplitude=1.0)
        value = positivity_integral_check(theta, q, alpha)
        assert positivity_integral_check(theta * 2.0**k, q, alpha) == 2.0 ** (k * q) * value

    def test_validation(self, torus32):
        theta = random_smooth_field(torus32, seed=1)
        with pytest.raises(FieldError, match=r"q must lie in \[2, inf\)") as err:
            positivity_integral_check(theta, 1.0, 0.5)
        assert err.value.field == "q"
        with pytest.raises(FieldError, match=r"alpha must lie in \[0, 1\]") as err:
            positivity_integral_check(theta, 2.0, -0.1)
        assert err.value.field == "alpha"


def _direct_square(phi, alpha):
    """``(-Lap)^a(phi^2)`` at the grid points of a dealiased torus phi, composed directly.

    phi is zero-padded onto the 3n/2 grid, squared there and analyzed with
    ``scipy.fft``; the square's support ``|k_i| <= 2 floor(n/3)`` is
    weighted by ``|k|^{2a}``, completed by its conjugate mirror and added
    mode by mode onto the n grid (``k mod n``), then synthesized.
    """
    domain = phi.domain
    n, box = domain.n, domain.box
    big, top = 3 * n // 2, 2 * (n // 3)
    i1, i2 = domain.index_grids
    keep = dealias_mask(domain)
    padded = np.zeros((big, big), dtype=np.complex128)
    padded[i1[keep] % big, i2[keep] % big] = phi.coeffs[keep]
    fine = scipy.fft.irfft2(padded[:, : big // 2 + 1], s=(big, big)) * (big * big / box)
    square = scipy.fft.rfft2(fine**2) * (box / (big * big))
    k1, k2 = np.broadcast_arrays(
        np.fft.fftfreq(big, d=1.0 / big).astype(int)[:, None], np.arange(big // 2 + 1)[None, :]
    )
    support = (np.abs(k1) <= top) & (k2 <= top)
    weighted = square * ((2.0 * np.pi / box) ** 2 * (k1**2 + k2**2)) ** alpha
    full = np.zeros((n, n), dtype=np.complex128)
    np.add.at(full, (k1[support] % n, k2[support] % n), weighted[support])
    mirror = support & (k2 > 0)
    np.add.at(full, (-k1[mirror] % n, -k2[mirror] % n), np.conj(weighted[mirror]))
    return scipy.fft.ifft2(full).real * (n * n / box)


def _direct_battery(theta, alpha, qs):
    """Córdoba slack field and positivity integrals (with their scales) composed directly."""
    phi = dealias(theta)
    values = to_physical(phi).values
    first = 2.0 * values * to_physical(fractional_laplacian(phi, alpha)).values
    slack = first - _direct_square(phi, alpha)
    values = to_physical(theta).values
    diss = to_physical(fractional_laplacian(theta, alpha)).values
    cell = (theta.domain.box / theta.domain.n) ** 2
    integrals, scales = [], []
    for q in qs:
        integrand = diss * np.abs(values) ** (q - 1.0) * np.sign(values)
        integrals.append(float(integrand.sum() * cell))
        scales.append(float(np.abs(integrand).sum() * cell))
    return slack, float(np.abs(first).max()), integrals, scales


class TestBatteryPlan:
    """The plan's pruned passes against direct formulas, and its owned buffers."""

    QS = (2.0, 3.0, 4.0, 8.0)

    def _check(self, theta, alpha):
        """Min slack and positivity integrals of one state from its ``to_physical`` grid."""
        plan = _battery_plan(theta.domain, alpha)
        values = to_physical(theta).values
        slack, diss = plan.check(
            theta, values, plan.scratch(), _dealiased(theta.coeffs, theta.domain)
        )
        return slack, _grid_norms(values, theta.domain, self.QS, diss)[2]

    def _assert_matches_direct(self, theta, alpha):
        slack, peak, integrals, scales = _direct_battery(theta, alpha, self.QS)
        got = cordoba_slack_field(theta, alpha).values
        assert np.abs(got - slack).max() <= 1e-12 * peak
        min_slack, got_integrals = self._check(theta, alpha)
        assert min_slack == got.min()
        for q, value, want, scale in zip(self.QS, got_integrals, integrals, scales):
            assert abs(value - want) <= 1e-12 * scale, f"q={q}"
            assert value == positivity_integral_check(theta, q, alpha)

    @settings(max_examples=40)
    @given(
        n=st.sampled_from([16, 32, 64]),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        decay=st.floats(1.5, 6.0),
    )
    def test_dealiased_field_matches_direct_formulas(self, n, alpha, seed, decay):
        theta = random_smooth_field(_TORI[n], seed, decay=decay, amplitude=1.0)
        assert _dealiased(theta.coeffs, _TORI[n])
        self._assert_matches_direct(theta, alpha)

    def test_field_beyond_the_cut_matches_direct_formulas(self):
        # the Córdoba check reads dealias(theta), the integrals theta itself
        domain = _TORI[32]
        theta = to_spectral(np.random.default_rng(3).standard_normal((32, 32)), domain)
        assert not _dealiased(theta.coeffs, domain)
        self._assert_matches_direct(theta, 0.75)

    def test_dirichlet_field_keeps_the_same_grid_route(self, dirichlet32):
        # the box's slack is the same-grid eigenexpansion, to the bit
        theta = random_smooth_field(dirichlet32, 4, amplitude=1.0)
        alpha = 0.75
        values = to_physical(theta).values
        diss = to_physical(fractional_laplacian(theta, alpha)).values
        square = to_spectral(values**2, dirichlet32)
        want = 2.0 * values * diss - to_physical(fractional_laplacian(square, alpha)).values
        assert np.array_equal(cordoba_slack_field(theta, alpha).values, want)
        min_slack, integrals = self._check(theta, alpha)
        assert min_slack == want.min()
        cell = (dirichlet32.box / dirichlet32.n) ** 2
        for q, value in zip(self.QS, integrals):
            integrand = diss * np.abs(values) ** (q - 1.0) * np.sign(values)
            assert abs(value - integrand.sum() * cell) <= 1e-12 * np.abs(integrand).sum() * cell

    def test_warm_sample_pass_allocates_no_grid(self):
        # a run's per-sample call: the pass built and its buffers reused;
        # numpy traces its array allocations, so any temporary grid besides
        # the theta grid the sample returns would lift the peak by a
        # sizeable part of one n^2 complex array
        n = 64
        domain = DomainSpec(n=n)
        theta = random_smooth_field(domain, 5, amplitude=1.0)
        sample = _sample_pass(domain, self.QS, (), 0.75)
        sample(theta)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = sample(theta)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < n * n * np.dtype(np.complex128).itemsize / 8
        assert got[1:] == _sample_pass(domain, self.QS, (), 0.75)(theta)[1:]


class TestSobolevBoundMonitor:
    def test_requires_l_at_least_alpha(self, torus32):
        params = SqgParams(kappa=0.2, alpha=0.75)
        with pytest.raises(FieldError, match="must be >= alpha") as err:
            sobolev_bound_monitor([], [], [], 0.5, params)
        assert err.value.field == "l"

    def test_states_and_norms_must_pair(self, torus32):
        params = SqgParams(kappa=0.2, alpha=0.75)
        states = _short_run(torus32, seed=14)
        times, norms, mid_norms = _bound_inputs(states, 1.5)
        with pytest.raises(FieldError, match=f"{len(states)} sample times for 2 norms") as err:
            sobolev_bound_monitor(times, norms[:2], mid_norms, 1.5, params)
        assert err.value.field == "norms"
        with pytest.raises(FieldError, match=f"{len(states)} sample times for 2 norms") as err:
            sobolev_bound_monitor(times, norms, mid_norms[:2], 1.5, params)
        assert err.value.field == "mid_norms"

    def test_too_few_states_is_empty(self, torus32):
        params = SqgParams(kappa=0.2, alpha=0.75)
        states = _short_run(torus32, seed=14)[:2]
        assert sobolev_bound_monitor(*_bound_inputs(states, 1.5), 1.5, params) == []

    def test_records_pass_and_track_running_max(self, torus32):
        params = SqgParams(kappa=0.2, alpha=0.75)
        states = _short_run(torus32, seed=15)
        records = sobolev_bound_monitor(*_bound_inputs(states, 1.5), 1.5, params)
        assert len(records) == len(states) - 2
        assert all(r.passed for r in records)
        assert records[0].name == "sobolev-ineq-l1.5"
        assert records[-1].rhs == pytest.approx(max(r.lhs for r in records))


class TestCutoff:
    def test_profile_plateaus(self):
        spec = CutoffSpec(k=2.0)
        r = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
        eta = spec.profile(r)
        assert np.all(eta[:3] == 0.0)  # r <= k
        assert np.all(eta[4:] == 1.0)  # r >= 2k
        assert spec.profile(np.array([3.0]))[0] == pytest.approx(0.5)

    def test_radius_validation(self):
        with pytest.raises(FieldError, match="cutoff radius k must be positive") as err:
            CutoffSpec(k=0.0)
        assert err.value.field == "k"

    def test_field_requires_fitting_annulus(self, torus32):
        with pytest.raises(FieldError, match="does not fit") as err:
            CutoffSpec(k=0.3 * torus32.box).field_on(torus32)
        assert err.value.field == "k"

    def test_tail_mass_vanishes_for_core_supported_field(self):
        domain = DomainSpec(n=64, box=8.0 * np.pi)
        x1, x2 = domain.physical_coordinates
        c = domain.box / 2.0
        bump = np.exp(-((x1 - c) ** 2 + (x2 - c) ** 2) / (2.0 * 0.3**2))
        cutoff = CutoffSpec(k=domain.box / 6.0)
        assert tail_mass(PhysicalField(values=bump, domain=domain), cutoff) <= 1e-12

    def test_tail_mass_sees_far_field(self):
        domain = DomainSpec(n=64, box=8.0 * np.pi)
        ones = np.ones((domain.n, domain.n))
        cutoff = CutoffSpec(k=domain.box / 6.0)
        mass = tail_mass(PhysicalField(values=ones, domain=domain), cutoff)
        eta = cutoff.field_on(domain).values
        assert mass == pytest.approx(eta.sum() * (domain.box / domain.n) ** 2)
        assert mass > 0.0
