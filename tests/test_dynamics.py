"""Time integration: exactness oracles, convergence order, conservation."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import inner_product
from oracles import box_transport, dealias_mask, derivative_symbols

import sqglab
from sqglab.dynamics import (
    CFL_LIMIT,
    SimulationState,
    SqgParams,
    StepperConfig,
    _block_weights,
    _etd_tables,
    _plan,
    advective_speed,
    default_dt,
    embed_odd_extension,
    etd_coefficients,
    integrate,
    nonlinear_rhs,
    picard_reference,
    restrict_odd_extension,
)
from sqglab.errors import BlowUpError, CflWarning, FieldError
from sqglab.fields import random_smooth_field, shear_field
from sqglab.spectral import (
    Basis,
    DomainSpec,
    SpectralField,
    _weighted_norms,
    cosine_field,
    dealias,
    fractional_laplacian,
    lq_norm,
    sine_mode_field,
    sobolev_norm,
    to_physical,
    to_spectral,
    velocity_from_theta,
)


class TestParams:
    def test_kappa_validation(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            SqgParams(kappa=0.0, alpha=0.75)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha must exceed 1/2"):
            SqgParams(kappa=0.1, alpha=0.5)
        with pytest.raises(ValueError, match="alpha must exceed 1/2"):
            SqgParams(kappa=0.1, alpha=1.5)

    def test_lambda_validation(self):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            SqgParams(kappa=0.1, alpha=0.75, lam=-1.0)

    @pytest.mark.parametrize(
        "dt, t_end, sample_every, field, message",
        [
            pytest.param(0.0, 1.0, 1, "dt", r"dt must lie in \(0, t_end\], got 0.0",
                         id="dt-zero"),
            pytest.param(1e-320, 1.0, 1, "dt", "dt is too small: t_end/dt overflows, got 1e-320",
                         id="dt-subnormal"),
            pytest.param(1.0, 0.1, 1, "dt", r"dt must lie in \(0, t_end\], got 1.0",
                         id="dt-above-t-end"),
            # exact binary fractions: one step beyond the cap
            pytest.param(0.25, 250000.25, 1, "dt",
                         "dt is too small: t_end/dt asks for more than 1000000 steps, got 0.25",
                         id="dt-above-step-cap"),
            pytest.param(0.1, 0.0, 1, "t_end", "t_end must be positive and finite, got 0.0",
                         id="t-end-zero"),
            pytest.param(0.1, -1.0, 1, "t_end", "t_end must be positive and finite, got -1.0",
                         id="t-end-negative"),
            pytest.param(0.1, np.inf, 1, "t_end", "t_end must be positive and finite, got inf",
                         id="t-end-inf"),
            pytest.param(0.1, 1.0, 0, "sample_every",
                         "sample_every must be a positive integer, got 0", id="sample-every-zero"),
            pytest.param(0.1, 1.0, 1.5, "sample_every",
                         "sample_every must be a positive integer, got 1.5",
                         id="sample-every-fractional"),
        ],
    )
    def test_stepper_validation(self, dt, t_end, sample_every, field, message):
        with pytest.raises(FieldError, match=message) as err:
            StepperConfig(dt=dt, t_end=t_end, sample_every=sample_every)
        assert err.value.field == field

    def test_step_as_long_as_horizon_is_one_step(self):
        config = StepperConfig(dt=0.5, t_end=0.5)
        assert config.n_steps == 1 and config.step_dt == 0.5


class TestEtdTables:
    def test_phi1_small_argument_series(self, torus64):
        # dt tuned so the |k|=1 modes see a*dt = kappa*dt = 1e-8
        params = SqgParams(kappa=1.0, alpha=1.0)
        tables = etd_coefficients(torus64, params, dt=1e-8)
        sym = torus64.laplacian_symbol
        unit = np.isclose(sym, 1.0)
        assert unit.any()
        z = 1e-8
        np.testing.assert_allclose(
            tables.phi1[unit], 1.0 - z / 2.0, rtol=0, atol=1e-12
        )

    def test_decay_is_exponential(self, torus64):
        params = SqgParams(kappa=0.3, alpha=0.75, lam=0.2)
        tables = etd_coefficients(torus64, params, dt=0.1)
        sym = torus64.laplacian_symbol
        np.testing.assert_allclose(
            tables.decay, np.exp(-(0.3 * sym**0.75 + 0.2) * 0.1), atol=1e-14
        )

    def test_overflowing_rate_takes_the_limits(self, torus32):
        # kappa |k|^(2 alpha) dt overflows to inf on every nonzero mode, where
        # phi_2 once came out as inf / inf = nan
        params = SqgParams(kappa=1e308, alpha=0.75, lam=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = etd_coefficients(torus32, params, dt=10.0)
        stiff = torus32.laplacian_symbol > 0
        for table in (tables.decay, tables.phi1, tables.phi2):
            assert np.all(table[stiff] == 0.0)
        # the zero mode decays at lam alone: z = 5
        z = np.float64(0.5 * 10.0)
        assert tables.decay[0, 0] == np.exp(-z)
        assert tables.phi1[0, 0] == -np.expm1(-z) / z
        assert tables.phi2[0, 0] == (np.expm1(-z) + z) / z**2

    def test_overflowing_rate_steps_without_blow_up(self, torus32):
        theta0 = random_smooth_field(torus32, seed=2, amplitude=0.5)
        params = SqgParams(kappa=1e308, alpha=0.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate(
                SimulationState(t=0.0, theta=theta0), params, StepperConfig(dt=0.01, t_end=0.05)
            )
        # every mode of the mean-free field decays to zero in one step
        assert np.all(result.final.theta.coeffs == 0.0)


class TestTransportTerm:
    def test_energy_orthogonality(self, torus64):
        # <u . grad(theta), theta> = 0: dealiased transport conserves energy
        theta = random_smooth_field(torus64, seed=3)
        rhs = nonlinear_rhs(theta)
        value = inner_product(rhs, theta)
        assert abs(value) <= 1e-14 * sobolev_norm(theta, 0.0) ** 2

    def test_shear_transport_vanishes(self, torus64):
        theta = shear_field(torus64)
        rhs = nonlinear_rhs(theta)
        assert sobolev_norm(rhs, 0.0) <= 1e-14

    def test_advective_speed_of_shear(self, torus64):
        # u = (0, sin x1) has grid max speed 1
        assert advective_speed(shear_field(torus64)) == pytest.approx(1.0, rel=1e-12)

    def test_default_dt_respects_cfl(self, torus64):
        theta = shear_field(torus64)
        dt = default_dt(theta)
        assert dt == pytest.approx(0.5 * (2 * np.pi / 64), rel=1e-12)


def _composed_transport(theta):
    """Transport term and max|u| composed from the public spectral operations."""
    domain = theta.domain
    field = dealias(theta)
    if domain.basis is Basis.DIRICHLET:
        field = embed_odd_extension(field)
    torus = field.domain
    u1, u2 = (to_physical(u).values for u in velocity_from_theta(field))
    values = to_physical(field).values
    d1, d2 = derivative_symbols(torus)
    div = d1 * to_spectral(u1 * values, torus).coeffs + d2 * to_spectral(u2 * values, torus).coeffs
    rhs = dealias(SpectralField(coeffs=-div, domain=torus))
    if domain.basis is Basis.DIRICHLET:
        rhs = restrict_odd_extension(rhs, domain)
    return rhs, max(np.abs(u1).max(), np.abs(u2).max())


def _full_spectrum_field(domain, seed):
    """A real field with every mode populated, beyond the dealias cut too."""
    rng = np.random.default_rng(seed)
    if domain.basis is Basis.TORUS:
        return to_spectral(rng.standard_normal((domain.n, domain.n)), domain)
    return SpectralField(coeffs=rng.standard_normal(domain.spectral_shape), domain=domain)


class TestTransportKernel:
    @pytest.mark.parametrize("name", ["torus32", "torus64", "dirichlet32", "dirichlet64"])
    @pytest.mark.parametrize("make", ["smooth", "full_spectrum"])
    def test_matches_composed_operators(self, name, make, request):
        domain = request.getfixturevalue(name)
        if make == "smooth":
            theta = random_smooth_field(domain, seed=22, amplitude=0.7)
        else:
            theta = _full_spectrum_field(domain, seed=23)
        want, want_speed = _composed_transport(theta)
        got = nonlinear_rhs(theta)
        scale = np.abs(want.coeffs).max()
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * scale
        assert advective_speed(theta) == pytest.approx(want_speed, rel=1e-13)
        got.validate()

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_overflow_inside_first_rhs_is_blow_up(self, name, request):
        # u and theta are finite (~1e160), their product overflows
        domain = request.getfixturevalue(name)
        state = SimulationState(
            t=0.0, theta=random_smooth_field(domain, seed=24, amplitude=1e160)
        )
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.02)
        want_cfl = 0.01 * advective_speed(state.theta) * domain.n / domain.box
        with pytest.warns(CflWarning) as caught, pytest.raises(BlowUpError) as run:
            integrate(state, params, config)
        assert {w.filename for w in caught} == {__file__}
        assert run.value.t == pytest.approx(0.01)
        assert np.isfinite(run.value.cfl)
        assert run.value.cfl == pytest.approx(want_cfl, rel=1e-12)

    def test_dirichlet_transport_allocates_no_grid(self):
        # every sine/cosine transform overwrites a scratch grid, so what a
        # warm evaluation still allocates stays below one (n+1)^2 grid
        n = 128
        domain = DomainSpec(n=n, box=np.pi, basis=Basis.DIRICHLET)
        plan = _plan(domain)
        block = plan.kept(random_smooth_field(domain, 3, amplitude=1.0).coeffs).copy()
        scratch = plan.scratch()
        out = np.empty_like(block)
        plan.transport(block, scratch, out)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in range(20):
                got = plan.transport(block, scratch, out)[0]
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < (n + 1) ** 2 * 8
        assert got is out
        assert np.all(out == plan.transport(block, plan.scratch())[0])


class TestTransportSupport:
    @pytest.mark.parametrize(
        "domain",
        [
            DomainSpec(n=16, box=2 * np.pi, basis=Basis.TORUS),
            DomainSpec(n=32, box=2 * np.pi, basis=Basis.TORUS),
            DomainSpec(n=256, box=2 * np.pi, basis=Basis.TORUS),
            DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET),
        ],
        ids=["torus16", "torus32", "torus256", "dirichlet32"],
    )
    def test_output_modes_per_basis(self, domain):
        # the torus keeps k <= n/3 of the product, the Dirichlet box k <= 2n/3
        theta = _full_spectrum_field(domain, seed=0)
        rhs = nonlinear_rhs(theta)
        i1, i2 = domain.index_grids
        k = np.maximum(np.abs(i1), np.abs(i2))
        n = domain.n
        if domain.basis is Basis.TORUS:
            assert np.all(rhs.coeffs[k > n / 3] == 0.0)
            # the kernel computes columns 0 .. c and mirrors n-c .. n-1 from
            # them (at n = 16: the 6-column block and columns 11 .. 15)
            c = n // 3
            assert np.abs(rhs.coeffs[(k > 0) & (k <= n / 3)]).min() > 0.0
            rows = -np.arange(n) % n
            assert np.array_equal(rhs.coeffs[:, n - c :], np.conj(rhs.coeffs[rows, c:0:-1]))
        else:
            assert np.all(rhs.coeffs[k > 2 * n / 3] == 0.0)
            assert np.abs(rhs.coeffs[k > n / 3]).max() > 1e-3 * np.abs(rhs.coeffs).max()
        scale = sobolev_norm(rhs, 0.0) * sobolev_norm(theta, 0.0)
        assert abs(inner_product(rhs, dealias(theta))) <= 1e-14 * scale
        pairing = abs(inner_product(rhs, theta)) / scale
        if domain.basis is Basis.TORUS:
            assert pairing <= 1e-14
        else:
            # measured 4.8e-3: the modes in (n/3, 2n/3] pair with N
            assert pairing > 1e-3


_DIRICHLET_BOXES = {n: DomainSpec(n=n, box=np.pi, basis=Basis.DIRICHLET) for n in (16, 32, 64)}
_boxes = st.sampled_from(sorted(_DIRICHLET_BOXES)).map(_DIRICHLET_BOXES.get)
_TORI = {n: DomainSpec(n=n, box=2 * np.pi, basis=Basis.TORUS) for n in (16, 32, 64)}
_tori = st.sampled_from(sorted(_TORI)).map(_TORI.get)
_seeds = st.integers(0, 2**32 - 1)
_amplitudes = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)


def _random_field(domain, seed, amplitude, full_spectrum):
    if full_spectrum:
        return _full_spectrum_field(domain, seed) * amplitude
    return random_smooth_field(domain, seed, amplitude=amplitude)


def _kernel_transport(plan, coeffs):
    """The plan's transport block, assembled into a full-layout array."""
    block, speed = plan.transport(coeffs, plan.scratch())
    return plan.assemble(block), speed


def _assert_kernel_matches_composed(theta):
    want, want_speed = _composed_transport(theta)
    got, speed = _kernel_transport(_plan(theta.domain), theta.coeffs)
    assert np.abs(got - want.coeffs).max() <= 1e-13 * np.abs(want.coeffs).max()
    assert speed == pytest.approx(want_speed, rel=1e-13)
    assert advective_speed(theta) == pytest.approx(want_speed, rel=1e-13)


class TestTransportProperties:
    """Random Dirichlet boxes, seeds and amplitudes from 1e-3 to 1e2."""

    @settings(max_examples=30)
    @given(domain=_boxes, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_native_kernel_matches_odd_extension(self, domain, seed, amplitude, full_spectrum):
        _assert_kernel_matches_composed(_random_field(domain, seed, amplitude, full_spectrum))

    @settings(max_examples=30)
    @given(domain=_boxes, seed=_seeds, amplitude=_amplitudes, decay=st.floats(1.5, 6.0))
    def test_transport_is_orthogonal_to_theta(self, domain, seed, amplitude, decay):
        # <N(theta), theta> is cubic in the amplitude: measure it against
        # the Cauchy-Schwarz bound |N| |theta|
        theta = random_smooth_field(domain, seed, decay=decay, amplitude=amplitude)
        rhs = nonlinear_rhs(theta)
        value = inner_product(rhs, theta)
        assert abs(value) <= 1e-14 * sobolev_norm(rhs, 0.0) * sobolev_norm(theta, 0.0)


class TestTorusTransportProperties:
    """Random tori, seeds and amplitudes from 1e-3 to 1e2."""

    @settings(max_examples=30)
    @given(domain=_tori, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_kernel_matches_composed_operators(self, domain, seed, amplitude, full_spectrum):
        _assert_kernel_matches_composed(_random_field(domain, seed, amplitude, full_spectrum))

    @settings(max_examples=30)
    @given(domain=_tori, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_transport_is_orthogonal_to_dealiased_theta(
        self, domain, seed, amplitude, full_spectrum
    ):
        theta = _random_field(domain, seed, amplitude, full_spectrum)
        rhs = nonlinear_rhs(theta)
        value = inner_product(rhs, dealias(theta))
        assert abs(value) <= 1e-14 * sobolev_norm(rhs, 0.0) * sobolev_norm(theta, 0.0)


def _full_width_transport(domain, coeffs):
    """The torus kernel before pruning: every rfft2 column 0 .. n/2 transformed."""
    import scipy.fft

    n = domain.n
    half = np.s_[:, : n // 2 + 1]
    mask = dealias_mask(domain)[half]
    r1, r2 = domain.riesz_symbols
    d1, d2 = derivative_symbols(domain)
    synth = np.stack([1j * r2[half], -1j * r1[half], np.ones(mask.shape)])
    synth *= mask * (n * n / domain.box)
    div = np.stack([d1[half], d2[half]]) * (mask * (-domain.box / (n * n)))
    u1, u2, theta = (scipy.fft.irfft2(mult * coeffs[half], s=(n, n)) for mult in synth)
    speed = float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))
    flux = div[0] * scipy.fft.rfft2(u1 * theta) + div[1] * scipy.fft.rfft2(u2 * theta)
    out = np.empty((n, n), dtype=np.complex128)
    out[half] = flux
    np.conj(flux[-np.arange(n) % n, n // 2 - 1 : 0 : -1], out=out[:, n // 2 + 1 :])
    return out, speed


class TestPrunedTorusKernel:
    """The kernel transforms only the kept columns and equals the full-width one."""

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("full_spectrum", [False, True], ids=["smooth", "full_spectrum"])
    @pytest.mark.parametrize("amplitude", [1e-3, 1.0, 1e2])
    def test_bit_identical_to_full_width(self, n, full_spectrum, amplitude):
        # all allowed n are powers of two, so folding n^2 out of the synthesis
        # scale is exact and the two kernels agree bit for bit
        domain = DomainSpec(n=n, box=2 * np.pi, basis=Basis.TORUS)
        coeffs = _random_field(domain, n, amplitude, full_spectrum).coeffs
        want, want_speed = _full_width_transport(domain, coeffs)
        plan = _plan(domain)
        got, speed = _kernel_transport(plan, coeffs)
        assert plan.synth.shape == (3, n, n // 3 + 1)
        assert plan.transport(coeffs, plan.scratch())[0].shape == (n, n // 3 + 1)
        assert np.all(got == want)
        assert speed == want_speed
        assert plan.speed(coeffs, plan.scratch()) == want_speed

    def test_plan_building_leaves_scipy_fft_unloaded(self):
        # the transforms, fields and kernels of both bases run on numpy.fft
        # alone: building, running and sampling them never loads scipy.fft
        loaded = "print('scipy.fft' in sys.modules, 'scipy.special' in sys.modules)\n"
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from sqglab.dynamics import (\n"
            "    SimulationState, SqgParams, StepperConfig, _plan, advective_speed,\n"
            "    integrate, nonlinear_rhs,\n"
            ")\n"
            "from sqglab.fields import gaussian_bump_field, random_smooth_field\n"
            "from sqglab.spectral import (\n"
            "    Basis, DomainSpec, cosine_field, sine_mode_field, to_physical, to_spectral,\n"
            ")\n"
            "torus = DomainSpec(n=32, box=2 * np.pi, basis=Basis.TORUS)\n"
            "box = DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET)\n"
            "_plan(torus), _plan(box)\n"
            f"{loaded}"
            "theta = random_smooth_field(torus, 3) + gaussian_bump_field(torus, width=0.5)\n"
            "to_spectral(to_physical(theta))\n"
            "nonlinear_rhs(theta), advective_speed(theta)\n"
            "integrate(SimulationState(t=0.0, theta=theta), SqgParams(kappa=0.1, alpha=0.75),\n"
            "          StepperConfig(dt=0.01, t_end=0.02))\n"
            f"{loaded}"
            "theta = random_smooth_field(box, 3) + gaussian_bump_field(box, width=0.5)\n"
            "to_spectral(to_physical(theta))\n"
            "nonlinear_rhs(sine_mode_field(box, (1, 2))), advective_speed(theta)\n"
            "integrate(SimulationState(t=0.0, theta=theta), SqgParams(kappa=0.1, alpha=0.75),\n"
            "          StepperConfig(dt=0.01, t_end=0.02))\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(sqglab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"] * 5

    def test_transport_allocates_nothing_and_fills_out(self):
        # a march's evaluation: a contiguous block in, one scratch and one
        # out reused; numpy traces its array allocations, so any
        # intermediate grid would lift the peak by at least n^2 * 8 bytes
        n = 128
        domain = DomainSpec(n=n, box=2 * np.pi, basis=Basis.TORUS)
        plan = _plan(domain)
        block = plan.kept(random_smooth_field(domain, 3, amplitude=1.0).coeffs).copy()
        scratch = plan.scratch()
        out = np.empty_like(block)
        plan.transport(block, scratch, out)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in range(20):
                got = plan.transport(block, scratch, out)[0]
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < n * n * 8
        assert got is out
        assert np.all(out == plan.transport(block, plan.scratch())[0])


def _bits(array):
    """The bytes of an array, so that every ulp and the sign of every zero count."""
    return np.ascontiguousarray(array).view(np.uint8)


#: The full-layout tables a domain caches once asked; a run asks for none.
_FULL_LAYOUT_TABLES = {"riesz_symbols", "laplacian_symbol"}


class TestKeptBlockTables:
    """Every table a march or its samples read covers the kept block only.

    Each equals the block of the full-layout table it replaces, bit for bit.
    """

    def test_a_run_builds_no_full_layout_table(self):
        # a box no other test uses, so the plan is built on this very domain
        domain = DomainSpec(n=32, box=4.125, basis=Basis.TORUS)
        theta = random_smooth_field(domain, 0, amplitude=0.5)
        params = SqgParams(kappa=0.2, alpha=0.75)
        integrate(SimulationState(t=0.0, theta=theta), params, StepperConfig(dt=0.01, t_end=0.02))
        assert _FULL_LAYOUT_TABLES.isdisjoint(vars(domain))
        assert not hasattr(domain, "derivative_symbols")
        # and the plan and the sample weights, built afresh on a new domain
        fresh = DomainSpec(n=32, box=4.125, basis=Basis.TORUS)
        _plan.__wrapped__(fresh)
        _block_weights.__wrapped__(fresh, 1.5)
        assert _FULL_LAYOUT_TABLES.isdisjoint(vars(fresh))

    @pytest.mark.parametrize("basis", [Basis.TORUS, Basis.DIRICHLET])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_tables_have_the_block_shape(self, basis, n):
        domain = DomainSpec(n=n, box=2 * np.pi, basis=basis)
        plan = _plan(domain)
        block = plan.kept(np.zeros(domain.spectral_shape)).shape
        assert plan.symbol.shape == block
        assert plan.div.shape[1:] == block
        if basis is Basis.TORUS:
            assert block == (n, n // 3 + 1)
            assert plan.synth.shape[1:] == block
        tables = _etd_tables(plan.symbol, SqgParams(kappa=0.2, alpha=0.75), 0.01)
        assert [table.shape for table in tables] == [block] * 3
        assert _block_weights(domain, 1.5)[0].shape == (math.prod(block),)

    @pytest.mark.parametrize("n", [16, 32, 256, 2048])
    @pytest.mark.parametrize("box", [2 * np.pi, 1.0, 1e-100])
    def test_torus_tables_equal_the_full_layout_ones(self, n, box):
        # the construction from the full-layout symbols the plan used to cut
        domain = DomainSpec(n=n, box=box, basis=Basis.TORUS)
        plan = _plan.__wrapped__(domain)
        kept = np.s_[:, : n // 3 + 1]
        mask = dealias_mask(domain)[kept]
        r1, r2 = domain.riesz_symbols
        d1, d2 = derivative_symbols(domain)
        synth = np.stack([1j * r2[kept], -1j * r1[kept], np.ones(mask.shape)])
        synth *= mask / domain.box
        div = np.stack([d1[kept], d2[kept]]) * (mask * (-domain.box / (n * n)))
        symbol = domain.laplacian_symbol[kept]
        for got, want in ((plan.synth, synth), (plan.div, div), (plan.symbol, symbol)):
            assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("n", [16, 128])
    def test_box_symbol_equals_the_full_layout_one(self, n):
        domain = DomainSpec(n=n, box=np.pi, basis=Basis.DIRICHLET)
        plan = _plan(domain)
        assert np.array_equal(_bits(plan.symbol), _bits(plan.kept(domain.laplacian_symbol)))

    @pytest.mark.parametrize("basis", [Basis.TORUS, Basis.DIRICHLET])
    @pytest.mark.parametrize(
        "kappa, alpha, lam, dt",
        [(0.2, 0.75, 0.1, 0.01), (1e-3, 1.0, 0.0, 1e-9), (1e307, 0.6, 0.3, 1.0)],
        ids=["moderate", "series", "overflow"],
    )
    def test_block_etd_tables_equal_the_full_ones(self, basis, kappa, alpha, lam, dt):
        domain = DomainSpec(n=64, box=2 * np.pi, basis=basis)
        params = SqgParams(kappa=kappa, alpha=alpha, lam=lam)
        plan = _plan(domain)
        full = etd_coefficients(domain, params, dt)
        got = _etd_tables(plan.symbol, params, dt)
        for table, want in zip(got, (full.decay, full.phi1, full.phi2)):
            assert np.array_equal(_bits(table), _bits(plan.kept(want)))

    @pytest.mark.parametrize("basis", [Basis.TORUS, Basis.DIRICHLET])
    @pytest.mark.parametrize("s", [0.0, 1.5, -0.5, 400.0])
    def test_block_sobolev_norms_equal_the_full_layout_ones(self, basis, s):
        # 400: |k|^800 passes the largest float, so the block sum runs in log space
        domain = DomainSpec(n=32, box=2 * np.pi, basis=basis)
        theta = random_smooth_field(domain, 7, amplitude=0.5)
        block = _plan(domain).kept(theta.coeffs)
        got = _weighted_norms(block, [_block_weights(domain, s)])[0]
        assert got == pytest.approx(sobolev_norm(theta, s), rel=1e-13)
        if s == 400.0:
            assert _block_weights(domain, s)[1] is not None

    def test_integrate_peak_stays_below_ten_states(self):
        # n = 256, two steps, the plan built inside the trace: the kept-block
        # tables, scratch and march buffers, one sample grid and the final
        # state; the full-layout symbol and ETD tables lifted it to 11.7
        n = 256
        domain = DomainSpec(n=n, box=5.75, basis=Basis.TORUS)  # a box no other test uses
        theta = random_smooth_field(domain, 0, amplitude=0.5)
        state = SimulationState(t=0.0, theta=theta)
        params = SqgParams(kappa=0.2, alpha=0.75)
        tracemalloc.start()
        try:
            integrate(state, params, StepperConfig(dt=0.01, t_end=0.02))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * n * n * np.dtype(np.complex128).itemsize


_ORACLE_BOXES = {n: DomainSpec(n=n, box=np.pi, basis=Basis.DIRICHLET) for n in (16, 32, 64, 128, 256)}


class TestBoxKernelOracle:
    """The paired numpy.fft box kernel against the unpaired scipy.fft one (``oracles.box_transport``)."""

    @settings(max_examples=40)
    @given(
        n=st.sampled_from(sorted(_ORACLE_BOXES)),
        seed=_seeds,
        amplitude=_amplitudes,
        smooth=st.booleans(),
    )
    def test_transport_matches_the_scipy_kernel(self, n, seed, amplitude, smooth):
        # pairing moves only round-off: at most 1.7e-14 of the largest
        # coefficient and 3.5e-16 of the speed on random blocks, n = 16 .. 256
        domain = _ORACLE_BOXES[n]
        plan = _plan(domain)
        if smooth:
            block = plan.kept(random_smooth_field(domain, seed, amplitude=amplitude).coeffs)
        else:
            shape = plan.kept(np.empty(domain.spectral_shape)).shape
            block = amplitude * np.random.default_rng(seed).standard_normal(shape)
        want, want_speed = box_transport(domain, block)
        got, speed = plan.transport(block, plan.scratch())
        assert got.shape == want.shape == (2 * n // 3, 2 * n // 3)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert speed == pytest.approx(want_speed, rel=1e-15, abs=0.0)
        assert plan.speed(block, plan.scratch()) == speed


class TestStepOracles:
    def test_shear_decay_exact(self, torus64):
        # theta0 = cos x1 lives on |k| = 1 where |k|^{2a} = 1 for every a:
        # the solution is e^{-kappa t} cos x1 and the scheme reproduces the
        # linear flow exactly per mode.
        theta0 = shear_field(torus64)
        for alpha in (0.55, 0.75, 1.0):
            params = SqgParams(kappa=0.1, alpha=alpha)
            config = StepperConfig(dt=0.025, t_end=1.0)
            result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
            got = to_physical(result.final.theta).values
            x1, _ = torus64.physical_coordinates
            want = np.exp(-0.1 * 1.0) * np.cos(x1)
            assert np.abs(got - want).max() <= 1e-12

    def test_forced_fixed_point(self, torus64):
        # f = kappa (-Lap)^a g + lam g makes g stationary when N(g) = 0
        g = cosine_field(torus64, (1, 0))
        kappa, alpha, lam = 0.2, 0.75, 0.3
        forcing = fractional_laplacian(g, alpha) * kappa + g * lam
        params = SqgParams(kappa=kappa, alpha=alpha, lam=lam, forcing=forcing)
        config = StepperConfig(dt=0.02, t_end=2.0)
        result = integrate(SimulationState(t=0.0, theta=g), params, config)
        assert sobolev_norm(result.final.theta - g, 0.0) <= 1e-8

    def test_second_order_convergence(self, torus32):
        theta0 = random_smooth_field(torus32, seed=4, amplitude=0.5)
        params = SqgParams(kappa=0.05, alpha=0.75)
        t_end = 0.2
        finals = []
        for dt in (0.02, 0.01, 0.005):
            config = StepperConfig(dt=dt, t_end=t_end)
            result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
            finals.append(result.final.theta)
        err_coarse = sobolev_norm(finals[0] - finals[2], 0.0)
        err_fine = sobolev_norm(finals[1] - finals[2], 0.0)
        order = np.log2(err_coarse / err_fine) - np.log2(
            (1 - 0.25) / (1 - 0.25 / 2)  # Richardson: errors vs dt/4 reference
        )
        # simpler sufficient check: successive differences drop ~4x
        assert err_coarse / err_fine >= 2.0**1.8
        assert order > 0  # direction sanity on the corrected exponent

    @pytest.mark.parametrize("name", ["torus64", "dirichlet64"])
    def test_blow_up_raises_with_time_stamp(self, name, request):
        # sampled at every step, the last sample is the last accepted state,
        # whose speed the failed step's first stage has already computed
        domain = request.getfixturevalue(name)
        theta0 = random_smooth_field(domain, seed=5, amplitude=50.0)
        params = SqgParams(kappa=1e-6, alpha=0.75)
        config = StepperConfig(dt=50.0, t_end=500.0, sample_every=1)
        states = []
        with pytest.warns(CflWarning):
            with pytest.raises(BlowUpError, match="blow-up or instability") as info:
                integrate(
                    SimulationState(t=0.0, theta=theta0), params, config, sample=states.append
                )
        assert len(states) > 1  # the run blew up after its first step
        assert info.value.t == states[-1].t + config.step_dt
        speed = advective_speed(states[-1].theta)
        assert np.isfinite(info.value.cfl)
        assert info.value.cfl == config.step_dt * speed * domain.n / domain.box

    def test_single_step_advances_time(self, torus32):
        # a one-step run from a later state lands on t + dt exactly
        theta0 = random_smooth_field(torus32, seed=6, amplitude=0.1)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.01)
        state = integrate(SimulationState(t=0.3, theta=theta0), params, config).final
        assert state.t == 0.3 + 0.01


class TestIntegrateContract:
    def test_one_step_horizon_gives_two_samples(self, torus32):
        # the shortest run: dt = t_end samples the start and the end
        theta0 = random_smooth_field(torus32, seed=8, amplitude=0.1)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.01)
        result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        assert result.series.times == [0.0, 0.01]

    def test_sample_count(self, torus32):
        theta0 = random_smooth_field(torus32, seed=9, amplitude=0.1)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.1, sample_every=1)
        result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        assert len(result.series) == 11

    def test_bit_identical_reruns(self, torus32):
        theta0 = random_smooth_field(torus32, seed=10, amplitude=0.3)
        params = SqgParams(kappa=0.1, alpha=0.6)
        config = StepperConfig(dt=0.01, t_end=0.2)
        runs = [
            integrate(SimulationState(t=0.0, theta=theta0), params, config)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].final.theta.coeffs, runs[1].final.theta.coeffs
        )

    def test_mean_stays_exactly_zero(self, torus32):
        theta0 = random_smooth_field(torus32, seed=11, amplitude=0.5)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.3)
        states = []
        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
        for state in states:
            assert state.theta.coeffs[0, 0] == 0.0

    def test_l2_non_increasing_unforced(self, torus32):
        theta0 = random_smooth_field(torus32, seed=12, amplitude=0.5)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.5)
        states = []
        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
        norms = [sobolev_norm(s.theta, 0.0) for s in states]
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev * (1 + 1e-9)

    def test_damped_decay_envelope(self, torus32):
        lam = 0.5
        theta0 = random_smooth_field(torus32, seed=13, amplitude=0.5)
        params = SqgParams(kappa=0.1, alpha=0.75, lam=lam)
        config = StepperConfig(dt=0.01, t_end=1.0)
        states = []
        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
        base = sobolev_norm(theta0, 0.0) ** 2
        for state in states:
            energy = sobolev_norm(state.theta, 0.0) ** 2
            assert energy <= base * np.exp(-2 * lam * state.t) * (1 + 1e-6)

    def test_monitor_columns(self, torus32):
        theta0 = random_smooth_field(torus32, seed=14, amplitude=0.1)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.05)
        result = integrate(
            SimulationState(t=0.0, theta=theta0),
            params,
            config,
            sample=lambda state: {"l2": sobolev_norm(state.theta, 0.0)},
        )
        col = result.series.column("l2")
        assert len(col) == len(result.series)
        assert col[0] == pytest.approx(sobolev_norm(theta0, 0.0))

    def test_sample_columns_follow_cfl(self, torus32):
        theta0 = random_smooth_field(torus32, seed=14, amplitude=0.1)
        config = StepperConfig(dt=0.01, t_end=0.05, sample_every=2)
        result = integrate(
            SimulationState(t=0.0, theta=theta0),
            SqgParams(kappa=0.1, alpha=0.75),
            config,
            sample=lambda state: {"z": state.t, "a": 1.0},
        )
        assert list(result.series.columns) == ["cfl", "z", "a"]
        assert result.series.column("z") == result.series.times
        assert result.series.meta == {"dt": config.step_dt}

    def test_cfl_derived_dt_lands_on_the_horizon(self, torus32):
        # dt = 0.0982 does not divide t_end = 1: eleven uniform steps of 1/11
        theta0 = random_smooth_field(torus32, seed=0)
        config = StepperConfig(dt=default_dt(theta0), t_end=1.0)
        assert config.n_steps == 11
        assert config.step_dt <= config.dt
        params = SqgParams(kappa=0.1, alpha=0.75)
        result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        assert len(result.series) == 12
        assert result.final.t == pytest.approx(1.0, rel=0, abs=1e-14)
        assert result.series.times[1] == config.step_dt

    def test_cfl_peak_between_samples_warns(self, torus32):
        # theta = e^{-t} cos x1 + h (1 - e^{-9t}) with h = -cos(3 x1)/2 held
        # by the forcing is a shear, so its transport vanishes.  Its speed
        # max|e^{-t} sin x1 - (1 - e^{-9t}) sin(3 x1)/2| starts at 1, peaks
        # near 1.24 at t = 0.19 and decays toward 1/2.
        kappa = alpha = 1.0
        h = cosine_field(torus32, (3, 0), amplitude=-0.5)
        params = SqgParams(kappa=kappa, alpha=alpha, forcing=fractional_laplacian(h, alpha) * kappa)
        theta0 = cosine_field(torus32, (1, 0))
        dt = 0.45 * torus32.box / torus32.n  # CFL 0.45 at t = 0
        config = StepperConfig(dt=dt, t_end=40 * dt, sample_every=40)
        with pytest.warns(CflWarning, match=f"exceeds {CFL_LIMIT}"):
            result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        assert len(result.series) == 2
        assert max(result.series.column("cfl")) < CFL_LIMIT

    def test_cfl_warning_points_at_the_caller(self, torus32):
        # a strong shear: the transport vanishes, so the run stays finite at
        # CFL 0.1 * 1e4 * 32 / (2 pi) = 5.09e3 at both samples
        theta0 = shear_field(torus32) * 1e4
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.1, t_end=0.1)
        with pytest.warns(CflWarning, match=r"advective CFL 5\.09e\+03 exceeds") as record:
            integrate(SimulationState(t=0.0, theta=theta0), params, config)
        assert len(record) == 2
        assert {w.filename for w in record} == {__file__}

    def test_forcing_domain_mismatch(self, torus32, torus64):
        forcing = random_smooth_field(torus64, seed=15)
        with pytest.raises(ValueError, match="forcing must live on the same domain"):
            params = SqgParams(kappa=0.1, alpha=0.75, forcing=forcing)
            theta0 = random_smooth_field(torus32, seed=16)
            integrate(
                SimulationState(t=0.0, theta=theta0),
                params,
                StepperConfig(dt=0.01, t_end=0.02),
            )


def _reference_march(theta, params, config, steps):
    """The full-layout ETD update the stepper made before it worked on the kept block."""
    domain = theta.domain
    if domain.basis is Basis.TORUS:
        def rhs(coeffs):
            return _full_width_transport(domain, coeffs)[0]
    else:
        plan = _plan(domain)

        def rhs(coeffs):
            return _kernel_transport(plan, coeffs)[0]
    forcing = params.forcing
    tables = etd_coefficients(domain, params, config.step_dt)
    dt_phi1 = tables.dt * tables.phi1
    dt_phi2 = tables.dt * tables.phi2
    coeffs = theta.coeffs
    for _ in range(steps):
        n0 = rhs(coeffs)
        if forcing is not None:
            n0 += forcing.coeffs
        new = tables.decay * coeffs
        new += dt_phi1 * n0
        n1 = rhs(new)
        if forcing is not None:
            n1 += forcing.coeffs
        n1 -= n0
        n1 *= dt_phi2
        new += n1
        coeffs = new
    return coeffs


def _oracle_state(domain, seed, kind):
    """A smooth field, or a real field with every mode the 2/3 rule keeps populated."""
    if kind == "smooth":
        return random_smooth_field(domain, seed, amplitude=0.5)
    return dealias(_full_spectrum_field(domain, seed)) * 0.05


class TestStepOracle:
    """The kept-block march equals the full-layout ETD update bit for bit."""

    @settings(max_examples=40)
    @given(
        domain=st.one_of(_tori, _boxes),
        seed=st.integers(0, 2**31),
        kind=st.sampled_from(["smooth", "dealiased_noise"]),
        steps=st.integers(1, 4),
        kappa=st.floats(0.01, 1.0),
        alpha=st.floats(0.55, 1.0),
        lam=st.sampled_from([0.0, 0.3]),
        forcing=st.sampled_from([None, "smooth", "dealiased_noise"]),
    )
    def test_march_matches_full_layout_reference(
        self, domain, seed, kind, steps, kappa, alpha, lam, forcing
    ):
        # the march takes only states and forcings inside its kept block;
        # the reference updates every mode of the full layout
        theta = _oracle_state(domain, seed, kind)
        if forcing is not None:
            forcing = _oracle_state(domain, seed + 2, forcing) * 0.6
        params = SqgParams(kappa=kappa, alpha=alpha, lam=lam, forcing=forcing)
        config = StepperConfig(dt=0.01, t_end=0.01 * steps)
        want = _reference_march(theta, params, config, steps)
        state = SimulationState(t=0.0, theta=theta)
        result = integrate(state, params, config)
        assert np.array_equal(result.final.theta.coeffs, want)
        first = integrate(state, params, StepperConfig(dt=0.01, t_end=0.01)).final
        assert np.array_equal(first.theta.coeffs, _reference_march(theta, params, config, 1))

    @pytest.mark.parametrize("name", ["torus32", "torus64"])
    def test_complex_theta_is_rejected(self, name, request):
        # the transform of a complex field: no mirror column matches its block
        domain = request.getfixturevalue(name)
        real = _full_spectrum_field(domain, 5).coeffs
        imag = _full_spectrum_field(domain, 6).coeffs
        theta = SpectralField(coeffs=real + 1j * imag, domain=domain)
        state = SimulationState(t=0.0, theta=theta)
        config = StepperConfig(dt=0.01, t_end=0.02)
        with pytest.raises(FieldError, match="not a real field") as err:
            integrate(state, SqgParams(kappa=0.1, alpha=0.75), config)
        assert err.value.field == "theta"

    def test_complex_column_zero_is_rejected(self):
        # column k2 = 0 is its own mirror: (1, 0) = 1 with (-1, 0) = 0 is complex
        domain = DomainSpec(n=16, box=2 * np.pi, basis=Basis.TORUS)
        coeffs = np.zeros((16, 16), dtype=np.complex128)
        coeffs[1, 0] = 1.0
        field = SpectralField(coeffs=coeffs, domain=domain)
        config = StepperConfig(dt=0.01, t_end=0.02)
        state = SimulationState(t=0.0, theta=field)
        forced = SqgParams(kappa=0.1, alpha=0.75, forcing=field)
        real = SimulationState(t=0.0, theta=cosine_field(domain, (1, 0)))
        with pytest.raises(FieldError, match="not a real field") as err:
            integrate(state, SqgParams(kappa=0.1, alpha=0.75), config)
        assert err.value.field == "theta"
        with pytest.raises(FieldError, match="not a real field") as err:
            integrate(real, forced, config)
        assert err.value.field == "forcing"

    @pytest.mark.parametrize("name", ["torus32", "torus64"])
    def test_march_output_marches_again(self, name, request):
        # the march leaves column 0 Hermitian only to round-off, which the
        # realness check tolerates
        domain = request.getfixturevalue(name)
        params = SqgParams(kappa=0.1, alpha=0.75)
        state = SimulationState(t=0.0, theta=random_smooth_field(domain, 10, amplitude=0.5))
        final = integrate(state, params, StepperConfig(dt=0.01, t_end=0.05)).final
        again = integrate(final, params, StepperConfig(dt=0.01, t_end=0.01)).final
        assert again.t == pytest.approx(0.06)

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_state_outside_the_block_is_rejected(self, name, request):
        # a full-spectrum state has modes the march would not evolve; the
        # run stops before its first sample
        domain = request.getfixturevalue(name)
        state = SimulationState(t=0.0, theta=_full_spectrum_field(domain, 7) * 0.05)
        config = StepperConfig(dt=0.01, t_end=0.02)
        samples = []
        with pytest.raises(FieldError, match="outside the block") as err:
            integrate(state, SqgParams(kappa=0.1, alpha=0.75), config, sample=samples.append)
        assert err.value.field == "theta"
        assert samples == []

    @pytest.mark.parametrize(
        "name, forcing",
        [
            ("torus32", lambda domain: _full_spectrum_field(domain, 9) * 0.05),
            ("torus32", lambda domain: cosine_field(domain, (0, 11))),
            ("dirichlet32", lambda domain: _full_spectrum_field(domain, 9) * 0.05),
            ("dirichlet32", lambda domain: sine_mode_field(domain, (1, 22))),
        ],
        ids=["torus32-full", "torus32-mode-0-11", "dirichlet32-full", "dirichlet32-mode-1-22"],
    )
    def test_forcing_outside_the_block_is_rejected(self, name, forcing, request):
        domain = request.getfixturevalue(name)
        state = SimulationState(t=0.0, theta=random_smooth_field(domain, 8, amplitude=0.5))
        params = SqgParams(kappa=0.1, alpha=0.75, forcing=forcing(domain))
        config = StepperConfig(dt=0.01, t_end=0.02)
        with pytest.raises(FieldError, match="outside the block") as err:
            integrate(state, params, config)
        assert err.value.field == "forcing"


def _sparse_array(domain, seed, base, modes):
    """A full-layout array, not necessarily real: a base plus a few set modes."""
    rng = np.random.default_rng(seed)
    shape = domain.spectral_shape
    if domain.basis is Basis.TORUS:
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        coeffs = rng.standard_normal(shape)
    if base == "zero":
        coeffs[...] = 0.0
    elif base == "dealiased":
        coeffs *= dealias_mask(domain)
    for i, j in modes:
        coeffs[i % shape[0], j % shape[1]] = 1.0 + rng.random()
    return coeffs


class TestDealiasPredicate:
    """Each plan's one dealias test: zero at every mode past the cut, for any full-layout array."""

    @settings(max_examples=80)
    @given(
        domain=st.one_of(_tori, _boxes),
        seed=_seeds,
        base=st.sampled_from(["zero", "dealiased", "full"]),
        modes=st.lists(st.tuples(st.integers(0, 62), st.integers(0, 62)), max_size=3),
    )
    # torus arrays whose only nonzero modes lie in the middle columns
    # c+1 .. n-c-1, which no kept block holds
    @example(domain=_TORI[16], seed=0, base="zero", modes=[(0, 8)])
    @example(domain=_TORI[32], seed=1, base="zero", modes=[(3, 11), (30, 21)])
    @example(domain=_TORI[64], seed=2, base="dealiased", modes=[(1, 40)])
    def test_matches_dealias(self, domain, seed, base, modes):
        coeffs = _sparse_array(domain, seed, base, modes)
        want = np.array_equal(dealias(SpectralField(coeffs.copy(), domain)).coeffs, coeffs)
        assert _plan(domain).dealiased(coeffs) == want


class TestMarchBuffers:
    """The march reuses its buffers; nothing handed out may change afterwards."""

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_sampled_states_stay_fixed(self, name, request):
        domain = request.getfixturevalue(name)
        theta0 = random_smooth_field(domain, seed=31, amplitude=0.5)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.1)
        states, snapshots = [], []

        def keep(state):
            states.append(state)
            snapshots.append(state.theta.coeffs.copy())

        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=keep)
        assert len(states) == 11
        for state, snapshot in zip(states, snapshots):
            assert np.array_equal(state.theta.coeffs, snapshot)
        assert not np.array_equal(states[1].theta.coeffs, states[3].theta.coeffs)

    @pytest.mark.parametrize("name", ["torus32", "torus64", "dirichlet32", "dirichlet64"])
    @pytest.mark.parametrize("kind", ["smooth", "dealiased_noise"])
    def test_march_state_is_the_kept_block(self, name, kind, request, monkeypatch):
        # record what the transport evaluates: two calls per step, on the
        # state and on the predictor, which the next step starts from
        domain = request.getfixturevalue(name)
        n, state = domain.n, SimulationState(t=0.0, theta=_oracle_state(domain, 33, kind))
        plan_type = type(_plan(domain))
        transport = plan_type.transport
        calls = []

        def recording(self, coeffs, *args):
            calls.append(coeffs)
            return transport(self, coeffs, *args)

        monkeypatch.setattr(plan_type, "transport", recording)
        integrate(state, SqgParams(kappa=0.1, alpha=0.75), StepperConfig(0.01, 0.03))
        assert len(calls) == 6
        assert np.shares_memory(calls[0], state.theta.coeffs)
        for block in calls:
            if domain.basis is Basis.TORUS:
                assert block.shape == (n, n // 3 + 1)
            else:
                assert block.shape == (2 * n // 3, 2 * n // 3)
        assert all(block.flags.c_contiguous for block in calls[1:])
        # the two state buffers alternate from step to step
        assert calls[1] is calls[2] is calls[5] and calls[3] is calls[4]
        assert calls[3] is not calls[1]

    def test_a_box_run_allocates_its_scratch_once(self, dirichlet32, monkeypatch):
        # the initial sample's speed runs through the march's own buffers
        plan_type = type(_plan(dirichlet32))
        scratch = plan_type.scratch
        calls = []

        def counted(self):
            calls.append(self.n)
            return scratch(self)

        monkeypatch.setattr(plan_type, "scratch", counted)
        theta0 = random_smooth_field(dirichlet32, seed=34, amplitude=0.5)
        state = SimulationState(t=0.0, theta=theta0)
        integrate(state, SqgParams(kappa=0.1, alpha=0.75), StepperConfig(0.01, 0.03))
        assert calls == [32]

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_final_state_stays_fixed(self, name, request):
        # later runs that march from a returned final state leave its array alone
        domain = request.getfixturevalue(name)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.01)
        state = SimulationState(t=0.0, theta=random_smooth_field(domain, seed=32, amplitude=0.5))
        first = integrate(state, params, config).final
        snapshot = first.theta.coeffs.copy()
        later = first
        for _ in range(3):
            later = integrate(later, params, config).final
        assert np.array_equal(first.theta.coeffs, snapshot)

    @pytest.mark.parametrize("name", ["torus64", "dirichlet64"])
    def test_concurrent_marches_match_sequential(self, name, request):
        # more threads than cores on one shared plan, switching often
        domain = request.getfixturevalue(name)
        params = SqgParams(kappa=0.1, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.1)

        def run(seed):
            theta0 = random_smooth_field(domain, seed=seed, amplitude=0.5)
            return integrate(SimulationState(t=0.0, theta=theta0), params, config)

        seeds = range(40, 44)
        sequential = [run(seed).final.theta.coeffs for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [pool.submit(run, seed) for seed in seeds]
                concurrent = [future.result(timeout=120).final.theta.coeffs for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(sequential, concurrent):
            assert np.array_equal(got, want)


class TestOddExtension:
    def test_round_trip_exact(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=17)
        back = restrict_odd_extension(embed_odd_extension(theta), dirichlet32)
        np.testing.assert_array_equal(back.coeffs, theta.coeffs)

    def test_embedding_doubles_the_norm(self, dirichlet32):
        # the doubled torus holds four mirrored copies of the field
        theta = random_smooth_field(dirichlet32, seed=18)
        embedded = embed_odd_extension(theta)
        assert sobolev_norm(embedded, 0.0) == pytest.approx(
            2.0 * sobolev_norm(theta, 0.0), rel=1e-12
        )

    def test_physical_values_match_on_the_half_box(self, dirichlet32):
        theta = sine_mode_field(dirichlet32, (2, 1))
        embedded = embed_odd_extension(theta)
        inner = to_physical(theta).values
        doubled = to_physical(embedded).values
        n = dirichlet32.n
        np.testing.assert_allclose(doubled[: n + 1, : n + 1], inner, atol=1e-13)
        # odd symmetry across the shared boundary
        np.testing.assert_allclose(
            doubled[n + 1 :, 1:n], -inner[n - 1 : 0 : -1, 1:n], atol=1e-13
        )


class TestOddExtensionProperties:
    """Random Dirichlet boxes, seeds and amplitudes from 1e-3 to 1e2."""

    @settings(max_examples=30)
    @given(domain=_boxes, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_extension_is_the_odd_reflection(self, domain, seed, amplitude, full_spectrum):
        if full_spectrum:
            theta = _full_spectrum_field(domain, seed) * amplitude
        else:
            theta = random_smooth_field(domain, seed, amplitude=amplitude)
        embedded = embed_odd_extension(theta)
        back = restrict_odd_extension(embedded, domain)
        np.testing.assert_array_equal(back.coeffs, theta.coeffs)
        inner = to_physical(theta).values
        doubled = to_physical(embedded).values
        n = domain.n
        tol = 1e-13 * np.abs(inner).max()
        # theta on the box, -theta mirrored across x1 = L and x2 = L
        assert np.abs(doubled[: n + 1, : n + 1] - inner).max() <= tol
        assert np.abs(doubled[n:, : n + 1] + inner[n:0:-1]).max() <= tol
        assert np.abs(doubled[: n + 1, n:] + inner[:, n:0:-1]).max() <= tol
        assert np.abs(doubled[n:, n:] - inner[n:0:-1, n:0:-1]).max() <= tol


class TestDirichletDynamics:
    def test_single_sine_mode_decays_exactly(self, dirichlet32):
        # For theta = sin(x1)sin(x2) the self-advection vanishes pointwise,
        # so the run must match the pure decay e^{-kappa mu^alpha t}.
        theta0 = sine_mode_field(dirichlet32, (1, 1))
        kappa, alpha = 0.2, 0.75
        params = SqgParams(kappa=kappa, alpha=alpha)
        config = StepperConfig(dt=0.01, t_end=0.5)
        result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        mu = dirichlet32.laplacian_symbol[0, 0]  # = 2 on the pi box
        want = np.exp(-kappa * mu**alpha * 0.5)
        got = result.final.theta.coeffs[0, 0] / theta0.coeffs[0, 0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_boundary_trace_stays_zero(self, dirichlet32):
        theta0 = random_smooth_field(dirichlet32, seed=19, amplitude=0.3)
        params = SqgParams(kappa=0.2, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.2)
        result = integrate(SimulationState(t=0.0, theta=theta0), params, config)
        values = to_physical(result.final.theta).values
        assert np.all(values[0, :] == 0.0)
        assert np.all(values[-1, :] == 0.0)
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[:, -1] == 0.0)

    def test_l2_non_increasing(self, dirichlet32):
        theta0 = random_smooth_field(dirichlet32, seed=20, amplitude=0.3)
        params = SqgParams(kappa=0.2, alpha=0.75)
        config = StepperConfig(dt=0.01, t_end=0.3)
        states = []
        integrate(SimulationState(t=0.0, theta=theta0), params, config, sample=states.append)
        norms = [sobolev_norm(s.theta, 0.0) for s in states]
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev * (1 + 1e-9)


class TestPicardReference:
    def test_zero_nonlinearity_is_pure_decay(self, torus32):
        theta0 = shear_field(torus32)  # N(theta0) = 0 for the shear datum
        params = SqgParams(kappa=0.3, alpha=0.75)
        final = picard_reference(
            SimulationState(t=0.0, theta=theta0), params, 0.2
        )
        want = np.exp(-0.3 * 0.2)
        got = sobolev_norm(final.theta, 0.0) / sobolev_norm(theta0, 0.0)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "domain, forcing",
        [
            (DomainSpec(n=32, box=2 * np.pi), None),
            (DomainSpec(n=32, box=2 * np.pi), lambda domain: cosine_field(domain, (1, 2))),
            (DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET), None),
            (
                DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET),
                lambda domain: sine_mode_field(domain, (1, 2)),
            ),
        ],
        ids=["torus32", "forced-torus32", "dirichlet32", "forced-dirichlet32"],
    )
    def test_cross_validates_etd2rk(self, domain, forcing):
        # on the box the reference's profile, homogeneous and source arrays
        # hold real sine coefficients, as the native kernel does
        theta0 = random_smooth_field(domain, seed=21, amplitude=0.2)
        params = SqgParams(
            kappa=0.1, alpha=0.75, forcing=None if forcing is None else forcing(domain)
        )
        state = SimulationState(t=0.0, theta=theta0)
        reference = picard_reference(state, params, 0.1, iterations=10, subintervals=64)
        result = integrate(state, params, StepperConfig(dt=0.01, t_end=0.1))
        err = sobolev_norm(result.final.theta - reference.theta, 0.0)
        assert err <= 1e-5 * sobolev_norm(theta0, 0.0)

    def test_parameter_validation(self, torus32):
        theta0 = shear_field(torus32)
        params = SqgParams(kappa=0.1, alpha=0.75)
        state = SimulationState(t=0.0, theta=theta0)
        with pytest.raises(ValueError, match="iterations"):
            picard_reference(state, params, 0.1, iterations=2)
        with pytest.raises(ValueError, match="subintervals"):
            picard_reference(state, params, 0.1, subintervals=3)
        with pytest.raises(ValueError, match="t_end"):
            picard_reference(state, params, -0.1)
