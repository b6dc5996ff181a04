"""Transforms, multipliers, and norms on both bases."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import inner_product
from oracles import log_sobolev_norm

from sqglab.dynamics import _block_weights, _plan
from sqglab.errors import BasisError, FieldError, NonFiniteError, ZeroModeError
from sqglab.estimates import _sample_pass
from sqglab.fields import random_smooth_field
from sqglab.spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
    cosine_field,
    dealias,
    fractional_laplacian,
    from_modes,
    grid_lp_norm,
    lq_norm,
    riesz_transform,
    sine_mode_field,
    sobolev_norm,
    to_physical,
    to_spectral,
    _dealiased,
    _real_spectrum,
    _sobolev_weights,
    velocity_from_theta,
)


# ----------------------------------------------------------------------------
# domain validation
# ----------------------------------------------------------------------------


class TestDomainSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DomainSpec(n=100, box=1.0, basis=Basis.TORUS)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="power of two"):
            DomainSpec(n=8, box=1.0, basis=Basis.TORUS)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("box", [0.0, np.inf, 5e-324, 1e-160, 1e160, 1e300])
    def test_rejects_bad_box(self, basis, box):
        # past about 1e-153 or 1e154 a Laplacian eigenvalue overflows or goes subnormal
        with pytest.raises(FieldError, match="box"):
            DomainSpec(n=32, box=box, basis=basis)

    def test_laplacian_symbol_scaling(self):
        torus = DomainSpec(n=32, box=2 * np.pi, basis=Basis.TORUS)
        assert torus.laplacian_symbol.min() == 0.0
        sym = torus.laplacian_symbol
        assert sym[0, 1] == pytest.approx(1.0)  # |k| = 1 on the 2*pi box
        diri = DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET)
        assert diri.laplacian_symbol[0, 0] == pytest.approx(2.0)  # (1^2+1^2)*(pi/L)^2


# ----------------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------------


class TestTransforms:
    def test_zero_round_trip_torus(self, torus32):
        zero = SpectralField(np.zeros((32, 32), dtype=complex), torus32)
        assert np.all(to_spectral(to_physical(zero)).coeffs == 0.0)

    def test_single_mode_synthesizes_cosine(self, torus32):
        field = cosine_field(torus32, (1, 0))
        x1, _ = torus32.physical_coordinates
        np.testing.assert_allclose(
            to_physical(field).values, np.cos(x1), atol=1e-13
        )

    def test_random_round_trip_torus(self, torus32):
        theta = random_smooth_field(torus32, seed=1)
        back = to_spectral(to_physical(theta))
        err = np.abs(back.coeffs - theta.coeffs).max()
        assert err <= 1e-12 * np.abs(theta.coeffs).max()

    def test_random_round_trip_dirichlet(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=2)
        back = to_spectral(to_physical(theta))
        err = np.abs(back.coeffs - theta.coeffs).max()
        assert err <= 1e-12 * np.abs(theta.coeffs).max()

    def test_physical_array_shape_mismatch(self, torus32):
        with pytest.raises(ValueError, match="shape"):
            PhysicalField(values=np.zeros((16, 16)), domain=torus32)

    def test_dirichlet_boundary_is_exactly_zero(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=3)
        values = to_physical(theta).values
        assert values.shape == (33, 33)
        assert np.all(values[0, :] == 0.0)
        assert np.all(values[-1, :] == 0.0)
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[:, -1] == 0.0)

    def test_parseval_both_bases(self, torus32, dirichlet32):
        for domain, seed in ((torus32, 4), (dirichlet32, 5)):
            theta = random_smooth_field(domain, seed=seed)
            physical = grid_lp_norm(to_physical(theta), 2.0)
            spectral = sobolev_norm(theta, 0.0)
            assert physical == pytest.approx(spectral, rel=1e-10)


# ----------------------------------------------------------------------------
# multipliers
# ----------------------------------------------------------------------------


class TestFractionalLaplacian:
    def test_single_mode_half_power(self, torus64):
        field = from_modes(torus64, {(3, 4): 0.5, (-3, -4): 0.5})  # |k| = 5
        out = fractional_laplacian(field, 0.5)
        np.testing.assert_allclose(out.coeffs, 5.0 * field.coeffs, atol=1e-14)

    def test_alpha_one_is_laplacian(self, torus32):
        theta = random_smooth_field(torus32, seed=6)
        out = fractional_laplacian(theta, 1.0)
        np.testing.assert_allclose(
            out.coeffs, theta.coeffs * torus32.laplacian_symbol, atol=1e-14
        )

    def test_annihilates_constants(self, torus32):
        coeffs = np.zeros((32, 32), dtype=complex)
        coeffs[0, 0] = 3.0  # constant component
        const = SpectralField(coeffs, torus32)
        for alpha in (0.3, 0.5, 1.0):
            assert np.all(fractional_laplacian(const, alpha).coeffs == 0.0)

    def test_composition_adds_exponents(self, torus32):
        theta = random_smooth_field(torus32, seed=7)
        a1, a2 = 0.3, 0.45
        twice = fractional_laplacian(fractional_laplacian(theta, a1), a2)
        combined = (
            theta.coeffs
            * np.where(
                torus32.laplacian_symbol > 0, torus32.laplacian_symbol, 0.0
            ) ** (a1 + a2)
        )
        np.testing.assert_allclose(twice.coeffs, combined, atol=1e-13)

    def test_inverse_round_trip(self, torus32):
        theta = random_smooth_field(torus32, seed=8)
        back = fractional_laplacian(
            fractional_laplacian(theta, 0.6), 0.6, inverse=True
        )
        np.testing.assert_allclose(back.coeffs, theta.coeffs, atol=1e-12)

    def test_inverse_requires_mean_free(self, torus32):
        coeffs = np.zeros((32, 32), dtype=complex)
        coeffs[0, 0] = 1.0
        with pytest.raises(ZeroModeError, match="non-invertible zero mode"):
            fractional_laplacian(SpectralField(coeffs, torus32), 0.5, inverse=True)

    def test_alpha_range(self, torus32):
        theta = random_smooth_field(torus32, seed=9)
        with pytest.raises(ValueError, match="alpha"):
            fractional_laplacian(theta, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            fractional_laplacian(theta, 1.5)


class TestRieszTransform:
    def test_multiplier_value(self, torus32):
        field = from_modes(torus32, {(1, 0): 1.0, (-1, 0): 1.0})
        out = riesz_transform(field, 1)
        # coefficient at k=(1,0) must be -i
        want = from_modes(torus32, {(1, 0): -1.0j, (-1, 0): 1.0j})
        np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-14)

    def test_zero_when_component_vanishes(self, torus32):
        field = from_modes(torus32, {(0, 3): 1.0, (0, -3): 1.0})
        assert np.all(riesz_transform(field, 1).coeffs == 0.0)

    def test_isometry_on_mean_free(self, torus32):
        theta = random_smooth_field(torus32, seed=10)
        for j in (1, 2):
            rj = sobolev_norm(riesz_transform(theta, j), 0.0)
            assert rj <= sobolev_norm(theta, 0.0) * (1 + 1e-12)
        # the two components together restore the full norm: R1^2 + R2^2 = -I
        total = (
            sobolev_norm(riesz_transform(theta, 1), 0.0) ** 2
            + sobolev_norm(riesz_transform(theta, 2), 0.0) ** 2
        )
        assert total == pytest.approx(sobolev_norm(theta, 0.0) ** 2, rel=1e-10)

    def test_riesz_squares_sum_to_minus_identity(self, torus32):
        theta = random_smooth_field(torus32, seed=11)
        r1r1 = riesz_transform(riesz_transform(theta, 1), 1)
        r2r2 = riesz_transform(riesz_transform(theta, 2), 2)
        np.testing.assert_allclose(
            r1r1.coeffs + r2r2.coeffs, -theta.coeffs, atol=1e-14
        )

    def test_commutes_with_fractional_laplacian(self, torus32):
        theta = random_smooth_field(torus32, seed=12)
        lhs = fractional_laplacian(riesz_transform(theta, 1), 0.7)
        rhs = riesz_transform(fractional_laplacian(theta, 0.7), 1)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)

    def test_dirichlet_rejected(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=13)
        with pytest.raises(BasisError, match="torus only"):
            riesz_transform(theta, 1)

    def test_bad_component(self, torus32):
        theta = random_smooth_field(torus32, seed=14)
        with pytest.raises(ValueError, match="component"):
            riesz_transform(theta, 3)


class TestVelocity:
    def test_single_mode_components(self, torus32):
        theta = from_modes(torus32, {(1, 0): 1.0, (-1, 0): 1.0})
        u1, u2 = velocity_from_theta(theta)
        assert np.all(u1.coeffs == 0.0)
        want = from_modes(torus32, {(1, 0): -1.0j, (-1, 0): 1.0j})
        np.testing.assert_allclose(u2.coeffs, want.coeffs, atol=1e-14)

    def test_shear_closed_form(self, torus32):
        theta = cosine_field(torus32, (1, 0))  # cos(x1)
        u1, u2 = velocity_from_theta(theta)
        x1, _ = torus32.physical_coordinates
        np.testing.assert_allclose(to_physical(u1).values, 0.0, atol=1e-13)
        np.testing.assert_allclose(to_physical(u2).values, np.sin(x1), atol=1e-13)

    def test_divergence_free_per_mode(self, torus32):
        theta = random_smooth_field(torus32, seed=15)
        u1, u2 = velocity_from_theta(theta)
        i1, i2 = torus32.index_grids
        divergence = i1 * u1.coeffs + i2 * u2.coeffs
        assert np.abs(divergence).max() <= 1e-14

    def test_dirichlet_rejected(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=16)
        with pytest.raises(BasisError):
            velocity_from_theta(theta)


# ----------------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------------


class TestNorms:
    def test_sobolev_single_mode(self, torus64):
        field = from_modes(torus64, {(2, 0): 1.0, (-2, 0): 1.0})
        # orthonormal basis: the field has unit L2 norm split over two modes
        norm = sobolev_norm(field, -0.5)
        assert norm == pytest.approx(
            sobolev_norm(field, 0.0) * 2 ** (-0.5), rel=1e-12
        )

    def test_sobolev_zero_is_l2(self, torus32):
        theta = random_smooth_field(torus32, seed=17)
        assert sobolev_norm(theta, 0.0) == pytest.approx(
            lq_norm(theta, 2.0), rel=1e-10
        )

    def test_negative_order_needs_mean_free(self, torus32):
        coeffs = np.zeros((32, 32), dtype=complex)
        coeffs[0, 0] = 1.0
        with pytest.raises(ZeroModeError, match="mean-free"):
            sobolev_norm(SpectralField(coeffs, torus32), -0.5)

    def test_interpolation_between_orders(self, torus32):
        theta = random_smooth_field(torus32, seed=18)
        for eps in (0.1, 0.25, 0.4):
            lhs = sobolev_norm(theta, -eps)
            rhs = sobolev_norm(theta, -0.5) ** (2 * eps) * sobolev_norm(
                theta, 0.0
            ) ** (1 - 2 * eps)
            assert lhs <= rhs * (1 + 1e-12)

    def test_lq_constant_field(self, torus32):
        const = PhysicalField(np.full((32, 32), 2.5), torus32)
        assert grid_lp_norm(const, 2.0) == pytest.approx(2.5 * 2 * np.pi, rel=1e-13)

    def test_lq_max_norm(self, torus32):
        theta = cosine_field(torus32, (1, 0))
        assert lq_norm(theta, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_lq_hoelder_consistency(self, torus32):
        theta = random_smooth_field(torus32, seed=19)
        l2 = lq_norm(theta, 2.0)
        l4 = lq_norm(theta, 4.0)
        assert l2 <= l4 * np.sqrt(2 * np.pi * 2 * np.pi) ** 0.5 * (1 + 1e-12)

    @pytest.mark.parametrize(
        "norm, order, message",
        [
            (lq_norm, 1.5, "q must be >= 2"),
            (lq_norm, math.nan, "q must be >= 2"),
            (grid_lp_norm, math.nan, "p must be > 1"),
            (grid_lp_norm, -1.0, "p must be > 1"),
            (grid_lp_norm, 0.5, "p must be > 1"),
            (grid_lp_norm, 1.0, "p must be > 1"),
            (sobolev_norm, math.nan, "Sobolev order must be a number"),
        ],
    )
    def test_lq_rejects_small_exponent(self, torus32, norm, order, message):
        theta = random_smooth_field(torus32, seed=20)
        with pytest.raises(ValueError, match=message):
            norm(theta, order)

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    @pytest.mark.parametrize(
        ("coeff_scale", "grid_scale"),
        [
            # |c|^2 and |theta|^8 overflow while both norms are finite
            pytest.param(1e200, 1e200, id="overflow"),
            # |c|^2 and |theta|^8 underflow to 0 while both norms are normal
            pytest.param(1e-170, 1e-150, id="underflow"),
        ],
    )
    def test_norms_whose_powers_leave_the_float_range(
        self, name, coeff_scale, grid_scale, request
    ):
        domain = request.getfixturevalue(name)
        theta = random_smooth_field(domain, seed=22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (0.0, 1.0, 1.5, -0.5):
                assert sobolev_norm(theta * coeff_scale, s) == pytest.approx(
                    coeff_scale * sobolev_norm(theta, s), rel=1e-13, abs=0.0
                )
            for q in (2.0, 8.0):
                assert lq_norm(theta * grid_scale, q) == pytest.approx(
                    grid_scale * lq_norm(theta, q), rel=1e-13, abs=0.0
                )

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_subnormal_fields_keep_their_norms(self, name, request):
        # for a subnormal peak the factor 2^-e itself overflows, so the
        # scaling must not form it
        domain = request.getfixturevalue(name)
        theta = random_smooth_field(domain, seed=24)
        scale = 2.0**-1030  # the values keep about 40 of their bits
        tiny = theta * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0 < lq_norm(tiny, np.inf) < np.finfo(float).tiny
            for q in (2.0, 8.0):
                assert lq_norm(tiny, q) == pytest.approx(
                    scale * lq_norm(theta, q), rel=1e-9, abs=0.0
                )
            assert sobolev_norm(tiny, 1.0) == pytest.approx(
                scale * sobolev_norm(theta, 1.0), rel=1e-9, abs=0.0
            )

    @pytest.mark.parametrize(
        ("name", "mode", "norm", "s"),
        [
            # the pair (1, 0), (-1, 0) of weight |k|^800 = 1
            pytest.param("torus32", {(1, 0): 1.0, (-1, 0): 1.0}, np.sqrt(2.0), 400.0, id="torus"),
            # sine mode (1, 1) of weight 2^400 on the box of side pi
            pytest.param("dirichlet32", {(1, 1): 1.0}, 2.0**200, 400.0, id="dirichlet"),
            # the log2 of |k|^(2s) is 1e308 at |k|^2 = 2 and inf from 4 on,
            # not inf - inf = nan where the field is zero
            pytest.param(
                "torus32", {(1, 1): 1.0, (-1, -1): 1.0}, np.inf, 1e308, id="torus-log2-overflows"
            ),
        ],
    )
    def test_overflowing_weights_count_zero_modes_as_zero(self, name, mode, norm, s, request):
        # |k|^(2s) passes the largest float on the outer modes: where the
        # field is zero they count 0, not inf * 0 = nan; elsewhere inf
        domain = request.getfixturevalue(name)
        theta = random_smooth_field(domain, seed=25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sobolev_norm(from_modes(domain, mode), s) == norm
            assert sobolev_norm(dealias(theta), s) == np.inf

    def test_overflowing_weights_sum_in_log_space_where_the_norm_fits(self):
        # weights up to 512^400 ~ 1e1084 pass the largest float, but the
        # coefficients' 1e-300 brings the norm back to about 1.8e157
        theta = random_smooth_field(DomainSpec(n=32), 0) * 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = sobolev_norm(theta, 400.0)
        assert norm == pytest.approx(math.exp(log_sobolev_norm(theta, 400.0)), rel=1e-12)
        assert norm == pytest.approx(1.806e157, rel=1e-3)

    @pytest.mark.parametrize(
        ("basis", "low"),
        [
            # on the 2pi torus, whose smallest |k| is 1: the |k| = 1 modes
            (Basis.TORUS, 2.668327),
            # the 2pi box has |k|^2 = (k1^2 + k2^2) / 4, which is 1/2 at (1, 1)
            (Basis.DIRICHLET, np.inf),
        ],
    )
    def test_infinite_orders_take_their_limit_without_warning(self, basis, low):
        # s = inf weighs every |k| > 1 infinitely, s = -inf every |k| < 1,
        # and neither may meet s log2(1) = nan; with the weights not yet
        # cached, every table is built under the error filter
        domain = DomainSpec(n=16, basis=basis)
        theta = dealias(random_smooth_field(domain, 0))
        _sobolev_weights.cache_clear()
        _block_weights.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = [sobolev_norm(theta, s) for s in (np.inf, -np.inf)]
            run = _sample_pass(domain, (), (np.inf, -np.inf))(theta)[3]
        assert norms == [np.inf, pytest.approx(low, rel=1e-6)]
        assert run == pytest.approx(norms, rel=1e-15)
        if basis is Basis.TORUS:
            unit = SpectralField(theta.coeffs * (domain.laplacian_symbol == 1.0), domain)
            assert norms[1] == sobolev_norm(unit, 0.0)

    @settings(max_examples=30)
    @given(
        basis=st.sampled_from(list(Basis)),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-600, 600),
        s=st.sampled_from([0.0, 0.5, 1.5, -0.5]),
        q=st.sampled_from([2.0, 2.5, 4.0, 8.0, np.inf]),
    )
    def test_power_of_two_factors_scale_norms_exactly(self, basis, seed, k, s, q):
        # every value of 2^k theta stays normal, so the kernels see the same
        # scaled arrays and only the exponent moves
        domain = DomainSpec(n=16, box=np.pi, basis=basis)
        theta = random_smooth_field(domain, seed, amplitude=1.0)
        scaled = theta * 2.0**k
        assert sobolev_norm(scaled, s) == 2.0**k * sobolev_norm(theta, s)
        assert lq_norm(scaled, q) == 2.0**k * lq_norm(theta, q)

    def test_norms_that_fit_keep_their_rounding(self, torus32):
        # the kernels' formulas: the grid divided by its maximum, the
        # coefficients scaled by a power of two, one square, then an einsum
        # dot product per order (not BLAS), scaled back
        theta = random_smooth_field(torus32, seed=23)
        values = to_physical(theta).values
        cell = (torus32.box / torus32.n) ** 2
        peak = np.abs(values).max()
        a2 = np.square(values / peak).ravel()
        total = float(np.einsum("i,i->", np.power(a2, 3.0), a2))
        assert lq_norm(theta, 8.0) == peak * (cell * total) ** 0.125
        parts = theta.coeffs.reshape(-1).view(np.float64)
        e = math.frexp(np.abs(parts).max())[1]
        squares = np.square(parts * 2.0**-e)
        mag2 = squares[0::2] + squares[1::2]
        weights = torus32.laplacian_symbol.ravel().copy()
        weights[0] = 1.0  # the zero mode, counted at s >= 0
        total = float(np.einsum("i,i->", mag2, weights))
        assert sobolev_norm(theta, 1.0) == math.ldexp(math.sqrt(total), e)

    def test_inner_product_matches_norm(self, torus32):
        theta = random_smooth_field(torus32, seed=21)
        assert inner_product(theta, theta) == pytest.approx(
            sobolev_norm(theta, 0.0) ** 2, rel=1e-12
        )


# ----------------------------------------------------------------------------
# dealiasing
# ----------------------------------------------------------------------------


class TestDealias:
    def test_low_modes_unchanged(self, torus32):
        field = from_modes(torus32, {(3, 3): 1.0, (-3, -3): 1.0})
        np.testing.assert_array_equal(dealias(field).coeffs, field.coeffs)

    def test_high_modes_removed(self, torus32):
        field = from_modes(torus32, {(12, 0): 1.0, (-12, 0): 1.0})
        assert np.all(dealias(field).coeffs == 0.0)

    def test_idempotent(self, torus32):
        theta = random_smooth_field(torus32, seed=22)
        noisy = SpectralField(
            theta.coeffs + 1e-3 * np.roll(theta.coeffs, 11, axis=0), torus32
        )
        once = dealias(noisy)
        np.testing.assert_array_equal(dealias(once).coeffs, once.coeffs)


# ----------------------------------------------------------------------------
# mode constructors
# ----------------------------------------------------------------------------


class TestModeConstructors:
    def test_from_modes_requires_conjugate_symmetry(self, torus32):
        with pytest.raises(ValueError, match="conjugate"):
            from_modes(torus32, {(1, 0): 1.0})

    @pytest.mark.parametrize("size", [1.0, 1e200], ids=["unit", "norm-overflows"])
    def test_from_modes_rejects_an_antisymmetric_pair(self, size):
        # at 1e200 both norms of the table overflow; they are taken on the
        # table scaled by its largest part
        with pytest.raises(ValueError, match="conjugate"):
            from_modes(DomainSpec(n=16), {(1, 0): size, (-1, 0): -size})

    def test_from_modes_accepts_a_symmetric_pair_whose_norm_overflows(self):
        field = from_modes(DomainSpec(n=16), {(1, 0): 1e200, (-1, 0): 1e200})
        assert field.coeffs[1, 0] == field.coeffs[-1, 0] == 1e200

    def test_from_modes_range_check(self, torus32):
        with pytest.raises(ValueError, match="outside"):
            from_modes(torus32, {(40, 0): 1.0, (-40, 0): 1.0})

    def test_sine_mode_is_product_of_sines(self, dirichlet32):
        field = sine_mode_field(dirichlet32, (2, 3))
        x1, x2 = dirichlet32.physical_coordinates
        np.testing.assert_allclose(
            to_physical(field).values, np.sin(2 * x1) * np.sin(3 * x2), atol=1e-13
        )

    def test_cosine_field_needs_torus(self, dirichlet32):
        with pytest.raises(BasisError):
            cosine_field(dirichlet32, (1, 0))

    def test_sine_field_needs_dirichlet(self, torus32):
        with pytest.raises(BasisError):
            sine_mode_field(torus32, (1, 1))

    def test_non_finite_coefficients_rejected(self, torus32):
        coeffs = np.zeros((32, 32), dtype=complex)
        coeffs[1, 1] = np.nan
        with pytest.raises(NonFiniteError, match="finite"):
            SpectralField(coeffs, torus32)


# ----------------------------------------------------------------------------
# property tests: random fields on both bases
# ----------------------------------------------------------------------------

_DOMAINS = [
    DomainSpec(n=n, box=box, basis=basis)
    for basis, box in ((Basis.TORUS, 2 * np.pi), (Basis.DIRICHLET, np.pi))
    for n in (16, 32, 64)
]
_domains = st.sampled_from(_DOMAINS)
_seeds = st.integers(0, 2**32 - 1)
_amplitudes = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)


def _random_field(domain, seed, amplitude, full_spectrum):
    """A smooth field, or a real field with every mode populated."""
    if not full_spectrum:
        return random_smooth_field(domain, seed, amplitude=amplitude)
    rng = np.random.default_rng(seed)
    if domain.basis is Basis.TORUS:
        return to_spectral(amplitude * rng.standard_normal((domain.n, domain.n)), domain)
    return SpectralField(amplitude * rng.standard_normal(domain.spectral_shape), domain)


class TestTransformProperties:
    @settings(max_examples=40)
    @given(domain=_domains, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_parseval(self, domain, seed, amplitude, full_spectrum):
        theta = _random_field(domain, seed, amplitude, full_spectrum)
        assert sobolev_norm(theta, 0.0) == pytest.approx(
            lq_norm(to_physical(theta), 2.0), rel=1e-13
        )

    @settings(max_examples=40)
    @given(domain=_domains, seed=_seeds, amplitude=_amplitudes, full_spectrum=st.booleans())
    def test_round_trip(self, domain, seed, amplitude, full_spectrum):
        theta = _random_field(domain, seed, amplitude, full_spectrum)
        back = to_spectral(to_physical(theta))
        assert np.abs(back.coeffs - theta.coeffs).max() <= 1e-13 * np.abs(theta.coeffs).max()

    @settings(max_examples=40)
    @given(
        domain=st.sampled_from([d for d in _DOMAINS if d.basis is Basis.TORUS]),
        seed=_seeds,
        amplitude=_amplitudes,
        full_spectrum=st.booleans(),
    )
    def test_riesz_isometry_on_mean_free_fields(self, domain, seed, amplitude, full_spectrum):
        # the odd symbols vanish on the Nyquist line, so it is left empty here
        coeffs = _random_field(domain, seed, amplitude, full_spectrum).coeffs.copy()
        nyq = domain.n // 2
        coeffs[0, 0] = coeffs[nyq, :] = coeffs[:, nyq] = 0.0
        theta = SpectralField(coeffs, domain)
        norm = sobolev_norm(theta, 0.0)
        parts = [sobolev_norm(riesz_transform(theta, j), 0.0) for j in (1, 2)]
        assert max(parts) <= norm * (1 + 1e-13)
        assert np.hypot(*parts) == pytest.approx(norm, rel=1e-13)


_TORI = [d for d in _DOMAINS if d.basis is Basis.TORUS]


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestTorusTransformProperties:
    """The numpy-backed torus transforms against scipy.fft and the transport plan."""

    @settings(max_examples=40)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), seed=_seeds, amplitude=_amplitudes)
    def test_real_spectrum_is_an_exactly_hermitian_fft2(self, rows, cols, seed, amplitude):
        # any grid size, odd ones included; DomainSpec admits powers of two only
        import scipy.fft

        values = amplitude * np.random.default_rng(seed).standard_normal((rows, cols))
        spectrum = _real_spectrum(values)
        assert spectrum.shape == (rows, cols)
        # the columns past the half plane are exact conjugates; columns 0
        # and n/2 come from a complex axis-0 pass and are Hermitian to round-off
        mirror = np.conj(spectrum[-np.arange(rows) % rows][:, -np.arange(cols) % cols])
        assert np.array_equal(spectrum[:, cols // 2 + 1 :], mirror[:, cols // 2 + 1 :])
        assert _relative_gap(spectrum, scipy.fft.fft2(values)) <= 1e-14

    @settings(max_examples=40)
    @given(domain=st.sampled_from(_TORI), seed=_seeds, amplitude=_amplitudes)
    def test_to_spectral_mirror_is_exact(self, domain, seed, amplitude):
        import scipy.fft

        n = domain.n
        values = amplitude * np.random.default_rng(seed).standard_normal((n, n))
        coeffs = to_spectral(values, domain).coeffs
        assert _plan(domain).is_real(coeffs)
        mirror = np.conj(coeffs[-np.arange(n) % n, n // 2 - 1 : 0 : -1])
        assert np.array_equal(coeffs[:, n // 2 + 1 :], mirror)
        want = scipy.fft.fft2(values) * (domain.box / (n * n))
        assert _relative_gap(coeffs, want) <= 1e-14

    @settings(max_examples=40)
    @given(domain=st.sampled_from(_TORI), seed=_seeds, amplitude=_amplitudes)
    def test_grid_round_trip(self, domain, seed, amplitude):
        values = amplitude * np.random.default_rng(seed).standard_normal((domain.n, domain.n))
        back = to_physical(to_spectral(values, domain)).values
        assert _relative_gap(back, values) <= 1e-14

    @settings(max_examples=40)
    @given(domain=st.sampled_from(_TORI), seed=_seeds, amplitude=_amplitudes, smooth=st.booleans())
    def test_plan_synthesis_matches_to_physical(self, domain, seed, amplitude, smooth):
        theta = dealias(_random_field(domain, seed, amplitude, not smooth))
        plan = _plan(domain)
        assert _dealiased(theta.coeffs, domain)
        got = plan.theta(theta.coeffs, plan.scratch())
        assert _relative_gap(got, to_physical(theta).values) <= 1e-14


_BOXES = [DomainSpec(n=n, box=np.pi, basis=Basis.DIRICHLET) for n in (16, 32, 64, 128, 256)]


class TestBoxTransformProperties:
    """The numpy-backed box transforms against scipy.fft's orthonormal type-1 sine transform."""

    @settings(max_examples=40)
    @given(domain=st.sampled_from(_BOXES), seed=_seeds, amplitude=_amplitudes)
    def test_to_physical_is_scipy_dstn(self, domain, seed, amplitude):
        import scipy.fft

        n = domain.n
        coeffs = amplitude * np.random.default_rng(seed).standard_normal(domain.spectral_shape)
        values = to_physical(SpectralField(coeffs, domain)).values
        want = scipy.fft.dstn(coeffs * (n / domain.box), type=1, norm="ortho")
        assert np.array_equal(values[1:-1, 1:-1], want)
        assert not (values[[0, -1]].any() or values[:, [0, -1]].any())

    @settings(max_examples=40)
    @given(domain=st.sampled_from(_BOXES), seed=_seeds, amplitude=_amplitudes)
    def test_to_spectral_is_scipy_dstn(self, domain, seed, amplitude):
        import scipy.fft

        n = domain.n
        values = amplitude * np.random.default_rng(seed).standard_normal((n - 1, n - 1))
        want = scipy.fft.dstn(values, type=1, norm="ortho") * (domain.box / n)
        assert np.array_equal(to_spectral(values, domain).coeffs, want)
