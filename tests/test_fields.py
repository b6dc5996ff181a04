"""Initial-condition builders: determinism, normalization, mean-freeness."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from sqglab.errors import BasisError, FieldError
from sqglab.fields import _finish, gaussian_bump_field, random_smooth_field, shear_field
from sqglab.spectral import (
    Basis,
    SpectralField,
    dealias,
    lq_norm,
    to_physical,
    to_spectral,
)


class TestRandomSmoothField:
    def test_deterministic_per_seed(self, torus32):
        a = random_smooth_field(torus32, seed=5)
        b = random_smooth_field(torus32, seed=5)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        c = random_smooth_field(torus32, seed=6)
        assert np.abs(a.coeffs - c.coeffs).max() > 0

    def test_amplitude_normalization(self, torus32):
        theta = random_smooth_field(torus32, seed=7, amplitude=0.05)
        assert lq_norm(theta, np.inf) == pytest.approx(0.05, rel=1e-12)

    def test_mean_free_on_torus(self, torus32):
        theta = random_smooth_field(torus32, seed=8)
        assert theta.coeffs[0, 0] == 0.0

    def test_dealiased(self, torus32):
        theta = random_smooth_field(torus32, seed=9)
        np.testing.assert_array_equal(dealias(theta).coeffs, theta.coeffs)

    def test_decay_controls_smoothness(self, torus64):
        rough = random_smooth_field(torus64, seed=10, decay=1.5)
        smooth = random_smooth_field(torus64, seed=10, decay=6.0)
        # same seed, same amplitude: the smoother field has far less
        # high-frequency energy
        def high_energy(theta):
            i1, i2 = torus64.index_grids
            high = np.maximum(np.abs(i1), np.abs(i2)) > 10
            return float(np.sum(np.abs(theta.coeffs[high]) ** 2))

        assert high_energy(smooth) < 0.01 * high_energy(rough)

    def test_dirichlet_variant(self, dirichlet32):
        theta = random_smooth_field(dirichlet32, seed=11)
        assert theta.coeffs.shape == (31, 31)
        assert lq_norm(theta, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_validation(self, torus32):
        with pytest.raises(ValueError, match="decay"):
            random_smooth_field(torus32, seed=0, decay=0.5)
        with pytest.raises(ValueError, match="amplitude"):
            random_smooth_field(torus32, seed=0, amplitude=-1.0)

    @pytest.mark.parametrize("key", ["decay", "amplitude"])
    def test_nan_names_its_key(self, torus32, key):
        with pytest.raises(FieldError) as info:
            random_smooth_field(torus32, seed=0, **{key: float("nan")})
        assert info.value.field == key

    @pytest.mark.parametrize(
        ("kwargs", "key"),
        [({"decay": 1e308}, "decay"), ({"amplitude": 1e308}, "amplitude")],
        ids=["zero-field", "overflow"],
    )
    def test_values_that_build_no_field_name_their_key(self, torus32, kwargs, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match=key) as info:
                random_smooth_field(torus32, seed=0, **kwargs)
        assert info.value.field == key


class TestShearField:
    def test_is_cosine_column(self, torus32):
        theta = shear_field(torus32)
        x1, _ = torus32.physical_coordinates
        np.testing.assert_allclose(to_physical(theta).values, np.cos(x1), atol=1e-13)

    def test_mode_and_amplitude(self, torus32):
        theta = shear_field(torus32, amplitude=0.25, mode=3)
        x1, _ = torus32.physical_coordinates
        np.testing.assert_allclose(
            to_physical(theta).values, 0.25 * np.cos(3 * x1), atol=1e-13
        )

    def test_torus_only(self, dirichlet32):
        with pytest.raises(BasisError):
            shear_field(dirichlet32)

    @pytest.mark.parametrize("mode", [16, 0, 1.5, 2.0, float("nan")])
    def test_mode_range(self, torus32, mode):
        with pytest.raises(FieldError, match="mode") as info:
            shear_field(torus32, mode=mode)
        assert info.value.field == "mode"

    def test_overflowing_amplitude_names_its_key(self, torus32):
        with pytest.raises(FieldError, match="amplitude") as info:
            shear_field(torus32, amplitude=1e308)
        assert info.value.field == "amplitude"


class TestGaussianBump:
    def test_normalized_and_mean_free(self, torus64):
        theta = gaussian_bump_field(torus64, width=0.5)
        assert theta.coeffs[0, 0] == 0.0
        assert lq_norm(theta, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_localized_at_center(self, torus64):
        theta = gaussian_bump_field(torus64, width=0.4)
        values = to_physical(theta).values
        center = np.unravel_index(np.argmax(values), values.shape)
        x1, x2 = torus64.physical_coordinates
        c = torus64.box / 2
        assert abs(x1[center] - c) <= torus64.box / torus64.n
        assert abs(x2[center] - c) <= torus64.box / torus64.n

    def test_width_cap(self, torus32):
        with pytest.raises(ValueError, match="width"):
            gaussian_bump_field(torus32, width=5.0)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"width": float("nan")}, "width"),
            ({"width": 0.0}, "width"),
            ({"width": float("inf")}, "width"),
            ({"width": 0.5, "amplitude": float("nan")}, "amplitude"),
        ],
    )
    def test_bad_values_name_their_key(self, torus32, kwargs, key):
        with pytest.raises(FieldError) as info:
            gaussian_bump_field(torus32, **kwargs)
        assert info.value.field == key

    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_underflowing_width_names_its_key(self, name, request):
        domain = request.getfixturevalue(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldError, match="width") as info:
                gaussian_bump_field(domain, width=1e-300)
        assert info.value.field == "width"

    def test_dirichlet_variant(self, dirichlet32):
        theta = gaussian_bump_field(dirichlet32, width=0.3)
        values = to_physical(theta).values
        assert np.all(values[0, :] == 0.0)
        assert np.all(values[:, -1] == 0.0)


class TestFinish:
    @pytest.mark.parametrize("name", ["torus32", "dirichlet32"])
    def test_equals_the_field_operations_and_keeps_a_read_only_input(self, name, request):
        # a field's read-only coefficients with every mode populated, as
        # gaussian_bump_field passes them: the steps run on a copy
        domain = request.getfixturevalue(name)
        noise = np.random.default_rng(3).standard_normal((domain.n, domain.n))
        if domain.basis is Basis.TORUS:
            coeffs = to_spectral(noise, domain).coeffs
        else:
            coeffs = SpectralField(noise[1:, 1:], domain).coeffs
        before = coeffs.copy()
        got = _finish(coeffs, domain, 2.0, "width", 0.1)
        assert np.array_equal(coeffs, before)
        want = dealias(SpectralField(before, domain)).coeffs.copy()
        if domain.basis is Basis.TORUS:
            want[0, 0] = 0.0
        peak = np.abs(to_physical(SpectralField(want.copy(), domain)).values).max()
        assert np.array_equal(got.coeffs, want * (2.0 / peak))
