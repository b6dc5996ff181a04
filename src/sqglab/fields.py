"""Reusable initial conditions for simulations and convergence studies."""

from __future__ import annotations

import numpy as np

from .errors import BasisError, FieldError, NonFiniteError
from .spectral import (
    Basis,
    DomainSpec,
    SpectralField,
    _cut_beyond,
    cosine_field,
    to_physical,
    to_spectral,
)

__all__ = [
    "random_smooth_field",
    "shear_field",
    "gaussian_bump_field",
]


def _finish(
    coeffs: np.ndarray, domain: DomainSpec, amplitude: float, key: str, value: float
) -> SpectralField:
    """Dealias ``coeffs``, zero the torus mean and scale the grid maximum to ``amplitude``.

    ``key = value`` is the argument that shaped ``coeffs``.  The mode cut
    and the mean run in place on ``coeffs`` when it is writeable, an array
    the caller hands over, and on a copy when it is read-only (a field's);
    the scaled coefficients are the one new array.  Raises
    :class:`FieldError` naming ``key`` when that leaves the zero field, and
    naming ``amplitude`` when the scaled coefficients overflow.
    """
    if not coeffs.flags.writeable:
        coeffs = coeffs.copy()
    _cut_beyond(coeffs, domain)
    if domain.basis is Basis.TORUS:
        coeffs[0, 0] = 0.0
    field = SpectralField(coeffs, domain)
    values = to_physical(field).values
    peak = float(max(values.max(), -values.min()))
    if peak == 0.0:
        raise FieldError(key, f"{key} = {value!r} leaves the zero field, which has no amplitude")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = field.coeffs * (amplitude / peak)
    try:
        return SpectralField(coeffs, domain)
    except NonFiniteError:
        raise FieldError(
            "amplitude",
            f"amplitude = {amplitude!r} overflows: the field peaks at {peak:.3g} before scaling",
        ) from None


def random_smooth_field(
    domain: DomainSpec,
    seed: int,
    *,
    decay: float = 4.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Seeded random field with power-law spectral decay.

    White noise is drawn on the grid, shaped so coefficient magnitudes
    fall off like ``(1 + |k|)**(-decay)`` in the integer mode index,
    dealiased, mean-zeroed (torus), and rescaled to the requested maximum
    amplitude.  The same seed always reproduces the same field.

    Parameters
    ----------
    domain:
        Target grid; both bases are supported.
    seed:
        Seed for the random number generator.
    decay:
        Spectral decay exponent; larger values give smoother fields.
    amplitude:
        Resulting grid maximum of ``|theta|``.
    """
    if not decay > 1.0:
        raise FieldError("decay", f"decay must exceed 1 for a smooth field, got {decay!r}")
    if not amplitude > 0:
        raise FieldError("amplitude", f"amplitude must be positive, got {amplitude!r}")
    rng = np.random.default_rng(seed)
    n = domain.n
    i1, i2 = domain.index_grids
    profile = np.hypot(i1, i2)
    profile += 1.0
    profile **= -decay
    if domain.basis is Basis.TORUS:
        coeffs = to_spectral(rng.standard_normal((n, n)), domain).coeffs * profile
    else:
        coeffs = rng.standard_normal((n - 1, n - 1))
        coeffs *= profile
    return _finish(coeffs, domain, amplitude, "decay", decay)


def shear_field(
    domain: DomainSpec, *, amplitude: float = 1.0, mode: int = 1
) -> SpectralField:
    """Unidirectional profile ``amplitude * cos(2*pi*mode*x1 / L)``.

    The induced velocity is a shear aligned with the level sets, so the
    transport term vanishes identically and the evolution reduces to pure
    exponential decay of the single mode — the standard exactness probe
    for the time stepper.
    """
    if domain.basis is not Basis.TORUS:
        raise BasisError("shear_field is a torus construction")
    if not isinstance(mode, (int, np.integer)) or not 1 <= mode < domain.n // 2:
        raise FieldError("mode", f"mode must be an integer in [1, n/2), got {mode!r}")
    if not np.isfinite(amplitude * domain.box):
        raise FieldError(
            "amplitude", f"amplitude = {amplitude!r} overflows the coefficient amplitude*L/2"
        )
    return cosine_field(domain, (mode, 0), amplitude)


def gaussian_bump_field(
    domain: DomainSpec,
    *,
    width: float,
    amplitude: float = 1.0,
) -> SpectralField:
    """Localized bump ``exp(-r^2 / (2 width^2))`` centered in the box.

    The bump is sampled on the grid, transformed, dealiased, mean-zeroed
    on the torus, and rescaled so the grid maximum equals ``amplitude``.
    Choose ``width`` well below ``box / 6`` when probing spatial decay so
    the initial tail beyond the cutoff is negligible.
    """
    if not width > 0:
        raise FieldError("width", f"width must be positive, got {width!r}")
    if not amplitude > 0:
        raise FieldError("amplitude", f"amplitude must be positive, got {amplitude!r}")
    if width > domain.box / 4:
        raise FieldError(
            "width",
            f"width {width!r} is too large for box {domain.box!r}; the bump "
            "must be localized well inside the box"
        )
    spread = 2.0 * width**2
    if spread == 0.0:
        # exp(-r^2 / 0) is 0/0 at the center: the bump has no grid values
        raise FieldError("width", f"width = {width!r} is too small: its square underflows to 0")
    x1, x2 = domain.physical_coordinates
    center = domain.box / 2.0
    r2 = (x1 - center) ** 2 + (x2 - center) ** 2
    with np.errstate(over="ignore"):  # a subnormal spread: exp(-inf) is 0 off the center
        values = np.exp(-r2 / spread)
    return _finish(to_spectral(values, domain).coeffs, domain, amplitude, "width", width)
