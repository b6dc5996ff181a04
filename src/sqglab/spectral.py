"""Spectral fields and Fourier-side operators on periodic and Dirichlet boxes.

Two discretizations of the square box [0, L]² are supported:

* ``Basis.TORUS`` — periodic boundary conditions, complex exponential modes
  with integer wave vector k ∈ [-n/2, n/2)², physical wavenumber 2πk/L.
* ``Basis.DIRICHLET`` — homogeneous Dirichlet boundary conditions, sine modes
  sin(πk₁x₁/L)·sin(πk₂x₂/L) with k₁, k₂ ≥ 1 (the spectral realization of the
  Dirichlet Laplacian; fractional powers act on its eigenvalues).

Normalization convention (fixed here once, everything else follows):
coefficients are taken against *orthonormal* L²(box) bases,

    torus:      e_k(x) = L^{-1} · exp(i·2πk·x/L)
    Dirichlet:  s_k(x) = (2/L) · sin(πk₁x₁/L) sin(πk₂x₂/L)

so that Parseval holds exactly: Σ|θ̂(k)|² = ∫|θ|²dx, i.e.
``sobolev_norm(θ, 0) == lq_norm(to_physical(θ), 2)`` up to round-off.
Under this convention a unit coefficient on the conjugate pair ±(1,0) gives
the physical field (2/L)·cos(2πx₁/L).

Fields are immutable: coefficient arrays are frozen at construction and all
operators return new fields.  Construction rejects non-finite coefficients,
so a non-finite value never enters a field from outside the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import BasisError, FieldError, ZeroModeError

__all__ = [
    "Basis",
    "DomainSpec",
    "SpectralField",
    "PhysicalField",
    "to_physical",
    "to_spectral",
    "fractional_laplacian",
    "riesz_transform",
    "velocity_from_theta",
    "sobolev_norm",
    "lq_norm",
    "grid_lp_norm",
    "dealias",
    "from_modes",
    "cosine_field",
    "sine_mode_field",
    "inner_product",
]


class Basis(str, Enum):
    """Boundary-condition / mode family of a computational box."""

    TORUS = "torus"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class DomainSpec:
    """Square computational box with a fixed resolution and mode family.

    Parameters
    ----------
    n : int
        Grid points per axis; must be a power of two and at least 16.
        (Dirichlet fields live on the n−1 interior points.)
    box : float
        Side length L of the box, default 2π.
    basis : Basis
        Periodic torus or Dirichlet sine modes.
    """

    n: int
    box: float = 2.0 * math.pi
    basis: Basis = Basis.TORUS

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise FieldError("n", f"n must be an integer, got {self.n!r}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise FieldError("n", f"n must be a power of two >= 16, got {self.n}")
        if not (np.isfinite(self.box) and self.box > 0):
            raise FieldError("box", f"box size must be positive and finite, got {self.box}")
        if not isinstance(self.basis, Basis):
            object.__setattr__(self, "basis", Basis(self.basis))

    # -- derived grids (cached; arrays are frozen) ------------------------

    @property
    def dx(self) -> float:
        return self.box / self.n

    @property
    def spectral_shape(self) -> tuple[int, int]:
        if self.basis is Basis.TORUS:
            return (self.n, self.n)
        return (self.n - 1, self.n - 1)

    @cached_property
    def index_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer mode indices along each axis, broadcast to 2-D."""
        if self.basis is Basis.TORUS:
            idx = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
            i1 = idx[:, None]
            i2 = idx[None, :]
        else:
            idx = np.arange(1, self.n, dtype=np.int64)
            i1 = idx[:, None]
            i2 = idx[None, :]
        i1, i2 = np.broadcast_arrays(i1, i2)
        i1.setflags(write=False)
        i2.setflags(write=False)
        return i1, i2

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """Eigenvalues of −Δ per mode (|2πk/L|² on the torus, Dirichlet μ_k)."""
        i1, i2 = self.index_grids
        scale = 2.0 * math.pi / self.box if self.basis is Basis.TORUS else math.pi / self.box
        sym = (scale * scale) * (i1.astype(float) ** 2 + i2.astype(float) ** 2)
        sym.setflags(write=False)
        return sym

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the 2/3 rule: max(|k₁|,|k₂|) ≤ n/3."""
        i1, i2 = self.index_grids
        keep = np.maximum(np.abs(i1), np.abs(i2)) <= self.n / 3.0
        keep.setflags(write=False)
        return keep

    @cached_property
    def derivative_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """(ik₁, ik₂) multipliers for spectral derivatives (torus only).

        The Nyquist line is zeroed: the odd symbol has no conjugate partner
        there, and keeping it would break realness of derivatives.
        """
        if self.basis is not Basis.TORUS:
            raise BasisError("derivative symbols are defined on the torus only")
        i1, i2 = self.index_grids
        scale = 2.0 * math.pi / self.box
        d1 = 1j * scale * i1.astype(float)
        d2 = 1j * scale * i2.astype(float)
        nyq = self.n // 2
        d1 = np.where(np.abs(i1) == nyq, 0.0, d1)
        d2 = np.where(np.abs(i2) == nyq, 0.0, d2)
        d1.setflags(write=False)
        d2.setflags(write=False)
        return d1, d2

    @cached_property
    def riesz_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """Ratios (k₁/|k|, k₂/|k|) of the Riesz transforms (torus only).

        The zero mode maps to 0, and the Nyquist line is zeroed along with the
        derivative symbols (odd multipliers).
        """
        if self.basis is not Basis.TORUS:
            raise BasisError("Riesz transform defined on torus only")
        i1, i2 = (i.astype(float) for i in self.index_grids)
        mag = np.hypot(i1, i2)
        mag[0, 0] = np.inf
        nyq = self.n // 2
        nyquist = (np.abs(i1) == nyq) | (np.abs(i2) == nyq)
        r1 = np.where(nyquist, 0.0, i1 / mag)
        r2 = np.where(nyquist, 0.0, i2 / mag)
        r1.setflags(write=False)
        r2.setflags(write=False)
        return r1, r2

    @cached_property
    def physical_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample coordinates (x₁, x₂) matching ``PhysicalField.values``."""
        if self.basis is Basis.TORUS:
            x = np.arange(self.n) * self.dx
        else:
            x = np.arange(self.n + 1) * self.dx
        x1, x2 = np.broadcast_arrays(x[:, None], x[None, :])
        x1.setflags(write=False)
        x2.setflags(write=False)
        return x1, x2


@dataclass(frozen=True)
class SpectralField:
    """Coefficients of a real scalar field against the orthonormal basis.

    Torus: complex array (n, n) in FFT layout (conjugate-symmetric for real
    fields). Dirichlet: real array (n−1, n−1) of sine coefficients.

    The field takes ownership of ``coeffs`` when it is an array of the right
    dtype that owns its data: it marks that very array read-only, without a
    copy, so the caller's array stops being writeable.  A view, or an array
    that needs a dtype conversion, is copied first.  Pass ``a.copy()`` to
    keep ``a`` writeable.
    """

    coeffs: np.ndarray
    domain: DomainSpec

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs)
        expected = self.domain.spectral_shape
        if coeffs.shape != expected:
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, expected {expected}"
            )
        if self.domain.basis is Basis.TORUS:
            coeffs = coeffs.astype(np.complex128, copy=False)
        else:
            if np.iscomplexobj(coeffs):
                raise ValueError("Dirichlet sine coefficients must be real")
            coeffs = coeffs.astype(np.float64, copy=False)
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise ValueError("non-finite spectral coefficients")
        coeffs = coeffs.copy() if not coeffs.flags.owndata else coeffs
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    # -- basic structure ---------------------------------------------------

    @property
    def mean_free(self) -> bool:
        """True iff the constant mode vanishes exactly (always, for sine bases)."""
        if self.domain.basis is Basis.TORUS:
            return bool(self.coeffs[0, 0] == 0)
        return True

    def validate(self, tol: float = 1e-12) -> None:
        """Check the realness (conjugate-symmetry) invariant; raise on failure."""
        if self.domain.basis is Basis.TORUS:
            flipped = np.conj(np.roll(self.coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1)))
            scale = float(np.linalg.norm(self.coeffs.ravel()))
            if float(np.linalg.norm((self.coeffs - flipped).ravel())) > tol * max(scale, 1.0):
                raise ValueError("coefficients are not conjugate-symmetric")

    @staticmethod
    def zeros(domain: DomainSpec) -> "SpectralField":
        shape = domain.spectral_shape
        dtype = np.complex128 if domain.basis is Basis.TORUS else np.float64
        return SpectralField(np.zeros(shape, dtype=dtype), domain)

    # -- vector-space convenience (operators stay pure) --------------------

    def _like(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(coeffs, self.domain)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_domain(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_domain(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return self._like(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self._like(-self.coeffs)

    def _check_same_domain(self, other: "SpectralField") -> None:
        if other.domain != self.domain:
            raise ValueError("fields live on different domains")


@dataclass(frozen=True)
class PhysicalField:
    """Grid samples of a real scalar field.

    Torus: shape (n, n) at x = (i, j)·L/n.  Dirichlet: shape (n+1, n+1)
    including the (identically zero) boundary ring.
    """

    values: np.ndarray
    domain: DomainSpec

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        n = self.domain.n
        expected = (n, n) if self.domain.basis is Basis.TORUS else (n + 1, n + 1)
        if values.shape != expected:
            raise ValueError(f"value array has shape {values.shape}, expected {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite physical values")
        values = values.copy() if not values.flags.owndata else values
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def interior(self) -> np.ndarray:
        """Values away from the boundary ring (everything, on the torus)."""
        if self.domain.basis is Basis.TORUS:
            return self.values
        return self.values[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def to_physical(field: SpectralField) -> PhysicalField:
    """Synthesize grid samples from spectral coefficients."""
    import scipy.fft  # on first use: runs that transform nothing never load it

    dom = field.domain
    n = dom.n
    if dom.basis is Basis.TORUS:
        # e_k = L^{-1} exp(...)  =>  values = ifft2(c) * n^2 / L
        # Stays a complex ifft2 on purpose: an irfft2 here rounds differently and
        # leaves 4.2e-18 on the boundary lines of odd extensions, whose trace
        # the Dirichlet-sweep criterion asserts to be exactly 0.0.  Hot paths
        # run on their own real-FFT plans instead.
        values = scipy.fft.ifft2(np.asarray(field.coeffs)) * (n * n / dom.box)
        return PhysicalField(values.real, dom)
    interior = scipy.fft.dstn(np.asarray(field.coeffs) * (n / dom.box), type=1, norm="ortho")
    full = np.zeros((n + 1, n + 1))
    full[1:-1, 1:-1] = interior
    return PhysicalField(full, dom)


def to_spectral(values: PhysicalField | np.ndarray, domain: DomainSpec | None = None) -> SpectralField:
    """Analyze grid samples into spectral coefficients (inverse of to_physical)."""
    import scipy.fft

    if isinstance(values, PhysicalField):
        domain = values.domain
        values = values.values
    if domain is None:
        raise ValueError("a domain is required when passing a bare array")
    values = np.asarray(values, dtype=np.float64)
    n = domain.n
    if domain.basis is Basis.TORUS:
        coeffs = scipy.fft.fft2(values) * (domain.box / (n * n))
        return SpectralField(coeffs, domain)
    if values.shape == (n + 1, n + 1):
        values = values[1:-1, 1:-1]
    elif values.shape != (n - 1, n - 1):
        raise ValueError(
            f"Dirichlet samples must have shape {(n + 1, n + 1)} or {(n - 1, n - 1)}, "
            f"got {values.shape}"
        )
    coeffs = scipy.fft.dstn(values, type=1, norm="ortho") * (domain.box / n)
    return SpectralField(coeffs, domain)


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


def _apply_laplacian_power(field: SpectralField, exponent: float) -> SpectralField:
    """Multiply coefficients by (eigenvalue of −Δ)^exponent, zero mode → 0.

    Internal: accepts any real exponent; for negative exponents on the torus
    the caller is responsible for having checked mean-freeness.
    """
    return SpectralField(field.coeffs * _laplacian_power(field.domain, exponent), field.domain)


@functools.lru_cache(maxsize=32)
def _laplacian_power(domain: DomainSpec, exponent: float) -> np.ndarray:
    """Read-only (eigenvalue of −Δ)^exponent per mode, torus zero mode → 0."""
    sym = domain.laplacian_symbol
    if domain.basis is Basis.TORUS:
        mult = np.zeros_like(sym)
        nz = sym > 0
        mult[nz] = sym[nz] ** exponent
    else:
        mult = sym**exponent
    mult.setflags(write=False)
    return mult


def fractional_laplacian(field: SpectralField, alpha: float, inverse: bool = False) -> SpectralField:
    """Apply (−Δ)^α (or its inverse) as a spectral multiplier.

    Forward: coefficient at k is multiplied by |k|^{2α} (torus) or μ_k^α
    (Dirichlet); the torus zero mode maps to zero.  Inverse: multiplier
    |k|^{-2α}; on the torus this requires a mean-free field.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if inverse:
        if field.domain.basis is Basis.TORUS and not field.mean_free:
            raise ZeroModeError(
                "non-invertible zero mode: inverse fractional Laplacian needs a mean-free field"
            )
        return _apply_laplacian_power(field, -float(alpha))
    return _apply_laplacian_power(field, float(alpha))


def riesz_transform(field: SpectralField, j: int) -> SpectralField:
    """Riesz transform R_j, the multiplier −i·k_j/|k| (zero mode → 0).

    Only defined for the periodic basis; the Nyquist line is zeroed along
    with the derivative symbols (odd multiplier).
    """
    if field.domain.basis is not Basis.TORUS:
        raise BasisError("Riesz transform defined on torus only")
    if j not in (1, 2):
        raise ValueError(f"component index must be 1 or 2, got {j}")
    ratio = field.domain.riesz_symbols[j - 1]
    return SpectralField(field.coeffs * (-1j * ratio), field.domain)


def velocity_from_theta(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Divergence-free velocity u = (−R₂θ, R₁θ) of the active scalar.

    Per mode: û₁(k) = +i(k₂/|k|)·θ̂(k), û₂(k) = −i(k₁/|k|)·θ̂(k).
    """
    if theta.domain.basis is not Basis.TORUS:
        raise BasisError(
            "Riesz transform defined on torus only; Dirichlet velocity goes "
            "through the stream function (see dynamics)"
        )
    u1 = -1.0 * riesz_transform(theta, 2)
    u2 = riesz_transform(theta, 1)
    return u1, u2


# ---------------------------------------------------------------------------
# norms and dealiasing
# ---------------------------------------------------------------------------


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Sobolev norm (Σ_{k≠0} |k|^{2s}|θ̂(k)|² + [s ≥ 0]·|θ̂(0)|²)^{1/2}.

    |k| is the physical wavenumber (2π/L-scaled on the torus, √μ_k for sine
    modes).  Negative orders require a mean-free field.  Where the squares
    overflow, the sum is redone with the largest coefficient factored out.
    """
    dom = field.domain
    torus = dom.basis is Basis.TORUS
    if torus and s < 0 and not field.mean_free:
        raise ZeroModeError("negative-order Sobolev norm requires a mean-free field")
    mult = _laplacian_power(dom, s)  # |k|^{2s} per mode
    mag = np.abs(field.coeffs)

    def weighted_sum(mag: np.ndarray) -> float:
        mag2 = mag**2
        if not torus:
            return float(np.sum(mag2 * mult))
        # the zero mode is the first entry in FFT layout; it is added below
        total = float(np.sum(mag2.ravel()[1:] * mult.ravel()[1:]))
        return total + float(mag2[0, 0]) if s >= 0 else total

    with np.errstate(over="ignore"):
        total = weighted_sum(mag)
        if math.isfinite(total):
            return math.sqrt(total)
        # the squares overflow: factor the largest coefficient out
        peak = float(mag.max())
        return peak * math.sqrt(weighted_sum(mag / peak))


def lq_norm(field: PhysicalField | SpectralField, q: float) -> float:
    """Grid quadrature of the L^q(box) norm, cell weight (L/n)²; q ∈ [2, ∞]."""
    if q < 2:
        raise ValueError(f"q must be >= 2 (monitored range), got {q}")
    return grid_lp_norm(field, q)


def grid_lp_norm(field: PhysicalField | SpectralField, p: float) -> float:
    """L^p grid quadrature for any p ∈ (1, ∞]; internal superset of lq_norm.

    Spectral fields are synthesized to the grid first.  Where the p-th
    powers overflow, the sum is redone with the grid maximum factored out.
    """
    if isinstance(field, SpectralField):
        field = to_physical(field)
    values = field.interior
    if math.isinf(p):
        return float(np.max(np.abs(values)))
    cell = (field.domain.box / field.domain.n) ** 2
    mag = np.abs(values)
    with np.errstate(over="ignore"):
        total = cell * np.sum(mag**p)
        if np.isfinite(total):
            return float(total ** (1.0 / p))
        # the p-th powers overflow: factor the grid maximum out
        peak = float(mag.max())
        return peak * float((cell * np.sum((mag / peak) ** p)) ** (1.0 / p))


def inner_product(a: SpectralField, b: SpectralField) -> float:
    """L²(box) inner product ⟨a, b⟩ = Σ conj(â)·b̂ (orthonormal Parseval)."""
    a._check_same_domain(b)
    return float(np.real(np.sum(np.conj(a.coeffs) * b.coeffs)))


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with max(|k₁|, |k₂|) > n/3 (idempotent 2/3 rule)."""
    mask = field.domain.dealias_mask
    return SpectralField(field.coeffs * mask, field.domain)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_modes(domain: DomainSpec, modes: Mapping[tuple[int, int], complex]) -> SpectralField:
    """Build a field from an explicit {(k₁, k₂): coefficient} table.

    On the torus the table must be conjugate-complete (real fields only);
    this is validated.  Dirichlet indices must lie in [1, n−1]².
    """
    coeffs = np.zeros(domain.spectral_shape, dtype=np.complex128 if domain.basis is Basis.TORUS else np.float64)
    n = domain.n
    if domain.basis is Basis.TORUS:
        half = n // 2
        for (k1, k2), value in modes.items():
            if not (-half <= k1 < half and -half <= k2 < half):
                raise ValueError(f"mode {(k1, k2)} outside the resolved range")
            coeffs[k1 % n, k2 % n] = value
        field = SpectralField(coeffs, domain)
        field.validate()
        return field
    for (k1, k2), value in modes.items():
        if not (1 <= k1 <= n - 1 and 1 <= k2 <= n - 1):
            raise ValueError(f"sine mode {(k1, k2)} outside [1, n-1]^2")
        if abs(complex(value).imag) > 0:
            raise ValueError("Dirichlet sine coefficients must be real")
        coeffs[k1 - 1, k2 - 1] = complex(value).real
    return SpectralField(coeffs, domain)


def cosine_field(domain: DomainSpec, k: tuple[int, int] = (1, 0), amplitude: float = 1.0) -> SpectralField:
    """The field amplitude·cos(2πk·x/L) on the torus (exact coefficients)."""
    if domain.basis is not Basis.TORUS:
        raise BasisError("cosine_field is a torus constructor")
    c = amplitude * domain.box / 2.0
    k1, k2 = k
    return from_modes(domain, {(k1, k2): c, (-k1, -k2): c})


def sine_mode_field(domain: DomainSpec, k: tuple[int, int] = (1, 1), amplitude: float = 1.0) -> SpectralField:
    """The field amplitude·sin(πk₁x₁/L)sin(πk₂x₂/L) on the Dirichlet box."""
    if domain.basis is not Basis.DIRICHLET:
        raise BasisError("sine_mode_field is a Dirichlet constructor")
    return from_modes(domain, {tuple(k): amplitude * domain.box / 2.0})
