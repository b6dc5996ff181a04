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
from typing import Mapping, Sequence

import numpy as np

from .errors import BasisError, FieldError, NonFiniteError, ZeroModeError

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
        Side length L of the box, default 2π.  The extreme eigenvalues of
        −Δ must be normal floats, which holds for L between about 1e-153
        and 1e154; the grid scales n²/L, L/n² and (L/n)² are then finite
        and nonzero too.
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
        torus = self.basis is Basis.TORUS
        scale = (2.0 if torus else 1.0) * math.pi / self.box
        top = self.n // 2 if torus else self.n - 1
        # laplacian_symbol's extremes, at the modes (1, 0) or (1, 1) and (top, top)
        smallest, largest = scale * scale * (1 if torus else 2), scale * scale * (2 * top * top)
        if not (smallest >= np.finfo(float).tiny and largest < math.inf):
            raise FieldError(
                "box", f"box size {self.box} puts the Laplacian eigenvalues outside the float range"
            )

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
    def riesz_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """Ratios (k₁/|k|, k₂/|k|) of the Riesz transforms (torus only).

        The zero mode maps to 0, and the Nyquist line is zeroed: the odd
        multiplier has no conjugate partner there, and keeping it would break
        the realness of the transformed field.
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
            raise NonFiniteError("non-finite spectral coefficients")
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
        """Check the realness (conjugate-symmetry) invariant; raise on failure.

        The mirror gap may reach ``tol`` times the larger of the table's norm
        and 1.  Both norms are taken on the table divided by its largest
        real or imaginary part, so neither overflows.
        """
        if self.domain.basis is Basis.TORUS:
            peak = float(np.abs(self.coeffs.view(np.float64)).max())
            if peak == 0.0:
                return
            coeffs = (self.coeffs.view(np.float64) / peak).view(np.complex128)
            flipped = np.conj(np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1)))
            scale = float(np.linalg.norm(coeffs.ravel()))
            gap = float(np.linalg.norm((coeffs - flipped).ravel()))
            with np.errstate(over="ignore"):  # 1/peak is inf for a subnormal peak
                if gap > tol * max(scale, 1.0 / peak):
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
            raise NonFiniteError("non-finite physical values")
        values = values.copy() if not values.flags.owndata else values
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def to_physical(field: SpectralField) -> PhysicalField:
    """Synthesize grid samples from spectral coefficients."""
    dom = field.domain
    n = dom.n
    if dom.basis is Basis.TORUS:
        # e_k = L^{-1} exp(...)  =>  values = ifft2(c) * n^2 / L
        # numpy's complex ifft2, kept complex on purpose: an irfft2 here
        # rounds differently and leaves about 1e-17 on the boundary lines of
        # odd extensions, whose trace the Dirichlet-sweep criterion asserts
        # to be exactly 0.0.  Hot paths synthesize from their plans' kept
        # blocks instead.
        values = np.fft.ifft2(field.coeffs).real * (n * n / dom.box)
        return PhysicalField(values, dom)
    full = np.zeros((n + 1, n + 1))
    full[1:-1, 1:-1] = _sine_transform(field.coeffs * (n / dom.box), 1.0 / (2 * n))
    return PhysicalField(full, dom)


def to_spectral(values: PhysicalField | np.ndarray, domain: DomainSpec | None = None) -> SpectralField:
    """Analyze grid samples into spectral coefficients (inverse of to_physical)."""
    if isinstance(values, PhysicalField):
        domain = values.domain
        values = values.values
    if domain is None:
        raise ValueError("a domain is required when passing a bare array")
    values = np.asarray(values, dtype=np.float64)
    n = domain.n
    if domain.basis is Basis.TORUS:
        spectrum = _real_spectrum(values)
        spectrum *= domain.box / (n * n)
        return SpectralField(spectrum, domain)
    if values.shape == (n + 1, n + 1):
        values = values[1:-1, 1:-1]
    elif values.shape != (n - 1, n - 1):
        raise ValueError(
            f"Dirichlet samples must have shape {(n + 1, n + 1)} or {(n - 1, n - 1)}, "
            f"got {values.shape}"
        )
    return SpectralField(_sine_transform(values, 1.0 / (2 * n)) * (domain.box / n), domain)


def _sine_transform(values: np.ndarray, scale: float) -> np.ndarray:
    """``scipy.fft.dstn(values, type=1)`` of an ``(n-1, n-1)`` array, times ``scale`` after axis 0.

    Each axis is an ``rfft`` of length ``2n`` of minus the odd extension of
    its lines, whose imaginary part is the unnormalized type-1 sine
    transform.  Axis 0 runs first and ``scale`` (``1/(2n)`` for
    ``norm="ortho"``) multiplies its result, as in ``scipy.fft``, so the
    two agree bit for bit and overflow alike.  A non-finite value passes
    through silently, to the field's finite check.
    """
    n = len(values) + 1
    lines = np.zeros((2 * n, n - 1))
    spectrum = np.empty((n + 1, n - 1), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for factor in (1.0, scale):  # transposed after each pass: the second runs along axis 1
            np.multiply(values, -factor, out=lines[1:n])
            np.multiply(values[::-1], factor, out=lines[n + 1 :])
            values = np.fft.rfft(lines, axis=0, out=spectrum).imag[1:n].T
    return values


def _real_spectrum(values: np.ndarray) -> np.ndarray:
    """The unnormalized ``fft2`` of a real grid, its columns past ``n//2`` an exact mirror.

    The ``rfft2`` half plane gives the columns ``0 .. n//2``, and
    :func:`_conjugate_mirror` the rest.  A complex ``fft2`` of real input
    leaves those columns a few ulps off the exact conjugates, which the
    march rejects as a complex field.
    """
    half = np.fft.fft(np.fft.rfft(values, axis=1), axis=0)
    n = values.shape[1]
    return np.concatenate([half, _conjugate_mirror(half[:, : n - n // 2])], axis=1)


def _conjugate_mirror(block: np.ndarray) -> np.ndarray:
    """The last ``c`` columns of a real field's FFT layout whose first ``c+1`` are ``block``.

    Realness makes the mode ``(-k1, -k2)`` the conjugate of ``(k1, k2)``,
    so column ``m-j`` (``m`` the full width) is the conjugate of column
    ``j`` read at the rows of ``-k1``, for ``j = 1 .. c``.  A new array.
    """
    rows, cut = block.shape[0], block.shape[1] - 1
    mirrored = block[-np.arange(rows) % rows, cut:0:-1]
    return np.conjugate(mirrored, out=mirrored)


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _laplacian_power(domain: DomainSpec, exponent: float) -> np.ndarray:
    """Read-only (eigenvalue of −Δ)^exponent per mode, torus zero mode → 0."""
    mult = _positive_power(domain.laplacian_symbol, exponent)
    mult.setflags(write=False)
    return mult


def _positive_power(symbol: np.ndarray, exponent: float) -> np.ndarray:
    """A new array of ``symbol**exponent`` on the positive entries, 0 on the zero ones.

    The one zero of a ``−Δ`` symbol is the torus zero mode.
    """
    power = np.zeros_like(symbol)
    positive = symbol > 0
    power[positive] = symbol[positive] ** exponent
    return power


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
    exponent = -float(alpha) if inverse else float(alpha)
    return SpectralField(field.coeffs * _laplacian_power(field.domain, exponent), field.domain)


def riesz_transform(field: SpectralField, j: int) -> SpectralField:
    """Riesz transform R_j, the multiplier −i·k_j/|k| (zero mode → 0).

    Only defined for the periodic basis; the Nyquist line is zeroed (odd
    multiplier).
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
    modes).  Negative orders require a mean-free field.  The sum runs over
    the coefficients scaled by a power of two (see :func:`_weighted_norms`),
    so it neither overflows nor underflows on the way.  A zero coefficient
    counts 0 whatever its weight; where a nonzero one meets a weight past the
    largest float the sum runs in log space, and the norm is ``inf`` only
    when it does not fit itself.  A nan order raises :class:`ValueError`.
    """
    if math.isnan(s):
        raise ValueError(f"Sobolev order must be a number, got {s}")
    if field.domain.basis is Basis.TORUS and s < 0 and not field.mean_free:
        raise ZeroModeError("negative-order Sobolev norm requires a mean-free field")
    return _weighted_norms(field.coeffs, [_sobolev_weights(field.domain, s)])[0]


def _weighted_norms(coeffs: np.ndarray, tables: Sequence[tuple]) -> list[float]:
    """``(Σ w |c|²)^{1/2}`` of a coefficient array for each weight table of :func:`_power_weights`.

    ``coeffs`` is a full-layout array or a kept block, and each table
    flattens the same layout.  The coefficients are scaled by ``2^-e``,
    where ``2^e`` bounds their largest real or imaginary part: an exact
    scaling, after which every ``|c|²`` lies below 2.  Each table is one
    dot product with those squares, scaled back by ``2^e`` and summed by
    ``numpy.einsum`` rather than BLAS, whose reduction order depends on
    its thread count; a table whose overflowing weights meet a nonzero
    square sums ``log2`` terms instead (:func:`_log2_weighted_norm`).
    """
    parts = coeffs.view(np.float64)  # real and imaginary parts
    e = math.frexp(max(parts.max(), -parts.min()))[1]
    squares = np.ldexp(coeffs.real, -e)
    np.square(squares, out=squares)
    if np.iscomplexobj(coeffs):
        imag = np.ldexp(coeffs.imag, -e)
        squares += np.square(imag, out=imag)
    squares = squares.reshape(-1)
    norms = []
    for weights, overflowed, logs in tables:
        if overflowed is not None and squares[overflowed].any():
            norms.append(_log2_weighted_norm(squares, logs, e))
            continue
        total = float(np.einsum("i,i->", squares, weights))
        norms.append(_times_power_of_two(math.sqrt(total), e))
    return norms


def _log2_weighted_norm(squares: np.ndarray, logs: np.ndarray, e: int) -> float:
    """``2^e (Σ squares·2^logs)^{1/2}`` summed in log space, for weights past the largest float.

    Each term is ``2^t`` with ``t = log2(square) + log2(weight)``.  With
    ``m`` the largest ``t``, the sum is ``2^m Σ 2^(t - m)``, whose partial
    sum lies in ``[1, size]``; ``inf`` only when the norm itself passes the
    largest float, as it does when the ``log2`` of a weight met by a
    nonzero square does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(squares) + logs
    terms[squares == 0] = -math.inf  # counts 0, even where the weight's log2 is inf
    top = float(terms.max())
    if top == math.inf:
        return math.inf
    total = float(np.exp2(terms - top).sum())
    return _times_power_of_two(math.sqrt(total), top / 2 + e)


@functools.lru_cache(maxsize=32)
def _sobolev_weights(domain: DomainSpec, s: float) -> tuple:
    """The :func:`_power_weights` of every mode of ``domain``'s full layout, built once per order."""
    return _power_weights(domain.laplacian_symbol, s)


def _power_weights(
    symbol: np.ndarray, s: float, multiplicity: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Read-only flat Sobolev weights of a layout's modes, for :func:`_weighted_norms`.

    ``symbol`` holds the ``−Δ`` eigenvalue of each mode and ``multiplicity``
    how often the mode stands in a sum (a kept block's conjugate mirror),
    once if ``None``.  A mode weighs ``|k|^{2s}`` times its multiplicity;
    the torus zero mode, the one zero of a symbol and first in every
    layout, weighs 1 for ``s ≥ 0`` and 0 below.  A weight past the largest
    float is stored as 0; the second array marks those modes and the third
    holds the ``log2`` of every weight, both ``None`` when there is none.
    A zero coefficient there counts 0, any other sends the sum to log space.
    """
    sym = symbol.reshape(-1)
    with np.errstate(over="ignore", divide="ignore"):
        weights = sym**s
    if sym[0] == 0.0:
        weights[0] = 1.0 if s >= 0 else 0.0
    if multiplicity is not None:
        with np.errstate(over="ignore"):
            weights *= multiplicity.reshape(-1)
    overflowed = np.isinf(weights)
    if not overflowed.any():
        weights.setflags(write=False)
        return weights, None, None
    weights[overflowed] = 0.0
    with np.errstate(divide="ignore", over="ignore"):  # a log2 past the largest float is inf
        logs = np.log2(weights)
        # only there: at s = ±inf, s·log2(1) elsewhere would be nan
        logs[overflowed] = s * np.log2(sym[overflowed])
        if multiplicity is not None:
            logs[overflowed] += np.log2(multiplicity.reshape(-1)[overflowed])
    for table in (weights, overflowed, logs):
        table.setflags(write=False)
    return weights, overflowed, logs


def lq_norm(field: PhysicalField | SpectralField, q: float) -> float:
    """Grid quadrature of the L^q(box) norm, cell weight (L/n)²; q ∈ [2, ∞]."""
    if not q >= 2:
        raise ValueError(f"q must be >= 2 (monitored range), got {q}")
    return grid_lp_norm(field, q)


def grid_lp_norm(field: PhysicalField | SpectralField, p: float) -> float:
    """L^p grid quadrature for any p ∈ (1, ∞]; internal superset of lq_norm.

    Spectral fields are synthesized to the grid first.  The sum runs over
    the grid divided by its maximum (see :func:`_grid_norms`), so it
    neither overflows nor underflows on the way, whatever p.  Any other p,
    nan included, raises :class:`ValueError`.
    """
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    if isinstance(field, SpectralField):
        field = to_physical(field)
    orders = () if math.isinf(p) else (p,)
    peak, norms, _ = _grid_norms(field.values, field.domain, orders)
    return norms[0] if norms else peak


def _grid_norms(
    values: np.ndarray,
    domain: DomainSpec,
    orders: Sequence[float],
    diss: np.ndarray | None = None,
    buffers: Sequence[np.ndarray] = (),
) -> tuple[float, list[float], list[float]]:
    """max|θ|, the L^q norms and, given ``diss``, the positivity integrals of one grid.

    ``values`` and ``diss`` are the grids of θ and ``(-Lap)^a θ`` (a
    Dirichlet ring is skipped).  With ``M = max|θ|``, one ``a² = (θ/M)²``
    serves every order ``q ≥ 2`` through ``P = a^(q-2)``: the norm is ``M
    (cell Σ P a²)^(1/q)`` and the integral of ``diss θ |θ|^(q-2)`` is
    ``M^(q-1) cell Σ P diss θ/M``.  As ``a ≤ 1`` with equality at the
    maximum, no sum overflows or underflows, and a factor ``2^k`` on θ
    moves only ``M``.  An order below 2 (norms only) sums ``a^q``.
    ``buffers`` are up to three grids of θ's size or more, taking ``θ/M``
    then ``P``, ``a²`` and ``diss θ/M``; the last may be ``diss`` itself.
    Missing ones are allocated.  The sums of products run in
    ``numpy.einsum``, not BLAS, so their bits do not depend on a thread
    count.  An integrand that overflows gives ``inf`` or ``nan``, silently.
    """
    if domain.basis is Basis.DIRICHLET:
        values = values[1:-1, 1:-1]
        diss = None if diss is None else diss[1:-1, 1:-1]
    peak = float(max(values.max(), -values.min()))
    if not orders:
        return peak, [], []
    mantissa, e = math.frexp(peak)  # M^(q-1) = mantissa^(q-1) 2^(e(q-1))
    shape, size = values.shape, values.size
    grids = [buffer.reshape(-1)[:size].reshape(shape) for buffer in buffers[:3]]
    grids += [np.empty(shape) for _ in range(len(grids), 2 if diss is None else 3)]
    work, squares = grids[:2]
    np.square(np.divide(values, peak or 1.0, out=work), out=squares)
    a2, flat = squares.reshape(-1), work.reshape(-1)
    cell = (domain.box / domain.n) ** 2
    norms: list[float] = []
    integrals: list[float] = []
    with np.errstate(invalid="ignore"):
        weighted = None if diss is None else np.multiply(work, diss, out=grids[2]).reshape(-1)
        for q in orders:
            if q < 2:  # a^(q-2) is infinite where θ vanishes
                total = float(np.power(a2, q / 2, out=flat).sum())
            else:
                power = a2 if q == 4 else np.power(a2, q / 2 - 1, out=flat)
                total = float(np.einsum("i,i->", power, a2))
                if weighted is not None:
                    scale, exponent = mantissa ** (q - 1), e * (q - 1)
                    if 0.0 < mantissa and scale < _TINY:  # underflowed: move it to the exponent
                        scale, exponent = 1.0, exponent + (q - 1) * math.log2(mantissa)
                    integral = cell * float(np.einsum("i,i->", power, weighted)) * scale
                    integrals.append(_times_power_of_two(integral, exponent))
            norms.append(peak * (cell * total) ** (1.0 / q))
    return peak, norms, integrals


#: The smallest normal float; a power below it has lost digits to underflow.
_TINY = float(np.finfo(float).tiny)


def _times_power_of_two(x: float, p: float) -> float:
    """``x·2^p``, rounded once for integer ``p``; ``±inf`` past the largest float."""
    if math.isinf(p):
        return math.copysign(math.inf if p > 0 and x else 0.0, x)
    whole = math.floor(p)
    try:
        return math.ldexp(x * 2.0 ** (p - whole), whole)
    except OverflowError:
        return math.copysign(math.inf, x)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with max(|k₁|, |k₂|) > n/3 (idempotent 2/3 rule)."""
    return SpectralField(_cut_beyond(field.coeffs.copy(), field.domain), field.domain)


def _cut_beyond(coeffs: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """Zero, in place, the modes of a full-layout array that the 2/3 rule drops.

    Those are the modes with ``max(|k₁|, |k₂|) > n/3``, that is the rows
    and columns whose index passes ``n/3``: on the torus the FFT indices
    ``n/3+1 .. n-n/3-1``, on the Dirichlet box the sine indices past
    ``n/3``.  Returns ``coeffs``.
    """
    n = domain.n
    cut = n // 3
    beyond = slice(cut + 1, n - cut) if domain.basis is Basis.TORUS else slice(cut, None)
    coeffs[beyond] = 0.0
    coeffs[:, beyond] = 0.0
    return coeffs


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
