"""Time integration of the dissipative surface quasi-geostrophic equation.

The model advanced here is

    d theta/dt + u . grad theta + kappa (-Lap)^alpha theta + lam theta = f,

with the velocity recovered from theta by Riesz transforms (periodic box) and
``alpha`` restricted to (1/2, 1] where the advection term is controlled by the
dissipation.  The linear part is diagonal per mode, so the scheme is
exponential time differencing: the stiff factor ``exp(-a dt)`` is applied
exactly and only the transport term is approximated, by the second-order
Runge-Kutta corrector of Cox and Matthews (ETD2RK).

Each basis has one transport kernel on raw arrays, driven by a plan of
read-only multipliers cached per domain, with no intermediate field objects.
The kernel returns the transport only on the block of modes the 2/3 rule
keeps, and the plan, the one code that knows that block, assembles a
full-layout array from it.  On the torus the block is the columns
``0 .. n/3`` of the real-FFT half plane (the plan derives their conjugate
mirror), so one evaluation is three inverse real FFTs (u1, u2 and theta) and
two forward ones (the fluxes), whose complex passes skip the zeroed columns.
The same pruned synthesis gives a sampled state's grid and the estimate
battery's ``(-Lap)^a theta``, and one dealias test per plan tells every
caller whether a field has modes past the cut.  Each pass is a per-axis
``numpy.fft`` call writing into buffers the caller owns (the plan's
``scratch`` and an output block): theta is synthesized onto one grid, then
u1 and u2 stream one at a time through a second grid, each multiplied by
theta and analyzed before the next is synthesized, so a step allocates no
transform output.  On a
Dirichlet box the kernel stays on the box's own ``(n+1)^2`` grid: theta is a
sine-sine series, the velocity components are sine-cosine and cosine-sine
series, and type-1 sine/cosine transforms synthesize them and analyze the
two fluxes, alias-free under the same 1/3 cut; the block is the modes up to
``2n/3``.  Each transform is a ``numpy.fft.rfft`` of an extended line that
carries one cosine and one sine transform at once (u1 paired with u2, the
two fluxes paired), written into buffers the caller owns, so a box step
allocates no grid either.  Odd
extension to the doubled torus (:func:`embed_odd_extension`), which carries
the same information, is kept as the reference the kernel is tested
against.

Runs take uniform steps, and the last one is labelled with the horizon
itself, so a run lands exactly on it.  One generator serves both bases and
every caller: it checks the run, takes the steps and yields each sampled
state; :func:`integrate` and the members of an alpha sweep drive it.  Its
state is the kept block itself, in two buffers it owns, so the ETD update
and the per-step check for non-finite values (the blow-up signal) run on
the block only; every step is also checked against the advective CFL
limit, and a run past it warns its caller.  A state or forcing with modes
outside the block is rejected, since the run would not evolve them.
Sampled states are assembled into new full-layout arrays (on the torus the
block's conjugate mirror fills the other columns) and stream to the
caller's one ``sample`` hook, which may keep them and returns the sample's
extra series columns.

A slow Picard/Simpson fixed-point integrator over the Duhamel form serves as
a scheme-independent reference for convergence studies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from .errors import BlowUpError, CflWarning, ConvergenceError, FieldError
from .series import DiagnosticsSeries
from .spectral import Basis, DomainSpec, SpectralField, _conjugate_mirror, _power_weights

__all__ = [
    "SqgParams",
    "StepperConfig",
    "validate_run_settings",
    "SimulationState",
    "RunResult",
    "EtdCoefficients",
    "etd_coefficients",
    "nonlinear_rhs",
    "advective_speed",
    "default_dt",
    "integrate",
    "picard_reference",
    "embed_odd_extension",
    "restrict_odd_extension",
    "CFL_LIMIT",
    "MAX_STEPS",
]

#: Advisory advective CFL ceiling ``dt * max|u| * n / L``; crossing it emits
#: a :class:`~sqglab.errors.CflWarning` at the next sample.
CFL_LIMIT = 0.5

#: Most steps a run may take.  A torus step costs about 0.3 ms even at
#: n = 16 and each sample keeps a series row, so a step count that does
#: not end within minutes is a mistyped ``dt``, not a run.
MAX_STEPS = 10**6

#: Below this value of ``|a dt|`` the phi functions switch to Taylor series.
_PHI_SERIES_CUT = 1e-4


@dataclass(frozen=True)
class SqgParams:
    """Physical parameters: dissipation strength/order, damping, forcing.

    Parameters
    ----------
    kappa : float
        Dissipation coefficient, strictly positive.
    alpha : float
        Order of the fractional dissipation, in (1/2, 1].
    lam : float, optional
        Zeroth-order damping coefficient, nonnegative.
    forcing : SpectralField, optional
        Time-independent forcing term, same domain as the evolved field.
    """

    kappa: float
    alpha: float
    lam: float = 0.0
    forcing: SpectralField | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise FieldError("kappa", f"kappa must be positive and finite, got {self.kappa}")
        if not (0.5 < self.alpha <= 1.0):
            raise FieldError(
                "alpha",
                f"alpha must exceed 1/2 for time evolution (and be <= 1), got {self.alpha}",
            )
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise FieldError("lam", f"lam must be nonnegative and finite, got {self.lam}")

    def _rate(self, symbol: np.ndarray) -> np.ndarray:
        """A new array of the decay rate of each mode, given its ``-Lap`` eigenvalue."""
        rate = np.full(symbol.shape, float(self.lam))
        positive = symbol > 0
        with np.errstate(over="ignore"):  # a huge kappa makes the rate inf
            rate[positive] += self.kappa * symbol[positive] ** self.alpha
        return rate


@dataclass(frozen=True)
class StepperConfig:
    """Numerical parameters of a run: step size, horizon, sampling.

    ``dt`` is the largest step allowed; the run takes :attr:`n_steps` uniform
    steps of :attr:`step_dt` and ends exactly at ``t_end``.  Settings outside
    :func:`validate_run_settings` raise :class:`FieldError` naming the field.
    """

    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self) -> None:
        validate_run_settings(self.t_end, self.dt, self.sample_every)

    @property
    def n_steps(self) -> int:
        """Fewest steps no longer than ``dt`` that cover [0, t_end]; at least 1."""
        return _step_count(self.t_end, self.dt)

    @property
    def step_dt(self) -> float:
        """Uniform step ``t_end / n_steps`` the run takes."""
        return self.t_end / self.n_steps


def _step_count(t_end: float, dt: float) -> int:
    """Fewest steps no longer than ``dt`` that cover ``[0, t_end]``, for a finite ratio."""
    return math.ceil(t_end / dt - 1e-12)


def validate_run_settings(t_end: float, dt: float | None, sample_every: int) -> None:
    """Raise :class:`FieldError` unless a run's horizon and sampling describe a run.

    ``t_end`` must be positive and finite, a given ``dt`` (``None`` asks for
    the CFL step) must lie in ``(0, t_end]``, since no run could take a
    longer step than its horizon, and leave the step count ``t_end/dt``
    finite and at most :data:`MAX_STEPS`, and ``sample_every`` must be an
    integer from 1 to :data:`MAX_STEPS`.  The experiment file,
    :class:`StepperConfig` and :class:`~sqglab.critical.AlphaSweepConfig`
    all apply these rules.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise FieldError("t_end", f"t_end must be positive and finite, got {t_end!r}")
    if dt is not None and not 0 < dt <= t_end:
        raise FieldError("dt", f"dt must lie in (0, t_end], got {dt!r}")
    if dt is not None and not math.isfinite(float(t_end) / float(dt)):
        raise FieldError("dt", f"dt is too small: t_end/dt overflows, got {dt!r}")
    if dt is not None and _step_count(t_end, dt) > MAX_STEPS:
        raise FieldError(
            "dt", f"dt is too small: t_end/dt asks for more than {MAX_STEPS} steps, got {dt!r}"
        )
    # % 1 tests integrality without a float conversion, which overflows on a huge int
    if not (sample_every >= 1 and sample_every % 1 == 0):
        raise FieldError(
            "sample_every", f"sample_every must be a positive integer, got {sample_every!r}"
        )
    if sample_every > MAX_STEPS:
        raise FieldError(
            "sample_every",
            f"sample_every must be at most {MAX_STEPS}, the most steps a run takes, "
            f"got {sample_every!r}",
        )


@dataclass(frozen=True)
class SimulationState:
    """A field together with the time it is valid at."""

    t: float
    theta: SpectralField

    def __post_init__(self) -> None:
        if not np.isfinite(self.t):
            raise ValueError(f"state time must be finite, got {self.t}")


@dataclass(frozen=True)
class RunResult:
    """Output of :func:`integrate`: sampled diagnostics and the final state."""

    series: DiagnosticsSeries
    final: SimulationState


@dataclass(frozen=True)
class EtdCoefficients:
    """Per-mode exponential-integrator tables for a fixed step size.

    ``decay`` is ``exp(-a dt)``; ``phi1`` and ``phi2`` are ``phi_1(-a dt)``
    and ``phi_2(-a dt)`` with the standard phi functions, evaluated stably
    (Taylor series below ``|a dt| = 1e-4``).  Where ``a dt`` overflows to
    ``inf`` all three take their limit 0.
    """

    dt: float
    decay: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi_1(-z) = (1 - exp(-z)) / z for z >= 0, series near 0."""
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs**2 / 6.0 - zs**3 / 24.0
    zl = z[~small]
    out[~small] = -np.expm1(-zl) / zl
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi_2(-z) = (exp(-z) - 1 + z) / z^2 for z >= 0, series near 0."""
    out = np.empty_like(z)
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = z[small]
    out[small] = 0.5 - zs / 6.0 + zs**2 / 24.0 - zs**3 / 120.0
    zl = z[~small]
    with np.errstate(over="ignore", invalid="ignore"):
        out[~small] = (np.expm1(-zl) + zl) / zl**2
    out[np.isinf(z)] = 0.0  # the limit, where inf / inf gave nan
    return out


def etd_coefficients(domain: DomainSpec, params: SqgParams, dt: float) -> EtdCoefficients:
    """Precompute the per-mode ETD tables for step size ``dt``."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    coeffs = EtdCoefficients(float(dt), *_etd_tables(domain.laplacian_symbol, params, dt))
    for table in (coeffs.decay, coeffs.phi1, coeffs.phi2):
        table.setflags(write=False)
    return coeffs


def _etd_tables(
    symbol: np.ndarray, params: SqgParams, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New ``exp(-a dt)``, ``phi_1(-a dt)`` and ``phi_2(-a dt)`` arrays on the modes of ``symbol``.

    ``symbol`` holds each mode's ``-Lap`` eigenvalue: the full layout for
    :func:`etd_coefficients`, a plan's kept block for the march.  Each
    entry depends on its own mode only, so a block's tables equal the
    block of the full ones bit for bit.
    """
    with np.errstate(over="ignore"):
        z = params._rate(symbol) * dt
    return np.exp(-z), _phi1(z), _phi2(z)


# ----------------------------------------------------------------------------
# transport nonlinearity
# ----------------------------------------------------------------------------


def embed_odd_extension(field: SpectralField) -> SpectralField:
    """Embed a sine series exactly as a Fourier series on the doubled torus.

    A coefficient ``c`` on the orthonormal sine mode ``(m1, m2)`` contributes
    ``-c, +c, +c, -c`` to the orthonormal Fourier modes ``(+-m1, +-m2)`` of
    the torus of side ``2 L`` (signs by parity: expanding sin*sin into
    exponentials gives weight -1/4 per term, and the basis renormalization
    ``(2/L) * 2L`` cancels it to unity), which reproduces the odd extension
    of the field pointwise; Parseval is consistent, the extension carrying
    four copies of the field's energy.  The map is exact -- inverting it
    with :func:`restrict_odd_extension` is an identity.  The transport kernel
    does not use it; it is the reference the kernel is tested against.
    """
    domain = field.domain
    if domain.basis is not Basis.DIRICHLET:
        raise ValueError("odd extension applies to Dirichlet-basis fields only")
    n = domain.n
    big = DomainSpec(n=2 * n, box=2 * domain.box, basis=Basis.TORUS)
    block = -field.coeffs.astype(np.complex128)
    coeffs = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    coeffs[1:n, 1:n] = block
    coeffs[1:n, 2 * n - 1 : n : -1] = -block
    coeffs[2 * n - 1 : n : -1, 1:n] = -block
    coeffs[2 * n - 1 : n : -1, 2 * n - 1 : n : -1] = block
    return SpectralField(coeffs=coeffs, domain=big)


def restrict_odd_extension(field: SpectralField, domain: DomainSpec) -> SpectralField:
    """Project a doubled-torus field back onto the sine basis of ``domain``.

    Inverse of :func:`embed_odd_extension` on its image; for a general torus
    field this extracts the odd-odd component (the part a sine series can
    represent).
    """
    if domain.basis is not Basis.DIRICHLET:
        raise ValueError("restriction targets a Dirichlet-basis domain")
    n = domain.n
    if field.domain.n != 2 * n or field.domain.basis is not Basis.TORUS:
        raise ValueError("field must live on the doubled torus of the target domain")
    coeffs = -field.coeffs[1:n, 1:n].real.copy()
    return SpectralField(coeffs=coeffs, domain=domain)


@dataclass(frozen=True)
class _TransportPlan:
    """Read-only multipliers of the transport kernel on one torus domain.

    The 2/3 rule keeps the columns ``0 .. c``, ``c = floor(n/3)``, of the
    ``rfft2`` half plane, so every array is an ``(n, c+1)`` block of them:
    ``synth`` stacks the multipliers taking theta's coefficients to the grid
    values of u1, u2 and theta (dealias mask and the synthesis scale ``1/L``
    folded in; the transforms are unnormalized); ``div`` stacks the symbols
    of ``-d/dx_j`` with the mask and the analysis scale ``L/n^2`` folded in;
    ``symbol`` holds the ``-Lap`` eigenvalue of each mode, from which a
    march forms its ETD tables and a sample its Sobolev weights.  No table
    covers the full layout.  The kernel assumes real fields, i.e.
    conjugate-symmetric coefficients, which the block determines.

    The plan is the one owner of that block: :meth:`kept` cuts it from a
    full FFT-layout array or table, :meth:`assemble` builds the full layout
    back (zero middle columns ``c+1 .. n-c-1``, conjugate mirror
    ``n-c .. n-1``), :meth:`is_real` and :meth:`confined` tell whether the
    block determines an array, as a march requires, and :meth:`dealiased`
    whether it has no mode past the cut.  :meth:`synthesize` is the one
    pruned synthesis, which :meth:`transport`, :meth:`theta` and the
    estimate battery's ``(-Lap)^a theta`` run.

    The plan is shared by every caller of its domain, so it holds no
    writable state: :meth:`scratch` gives the caller every buffer the
    kernel writes, and :meth:`synthesis_scratch` the two that
    :meth:`synthesize` alone reads, and the caller owns ``out``.  Every
    transform is a per-axis ``numpy.fft`` pass into one of those buffers,
    and every elementwise pass runs on contiguous arrays, so an evaluation
    on a contiguous block allocates no array.
    """

    n: int
    synth: np.ndarray
    div: np.ndarray
    symbol: np.ndarray

    def scratch(self) -> tuple[np.ndarray, ...]:
        """The buffers :meth:`transport` writes: ``(half, theta, u, spectrum, temp)``.

        ``half`` and ``temp`` are :meth:`synthesis_scratch`; ``theta`` and
        ``u`` are ``(n, n)`` grids; ``spectrum`` is an ``(n, n/2+1)`` half
        plane for each flux's ``rfft``.
        """
        n = self.n
        half, temp = self.synthesis_scratch()
        spectrum = np.empty(half.shape, dtype=np.complex128)
        return half, np.empty((n, n)), np.empty((n, n)), spectrum, temp

    def synthesis_scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """The buffers :meth:`synthesize` writes besides its grid: ``(half, temp)``.

        ``half`` is a zeroed ``rfft2`` half plane whose kept columns carry
        each synthesis, ``temp`` a kept block.
        """
        return (
            np.zeros((self.n, self.n // 2 + 1), dtype=np.complex128),
            np.empty(self.symbol.shape, dtype=np.complex128),
        )

    def kept(self, array: np.ndarray) -> np.ndarray:
        """View of the block of a full-layout array that :meth:`transport` returns."""
        return array[:, : self.div.shape[2]]

    def transport(
        self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...], out: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` on the kept block, and max|u|, of a field.

        The block is written into ``out`` (a new array if ``None``), which is
        returned.  Theta is synthesized first; then u1 and u2 stream one at a
        time through the second grid: its extremes give the speed, it is
        multiplied by theta in place, and the flux is analyzed into
        ``out`` (u1) or into ``temp`` and added to ``out`` (u2).
        """
        _, theta, u, spectrum, temp = scratch
        if out is None:
            out = np.empty_like(temp)
        self.theta(coeffs, scratch, theta)
        extremes = []
        for mult, div, dest in zip(self.synth[:2], self.div, (out, temp)):
            self.synthesize(mult, coeffs, scratch, u)
            extremes += (u.max(), -u.min())
            u *= theta
            np.fft.rfft(u, axis=1, out=spectrum)
            np.fft.fft(self.kept(spectrum), axis=0, out=temp)
            np.multiply(div, temp, out=dest)
        out += temp
        return out, float(max(extremes))

    def speed(self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...]) -> float:
        """max|u| of a field, without forming the transport products.

        u1 and u2 are synthesized in turn into the ``u`` grid of the
        caller's :meth:`scratch`.
        """
        u = scratch[2]
        extremes = []
        for mult in self.synth[:2]:
            self.synthesize(mult, coeffs, scratch, u)
            extremes += (u.max(), -u.min())
        return float(max(extremes))

    def is_real(self, full: np.ndarray) -> bool:
        """Whether the mirror columns are the block's exact mirror and column 0 its own.

        Column 0, which an axis-0 ``fft`` leaves a few ulps off, may miss by
        ``1e-12`` of the block's largest ``|coefficient|`` (``validate``'s tolerance).
        """
        block = self.kept(full)
        cut = block.shape[1] - 1
        if not np.array_equal(full[:, self.n - cut :], _conjugate_mirror(block)):
            return False
        column = block[:, 0]
        gap = np.abs(column - np.conj(column[-np.arange(self.n) % self.n])).max()
        return bool(gap <= 1e-12 * np.abs(block).max())

    def confined(self, full: np.ndarray) -> bool:
        """Whether the middle columns of a full-layout array, which no block holds, are zero."""
        cut = self.div.shape[2] - 1
        return not full[:, cut + 1 : self.n - cut].any()

    def assemble(self, block: np.ndarray) -> np.ndarray:
        """A new full-layout array: a block, zero middle columns and the block's conjugate mirror."""
        n, cut = self.n, block.shape[1] - 1
        full = np.empty((n, n), dtype=np.complex128)
        full[:, : cut + 1] = block
        full[:, cut + 1 : n - cut] = 0.0
        full[:, n - cut :] = _conjugate_mirror(block)
        return full

    def multiplicity(self) -> np.ndarray:
        """How often each block mode occurs in the full layout: column 0 once, columns 1 .. c twice.

        Columns ``1 .. c`` stand for their conjugate mirror too, so a sum of
        ``|coefficient|^2`` over the full layout is this weighted sum over
        the block.
        """
        weight = np.full(self.div.shape[1:], 2.0)
        weight[:, 0] = 1.0
        return weight

    def dealiased(self, full: np.ndarray) -> bool:
        """Whether a full-layout array is zero at every mode past the 2/3 cut."""
        cut = self.div.shape[2] - 1
        beyond = slice(cut + 1, self.n - cut)
        return not (full[beyond].any() or full[:, beyond].any())

    def theta(
        self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...], grid: np.ndarray | None = None
    ) -> np.ndarray:
        """Grid values of the 2/3-rule cut of a field, in ``grid`` (a new array if ``None``).

        The transport's theta, and the grid of a :meth:`dealiased` field.
        """
        return self.synthesize(self.synth[2], coeffs, scratch, grid)

    def synthesize(
        self,
        mult: np.ndarray,
        coeffs: np.ndarray,
        scratch: tuple[np.ndarray, ...],
        grid: np.ndarray | None,
    ) -> np.ndarray:
        """Write the grid values of ``mult * coeffs`` (a block or full layout) into ``grid``.

        ``scratch`` is :meth:`scratch` or :meth:`synthesis_scratch`.
        """
        # The product goes to the contiguous temp block, the last in scratch
        # and possibly coeffs itself (numpy buffers an elementwise pass over
        # a strided view); the axis-0 pass writes the kept columns of the
        # zeroed half plane, the first, so the axis-1 pass needs no padding.
        half, *_, temp = scratch
        np.multiply(mult, self.kept(coeffs), out=temp)
        np.fft.ifft(temp, axis=0, norm="forward", out=self.kept(half))
        return np.fft.irfft(half, n=self.n, axis=1, norm="forward", out=grid)


@dataclass(frozen=True)
class _DirichletPlan:
    """Read-only multipliers of the transport kernel on a Dirichlet box.

    The kernel runs on the box's own grid ``x = (i, j) L/n``, ``0 <= i, j <= n``.
    Theta is a sine-sine series, u1 = d2 psi is sine-cosine and u2 = -d1 psi
    cosine-sine (psi the stream function ``Lambda^-1 theta``), so type-1 sine
    and cosine transforms synthesize them exactly; the fluxes u1 theta
    (cosine-sine) and u2 theta (sine-cosine) go back through the mirrored
    pair.  With inputs cut at n/3 every product mode stays below n, so the
    grid is alias-free.

    Each type-1 transform is an ``rfft`` of length ``2n`` of an extended
    line: the real part is the cosine transform of the line's even part and
    minus the imaginary part the sine transform of its odd part (Martucci,
    IEEE Trans. Signal Process. 42, 1994).  So one line carries a cosine
    and a sine transform at once, and the kernel pairs them: u1 with u2 on
    both synthesis axes, the two fluxes on both analysis axes.  An
    evaluation is about ``4.3 n`` line transforms of length ``2n``.

    The arrays cover only the modes the 2/3 rule keeps, as square blocks of
    sine indices.  ``synth`` covers the input cut ``k <= n/3``: the first
    half and the mirror half of the paired u1/u2 lines of the first pass
    (the u1 and u2 multipliers with their signs folded in), then those of
    theta's lines, with the synthesis scale ``1/(2L)`` folded in (the
    unnormalized transforms carry a factor 2 per axis).  ``div`` covers
    the output cut ``k <= 2n/3`` and stacks the symbols ``(pi/L) k_j``
    taking the cosine coefficients of the fluxes to the sine coefficients
    of ``-div(u theta)``, with the analysis scale ``L/(2 n^2)`` and the
    sign of the analysis pairing folded in; ``symbol`` holds the ``-Lap``
    eigenvalue of each mode of the output block.  Transforms skip the
    lines outside these blocks.

    :meth:`transport` writes the transport on the output block into
    ``out``, and :meth:`assemble` pads a block back to the full ``(n-1,
    n-1)`` layout.  A march keeps the block as its state, so it takes only
    arrays that are zero outside it (:meth:`confined`); :meth:`dealiased`
    says whether an array is zero past the input cut ``n/3``, the modes
    the kernel reads.  Every buffer the kernel writes comes from
    :meth:`scratch` and, like ``out``, belongs to the caller, since the plan
    is shared by every caller of its domain.  A non-finite value passes
    through silently, as in the march, to the caller's finite check.
    """

    n: int
    synth: np.ndarray
    div: np.ndarray
    symbol: np.ndarray

    def scratch(self) -> tuple[np.ndarray, ...]:
        """The buffers :meth:`transport` writes, one extended input and one output per pass.

        In order: the zeroed ``(2m, 2n)`` lines of the first synthesis pass
        (m = floor(n/3): u1/u2 pairs, then theta) and their ``rfft``; the
        zeroed ``(2n, 2n)`` columns of the second (u1/u2 pairs on the grid
        columns ``0 .. n``, then theta's) and their ``rfft``, the grid,
        whose real part is u2 and imaginary part u1 and theta; the interior
        ``(n-1, n-1)`` pairs ``u2 + i u1`` and theta; the zeroed ``(2n,
        n-1)`` flux columns and their ``rfft``; the zeroed ``(c, 2n)`` flux
        rows (c = floor(2n/3)) and their ``rfft``; and an output block.
        Each extension has its own buffer, whose zero padding no call
        writes.
        """
        n, m, c = self.n, self.synth.shape[1], self.div.shape[1]
        return (
            np.zeros((2 * m, 2 * n)),
            np.empty((2 * m, n + 1), dtype=np.complex128),
            np.zeros((2 * n, 2 * n)),
            np.empty((n + 1, 2 * n), dtype=np.complex128),
            np.empty((n - 1, n - 1), dtype=np.complex128),
            np.empty((n - 1, n - 1)),
            np.zeros((2 * n, n - 1)),
            np.empty((n + 1, n - 1), dtype=np.complex128),
            np.zeros((c, 2 * n)),
            np.empty((c, n + 1), dtype=np.complex128),
            np.empty((c, c)),
        )

    def kept(self, array: np.ndarray) -> np.ndarray:
        """View of the block of a full-layout array that :meth:`transport` returns."""
        cut = self.div.shape[1]
        return array[:cut, :cut]

    def transport(
        self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...], out: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` on the kept block, written into ``out``, and max|u|.

        The first analysis pass runs down the grid columns on lines whose
        first half is ``(u1 - u2) theta`` and mirror half ``(u1 + u2)
        theta``, the even part u1 theta and the odd part minus u2 theta: its
        real part is the cosine transform of u1 theta, its imaginary part
        the sine transform of u2 theta.  The second runs along the rows on
        the pairs of those transforms.
        """
        n, c = self.n, self.div.shape[1]
        *_, grid, pair, theta, flux, flux_hat, rows, rows_hat, temp = scratch
        if out is None:
            out = np.empty_like(temp)
        with np.errstate(over="ignore", invalid="ignore"):
            speed = self._synthesize(coeffs, scratch)
            theta[...] = grid.imag[1:n, n + 1 :]
            pair *= 1 - 1j  # (u1 + u2) + i (u1 - u2)
            np.multiply(pair.imag, theta, out=flux[1:n])
            np.multiply(pair.real, theta, out=flux[2 * n - 1 : n : -1])
            np.fft.rfft(flux, axis=0, out=flux_hat)
            # real part: u1 theta's cosine rows 1 .. c, imaginary: u2 theta's sine rows
            _pair_lines(flux_hat[1 : c + 1], rows[:, 1:n], rows[:, 2 * n - 1 : n : -1])
            np.fft.rfft(rows, axis=1, out=rows_hat)
            np.multiply(self.div[0], rows_hat.imag[:, 1 : c + 1], out=out)
            out += np.multiply(self.div[1], rows_hat.real[:, 1 : c + 1], out=temp)
        return out, speed

    def speed(self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...]) -> float:
        """max|u| of a field, without forming the transport products.

        The velocity is synthesized into the caller's :meth:`scratch`.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._synthesize(coeffs, scratch)

    def is_real(self, full: np.ndarray) -> bool:
        """Always true: sine coefficients are real."""
        return True

    def confined(self, full: np.ndarray) -> bool:
        """Whether a full-layout array is zero outside the block."""
        cut = self.div.shape[1]
        return not (full[cut:].any() or full[:cut, cut:].any())

    def assemble(self, block: np.ndarray) -> np.ndarray:
        """A new full-layout array: a block padded with zeros."""
        full = np.zeros((self.n - 1, self.n - 1))
        self.kept(full)[...] = block
        return full

    def multiplicity(self) -> np.ndarray:
        """How often each block mode occurs in the full layout: once."""
        return np.ones(self.div.shape[1:])

    def dealiased(self, full: np.ndarray) -> bool:
        """Whether a full-layout array is zero at every mode past the input cut ``n/3``."""
        cut = self.synth.shape[1]
        return not (full[cut:].any() or full[:, cut:].any())

    def _synthesize(self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...]) -> float:
        """Write the grid of u1, u2 and theta and the interior pairs ``u2 + i u1``; return max|u|.

        The first pass runs along the rows of the ``m`` nonzero coefficient
        rows, the second down the grid columns, whose lines are nonzero on
        ``m`` rows and their mirror only.
        """
        n, m = self.n, self.synth.shape[1]
        lines, lines_hat, columns, grid, pair = scratch[:5]
        block = coeffs[:m, :m]
        for k, half in enumerate((lines[:m], lines[m:])):
            np.multiply(self.synth[2 * k], block, out=half[:, 1 : m + 1])
            np.multiply(self.synth[2 * k + 1], block, out=half[:, 2 * n - 1 : 2 * n - m - 1 : -1])
        np.fft.rfft(lines, axis=1, out=lines_hat)
        # per coefficient row on the grid columns: real part -u1 (sine rows),
        # imaginary part u2 (cosine rows)
        ends = slice(1, m + 1), slice(2 * n - 1, 2 * n - m - 1, -1)
        _pair_lines(lines_hat[:m], *(columns[rows, : n + 1] for rows in ends))
        # imaginary part: minus theta's sine rows
        sines = lines_hat.imag[m:, 1:n]
        columns[ends[0], n + 1 :] = sines
        np.negative(sines, out=columns[ends[1], n + 1 :])
        np.fft.rfft(columns, axis=0, out=grid)
        pair[...] = grid[1:n, 1:n]
        # u2 vanishes on columns 0 and n, u1 on rows 0 and n
        parts = (pair.view(np.float64), grid.real[:: n, 1:n], grid.imag[1:n, : n + 1 : n])
        return float(max(max(part.max(), -part.min()) for part in parts))


def _pair_lines(spectrum: np.ndarray, first: np.ndarray, mirror: np.ndarray) -> None:
    """Write the halves of the lines pairing a spectrum's real and imaginary parts.

    A line whose first half is ``re + im`` and mirror half ``im - re`` has
    ``re`` as its odd part and ``im`` as its even part, so its ``rfft``
    carries the sine transform of ``re`` and the cosine transform of ``im``.
    The spectrum is multiplied by ``1 - i`` in place, which forms both
    halves exactly.
    """
    spectrum *= 1 - 1j
    first[...] = spectrum.real
    mirror[...] = spectrum.imag


@functools.lru_cache(maxsize=16)
def _plan(domain: DomainSpec) -> _TransportPlan | _DirichletPlan:
    """The transport plan of a domain, built once per domain."""
    n = domain.n
    if domain.basis is Basis.DIRICHLET:
        # the 2/3 rule keeps k <= n/3 on input and k <= 2n/3 in the product
        k = np.arange(1, n, dtype=float)
        k1, k2 = np.broadcast_arrays(k[: n // 3, None], k[None, : n // 3])
        mag = np.hypot(k1, k2)
        # u = (d2 psi, -d1 psi): sine-cosine coefficient k2/|k|, cosine-sine -k1/|k|
        u1, u2, ones = k2 / mag, -k1 / mag, np.ones(mag.shape)
        # a u line's even part is -u1's cosine row, its odd part -u2's sine row
        synth = np.stack([-(u1 + u2), u2 - u1, ones, -ones]) / (2.0 * domain.box)
        cut = k[: 2 * n // 3]
        k1, k2 = np.broadcast_arrays(cut[:, None], cut[None, :])
        # the analysis pairs leave minus the sine transform of u1 theta
        div = np.stack([-k1, k2]) * (math.pi / (2.0 * n * n))
        scale = math.pi / domain.box
        symbol = (scale * scale) * (k1**2 + k2**2)
        for table in (synth, div, symbol):
            table.setflags(write=False)
        return _DirichletPlan(n=n, synth=synth, div=div, symbol=symbol)
    # the kept columns k2 = 0 .. n/3 of the rfft2 half plane, every row k1;
    # each table is formed as DomainSpec forms its full-layout symbols, so
    # it equals their block bit for bit
    k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    k2 = np.arange(n // 3 + 1, dtype=float)[None, :]
    mask = np.abs(k1) <= n / 3.0  # the 2/3 rule, which k2 meets on every kept column
    scale = 2.0 * math.pi / domain.box
    mag = np.hypot(k1, k2)
    mag[0, 0] = np.inf
    # the Nyquist row k1 = -n/2, which the mask drops too, has no conjugate partner
    nyquist = np.abs(k1) == n // 2
    r1, r2 = (np.where(nyquist, 0.0, k / mag) for k in (k1, k2))
    d1, d2 = np.where(nyquist, 0.0, 1j * scale * k1), 1j * scale * k2
    # u = (-R2 theta, R1 theta), R_j having the multiplier -i k_j/|k|
    synth = np.stack([1j * r2, -1j * r1, np.ones(mag.shape)])
    synth *= mask / domain.box
    div = np.stack(np.broadcast_arrays(d1, d2)) * (mask * (-domain.box / (n * n)))
    symbol = (scale * scale) * (k1**2 + k2**2)
    for table in (synth, div, symbol):
        table.setflags(write=False)
    return _TransportPlan(n=n, synth=synth, div=div, symbol=symbol)


@functools.lru_cache(maxsize=32)
def _block_weights(domain: DomainSpec, s: float) -> tuple:
    """The Sobolev weights ``|k|^{2s}`` of the kept block, times ``plan.multiplicity()``.

    A sum of ``|coefficient|^2`` times these over the block is the sum over
    the full layout of any array the block determines
    (:func:`~sqglab.spectral._weighted_norms`); see
    :func:`~sqglab.spectral._power_weights` for the zero mode and
    overflow.  Built once per domain and order.
    """
    plan = _plan(domain)
    return _power_weights(plan.symbol, s, plan.multiplicity())


def nonlinear_rhs(theta: SpectralField) -> SpectralField:
    """Transport term ``-div(u theta)`` of the field cut at n/3.

    The input is dealiased first (modes ``k <= n/3`` kept), so the quadratic
    product is exactly alias-free and ``<nonlinear_rhs(theta), dealias(theta)>
    = 0`` to round-off for any field.  The two bases keep different output
    modes: the torus cuts the output at n/3 again, so there the pairing with
    ``theta`` itself vanishes for any field; the Dirichlet output keeps the
    product's modes up to 2n/3, so the pairing with ``theta`` vanishes only
    when theta has no modes above n/3.  Dirichlet fields are transformed on
    the box's own grid with type-1 sine and cosine transforms.
    """
    plan = _plan(theta.domain)
    rhs = plan.assemble(plan.transport(theta.coeffs, plan.scratch())[0])
    return SpectralField(coeffs=rhs, domain=theta.domain)


def advective_speed(theta: SpectralField) -> float:
    """Maximum pointwise speed ``max |u|`` of the induced velocity.

    Synthesizes the velocity components directly (no transport products), so
    it stays finite for any finite field -- including the huge pre-divergence
    states the stepper inspects when it aborts a run.  Matches the speed used
    in the transport term: the input is dealiased first, and the maximum is
    taken over the same grid.
    """
    plan = _plan(theta.domain)
    return plan.speed(theta.coeffs, plan.scratch())


def default_dt(theta0: SpectralField) -> float:
    """Step size meeting the advective CFL limit for the initial field."""
    domain = theta0.domain
    speed = max(1.0, advective_speed(theta0))
    return CFL_LIMIT * (domain.box / domain.n) / speed


def _run_dt(dt: float | None, theta0: SpectralField, t_end: float) -> float:
    """The step a run is given: ``dt``, else the CFL step of ``theta0``, at most ``t_end``."""
    return min(default_dt(theta0) if dt is None else dt, t_end)


# ----------------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------------


def _forcing_coeffs(domain: DomainSpec, params: SqgParams) -> np.ndarray | None:
    forcing = params.forcing
    if forcing is None:
        return None
    if forcing.domain != domain:
        raise ValueError("forcing must live on the same domain as the evolved field")
    return forcing.coeffs


def _kept_block(plan: _TransportPlan | _DirichletPlan, full: np.ndarray, name: str) -> np.ndarray:
    """The kept block of a full-layout state or forcing, which must determine the array.

    Raises :class:`FieldError` naming ``name`` otherwise: a torus array
    that is not conjugate-symmetric where its block reaches
    (``plan.is_real``) is a complex field, which the equation does not
    evolve, and an array with modes outside the block is rejected rather
    than dealiased, so a run evolves exactly the field it was given.
    """
    if not plan.is_real(full):
        raise FieldError(
            name,
            f"{name} is not a real field: its coefficients are not conjugate-symmetric",
        )
    if not plan.confined(full):
        raise FieldError(
            name,
            f"{name} has modes outside the block the 2/3 rule keeps, which the march "
            "does not evolve; dealias it first",
        )
    return plan.kept(full)


def _sampled_run(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    sample: Callable[[SimulationState], Mapping[str, float] | None] | None = None,
    scratch: Sequence[np.ndarray] | None = None,
    stacklevel: int = 2,
) -> Generator[SimulationState, None, RunResult]:
    """:func:`integrate`'s run, advanced one sample per resumption.

    The first resumption checks the run, records the initial state and
    yields it; each later one takes ETD2RK steps of ``config.step_dt`` to
    the next sample, records it (its series row, the ``sample`` hook, a
    pending CFL warning) and yields the sampled :class:`SimulationState`,
    a new array the caller may keep.  The run's :class:`RunResult` is the
    value of the final ``StopIteration``.  Its last step is labelled
    ``state.t + config.t_end``, so the run lands exactly on its horizon.
    Between resumptions the run holds only the latest sampled state, its
    final state to be.  A CFL warning names the frame ``stacklevel`` levels
    up from this one, as :func:`warnings.warn` counts: 2 is the frame that
    resumed the run.

    The stepped state is the plan's kept block: on the torus the contiguous
    ``(n, n/3 + 1)`` columns of the real-FFT half plane, whose conjugate
    mirror the plan derives, on the Dirichlet box the ``[:2n/3, :2n/3]``
    corner.  The transport touches only those modes, so the ETD update, the
    phi_1/phi_2 terms and the finite check all run on the block, and the
    state and forcing must be zero outside it (checked before the first
    sample).  ``plan.assemble(block)`` gives the full layout, which equals
    the full-layout update bit for bit.

    The run owns its buffers: the block alternates between two arrays, the
    transport writes through ``scratch`` (the plan's scratch buffers,
    allocated here unless the caller gives them, which the initial
    sample's speed uses too) into ``n0`` and, for the corrector, ``n1``,
    which first holds the phi_1 term, so a step allocates no array beyond
    the finite check's mask.  A caller that
    passes a list may refill it with another set of buffers between
    resumptions, so that runs taking turns on a thread share that thread's
    set.  The plan never holds these buffers, since runs on one domain
    share it.

    A step runs with overflow warnings silenced and is checked once at its
    end: IEEE arithmetic carries a non-finite value from any intermediate (a
    velocity, a flux, the predictor) into the step's speed or coefficients,
    so that check is the blow-up signal.

    Raises
    ------
    FieldError
        Naming ``theta`` or ``forcing`` if that array is not determined by
        its kept block: a torus array that is not conjugate-symmetric there
        (a complex field), or any array with a nonzero mode outside the
        block.
    BlowUpError
        At the time of the failed step, with the advective CFL number of
        the last accepted state (``inf`` if its velocity overflows).
    """
    domain = state.theta.domain
    dt = config.step_dt
    n_steps = config.n_steps
    plan = _plan(domain)
    coeffs = state.theta.coeffs
    block = _kept_block(plan, coeffs, "theta")
    forcing = _forcing_coeffs(domain, params)
    if forcing is not None:
        forcing = _kept_block(plan, forcing, "forcing").copy()
    decay, dt_phi1, dt_phi2 = _etd_tables(plan.symbol, params, dt)
    dt_phi1 *= dt
    dt_phi2 *= dt
    if scratch is None:
        scratch = plan.scratch()
    series = DiagnosticsSeries(meta={"dt": dt})
    cells_per_length = domain.n / domain.box

    def rhs(block: np.ndarray, out: np.ndarray) -> float:
        speed = plan.transport(block, scratch, out)[1]
        if forcing is not None:
            out += forcing
        return speed

    def record(current: SimulationState, speed: float, peak: float, peak_t: float) -> None:
        peak_cfl = dt * peak * cells_per_length
        if peak_cfl > CFL_LIMIT:
            warnings.warn(
                f"advective CFL {peak_cfl:.3g} exceeds {CFL_LIMIT} at t={peak_t:.6g}",
                CflWarning,
                stacklevel=stacklevel + 1,  # this frame is nested in the run's
            )
        row = {"cfl": dt * speed * cells_per_length}
        if sample is not None:
            row.update(sample(current) or {})
        series.append(current.t, row)

    current = state
    speed = plan.speed(block, scratch)
    record(current, speed, speed, state.t)
    yield current
    buffers = tuple(np.empty_like(decay, dtype=coeffs.dtype) for _ in range(2))
    n0, n1 = (np.empty_like(decay, dtype=coeffs.dtype) for _ in range(2))
    peak, peak_t = 0.0, state.t
    for k in range(1, n_steps + 1):
        t = state.t + config.t_end if k == n_steps else state.t + k * dt
        new_block = buffers[k % 2]
        with np.errstate(over="ignore", invalid="ignore"):
            last = rhs(block, n0)  # the speed of the last accepted state
            np.multiply(decay, block, out=new_block)
            new_block += np.multiply(dt_phi1, n0, out=n1)  # n1 is free until the corrector
            # Cox-Matthews corrector: predictor + dt phi2 (N(predictor) - n0)
            speed = max(last, rhs(new_block, n1))
            n1 -= n0
            n1 *= dt_phi2
            new_block += n1
            if not (math.isfinite(speed) and np.isfinite(new_block).all()):
                last = last if math.isfinite(last) else math.inf
                raise BlowUpError(t, dt * last * domain.n / domain.box)
        block = new_block
        if speed > peak:
            peak, peak_t = speed, t
        if k % config.sample_every == 0 or k == n_steps:
            # a new array: the next steps overwrite the block, and the field owns its array
            theta = SpectralField(coeffs=plan.assemble(block), domain=domain)
            current = SimulationState(t=t, theta=theta)
            record(current, speed, peak, peak_t)
            peak = 0.0
            yield current
    return RunResult(series=series, final=current)


def integrate(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    *,
    sample: Callable[[SimulationState], Mapping[str, float] | None] | None = None,
) -> RunResult:
    """March from ``state`` to ``state.t + config.t_end``, sampling diagnostics.

    Samples land every ``sample_every`` steps and always at the initial and
    final time.  Each sampled state goes to ``sample`` (if given), which
    returns a mapping of extra series columns or ``None``; so per-sample
    work streams instead of needing every state kept (pass
    ``states.append`` to keep the trajectory).  The states it gets are
    ``state`` itself and then new arrays assembled from the run's kept
    block, which the caller may keep.  ``state`` and the forcing must be
    zero outside that block (dealiased fields are), and are checked before
    the first sample.  The advective CFL number is checked at every step:
    if it exceeded :data:`CFL_LIMIT` at any step since the previous sample,
    the next sample emits a :class:`~sqglab.errors.CflWarning` with the
    largest value (escalate warnings to errors for a strict run).

    Returns
    -------
    RunResult
        The diagnostics series (column ``cfl`` always comes first and holds
        the CFL number of the sampled step; ``meta["dt"]`` is the step taken)
        and the final state.

    Raises
    ------
    FieldError
        Naming ``theta`` for a torus state that is not a real field, and
        ``theta`` or ``forcing`` for one with a mode outside the kept block.
    BlowUpError
        At the first step that produces a non-finite value.
    """
    run = _sampled_run(state, params, config, sample, stacklevel=3)
    while True:
        try:
            next(run)
        except StopIteration as end:
            return end.value


# ----------------------------------------------------------------------------
# Picard/Simpson reference integrator
# ----------------------------------------------------------------------------


def _simpson_weights(m: int, h: float) -> np.ndarray:
    """Prefix quadrature weights W[i, j] for integrals over [0, i h], j <= m.

    Even prefixes use composite Simpson; odd prefixes append the half-panel
    rule ``h (5 f_{i-1} + 8 f_i - f_{i+1}) / 12`` to the even part, keeping
    third-order accuracy at every node without ghost points.
    """
    weights = np.zeros((m + 1, m + 1))
    for i in range(2, m + 1, 2):
        weights[i, 0 : i + 1 : 2] += 2 * h / 3
        weights[i, 1:i:2] += 4 * h / 3
        weights[i, 0] -= h / 3
        weights[i, i] -= h / 3
    for i in range(1, m + 1, 2):
        if i >= 3:
            weights[i, : i] = weights[i - 1, : i]
        weights[i, i - 1] += 5 * h / 12
        weights[i, i] += 8 * h / 12
        weights[i, i + 1] -= h / 12
    return weights


def picard_reference(
    state: SimulationState,
    params: SqgParams,
    t_end: float,
    *,
    iterations: int = 8,
    subintervals: int = 32,
    rtol: float = 1e-3,
) -> SimulationState:
    """Fixed-point solve of the Duhamel integral form, as a reference solution.

    Iterates ``theta(t) = exp(-t A) theta0 + int_0^t exp(-(t-s) A) N(theta(s)) ds``
    on a uniform grid of ``subintervals`` nodes with Simpson prefix quadrature,
    starting from the pure decay profile.  All kernels use nonpositive
    exponents except the single look-ahead node of odd prefixes, so the
    evaluation is overflow-safe for stiff modes.

    Raises
    ------
    ConvergenceError
        If the last sweep still changed the final-time iterate by more than
        ``rtol`` in relative L2 norm.
    """
    if iterations < 3:
        raise ValueError(f"iterations must be at least 3, got {iterations}")
    if subintervals < 2 or subintervals % 2 != 0:
        raise ValueError(f"subintervals must be even and >= 2, got {subintervals}")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")

    domain = state.theta.domain
    plan = _plan(domain)
    forcing = _forcing_coeffs(domain, params)
    scratch = plan.scratch()
    m = int(subintervals)
    h = float(t_end) / m
    rate = params._rate(domain.laplacian_symbol)
    decay_h = np.exp(-rate * h)  # one-node kernel; powers give all i-j >= 0
    growth_h = np.exp(rate * h)  # only ever used for the j = i+1 look-ahead
    weights = _simpson_weights(m, h)

    theta0 = state.theta.coeffs
    profile = np.empty((m + 1, *theta0.shape), dtype=theta0.dtype)
    homogeneous = np.empty_like(profile)
    homogeneous[0] = theta0
    for i in range(1, m + 1):
        homogeneous[i] = decay_h * homogeneous[i - 1]
    profile[:] = homogeneous

    final_change = np.inf
    for _ in range(iterations):
        sources = np.empty_like(profile)
        for j in range(m + 1):
            sources[j] = plan.assemble(plan.transport(profile[j], scratch)[0])
            if forcing is not None:
                sources[j] += forcing
        new_profile = homogeneous.copy()
        for i in range(1, m + 1):
            kernel = np.ones_like(rate)
            for j in range(i, -1, -1):  # kernel = exp(-rate h (i - j))
                w = weights[i, j]
                if w != 0.0:
                    new_profile[i] += w * kernel * sources[j]
                kernel = kernel * decay_h
            if i + 1 <= m and weights[i, i + 1] != 0.0:
                new_profile[i] += weights[i, i + 1] * growth_h * sources[i + 1]
        norm_new = np.linalg.norm(new_profile[m])
        final_change = np.linalg.norm(new_profile[m] - profile[m]) / max(norm_new, 1e-300)
        profile = new_profile
    if not np.isfinite(final_change) or final_change > rtol:
        raise ConvergenceError(
            f"picard iteration did not converge: relative change {final_change:.3e} "
            f"after {iterations} sweeps (tolerance {rtol:.1e})"
        )
    theta = SpectralField(coeffs=profile[m], domain=domain)
    return SimulationState(t=state.t + float(t_end), theta=theta)
