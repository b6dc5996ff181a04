"""Time integration of the dissipative surface quasi-geostrophic equation.

The model advanced here is

    d theta/dt + u . grad theta + kappa (-Lap)^alpha theta + lam theta = f,

with the velocity recovered from theta by Riesz transforms (periodic box) and
``alpha`` restricted to (1/2, 1] where the advection term is controlled by the
dissipation.  The linear part is diagonal per mode, so the workhorse scheme is
exponential time differencing: the stiff factor ``exp(-a dt)`` is applied
exactly and only the transport term is approximated (first order, or the
second-order Runge-Kutta corrector of Cox and Matthews).

Each basis has one transport kernel on raw arrays, driven by a plan of
read-only multipliers cached per domain, with no intermediate field objects.
The kernel returns the transport only on the block of modes the 2/3 rule
keeps, and the plan adds such a block into a full-layout array.  On the torus
the block is the columns ``0 .. n/3`` of the real-FFT half plane (the plan
adds their conjugate mirror too), so one evaluation is three inverse real
FFTs (u1, u2 and theta) and two forward ones (the fluxes), whose complex
passes skip the zeroed columns.  On a Dirichlet box the
kernel stays on the box's own ``(n+1)^2`` grid: theta is a sine-sine series,
the velocity components are sine-cosine and cosine-sine series, and type-1
sine/cosine transforms synthesize them and analyze the two fluxes, alias-free
under the same 1/3 cut; the block is the modes up to ``2n/3``.  Odd
extension to the doubled torus (:func:`embed_odd_extension`), which carries
the same information, is kept as the reference the kernel is tested against.

Runs take uniform steps that land exactly on the horizon.  One loop serves
both bases.  Its state is the kept block itself, in two buffers it owns, so
the ETD update and the per-step check for non-finite values (the blow-up
signal) run on the block only; every step is also checked against the
advective CFL limit.  The modes outside the block evolve by decay and
forcing alone, and only when a state or forcing has any.  Sampled states
are assembled into new full-layout arrays (on the torus the block's
conjugate mirror fills the other columns) and stream to the caller's one
``sample`` hook, which may keep them and returns the sample's extra series
columns.

A slow Picard/Simpson fixed-point integrator over the Duhamel form serves as
a scheme-independent reference for convergence studies.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import BlowUpError, CflWarning, ConvergenceError, FieldError
from .series import DiagnosticsSeries
from .spectral import Basis, DomainSpec, SpectralField

__all__ = [
    "Scheme",
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
    "step",
    "integrate",
    "picard_reference",
    "embed_odd_extension",
    "restrict_odd_extension",
    "CFL_LIMIT",
]

#: Advisory advective CFL ceiling ``dt * max|u| * n / L``; crossing it emits
#: a :class:`~sqglab.errors.CflWarning` at the next sample.
CFL_LIMIT = 0.5

#: Below this value of ``|a dt|`` the phi functions switch to Taylor series.
_PHI_SERIES_CUT = 1e-4


class Scheme(str, Enum):
    """Available exponential time-differencing schemes."""

    ETD1 = "etd1"
    ETD2RK = "etd2rk"


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

    def linear_symbol(self, domain: DomainSpec) -> np.ndarray:
        """Per-mode decay rate ``kappa |k|^(2 alpha) + lam`` (zero mode: lam)."""
        sym = domain.laplacian_symbol
        rate = np.full(sym.shape, float(self.lam))
        positive = sym > 0
        with np.errstate(over="ignore"):  # a huge kappa makes the rate inf
            rate[positive] += self.kappa * sym[positive] ** self.alpha
        rate.setflags(write=False)
        return rate


@dataclass(frozen=True)
class StepperConfig:
    """Numerical parameters of a run: step size, horizon, scheme, sampling.

    ``dt`` is the largest step allowed; the run takes :attr:`n_steps` uniform
    steps of :attr:`step_dt` and ends exactly at ``t_end``.  Settings outside
    :func:`validate_run_settings` raise :class:`FieldError` naming the field.
    """

    dt: float
    t_end: float
    scheme: Scheme = Scheme.ETD2RK
    sample_every: int = 1

    def __post_init__(self) -> None:
        validate_run_settings(self.t_end, self.dt, self.sample_every)
        object.__setattr__(self, "scheme", Scheme(self.scheme))

    @property
    def n_steps(self) -> int:
        """Fewest steps no longer than ``dt`` that cover [0, t_end]; at least 1."""
        return int(np.ceil(self.t_end / self.dt - 1e-12))

    @property
    def step_dt(self) -> float:
        """Uniform step ``t_end / n_steps`` the run takes."""
        return self.t_end / self.n_steps


def validate_run_settings(t_end: float, dt: float | None, sample_every: int) -> None:
    """Raise :class:`FieldError` unless a run's horizon and sampling describe a run.

    ``t_end`` must be positive and finite, a given ``dt`` (``None`` asks for
    the CFL step) must lie in ``(0, t_end]``, since no run could take a
    longer step than its horizon, and leave ``t_end/dt`` finite, since that
    is the step count, and ``sample_every`` must be an integer of
    at least 1.  The experiment file, :class:`StepperConfig` and
    :class:`~sqglab.critical.AlphaSweepConfig` all apply these rules.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise FieldError("t_end", f"t_end must be positive and finite, got {t_end!r}")
    if dt is not None and not 0 < dt <= t_end:
        raise FieldError("dt", f"dt must lie in (0, t_end], got {dt!r}")
    if dt is not None and not math.isfinite(float(t_end) / float(dt)):
        raise FieldError("dt", f"dt is too small: t_end/dt overflows, got {dt!r}")
    if not (sample_every >= 1 and float(sample_every).is_integer()):
        raise FieldError(
            "sample_every", f"sample_every must be a positive integer, got {sample_every!r}"
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
    with np.errstate(over="ignore"):
        z = params.linear_symbol(domain) * dt
    coeffs = EtdCoefficients(dt=float(dt), decay=np.exp(-z), phi1=_phi1(z), phi2=_phi2(z))
    for table in (coeffs.decay, coeffs.phi1, coeffs.phi2):
        table.setflags(write=False)
    return coeffs


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
    ``mirror`` is the row index of ``-k1``.  The kernel assumes real fields,
    i.e. conjugate-symmetric coefficients, which the block determines.

    :meth:`transport` returns the transport on that block; :meth:`add_to`
    adds a block to a full FFT-layout array, the block columns and their
    conjugate mirror ``n-c .. n-1``, the only modes the transport touches.
    A march keeps the block as its state: :meth:`remainder` copies out the
    middle columns ``c+1 .. n-c-1``, which the block does not determine,
    and :meth:`assemble` builds the full layout back from the two.  The
    plan is shared by every caller of its domain, so it holds no writable
    state: the synthesis buffer comes from :meth:`scratch` and belongs to
    the caller.
    """

    n: int
    synth: np.ndarray
    div: np.ndarray
    mirror: np.ndarray

    def scratch(self) -> np.ndarray:
        """A zeroed ``rfft2`` half plane for :meth:`transport`'s syntheses."""
        return np.zeros((self.n, self.n // 2 + 1), dtype=np.complex128)

    def kept(self, array: np.ndarray) -> np.ndarray:
        """View of the block of a full-layout array that :meth:`transport` returns."""
        return array[:, : self.div.shape[2]]

    def transport(self, coeffs: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` on the kept block, and max|u|, of a field."""
        import scipy.fft  # on first use: runs that transform nothing never load it

        u1, u2, theta = self._synthesize(coeffs, 3, scratch)
        speed = float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))
        u1 *= theta
        u2 *= theta
        cols = self.div.shape[2]
        # each flux's axis-0 pass runs in place on the kept columns of its rfft
        f1, f2 = (
            scipy.fft.fft(scipy.fft.rfft(flux, axis=1)[:, :cols], axis=0, overwrite_x=True)
            for flux in (u1, u2)
        )
        np.multiply(self.div[0], f1, out=f1)
        np.multiply(self.div[1], f2, out=f2)
        f1 += f2
        return f1, speed

    def speed(self, coeffs: np.ndarray) -> float:
        """max|u| of a field, without forming the transport products."""
        u1, u2 = self._synthesize(coeffs, 2, self.scratch())
        return float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))

    def add_to(self, full: np.ndarray, block: np.ndarray) -> None:
        """Add a kept block and its conjugate mirror to a full-layout array."""
        n, cut = self.n, block.shape[1] - 1
        full[:, : cut + 1] += block
        full[:, n - cut :] += self._mirror(block)

    def is_real(self, full: np.ndarray) -> bool:
        """Whether the mirror columns of a full-layout array are its block's exact mirror."""
        cut = self.div.shape[2] - 1
        return np.array_equal(full[:, self.n - cut :], self._mirror(self.kept(full)))

    def remainder(self, full: np.ndarray) -> np.ndarray:
        """A copy of the middle columns of a full-layout array, which the block omits."""
        cut = self.div.shape[2] - 1
        return full[:, cut + 1 : self.n - cut].copy()

    def assemble(self, block: np.ndarray, rest: np.ndarray | None) -> np.ndarray:
        """A new full-layout array: a block, its conjugate mirror and the middle ``rest``."""
        n, cut = self.n, block.shape[1] - 1
        full = np.empty((n, n), dtype=np.complex128)
        full[:, : cut + 1] = block
        full[:, cut + 1 : n - cut] = 0.0 if rest is None else rest
        full[:, n - cut :] = self._mirror(block)
        return full

    def _mirror(self, block: np.ndarray) -> np.ndarray:
        """The columns ``n-c .. n-1`` of a real field with the kept block ``block``."""
        cut = block.shape[1] - 1
        mirrored = block[self.mirror, cut:0:-1]
        return np.conjugate(mirrored, out=mirrored)

    def _synthesize(self, coeffs: np.ndarray, count: int, scratch: np.ndarray) -> list[np.ndarray]:
        # Only the kept columns of the zeroed half plane are written, and the
        # axis-0 pass runs in place on them (scipy.fft writes a complex
        # overwrite_x transform into its input), so the axis-1 pass needs no
        # padding.
        import scipy.fft

        n = self.n
        kept, block = self.kept(scratch), self.kept(coeffs)
        grids = []
        for mult in self.synth[:count]:
            np.multiply(mult, block, out=kept)
            scipy.fft.ifft(kept, axis=0, norm="forward", overwrite_x=True)
            grids.append(scipy.fft.irfft(scratch, n=n, axis=1, norm="forward"))
        return grids


#: Per-axis type-1 transform of a Dirichlet-box series, named by its
#: ``scipy.fft`` function, and the grid index of its first mode: sine axes
#: carry modes 1 .. n-1 on the n-1 interior points, cosine axes modes 0 .. n
#: on all n+1 points.
_SINE = ("dst", 0)
_COSINE = ("dct", 1)


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

    The arrays cover only the modes the 2/3 rule keeps, as square blocks of
    sine indices.  ``synth`` covers the input cut ``k <= n/3`` and stacks the
    multipliers taking theta's coefficients to the coefficients of u1, u2 and
    theta, with the synthesis scale ``1/(2L)`` folded in (scipy's
    unnormalized type-1 transforms carry a factor 2 per axis).  ``div``
    covers the output cut ``k <= 2n/3`` and stacks the symbols ``(pi/L) k_j``
    taking the cosine coefficients of the fluxes to the sine coefficients of
    ``-div(u theta)``, with the analysis scale ``L/(2 n^2)`` folded in.
    Transforms skip the lines outside these blocks.

    :meth:`transport` returns the transport on the output block, which
    :meth:`add_to` adds to a full ``(n-1, n-1)`` array.  A march keeps the
    block as its state, :meth:`remainder` holds the L-shaped rest of the
    array and :meth:`assemble` joins the two.  The zeroed flux grids come
    from :meth:`scratch` and belong to the caller, since the plan is shared
    by every caller of its domain.
    """

    n: int
    synth: np.ndarray
    div: np.ndarray

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Zeroed flux grids for :meth:`transport`; only their interior is written."""
        n = self.n
        return np.zeros((n + 1, n - 1)), np.zeros((n - 1, n + 1))

    def kept(self, array: np.ndarray) -> np.ndarray:
        """View of the block of a full-layout array that :meth:`transport` returns."""
        cut = self.div.shape[1]
        return array[:cut, :cut]

    def transport(
        self, coeffs: np.ndarray, scratch: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` on the kept block, and max|u|, of a field."""
        import scipy.fft

        n, cut = self.n, self.div.shape[1]
        u1, u2 = self._velocity(coeffs)
        speed = float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))
        theta = self._synthesize(self.synth[2], coeffs, _SINE, _SINE)
        # theta vanishes on the boundary ring, so each flux is zero there
        flux1, flux2 = scratch
        np.multiply(u1[:, 1:n], theta, out=flux1[1:n])
        np.multiply(u2[1:n], theta, out=flux2[:, 1:n])
        f1 = scipy.fft.dct(flux1, type=1, axis=0)[1 : cut + 1]
        f1 = scipy.fft.dst(f1, type=1, axis=1)[:, :cut]
        f2 = scipy.fft.dst(flux2, type=1, axis=0)[:cut]
        f2 = scipy.fft.dct(f2, type=1, axis=1)[:, 1 : cut + 1]
        np.multiply(self.div[0], f1, out=f1)
        np.multiply(self.div[1], f2, out=f2)
        f1 += f2
        return f1, speed

    def speed(self, coeffs: np.ndarray) -> float:
        """max|u| of a field, without forming the transport products."""
        u1, u2 = self._velocity(coeffs)
        return float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))

    def add_to(self, full: np.ndarray, block: np.ndarray) -> None:
        """Add a kept block to a full-layout array."""
        kept = self.kept(full)
        kept += block

    def is_real(self, full: np.ndarray) -> bool:
        """Always true: sine coefficients are real."""
        return True

    def remainder(self, full: np.ndarray) -> np.ndarray:
        """A copy of a full-layout array with the block zeroed."""
        rest = full.copy()
        self.kept(rest)[...] = 0.0
        return rest

    def assemble(self, block: np.ndarray, rest: np.ndarray | None) -> np.ndarray:
        """A new full-layout array: the block inside the remainder ``rest``."""
        full = np.zeros((self.n - 1, self.n - 1)) if rest is None else rest.copy()
        self.kept(full)[...] = block
        return full

    def _velocity(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            self._synthesize(self.synth[0], coeffs, _SINE, _COSINE),
            self._synthesize(self.synth[1], coeffs, _COSINE, _SINE),
        )

    def _synthesize(self, mult, coeffs, kind0, kind1) -> np.ndarray:
        """Grid values of the series ``mult * coeffs`` with the given axis kinds."""
        import scipy.fft

        (name0, first0), (name1, first1) = kind0, kind1
        n, m = self.n, len(mult)
        # coefficients vanish beyond row m, so the first pass runs on m rows
        rows = np.zeros((m, n - 1 + 2 * first1))
        np.multiply(mult, coeffs[:m, :m], out=rows[:, first1 : first1 + m])
        grid = np.zeros((n - 1 + 2 * first0, n - 1 + 2 * first1))
        grid[first0 : first0 + m] = getattr(scipy.fft, name1)(rows, type=1, axis=1)
        return getattr(scipy.fft, name0)(grid, type=1, axis=0)


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
        synth = np.stack([k2 / mag, -k1 / mag, np.ones(mag.shape)]) / (2.0 * domain.box)
        cut = k[: 2 * n // 3]
        div = np.stack(np.broadcast_arrays(cut[:, None], cut[None, :]))
        div = div * (math.pi / (2.0 * n * n))
        for table in (synth, div):
            table.setflags(write=False)
        return _DirichletPlan(n=n, synth=synth, div=div)
    kept = np.s_[:, : n // 3 + 1]  # the columns the 2/3 rule keeps
    mask = domain.dealias_mask[kept]
    r1, r2 = domain.riesz_symbols
    d1, d2 = domain.derivative_symbols
    # u = (-R2 theta, R1 theta), R_j having the multiplier -i k_j/|k|
    synth = np.stack([1j * r2[kept], -1j * r1[kept], np.ones(mask.shape)])
    synth *= mask / domain.box
    div = np.stack([d1[kept], d2[kept]]) * (mask * (-domain.box / (n * n)))
    mirror = -np.arange(n) % n
    for table in (synth, div, mirror):
        table.setflags(write=False)
    return _TransportPlan(n=n, synth=synth, div=div, mirror=mirror)


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
    rhs = np.zeros_like(theta.coeffs)
    plan.add_to(rhs, plan.transport(theta.coeffs, plan.scratch())[0])
    return SpectralField(coeffs=rhs, domain=theta.domain)


def advective_speed(theta: SpectralField) -> float:
    """Maximum pointwise speed ``max |u|`` of the induced velocity.

    Synthesizes the velocity components directly (no transport products), so
    it stays finite for any finite field -- including the huge pre-divergence
    states the stepper inspects when it aborts a run.  Matches the speed used
    in the transport term: the input is dealiased first, and the maximum is
    taken over the same grid.
    """
    return _plan(theta.domain).speed(theta.coeffs)


def default_dt(theta0: SpectralField) -> float:
    """Step size meeting the advective CFL limit for the initial field."""
    domain = theta0.domain
    speed = max(1.0, advective_speed(theta0))
    return CFL_LIMIT * (domain.box / domain.n) / speed


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


def _march(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    n_steps: int,
) -> Iterator[tuple[float, np.ndarray, np.ndarray | None, float]]:
    """Yield ``(t, block, rest, max |u|)`` after each of ``n_steps`` ETD steps.

    The state is the plan's kept block: on the torus the contiguous
    ``(n, n/3 + 1)`` columns of the real-FFT half plane, whose conjugate
    mirror the plan derives, on the Dirichlet box the ``[:2n/3, :2n/3]``
    corner.  The transport touches only those modes, so the ETD update, the
    phi_1/phi_2 terms and the finite check all run on the block.  The modes
    the block does not determine (the torus's middle columns, the box's
    L-shaped rest) evolve linearly, ``rest = decay rest + dt phi_1 f`` (the
    corrector's ``N(predictor) - N(coeffs)`` cancels a forcing ``f``); that
    ``rest`` is ``None`` unless the initial state or the forcing is nonzero
    there.  ``plan.assemble(block, rest)`` gives the full layout, which
    equals the full-layout update bit for bit.

    The march owns its buffers: the block alternates between two arrays and
    the transport synthesizes through one scratch buffer, so a step
    allocates little beyond the transforms' outputs.  A yielded block is
    overwritten two steps later and ``rest`` at the next step; a caller
    that keeps a state assembles it before resuming the march.  The plan
    never holds these buffers, since marches on one domain share it.

    A step runs with overflow warnings silenced and is checked once at its
    end: IEEE arithmetic carries a non-finite value from any intermediate (a
    velocity, a flux, the predictor) into the step's speed or coefficients,
    so that check is the blow-up signal.

    Raises
    ------
    FieldError
        Naming ``theta`` if a torus state's mirror columns are not the
        exact conjugate mirror of its kept columns: that is a complex theta,
        which the equation does not evolve.
    BlowUpError
        At the time of the failed step, with the advective CFL number of
        the last accepted state (``inf`` if its velocity overflows).
    """
    domain = state.theta.domain
    dt = config.step_dt
    plan = _plan(domain)
    coeffs = state.theta.coeffs
    if not plan.is_real(coeffs):
        raise FieldError(
            "theta",
            "theta is not a real field: its mirror columns are not the conjugate "
            "mirror of its kept columns",
        )
    tables = etd_coefficients(domain, params, dt)
    decay = plan.kept(tables.decay).copy()
    dt_phi1 = tables.dt * plan.kept(tables.phi1)
    dt_phi2 = tables.dt * plan.kept(tables.phi2)
    forcing = _forcing_coeffs(domain, params)
    rest, rest_forcing = plan.remainder(coeffs), 0.0
    if forcing is not None:
        rest_forcing = plan.remainder(tables.dt * tables.phi1 * forcing)
        forcing = plan.kept(forcing).copy()
    rest_decay = plan.remainder(tables.decay)
    if not (rest.any() or np.any(rest_forcing)):
        rest = None  # every dealiased state and forcing: the block is all there is
    scratch = plan.scratch()

    def rhs(block: np.ndarray) -> tuple[np.ndarray, float]:
        out, speed = plan.transport(block, scratch)
        if forcing is not None:
            out += forcing
        return out, speed

    block = plan.kept(coeffs)
    buffers = tuple(np.empty_like(decay, dtype=coeffs.dtype) for _ in range(2))
    term = np.empty_like(decay, dtype=coeffs.dtype)
    for k in range(1, n_steps + 1):
        t_new = state.t + k * dt
        new_block = buffers[k % 2]
        with np.errstate(over="ignore", invalid="ignore"):
            n0, speed = rhs(block)
            np.multiply(decay, block, out=new_block)
            new_block += np.multiply(dt_phi1, n0, out=term)
            if config.scheme is Scheme.ETD2RK:
                # Cox-Matthews corrector: predictor + dt phi2 (N(predictor) - n0)
                n1, speed1 = rhs(new_block)
                n1 -= n0
                n1 *= dt_phi2
                new_block += n1
                speed = max(speed, speed1)
            if rest is not None:
                np.multiply(rest_decay, rest, out=rest)
                rest += rest_forcing
            finite = np.isfinite(new_block).all() and (rest is None or np.isfinite(rest).all())
            if not (math.isfinite(speed) and finite):
                last = plan.speed(block)
                last = last if math.isfinite(last) else math.inf
                raise BlowUpError(t_new, dt * last * domain.n / domain.box)
        block = new_block
        yield t_new, block, rest, speed


def step(state: SimulationState, params: SqgParams, config: StepperConfig) -> SimulationState:
    """Advance one step of ``config.step_dt`` with the configured scheme.

    Raises
    ------
    FieldError
        Naming ``theta`` for a torus state that is not a real field.
    BlowUpError
        If the step produces a non-finite value.
    """
    domain = state.theta.domain
    t_new, block, rest, _ = next(_march(state, params, config, 1))
    theta = SpectralField(coeffs=_plan(domain).assemble(block, rest), domain=domain)
    return SimulationState(t=t_new, theta=theta)


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
    ``state`` itself and then new arrays assembled from the march's kept
    block, which the caller may keep.  The advective CFL number is checked
    at every step:
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
        Naming ``theta`` for a torus state that is not a real field.
    BlowUpError
        At the first step that produces a non-finite value.
    """
    domain = state.theta.domain
    dt = config.step_dt
    series = DiagnosticsSeries(meta={"dt": dt})
    cells_per_length = domain.n / domain.box

    def record(current: SimulationState, speed: float, peak: float, peak_t: float) -> None:
        peak_cfl = dt * peak * cells_per_length
        if peak_cfl > CFL_LIMIT:
            warnings.warn(
                f"advective CFL {peak_cfl:.3g} exceeds {CFL_LIMIT} at t={peak_t:.6g}",
                CflWarning,
                stacklevel=3,  # integrate's caller: this frame is nested in integrate
            )
        row = {"cfl": dt * speed * cells_per_length}
        if sample is not None:
            row.update(sample(current) or {})
        series.append(current.t, row)

    n_steps = config.n_steps
    plan = _plan(domain)
    current = state
    speed = advective_speed(state.theta)
    record(current, speed, speed, state.t)
    peak, peak_t = 0.0, state.t
    for k, (t, block, rest, speed) in enumerate(_march(state, params, config, n_steps), 1):
        if speed > peak:
            peak, peak_t = speed, t
        if k % config.sample_every == 0 or k == n_steps:
            # a new array: the march overwrites its buffers, and the field owns its array
            theta = SpectralField(coeffs=plan.assemble(block, rest), domain=domain)
            current = SimulationState(t=t, theta=theta)
            record(current, speed, peak, peak_t)
            peak = 0.0
    return RunResult(series=series, final=current)


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
    rate = params.linear_symbol(domain)
    decay_h = np.exp(-rate * h)  # one-node kernel; powers give all i-j >= 0
    growth_h = np.exp(rate * h)  # only ever used for the j = i+1 look-ahead
    weights = _simpson_weights(m, h)

    theta0 = state.theta.coeffs
    profile = np.empty((m + 1, *theta0.shape), dtype=np.complex128)
    homogeneous = np.empty_like(profile)
    homogeneous[0] = theta0
    for i in range(1, m + 1):
        homogeneous[i] = decay_h * homogeneous[i - 1]
    profile[:] = homogeneous

    final_change = np.inf
    for _ in range(iterations):
        sources = np.zeros_like(profile)
        for j in range(m + 1):
            plan.add_to(sources[j], plan.transport(profile[j], scratch)[0])
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
