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
On the torus the plan holds the velocity, dealias and divergence multipliers
in real-FFT half-plane layout, so one evaluation is three inverse real FFTs
(u1, u2 and theta) and two forward ones (the fluxes).  On a Dirichlet box the
kernel stays on the box's own ``(n+1)^2`` grid: theta is a sine-sine series,
the velocity components are sine-cosine and cosine-sine series, and type-1
sine/cosine transforms synthesize them and analyze the two fluxes, alias-free
under the same 1/3 cut.  Odd extension to the doubled torus
(:func:`embed_odd_extension`), which carries the same information, is kept as
the reference the kernel is tested against.

Runs take uniform steps that land exactly on the horizon.  The stepper keeps
raw coefficient arrays between samples and checks every step once for
non-finite values, its blow-up signal, and against the advective CFL limit.
Sampled states stream to the caller's hook rather than being kept.

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
import scipy.fft

from .errors import BlowUpError, CflWarning, ConvergenceError
from .series import DiagnosticsSeries
from .spectral import Basis, DomainSpec, SpectralField

__all__ = [
    "Scheme",
    "SqgParams",
    "StepperConfig",
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
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if not (0.5 < self.alpha <= 1.0):
            raise ValueError(
                f"alpha must exceed 1/2 for time evolution (and be <= 1), got {self.alpha}"
            )
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")

    def linear_symbol(self, domain: DomainSpec) -> np.ndarray:
        """Per-mode decay rate ``kappa |k|^(2 alpha) + lam`` (zero mode: lam)."""
        sym = domain.laplacian_symbol
        rate = np.full(sym.shape, float(self.lam))
        positive = sym > 0
        rate[positive] += self.kappa * sym[positive] ** self.alpha
        rate.setflags(write=False)
        return rate


@dataclass(frozen=True)
class StepperConfig:
    """Numerical parameters of a run: step size, horizon, scheme, sampling.

    ``dt`` is the largest step allowed; the run takes :attr:`n_steps` uniform
    steps of :attr:`step_dt` and ends exactly at ``t_end``.
    """

    dt: float
    t_end: float
    scheme: Scheme = Scheme.ETD2RK
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if int(self.sample_every) != self.sample_every or self.sample_every < 1:
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every}")
        object.__setattr__(self, "scheme", Scheme(self.scheme))

    @property
    def n_steps(self) -> int:
        """Fewest steps no longer than ``dt`` that cover [0, t_end]."""
        return max(0, int(np.ceil(self.t_end / self.dt - 1e-12)))

    @property
    def step_dt(self) -> float:
        """Uniform step ``t_end / n_steps`` the run takes (``dt`` for no steps)."""
        n_steps = self.n_steps
        return self.t_end / n_steps if n_steps else self.dt


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
    (Taylor series below ``|a dt| = 1e-4``).
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
    out[~small] = (np.expm1(-zl) + zl) / zl**2
    return out


def etd_coefficients(domain: DomainSpec, params: SqgParams, dt: float) -> EtdCoefficients:
    """Precompute the per-mode ETD tables for step size ``dt``."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
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

    Every array is in ``rfft2`` half-plane layout, columns ``0 .. n/2``:
    ``synth`` stacks the multipliers taking theta's coefficients to the grid
    values of u1, u2 and theta (dealias mask and the synthesis scale ``n^2/L``
    folded in); ``div`` stacks the symbols of ``-d/dx_j`` with the mask and the
    analysis scale ``L/n^2`` folded in; ``mirror`` is the row index of ``-k1``.
    The kernel assumes real fields, i.e. conjugate-symmetric coefficients,
    which the half plane determines.
    """

    n: int
    synth: np.ndarray
    div: np.ndarray
    mirror: np.ndarray

    def transport(self, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` (full FFT layout) and max|u| of a field."""
        u1, u2, theta = self._synthesize(coeffs, 3)
        speed = float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))
        flux1, flux2 = (scipy.fft.rfft2(u * theta) for u in (u1, u2))
        return self._full(self.div[0] * flux1 + self.div[1] * flux2), speed

    def speed(self, coeffs: np.ndarray) -> float:
        """max|u| of a field, without forming the transport products."""
        u1, u2 = self._synthesize(coeffs, 2)
        return float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))

    def _synthesize(self, coeffs: np.ndarray, count: int) -> list[np.ndarray]:
        # One transform per field: a single irfft2 on the (3, n, n/2+1) stack
        # ran about 1.7x slower at n = 128 and 256 (scipy 1.17, 2 cores).
        n = self.n
        half = coeffs[:, : n // 2 + 1]
        return [scipy.fft.irfft2(mult * half, s=(n, n)) for mult in self.synth[:count]]

    def _full(self, half: np.ndarray) -> np.ndarray:
        """Expand half-plane coefficients of a real field to the full FFT layout."""
        n = self.n
        out = np.empty((n, n), dtype=np.complex128)
        out[:, : n // 2 + 1] = half
        np.conj(half[self.mirror, n // 2 - 1 : 0 : -1], out=out[:, n // 2 + 1 :])
        return out


#: Per-axis type-1 transform of a Dirichlet-box series and the grid index of
#: its first mode: sine axes carry modes 1 .. n-1 on the n-1 interior points,
#: cosine axes modes 0 .. n on all n+1 points.
_SINE = (scipy.fft.dst, 0)
_COSINE = (scipy.fft.dct, 1)


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
    """

    n: int
    synth: np.ndarray
    div: np.ndarray

    def transport(self, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased ``-div(u theta)`` (sine coefficients) and max|u| of a field."""
        n, cut = self.n, self.div.shape[1]
        u1, u2 = self._velocity(coeffs)
        speed = float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))
        theta = self._synthesize(self.synth[2], coeffs, _SINE, _SINE)
        # theta vanishes on the boundary ring, so each flux is zero there
        flux1 = np.zeros((n + 1, n - 1))
        np.multiply(u1[:, 1:n], theta, out=flux1[1:n])
        flux2 = np.zeros((n - 1, n + 1))
        np.multiply(u2[1:n], theta, out=flux2[:, 1:n])
        f1 = scipy.fft.dct(flux1, type=1, axis=0)[1 : cut + 1]
        f1 = scipy.fft.dst(f1, type=1, axis=1)[:, :cut]
        f2 = scipy.fft.dst(flux2, type=1, axis=0)[:cut]
        f2 = scipy.fft.dct(f2, type=1, axis=1)[:, 1 : cut + 1]
        rhs = np.zeros((n - 1, n - 1))
        rhs[:cut, :cut] = self.div[0] * f1 + self.div[1] * f2
        return rhs, speed

    def speed(self, coeffs: np.ndarray) -> float:
        """max|u| of a field, without forming the transport products."""
        u1, u2 = self._velocity(coeffs)
        return float(max(u1.max(), -u1.min(), u2.max(), -u2.min()))

    def _velocity(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            self._synthesize(self.synth[0], coeffs, _SINE, _COSINE),
            self._synthesize(self.synth[1], coeffs, _COSINE, _SINE),
        )

    def _synthesize(self, mult, coeffs, kind0, kind1) -> np.ndarray:
        """Grid values of the series ``mult * coeffs`` with the given axis kinds."""
        (transform0, first0), (transform1, first1) = kind0, kind1
        n, m = self.n, len(mult)
        # coefficients vanish beyond row m, so the first pass runs on m rows
        rows = np.zeros((m, n - 1 + 2 * first1))
        np.multiply(mult, coeffs[:m, :m], out=rows[:, first1 : first1 + m])
        grid = np.zeros((n - 1 + 2 * first0, n - 1 + 2 * first1))
        grid[first0 : first0 + m] = transform1(rows, type=1, axis=1)
        return transform0(grid, type=1, axis=0)


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
    half = np.s_[:, : n // 2 + 1]
    mask = domain.dealias_mask[half]
    r1, r2 = domain.riesz_symbols
    d1, d2 = domain.derivative_symbols
    # u = (-R2 theta, R1 theta), R_j having the multiplier -i k_j/|k|
    synth = np.stack([1j * r2[half], -1j * r1[half], np.ones(mask.shape)])
    synth *= mask * (n * n / domain.box)
    div = np.stack([d1[half], d2[half]]) * (mask * (-domain.box / (n * n)))
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
    rhs = _plan(theta.domain).transport(theta.coeffs)[0]
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


def default_dt(theta0: SpectralField, *, cfl: float = CFL_LIMIT) -> float:
    """Step size meeting the advective CFL target for the initial field."""
    domain = theta0.domain
    speed = max(1.0, advective_speed(theta0))
    return cfl * (domain.box / domain.n) / speed


# ----------------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------------


def _rhs_closure(
    domain: DomainSpec, params: SqgParams
) -> Callable[[np.ndarray], tuple[np.ndarray, float]]:
    forcing = params.forcing
    if forcing is not None and forcing.domain != domain:
        raise ValueError("forcing must live on the same domain as the evolved field")

    transport = _plan(domain).transport

    def rhs(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
        total, speed = transport(coeffs)
        if forcing is not None:
            total += forcing.coeffs
        return total, speed

    return rhs


def _march(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    n_steps: int,
    tables: EtdCoefficients | None = None,
) -> Iterator[tuple[float, np.ndarray, float]]:
    """Yield ``(t, coeffs, max |u|)`` after each of ``n_steps`` ETD steps.

    Coefficients stay raw arrays between steps.  A step runs with overflow
    warnings silenced and is checked once at its end: IEEE arithmetic carries
    a non-finite value from any intermediate (a velocity, a flux, the
    predictor) into the step's speed or coefficients, so that check is the
    blow-up signal.

    Raises
    ------
    BlowUpError
        At the time of the failed step, with the advective CFL number of
        the last accepted state (``inf`` if its velocity overflows).
    """
    domain = state.theta.domain
    dt = config.step_dt
    if tables is None:
        tables = etd_coefficients(domain, params, dt)
    rhs = _rhs_closure(domain, params)
    dt_phi1 = tables.dt * tables.phi1
    dt_phi2 = tables.dt * tables.phi2
    coeffs = state.theta.coeffs
    for k in range(1, n_steps + 1):
        t_new = state.t + k * dt
        with np.errstate(over="ignore", invalid="ignore"):
            n0, speed = rhs(coeffs)
            new_coeffs = tables.decay * coeffs
            new_coeffs += dt_phi1 * n0
            if config.scheme is Scheme.ETD2RK:
                # Cox-Matthews corrector: predictor + dt phi2 (N(predictor) - n0)
                n1, speed1 = rhs(new_coeffs)
                n1 -= n0
                n1 *= dt_phi2
                new_coeffs += n1
                speed = max(speed, speed1)
            if not (math.isfinite(speed) and np.isfinite(new_coeffs).all()):
                last = advective_speed(SpectralField(coeffs=coeffs, domain=domain))
                last = last if math.isfinite(last) else math.inf
                raise BlowUpError(t_new, dt * last * domain.n / domain.box)
        coeffs = new_coeffs
        yield t_new, coeffs, speed


def step(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    *,
    tables: EtdCoefficients | None = None,
) -> SimulationState:
    """Advance one step of ``config.step_dt`` with the configured scheme.

    Raises
    ------
    BlowUpError
        If the step produces a non-finite value.
    """
    t_new, coeffs, _ = next(_march(state, params, config, 1, tables))
    return SimulationState(t=t_new, theta=SpectralField(coeffs=coeffs, domain=state.theta.domain))


def integrate(
    state: SimulationState,
    params: SqgParams,
    config: StepperConfig,
    monitors: Mapping[str, Callable[[float, SpectralField], float]] | None = None,
    *,
    on_sample: Callable[[SimulationState], None] | None = None,
) -> RunResult:
    """March from ``state`` to ``state.t + config.t_end``, sampling diagnostics.

    ``monitors`` maps column names to callables ``(t, theta) -> float``; each
    sampled row evaluates all of them, and ``on_sample`` (if given) then
    receives the sampled state, so per-sample work streams instead of
    needing every state kept (pass ``states.append`` to keep the
    trajectory).  Samples land every ``sample_every`` steps and always at
    the initial and final time.  The advective CFL number is checked at
    every step: if it exceeded :data:`CFL_LIMIT` at any step since the
    previous sample, the next sample emits a
    :class:`~sqglab.errors.CflWarning` with the largest value (escalate
    warnings to errors for a strict run).

    Returns
    -------
    RunResult
        The diagnostics series (column ``cfl`` is always present and holds
        the CFL number of the sampled step) and the final state.
    """
    domain = state.theta.domain
    monitors = dict(monitors or {})

    series = DiagnosticsSeries()
    cells_per_length = domain.n / domain.box
    dt = config.step_dt

    def sample(current: SimulationState, speed: float, peak: float, peak_t: float) -> None:
        peak_cfl = dt * peak * cells_per_length
        if peak_cfl > CFL_LIMIT:
            warnings.warn(
                f"advective CFL {peak_cfl:.3f} exceeds {CFL_LIMIT} at t={peak_t:.6g}",
                CflWarning,
                stacklevel=2,
            )
        row = {"cfl": dt * speed * cells_per_length}
        for name, monitor in monitors.items():
            row[name] = float(monitor(current.t, current.theta))
        series.append(current.t, row)
        if on_sample is not None:
            on_sample(current)

    n_steps = config.n_steps
    current = state
    speed = advective_speed(state.theta) if n_steps > 0 else 0.0
    sample(current, speed, speed, state.t)
    peak, peak_t = 0.0, state.t
    for k, (t, coeffs, speed) in enumerate(_march(state, params, config, n_steps), 1):
        if speed > peak:
            peak, peak_t = speed, t
        if k % config.sample_every == 0 or k == n_steps:
            current = SimulationState(t=t, theta=SpectralField(coeffs=coeffs, domain=domain))
            sample(current, speed, peak, peak_t)
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
    rhs = _rhs_closure(domain, params)
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
        sources = np.empty_like(profile)
        for j in range(m + 1):
            sources[j] = rhs(profile[j])[0]
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
