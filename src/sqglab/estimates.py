"""Inequality monitors and property checks for dissipative SQG runs.

Every check is phrased as an :class:`InequalityRecord` carrying ``lhs``,
``rhs``, the slack ``rhs - lhs``, and a pass flag with a *relative* tolerance:
discretization noise must never produce a false failure, so slack is compared
against ``-tol * max(|lhs|, |rhs|, 1)``.

The families covered:

* L^q maximum principle (monotone decay without forcing; the exponential
  envelope ``|theta0|_q^q e^{(q-1)t} + (e^{(q-1)t}-1)/(q-1) |f|_q^q`` with it),
* grid-max principle with envelope ``(|theta0|_inf + |f|_inf) e^t``,
* L^2 decay under linear damping,
* the pointwise product inequality ``2 phi (-Lap)^a phi >= (-Lap)^a(phi^2)``,
* positivity of ``int (-Lap)^a theta |theta|^{q-1} sgn theta``,
* a higher-Sobolev differential-inequality monitor (boundedness witness),
* tail mass against a smooth radial cutoff.

Every run reads its samples through one sample pass, built per run (per
worker thread in a sweep): it owns every buffer a sample writes, gets
theta's grid, gives the Sobolev and L^q norms and, in
``estimates-report``, runs the battery, whose positivity integrals come
from the pass that gives the L^q norms.  A sweep member's pass gives its
sup norm only.  The pointwise and positivity checks of a state run on one
read-only plan per (domain, order), cached like the transport plans, and
write into buffers the caller owns (the plan's ``scratch()``).  The plan
holds its domain's transport plan, the one owner of the block of modes
the 2/3 rule keeps: its tables are cut with that plan, whether a state
has modes past the cut is that plan's dealias test, and on the torus
``(-Lap)^a theta`` is that plan's pruned synthesis of the block.  The
square of the pointwise inequality is formed alias-free on the grid of
3n/2 points; every transform is a per-axis ``numpy.fft`` pass whose
axis-0 passes run only on the columns that can be nonzero.  The
Dirichlet box keeps ``to_physical`` and its same-grid square behind the
same plan.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import _block_weights, _DirichletPlan, _plan, _TransportPlan
from .errors import NonFiniteError
from .spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
    _grid_norms,
    _positive_power,
    _sobolev_weights,
    _weighted_norms,
    dealias,
    fractional_laplacian,
    lq_norm,
    sobolev_norm,
    to_physical,
    to_spectral,
)

__all__ = [
    "InequalityRecord",
    "CutoffSpec",
    "max_principle_monitor",
    "linf_monitor",
    "damped_energy_monitor",
    "cordoba_slack_field",
    "cordoba_pointwise_check",
    "positivity_integral_check",
    "sobolev_bound_monitor",
    "tail_mass",
    "DEFAULT_TOL",
]

#: Default relative slack tolerance for inequality checks.
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated inequality ``lhs <= rhs`` with relative-slack verdict.

    ``slack = rhs - lhs`` and ``passed = slack >= -tol * scale`` with
    ``scale = max(|lhs|, |rhs|, 1)``, which :meth:`as_dict` also reports.
    ``name`` identifies the inequality family in reports.  A non-finite
    side raises :class:`~sqglab.errors.NonFiniteError`.
    """

    name: str
    t: float
    lhs: float
    rhs: float
    tol: float = DEFAULT_TOL
    slack: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        lhs = float(self.lhs)
        rhs = float(self.rhs)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise NonFiniteError(f"record {self.name!r}: non-finite sides ({lhs}, {rhs})")
        slack = rhs - lhs
        scale = max(abs(lhs), abs(rhs), 1.0)
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "passed", bool(slack >= -self.tol * scale))

    def as_dict(self) -> dict:
        scale = max(abs(self.lhs), abs(self.rhs), 1.0)
        return {
            "name": self.name,
            "t": float(self.t),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "slack": float(self.slack),
            "tol": float(self.tol),
            "scale": float(scale),
            "passed": bool(self.passed),
        }


def _check_q(q: float) -> None:
    if q < 2 or not np.isfinite(q):
        raise ValueError(f"q must lie in [2, inf), got {q}")


def _check_sampled(times: Sequence[float], norms: Sequence[float]) -> None:
    if len(times) != len(norms):
        raise ValueError(f"{len(times)} sample times for {len(norms)} norms")


def _power(x: float, p: float) -> float:
    """``x**p``, and ``inf`` where that passes the largest float (a non-finite record)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


# ----------------------------------------------------------------------------
# norm-evolution monitors
# ----------------------------------------------------------------------------


def max_principle_monitor(
    times: Sequence[float],
    norms: Sequence[float],
    q: float,
    forcing: SpectralField | None = None,
) -> list:
    """L^q maximum-principle records along a run.

    ``norms[i]`` is ``lq_norm(theta, q)`` of the state sampled at ``times[i]``
    (a run's ``lq`` column); the first sample is the initial state.  Without
    forcing the bound is monotone: ``|theta(t)|_q <= |theta0|_q``.  With
    forcing the q-th-power envelope applies:

        |theta(t)|_q^q <= |theta0|_q^q e^{(q-1)t}
                          + (e^{(q-1)t} - 1)/(q-1) |f|_q^q,

    with t measured from the first sample.  Returns one record per sample.
    """
    _check_q(q)
    _check_sampled(times, norms)
    if not norms:
        return []
    t0 = times[0]
    base_q = norms[0]
    if forcing is None:
        return [
            InequalityRecord(name=f"lq-monotone-q{q:g}", t=t, lhs=norm, rhs=base_q)
            for t, norm in zip(times, norms)
        ]
    force_q = _power(lq_norm(forcing, q), q)
    base_pow = _power(base_q, q)
    records = []
    for t, norm in zip(times, norms):
        # an envelope past the float range is a non-finite record
        with np.errstate(over="ignore", invalid="ignore"):
            growth = np.exp((q - 1.0) * (t - t0))
            rhs = base_pow * growth + (growth - 1.0) / (q - 1.0) * force_q
        records.append(
            InequalityRecord(name=f"lq-envelope-q{q:g}", t=t, lhs=_power(norm, q), rhs=rhs)
        )
    return records


def linf_monitor(
    times: Sequence[float],
    norms: Sequence[float],
    forcing: SpectralField | None = None,
) -> list:
    """Grid-max principle: ``|theta(t)|_inf <= (|theta0|_inf + |f|_inf) e^t``.

    ``norms[i]`` is ``lq_norm(theta, inf)`` of the state sampled at
    ``times[i]`` (a run's ``linf`` column), the first being the initial state.
    """
    _check_sampled(times, norms)
    if not norms:
        return []
    t0 = times[0]
    base = norms[0]
    force = 0.0 if forcing is None else lq_norm(forcing, np.inf)
    with np.errstate(over="ignore"):  # an envelope past the float range is a non-finite record
        return [
            InequalityRecord(
                name="linf-envelope", t=t, lhs=norm, rhs=(base + force) * np.exp(t - t0)
            )
            for t, norm in zip(times, norms)
        ]


def damped_energy_monitor(times: Sequence[float], norms: Sequence[float], lam: float) -> list:
    """Damped unforced energy decay: ``|theta(t)|_2^2 <= |theta0|_2^2 e^{-lam t}``.

    ``norms[i]`` is ``sobolev_norm(theta, 0)`` of the state sampled at
    ``times[i]`` (a run's ``l2`` column), the first being the initial state.
    The dissipative dynamics actually decays at least like ``e^{-2 lam t}``;
    the checked envelope (the q=2 member of the damped L^q family) leaves
    that margin on purpose.  The records use the relative tolerance 1e-6.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    _check_sampled(times, norms)
    if not norms:
        return []
    t0 = times[0]
    base = _power(norms[0], 2)
    return [
        InequalityRecord(
            name="damped-energy", t=t, lhs=_power(norm, 2), rhs=base * np.exp(-lam * (t - t0)),
            tol=1e-6,
        )
        for t, norm in zip(times, norms)
    ]


# ----------------------------------------------------------------------------
# pointwise / integral positivity checks
# ----------------------------------------------------------------------------


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


@dataclass(frozen=True)
class _BatteryPlan:
    """Read-only tables of the per-state checks on one domain and order a.

    Shared and cached per (domain, a), the plan holds no writable state:
    :meth:`scratch` gives the caller every buffer the checks write.
    :meth:`check` gives a state's Córdoba slack and ``(-Lap)^a theta``
    grid, which the sample pass (:func:`_sample_pass`) turns into the
    positivity integrals.
    ``transport`` is the domain's transport plan, which owns the kept block
    and answers whether a state has modes past the 2/3 cut
    (``transport.dealiased``).  On a Dirichlet box ``synth`` and ``square``
    are ``None`` and the checks keep ``to_physical`` and the same-grid
    eigenexpansion of the square (it converges, but its truncation shows up
    as boundary-layer noise).

    On the torus a dealiased phi has modes ``|k_i| <= c = floor(n/3)``,
    all in the columns ``0 .. c`` of its ``rfft2`` half plane (the kept
    block).  ``(-Lap)^a phi`` is ``synth`` (``|k|^{2a}``, the dealias mask
    and the synthesis scale ``1/L``, cut with ``transport.kept``) times
    that block, through ``transport.synthesize``.  The square's modes
    reach ``|k_i| <= 2c < N/2`` on the grid of ``N = 3n/2`` points, so phi
    is synthesized there, squared without aliasing and analyzed, the
    axis-0 passes running on the c+1 kept and the 2c+1 support columns
    only.  ``square`` is ``|k|^{2a}`` on that support block, with the
    scales ``1/(L N)^2`` of the unnormalized passes folded in; it is zero
    on the rows ``|k_1| > 2c``, where the N grid holds only round-off that
    ``|k|^{2a}`` would amplify.  Folded onto the n grid (``k mod n``) and
    synthesized there, the spectrum gives ``(-Lap)^a(phi^2)`` at the
    original points exactly.  Every elementwise pass runs on contiguous
    arrays, since numpy buffers one over a strided view.
    """

    domain: DomainSpec
    alpha: float
    transport: _TransportPlan | _DirichletPlan
    synth: np.ndarray | None
    square: np.ndarray | None

    def scratch(self) -> tuple[np.ndarray, ...]:
        """The buffers the checks write: three grids, then on the torus five transform buffers.

        The grids take ``(-Lap)^a phi``, ``(-Lap)^a(phi^2)`` and the slack,
        and the caller's norm pass reuses all three.  The torus buffers are a kept
        block and a zeroed half plane on the n grid, then the N-grid input
        block (zero between its kept rows), a half plane and the N grid.
        """
        n = self.domain.n
        if self.synth is None:
            return _carve([((n + 1, n + 1), np.float64)] * 3)
        kept, big = self.synth.shape[1], self.square.shape[0]
        return _carve(
            [((n, n), np.float64)] * 3
            + [
                ((n, kept), np.complex128),
                ((n, n // 2 + 1), np.complex128),
                ((big, kept), np.complex128),
                ((big, big // 2 + 1), np.complex128),
                ((big, big), np.float64),
            ]
        )

    def dissipated(
        self,
        phi: SpectralField,
        values: np.ndarray,
        scratch: tuple[np.ndarray, ...],
        dealiased: bool = True,
    ) -> np.ndarray:
        """Grid values of ``(-Lap)^a phi``; ``values`` (phi's) at a = 0.

        ``dealiased`` is the transport plan's ``dealiased(phi.coeffs)``.  A
        dealiased torus phi is synthesized into the first scratch grid, from
        its block copied to the contiguous temp (not a strided view); a box
        phi, or one with modes past the cut, goes through ``to_physical``.
        """
        if self.alpha == 0.0:
            return values
        if self.synth is None or not dealiased:
            return to_physical(fractional_laplacian(phi, self.alpha)).values
        grid, _, _, temp, half = scratch[:5]
        np.copyto(temp, self.transport.kept(phi.coeffs))
        return self.transport.synthesize(self.synth, temp, (half, temp), grid)

    def slack(
        self,
        phi: SpectralField,
        values: np.ndarray,
        diss: np.ndarray,
        scratch: tuple[np.ndarray, ...],
    ) -> np.ndarray:
        """``2 phi (-Lap)^a phi - (-Lap)^a(phi^2)`` of a dealiased phi, in the third scratch grid.

        ``values`` and ``diss`` are the grid values of phi and ``(-Lap)^a phi``.
        """
        work = scratch[2]
        if self.alpha == 0.0:
            return np.square(values, out=work)
        if self.synth is None:
            square = to_spectral(values**2, self.domain)
            diss_sq = to_physical(fractional_laplacian(square, self.alpha)).values
        else:
            diss_sq = self._dissipated_square(phi.coeffs, scratch)
        np.multiply(values, diss, out=work)
        work *= 2.0
        work -= diss_sq
        return work

    def _dissipated_square(self, coeffs: np.ndarray, scratch: tuple[np.ndarray, ...]) -> np.ndarray:
        """``(-Lap)^a(phi^2)`` at the n-grid points of a dealiased torus phi, in the second grid."""
        n, nyq = self.domain.n, self.domain.n // 2
        (big, support), cut = self.square.shape, self.synth.shape[1] - 1
        top = support - 1  # 2c, the square's largest |k_i|
        _, out, _, _, _, pad, half, grid = scratch
        block = self.transport.kept(coeffs)
        pad[: cut + 1] = block[: cut + 1]
        pad[big - cut :] = block[n - cut :]
        half[:, cut + 1 :] = 0.0  # clears the previous square's spectrum
        np.fft.ifft(pad, axis=0, norm="forward", out=half[:, : cut + 1])
        np.fft.irfft(half, n=big, axis=1, norm="forward", out=grid)
        np.square(grid, out=grid)
        np.fft.rfft(grid, axis=1, out=half)
        # the N grid is spent: its memory takes the support block
        block = _complex_view(grid, (big, support))
        np.fft.fft(half[:, :support], axis=0, out=block)
        block *= self.square
        # rows k1 and k1 - n alias to one n-grid row; the rows between the
        # square's positive and negative support are zero, and the two
        # row slabs are disjoint, so the fold runs in place
        block[n - top : big - top] += block[big - top : 2 * n - top]
        block[big - top : n] = block[2 * n - top :]
        # synthesized along k1 into the spent half plane's memory, one row
        # per column k2; a column k2 > n/2 aliases to k2 - n, which the half
        # plane holds conjugated at column n - k2: those columns are written
        # in reverse order after the half plane's and added conjugated; the
        # Nyquist column takes both k2 = n/2 and -n/2, i.e. twice its real
        # part, the only part the axis-1 pass reads
        folded = _complex_view(half, (support, n))
        np.fft.ifft(block[:n, : nyq + 1], axis=0, norm="forward", out=folded[: nyq + 1].T)
        np.fft.ifft(block[:n, nyq + 1 :], axis=0, norm="forward", out=folded[top:nyq:-1].T)
        wrap = folded[nyq + 1 :]
        np.conjugate(wrap, out=wrap)
        folded[n - top : nyq] += wrap
        folded[nyq] *= 2.0
        return np.fft.irfft(folded[: nyq + 1], n=n, axis=0, norm="forward", out=out.T).T

    def check(
        self,
        theta: SpectralField,
        values: np.ndarray,
        scratch: tuple[np.ndarray, ...],
        dealiased: bool,
    ) -> tuple[float, np.ndarray]:
        """Córdoba minimum slack of one state, and its ``(-Lap)^a theta`` grid.

        ``values`` are theta's grid values and ``dealiased`` the transport
        plan's ``dealiased(theta.coeffs)``, both of which a run's sample has
        already formed.  When theta has modes beyond the dealias cut, the
        Córdoba check reads ``dealias(theta)``, synthesized once more.  The
        returned grid may be the first scratch grid; the other two are free
        again.  A state whose products
        overflow gives a non-finite slack, silently (or a
        :class:`~sqglab.errors.NonFiniteError`), which its record rejects.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            diss = self.dissipated(theta, values, scratch, dealiased)
            if dealiased:
                phi, phi_values, phi_diss = theta, values, diss
            else:
                phi = dealias(theta)
                phi_values = to_physical(phi).values
                phi_diss = self.dissipated(phi, phi_values, scratch)
            return float(self.slack(phi, phi_values, phi_diss, scratch).min()), diss


def _carve(layout: list[tuple[tuple[int, int], type]]) -> tuple[np.ndarray, ...]:
    """Zeroed arrays of the given shapes and dtypes, cut from one allocation.

    Freed together, they leave one hole the size of all of them rather
    than one per array, so a caller that drops its scratch can return the
    memory before its next allocations.  Every size is a multiple of 16
    bytes, which keeps each array aligned.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout]
    memory = np.zeros(sum(sizes), dtype=np.uint8)
    starts = itertools.accumulate(sizes, initial=0)
    return tuple(
        memory[start : start + size].view(dtype).reshape(shape)
        for (shape, dtype), start, size in zip(layout, starts, sizes)
    )


def _complex_view(buffer: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A contiguous complex array of ``shape`` on the leading memory of a contiguous buffer."""
    flat = buffer.reshape(-1).view(np.complex128)
    return flat[: shape[0] * shape[1]].reshape(shape)


@functools.lru_cache(maxsize=16)
def _battery_plan(domain: DomainSpec, alpha: float) -> _BatteryPlan:
    """The check plan of a domain and order, built once per pair."""
    transport = _plan(domain)
    if domain.basis is Basis.DIRICHLET:
        return _BatteryPlan(domain, alpha, transport, None, None)
    # theta's synthesis multiplier (the dealias mask over L) times |k|^{2a}
    synth = _positive_power(transport.symbol, alpha) * transport.synth[2].real
    n, cut = domain.n, synth.shape[1] - 1
    big = 3 * n // 2
    k1 = np.fft.fftfreq(big, d=1.0 / big)[:, None]
    k2 = np.arange(2 * cut + 1, dtype=float)[None, :]
    sym = (2.0 * np.pi / domain.box) ** 2 * (k1**2 + k2**2)
    square = np.zeros(sym.shape)
    np.power(sym, alpha, out=square, where=(np.abs(k1) <= 2 * cut) & (sym > 0))
    square /= (domain.box * big) ** 2
    # complex tables: a complex block times a real table would be cast in buffers
    synth, square = (table.astype(np.complex128) for table in (synth, square))
    for table in (synth, square):
        table.setflags(write=False)
    return _BatteryPlan(domain, alpha, transport, synth, square)


def _sample_pass(
    domain: DomainSpec, lq: Sequence[float], orders: Sequence[float], alpha: float | None = None
) -> Callable[[SpectralField], tuple]:
    """A run's per-sample pass: ``sample(theta)`` gives a state's grid, norms and battery.

    ``sample(theta)`` returns ``(grid, linf, lq_norms, sobolev_norms, slack,
    integrals)``: theta's grid as a new :class:`PhysicalField`, its max, its
    norms for the finite L^q orders ``lq`` and the Sobolev ``orders`` and,
    given ``alpha``, the Córdoba minimum slack and the positivity integrals
    of ``lq`` (``None`` and ``[]`` without).  theta is a run's state, zero
    outside the transport plan's kept block.  The pass owns every buffer a
    sample writes, reused by every sample, so it serves one thread.

    It is the one code that decides how a sample is read.  A dealiased
    torus theta's grid is the plan's pruned synthesis of the kept block,
    and any other goes through ``to_physical``.  On the torus the Sobolev
    norms sum over the block, whose weights count each column's conjugate
    mirror; the box sums its full layout, as ``sobolev_norm`` does, bit for
    bit.  The L^q pass writes the battery's grids, reversed so that its
    integrand lands on the ``(-Lap)^a theta`` grid, or two grids of theta's
    size (Dirichlet: its interior, the spectral shape), none without ``lq``.
    """
    plan = _plan(domain)
    torus = domain.basis is Basis.TORUS
    transforms = plan.synthesis_scratch() if torus else None
    layout = plan.kept if torus else np.asarray
    weights = [(_block_weights if torus else _sobolev_weights)(domain, s) for s in orders]
    battery = None if alpha is None else _battery_plan(domain, alpha)
    scratch = battery.scratch() if battery else None
    grids = scratch[2::-1] if battery else np.empty((2 if lq else 0, *domain.spectral_shape))

    def sample(theta: SpectralField) -> tuple:
        dealiased = plan.dealiased(theta.coeffs)
        if torus and dealiased:
            grid = PhysicalField(plan.theta(theta.coeffs, transforms), domain)
        else:
            grid = to_physical(theta)
        sobolev = _weighted_norms(layout(theta.coeffs), weights) if weights else []
        slack = diss = None
        if battery:
            slack, diss = battery.check(theta, grid.values, scratch, dealiased)
        # an overflowing integrand is a non-finite record, which rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            linf, norms, integrals = _grid_norms(grid.values, domain, lq, diss, grids)
        return grid, linf, norms, sobolev, slack, integrals

    return sample


def cordoba_slack_field(phi: SpectralField, alpha: float) -> PhysicalField:
    """Pointwise slack ``2 phi (-Lap)^a phi - (-Lap)^a(phi^2)`` on the grid.

    The input is dealiased first.  On the torus the square is formed on the
    grid of 3n/2 points, where the band-limited product has no aliasing,
    and the multiplier is applied there before the spectrum is folded back
    onto the original n grid; the returned slack therefore samples the
    continuum quantity to round-off, with no aliasing noise entering the
    inequality.  Sine-basis
    inputs use the same-grid eigenexpansion of the square (the projection
    converges, but its truncation shows up as boundary-layer noise).
    """
    _check_alpha(alpha)
    phi = dealias(phi)
    values = to_physical(phi).values
    plan = _battery_plan(phi.domain, alpha)
    scratch = plan.scratch()
    slack = plan.slack(phi, values, plan.dissipated(phi, values, scratch), scratch)
    return PhysicalField(values=slack, domain=phi.domain)


def cordoba_pointwise_check(phi: SpectralField, alpha: float) -> float:
    """Minimum grid slack of the pointwise inequality ``2 phi (-Lap)^a phi >= (-Lap)^a(phi^2)``.

    Nonnegative up to discretization noise for smooth fields; the estimate
    battery records it as ``0 <= slack`` under the default relative tolerance.
    """
    return float(cordoba_slack_field(phi, alpha).values.min())


def positivity_integral_check(theta: SpectralField, q: float, alpha: float) -> float:
    """Grid quadrature of ``int (-Lap)^a theta |theta|^{q-1} sgn(theta) dx``.

    Nonnegative for every q >= 2 and alpha in [0, 1] (the integral the L^q
    maximum principle rests on); at q=2 it equals the squared H^alpha
    seminorm.
    """
    _check_q(q)
    _check_alpha(alpha)
    values = to_physical(theta).values
    plan = _battery_plan(theta.domain, alpha)
    diss = plan.dissipated(theta, values, plan.scratch(), plan.transport.dealiased(theta.coeffs))
    return _grid_norms(values, theta.domain, [q], diss)[2][0]


# ----------------------------------------------------------------------------
# higher-Sobolev differential inequality
# ----------------------------------------------------------------------------


def sobolev_bound_monitor(
    times: Sequence[float],
    norms: Sequence[float],
    mid_norms: Sequence[float],
    l: float,
    params,
) -> list:
    """Boundedness witness for the H^l differential inequality.

    For each interior sample evaluates

        D_t |(-Lap)^{l/2} theta|^2  +  kappa |(-Lap)^{(l+alpha)/2} theta|^2

    with a central difference in time, and records the running maximum as the
    right-hand side: a stabilizing running max is the discrete shadow of the
    bounded-forcing differential inequality (the records therefore always
    pass; the quantity of interest is the final ``rhs``).  ``norms[i]`` and
    ``mid_norms[i]`` are ``sobolev_norm(theta, l)`` (a run's ``h{l}``
    column) and ``sobolev_norm(theta, l + alpha)`` of the state sampled at
    ``times[i]``; the first and last ``mid_norms`` are not read.
    """
    if l < params.alpha:
        raise ValueError(f"Sobolev index l={l} must be >= alpha={params.alpha}")
    _check_sampled(times, norms)
    _check_sampled(times, mid_norms)
    if len(times) < 3:
        return []
    energies = [_power(norm, 2) for norm in norms]
    records = []
    running = -np.inf
    for i in range(1, len(times) - 1):
        deriv = (energies[i + 1] - energies[i - 1]) / (times[i + 1] - times[i - 1])
        value = deriv + params.kappa * _power(mid_norms[i], 2)
        running = max(running, value)
        records.append(
            InequalityRecord(
                name=f"sobolev-ineq-l{l:g}", t=times[i], lhs=value, rhs=running, tol=0.0,
            )
        )
    return records


# ----------------------------------------------------------------------------
# tail estimates via a smooth radial cutoff
# ----------------------------------------------------------------------------


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 at u<=0, 1 at u>=1, C^2 across the junctions."""
    v = np.clip(u, 0.0, 1.0)
    return v**3 * (10.0 - 15.0 * v + 6.0 * v**2)


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff ``eta_k = eta(|x - center| / k)``: 0 inside radius k, 1 outside 2k.

    The fixed profile ``eta`` vanishes on ``r <= 1``, equals 1 on ``r >= 2``,
    and transitions by a quintic smoothstep (C^2) in between.
    """

    k: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError(f"cutoff radius k must be positive, got {self.k}")

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Dilated profile eta_k(r) = eta(r / k)."""
        with np.errstate(over="ignore"):  # r / k past the largest float is on the plateau
            return _smoothstep(np.asarray(r, dtype=np.float64) / self.k - 1.0)

    def field_on(self, domain: DomainSpec) -> PhysicalField:
        """Sample eta_k centered at the box center on the domain's grid."""
        if 4.0 * self.k > domain.box:
            raise ValueError(
                f"transition annulus of k={self.k} does not fit: need 4k <= box={domain.box}"
            )
        x1, x2 = domain.physical_coordinates
        c = domain.box / 2.0
        r = np.hypot(x1 - c, x2 - c)
        return PhysicalField(values=self.profile(r), domain=domain)


@functools.lru_cache(maxsize=8)
def _cutoff_grid(cutoff: CutoffSpec, domain: DomainSpec) -> np.ndarray:
    """Read-only grid values of ``eta_k`` on a domain, sampled once per pair."""
    return cutoff.field_on(domain).values


def tail_mass(theta: PhysicalField, cutoff: CutoffSpec) -> float:
    """Weighted mass ``int theta^2 eta_k dx`` (dominates the tail over |x-c| >= 2k)."""
    domain = theta.domain
    values = theta.values**2 * _cutoff_grid(cutoff, domain)
    # uniform-grid quadrature (trapezoid; spectrally accurate when periodic)
    return float(values.sum() * (domain.box / domain.n) ** 2)
