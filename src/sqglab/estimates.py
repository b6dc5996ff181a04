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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
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
    "state_battery",
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


def _cell_area(domain: DomainSpec) -> float:
    return (domain.box / domain.n) ** 2


def _grid_integral(values: np.ndarray, domain: DomainSpec) -> float:
    """Uniform-grid quadrature (trapezoid; spectrally accurate when periodic)."""
    return float(values.sum() * _cell_area(domain))


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
    force_q = lq_norm(forcing, q) ** q
    base_pow = base_q**q
    records = []
    for t, norm in zip(times, norms):
        growth = np.exp((q - 1.0) * (t - t0))
        rhs = base_pow * growth + (growth - 1.0) / (q - 1.0) * force_q
        records.append(
            InequalityRecord(name=f"lq-envelope-q{q:g}", t=t, lhs=norm**q, rhs=rhs)
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
    base = norms[0] ** 2
    return [
        InequalityRecord(
            name="damped-energy", t=t, lhs=norm**2, rhs=base * np.exp(-lam * (t - t0)),
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


def _dissipated(theta: SpectralField, grid: PhysicalField, alpha: float) -> np.ndarray:
    """Grid values of ``(-Lap)^a theta``; ``grid`` is ``to_physical(theta)``, returned at a = 0."""
    if alpha == 0.0:
        return grid.values
    return to_physical(fractional_laplacian(theta, alpha)).values


@dataclass(frozen=True)
class _SquarePlan:
    """Read-only tables of the exact ``(-Lap)^a(phi^2)`` on a torus domain.

    A dealiased field has modes ``|k_i| <= c = floor(n/3)`` and its square
    modes ``|k_i| <= 2c < N/2`` on the grid of ``N = 3n/2`` points, so the
    square is formed there without aliasing.  Its spectrum, multiplied by
    ``|k|^{2a}``, is folded onto the n grid (``k mod n``) and synthesized
    once there, which gives its values at the original points exactly.
    ``mult`` is ``|k|^{2a}`` in the N grid's ``rfft2`` half-plane layout
    with every scale folded in: phi is synthesized without its scale
    ``N^2/L``, so its square lacks that factor twice, the square's analysis
    contributes ``L/N^2`` and the n-grid synthesis ``n^2/L``.  ``mult`` is
    zero outside the square's exact support ``|k_i| <= 2c``, where the N
    grid transform holds only round-off that ``|k|^{2a}`` would amplify.
    ``mirror`` is the n-grid row of ``-k1``.
    """

    n: int
    mult: np.ndarray
    mirror: np.ndarray

    def dissipated_square(self, coeffs: np.ndarray) -> np.ndarray:
        """``(-Lap)^a(phi^2)`` at the original grid points, for a dealiased phi."""
        import scipy.fft

        n, (big, width) = self.n, self.mult.shape
        c, nyq = n // 3, n // 2
        half = np.zeros((big, width), dtype=np.complex128)
        half[: c + 1, : c + 1] = coeffs[: c + 1, : c + 1]
        half[big - c :, : c + 1] = coeffs[n - c :, : c + 1]
        phi = scipy.fft.irfft2(half, s=(big, big))
        square = scipy.fft.rfft2(phi * phi)
        square *= self.mult
        # rows k1 and k1 - n alias to one n-grid row; a column k2 > n/2
        # aliases to k2 - n, which the half plane holds conjugated at column
        # n - k2 and row -k1; the Nyquist column takes both k2 = n/2 and -n/2
        fold = np.zeros((n, 2 * c + 1), dtype=np.complex128)
        fold[: 2 * c + 1] = square[: 2 * c + 1, : 2 * c + 1]
        fold[n - 2 * c :] += square[big - 2 * c :, : 2 * c + 1]
        out = fold[:, : nyq + 1]
        out[:, n - 2 * c :] += np.conj(fold[self.mirror, 2 * c : nyq - 1 : -1])
        return scipy.fft.irfft2(out, s=(n, n))


@functools.lru_cache(maxsize=16)
def _square_plan(domain: DomainSpec, alpha: float) -> _SquarePlan:
    """The 3n/2-grid plan of a torus domain and order, built once per pair."""
    n = domain.n
    big = 3 * n // 2
    k1 = np.fft.fftfreq(big, d=1.0 / big)[:, None]
    k2 = np.arange(big // 2 + 1, dtype=float)[None, :]
    sym = (2.0 * np.pi / domain.box) ** 2 * (k1**2 + k2**2)
    support = np.maximum(np.abs(k1), k2) <= 2 * (n // 3)
    mult = np.zeros(sym.shape)
    np.power(sym, alpha, out=mult, where=support & (sym > 0))
    mult *= (big * n / domain.box) ** 2
    mirror = -np.arange(n) % n
    for table in (mult, mirror):
        table.setflags(write=False)
    return _SquarePlan(n=n, mult=mult, mirror=mirror)


def _cordoba_slack(
    phi: SpectralField, values: np.ndarray, diss: np.ndarray, alpha: float
) -> np.ndarray:
    """Slack ``2 phi (-Lap)^a phi - (-Lap)^a(phi^2)`` of a dealiased field.

    ``values`` and ``diss`` are the grid values of phi and ``(-Lap)^a phi``.
    """
    if alpha == 0.0:
        return values**2
    domain = phi.domain
    if domain.basis is Basis.TORUS:
        diss_sq = _square_plan(domain, alpha).dissipated_square(phi.coeffs)
    else:
        square = to_spectral(values**2, domain)
        diss_sq = to_physical(fractional_laplacian(square, alpha)).values
    return 2.0 * values * diss - diss_sq


def _positivity_integral(
    values: np.ndarray, diss: np.ndarray, q: float, domain: DomainSpec
) -> float:
    """Grid quadrature of ``diss |theta|^{q-1} sgn(theta)`` for grid values of theta.

    A state whose integrand overflows gives ``inf`` or ``nan``, silently: the
    record it fills rejects it as a :class:`~sqglab.errors.NonFiniteError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = diss * np.abs(values) ** (q - 1.0) * np.sign(values)
        return _grid_integral(integrand, domain)


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
    grid = to_physical(phi)
    diss = _dissipated(phi, grid, alpha)
    return PhysicalField(values=_cordoba_slack(phi, grid.values, diss, alpha), domain=phi.domain)


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
    grid = to_physical(theta)
    return _positivity_integral(grid.values, _dissipated(theta, grid, alpha), q, theta.domain)


def state_battery(
    theta: SpectralField, grid: PhysicalField, alpha: float, qs: Sequence[float]
) -> tuple[float, list[float]]:
    """Córdoba minimum slack and positivity integrals of one state.

    Equals ``cordoba_pointwise_check(theta, alpha)`` and
    ``[positivity_integral_check(theta, q, alpha) for q in qs]``.  ``grid``
    is ``to_physical(theta)``, which the caller has already synthesized for
    its own per-state quantities; ``(-Lap)^a theta`` is synthesized once for
    all checks (theta and it once more when theta has modes beyond the
    dealias cut, which the Córdoba check drops).
    """
    _check_alpha(alpha)
    for q in qs:
        _check_q(q)
    diss = _dissipated(theta, grid, alpha)
    phi = dealias(theta)
    if np.array_equal(phi.coeffs, theta.coeffs):
        phi_grid, phi_diss = grid, diss
    else:
        phi_grid = to_physical(phi)
        phi_diss = _dissipated(phi, phi_grid, alpha)
    slack = float(_cordoba_slack(phi, phi_grid.values, phi_diss, alpha).min())
    integrals = [_positivity_integral(grid.values, diss, q, theta.domain) for q in qs]
    return slack, integrals


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
    energies = [norm**2 for norm in norms]
    records = []
    running = -np.inf
    for i in range(1, len(times) - 1):
        deriv = (energies[i + 1] - energies[i - 1]) / (times[i + 1] - times[i - 1])
        value = deriv + params.kappa * mid_norms[i] ** 2
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
    eta = _cutoff_grid(cutoff, theta.domain)
    return _grid_integral(theta.values**2 * eta, theta.domain)
