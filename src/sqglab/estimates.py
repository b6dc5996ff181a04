"""Inequality monitors and property checks for dissipative SQG runs.

Every check is phrased as an :class:`InequalityRecord` carrying ``lhs``,
``rhs``, the slack ``rhs - lhs``, and a pass flag with a *relative* tolerance:
discretization noise must never produce a false failure, so slack is compared
against ``-tol * max(|lhs|, |rhs|, 1)`` (or an explicit scale when the natural
magnitude of the statement is a different quantity, as in the pointwise
product inequality).

The families covered:

* L^q maximum principle (monotone decay without forcing; the exponential
  envelope ``|theta0|_q^q e^{(q-1)t} + (e^{(q-1)t}-1)/(q-1) |f|_q^q`` with it),
* grid-max principle with envelope ``(|theta0|_inf + |f|_inf) e^t``,
* L^2 decay under linear damping,
* the pointwise product inequality ``2 phi (-Lap)^a phi >= (-Lap)^a(phi^2)``,
* positivity of ``int (-Lap)^a theta |theta|^{q-1} sgn theta``,
* a higher-Sobolev differential-inequality monitor (boundedness witness),
* tail mass against a smooth radial cutoff, with the exact dilation-scaling
  identity of the cutoff's fractional Laplacian,
* a Kato-Ponce product-estimate probe (ratios logged, not asserted).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.fft

from .spectral import (
    Basis,
    DomainSpec,
    PhysicalField,
    SpectralField,
    _apply_laplacian_power,
    _laplacian_power,
    dealias,
    fractional_laplacian,
    grid_lp_norm,
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
    "cutoff_fractional_bound",
    "commutator_probe",
    "DEFAULT_TOL",
]

#: Default relative slack tolerance for inequality checks.
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated inequality ``lhs <= rhs`` with relative-slack verdict.

    ``slack = rhs - lhs`` and ``passed = slack >= -tol * scale`` where the
    scale defaults to ``max(|lhs|, |rhs|, 1)``.  ``name`` identifies the
    inequality family in reports.
    """

    name: str
    t: float
    lhs: float
    rhs: float
    tol: float = DEFAULT_TOL
    scale: float | None = None
    slack: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        lhs = float(self.lhs)
        rhs = float(self.rhs)
        if not (np.isfinite(lhs) and np.isfinite(rhs)):
            raise ValueError(f"record {self.name!r}: non-finite sides ({lhs}, {rhs})")
        scale = self.scale
        if scale is None:
            scale = max(abs(lhs), abs(rhs), 1.0)
        elif not (np.isfinite(scale) and scale > 0):
            raise ValueError(f"record {self.name!r}: scale must be positive, got {scale}")
        slack = rhs - lhs
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "passed", bool(slack >= -self.tol * scale))

    def as_dict(self) -> dict:
        scale = self.scale if self.scale is not None else max(abs(self.lhs), abs(self.rhs), 1.0)
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
    *,
    tol: float = DEFAULT_TOL,
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
            InequalityRecord(
                name=f"lq-monotone-q{q:g}", t=t, lhs=norm, rhs=base_q, tol=tol,
            )
            for t, norm in zip(times, norms)
        ]
    force_q = lq_norm(forcing, q) ** q
    base_pow = base_q**q
    records = []
    for t, norm in zip(times, norms):
        growth = np.exp((q - 1.0) * (t - t0))
        rhs = base_pow * growth + (growth - 1.0) / (q - 1.0) * force_q
        records.append(
            InequalityRecord(
                name=f"lq-envelope-q{q:g}", t=t, lhs=norm**q, rhs=rhs, tol=tol,
            )
        )
    return records


def linf_monitor(
    times: Sequence[float],
    norms: Sequence[float],
    forcing: SpectralField | None = None,
    *,
    tol: float = DEFAULT_TOL,
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
            name="linf-envelope", t=t, lhs=norm, rhs=(base + force) * np.exp(t - t0),
            tol=tol,
        )
        for t, norm in zip(times, norms)
    ]


def damped_energy_monitor(
    times: Sequence[float], norms: Sequence[float], lam: float, *, tol: float = 1e-6
) -> list:
    """Damped unforced energy decay: ``|theta(t)|_2^2 <= |theta0|_2^2 e^{-lam t}``.

    ``norms[i]`` is ``sobolev_norm(theta, 0)`` of the state sampled at
    ``times[i]`` (a run's ``l2`` column), the first being the initial state.
    The dissipative dynamics actually decays at least like ``e^{-2 lam t}``;
    the checked envelope (the q=2 member of the damped L^q family) leaves
    that margin on purpose.
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
            tol=tol,
        )
        for t, norm in zip(times, norms)
    ]


# ----------------------------------------------------------------------------
# pointwise / integral positivity checks
# ----------------------------------------------------------------------------


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _synthesis(theta: SpectralField, alpha: float) -> tuple[PhysicalField, np.ndarray]:
    """Grid values of ``theta`` and of ``(-Lap)^a theta`` (theta itself at a = 0)."""
    grid = to_physical(theta)
    if alpha == 0.0:
        return grid, grid.values
    return grid, to_physical(fractional_laplacian(theta, alpha)).values


@dataclass(frozen=True)
class _RefinedPlan:
    """Read-only tables of the exact ``(-Lap)^a(phi^2)`` on a torus domain.

    A dealiased field's square has modes up to ``2n/3``, which the once-refined
    ``2n`` grid resolves exactly.  ``rows`` is the refined-grid row of each
    coefficient row (``k1 mod 2n``); ``mult`` is ``|k|^{2a}`` in the refined
    grid's ``rfft2`` half-plane layout with every scale folded in: phi is
    synthesized without its scale ``(2n)^2/L``, so its square lacks that
    factor twice, and the square's analysis ``L/(2n)^2`` and synthesis
    ``(2n)^2/L`` cancel.  ``mult`` is zero outside the square's exact
    support ``|k_i| <= 2 floor(n/3)``, where the refined transform holds only
    round-off that ``|k|^{2a}`` would amplify.
    """

    n: int
    rows: np.ndarray
    mult: np.ndarray

    def dissipated_square(self, coeffs: np.ndarray) -> np.ndarray:
        """``(-Lap)^a(phi^2)`` at the original grid points, for a dealiased phi."""
        n = self.n
        half = np.zeros((2 * n, n + 1), dtype=np.complex128)
        # columns k2 = 0 .. n/2 - 1; the cut leaves k2 = -n/2 empty
        half[self.rows, : n // 2] = coeffs[:, : n // 2]
        phi = scipy.fft.irfft2(half, s=(2 * n, 2 * n))
        square = scipy.fft.rfft2(phi * phi)
        square *= self.mult
        return scipy.fft.irfft2(square, s=(2 * n, 2 * n))[::2, ::2]


@functools.lru_cache(maxsize=16)
def _refined_plan(domain: DomainSpec, alpha: float) -> _RefinedPlan:
    """The refined-grid plan of a torus domain and order, built once per pair."""
    n = domain.n
    fine = DomainSpec(n=2 * n, box=domain.box, basis=Basis.TORUS)
    rows = domain.index_grids[0][:, 0] % (2 * n)
    k1, k2 = fine.index_grids
    support = np.maximum(np.abs(k1), np.abs(k2)) <= 2 * (n // 3)
    mult = (_laplacian_power(fine, alpha) * support)[:, : n + 1]
    mult *= (2 * n) ** 4 / domain.box**2
    for table in (rows, mult):
        table.setflags(write=False)
    return _RefinedPlan(n=n, rows=rows, mult=mult)


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
        diss_sq = _refined_plan(domain, alpha).dissipated_square(phi.coeffs)
    else:
        square = to_spectral(values**2, domain)
        diss_sq = to_physical(fractional_laplacian(square, alpha)).values
    return 2.0 * values * diss - diss_sq


def _positivity_integral(
    values: np.ndarray, diss: np.ndarray, q: float, domain: DomainSpec
) -> float:
    """Grid quadrature of ``diss |theta|^{q-1} sgn(theta)`` for grid values of theta."""
    integrand = diss * np.abs(values) ** (q - 1.0) * np.sign(values)
    return _grid_integral(integrand, domain)


def cordoba_slack_field(phi: SpectralField, alpha: float) -> PhysicalField:
    """Pointwise slack ``2 phi (-Lap)^a phi - (-Lap)^a(phi^2)`` on the grid.

    The input is dealiased first.  On the torus the square is formed on a
    once-refined grid, where the band-limited product is exact, and the
    multiplier is applied there before restricting back to the original
    points; the returned slack therefore samples the continuum quantity to
    round-off, with no aliasing noise entering the inequality.  Sine-basis
    inputs use the same-grid eigenexpansion of the square (the projection
    converges, but its truncation shows up as boundary-layer noise).
    """
    _check_alpha(alpha)
    phi = dealias(phi)
    grid, diss = _synthesis(phi, alpha)
    return PhysicalField(values=_cordoba_slack(phi, grid.values, diss, alpha), domain=phi.domain)


def cordoba_pointwise_check(phi: SpectralField, alpha: float) -> float:
    """Minimum grid slack of the pointwise inequality ``2 phi (-Lap)^a phi >= (-Lap)^a(phi^2)``.

    Nonnegative up to discretization noise for smooth fields; compare against
    ``-tol * scale`` with scale the grid max of ``|2 phi (-Lap)^a phi|``.
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
    grid, diss = _synthesis(theta, alpha)
    return _positivity_integral(grid.values, diss, q, theta.domain)


def state_battery(
    theta: SpectralField, alpha: float, qs: Sequence[float]
) -> tuple[float, list[float], PhysicalField]:
    """Córdoba minimum slack, positivity integrals and grid values of one state.

    Equals ``cordoba_pointwise_check(theta, alpha)`` and
    ``[positivity_integral_check(theta, q, alpha) for q in qs]``, with theta
    and ``(-Lap)^a theta`` synthesized once for all of them (twice when theta
    has modes beyond the dealias cut, which the Córdoba check drops).  The
    grid values are returned for further per-state quantities such as
    :func:`tail_mass`.
    """
    _check_alpha(alpha)
    for q in qs:
        _check_q(q)
    grid, diss = _synthesis(theta, alpha)
    phi = dealias(theta)
    if np.array_equal(phi.coeffs, theta.coeffs):
        phi_grid, phi_diss = grid, diss
    else:
        phi_grid, phi_diss = _synthesis(phi, alpha)
    slack = float(_cordoba_slack(phi, phi_grid.values, phi_diss, alpha).min())
    integrals = [_positivity_integral(grid.values, diss, q, theta.domain) for q in qs]
    return slack, integrals, grid


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

    @staticmethod
    def unit_profile(r: np.ndarray) -> np.ndarray:
        """The fixed profile eta(r): 0 on r<=1, quintic ramp on [1,2], 1 on r>=2."""
        return _smoothstep(np.asarray(r, dtype=np.float64) - 1.0)

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Dilated profile eta_k(r) = eta(r / k)."""
        return self.unit_profile(np.asarray(r, dtype=np.float64) / self.k)

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


def cutoff_fractional_bound(
    domain: DomainSpec, cutoff: CutoffSpec, s: float
) -> tuple[float, float]:
    """Grid max of ``|(-Lap)^{s/2} eta_k|`` plus its dilation-scaling defect.

    The identity ``(-Lap)^{s/2} eta_k = k^{-s} [(-Lap)^{s/2} eta](./k)`` is
    evaluated with the reference ``eta`` computed on the box of side
    ``box / k`` at the same resolution, so the two grids coincide after
    rescaling and the defect measures only floating-point error.

    Returns
    -------
    (max_abs, scaling_error)
        ``max_abs`` is the grid maximum of ``|(-Lap)^{s/2} eta_k|`` on
        ``domain``; ``scaling_error`` the max pointwise deviation from the
        rescaled reference.
    """
    if not (0.0 < s < 2.0):
        raise ValueError(f"s must lie in (0, 2), got {s}")
    if domain.basis is not Basis.TORUS:
        raise ValueError("cutoff scaling check is defined on the torus")
    eta_k = cutoff.field_on(domain)
    applied = to_physical(
        fractional_laplacian(to_spectral(eta_k.values, domain), s / 2.0)
    ).values
    reference_domain = DomainSpec(n=domain.n, box=domain.box / cutoff.k, basis=Basis.TORUS)
    eta_ref = CutoffSpec(k=1.0).field_on(reference_domain)
    applied_ref = to_physical(
        fractional_laplacian(to_spectral(eta_ref.values, reference_domain), s / 2.0)
    ).values
    scaling_error = float(np.abs(applied - cutoff.k ** (-s) * applied_ref).max())
    return float(np.abs(applied).max()), scaling_error


# ----------------------------------------------------------------------------
# product (Kato-Ponce type) probe
# ----------------------------------------------------------------------------


def commutator_probe(
    f: SpectralField,
    g: SpectralField,
    gamma: float,
    p: float,
    q: float,
    r: float,
) -> float:
    """Ratio probe of the fractional product estimate.

    Evaluates

        |(-Lap)^g(FG)|_p / (|(-Lap)^g F|_r |G|_q + |F|_q |(-Lap)^g G|_r)

    for exponents with ``1/r + 1/q = 1/p`` and ``1 < p < q <= inf``.  The
    constant of the estimate is not quantified, so this is a logged probe,
    not a pass/fail check.  Returns 0 for vanishing inputs.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not (1.0 < p < q):
        raise ValueError(f"exponents must satisfy 1 < p < q, got p={p}, q={q}")
    inv_q = 0.0 if np.isinf(q) else 1.0 / q
    inv_r = 0.0 if np.isinf(r) else 1.0 / r
    if abs(inv_r + inv_q - 1.0 / p) > 1e-12:
        raise ValueError(f"exponents must satisfy 1/r + 1/q = 1/p, got p={p}, q={q}, r={r}")
    f = dealias(f)
    g = dealias(g)
    domain = f.domain
    f_phys = to_physical(f).values
    g_phys = to_physical(g).values
    product = to_spectral(f_phys * g_phys, domain)
    # _apply_laplacian_power admits any positive gamma (fractional_laplacian
    # is capped at first order for the dissipation term)
    numerator = grid_lp_norm(_apply_laplacian_power(product, gamma), p)
    f_frac = grid_lp_norm(_apply_laplacian_power(f, gamma), r)
    g_frac = grid_lp_norm(_apply_laplacian_power(g, gamma), r)
    denominator = f_frac * grid_lp_norm(to_physical(g), q) + grid_lp_norm(
        to_physical(f), q
    ) * g_frac
    if denominator == 0.0:
        return 0.0
    return float(numerator / denominator)
