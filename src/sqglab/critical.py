"""Vanishing-viscosity-style studies of the critical dissipation limit.

This module compares families of simulations whose fractional dissipation
order ``alpha`` marches down toward the critical value one half.  It
measures pairwise distances between runs in the :math:`H^{-1/2}` metric,
fits the decay rate of those distances in ``alpha``, evaluates the
discrete smallness coefficient that controls the continuation argument,
and checks the interpolation inequalities used to upgrade weak-norm
convergence to stronger topologies.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import (
    Scheme,
    SimulationState,
    SqgParams,
    StepperConfig,
    default_dt,
    integrate,
    nonlinear_rhs,
)
from .errors import BlowUpError
from .estimates import InequalityRecord
from .series import DiagnosticsSeries
from .spectral import (
    Basis,
    DomainSpec,
    SpectralField,
    grid_lp_norm,
    inner_product,
    lq_norm,
    sobolev_norm,
)

__all__ = [
    "DEFAULT_SWEEP_ALPHAS",
    "SMALLNESS_THRESHOLD",
    "L43_FROZEN_CONSTANT",
    "DiscreteConstants",
    "AlphaSweepConfig",
    "ConvergenceReport",
    "SweepRun",
    "sweep_runs",
    "assemble_report",
    "sweep_with_runs",
    "run_sweep",
    "dirichlet_sweep",
    "h_minus_half_distance",
    "smallness_coefficient",
    "pairwise_bound_check",
    "interpolation_upgrade",
    "l43_interpolation_check",
    "calibrate_l43_constant",
    "weak_form_residual",
]

#: Dissipation orders used by the default sweep, largest first, ending just
#: above the critical value one half.
DEFAULT_SWEEP_ALPHAS: tuple[float, ...] = (0.75, 0.65, 0.6, 0.55, 0.52, 0.51)

#: Size threshold for the smallness coefficient: the coefficient is negative
#: exactly when the combined sup-norms stay below ``1 / (2/pi + 2)``
#: (assuming unit auxiliary constants), which is the discrete analogue of
#: the smallness hypothesis behind the uniqueness-of-limits argument.
SMALLNESS_THRESHOLD: float = 1.0 / (2.0 / math.pi + 2.0)

#: Frozen constant for the L^{4/3} interpolation check, calibrated once on
#: the 128x128 torus with box size 2*pi (the grid used by the convergence
#: studies) by maximising the ratio over random smooth fields across decay
#: rates plus single-mode extremes (measured worst 6.50), then rounded up
#: with ~20% headroom.  The discrete ratio grows like the fourth root of
#: the largest retained wavenumber (a pure high mode realises it), so the
#: frozen value covers 2*pi boxes up to n = 256 (measured worst 7.77);
#: recalibrate with :func:`calibrate_l43_constant` for larger grids or
#: boxes.
L43_FROZEN_CONSTANT: float = 8.0


@dataclass(frozen=True)
class DiscreteConstants:
    """Constants entering the discrete smallness coefficient.

    Attributes
    ----------
    resolvent_m:
        Uniform bound ``M`` on the resolvent family ``lam * (lam + A)^{-1}``
        of the positive-definite comparison operator.  The spectral
        calculus gives exactly 1 for self-adjoint positive operators.
    riesz_c:
        Norm bound ``c`` of the Riesz-transform velocity map on the spaces
        used by the weak formulation; the transforms are isometries on the
        mean-free subspace, so 1 is sharp.
    coercivity_c1:
        Prefactor ``c1`` converting the coercive dissipation pairing back
        to the working norm.  For dissipation strength ``kappa`` and
        smallest positive Laplacian eigenvalue ``mu`` it equals
        ``1 / sqrt(kappa * (mu**alpha + 1))``.
    """

    resolvent_m: float = 1.0
    riesz_c: float = 1.0
    coercivity_c1: float = 1.0

    def __post_init__(self) -> None:
        for name in ("resolvent_m", "riesz_c", "coercivity_c1"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    def from_domain(
        cls, domain: DomainSpec, kappa: float, alpha: float = 0.5
    ) -> "DiscreteConstants":
        """Evaluate the constants for a concrete grid and dissipation strength.

        ``alpha`` is the dissipation order of the comparison operator; the
        critical value one half is the default because the smallness
        coefficient governs the limiting (critical) equation.
        """
        if kappa <= 0:
            raise ValueError(f"kappa must be positive, got {kappa!r}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        symbol = domain.laplacian_symbol
        positive = symbol[symbol > 0]
        mu_min = float(positive.min())
        c1 = 1.0 / math.sqrt(kappa * (mu_min**alpha + 1.0))
        return cls(resolvent_m=1.0, riesz_c=1.0, coercivity_c1=c1)


def smallness_coefficient(
    sup_norm_a: float,
    sup_norm_b: float,
    constants: DiscreteConstants | None = None,
) -> float:
    """Coefficient controlling contraction of the difference of two solutions.

    Negative values certify that the Gronwall argument for the difference
    of two weak solutions closes: the returned value is
    ``c1 * (-1 + (2/pi + 2) * M * c * (s_a + s_b))`` where ``s_a`` and
    ``s_b`` are sup-in-time L-infinity norms of the two solutions.
    """
    if constants is None:
        constants = DiscreteConstants()
    if sup_norm_a < 0 or sup_norm_b < 0:
        raise ValueError("sup norms must be nonnegative")
    bracket = -1.0 + (2.0 / math.pi + 2.0) * constants.resolvent_m * constants.riesz_c * (
        sup_norm_a + sup_norm_b
    )
    return constants.coercivity_c1 * bracket


@dataclass(frozen=True)
class AlphaSweepConfig:
    """Configuration of a family of runs marching ``alpha`` toward 1/2.

    All runs share the initial data, damping, forcing, time horizon, and
    (crucially, so that trajectories are comparable sample by sample) a
    single time step.  When ``dt`` is omitted it is chosen from the
    advective CFL limit of the initial data, which is the stiffest safe
    choice shared across the sweep.
    """

    theta0: SpectralField
    kappa: float
    alphas: tuple[float, ...] = DEFAULT_SWEEP_ALPHAS
    lam: float = 0.0
    forcing: SpectralField | None = None
    t_end: float = 2.0
    dt: float | None = None
    sample_every: int = 1
    scheme: Scheme = Scheme.ETD2RK

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 1:
            raise ValueError("alphas must contain at least one dissipation order")
        for a in self.alphas:
            if not 0.5 < a <= 1.0:
                raise ValueError(
                    f"sweep alphas must lie in (1/2, 1], got {a!r}"
                )
        if any(b >= a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("alphas must be strictly decreasing")
        if self.alphas[-1] < 0.505:
            raise ValueError(
                "the final alpha must stay at or above 0.505; runs closer to the "
                "critical value need custom stepping"
            )
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")
        if self.lam < 0:
            raise ValueError(f"damping must be nonnegative, got {self.lam!r}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive when given, got {self.dt!r}")
        if self.sample_every < 1:
            raise ValueError("sample_every must be a positive integer")
        if self.forcing is not None and self.forcing.domain != self.theta0.domain:
            raise ValueError("forcing must live on the same domain as theta0")

    @property
    def domain(self) -> DomainSpec:
        """Domain shared by every run in the sweep."""
        return self.theta0.domain

    def params_for(self, alpha: float) -> SqgParams:
        """Equation parameters for a single sweep member."""
        return SqgParams(
            kappa=self.kappa, alpha=alpha, lam=self.lam, forcing=self.forcing
        )

    def shared_dt(self) -> float:
        """Largest time step shared by every run (CFL-derived when not pinned)."""
        if self.dt is not None:
            return min(self.dt, self.t_end)
        return min(default_dt(self.theta0), self.t_end)

    def stepper(self) -> StepperConfig:
        """Stepper shared by every run; its ``step_dt`` is the step taken."""
        return StepperConfig(
            dt=self.shared_dt(),
            t_end=self.t_end,
            scheme=self.scheme,
            sample_every=self.sample_every,
        )


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of an ``alpha``-sweep convergence study.

    Attributes
    ----------
    alphas:
        Dissipation orders, strictly decreasing.
    times:
        Sample times shared by all runs.
    pairwise:
        Matrix of sup-in-time :math:`H^{-1/2}` distances between runs,
        symmetric with a zero diagonal.
    sup_infnorms:
        Per-run supremum over time of the L-infinity norm.
    smallness_coeff:
        Smallness coefficient evaluated on the two largest entries of
        ``sup_infnorms`` (negative values certify the contraction regime).
    per_pair_bound:
        One entry ``(delta_alpha, sup_distance, fitted_rate)`` per
        comparison of a run against the most critical run; the fitted rate
        is the least-squares exponent shared by all entries.
    fitted_exponent:
        Least-squares slope of ``log(sup_distance)`` against
        ``log(delta_alpha)`` over the distances to the most critical run.
    distances:
        :math:`H^{-1/2}` distance of every pair of runs ``i < j`` (rows, in
        row-major pair order) at every sample time (columns); ``pairwise``
        holds its row maxima.  ``None`` for a report built without
        trajectories.
    """

    alphas: tuple[float, ...]
    times: tuple[float, ...]
    pairwise: np.ndarray
    sup_infnorms: tuple[float, ...]
    smallness_coeff: float
    per_pair_bound: tuple[tuple[float, float, float], ...]
    fitted_exponent: float
    distances: np.ndarray | None = None

    def __post_init__(self) -> None:
        matrix = np.asarray(self.pairwise, dtype=float)
        object.__setattr__(self, "pairwise", matrix)
        m = len(self.alphas)
        if matrix.shape != (m, m):
            raise ValueError(
                f"pairwise matrix must be {m}x{m}, got {matrix.shape}"
            )
        if len(self.sup_infnorms) != m:
            raise ValueError("sup_infnorms must have one entry per alpha")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("pairwise distance matrix must be symmetric")
        if np.any(np.diagonal(matrix) != 0.0):
            raise ValueError("pairwise distance matrix must have a zero diagonal")
        if np.any(matrix < 0):
            raise ValueError("pairwise distances must be nonnegative")
        pairs = m * (m - 1) // 2
        if self.distances is not None and self.distances.shape != (pairs, len(self.times)):
            raise ValueError(
                f"distance table must be {pairs}x{len(self.times)}, got {self.distances.shape}"
            )

    def distances_to_most_critical(self) -> tuple[float, ...]:
        """Sup-in-time distances from each run to the most critical run."""
        return tuple(float(x) for x in self.pairwise[:-1, -1])

    def as_dict(self) -> dict:
        """JSON-ready summary of the report."""
        return {
            "alphas": list(self.alphas),
            "times": list(self.times),
            "pairwise_h_minus_half": self.pairwise.tolist(),
            "sup_infnorms": list(self.sup_infnorms),
            "smallness_coeff": self.smallness_coeff,
            "per_pair_bound": [
                {"delta_alpha": d, "sup_distance": s, "fitted_rate": r}
                for d, s, r in self.per_pair_bound
            ],
            "fitted_exponent": self.fitted_exponent,
        }


def h_minus_half_distance(a: SpectralField, b: SpectralField) -> float:
    """Distance between two mean-free fields in the :math:`H^{-1/2}` norm."""
    if a.domain != b.domain:
        raise ValueError("fields must share a domain")
    return sobolev_norm(a - b, -0.5)


@dataclass(frozen=True)
class SweepRun:
    """One member of a sweep: its sampled diagnostics and sampled states."""

    series: DiagnosticsSeries
    states: tuple

    @property
    def final(self) -> SimulationState:
        return self.states[-1]


def _distance_table(runs: Sequence[SweepRun]) -> np.ndarray:
    """:math:`H^{-1/2}` distances, shape (pairs ``i < j``, samples), of sampled runs.

    Equal to :func:`h_minus_half_distance` on every pair of states, evaluated
    one sample at a time on the stacked coefficients of all runs.  The torus
    zero mode gets weight 0: runs sharing theta0, damping and forcing share
    their mean exactly, since transport leaves it untouched.
    """
    symbol = runs[0].states[0].theta.domain.laplacian_symbol.ravel()
    weight = np.zeros_like(symbol)
    positive = symbol > 0
    weight[positive] = symbol[positive] ** -0.5
    m = len(runs)
    table = np.empty((m * (m - 1) // 2, len(runs[0].states)))
    for k, states in enumerate(zip(*(run.states for run in runs))):
        stack = np.stack([state.theta.coeffs.ravel() for state in states])
        row = 0
        for i in range(m - 1):  # pairs (i, j > i) in row-major order
            diff = np.abs(stack[i + 1 :] - stack[i])
            diff *= diff
            table[row : row + m - 1 - i, k] = np.sqrt(diff @ weight)
            row += m - 1 - i
    return table


def _sweep_monitors() -> Mapping[str, Callable[[float, SpectralField], float]]:
    return {"linf": lambda t, theta: lq_norm(theta, math.inf)}


def sweep_runs(
    config: AlphaSweepConfig, *, max_workers: int | None = None
) -> list[SweepRun]:
    """Run every member of the sweep, sharing the time grid across runs.

    Each member keeps its sampled states, which the distance table reads.
    Runs execute on a thread pool (the FFT work releases the interpreter
    lock); results are returned in the order of ``config.alphas`` and are
    bitwise independent of the scheduling order.
    """
    stepper = config.stepper()
    monitors = _sweep_monitors()

    def one_run(alpha: float) -> SweepRun:
        state = SimulationState(t=0.0, theta=config.theta0)
        states: list[SimulationState] = []
        try:
            result = integrate(
                state,
                config.params_for(alpha),
                stepper,
                monitors=monitors,
                on_sample=states.append,
            )
        except BlowUpError as err:
            raise BlowUpError(err.t, err.cfl, context=f"sweep run alpha={alpha:g}") from err
        return SweepRun(series=result.series, states=tuple(states))

    if max_workers == 1 or len(config.alphas) == 1:
        return [one_run(a) for a in config.alphas]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(one_run, config.alphas))


def assemble_report(
    config: AlphaSweepConfig, runs: Sequence[SweepRun]
) -> ConvergenceReport:
    """Distill a family of runs into a convergence report.

    Pairwise distances are the supremum over shared sample times of the
    :math:`H^{-1/2}` distance between trajectories; the decay exponent is
    fitted by least squares on the log-log relation between ``delta_alpha``
    and the distance to the most critical run.
    """
    if len(runs) != len(config.alphas):
        raise ValueError("need exactly one run per sweep alpha")
    times = tuple(runs[0].series.times)
    for run in runs[1:]:
        if tuple(run.series.times) != times:
            raise ValueError("sweep runs must share their sample times")
        if len(run.states) != len(times):
            raise ValueError("sweep runs must retain their sampled states")

    m = len(runs)
    distances = _distance_table(runs)
    pairwise = np.zeros((m, m))
    first, second = np.triu_indices(m, k=1)
    pairwise[first, second] = pairwise[second, first] = distances.max(axis=1)

    sup_infnorms = tuple(
        max(float(v) for v in run.series.column("linf")) for run in runs
    )
    ranked = sorted(sup_infnorms, reverse=True)
    largest, second = ranked[0], ranked[min(1, len(ranked) - 1)]
    constants = DiscreteConstants.from_domain(config.domain, config.kappa)
    smallness = smallness_coefficient(largest, second, constants)

    delta_alphas = [config.alphas[i] - config.alphas[-1] for i in range(m - 1)]
    sups = [float(pairwise[i, -1]) for i in range(m - 1)]
    usable = [(d, s) for d, s in zip(delta_alphas, sups) if s > 0 and d > 0]
    if len(usable) >= 2:
        logs_d = np.log([d for d, _ in usable])
        logs_s = np.log([s for _, s in usable])
        exponent = float(np.polyfit(logs_d, logs_s, 1)[0])
    else:
        exponent = 0.0
    per_pair = tuple((d, s, exponent) for d, s in zip(delta_alphas, sups))

    return ConvergenceReport(
        alphas=config.alphas,
        times=times,
        pairwise=pairwise,
        sup_infnorms=sup_infnorms,
        smallness_coeff=smallness,
        per_pair_bound=per_pair,
        fitted_exponent=exponent,
        distances=distances,
    )


def sweep_with_runs(
    config: AlphaSweepConfig, *, max_workers: int | None = None
) -> tuple[ConvergenceReport, list[SweepRun]]:
    """Execute the sweep, returning the report together with the raw runs.

    Warns up front when the initial data alone already violates the
    smallness hypothesis (coefficient at or above zero evaluated with both
    sup norms set to the initial L-infinity norm), since the contraction
    interpretation of the report is then unavailable.
    """
    initial = lq_norm(config.theta0, math.inf)
    constants = DiscreteConstants.from_domain(config.domain, config.kappa)
    if smallness_coefficient(initial, initial, constants) >= 0:
        warnings.warn(
            "initial data is too large for the smallness regime; the sweep "
            "will run but the contraction bound does not apply",
            UserWarning,
            stacklevel=2,
        )
    runs = sweep_runs(config, max_workers=max_workers)
    return assemble_report(config, runs), runs


def run_sweep(
    config: AlphaSweepConfig, *, max_workers: int | None = None
) -> ConvergenceReport:
    """Execute the sweep and assemble its convergence report."""
    report, _ = sweep_with_runs(config, max_workers=max_workers)
    return report


def dirichlet_sweep(
    config: AlphaSweepConfig, *, max_workers: int | None = None
) -> ConvergenceReport:
    """Alpha sweep on the square with homogeneous Dirichlet data."""
    if config.domain.basis is not Basis.DIRICHLET:
        raise ValueError("dirichlet_sweep requires initial data in the Dirichlet basis")
    return run_sweep(config, max_workers=max_workers)


def pairwise_bound_check(
    report: ConvergenceReport,
    c2: float | None = None,
    c3_guess: float | None = None,
) -> list[InequalityRecord]:
    """Check the qualitative convergence claims encoded in a sweep report.

    Produces one monotonicity record per consecutive pair of distances to
    the most critical run (distances must shrink as ``alpha`` descends),
    one record asserting the fitted decay exponent is positive, and — when
    ``c3_guess`` is supplied — informational records testing the linear
    bound ``sup_distance <= (c3_guess / c2) * delta_alpha``.

    ``c2`` defaults to the negated smallness coefficient of the report and
    must be positive: a nonnegative smallness coefficient means the
    contraction hypothesis failed, in which case the linear bound is
    meaningless.
    """
    if c2 is None:
        c2 = -report.smallness_coeff
    if not c2 > 0:
        raise ValueError(
            f"c2 must be positive (smallness hypothesis must hold), got {c2!r}"
        )
    records: list[InequalityRecord] = []
    sups = [s for _, s, _ in report.per_pair_bound]
    deltas = [d for d, _, _ in report.per_pair_bound]
    for idx in range(len(sups) - 1):
        records.append(
            InequalityRecord(
                name=f"pair-monotone-alpha-{report.alphas[idx + 1]:g}",
                t=0.0,
                lhs=sups[idx + 1],
                rhs=sups[idx],
            )
        )
    records.append(
        InequalityRecord(
            name="fitted-exponent-positive",
            t=0.0,
            lhs=0.0,
            rhs=report.fitted_exponent,
            tol=0.0,
        )
    )
    if c3_guess is not None:
        if c3_guess <= 0:
            raise ValueError(f"c3_guess must be positive, got {c3_guess!r}")
        for d, s in zip(deltas, sups):
            records.append(
                InequalityRecord(
                    name=f"linear-rate-bound-dalpha-{d:g}",
                    t=0.0,
                    lhs=s,
                    rhs=(c3_guess / c2) * d,
                )
            )
    return records


def interpolation_upgrade(
    a: SpectralField, b: SpectralField, epsilon: float
) -> tuple[float, float]:
    """Upgrade :math:`H^{-1/2}` closeness of two fields to :math:`H^{-eps}`.

    Returns ``(lhs, rhs)`` for the interpolation inequality

    ``|a - b|_{H^{-eps}} <= |a - b|_{H^{-1/2}}^{2 eps} * |a - b|_{L^2}^{1 - 2 eps}``

    which holds exactly (it is Hoelder's inequality applied mode by mode);
    a violation beyond round-off is therefore an internal error and raises.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    diff = a - b
    zero = sobolev_norm(diff, 0.0)
    if zero == 0.0:
        return (0.0, 0.0)
    lhs = sobolev_norm(diff, -epsilon)
    rhs = sobolev_norm(diff, -0.5) ** (2 * epsilon) * zero ** (1 - 2 * epsilon)
    if lhs > rhs * (1 + 1e-10):
        raise ArithmeticError(
            f"interpolation inequality violated: {lhs!r} > {rhs!r}"
        )
    return (lhs, rhs)


def l43_interpolation_check(
    a: SpectralField,
    b: SpectralField,
    constant: float = L43_FROZEN_CONSTANT,
    mu: float = 0.5,
) -> InequalityRecord:
    """Check the L^{4/3} interpolation bound for the difference of two fields.

    Tests ``|a - b|_{L^{4/3}} <= constant * |a - b|_{H^{-1/2}}^mu *
    |a - b|_{L^2}^{1 - mu}`` with the frozen, grid-calibrated constant.
    On two-dimensional domains the exponent ``mu = 1/2`` balances the
    scaling of both sides.
    """
    if constant <= 0:
        raise ValueError(f"constant must be positive, got {constant!r}")
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    diff = a - b
    lhs = grid_lp_norm(diff, 4.0 / 3.0)
    zero = sobolev_norm(diff, 0.0)
    if zero == 0.0:
        rhs = 0.0
    else:
        rhs = constant * sobolev_norm(diff, -0.5) ** mu * zero ** (1 - mu)
    return InequalityRecord(name="l43-interpolation", t=0.0, lhs=lhs, rhs=rhs)


def calibrate_l43_constant(
    domain: DomainSpec,
    *,
    seed: int = 0,
    trials: int = 64,
    mu: float = 0.5,
) -> float:
    """Empirically maximise the L^{4/3} interpolation ratio on one grid.

    Sweeps random smooth fields over a range of spectral decay rates plus
    single-mode extremes and returns the largest observed value of
    ``|d|_{L^{4/3}} / (|d|_{H^{-1/2}}^mu * |d|_{L^2}^{1-mu})``.  Used once
    per study grid to choose (and then freeze, with headroom) the constant
    in :func:`l43_interpolation_check`.
    """
    from .fields import random_smooth_field

    rng = np.random.default_rng(seed)
    worst = 0.0
    decays = (1.5, 2.0, 3.0, 4.0, 6.0)
    for trial in range(trials):
        decay = decays[trial % len(decays)]
        theta = random_smooth_field(
            domain, seed=int(rng.integers(0, 2**31)), decay=decay
        )
        worst = max(worst, _l43_ratio(theta, mu))
    # Single-mode extremes: lowest and highest retained wavenumbers.
    from .spectral import cosine_field, sine_mode_field

    k_hi = max(1, domain.n // 3 - 1)
    if domain.basis is Basis.TORUS:
        probes = [
            cosine_field(domain, (1, 0)),
            cosine_field(domain, (k_hi, 0)),
            cosine_field(domain, (k_hi, k_hi)),
        ]
    else:
        probes = [
            sine_mode_field(domain, (1, 1)),
            sine_mode_field(domain, (k_hi, 1)),
            sine_mode_field(domain, (k_hi, k_hi)),
        ]
    for theta in probes:
        worst = max(worst, _l43_ratio(theta, mu))
    return worst


def _l43_ratio(diff: SpectralField, mu: float) -> float:
    zero = sobolev_norm(diff, 0.0)
    if zero == 0.0:
        return 0.0
    denom = sobolev_norm(diff, -0.5) ** mu * zero ** (1 - mu)
    return grid_lp_norm(diff, 4.0 / 3.0) / denom


def weak_form_residual(
    states: Sequence[SimulationState],
    test_fns: Sequence[SpectralField],
    params: SqgParams,
) -> list[float]:
    """Residual of the weak formulation along a sampled trajectory.

    For each test function ``phi`` the residual at an interior sample time
    is

    ``d/dt <theta, A^{-1} phi> + <theta, phi> - <f + kappa * theta, A^{-1} phi>
    + <div(u theta), A^{-1} phi>``

    where ``A = kappa * ((-Laplace)^{1/2} + 1)`` is the positive comparison
    operator of the critical equation and the time derivative is a central
    difference over the sampled states.  Returns the maximum absolute
    residual per test function.  For trajectories of the undamped critical
    equation the residual vanishes up to the sampling error, which is
    second order in the sample spacing.
    """
    if len(states) < 3:
        raise ValueError("need at least three samples for central differences")
    if not test_fns:
        raise ValueError("need at least one test function")
    domain = states[0].theta.domain
    for phi in test_fns:
        if phi.domain != domain:
            raise ValueError("test functions must live on the trajectory domain")

    a_symbol = params.kappa * (np.sqrt(domain.laplacian_symbol) + 1.0)
    weights = [
        SpectralField(phi.coeffs / a_symbol, domain) for phi in test_fns
    ]

    forcing = params.forcing
    n_samples = len(states)
    residuals = [0.0] * len(test_fns)
    # Nonlinearity once per interior sample, shared across test functions.
    for i in range(1, n_samples - 1):
        prev_state, state, next_state = states[i - 1], states[i], states[i + 1]
        dt2 = next_state.t - prev_state.t
        if dt2 <= 0:
            raise ValueError("states must be ordered by strictly increasing time")
        transport = nonlinear_rhs(state.theta)  # equals -div(u theta)
        for idx, (phi, weight) in enumerate(zip(test_fns, weights)):
            ddt = (
                inner_product(next_state.theta, weight)
                - inner_product(prev_state.theta, weight)
            ) / dt2
            value = (
                ddt
                + inner_product(state.theta, phi)
                - params.kappa * inner_product(state.theta, weight)
                - inner_product(transport, weight)
            )
            if forcing is not None:
                value -= inner_product(forcing, weight)
            residuals[idx] = max(residuals[idx], abs(value))
    return residuals
