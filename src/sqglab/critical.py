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
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    RunResult,
    SimulationState,
    SqgParams,
    StepperConfig,
    _block_weights,
    _plan,
    _run_dt,
    _sampled_run,
    integrate,  # unused here; bench/tests check that the tracer rebinds it in this namespace
    validate_run_settings,
)
from .errors import BlowUpError, FieldError
from .estimates import InequalityRecord, _sample_pass
from .spectral import (
    DomainSpec,
    SpectralField,
    grid_lp_norm,
    lq_norm,
    sobolev_norm,
)

__all__ = [
    "DEFAULT_SWEEP_ALPHAS",
    "SMALLNESS_THRESHOLD",
    "L43_FROZEN_CONSTANT",
    "AlphaSweepConfig",
    "ConvergenceReport",
    "assemble_report",
    "sweep_with_runs",
    "h_minus_half_distance",
    "smallness_coefficient",
    "pairwise_bound_check",
    "interpolation_upgrade",
    "l43_interpolation_check",
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
#: the calibration helper in ``tests/test_critical.py`` recomputes the
#: ratio, and must be rerun for larger grids or boxes.
L43_FROZEN_CONSTANT: float = 8.0


def _coercivity(domain: DomainSpec, kappa: float) -> float:
    """Prefactor ``c1 = 1 / sqrt(kappa * (mu**(1/2) + 1))`` of the smallness coefficient.

    ``c1`` converts the coercive pairing of the critical comparison operator
    ``kappa * ((-Lap)^(1/2) + 1)`` back to the working norm; ``mu`` is the
    smallest positive Laplacian eigenvalue of ``domain``.
    """
    symbol = _plan(domain).symbol  # the kept block holds the lowest modes
    mu_min = float(symbol[symbol > 0].min())
    return 1.0 / math.sqrt(kappa * (mu_min**0.5 + 1.0))


def smallness_coefficient(sup_norm_a: float, sup_norm_b: float, c1: float) -> float:
    """Coefficient controlling contraction of the difference of two solutions.

    Negative values certify that the Gronwall argument for the difference
    of two weak solutions closes: the returned value is
    ``c1 * (-1 + (2/pi + 2) * M * c * (s_a + s_b))`` where ``s_a`` and
    ``s_b`` are sup-in-time L-infinity norms of the two solutions.  The
    resolvent bound ``M`` of the comparison operator and the norm ``c`` of
    the Riesz-transform velocity map are both exactly 1 (self-adjoint
    positive operator; isometries on the mean-free subspace).
    """
    if sup_norm_a < 0 or sup_norm_b < 0:
        raise ValueError("sup norms must be nonnegative")
    return c1 * (-1.0 + (2.0 / math.pi + 2.0) * (sup_norm_a + sup_norm_b))


def _validate_sweep_alphas(alphas: Sequence[float]) -> None:
    """Raise :class:`FieldError` (field ``alphas``) unless ``alphas`` is a sweep ladder.

    A ladder is non-empty and strictly decreasing inside (1/2, 1], and its
    final order stays at or above 0.505: runs closer to the critical value
    need custom stepping.
    """
    if not alphas:
        raise FieldError("alphas", "alphas must contain at least one dissipation order")
    for a in alphas:
        if not 0.5 < a <= 1.0:
            raise FieldError("alphas", f"sweep alphas must lie in (1/2, 1], got {a!r}")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise FieldError("alphas", "alphas must be strictly decreasing")
    if alphas[-1] < 0.505:
        raise FieldError("alphas", "the final alpha must stay at or above 0.505")


@dataclass(frozen=True)
class AlphaSweepConfig:
    """Configuration of a family of runs marching ``alpha`` toward 1/2.

    All runs share the initial data, damping, forcing, time horizon, and
    (crucially, so that trajectories are comparable sample by sample) a
    single time step.  When ``dt`` is omitted it is chosen from the
    advective CFL limit of the initial data, which is the stiffest safe
    choice shared across the sweep.  An out-of-range scalar or ladder
    raises :class:`FieldError` naming the field.
    """

    theta0: SpectralField
    kappa: float
    alphas: tuple[float, ...] = DEFAULT_SWEEP_ALPHAS
    lam: float = 0.0
    forcing: SpectralField | None = None
    t_end: float = 2.0
    dt: float | None = None
    sample_every: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _validate_sweep_alphas(self.alphas)
        self.params_for(self.alphas[0])  # kappa and lam follow SqgParams' rules
        validate_run_settings(self.t_end, self.dt, self.sample_every)
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
        """Time step shared by every run: ``dt``, else the CFL step, at most ``t_end``."""
        return _run_dt(self.dt, self.theta0, self.t_end)

    def stepper(self) -> StepperConfig:
        """Stepper shared by every run; its ``step_dt`` is the step taken."""
        return StepperConfig(
            dt=self.shared_dt(),
            t_end=self.t_end,
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
    distances:
        :math:`H^{-1/2}` distance of every pair of runs ``i < j`` (rows, in
        row-major pair order) at every sample time (columns).
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
    """

    alphas: tuple[float, ...]
    times: tuple[float, ...]
    distances: np.ndarray
    sup_infnorms: tuple[float, ...]
    smallness_coeff: float
    per_pair_bound: tuple[tuple[float, float, float], ...]
    fitted_exponent: float

    def __post_init__(self) -> None:
        m = len(self.alphas)
        if len(self.sup_infnorms) != m:
            raise ValueError("sup_infnorms must have one entry per alpha")
        pairs = m * (m - 1) // 2
        if self.distances.shape != (pairs, len(self.times)):
            raise ValueError(
                f"distance table must be {pairs}x{len(self.times)}, got {self.distances.shape}"
            )

    @property
    def pairwise(self) -> np.ndarray:
        """Symmetric matrix of sup-in-time distances between runs: the table's row maxima."""
        m = len(self.alphas)
        matrix = np.zeros((m, m))
        first, second = np.triu_indices(m, k=1)
        matrix[first, second] = matrix[second, first] = self.distances.max(axis=1)
        return matrix

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


def _distance_column(blocks: Sequence[np.ndarray], weight: np.ndarray) -> np.ndarray:
    """:math:`H^{-1/2}` distances of every pair ``i < j`` of one sample's member blocks.

    Equal to :func:`h_minus_half_distance` on every pair of states up to
    round-off, evaluated on the stacked blocks, in row-major pair order:
    ``weight`` is the block's ``|k|^-1`` weights, each counting the
    full-layout modes its block mode stands for
    (:func:`~sqglab.dynamics._block_weights`, the Sobolev weights a run's
    samples use).  The torus zero mode gets weight 0: runs sharing theta0,
    damping and forcing share their mean exactly, since transport leaves it
    untouched.  The blocks are scaled by ``2^-e``, where ``2^e`` bounds
    their largest real or imaginary part (an exact scaling), so no
    difference or square overflows on the way; a distance past the largest
    float is ``inf``.  Each distance is numpy's pairwise sum, not a BLAS
    product, so its bits do not depend on the BLAS thread count.
    """
    m = len(blocks)
    column = np.empty(m * (m - 1) // 2)
    stack = np.stack([block.ravel() for block in blocks])
    parts = stack.view(np.float64)  # real and imaginary parts
    e = math.frexp(max(parts.max(), -parts.min()))[1]
    np.ldexp(parts, -e, out=parts)
    row = 0
    for i in range(m - 1):  # pairs (i, j > i) in row-major order
        diff = np.abs(stack[i + 1 :] - stack[i])
        diff *= diff
        diff *= weight
        with np.errstate(over="ignore"):
            np.ldexp(np.sqrt(diff.sum(axis=1)), e, out=column[row : row + m - 1 - i])
        row += m - 1 - i
    return column


def assemble_report(
    config: AlphaSweepConfig, runs: Sequence[RunResult], distances: np.ndarray
) -> ConvergenceReport:
    """Distill a family of runs and their distance table into a convergence report.

    ``runs`` holds one :class:`~sqglab.dynamics.RunResult` per member, in
    the order of ``config.alphas``; their series give the shared sample
    times and the ``linf`` columns.  ``distances`` holds the
    :math:`H^{-1/2}` distance of every pair of runs ``i < j`` (rows, in
    row-major pair order) at every shared sample time (columns), as
    :func:`sweep_with_runs` streams it.  Pairwise distances are the
    supremum over those times; the decay exponent is fitted by least
    squares on the log-log relation between ``delta_alpha`` and the
    distance to the most critical run.
    """
    if len(runs) != len(config.alphas):
        raise ValueError("need exactly one run per sweep alpha")
    times = tuple(runs[0].series.times)
    for run in runs[1:]:
        if tuple(run.series.times) != times:
            raise ValueError("sweep runs must share their sample times")

    m = len(runs)
    sup_infnorms = tuple(
        max(float(v) for v in run.series.column("linf")) for run in runs
    )
    ranked = sorted(sup_infnorms, reverse=True)
    largest, second = ranked[0], ranked[min(1, len(ranked) - 1)]
    smallness = smallness_coefficient(largest, second, _coercivity(config.domain, config.kappa))

    delta_alphas = [config.alphas[i] - config.alphas[-1] for i in range(m - 1)]
    # the sup distances of runs 0 .. m-2 to the last, in the table's pair order
    last = np.triu_indices(m, k=1)[1] == m - 1
    sups = [float(s) for s in distances.max(axis=1)[last]]
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
        distances=distances,
        sup_infnorms=sup_infnorms,
        smallness_coeff=smallness,
        per_pair_bound=per_pair,
        fitted_exponent=exponent,
    )


def sweep_with_runs(
    config: AlphaSweepConfig,
    *,
    max_workers: int | None = None,
    on_sample: Callable[[float, tuple[SimulationState, ...]], None] | None = None,
) -> tuple[ConvergenceReport, list[RunResult]]:
    """Run every member of the sweep and assemble its convergence report.

    The sweep streams: each member queues the kept 2/3-rule block of every
    sample it reaches, and as soon as every queue holds a sample, the
    oldest block of each is popped into that sample's distance column, so
    memory does not grow with the sample count.  ``on_sample(t, states)``,
    if given, then sees that sample's states in the order of
    ``config.alphas``; it is called once per shared time, in time order,
    on a worker thread.

    Members march on ``max_workers`` threads (one per member by default;
    the FFT work releases the interpreter lock).  Each thread owns one set
    of transport buffers and one sample pass, which reads every sample's
    ``linf`` (:func:`~sqglab.estimates._sample_pass`), and repeatedly
    advances, by one sample interval, the least-advanced member (the
    shortest queue) that no other thread is running (ties go to the lower
    index), which keeps the threads balanced.  One lock guards the schedule and the queues.  One
    :class:`~sqglab.dynamics.RunResult` per member is returned, in the
    order of ``config.alphas``; the runs and the report are bitwise
    independent of the pool size and the scheduling order.

    If members fail (a :class:`BlowUpError`, or a warning escalated to an
    error), the sweep raises the failure of the lowest-index one, a
    blow-up naming its alpha in the context; the queues are emptied and
    no sample is queued after a failure, and members above a failed one
    may stop early.  An exception from ``on_sample`` stops the sweep and
    is raised as it is.

    Warns up front when the initial data alone already violates the
    smallness hypothesis (coefficient at or above zero evaluated with both
    sup norms set to the initial L-infinity norm), since the contraction
    interpretation of the report is then unavailable.
    """
    initial = lq_norm(config.theta0, math.inf)
    if smallness_coefficient(initial, initial, _coercivity(config.domain, config.kappa)) >= 0:
        warnings.warn(
            "initial data is too large for the smallness regime; the sweep "
            "will run but the contraction bound does not apply",
            UserWarning,
            stacklevel=2,
        )
    stepper = config.stepper()
    domain = config.domain
    plan = _plan(domain)
    weight = _block_weights(domain, -0.5)[0]
    m = len(config.alphas)
    lanes: list[list[np.ndarray]] = [[] for _ in range(m)]  # a run's transport buffers
    start = SimulationState(t=0.0, theta=config.theta0)
    thread = threading.local()  # each worker's sample pass

    def linf(state: SimulationState) -> dict[str, float]:
        return {"linf": thread.sample(state.theta)[1]}

    members = [
        _sampled_run(start, config.params_for(alpha), stepper, linf, lanes[i])
        for i, alpha in enumerate(config.alphas)
    ]
    lock = threading.Lock()
    pending: list[deque[tuple[float, np.ndarray]]] = [deque() for _ in range(m)]  # no column yet
    busy = [False] * m
    results: list[RunResult | None] = [None] * m
    failures: dict[int, Exception] = {}
    columns: list[np.ndarray] = []
    halted = threading.Event()

    def emit() -> None:
        # under the lock, so samples leave in time order; a failing hook
        # halts the sweep before the lock is released, so it is not called again
        t = pending[0][0][0]
        blocks = [queue.popleft()[1] for queue in pending]
        columns.append(_distance_column(blocks, weight))
        if on_sample is not None:
            try:
                on_sample(t, tuple(
                    SimulationState(t=t, theta=SpectralField(plan.assemble(b), domain))
                    for b in blocks
                ))
            except BaseException:
                halted.set()
                raise

    def work() -> None:
        scratch, thread.sample = plan.scratch(), _sample_pass(domain, (), ())
        try:
            while True:
                with lock:
                    live = range(min(failures, default=m))
                    free = [i for i in live if not busy[i] and results[i] is None]
                    if halted.is_set() or not free:
                        return
                    i = min(free, key=lambda j: len(pending[j]))
                    busy[i] = True
                lanes[i][:] = scratch
                failure = sample = None
                try:
                    state = next(members[i])
                    sample = (state.t, plan.kept(state.theta.coeffs).copy())
                except StopIteration as end:
                    results[i] = end.value
                except Exception as err:  # raised below unless a lower member fails too
                    failure = err
                with lock:
                    busy[i] = False
                    if failure is not None:
                        failures[i] = failure
                        for queue in pending:  # no sample completes any more
                            queue.clear()
                    elif sample is not None and not failures:
                        pending[i].append(sample)
                        if all(pending):
                            emit()
        except BaseException:
            halted.set()
            raise

    workers = m if max_workers is None else max_workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(work) for _ in range(min(workers, m))]:
            future.result()
    if failures:
        i = min(failures)
        err = failures[i]
        if isinstance(err, BlowUpError):
            context = f"sweep run alpha={config.alphas[i]:g}"
            raise BlowUpError(err.t, err.cfl, context=context) from err
        raise err
    return assemble_report(config, results, np.stack(columns, axis=1)), results


def pairwise_bound_check(
    report: ConvergenceReport, c3_guess: float | None = None
) -> list[InequalityRecord]:
    """Check the qualitative convergence claims encoded in a sweep report.

    Produces one monotonicity record per consecutive pair of distances to
    the most critical run (distances must shrink as ``alpha`` descends),
    one record asserting the fitted decay exponent is positive, and — when
    ``c3_guess`` is supplied — informational records testing the linear
    bound ``sup_distance <= (c3_guess / c2) * delta_alpha``.

    ``c2`` is the negated smallness coefficient of the report when that is
    negative, and 1 otherwise: a nonnegative coefficient means the
    contraction hypothesis failed, and the linear bound then carries no
    rate constant.
    """
    c2 = -report.smallness_coeff if report.smallness_coeff < 0 else 1.0
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


def l43_interpolation_check(a: SpectralField, b: SpectralField) -> InequalityRecord:
    """Check the L^{4/3} interpolation bound for the difference of two fields.

    Tests ``|a - b|_{L^{4/3}} <= C * |a - b|_{H^{-1/2}}^{1/2} *
    |a - b|_{L^2}^{1/2}`` with the frozen, grid-calibrated constant
    ``C = L43_FROZEN_CONSTANT``.  On two-dimensional domains the exponent
    1/2 balances the scaling of both sides.
    """
    diff = a - b
    lhs = grid_lp_norm(diff, 4.0 / 3.0)
    zero = sobolev_norm(diff, 0.0)
    if zero == 0.0:
        rhs = 0.0
    else:
        rhs = L43_FROZEN_CONSTANT * sobolev_norm(diff, -0.5) ** 0.5 * zero ** 0.5
    return InequalityRecord(name="l43-interpolation", t=0.0, lhs=lhs, rhs=rhs)
