"""Command-line driver for the experiment suite.

Each run reads an experiment description file (see :mod:`sqglab.config`),
executes the requested study, and writes three byte-stable artifacts into
the output directory — ``series.csv``, ``summary.json``, ``checks.json`` —
plus a human-oriented ``run.log`` sidecar that carries the wall-clock
information deliberately kept out of the comparable artifacts.

Exit codes: 0 when every check passed, 1 for configuration problems
(unreadable file, bad grammar, invalid values, bad flags), 2 for numerical
failures (instability, non-convergence, or any failed check).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from datetime import datetime, timezone

import numpy as np
import scipy

from .config import _SECTIONS_BY_KIND, EXPERIMENT_KINDS, Experiment, load_config_file
from .critical import (
    AlphaSweepConfig,
    interpolation_upgrade,
    l43_interpolation_check,
    pairwise_bound_check,
    sweep_with_runs,
)
from .dynamics import SimulationState, StepperConfig, _block_weights, _plan, integrate
from .errors import (
    BlowUpError,
    ConfigError,
    ConvergenceError,
    FieldError,
    NonFiniteError,
    SingularOperatorError,
    SqgError,
    ZeroModeError,
)
from .estimates import (
    CutoffSpec,
    InequalityRecord,
    _battery_plan,
    damped_energy_monitor,
    linf_monitor,
    max_principle_monitor,
    sobolev_bound_monitor,
    tail_mass,
)
from .operators import (
    balakrishnan_neg_power,
    diagonal_operator,
    dirichlet_laplacian_1d,
    identity_minus_negpower_decay,
    inv_I_plus_Apow,
    lemma62_convergence,
    moment_inequality_trials,
    random_spd,
    resolvent_apply,
    scalar_operator,
)
from .series import DiagnosticsSeries, emit_csv, emit_json, write_table
from .spectral import (
    Basis,
    PhysicalField,
    SpectralField,
    _grid_norms,
    _sobolev_weights,
    _weighted_norms,
    to_physical,
)

__all__ = ["main"]

_NUMERICAL_ERRORS = (
    BlowUpError,
    ConvergenceError,
    NonFiniteError,
    SingularOperatorError,
    ZeroModeError,
    ArithmeticError,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures map to the config-error exit code."""

    def error(self, message):  # noqa: A003 - argparse API
        raise ConfigError(message, source="<command line>", line=0)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sqglab",
        description="Spectral studies of dissipative surface-transport dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="EXPERIMENT")
    help_by_kind = {
        "simulate": "time-step one configuration and record norm diagnostics",
        "sweep-alpha": "march the dissipation order toward 1/2 and compare runs",
        "operator-tests": "validate the fractional-operator quadratures",
        "estimates-report": "run a simulation and evaluate the full estimate battery",
        "dirichlet-sweep": "alpha sweep on the square with homogeneous boundary data",
    }
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=help_by_kind[kind])
        p.add_argument("--config", required=True, help="experiment description file")
        p.add_argument("--out", default=None, help="output directory for artifacts")
        p.add_argument(
            "--seed", type=int, default=None, help="override the [init] seed"
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads for sweep runs (default: one per run)",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="escalate warnings (CFL, smallness) to errors",
        )
    return parser


def _resolve_out_dir(cli_out: str | None, experiment: Experiment) -> str:
    if cli_out:
        return cli_out
    env_out = os.environ.get("SQGLAB_OUT")
    if env_out:
        return env_out
    return experiment.parsed.get("output", "dir") or "sqglab-out"


def _write_checks(out_dir: str, records: list) -> int:
    payload = {
        "checks": [r.as_dict() for r in records],
        "n_checks": len(records),
        "n_failed": sum(not r.passed for r in records),
        "all_passed": all(r.passed for r in records),
    }
    emit_json(payload, os.path.join(out_dir, "checks.json"))
    return payload["n_failed"]


def _write_log(out_dir: str, started: str, t0: float, status: str) -> None:
    lines = [
        f"started {started}",
        f"finished {datetime.now(timezone.utc).isoformat()}",
        f"elapsed_seconds {time.monotonic() - t0:.3f}",
        f"numpy {np.__version__}",
        f"scipy {scipy.__version__}",
        f"status {status}",
    ]
    with open(os.path.join(out_dir, "run.log"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _domain_meta(experiment: Experiment, seed: int | None) -> dict:
    domain, get = experiment.domain, experiment.parsed.get
    meta = {
        "kind": experiment.kind,
        "basis": domain.basis.value,
        "n": domain.n,
        "box": domain.box,
        "kappa": get("params", "kappa"),
        "lambda": get("params", "lambda"),
        # the one stepping scheme; bench/reference/ holds this value
        "scheme": "etd2rk",
        "t_end": get("stepper", "t_end"),
        "sample_every": get("stepper", "sample_every"),
        "init": get("init", "type"),
    }
    if experiment.params is not None:
        meta["alpha"] = experiment.params.alpha
    if meta["init"] == "random":
        meta["seed"] = get("init", "seed") if seed is None else int(seed)
    return meta


def _run_fixed_alpha(
    experiment: Experiment,
    theta0: SpectralField,
    stepper: StepperConfig,
    seed: int | None,
    out_dir: str,
) -> int:
    """Shared driver for ``simulate`` and ``estimates-report``."""
    params, get = experiment.params, experiment.parsed.get
    full_battery = experiment.kind == "estimates-report"
    sobolev_orders = get("monitors", "sobolev")
    finite_lq = [q for q in get("monitors", "lq") if math.isfinite(q)]
    # the battery runs per sample, so no state outlives its sample
    battery: list[InequalityRecord] = []
    masses: list[float] = []
    # per H^l bound (l >= alpha), the H^(l + alpha) norm of every sample
    mid_norms = [(s, []) for s in sobolev_orders if s >= params.alpha]
    # every Sobolev norm of a sample comes from one scaled |theta_k|^2
    orders = [0.0, *sobolev_orders]
    if full_battery:
        orders += [s + params.alpha for s, _ in mid_norms]
    radius = get("monitors", "tail_cutoff")
    cutoff = None if radius is None else CutoffSpec(k=radius)
    # one set of battery buffers, reused by every sample
    domain = theta0.domain
    battery_plan = _battery_plan(domain, params.alpha) if full_battery else None
    scratch = battery_plan.scratch() if full_battery else None
    # without the battery, two grids of the size of theta's (Dirichlet: its
    # interior, the spectral shape) for the norm pass of every sample
    grids = () if full_battery else tuple(np.empty(domain.spectral_shape) for _ in range(2))
    # on the torus theta's grid is the transport plan's pruned synthesis of
    # the kept block, through the synthesis buffers owned for the run, and
    # the Sobolev norms sum over that block, whose weights count each
    # column's conjugate mirror (integrate's states are zero outside it);
    # the box sums its full layout, as sobolev_norm does, bit for bit
    plan = _plan(domain)
    torus = domain.basis is Basis.TORUS
    transforms = plan.synthesis_scratch() if torus else None
    norm_layout = plan.kept if torus else np.asarray
    norm_weights = [(_block_weights if torus else _sobolev_weights)(domain, s) for s in orders]

    def sample(state: SimulationState) -> dict[str, float]:
        # one synthesis of theta feeds the linf and lq columns and the battery
        theta = state.theta
        dealiased = plan.dealiased(theta.coeffs)
        if transforms is not None and dealiased:
            grid = PhysicalField(plan.theta(theta.coeffs, transforms), domain)
        else:
            grid = to_physical(theta)
        l2, *sobolev = _weighted_norms(norm_layout(theta.coeffs), norm_weights)
        if full_battery:
            slack, linf, lq, integrals = battery_plan.check(
                theta, grid, finite_lq, scratch, dealiased
            )
        else:
            linf, lq, _ = _grid_norms(grid.values, domain, finite_lq, buffers=grids)
        row = {"l2": l2, "linf": linf}
        row.update((f"lq{q:g}", value) for q, value in zip(finite_lq, lq))
        row.update((f"h{s:g}", value) for s, value in zip(sobolev_orders, sobolev))
        if not full_battery:
            return row
        battery.append(
            InequalityRecord(name="cordoba-min-slack", t=state.t, lhs=0.0, rhs=slack)
        )
        for q, value in zip(finite_lq, integrals):
            battery.append(
                InequalityRecord(name=f"positivity-q{q:g}", t=state.t, lhs=0.0, rhs=value)
            )
        if cutoff is not None:
            masses.append(tail_mass(grid, cutoff))
        for (_, norms), value in zip(mid_norms, sobolev[len(sobolev_orders) :]):
            norms.append(value)
        return row

    result = integrate(SimulationState(t=0.0, theta=theta0), params, stepper, sample=sample)
    # the sampling is over: the buffers go before the artifacts are built
    scratch = transforms = grids = None
    series = result.series
    series.meta.update(_domain_meta(experiment, seed))
    times = series.times

    records: list[InequalityRecord] = []
    for q in finite_lq:
        recs = max_principle_monitor(
            times, series.column(f"lq{q:g}"), q, forcing=params.forcing
        )
        series.add_column(f"slack_lq{q:g}", [r.slack for r in recs])
        records.extend(recs)
    linf_recs = linf_monitor(times, series.column("linf"), forcing=params.forcing)
    series.add_column("slack_linf", [r.slack for r in linf_recs])
    records.extend(linf_recs)
    if get("monitors", "damped_energy"):
        damped = damped_energy_monitor(times, series.column("l2"), params.lam)
        series.add_column("slack_damped", [r.slack for r in damped])
        records.extend(damped)

    if full_battery:
        records.extend(battery)
        for s, norms in mid_norms:
            records.extend(
                sobolev_bound_monitor(times, series.column(f"h{s:g}"), norms, s, params)
            )
        if cutoff is not None:
            series.add_column("tail_mass", masses)
            records.append(
                InequalityRecord(
                    name="tail-mass-decrease",
                    t=times[-1],
                    lhs=masses[-1],
                    rhs=masses[0],
                )
            )

    emit_csv(series, os.path.join(out_dir, "series.csv"))
    final = result.final
    summary = dict(series.meta)
    summary.update(
        {
            "n_samples": len(series),
            "n_steps": stepper.n_steps,
            "final_t": float(final.t),
            "final_l2": series.column("l2")[-1],
            "final_linf": series.column("linf")[-1],
        }
    )
    emit_json(summary, os.path.join(out_dir, "summary.json"))
    return _write_checks(out_dir, records)


def _run_sweep_kind(
    experiment: Experiment,
    config: AlphaSweepConfig,
    seed: int | None,
    out_dir: str,
    threads: int | None,
) -> int:
    report, runs = sweep_with_runs(config, max_workers=threads)

    times = report.times
    m = len(config.alphas)
    pairs = zip(*np.triu_indices(m, k=1), report.distances)
    rows = [
        (float(config.alphas[i]), float(config.alphas[j]), float(t), float(distance))
        for i, j, row in pairs
        for t, distance in zip(times, row)
    ]
    meta = _domain_meta(experiment, seed)
    meta["dt"] = runs[0].series.meta["dt"]
    meta["alphas"] = ",".join(f"{a:g}" for a in config.alphas)
    write_table(
        os.path.join(out_dir, "series.csv"),
        ("alpha_i", "alpha_j", "t", "h_minus_half"),
        rows,
        meta=meta,
    )

    records: list[InequalityRecord] = [
        InequalityRecord(
            name="smallness-coefficient",
            t=0.0,
            lhs=report.smallness_coeff,
            rhs=0.0,
            tol=0.0,
        )
    ]
    get = experiment.parsed.get
    records.extend(pairwise_bound_check(report, c3_guess=get("sweep", "c3")))
    for i in range(m - 1):
        lhs, rhs = interpolation_upgrade(
            runs[i].final.theta,
            runs[i + 1].final.theta,
            get("sweep", "epsilon"),
        )
        records.append(
            InequalityRecord(
                name=f"interp-upgrade-{config.alphas[i]:g}-{config.alphas[i + 1]:g}",
                t=float(times[-1]),
                lhs=lhs,
                rhs=rhs,
            )
        )
    records.append(l43_interpolation_check(runs[0].final.theta, runs[-1].final.theta))

    summary = dict(meta)
    summary["report"] = report.as_dict()
    emit_json(summary, os.path.join(out_dir, "summary.json"))
    return _write_checks(out_dir, records)


def _run_operator_tests(experiment: Experiment, out_dir: str) -> int:
    size, seed, trials, laplacian_n = (
        experiment.parsed.get("operator", key) for key in ("size", "seed", "trials", "laplacian_n")
    )
    records: list[InequalityRecord] = []

    def error_record(name: str, err: float, bound: float) -> InequalityRecord:
        return InequalityRecord(name=name, t=0.0, lhs=float(err), rhs=bound, tol=0.0)

    value = balakrishnan_neg_power(scalar_operator(4.0), 0.5, np.ones(1))[0]
    records.append(error_record("scalar-neg-half-power", abs(value - 0.5), 1e-10))
    value = inv_I_plus_Apow(scalar_operator(1.0), 0.5, np.ones(1))[0]
    records.append(error_record("scalar-inv-i-plus-root", abs(value - 0.5), 1e-10))

    got = resolvent_apply(diagonal_operator([1.0, 3.0]), 1.0, np.ones(2))
    err = float(np.max(np.abs(got - np.array([0.5, 0.25]))))
    records.append(error_record("diagonal-resolvent", err, 1e-12))

    rng = np.random.default_rng(seed)
    cases = (
        ("laplacian1d", dirichlet_laplacian_1d(laplacian_n)),
        ("randomspd", random_spd(size, seed=seed)),
    )
    for label, A in cases:
        phi = rng.standard_normal(A.size)
        for alpha in (0.25, 0.5, 0.75):
            got = balakrishnan_neg_power(A, alpha, phi)
            want = A.apply_power(-alpha, phi)
            rel = float(
                np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            )
            records.append(error_record(f"negpower-{label}-a{alpha:g}", rel, 1e-6))
            got = inv_I_plus_Apow(A, alpha, phi)
            want = A.apply_function(lambda mu, a=alpha: 1.0 / (1.0 + mu**a), phi)
            rel = float(
                np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            )
            records.append(error_record(f"inv-i-plus-apow-{label}-a{alpha:g}", rel, 1e-6))

    lap = cases[0][1]
    psi = rng.standard_normal(lap.size)
    phi = lap.apply(psi / np.linalg.norm(psi))
    ladder = lemma62_convergence(lap, phi)
    for (a_prev, e_prev), (a_next, e_next) in zip(ladder, ladder[1:]):
        records.append(
            InequalityRecord(
                name=f"lemma-limit-monotone-a{a_next:g}",
                t=0.0,
                lhs=e_next,
                rhs=e_prev,
                tol=0.0,
            )
        )
    records.append(
        InequalityRecord(
            name="lemma-limit-ratio",
            t=0.0,
            lhs=5.0 * ladder[-1][1],
            rhs=ladder[0][1],
            tol=0.0,
        )
    )

    spd = cases[1][1]
    phi = rng.standard_normal(spd.size)
    decay = identity_minus_negpower_decay(spd, phi)
    for (b_prev, v_prev), (b_next, v_next) in zip(decay, decay[1:]):
        records.append(
            InequalityRecord(
                name=f"identity-decay-monotone-b{b_next:g}",
                t=0.0,
                lhs=v_next,
                rhs=v_prev,
                tol=0.0,
            )
        )
    records.append(
        error_record(
            "identity-decay-final", decay[-1][1], 1e-3 * float(np.linalg.norm(phi))
        )
    )

    _, _, passed = moment_inequality_trials(rng, trials)
    records.append(
        InequalityRecord(
            name="moment-inequality-trials",
            t=0.0,
            lhs=float(np.count_nonzero(~passed)),
            rhs=0.0,
            tol=0.0,
        )
    )

    series = DiagnosticsSeries(
        meta={
            "kind": experiment.kind,
            "size": size,
            "seed": seed,
            "trials": trials,
            "laplacian_n": laplacian_n,
        }
    )
    emit_csv(series, os.path.join(out_dir, "series.csv"))
    summary = dict(series.meta)
    summary["lemma_limit_errors"] = [[float(a), float(e)] for a, e in ladder]
    summary["identity_decay"] = [[float(b), float(v)] for b, v in decay]
    emit_json(summary, os.path.join(out_dir, "summary.json"))
    return _write_checks(out_dir, records)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 1

    for flag, value, minimum in (("--threads", args.threads, 1), ("--seed", args.seed, 0)):
        if value is not None and value < minimum:
            message = f"{flag} must be at least {minimum}"
            print(ConfigError(message, source="<command line>", line=0), file=sys.stderr)
            return 1

    try:
        experiment = load_config_file(args.config)
        if experiment.kind != args.command:
            raise ConfigError(
                f"config file describes kind {experiment.kind!r} but the "
                f"command line asked for {args.command!r}",
                source=str(args.config),
                line=1,
            )
        # built before the output directory, so that a bad [init] value and
        # a CFL-derived step past the step cap are config errors
        theta0 = stepper = sweep = None
        if experiment.kind != "operator-tests":
            theta0 = experiment.initial_field(args.seed)
            try:
                if "sweep" in _SECTIONS_BY_KIND[experiment.kind]:
                    sweep = experiment.sweep_config(theta0)
                else:
                    stepper = experiment.stepper_for(theta0)
            except FieldError as err:
                message = f"t_end is too long for the CFL-derived step: {err}"
                experiment.parsed.require(False, message, "stepper", "t_end")
    except ConfigError as err:
        print(err, file=sys.stderr)
        return 1
    except OSError as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return 1

    out_dir = _resolve_out_dir(args.out, experiment)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        print(f"config error: cannot make output directory {out_dir}: {err}", file=sys.stderr)
        return 1
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    try:
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error")
            if experiment.kind == "operator-tests":
                n_failed = _run_operator_tests(experiment, out_dir)
            elif sweep is not None:
                n_failed = _run_sweep_kind(experiment, sweep, args.seed, out_dir, args.threads)
            else:
                n_failed = _run_fixed_alpha(experiment, theta0, stepper, args.seed, out_dir)
    except (*_NUMERICAL_ERRORS, Warning) as err:
        # a Warning arrives only under --strict, which escalates run-quality
        # warnings (CFL, smallness) into failures
        _write_log(out_dir, started, t0, f"numerical failure: {err}")
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except SqgError as err:
        # Remaining package errors at run time indicate an unusable setup.
        _write_log(out_dir, started, t0, f"config error: {err}")
        print(err, file=sys.stderr)
        return 1

    status = "ok" if n_failed == 0 else f"{n_failed} checks failed"
    _write_log(out_dir, started, t0, status)
    print(f"{experiment.kind}: artifacts in {out_dir} ({status})")
    return 0 if n_failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
