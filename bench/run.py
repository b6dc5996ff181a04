"""sqglab benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Generates the workload's config file from ``--seed``, measures it in child
processes (``worker.py``) and prints a human-readable report followed, as
the last line, by one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median warm
invocation), ``setup_s`` (median of fresh-interpreter set-ups), both in
host-scaled seconds (``worker.HostReference``; the unscaled medians are
printed too), and ``peak_rss_mb`` (peak RSS of a child after one
invocation).  The error rate is ``failed / attempted`` and is printed by
name.  ``--trace 1`` reports the per-layer metrics of a traced run (see
``README.md``).

All files are written under ``.bench_out/`` in the checkout.  The program
measured is the package under ``src/`` next to this directory; without it
it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import GROUPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: BLAS threads, pinned for every child; 1 never exceeds ``nproc``.
BLAS_THREADS = 1
#: Fresh-interpreter set-ups per untraced run (median reported).
SETUP_SAMPLES = 5
SMOKE_SETUP_SAMPLES = 2
#: Every child is killed after this many seconds.
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_ESTIMATE_PARTS = ("cordoba", "positivity", "monitor", "sobolev", "tail")

#: Per-layer metrics: name -> unit.
#: Unit ``count`` marks exact counts: they repeat exactly, on any seed.
#: ``series.bytes`` depends on how many digits the seed's floats print with.
PER_LAYER: dict[str, str] = {
    "spectral.transform_calls": "count",
    "spectral.transform_s": "s",
    "spectral.multiplier_s": "s",
    "spectral.norm_s": "s",
    "spectral.fields_built": "count",
    "spectral.fft_floor_ms": "ms",
    "spectral.rfft_floor_ms": "ms",
    "dynamics.steps": "count",
    "dynamics.step_ms": "ms",
    "dynamics.fft_floor_ratio": "ratio",
    "dynamics.rfft_floor_ratio": "ratio",
    "dynamics.monitor_s": "s",
    "dynamics.embed_s": "s",
    "estimates.battery_s": "s",
    **{f"estimates.{part}_s": "s" for part in _ESTIMATE_PARTS},
    "estimates.records": "count",
    "critical.sweep_s": "s",
    "critical.report_s": "s",
    "critical.distance_calls": "count",
    "critical.distance_s": "s",
    "critical.checks_s": "s",
    "operators.build_s": "s",
    "operators.builds": "count",
    "operators.quadrature_s": "s",
    "operators.oracle_s": "s",
    "operators.moment_s": "s",
    "fields.init_s": "s",
    "config.load_s": "s",
    "series.write_s": "s",
    "series.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "artifact.max_rel_dev": "ratio",
}

EXACT_UNIT = "count"


def _derive(summary: dict) -> dict:
    """Per-invocation layer values from one tracer summary."""
    out = {f"{g}_s": summary[f"{g}_s"] for g in GROUPS}
    out["estimates.battery_s"] = sum(out[f"estimates.{p}_s"] for p in _ESTIMATE_PARTS)
    steps = summary["dynamics.steps"]
    busy = summary["dynamics.integrate_s"] - summary["dynamics.monitor_s"]
    out["dynamics.step_ms"] = 1e3 * busy / steps if steps else 0.0
    out["spectral.transform_calls"] = (
        summary["spectral:to_physical_calls"] + summary["spectral:to_spectral_calls"]
    )
    out["critical.distance_calls"] = summary["critical:h_minus_half_distance_calls"]
    out["operators.builds"] = summary["operators:DenseOperator.__post_init___calls"]
    for key in (
        "cli.self_s",
        "dynamics.monitor_s",
        "dynamics.steps",
        "spectral.fields_built",
        "estimates.records",
        "series.bytes",
    ):
        out[key] = summary[key]
    return out


def per_layer_metrics(raw: dict) -> tuple[dict, list]:
    """Aggregate traced invocations: medians of times, exact counts.

    Returns (metrics, problems); a count that differs between traced
    invocations is a problem.
    """
    derived = [_derive(s) for s in raw["summaries"]]
    problems = []
    values: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if not derived or name not in derived[0]:
            continue
        column = [d[name] for d in derived]
        if unit == EXACT_UNIT:
            if len(set(column)) != 1:
                problems.append(f"{name} not repeatable: {column}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    floor = raw.get("floor_ms") or {"complex": 0.0, "real": 0.0}
    values["spectral.fft_floor_ms"] = floor["complex"]
    values["spectral.rfft_floor_ms"] = floor["real"]
    step = values.get("dynamics.step_ms", 0.0)
    values["dynamics.fft_floor_ratio"] = step / floor["complex"] if floor["complex"] else 0.0
    values["dynamics.rfft_floor_ratio"] = step / floor["real"] if floor["real"] else 0.0
    walls, traced = raw["walls"], raw["traced_walls"]
    values["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(walls) - 1.0 if walls and traced else 0.0
    )
    values["artifact.max_rel_dev"] = raw["max_rel_dev"]
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}, problems


def high_percentile(samples: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1]


def _child(args: list, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[:4]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def pinned_env() -> dict:
    """This process's environment with the BLAS threads pinned."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SQGLAB_OUT", None)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqglab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "sqglab", "cli.py")):
        print(f"no sqglab sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, "experiment.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed, smoke=args.smoke))
    common = ["--workload", workload.name, "--config", config, "--seed", str(args.seed)]
    common += ["--out", os.path.join(work, "artifacts")]
    if args.smoke:
        common.append("--smoke")
    env = pinned_env()
    try:
        setups = []
        if not args.trace:
            n_setup = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
            setups = [_child(["--mode", "setup", *common], env) for _ in range(n_setup)]
        run_args = ["--mode", "run", *common, "--seconds", str(args.seconds)]
        if args.trace:
            spans = os.path.join(out_root, f"spans-{workload.name}.jsonl")
            run_args += ["--trace", "1", "--spans", spans]
        raw = _child(run_args, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(raw["failures"])
    if not raw["walls"] or (args.trace and not raw["summaries"]):
        print(f"every timed invocation failed: {failures[:3]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, problems = per_layer_metrics(raw)
        failures += problems
    else:
        metrics = {
            "wall_s": statistics.median(raw["scaled_walls"]),
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}
    attempted = raw["attempted"]
    failed = len(raw["failures"])

    env_line = raw["env"]
    print(f"workload {workload.name} ({workload.kind}), seed {args.seed}, trace {args.trace}"
          f"{', smoke sizes' if args.smoke else ''}")
    print(
        f"environment: python {platform.python_version()}, numpy {env_line['numpy']}, "
        f"scipy {env_line['scipy']}, nproc {os.cpu_count()}, "
        f"BLAS threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS), "
        f"sweep --threads {'-' if workload.threads is None else 1 if args.trace else workload.threads}"
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        walls = raw["scaled_walls"]
        print(f"wall_s samples: {len(walls)} warm invocations after 1 warm-up "
              f"({', '.join(f'{w:.4f}' for w in walls)})")
        tail = high_percentile(walls)
        if tail:
            print(f"wall_s p{tail[0]} = {tail[1]:.6g} s")
        print(f"setup_s samples: {len(setups)} fresh interpreters")
        raw_setup = statistics.median(s["setup_s"] for s in setups)
        print(f"unscaled: wall_s = {statistics.median(raw['walls']):.6g} s, "
              f"setup_s = {raw_setup:.6g} s")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for problem in failures:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
