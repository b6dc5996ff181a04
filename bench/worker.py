"""Measurement child process of the benchmark (started by ``run.py``).

``--mode setup`` times one fresh-interpreter set-up: ``import sqglab.cli``,
``config.load_config_file``, ``Experiment.initial_field``,
``stepper_for``/``sweep_config`` and the first ``dynamics.etd_coefficients``
(import and config load only for ``operator-tests``).

``--mode run`` drives ``sqglab.cli.main`` in this process: one untimed
warm-up invocation (after which the process's peak RSS is read), then
timed invocations until ``--seconds`` have passed.  Untraced set-up and
wall times are also reported host-scaled (see :class:`HostReference`).
With ``--trace`` the timed invocations alternate untraced/traced, all with
one sweep thread so that the two differ only by the tracer, and before
each traced invocation the FFT floor of one ETD2RK step is sampled on the
workload's transport grid.

Every invocation is checked: exit code 0, every check passed, and the
comparable artifacts within tolerance of the reference (the stored one at
the default seed, else the run's own first invocation).  The last line of
standard output is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import artifacts  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Fewest timed invocations per untraced run, whatever ``--seconds`` says.
#: A traced run makes at least one untraced/traced pair.
MIN_TIMED = 3
#: No new invocation starts after this many seconds of timed work, so a run
#: ends well inside the benchmark's 180-second limit.
HARD_STOP_S = 100.0
#: FFT-floor probe samples taken before each traced invocation, so that
#: the floor and the step time see the same machine state.
FLOOR_REPEATS = 10


#: Reference-kernel time that defines a host-scaled second: the kernel's
#: median time, next to the workloads, on the 2-core x86-64 host where the
#: benchmark was defined (40 runs).  It only sets the unit.
REFERENCE_S = 0.091


class HostReference:
    """Fixed numpy/scipy/Python work that measures how fast the host runs now.

    The host's speed drifts by tens of percent over tens of seconds (other
    tenants share its cores), and wall times drift with it.  Timing this
    kernel next to each measurement gives the factor that removes the drift;
    the kernel uses no sqglab code, so a change to the package cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.grid = rng.standard_normal((256, 256))
        mat = rng.standard_normal((300, 300))
        self.mat = mat @ mat.T
        self.seconds()  # first call pays for FFT plans and BLAS start-up

    def seconds(self) -> float:
        import numpy as np
        import scipy.fft as fft

        t0 = time.perf_counter()
        for _ in range(40):
            back = fft.ifft2(fft.fft2(self.grid) * 0.5).real
            float(np.abs(back).max() + (self.grid * back).sum())
        np.linalg.eigh(self.mat)
        table: dict = {}
        for i in range(150_000):
            table[i % 97] = table.get(i % 97, 0) + i
        return time.perf_counter() - t0


def _setup(workload, config_path: str) -> dict:
    t0 = time.perf_counter()
    import sqglab.cli  # noqa: F401
    from sqglab import config, dynamics

    experiment = config.load_config_file(config_path)
    if workload.kind != "operator-tests":
        theta0 = experiment.initial_field()
        if workload.kind.endswith("sweep"):
            sweep = experiment.sweep_config(theta0)
            params, dt = sweep.params_for(sweep.alphas[0]), sweep.shared_dt()
        else:
            params, dt = experiment.params, experiment.stepper_for(theta0).dt
        dynamics.etd_coefficients(theta0.domain, params, dt)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "scaled_s": setup_s * REFERENCE_S / HostReference().seconds()}


def fft_floor_ms(n: int, repeats: int = FLOOR_REPEATS) -> dict:
    """Samples (ms) of the bare FFTs of one ETD2RK step on an n-by-n torus grid.

    One step evaluates the transport twice; each evaluation synthesizes
    u1, u2 and theta (3 inverse transforms) and analyzes the two fluxes
    (2 forward transforms).  ``complex`` uses ``ifft2``/``fft2`` as the
    package does today; ``real`` uses ``irfft2``/``rfft2``.
    """
    import numpy as np
    import scipy.fft as fft

    rng = np.random.default_rng(0)
    real = rng.standard_normal((n, n))
    spec = fft.fft2(real)
    half = fft.rfft2(real)

    def complex_step():
        for _ in range(2):
            for _ in range(3):
                fft.ifft2(spec)
            for _ in range(2):
                fft.fft2(real)

    def real_step():
        for _ in range(2):
            for _ in range(3):
                fft.irfft2(half, s=(n, n))
            for _ in range(2):
                fft.rfft2(real)

    out = {}
    for name, step in (("complex", complex_step), ("real", real_step)):
        step()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            step()
            samples.append(1e3 * (time.perf_counter() - t0))
        out[name] = samples
    return out


class _Runner:
    """Invokes the CLI for one workload and checks every invocation."""

    def __init__(self, workload, seed: int, smoke: bool, config_path: str, out_dir: str):
        import sqglab.cli

        self.cli = sqglab.cli
        self.workload = workload
        self.config_path = config_path
        self.out_dir = out_dir
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = artifacts.read(artifacts.reference_dir(workload.name, smoke))
        self.attempted = 0
        #: One entry per failed invocation.
        self.failures: list[str] = []
        self.max_rel_dev = 0.0

    def invoke(self, single_thread: bool = False):
        """Run once; return (seconds, artifact bytes or None on failure)."""
        self.attempted += 1
        argv = self.workload.argv(self.config_path, self.out_dir, single_thread)
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            seconds = time.perf_counter() - t0
            if code != 0:
                raise artifacts.Mismatch(f"exit code {code}")
            got = artifacts.read(self.out_dir)
            if not artifacts.all_checks_passed(got):
                raise artifacts.Mismatch("a check failed")
            if self.reference is None:
                self.reference = got
            self.max_rel_dev = max(self.max_rel_dev, artifacts.check(got, self.reference))
        except Exception as err:  # noqa: BLE001 - every failure is counted
            self.failures.append(f"{type(err).__name__}: {err}")
            return None, None
        return seconds, got


def _run(workload, args) -> dict:
    runner = _Runner(workload, args.seed, args.smoke, args.config, args.out)
    result: dict = {}
    grid = workload.grid(args.smoke) if args.trace else None
    floor = {"complex": [], "real": []}
    single_thread = bool(args.trace)
    runner.invoke(single_thread)  # warm-up: caches filled, lazy set-up done
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls, traced_walls, summaries = [], [], []
    # Untraced runs scale each wall time by the host reference timed just
    # before and just after it.
    reference = None if args.trace else HostReference()
    before = reference.seconds() if reference else 0.0
    scaled_walls = []
    tracer = None
    start = time.perf_counter()
    rounds = 0
    min_rounds = 1 if args.trace else MIN_TIMED
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > HARD_STOP_S:
            break
        rounds += 1
        seconds, untraced = runner.invoke(single_thread)
        if seconds is not None:
            walls.append(seconds)
        if not args.trace:
            after = reference.seconds()
            if seconds is not None:
                scaled_walls.append(seconds * REFERENCE_S * 2 / (before + after))
            before = after
            continue
        if grid:
            for name, samples in fft_floor_ms(grid).items():
                floor[name] += samples
        with Tracer() as tracer:
            seconds, traced = runner.invoke(single_thread=True)
        if seconds is None:
            continue
        if leftover_wrappers():
            runner.failures.append(f"wrappers left installed: {leftover_wrappers()}")
            continue
        if untraced is not None and traced != untraced:
            runner.failures.append("traced artifacts differ from untraced ones")
            continue
        summary = tracer.summary()
        summary["series.bytes"] = sum(len(b) for b in traced.values())
        summaries.append(summary)
        traced_walls.append(seconds)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)

    if floor["complex"]:
        result["floor_ms"] = {k: statistics.median(v) for k, v in floor.items()}
    result.update(
        env={"numpy": sys.modules["numpy"].__version__, "scipy": sys.modules["scipy"].__version__},
        walls=walls,
        scaled_walls=scaled_walls,
        traced_walls=traced_walls,
        summaries=summaries,
        attempted=runner.attempted,
        failures=runner.failures,
        max_rel_dev=runner.max_rel_dev,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = _setup(workload, args.config)
    else:
        result = _run(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
