"""Measure how far round-off moves each workload's artifacts.

    python3 bench/roundoff.py

Runs every workload at the default seed with its inputs perturbed by one
unit in the last place (the initial field's coefficients, or the matrices
of ``operator-battery``, scaled by ``1 + 2**-52``) and prints the largest
deviation from the stored reference, as ``artifacts.deviation`` measures
it.  This is the evidence behind ``artifacts.RTOL`` and ``artifacts.FLOOR``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from run import pinned_env  # noqa: E402

os.environ.update(pinned_env())  # before numpy is imported

import artifacts  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ULP = 1.0 + 2.0**-52


def _perturbed(fn, make):
    def wrapper(*args, **kwargs):
        return make(fn(*args, **kwargs))

    return wrapper


@contextlib.contextmanager
def perturbed_inputs():
    """Scale the initial field and the battery's operators by one ulp."""
    from sqglab import cli, config
    from sqglab.operators import DenseOperator
    from sqglab.spectral import SpectralField

    saved = [
        (config, "random_smooth_field"),
        (cli, "random_spd"),
        (cli, "dirichlet_laplacian_1d"),
    ]
    originals = [getattr(owner, name) for owner, name in saved]
    field = lambda f: SpectralField(f.coeffs * ULP, f.domain)  # noqa: E731
    matrix = lambda op: DenseOperator(op.matrix * ULP)  # noqa: E731
    config.random_smooth_field = _perturbed(originals[0], field)
    cli.random_spd = _perturbed(originals[1], matrix)
    cli.dirichlet_laplacian_1d = _perturbed(originals[2], matrix)
    try:
        yield
    finally:
        for (owner, name), original in zip(saved, originals):
            setattr(owner, name, original)


def main() -> int:
    import sqglab.cli

    work_dir = os.path.join(os.path.dirname(HERE), ".bench_out", "roundoff")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for workload in WORKLOADS.values():
            config = os.path.join(work_dir, "experiment.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(workload.config_text(DEFAULT_SEED))
            out = os.path.join(work_dir, "artifacts")
            with perturbed_inputs(), contextlib.redirect_stdout(io.StringIO()):
                code = sqglab.cli.main(workload.argv(config, out))
            got = artifacts.read(out)
            want = artifacts.read(artifacts.reference_dir(workload.name))
            try:
                dev = f"{artifacts.deviation(got, want):.3e}"
            except artifacts.Mismatch as err:
                dev = f"structural mismatch: {err}"
            print(f"{workload.name}: exit {code}, max deviation {dev}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
