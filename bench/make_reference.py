"""Regenerate the stored reference artifacts at the default seed.

    python3 bench/make_reference.py

Runs every workload, at the real and the smoke size, through
``sqglab.cli.main`` with the benchmark's BLAS pinning, and stores
``series.csv``, ``summary.json`` and ``checks.json`` under
``bench/reference/{full,smoke}/<workload>/``.  Run it only on a commit
whose numbers are the accepted ones: the benchmark compares every later
run at the default seed against these files.
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


def main() -> int:
    import sqglab.cli

    work_dir = os.path.join(os.path.dirname(HERE), ".bench_out", "reference-build")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for smoke in (False, True):
            for workload in WORKLOADS.values():
                config = os.path.join(work_dir, "experiment.cfg")
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(workload.config_text(DEFAULT_SEED, smoke=smoke))
                out = os.path.join(work_dir, "artifacts")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = sqglab.cli.main(workload.argv(config, out))
                if code != 0:
                    print(f"{workload.name}: exit code {code}", file=sys.stderr)
                    return 1
                target = artifacts.reference_dir(workload.name, smoke)
                os.makedirs(target, exist_ok=True)
                for name in artifacts.COMPARED:
                    shutil.copyfile(os.path.join(out, name), os.path.join(target, name))
                print(f"{target}: written")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
