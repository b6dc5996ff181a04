"""Workload definitions: one sqglab experiment kind per workload.

Each workload is a config file generated from the benchmark seed.  The
seed only selects the random initial field (or the random operators of
``operator-battery``); sizes, step counts and monitors are fixed, so every
seed does the same amount of work.  Every workload pins ``dt`` so that
``t_end / dt`` is an integer and the step count does not depend on how a
run lands on its horizon.

``smoke=True`` gives tiny sizes of the same kinds for the benchmark's own
tests; it never changes the real definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Seed whose artifacts are stored under ``bench/reference/``.
DEFAULT_SEED = 0

#: Sweep worker threads for the untraced runs.  The traced run always uses
#: one, so that spans nest in a single thread.
SWEEP_THREADS = 2

_SWEEP_ALPHAS = "[0.75, 0.65, 0.6, 0.55, 0.52, 0.51]"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    #: Config sections for the real and the smoke size.  ``{seed}`` is
    #: replaced by the benchmark seed.
    sections: str
    smoke_sections: str
    #: Sweep threads passed as ``--threads`` (None: flag omitted).
    threads: int | None = None
    #: Transport grid side for the FFT-floor probe (None: no FFTs).
    fft_grid: int | None = None
    smoke_fft_grid: int | None = None

    def config_text(self, seed: int, smoke: bool = False) -> str:
        body = self.smoke_sections if smoke else self.sections
        return f"[experiment]\nkind = {self.kind}\n" + body.format(seed=int(seed))

    def argv(self, config_path: str, out_dir: str, single_thread: bool = False) -> list:
        argv = [self.kind, "--config", config_path, "--out", out_dir]
        if self.threads is not None:
            argv += ["--threads", "1" if single_thread else str(self.threads)]
        return argv

    def grid(self, smoke: bool = False) -> int | None:
        return self.smoke_fft_grid if smoke else self.fft_grid


def _simulate(n, dt, t_end, sample_every, extra=""):
    return (
        f"[domain]\nn = {n}\nbasis = torus\n"
        "[params]\nkappa = 0.2\nalpha = 0.75\n"
        f"[stepper]\ndt = {dt}\nt_end = {t_end}\nsample_every = {sample_every}\n"
        "[init]\ntype = random\nseed = {seed}\namplitude = 0.5\n"
        "[monitors]\nlq = [2, 4, 8]\nsobolev = [1.5]\n" + extra
    )


def _estimates(n, dt, t_end):
    return (
        f"[domain]\nn = {n}\nbasis = torus\n"
        "[params]\nkappa = 0.2\nalpha = 0.75\nlambda = 0.1\n"
        f"[stepper]\ndt = {dt}\nt_end = {t_end}\nsample_every = 1\n"
        "[init]\ntype = random\nseed = {seed}\namplitude = 0.5\n"
        "[monitors]\nlq = [2, 4, 8]\nsobolev = [1.5]\ntail_cutoff = 1.5\n"
    )


def _dirichlet(n, dt, t_end, alphas):
    return (
        f"[domain]\nn = {n}\nbox = {math.pi!r}\nbasis = dirichlet\n"
        "[params]\nkappa = 0.2\n"
        f"[stepper]\ndt = {dt}\nt_end = {t_end}\nsample_every = 1\n"
        "[init]\ntype = random\nseed = {seed}\namplitude = 0.05\n"
        f"[sweep]\nalphas = {alphas}\n"
    )


def _operators(size, laplacian_n, trials):
    return (
        f"[operator]\nsize = {size}\nseed = {{seed}}\n"
        f"trials = {trials}\nlaplacian_n = {laplacian_n}\n"
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="torus-stepper",
            kind="simulate",
            why="torus ETD2RK transport at n=256 (200 steps); monitors idle, "
            "Dirichlet and estimate code bypassed",
            sections=_simulate(256, 0.01, 2.0, 50),
            smoke_sections=_simulate(16, 0.05, 0.2, 2),
            fft_grid=256,
            smoke_fft_grid=16,
        ),
        Workload(
            name="dirichlet-sweep",
            kind="dirichlet-sweep",
            why="six-alpha Dirichlet sweep at n=128 through the doubled 256^2 "
            "torus, plus the H^-1/2 sweep report; estimates bypassed",
            sections=_dirichlet(128, 0.0125, 0.5, _SWEEP_ALPHAS),
            smoke_sections=_dirichlet(16, 0.05, 0.1, "[0.75, 0.6]"),
            threads=SWEEP_THREADS,
            fft_grid=256,
            smoke_fft_grid=32,
        ),
        Workload(
            name="estimates-battery",
            kind="estimates-report",
            why="estimate battery on 201 retained samples at n=128: per-sample "
            "transforms, Cordoba and positivity checks; the memory workload",
            sections=_estimates(128, 0.02, 4.0),
            smoke_sections=_estimates(16, 0.05, 0.2),
            fft_grid=128,
            smoke_fft_grid=16,
        ),
        Workload(
            name="operator-battery",
            kind="operator-tests",
            why="dense operator quadratures and eigh oracles, no FFT: the "
            "only workload that runs the operators layer",
            sections=_operators(500, 500, 8000),
            smoke_sections=_operators(6, 8, 5),
        ),
    )
}
