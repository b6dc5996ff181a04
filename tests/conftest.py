"""Shared fixtures, a test oracle and the acceptance-summary reporting hook."""

from __future__ import annotations

import atexit
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from sqglab.spectral import Basis, DomainSpec, SpectralField

# Property tests draw the same examples on every run and write no example
# database; tests set only ``max_examples``.
settings.register_profile("sqglab", database=None, deadline=None, derandomize=True)
settings.load_profile("sqglab")
# Hypothesis still caches the constants it scrapes from test modules in its
# home directory; keep that cache in a per-session directory removed at exit,
# so a run writes nothing into the checkout.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="sqglab-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)

# ----------------------------------------------------------------------------
# shared domains
# ----------------------------------------------------------------------------


@pytest.fixture(scope="session")
def torus32() -> DomainSpec:
    return DomainSpec(n=32, box=2 * np.pi, basis=Basis.TORUS)


@pytest.fixture(scope="session")
def torus64() -> DomainSpec:
    return DomainSpec(n=64, box=2 * np.pi, basis=Basis.TORUS)


@pytest.fixture(scope="session")
def dirichlet32() -> DomainSpec:
    return DomainSpec(n=32, box=np.pi, basis=Basis.DIRICHLET)


@pytest.fixture(scope="session")
def dirichlet64() -> DomainSpec:
    return DomainSpec(n=64, box=np.pi, basis=Basis.DIRICHLET)


def inner_product(a: SpectralField, b: SpectralField) -> float:
    """L²(box) inner product ⟨a, b⟩ = Σ conj(â)·b̂ (orthonormal Parseval): a test oracle."""
    assert a.domain == b.domain, "fields live on different domains"
    return float(np.real(np.sum(np.conj(a.coeffs) * b.coeffs)))


# ----------------------------------------------------------------------------
# acceptance summary: one visible pass/fail line per criterion
# ----------------------------------------------------------------------------

_CRITERION = re.compile(r"test_criterion_(\d+)")
_outcomes: dict[int, str] = {}
_details: dict[int, str] = {}


def record_criterion_detail(number: int, text: str) -> None:
    """Called by acceptance tests to attach a measured-value blurb."""
    _details[number] = text


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance" not in str(item.fspath):
        return
    match = _CRITERION.search(item.name)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call":
        _outcomes[number] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _outcomes[number] = "FAIL"
    elif report.when == "setup" and report.skipped:
        _outcomes[number] = "SKIP"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_outcomes):
        detail = _details.get(number, "")
        suffix = f" — {detail}" if detail else ""
        terminalreporter.write_line(
            f"criterion {number:02d}: {_outcomes[number]}{suffix}"
        )
