"""Experiment-description grammar, validation, and command-line driver.

The grammar tests pin the exact diagnostics (message text, source label,
line number) so a broken run file always points at the offending line.
The driver tests call ``main`` in-process and assert on the exit-code
contract -- 0 all checks pass, 1 configuration problem, 2 numerical
failure or failed check -- and on the artifact files it writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sqglab
from oracles import log_sobolev_norm
from sqglab import dynamics
from sqglab.cli import main
from sqglab.config import (
    EXPERIMENT_KINDS,
    Experiment,
    load_config_file,
    load_experiment,
    parse_config_file,
    parse_config_text,
)
from sqglab.critical import DEFAULT_SWEEP_ALPHAS
from sqglab.dynamics import MAX_STEPS, SimulationState, integrate
from sqglab.errors import CflWarning, ConfigError
from sqglab.estimates import (
    CutoffSpec,
    InequalityRecord,
    cordoba_pointwise_check,
    damped_energy_monitor,
    linf_monitor,
    max_principle_monitor,
    positivity_integral_check,
    sobolev_bound_monitor,
    tail_mass,
)
from sqglab.spectral import Basis, lq_norm, sobolev_norm, to_physical


def cfg(*lines: str) -> str:
    """Join config lines so the test can reason about 1-based line numbers."""
    return "\n".join(lines) + "\n"


def parse(text: str):
    return parse_config_text(text, source="<test>")


def load(text: str) -> Experiment:
    return load_experiment(parse(text))


def load_error(text: str, match: str, line: int | None = None) -> ConfigError:
    with pytest.raises(ConfigError) as info:
        load(text)
    assert match in str(info.value)
    if line is not None:
        assert info.value.line == line
    return info.value


SIMULATE_LINES = (
    "[experiment]",  # 1
    "kind = simulate",  # 2
    "[domain]",  # 3
    "n = 16",  # 4
    "[params]",  # 5
    "kappa = 0.5",  # 6
    "alpha = 0.75",  # 7
    "[stepper]",  # 8
    "dt = 0.01",  # 9
    "t_end = 0.05",  # 10
    "[init]",  # 11
    "type = random",  # 12
    "amplitude = 0.1",  # 13
)
SIMULATE = cfg(*SIMULATE_LINES)


SWEEP_LINES = (
    "[experiment]",  # 1
    "kind = sweep-alpha",  # 2
    "[domain]",  # 3
    "n = 16",  # 4
    "[params]",  # 5
    "kappa = 0.2",  # 6
    "[stepper]",  # 7
    "t_end = 0.1",  # 8
    "[init]",  # 9
    "type = random",  # 10
    "amplitude = 0.05",  # 11
    "[sweep]",  # 12
)
DIRICHLET_SWEEP_LINES = (SWEEP_LINES[0], "kind = dirichlet-sweep", *SWEEP_LINES[2:])


def simulate_with(key: str, replacement: str) -> str:
    """The base simulate config with one ``key = value`` line swapped out."""
    lines = [
        replacement if line.startswith(f"{key} ") else line
        for line in SIMULATE_LINES
    ]
    return cfg(*lines)


class TestGrammar:
    def test_values_parse_into_python_types(self):
        parsed = parse(
            cfg(
                "# leading comment",
                "[init]",
                'type = "random"',
                "seed = 3",
                "decay = 2.5",
                "",
                "; other comment style",
                "[monitors]",
                "lq = [2, 4, inf]",
                "damped_energy = false",
                "sobolev = []",
            )
        )
        assert parsed.entry("init", "type").value == "random"
        assert parsed.entry("init", "seed").value == 3
        assert parsed.entry("init", "decay").value == 2.5
        assert parsed.entry("monitors", "lq").value == (2, 4, math.inf)
        assert parsed.entry("monitors", "damped_energy").value is False
        assert parsed.entry("monitors", "sobolev").value == ()

    def test_entries_carry_their_line_numbers(self):
        parsed = parse(cfg("[init]", "type = random", "", "seed = 7"))
        assert parsed.section_line("init") == 1
        assert parsed.entry("init", "type").line == 2
        assert parsed.entry("init", "seed").line == 4

    def test_error_string_cites_source_and_line(self):
        err = ConfigError("boom", source="run.cfg", line=7)
        assert str(err) == "config error (run.cfg, line 7): boom"
        assert err.source == "run.cfg"
        assert err.line == 7

    def test_unknown_section(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("[experiment]", "kind = simulate", "[warp]"))
        assert "unknown section [warp]" in str(info.value)
        assert info.value.line == 3
        assert info.value.source == "<test>"

    def test_duplicate_section_cites_first_occurrence(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("[init]", "type = random", "[init]"))
        assert "duplicate section [init] (first at line 1)" in str(info.value)
        assert info.value.line == 3

    def test_line_without_equals(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("[init]", "just some words"))
        assert "expected 'key = value' or '[section]'" in str(info.value)
        assert info.value.line == 2

    def test_invalid_key_name(self):
        with pytest.raises(ConfigError, match="invalid key '9lives'"):
            parse(cfg("[init]", "9lives = 1"))

    def test_key_before_any_section(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("type = random"))
        assert "key 'type' appears before any [section] header" in str(info.value)
        assert info.value.line == 1

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("[domain]", "sidelength = 3"))
        message = str(info.value)
        assert "unknown key 'sidelength' in section [domain]" in message
        assert "'box'" in message and "'n'" in message and "'basis'" in message

    def test_duplicate_key_cites_first_occurrence(self):
        with pytest.raises(ConfigError) as info:
            parse(cfg("[domain]", "n = 16", "n = 32"))
        assert "duplicate key 'n' in section [domain] (first at line 2)" in str(
            info.value
        )
        assert info.value.line == 3

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse(cfg("[domain]", "n ="))

    def test_unterminated_array(self):
        with pytest.raises(ConfigError, match="unterminated array"):
            parse(cfg("[monitors]", "lq = [2, 4"))

    def test_empty_array_element(self):
        with pytest.raises(ConfigError, match="empty element in array"):
            parse(cfg("[monitors]", "lq = [2, , 4]"))

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="cannot parse value '2,5'"):
            parse(cfg("[domain]", "box = 2,5"))

    def test_parse_config_file_uses_path_as_source(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(cfg("[domain]", "n = 16", "n = 32"), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_config_file(path)
        assert info.value.source == str(path)
        assert info.value.line == 3


class TestTypedGetters:
    def test_missing_key_cites_section_header_line(self):
        text = cfg(*(line for line in SIMULATE_LINES if not line.startswith("t_end")))
        err = load_error(text, "missing required key 't_end' in section [stepper]")
        assert err.line == 8  # the [stepper] header

    def test_missing_section_cites_end_of_file(self):
        text = cfg(
            "[experiment]",
            "kind = simulate",
            "[domain]",
            "n = 16",
        )
        err = load_error(text, "missing required key 'kappa' in section [params]")
        assert err.line == 4  # EOF: the section is absent entirely

    def test_number_expected(self):
        load_error(simulate_with("kappa", "kappa = true"), "kappa must be a number")

    def test_number_must_be_finite(self):
        load_error(simulate_with("kappa", "kappa = nan"), "kappa must be finite")

    def test_integer_expected(self):
        load_error(simulate_with("n", "n = 16.5"), "n must be an integer", line=4)

    def test_string_expected(self):
        load_error(simulate_with("kind", "kind = true"), "kind must be a string")

    def test_choice_rejected(self):
        text = cfg(*SIMULATE_LINES[:4], "basis = sphere", *SIMULATE_LINES[4:])
        err = load_error(text, "basis must be one of ['dirichlet', 'torus'], got 'sphere'")
        assert err.line == 5

    def test_bool_expected(self):
        text = cfg(*SIMULATE_LINES, "[monitors]", "damped_energy = 1")
        load_error(text, "damped_energy must be true or false")

    def test_array_expected(self):
        text = cfg(*SIMULATE_LINES, "[monitors]", "lq = 2")
        load_error(text, "lq must be an array like [1, 2, 3]")

    def test_integer_array_expected(self):
        text = cfg(
            *SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [1, 2.5]"
        )
        load_error(text, "mode must be an array of integers")


class TestLoadExperiment:
    def test_minimal_simulate_defaults(self):
        exp = load(SIMULATE)
        assert exp.kind == "simulate"
        assert exp.domain.n == 16
        assert exp.domain.box == pytest.approx(2 * math.pi)
        assert exp.domain.basis is Basis.TORUS
        assert exp.params.alpha == 0.75
        assert exp.parsed.get("params", "lambda") == 0.0
        assert exp.forcing is None
        assert exp.parsed.get("stepper", "dt") == 0.01
        assert exp.parsed.get("stepper", "t_end") == 0.05
        # ETD2RK is the one scheme; a file may not choose another
        text = cfg(*SIMULATE_LINES[:10], "scheme = etd2rk", *SIMULATE_LINES[10:])
        load_error(text, "unknown key 'scheme' in section [stepper]", line=11)
        assert exp.parsed.get("stepper", "sample_every") == 1
        assert exp.parsed.get("init", "type") == "random"
        assert exp.parsed.get("init", "seed") == 0
        assert exp.parsed.get("monitors", "lq") == ()
        assert exp.parsed.get("monitors", "tail_cutoff") is None
        assert exp.parsed.get("output", "dir") is None

    def test_missing_kind_cites_end_of_file(self):
        err = load_error(
            cfg("[domain]", "n = 16"),
            "missing required key 'kind' in section [experiment]",
        )
        assert err.line == 2

    def test_unknown_kind(self):
        text = simulate_with("kind", "kind = warp")
        err = load_error(text, "kind must be one of")
        assert err.line == 2
        for kind in EXPERIMENT_KINDS:
            assert f"'{kind}'" in str(err)

    def test_section_not_used_by_kind(self):
        text = cfg(
            "[experiment]",
            "kind = operator-tests",
            "[domain]",
            "n = 16",
        )
        err = load_error(
            text, "section [domain] is not used by experiment kind 'operator-tests'"
        )
        assert err.line == 3

    def test_bad_grid_size_cites_the_n_line(self):
        err = load_error(
            simulate_with("n", "n = 100"), "n must be a power of two >= 16, got 100"
        )
        assert err.line == 4

    def test_critical_alpha_rejected_for_time_evolution(self):
        err = load_error(
            simulate_with("alpha", "alpha = 0.5"), "alpha must exceed 1/2"
        )
        assert err.line == 7

    def test_alpha_forbidden_in_sweep_kinds(self):
        text = cfg(
            "[experiment]",
            "kind = sweep-alpha",
            "[domain]",
            "n = 16",
            "[params]",
            "kappa = 0.2",
            "alpha = 0.75",
            "[stepper]",
            "t_end = 0.1",
            "[init]",
            "type = random",
        )
        err = load_error(
            text, "alpha is fixed per sweep member; set [sweep] alphas instead"
        )
        assert err.line == 7

    def test_alpha_required_for_fixed_kinds(self):
        text = cfg(*(line for line in SIMULATE_LINES if not line.startswith("alpha")))
        err = load_error(
            text, "missing required key 'alpha' in section [params] for kind 'simulate'"
        )
        assert err.line == 5  # the [params] header

    def test_dt_beyond_horizon_is_rejected_for_every_kind(self):
        # one dt rule, dt in (0, t_end], for the fixed-alpha and the sweep kinds
        sweep = load_error(
            cfg(*SWEEP_LINES[:7], "dt = 0.5", *SWEEP_LINES[7:]), "dt must lie in (0, t_end], got 0.5"
        )
        simulate = load_error(simulate_with("dt", "dt = 0.5"), "dt must lie in (0, t_end], got 0.5")
        assert (sweep.line, simulate.line) == (8, 9)

    def test_stepper_validation(self):
        load_error(simulate_with("t_end", "t_end = 0"), "t_end must be positive")
        load_error(simulate_with("dt", "dt = 0.2"), "dt must lie in (0, t_end]")
        load_error(
            cfg(*SIMULATE_LINES[:10], "sample_every = 0", *SIMULATE_LINES[10:]),
            "sample_every must be a positive integer",
        )

    def test_forcing_basis_must_match_type(self):
        torus_sine = cfg(*SIMULATE_LINES, "[forcing]", "type = sine")
        load_error(torus_sine, "sine forcing requires the dirichlet basis")
        dirichlet = cfg(
            "[experiment]",
            "kind = simulate",
            "[domain]",
            "n = 16",
            "basis = dirichlet",
            "[params]",
            "kappa = 0.5",
            "alpha = 0.75",
            "[stepper]",
            "t_end = 0.05",
            "[init]",
            "type = random",
            "[forcing]",
            "type = cosine",
        )
        load_error(dirichlet, "cosine forcing requires the torus basis")

    def test_forcing_mode_needs_two_components(self):
        text = cfg(
            *SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [1, 0, 0]"
        )
        load_error(text, "forcing mode must have two components")

    def test_forcing_built_when_requested(self):
        text = cfg(
            *SIMULATE_LINES,
            "[forcing]",
            "type = cosine",
            "mode = [1, 0]",
            "amplitude = 0.25",
        )
        exp = load(text)
        assert exp.forcing is not None
        assert exp.forcing.domain == exp.domain

    def test_init_validation(self):
        load_error(
            cfg(*SIMULATE_LINES[:11], "type = shear", "mode = 0"),
            "mode must lie in [1, n/2)",
        )
        load_error(
            cfg(*SIMULATE_LINES[:11], "type = bump"),
            "bump initial data requires a width",
        )
        load_error(
            cfg(*SIMULATE_LINES[:11], "type = bump", "width = 100"),
            "width must lie in (0, box/4]",
        )
        load_error(
            cfg(*SIMULATE_LINES, "decay = 1"),
            "decay must exceed 1 for a smooth field",
        )
        load_error(
            simulate_with("amplitude", "amplitude = 0"),
            "amplitude must be positive",
        )

    def test_shear_requires_torus_basis(self):
        text = cfg(
            "[experiment]",
            "kind = simulate",
            "[domain]",
            "n = 16",
            "basis = dirichlet",
            "[params]",
            "kappa = 0.5",
            "alpha = 0.75",
            "[stepper]",
            "t_end = 0.05",
            "[init]",
            "type = shear",
        )
        load_error(text, "shear initial data requires the torus basis")

    def test_monitor_validation(self):
        load_error(
            cfg(*SIMULATE_LINES, "[monitors]", "lq = [1.5]"),
            "lq orders must be >= 2",
        )
        load_error(
            cfg(*SIMULATE_LINES, "[monitors]", "sobolev = [0]"),
            "sobolev orders must be positive",
        )
        load_error(
            cfg(*SIMULATE_LINES, "[monitors]", "damped_energy = true"),
            "damped_energy monitoring requires lambda > 0",
        )
        load_error(
            cfg(*SIMULATE_LINES, "[monitors]", "tail_cutoff = 10"),
            "tail_cutoff must satisfy 0 < 4*cutoff <= box",
        )

    def test_monitor_lq_accepts_infinity(self):
        exp = load(cfg(*SIMULATE_LINES, "[monitors]", "lq = [2, inf]"))
        assert exp.parsed.get("monitors", "lq") == (2.0, math.inf)

    def _sweep_text(self, *extra: str) -> str:
        return cfg(
            "[experiment]",
            "kind = sweep-alpha",
            "[domain]",
            "n = 16",
            "[params]",
            "kappa = 0.2",
            "[stepper]",
            "t_end = 0.1",
            "[init]",
            "type = random",
            "amplitude = 0.05",
            "[sweep]",
            *extra,
        )

    def test_sweep_validation(self):
        load_error(
            self._sweep_text("alphas = [0.6, 0.75]"),
            "alphas must be strictly decreasing",
        )
        load_error(
            self._sweep_text("alphas = [0.75, 0.502]"),
            "the final alpha must stay at or above 0.505",
        )
        load_error(
            self._sweep_text("alphas = [0.75, 0.3]"),
            "sweep alphas must lie in (1/2, 1]",
        )
        load_error(
            self._sweep_text("alphas = []"),
            "alphas must contain at least one dissipation order",
        )
        load_error(
            self._sweep_text("epsilon = 0.6"), "epsilon must lie in (0, 1/2)"
        )
        load_error(self._sweep_text("c3 = 0"), "c3 must be positive")

    def test_sweep_defaults(self):
        exp = load(self._sweep_text())
        assert exp.parsed.get("sweep", "alphas") == DEFAULT_SWEEP_ALPHAS
        assert exp.parsed.get("sweep", "epsilon") == 0.25
        assert exp.parsed.get("sweep", "c3") is None
        assert exp.params is None
        assert exp.parsed.get("params", "kappa") == 0.2

    def test_dirichlet_sweep_basis(self):
        base = (
            "[experiment]",
            "kind = dirichlet-sweep",
            "[domain]",
            "n = 16",
            "[params]",
            "kappa = 0.2",
            "[stepper]",
            "t_end = 0.1",
            "[init]",
            "type = random",
        )
        exp = load(cfg(*base))
        assert exp.domain.basis is Basis.DIRICHLET
        bad = cfg(*base[:4], "basis = torus", *base[4:])
        load_error(bad, "dirichlet-sweep requires basis = dirichlet", line=5)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[domain]", "n = 16"), 3,
                         "section [domain] is not used by experiment kind 'operator-tests'",
                         id="section-not-used"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]", "size = 1"), 4,
                         "size must be at least 2, got 1", id="operator-size"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]", "seed = -1"), 4,
                         "seed must be at least 0, got -1", id="operator-seed"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]", "trials = 0"), 4,
                         "trials must be at least 1, got 0", id="operator-trials"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]",
                             "laplacian_n = 1"), 4,
                         "laplacian_n must be at least 2, got 1", id="operator-laplacian-n"),
            pytest.param(simulate_with("n", "n = 100"), 4, "n must be a power of two >= 16, got 100",
                         id="domain-n"),
            pytest.param(simulate_with("n", "n = 4096"), 4, "n must be at most 2048, got 4096",
                         id="domain-n-above-bound"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]", "size = 2049"), 4,
                         "size must be at most 2048, got 2049", id="operator-size-above-bound"),
            pytest.param(cfg("[experiment]", "kind = operator-tests", "[operator]",
                             "laplacian_n = 2049"), 4,
                         "laplacian_n must be at most 2048, got 2049",
                         id="operator-laplacian-n-above-bound"),
            pytest.param(cfg(*SIMULATE_LINES[:4], "box = 0", *SIMULATE_LINES[4:]), 5,
                         "box size must be positive and finite, got 0.0", id="domain-box"),
            pytest.param(cfg(*DIRICHLET_SWEEP_LINES[:4], "basis = torus", *DIRICHLET_SWEEP_LINES[4:]),
                         5, "dirichlet-sweep requires basis = dirichlet", id="dirichlet-sweep-basis"),
            pytest.param(simulate_with("kappa", "kappa = 0"), 6,
                         "kappa must be positive and finite, got 0.0", id="simulate-kappa"),
            pytest.param(simulate_with("kappa", "kappa = 1" + "0" * 400), 6,
                         "kappa must be finite, got inf", id="kappa-huge-integer"),
            pytest.param(cfg(*SWEEP_LINES, "alphas = [-1" + "0" * 400 + "]"), 13,
                         "alphas must be finite, got -inf", id="alphas-huge-integer"),
            pytest.param(simulate_with("alpha", "alpha = 0.5"), 7,
                         "alpha must exceed 1/2 for time evolution (and be <= 1), got 0.5",
                         id="simulate-alpha"),
            pytest.param(cfg(*SIMULATE_LINES[:7], "lambda = -1", *SIMULATE_LINES[7:]), 8,
                         "lam must be nonnegative and finite, got -1.0", id="simulate-lambda"),
            pytest.param(cfg(*(line for line in SIMULATE_LINES if not line.startswith("alpha"))), 5,
                         "missing required key 'alpha' in section [params] for kind 'simulate'",
                         id="simulate-alpha-missing"),
            pytest.param(cfg(*SWEEP_LINES[:6], "alpha = 0.75", *SWEEP_LINES[6:]), 7,
                         "alpha is fixed per sweep member; set [sweep] alphas instead",
                         id="sweep-alpha-given"),
            pytest.param(cfg(*SWEEP_LINES[:5], "kappa = 0", *SWEEP_LINES[6:]), 6,
                         "kappa must be positive and finite, got 0.0", id="sweep-kappa"),
            pytest.param(cfg(*SWEEP_LINES[:6], "lambda = -0.5", *SWEEP_LINES[6:]), 7,
                         "lam must be nonnegative and finite, got -0.5", id="sweep-lambda"),
            pytest.param(cfg(*SWEEP_LINES[:7], "dt = -1", *SWEEP_LINES[7:]), 8,
                         "dt must lie in (0, t_end], got -1.0", id="sweep-dt"),
            pytest.param(cfg(*SWEEP_LINES[:7], "t_end = 0", *SWEEP_LINES[8:]), 8,
                         "t_end must be positive and finite, got 0.0", id="sweep-t-end"),
            pytest.param(simulate_with("t_end", "t_end = 0"), 10,
                         "t_end must be positive and finite, got 0.0",
                         id="t-end"),
            pytest.param(simulate_with("dt", "dt = 0.2"), 9, "dt must lie in (0, t_end], got 0.2",
                         id="dt-above-t-end"),
            pytest.param(simulate_with("dt", "dt = 1e-320"), 9,
                         "dt is too small: t_end/dt overflows, got 1e-320", id="dt-subnormal"),
            pytest.param(cfg(*SIMULATE_LINES[:10], "sample_every = 0", *SIMULATE_LINES[10:]), 11,
                         "sample_every must be a positive integer, got 0", id="sample-every"),
            pytest.param(cfg(*SIMULATE_LINES[:10], "sample_every = 1" + "0" * 400,
                             *SIMULATE_LINES[10:]), 11,
                         f"sample_every must be at most 1000000, the most steps a run takes, "
                         f"got {10**400!r}", id="sample-every-huge-integer"),
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [1, 0, 0]"), 16,
                         "forcing mode must have two components, got (1, 0, 0)", id="forcing-mode-length"),
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [9, 0]"), 16,
                         "mode (9, 0) outside the resolved range", id="forcing-mode-range"),
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = sine"), 15,
                         "sine forcing requires the dirichlet basis", id="forcing-sine-on-torus"),
            pytest.param(cfg(*SIMULATE_LINES[:4], "basis = dirichlet", *SIMULATE_LINES[4:],
                             "[forcing]", "type = cosine"), 16,
                         "cosine forcing requires the torus basis", id="forcing-cosine-on-box"),
            pytest.param(cfg(*SIMULATE_LINES, "seed = -3"), 14, "seed must be at least 0, got -3",
                         id="init-seed"),
            pytest.param(simulate_with("amplitude", "amplitude = 0"), 13,
                         "amplitude must be positive, got 0.0", id="init-amplitude"),
            pytest.param(cfg(*SIMULATE_LINES, "decay = 1"), 14,
                         "decay must exceed 1 for a smooth field, got 1.0", id="init-decay"),
            pytest.param(cfg(*SIMULATE_LINES[:4], "basis = dirichlet", *SIMULATE_LINES[4:11],
                             "type = shear"), 13,
                         "shear initial data requires the torus basis", id="init-shear-on-box"),
            pytest.param(cfg(*SIMULATE_LINES[:11], "type = shear", "mode = 8"), 13,
                         "mode must lie in [1, n/2), got 8", id="init-shear-mode"),
            pytest.param(cfg(*SIMULATE_LINES[:11], "type = bump"), 11,
                         "bump initial data requires a width", id="init-bump-width-missing"),
            pytest.param(cfg(*SIMULATE_LINES[:11], "type = bump", "width = 100"), 13,
                         "width must lie in (0, box/4], got 100.0", id="init-bump-width"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "lq = [2, 1.5]"), 15,
                         "lq orders must be >= 2, got 1.5", id="monitors-lq"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "sobolev = [0]"), 15,
                         "sobolev orders must be positive, got 0.0", id="monitors-sobolev"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "lq = [4, 4]"), 15,
                         "lq orders must name distinct columns, got 'lq4' twice",
                         id="monitors-lq-repeated"),
            # two orders that print alike name one column
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "lq = [2, 2.0000001]"), 15,
                         "lq orders must name distinct columns, got 'lq2' twice",
                         id="monitors-lq-same-column"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "sobolev = [1, 1]"), 15,
                         "sobolev orders must name distinct columns, got 'h1' twice",
                         id="monitors-sobolev-repeated"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "damped_energy = true"), 15,
                         "damped_energy monitoring requires lambda > 0", id="monitors-damped-energy"),
            pytest.param(cfg(*SIMULATE_LINES, "[monitors]", "tail_cutoff = 10"), 15,
                         "tail_cutoff must satisfy 0 < 4*cutoff <= box, got 10.0",
                         id="monitors-tail-cutoff"),
            pytest.param(cfg(*SWEEP_LINES, "alphas = []"), 13,
                         "alphas must contain at least one dissipation order", id="sweep-alphas-empty"),
            pytest.param(cfg(*SWEEP_LINES, "alphas = [0.75, 0.3]"), 13,
                         "sweep alphas must lie in (1/2, 1], got 0.3", id="sweep-alphas-range"),
            pytest.param(cfg(*SWEEP_LINES, "alphas = [0.6, 0.75]"), 13,
                         "alphas must be strictly decreasing", id="sweep-alphas-decreasing"),
            pytest.param(cfg(*SWEEP_LINES, "alphas = [0.75, 0.502]"), 13,
                         "the final alpha must stay at or above 0.505", id="sweep-alphas-final"),
            pytest.param(cfg(*SWEEP_LINES, "epsilon = 0.6"), 13,
                         "epsilon must lie in (0, 1/2), got 0.6", id="sweep-epsilon"),
            pytest.param(cfg(*SWEEP_LINES, "c3 = 0"), 13, "c3 must be positive, got 0.0",
                         id="sweep-c3"),
            # type = none reads neither mode nor amplitude: both once went unchecked
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = none", "amplitude = word",
                             "mode = [1, 2, 3]"), 16,
                         "amplitude must be a number, got 'word'", id="forcing-unused-amplitude"),
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = none", "mode = [1, 2, 3]"), 16,
                         "forcing mode must have two components, got (1, 2, 3)",
                         id="forcing-unused-mode"),
        ],
    )
    def test_value_rules_cite_their_line(self, text, line, message):
        with pytest.raises(ConfigError) as info:
            load(text)
        assert str(info.value) == f"config error (<test>, line {line}): {message}"
        assert info.value.line == line

    def test_operator_tests_defaults_and_validation(self):
        exp = load(cfg("[experiment]", "kind = operator-tests"))
        get = exp.parsed.get
        assert (get("operator", "size"), get("operator", "seed")) == (16, 0)
        assert (get("operator", "trials"), get("operator", "laplacian_n")) == (200, 32)
        assert exp.domain is None and exp.params is None
        err = load_error(
            cfg("[experiment]", "kind = operator-tests", "[operator]", "size = 1"),
            "size must be at least 2, got 1",
        )
        assert err.line == 4


class TestExperimentMethods:
    def test_initial_field_is_deterministic_and_seed_overridable(self):
        exp = load(SIMULATE)
        first = exp.initial_field()
        again = exp.initial_field()
        assert np.array_equal(first.coeffs, again.coeffs)
        other = exp.initial_field(99)
        assert not np.array_equal(first.coeffs, other.coeffs)

    def test_initial_field_unavailable_for_operator_kind(self):
        exp = load(cfg("[experiment]", "kind = operator-tests"))
        with pytest.raises(ValueError, match="has no initial field"):
            exp.initial_field()

    def test_stepper_dt_defaults_from_advective_scale_and_caps_at_t_end(self):
        explicit = load(SIMULATE)
        assert explicit.stepper_for(explicit.initial_field()).dt == 0.01
        text = cfg(*(line for line in SIMULATE_LINES if not line.startswith("dt")))
        derived = load(text)
        stepper = derived.stepper_for(derived.initial_field())
        assert 0 < stepper.dt <= derived.parsed.get("stepper", "t_end")

    def test_sweep_config_only_for_sweep_kinds(self):
        exp = load(SIMULATE)
        with pytest.raises(ValueError, match="is not a sweep"):
            exp.sweep_config(exp.initial_field())

    def test_load_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SIMULATE, encoding="utf-8")
        exp = load_config_file(path)
        assert exp.kind == "simulate"
        assert exp.domain.n == 16


SIM_CLI = cfg(
    "[experiment]",
    "kind = simulate",
    "[domain]",
    "n = 16",
    "[params]",
    "kappa = 0.5",
    "alpha = 0.75",
    "[stepper]",
    "dt = 0.01",
    "t_end = 0.05",
    "[init]",
    "type = random",
    "amplitude = 0.1",
    "[monitors]",
    "lq = [2, 4]",
    "sobolev = [1]",
)

BLOWUP_CLI = cfg(
    "[experiment]",
    "kind = simulate",
    "[domain]",
    "n = 16",
    "[params]",
    "kappa = 1e-06",
    "alpha = 0.75",
    "[stepper]",
    "dt = 50",
    "t_end = 500",
    "[init]",
    "type = random",
    "seed = 5",
    "amplitude = 50",
)

SWEEP_CLI_LINES = (
    "[experiment]",
    "kind = sweep-alpha",
    "[domain]",
    "n = 16",
    "[params]",
    "kappa = 0.2",
    "[stepper]",
    "dt = 0.05",
    "t_end = 0.2",
    "[init]",
    "type = random",
    "amplitude = 0.05",
    "seed = 3",
    "[sweep]",
    "alphas = [0.75, 0.6]",
)

#: estimates-report at n = 64 sampled every step: 101 samples
STREAMING_REPORT = cfg(
    *SIMULATE_LINES[:1],
    "kind = estimates-report",
    "[domain]",
    "n = 64",
    *SIMULATE_LINES[4:8],
    "dt = 0.01",
    "t_end = 1.0",
    *SIMULATE_LINES[10:],
    "[monitors]",
    "lq = [2, 4]",
    "sobolev = [1.5]",
    "tail_cutoff = 1.5",
)

OPERATOR_CLI = cfg(
    "[experiment]",
    "kind = operator-tests",
    "[operator]",
    "size = 6",
    "seed = 1",
    "trials = 5",
    "laplacian_n = 8",
)

ARTIFACTS = ("series.csv", "summary.json", "checks.json", "run.log")


@pytest.fixture(autouse=True)
def _no_out_dir_env(monkeypatch):
    monkeypatch.delenv("SQGLAB_OUT", raising=False)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _series_rows(out) -> tuple[list[str], list[list[float]]]:
    """The column names and float rows of a run's ``series.csv``."""
    lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    header, *rows = [line for line in lines if not line.startswith("#")]
    return header.split(","), [[float(x) for x in row.split(",")] for row in rows]


class TestCliExitCodes:
    def test_simulate_all_checks_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"simulate: artifacts in {out} (ok)" in stdout
        for name in ARTIFACTS:
            assert (out / name).is_file()

    def test_unreadable_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["simulate", "--config", missing]) == 1
        assert "config error: cannot read" in capsys.readouterr().err

    def test_grammar_error_maps_to_exit_one(self, tmp_path, capsys):
        config = write_config(tmp_path, cfg("[domain]", "n = 16", "n = 32"))
        assert main(["simulate", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"config error ({config}, line 3)" in err
        assert "duplicate key 'n'" in err

    @pytest.mark.parametrize(
        ("command", "text", "line", "message"),
        [
            pytest.param("operator-tests", OPERATOR_CLI.replace("trials = 5", "trials = 100001"),
                         6, "trials must be at most 100000, got 100001", id="operator-trials"),
            # 0.25 and 250000.25 are exact binary fractions: 1000001 steps exactly
            pytest.param("simulate",
                         simulate_with("t_end", "t_end = 250000.25").replace("dt = 0.01", "dt = 0.25"),
                         9, "dt is too small: t_end/dt asks for more than 1000000 steps, got 0.25",
                         id="step-count"),
        ],
    )
    def test_run_length_beyond_its_bound_is_a_cited_config_error(
        self, tmp_path, capsys, command, text, line, message
    ):
        # one valid-looking line once asked for a run that never ends
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert f"config error ({config}, line {line}): {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("command", "text", "line"),
        [
            pytest.param("simulate", cfg(*SIMULATE_LINES[:8], "t_end = 1e6", *SIMULATE_LINES[10:]),
                         9, id="simulate"),
            pytest.param("sweep-alpha", cfg(*SWEEP_LINES[:7], "t_end = 1e6", *SWEEP_LINES[8:]),
                         8, id="sweep-alpha"),
        ],
    )
    def test_cfl_step_past_the_step_cap_is_a_cited_config_error(
        self, tmp_path, capsys, command, text, line
    ):
        # with dt unset the step comes from the initial field's CFL limit,
        # so t_end alone asks for millions of steps; that once failed
        # uncited, after the output directory was made
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert (
            f"config error ({config}, line {line}): t_end is too long for the CFL-derived "
            "step: dt is too small: t_end/dt asks for more than 1000000 steps"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["at-a-file", "under-a-file"])
    def test_unusable_output_directory_is_a_config_error(self, tmp_path, capsys, where):
        # os.makedirs once raised FileExistsError or NotADirectoryError out of main
        config = write_config(tmp_path, SIM_CLI)
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken if where == "at-a-file" else taken / "out"
        before = sorted(tmp_path.iterdir())
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        assert f"config error: cannot make output directory {out}: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert taken.read_text(encoding="utf-8") == "kept\n"

    def test_undecodable_config_is_a_cited_config_error(self, tmp_path, capsys):
        # a Latin-1 byte once raised UnicodeDecodeError out of main
        config = tmp_path / "run.cfg"
        text = cfg(*SIMULATE_LINES[:3], "# r\xe9solution", *SIMULATE_LINES[3:])
        config.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert (
            f"config error ({config}, line 4): not UTF-8 text: byte 0xe9 cannot be decoded"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_run_length_at_its_bound_loads(self):
        exp = load(OPERATOR_CLI.replace("trials = 5", "trials = 100000"))
        assert exp.parsed.get("operator", "trials") == 100000
        exp = load(simulate_with("t_end", "t_end = 250000").replace("dt = 0.01", "dt = 0.25"))
        assert exp.stepper_for(exp.initial_field()).n_steps == MAX_STEPS == 1000000

    def test_subnormal_dt_is_a_cited_config_error(self, tmp_path, capsys):
        # t_end/dt overflows to inf, which once surfaced as a numerical failure
        config = write_config(tmp_path, simulate_with("dt", "dt = 1e-320"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error ({config}, line 9)" in err
        assert "dt is too small: t_end/dt overflows, got 1e-320" in err

    @pytest.mark.parametrize(
        ("command", "text", "line", "message"),
        [
            pytest.param("simulate", simulate_with("n", "n = 1099511627776"), 4,
                         "n must be at most 2048, got 1099511627776", id="domain-n"),
            pytest.param("operator-tests", OPERATOR_CLI.replace("size = 6", "size = 4096"), 4,
                         "size must be at most 2048, got 4096", id="operator-size"),
            pytest.param("operator-tests",
                         OPERATOR_CLI.replace("laplacian_n = 8", "laplacian_n = 2049"), 7,
                         "laplacian_n must be at most 2048, got 2049", id="operator-laplacian-n"),
        ],
    )
    def test_oversized_array_is_a_cited_config_error(
        self, tmp_path, capsys, command, text, line, message
    ):
        # n = 2^40 once reached the initial field's random draw, which
        # raised an uncaught ValueError; the bound is checked at load time,
        # so nothing of the requested size is allocated
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main([command, "--config", config, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"config error ({config}, line {line}): {message}" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20

    @pytest.mark.parametrize(
        ("text", "line", "message"),
        [
            pytest.param(
                SIMULATE + "decay = 1e308\n",
                14,
                "decay = 1e+308 leaves the zero field, which has no amplitude",
                id="decay",
            ),
            pytest.param(
                simulate_with("type", "type = bump") + "width = 1e-300\n",
                14,
                "width = 1e-300 is too small: its square underflows to 0",
                id="width",
            ),
            pytest.param(
                simulate_with("amplitude", "amplitude = 1e308"),
                13,
                "amplitude = 1e+308 overflows: the field peaks at",
                id="amplitude",
            ),
            pytest.param(
                simulate_with("type", "type = shear").replace("amplitude = 0.1", "amplitude = 1e308"),
                13,
                "amplitude = 1e+308 overflows the coefficient amplitude*L/2",
                id="shear-amplitude",
            ),
        ],
    )
    def test_init_value_that_builds_no_field_exits_one(
        self, tmp_path, capsys, text, line, message
    ):
        # the field is built before the output directory, like every other
        # check of the file, so the error cites its line and writes nothing
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error ({config}, line {line}): {message}" in err
        assert not out.exists()

    def test_state_whose_grid_overflows_exits_two(self, tmp_path, capsys):
        # the bump peaks at 1e308 on the box, and its sine synthesis
        # overflows on the way there: a numerical failure, not a traceback
        text = cfg(
            *SIMULATE_LINES[:4], "basis = dirichlet", *SIMULATE_LINES[4:11],
            "type = bump", "width = 0.5", "amplitude = 1e308",
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        assert "non-finite physical values" in capsys.readouterr().err
        assert "numerical failure" in (out / "run.log").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        ("kind", "code", "status"),
        [
            # |theta|^8 of the lq monitor would overflow; the scaled sum does not
            ("simulate", 0, "status ok"),
            # |theta|^7 of the positivity integral overflows to a non-finite record
            ("estimates-report", 2, "non-finite sides"),
        ],
    )
    def test_overflowing_state_keeps_the_exit_contract(
        self, tmp_path, capsys, kind, code, status
    ):
        # a finite state whose powers overflow: the CFL number is tiny
        text = simulate_with("kind", f"kind = {kind}")
        text = text.replace("dt = 0.01", "dt = 1e-42").replace("t_end = 0.05", "t_end = 1e-41")
        text = text.replace("amplitude = 0.1", "amplitude = 1e39") + "[monitors]\nlq = [2, 8]\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([kind, "--config", config, "--out", str(out)]) == code
        assert status in (out / "run.log").read_text(encoding="utf-8")
        if code == 0:
            series = (out / "series.csv").read_text(encoding="utf-8").splitlines()
            rows = [line for line in series if not line.startswith("#")][1:]
            assert np.isfinite([[float(x) for x in row.split(",")] for row in rows]).all()

    @pytest.mark.parametrize(
        ("text", "line", "mode"),
        [
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [0, 7]"),
                         16, "(0, 7)", id="torus-0-7"),
            # row 7 lies in the torus block, but the mask zeroes its transport
            pytest.param(cfg(*SIMULATE_LINES, "[forcing]", "type = cosine", "mode = [7, 0]"),
                         16, "(7, 0)", id="torus-7-0"),
            # sine mode 6 lies in the box block (k <= 2n/3) but outside the mask
            pytest.param(cfg(*SIMULATE_LINES[:4], "basis = dirichlet", *SIMULATE_LINES[4:],
                             "[forcing]", "type = sine", "mode = [1, 6]"),
                         17, "(1, 6)", id="dirichlet-1-6"),
        ],
    )
    def test_forcing_mode_outside_the_dealias_mask_exits_one(
        self, tmp_path, capsys, text, line, mode
    ):
        # the march evolves only modes the transport resolves, |k_i| <= n/3
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (
            f"config error ({config}, line {line}): forcing mode {mode} lies outside the "
            "2/3-rule dealias mask: each |k_i| must be at most n/3, here 5"
        ) in err
        assert not out.exists()

    def test_overflowing_dissipation_rate_runs_clean(self, tmp_path, capsys):
        # kappa |k|^(2 alpha) overflows on every nonzero mode: the ETD tables
        # take their limits, so this is a fast decay, not a blow-up
        config = write_config(tmp_path, SIM_CLI.replace("kappa = 0.5", "kappa = 1e308"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        assert "(ok)" in capsys.readouterr().out
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is True
        # the first step leaves a grid whose peak is subnormal: its norms
        # are scaled up, not flushed to zero
        columns, rows = _series_rows(out)
        row = dict(zip(columns, rows[1]))
        assert 0 < row["linf"] < np.finfo(float).tiny
        assert all(row[name] > 0 for name in ("l2", "lq2", "lq4", "h1"))

    def test_overflowing_envelope_power_is_a_non_finite_record(self, tmp_path, capsys):
        # |theta0|_400^400 passes the largest float: once a bare OverflowError
        # whose run.log status named no check
        text = SIM_CLI.replace("amplitude = 0.1", "amplitude = 10")
        text = text.replace("lq = [2, 4]", "lq = [2, 400]") + cfg("[forcing]", "type = cosine")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        status = "record 'lq-envelope-q400': non-finite sides (inf, inf)"
        assert f"status numerical failure: {status}" in (out / "run.log").read_text(encoding="utf-8")

    @pytest.mark.parametrize("basis", ["torus", "dirichlet"])
    @pytest.mark.parametrize(
        ("kind", "code", "status"),
        [
            # |k|^800 passes the largest float where the field is zero and
            # where it is not: the column reads the norm or inf, never nan
            ("simulate", 0, "status ok"),
            # the Sobolev bound of an infinite norm is a non-finite record
            ("estimates-report", 2, "non-finite sides"),
        ],
    )
    def test_overflowing_sobolev_weights_keep_the_exit_contract(
        self, tmp_path, capsys, basis, kind, code, status
    ):
        text = SIM_CLI.replace("kind = simulate", f"kind = {kind}")
        text = text.replace("n = 16", f"n = 16\nbasis = {basis}")
        config = write_config(tmp_path, text.replace("sobolev = [1]", "sobolev = [400]"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([kind, "--config", config, "--out", str(out)]) == code
        assert status in (out / "run.log").read_text(encoding="utf-8")
        if code == 0:
            columns, rows = _series_rows(out)
            h400 = [row[columns.index("h400")] for row in rows]
            # the initial torus norm, about 3.9e336, overflows; the box one,
            # about 4.8e216, fits until the march fills modes up to 2n/3
            if basis == "dirichlet":
                want = math.exp(log_sobolev_norm(load_config_file(config).initial_field(), 400.0))
                assert h400[0] == pytest.approx(want, rel=1e-12)
                assert h400[1:] == [math.inf] * 5
            else:
                assert h400 == [math.inf] * 6

    @pytest.mark.parametrize("basis", ["torus", "dirichlet"])
    # |theta|^2000 underflows at both amplitudes, and so would (|theta| 2^-e)^2000
    # at 0.5 = 2^-1, a peak that no power of two scales above 1/2
    @pytest.mark.parametrize("amplitude", ["0.1", "0.5"])
    def test_high_lq_order_approaches_the_maximum(self, tmp_path, capsys, basis, amplitude):
        text = SIM_CLI.replace("n = 16", f"n = 16\nbasis = {basis}")
        text = text.replace("amplitude = 0.1", f"amplitude = {amplitude}")
        config = write_config(tmp_path, text.replace("lq = [2, 4]", "lq = [2000]"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        columns, rows = _series_rows(out)
        for row in rows:
            linf, lq = row[columns.index("linf")], row[columns.index("lq2000")]
            assert 0.9 * linf <= lq <= linf

    @pytest.mark.parametrize(
        "monitors", ["lq = [4, 4]", "lq = [2, 2.0000001]", "sobolev = [1, 1]"]
    )
    def test_repeated_monitor_columns_exit_one(self, tmp_path, capsys, monitors):
        # once an uncaught ValueError (lq) or every sobolev record twice
        text = simulate_with("kind", "kind = estimates-report") + f"[monitors]\n{monitors}\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["estimates-report", "--config", config, "--out", str(out)]) == 1
        assert f"config error ({config}, line 15): " in capsys.readouterr().err
        assert not out.exists()

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        assert main(["sweep-alpha", "--config", config]) == 1
        err = capsys.readouterr().err
        assert "describes kind 'simulate'" in err
        assert "asked for 'sweep-alpha'" in err

    def test_bad_flags_map_to_exit_one(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        assert main(["simulate", "--config", config, "--bogus"]) == 1
        assert "config error (<command line>, line 0)" in capsys.readouterr().err
        assert main(["simulate"]) == 1
        assert "--config" in capsys.readouterr().err
        assert main(["teleport", "--config", config]) == 1
        capsys.readouterr()
        assert main([]) == 1
        capsys.readouterr()

    def test_thread_count_must_be_positive(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        assert (
            main(["simulate", "--config", config, "--threads", "0"]) == 1
        )
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--out", str(out), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "config error (<command line>, line 0): --seed must be at least 0" in err
        assert not out.exists()

    # The diverging state overflows the norm monitors right before the
    # stepper aborts; that numpy warning is part of the failure being tested.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_maps_to_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path, BLOWUP_CLI)
        out = tmp_path / "out"
        with pytest.warns(CflWarning):
            rc = main(["simulate", "--config", config, "--out", str(out)])
        assert rc == 2
        assert "numerical failure: blow-up or instability" in capsys.readouterr().err
        log = (out / "run.log").read_text(encoding="utf-8")
        assert "status numerical failure: blow-up" in log
        assert not (out / "checks.json").exists()

    def test_failed_check_maps_to_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path, cfg(*SWEEP_CLI_LINES, "c3 = 1e-12"))
        out = tmp_path / "out"
        assert main(["sweep-alpha", "--config", config, "--out", str(out)]) == 2
        assert "(1 checks failed)" in capsys.readouterr().out
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is False
        assert checks["n_failed"] == 1
        failed = [c for c in checks["checks"] if not c["passed"]]
        assert failed[0]["name"].startswith("linear-rate-bound")
        log = (out / "run.log").read_text(encoding="utf-8")
        assert "status 1 checks failed" in log

    def test_strict_escalates_cfl_warning_to_exit_two(self, tmp_path, capsys):
        config = write_config(tmp_path, BLOWUP_CLI)
        out = tmp_path / "out"
        saved = warnings.filters[:]
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            rc = main(
                ["simulate", "--config", config, "--out", str(out), "--strict"]
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure: advective CFL" in err
        assert "exceeds 0.5 at t=0" in err
        # The escalated warning was raised, not emitted, and the filter
        # change did not leak out of the call.
        assert not any(w.category is CflWarning for w in recorded)
        assert warnings.filters == saved

    def test_strict_leaves_clean_runs_untouched(self, tmp_path, capsys):
        config = write_config(tmp_path, SIM_CLI)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", config, "--out", str(out), "--strict"])
        assert rc == 0
        capsys.readouterr()


#: A valid file of each kind, of which the fuzz below redraws one section at a time.
_FUZZ_BASES = {
    "simulate": SIM_CLI,
    "sweep-alpha": cfg(*SWEEP_CLI_LINES),
    "operator-tests": OPERATOR_CLI,
    "estimates-report": SIM_CLI.replace("kind = simulate", "kind = estimates-report"),
    "dirichlet-sweep": cfg(*SWEEP_CLI_LINES).replace("kind = sweep-alpha", "kind = dirichlet-sweep"),
}
_FUZZ_CASES = [(kind, section) for kind, sections in sqglab.config._SECTIONS_BY_KIND.items()
               for section in sorted(sections - {"experiment"})]

#: File literals drawn for a key, by its ``_KEYS`` type: tiny, huge,
#: subnormal, negative, zero, non-finite, integer-overflow and ordinary
#: values.  Integers stop at 120, so no size or trial count allocates more
#: than a few MB; the overflow literals exceed every upper bound in ``_KEYS``.
_HUGE_INTEGER = "1" + "0" * 400
_OVERFLOWS = ["2147483648", "-9223372036854775809", _HUGE_INTEGER, "-" + _HUGE_INTEGER]
_MODE_PARTS = st.one_of(st.integers(-17, 17).map(str), st.sampled_from(_OVERFLOWS))
_FLOATS = st.one_of(
    st.sampled_from(
        ["1e-300", "5e-324", "1e-310", "1e-160", "1e-7", "0", "-1", "-2.5", "0.01", "0.05",
         "0.5", "1", "3", "17", "1e6", "1e200", "1e300", "1e308", "inf", "-inf", "nan",
         *_OVERFLOWS]
    ),
    st.floats(1e-3, 20.0).map(repr),
    st.floats(-1e308, 1e308).map(repr),
)
#: Literals of other types: most keys' wrong types, and all a string or bool key draws.
_OTHERS = st.sampled_from(["true", "false", "word", "[1, 2]", "2.5"])


def _array(parts: st.SearchStrategy) -> st.SearchStrategy:
    lists = st.one_of(st.lists(parts, min_size=2, max_size=2), st.lists(parts, max_size=3))
    return lists.map(lambda items: "[" + ", ".join(items) + "]")


_LITERALS_BY_TYPE = {
    "str": _OTHERS,
    "bool": _OTHERS,
    "int": st.one_of(_MODE_PARTS, st.integers(-3, 120).map(str)),
    "float": _FLOATS,
    "ints": _array(_MODE_PARTS),
    "floats": _array(_FLOATS),
    "floats+inf": _array(_FLOATS),
}


def _marched(text: str) -> int:
    """Steps a run of ``text`` takes, summed over a sweep's members; 0 if it has none.

    A file that fails here fails its run too, which the exit-contract check sees.
    """
    try:
        experiment = load(text)
        theta0 = experiment.initial_field()
        if experiment.kind in ("sweep-alpha", "dirichlet-sweep"):
            sweep = experiment.sweep_config(theta0)
            return sweep.stepper().n_steps * len(sweep.alphas)
        return experiment.stepper_for(theta0).n_steps
    except ValueError:  # a config error, or the operator kind's missing initial field
        return 0


def _assert_exit_contract(kind: str, text: str) -> int:
    """Run ``kind`` on ``text`` and return its exit code: 0, 1 or 2, with nothing raised.

    A config error cites its line and writes nothing; any other exit leaves
    a ``run.log``.  Warnings are recorded, not raised, so the run goes on as
    outside the tests; any but the CFL and sweep smallness warnings fails.
    """
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(tmp, "out")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.simplefilter("ignore", CflWarning)
                warnings.filterwarnings("ignore", "initial data is too large", UserWarning)
                code = main([kind, "--config", config, "--out", out])
        assert [str(warning.message) for warning in caught] == []
        assert code in (0, 1, 2)
        if code == 1:
            assert f"config error ({config}, line " in stderr.getvalue()
            assert not os.path.exists(out)
        else:
            assert os.path.isfile(os.path.join(out, "run.log"))
    return code


@pytest.mark.parametrize("kind, section", _FUZZ_CASES)
@settings(max_examples=10)
@given(data=st.data())
def test_every_key_keeps_the_exit_contract(kind, section, data):
    # each key of the fuzzed section is absent, at its base value or a choice,
    # or any literal of its type or another; elsewhere a key with choices draws
    # among them and its base value, so both bases meet every section
    base = _FUZZ_BASES[kind]
    parsed, base_lines = parse(base).sections, base.splitlines()
    lines = []
    for name in [*(other for other in parsed if other != section), section]:
        lines.append(f"[{name}]")
        for key, row in sqglab.config._KEYS[name].items():
            found = parsed.get(name, {}).get(key)
            value = None if found is None else base_lines[found.line - 1].partition("=")[2].strip()
            choices = st.sampled_from([value, *(row.choices or ())])
            if name == section:
                value = data.draw(
                    st.one_of(st.none(), choices, _LITERALS_BY_TYPE[row.type], _OTHERS), label=key
                )
            elif row.choices and name != "experiment":
                value = data.draw(choices, label=f"{name}.{key}")
            if value is not None:
                lines.append(f"{key} = {value}")
    text = cfg(*lines)
    # never start a long march; a step count past the cap is a config error
    assume(_marched(text) <= 100)
    _assert_exit_contract(kind, text)


_DIRICHLET = ("n = 16", "n = 16\nbasis = dirichlet")
_OVERFLOWING_POSITIVITY = [("amplitude = 0.1", "amplitude = 5"), ("lq = [2, 4]", "lq = [2, 1e300]")]


@pytest.mark.parametrize(
    "kind, edits, code",
    [
        # the CFL step of the initial field asks for millions of steps
        ("simulate", [("dt = 0.01\nt_end = 0.05", "t_end = 1e6")], 1),
        # a stride whose float conversion overflows
        ("simulate", [_DIRICHLET, ("t_end = 0.05", f"t_end = 0.05\nsample_every = {_HUGE_INTEGER}")], 1),
        # a forcing whose coefficient norm overflows
        ("simulate", [("[monitors]", "[forcing]\ntype = cosine\namplitude = 1e200\n[monitors]")], 2),
        # a bump whose subnormal spread overflows r^2 / spread
        ("simulate", [("type = random", "type = bump\nwidth = 1e-160")], 0),
        # boxes that put an extreme Laplacian eigenvalue outside the float range
        *[(kind, [("n = 16", "n = 16\nbox = 5e-324")], 1) for kind in EXPERIMENT_KINDS
          if kind != "operator-tests"],
        *[(kind, [("n = 16", "n = 16\nbox = 1e300")], 1) for kind in ("sweep-alpha", "dirichlet-sweep")],
        # the battery's square of theta overflows, on both bases
        ("estimates-report", [("amplitude = 0.1", "amplitude = 1e6")], 2),
        ("estimates-report", [_DIRICHLET, ("amplitude = 0.1", "amplitude = 1e300")], 2),
        # a subnormal tail cutoff radius overflows r / k
        ("estimates-report", [("sobolev = [1]", "sobolev = [1]\ntail_cutoff = 5e-324")], 0),
        # envelopes e^t and e^((q-1)t) f^q overflow, or reach inf * 0
        ("simulate", [("dt = 0.01\nt_end = 0.05", "dt = 1e6\nt_end = 1e6")], 2),
        ("simulate", [("dt = 0.01\nt_end = 0.05", "dt = 500\nt_end = 1000"),
                      ("[monitors]", "[forcing]\ntype = cosine\namplitude = 1e-300\n[monitors]")], 2),
        # the positivity integral's power-of-two exponent is -inf
        ("estimates-report", [("lq = [2, 4]", "lq = [2, 1e308]")], 0),
        ("estimates-report", [_DIRICHLET, ("lq = [2, 4]", "lq = [2, 1e308]")], 0),
        # max|theta| > 1: the integral overflows, and its mantissa's power underflowed to 0
        *[("estimates-report", [*edits, *_OVERFLOWING_POSITIVITY], 2) for edits in ([], [_DIRICHLET])],
        # sweep members near 1e239 apart: the squares of their difference overflow
        ("dirichlet-sweep", [("[stepper]", "[forcing]\ntype = sine\namplitude = 2147483648\n[stepper]")], 2),
    ],
)
def test_found_inputs_keep_the_exit_contract(kind, edits, code):
    assert _assert_exit_contract(kind, _edited(_FUZZ_BASES[kind], edits)) == code


def _edited(text: str, edits) -> str:
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("basis", ["torus", "dirichlet"])
def test_overflowing_positivity_integral_is_not_zero(tmp_path, capsys, basis):
    # M^(q-1) with M = max|theta| > 1 and q = 1e300 is past the largest
    # float: the record's integral reads inf, not the 0.0 an underflowed
    # mantissa power gave, and the run is a numerical failure
    edits = [*([_DIRICHLET] if basis == "dirichlet" else []), *_OVERFLOWING_POSITIVITY]
    config = write_config(tmp_path, _edited(_FUZZ_BASES["estimates-report"], edits))
    assert main(["estimates-report", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "record 'positivity-q1e+300': non-finite sides (0.0, inf)" in err


#: Every kind's fuzz base, then more bases: the scipy.fft check runs each.
_SCIPY_FREE_RUNS = {
    **_FUZZ_BASES,
    "simulate-bump": simulate_with("type", "type = bump") + "width = 0.5\n",
    "simulate-dirichlet": _FUZZ_BASES["simulate"].replace(*_DIRICHLET),
    "estimates-report-dirichlet": _FUZZ_BASES["estimates-report"].replace(*_DIRICHLET),
}


class TestCliArtifacts:
    def run_ok(self, tmp_path, capsys, text, command, out="out", extra=()):
        config = write_config(tmp_path, text, name=f"{command}.cfg")
        out_dir = tmp_path / out
        rc = main([command, "--config", config, "--out", str(out_dir), *extra])
        capsys.readouterr()
        assert rc == 0
        return out_dir

    def test_summary_and_checks_shape(self, tmp_path, capsys):
        out = self.run_ok(tmp_path, capsys, SIM_CLI, "simulate")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["kind"] == "simulate"
        assert summary["basis"] == "torus"
        assert summary["n"] == 16
        assert summary["alpha"] == 0.75
        assert summary["seed"] == 0
        assert summary["dt"] == 0.01
        assert summary["final_t"] == pytest.approx(0.05)
        assert summary["n_samples"] == 6  # t=0 plus five steps
        assert summary["n_steps"] == 5
        assert summary["final_l2"] > 0
        assert summary["final_linf"] > 0
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is True
        assert checks["n_failed"] == 0
        assert checks["n_checks"] == len(checks["checks"]) > 0
        names = {c["name"] for c in checks["checks"]}
        assert {"lq-monotone-q2", "lq-monotone-q4", "linf-envelope"} <= names
        for record in checks["checks"]:
            assert {"name", "t", "lhs", "rhs", "slack", "passed"} <= set(record)

    @pytest.mark.parametrize(
        ("command", "text"),
        [("simulate", SIM_CLI), ("sweep-alpha", cfg(*SWEEP_CLI_LINES))],
        ids=["simulate", "sweep-alpha"],
    )
    def test_artifacts_record_the_one_scheme(self, tmp_path, capsys, command, text):
        # bench/reference/ holds this value in both artifacts
        out = self.run_ok(tmp_path, capsys, text, command)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["scheme"] == "etd2rk"
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        assert "# scheme = etd2rk" in lines

    def test_series_csv_layout(self, tmp_path, capsys):
        out = self.run_ok(tmp_path, capsys, SIM_CLI, "simulate")
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        meta = [line for line in lines if line.startswith("# ")]
        keys = [line.split(" = ")[0][2:] for line in meta]
        assert keys == sorted(keys)
        header = lines[len(meta)]
        assert header.startswith("t,")
        columns = header.split(",")
        for name in ("cfl", "l2", "linf", "lq2", "lq4", "h1",
                     "slack_lq2", "slack_lq4", "slack_linf"):
            assert name in columns
        assert len(lines) == len(meta) + 1 + 6  # header plus six samples

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        first = self.run_ok(tmp_path, capsys, SIM_CLI, "simulate", out="one")
        second = self.run_ok(tmp_path, capsys, SIM_CLI, "simulate", out="two")
        for name in ("series.csv", "summary.json", "checks.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        out = self.run_ok(
            tmp_path, capsys, SIM_CLI, "simulate", extra=("--seed", "123")
        )
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["seed"] == 123

    def test_out_dir_precedence(self, tmp_path, capsys, monkeypatch):
        cfg_dir = tmp_path / "from-config"
        text = cfg(*SIMULATE_LINES, "[output]", f'dir = "{cfg_dir}"')
        config = write_config(tmp_path, text)

        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("SQGLAB_OUT", str(env_dir))
        flag_dir = tmp_path / "from-flag"
        assert main(["simulate", "--config", config, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "summary.json").is_file()
        assert not env_dir.exists() and not cfg_dir.exists()

        assert main(["simulate", "--config", config]) == 0
        assert (env_dir / "summary.json").is_file()
        assert not cfg_dir.exists()

        monkeypatch.delenv("SQGLAB_OUT")
        assert main(["simulate", "--config", config]) == 0
        assert (cfg_dir / "summary.json").is_file()
        capsys.readouterr()

    def test_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, OPERATOR_CLI)
        assert main(["operator-tests", "--config", config]) == 0
        assert (tmp_path / "sqglab-out" / "summary.json").is_file()
        capsys.readouterr()

    def test_run_log_contents(self, tmp_path, capsys):
        out = self.run_ok(tmp_path, capsys, SIM_CLI, "simulate")
        lines = (out / "run.log").read_text(encoding="utf-8").splitlines()
        prefixes = [line.split(" ", 1)[0] for line in lines]
        assert prefixes == [
            "started", "finished", "elapsed_seconds", "numpy", "scipy", "status",
        ]
        assert lines[-1] == "status ok"

    def test_operator_tests_artifacts(self, tmp_path, capsys):
        out = self.run_ok(tmp_path, capsys, OPERATOR_CLI, "operator-tests")
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        assert lines[-1] == "t"  # header-only series: nothing is time-sampled
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["size"] == 6
        assert summary["trials"] == 5
        ladder = summary["lemma_limit_errors"]
        assert len(ladder) == 7
        assert [a for a, _ in ladder] == sorted((a for a, _ in ladder), reverse=True)
        assert all(e >= 0 for _, e in ladder)
        decay = summary["identity_decay"]
        assert len(decay) == 5
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is True

    @staticmethod
    def fresh_run(tmp_path, text: str, kind: str) -> list[str]:
        """Exit code of a run in a fresh interpreter, and whether it loaded scipy.fft and scipy.special."""
        config = write_config(tmp_path, text)
        argv = [kind, "--config", config, "--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "from sqglab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'scipy.fft' in sys.modules, 'scipy.special' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(sqglab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()[-3:]

    @pytest.mark.parametrize("run", sorted(_SCIPY_FREE_RUNS))
    def test_no_run_loads_scipy_fft(self, tmp_path, run):
        # every transform of both bases runs on numpy.fft, and the dense
        # operator battery runs none, so a fresh process never pays for it
        kind = next(kind for kind in EXPERIMENT_KINDS if run.startswith(kind))
        assert self.fresh_run(tmp_path, _SCIPY_FREE_RUNS[run], kind) == ["0", "False", "False"]

    def test_sweep_artifacts(self, tmp_path, capsys):
        out = self.run_ok(
            tmp_path, capsys, cfg(*SWEEP_CLI_LINES), "sweep-alpha"
        )
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["alphas"] == "0.75,0.6"
        report = summary["report"]
        assert report["alphas"] == [0.75, 0.6]
        assert len(report["times"]) == 5  # t=0 plus four shared steps
        assert report["smallness_coeff"] < 0
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        header_at = next(
            i for i, line in enumerate(lines) if not line.startswith("# ")
        )
        assert lines[header_at] == "alpha_i,alpha_j,t,h_minus_half"
        assert len(lines) - header_at - 1 == 5  # one pair sampled five times
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is True
        names = {c["name"] for c in checks["checks"]}
        assert "smallness-coefficient" in names
        assert "interp-upgrade-0.75-0.6" in names
        assert "l43-interpolation" in names

    def test_sweep_computes_its_step_once(self, tmp_path, capsys, monkeypatch):
        # with dt unset, default_dt reads the initial speed once and each
        # member's integrate reads it once; the summary's dt costs nothing more
        calls = []
        original = dynamics.advective_speed

        def counted(theta):
            calls.append(theta.domain.n)
            return original(theta)

        monkeypatch.setattr(dynamics, "advective_speed", counted)
        lines = [line.replace("n = 16", "n = 32") for line in SWEEP_LINES]
        out = self.run_ok(tmp_path, capsys, cfg(*lines, "alphas = [0.75, 0.6]"), "sweep-alpha")
        assert calls == [32] * 3
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        times = summary["report"]["times"]
        assert summary["dt"] == pytest.approx(times[1] - times[0])

    @pytest.mark.parametrize(
        "text, command, n_steps",
        [
            (SIM_CLI.replace("dt = 0.01", "dt = 0.03"), "simulate", 2),
            (cfg(*SWEEP_CLI_LINES).replace("dt = 0.05", "dt = 0.07"), "sweep-alpha", 3),
        ],
        ids=["simulate", "sweep-alpha"],
    )
    def test_runs_land_on_the_horizon(self, tmp_path, capsys, text, command, n_steps):
        # dt does not divide t_end: the artifacts report the uniform step taken
        out = self.run_ok(tmp_path, capsys, text, command)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        step = summary["t_end"] / n_steps
        assert summary["dt"] == step
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        assert f"# dt = {step}" in lines
        final_t = summary["final_t"] if command == "simulate" else summary["report"]["times"][-1]
        assert final_t == pytest.approx(summary["t_end"], rel=0, abs=1e-15)

    def test_dirichlet_sweep_runs(self, tmp_path, capsys):
        text = cfg(
            "[experiment]",
            "kind = dirichlet-sweep",
            "[domain]",
            "n = 16",
            "[params]",
            "kappa = 0.2",
            "[stepper]",
            "dt = 0.05",
            "t_end = 0.1",
            "[sweep]",
            "alphas = [0.75, 0.6]",
            "[init]",
            "type = random",
            "amplitude = 0.05",
            "seed = 2",
        )
        out = self.run_ok(tmp_path, capsys, text, "dirichlet-sweep")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["basis"] == "dirichlet"

    def test_estimates_report_runs_full_battery(self, tmp_path, capsys):
        text = cfg(
            *SIMULATE_LINES[:1],
            "kind = estimates-report",
            *SIMULATE_LINES[2:],
            "[monitors]",
            "lq = [2]",
            "sobolev = [1]",
            "tail_cutoff = 1.5",
        )
        out = self.run_ok(tmp_path, capsys, text, "estimates-report")
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))
        assert checks["all_passed"] is True
        names = {c["name"] for c in checks["checks"]}
        assert {"cordoba-min-slack", "positivity-q2",
                "sobolev-ineq-l1", "tail-mass-decrease"} <= names
        lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
        header = next(line for line in lines if not line.startswith("# "))
        assert "tail_mass" in header.split(",")

    @pytest.mark.parametrize(
        "setup",
        [
            ("[monitors]", "damped_energy = true"),
            # a shear mode beyond the n/3 cut: states keep modes the Córdoba check drops
            ("type = shear", "mode = 6", "[monitors]"),
            ("basis = dirichlet", "[monitors]"),
        ],
        ids=["torus", "torus-shear-beyond-cut", "dirichlet"],
    )
    def test_estimates_battery_equals_public_functions(self, tmp_path, capsys, setup):
        domain_lines = [*SIMULATE_LINES[2:4], *[l for l in setup if l.startswith("basis")]]
        stepper_init = list(SIMULATE_LINES[7:])
        if "type = shear" in setup:  # the shear replaces the random initial field
            stepper_init.remove("type = random")
        text = cfg(
            *SIMULATE_LINES[:1],
            "kind = estimates-report",
            *domain_lines,
            "[params]",
            "kappa = 0.5",
            "alpha = 0.75",
            "lambda = 0.1",
            *stepper_init,
            *[l for l in setup if not l.startswith("basis")],
            "lq = [2, 4]",
            "sobolev = [1]",
            "tail_cutoff = 1.5",
        )
        out = self.run_ok(tmp_path, capsys, text, "estimates-report")
        checks = json.loads((out / "checks.json").read_text(encoding="utf-8"))["checks"]

        # the same states, and every record rebuilt from the single-quantity
        # functions in the order the battery has always emitted them
        experiment = load_config_file(write_config(tmp_path, text))
        params = experiment.params
        theta0 = experiment.initial_field(None)
        states = []
        integrate(
            SimulationState(t=0.0, theta=theta0),
            params,
            experiment.stepper_for(theta0),
            sample=states.append,
        )
        times = [s.t for s in states]
        want = []
        for q in experiment.parsed.get("monitors", "lq"):
            norms = [lq_norm(s.theta, q) for s in states]
            want += max_principle_monitor(times, norms, q, forcing=params.forcing)
        norms = [lq_norm(s.theta, math.inf) for s in states]
        want += linf_monitor(times, norms, forcing=params.forcing)
        if experiment.parsed.get("monitors", "damped_energy"):
            norms = [sobolev_norm(s.theta, 0.0) for s in states]
            want += damped_energy_monitor(times, norms, params.lam)
        for s in states:
            slack = cordoba_pointwise_check(s.theta, params.alpha)
            want.append(InequalityRecord(name="cordoba-min-slack", t=s.t, lhs=0.0, rhs=slack))
            for q in experiment.parsed.get("monitors", "lq"):
                value = positivity_integral_check(s.theta, q, params.alpha)
                want.append(InequalityRecord(name=f"positivity-q{q:g}", t=s.t, lhs=0.0, rhs=value))
        norms = [sobolev_norm(s.theta, 1.0) for s in states]
        mid_norms = [sobolev_norm(s.theta, 1.0 + params.alpha) for s in states]
        want += sobolev_bound_monitor(times, norms, mid_norms, 1.0, params)
        cutoff = CutoffSpec(k=1.5)
        masses = [tail_mass(to_physical(s.theta), cutoff) for s in states]
        want.append(
            InequalityRecord(name="tail-mass-decrease", t=states[-1].t, lhs=masses[-1], rhs=masses[0])
        )

        assert len(states) == 6
        assert [c["name"] for c in checks] == [r.name for r in want]
        want = [r.as_dict() for r in want]
        if "basis = dirichlet" in setup or "type = shear" in setup:
            # the run synthesizes these states through to_physical too
            assert checks == want
            return
        # a dealiased torus state's grid is the transport plan's real
        # synthesis, not to_physical's complex ifft2: the two round apart
        sides = ("lhs", "rhs", "slack")
        for got, record in zip(checks, want):
            assert {k: v for k, v in got.items() if k not in sides} == {
                k: v for k, v in record.items() if k not in sides
            }
            for side in sides:
                assert got[side] == pytest.approx(record[side], rel=1e-12, abs=1e-15)

    def test_estimates_battery_streams_its_states(self, tmp_path, capsys):
        # n = 64, 100 steps: 101 retained states would hold 101 n^2 complex values
        text = STREAMING_REPORT
        self.run_ok(tmp_path, capsys, text, "estimates-report")  # builds the cached plans
        tracemalloc.start()
        try:
            out = self.run_ok(tmp_path, capsys, text, "estimates-report", out="traced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_samples"] == 101
        retained = summary["n_samples"] * 64 * 64 * np.dtype(np.complex128).itemsize
        assert peak < retained / 2

    def test_estimates_report_synthesizes_each_sample_once(self, tmp_path, capsys, monkeypatch):
        # theta(x) feeds the norm columns and the battery: the transport
        # plan synthesizes it once per sample from the kept block, into a
        # new grid (the kernel's own calls pass one), and the battery plan
        # builds (-Lap)^alpha theta(x) without to_physical; only the initial
        # field's amplitude calls to_physical
        calls = []
        original = to_physical

        def counted(field):
            calls.append(field.domain.n)
            return original(field)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "sqglab" and getattr(module, "to_physical", None) is original:
                monkeypatch.setattr(module, "to_physical", counted)
        samples = []
        theta = dynamics._TransportPlan.theta

        def counted_theta(plan, coeffs, scratch, grid=None):
            if grid is None:
                samples.append(plan.n)
            return theta(plan, coeffs, scratch, grid)

        monkeypatch.setattr(dynamics._TransportPlan, "theta", counted_theta)
        out = self.run_ok(tmp_path, capsys, STREAMING_REPORT, "estimates-report")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["n_samples"] == 101
        assert calls == [64]
        assert samples == [64] * 101
