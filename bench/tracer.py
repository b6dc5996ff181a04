"""Span tracer that wraps sqglab's public functions from outside the package.

Each traced target is either a module-level function, rebound under every
name that refers to it in every ``sqglab.*`` namespace (the package looks
these names up as module globals at call time, so callers in other
modules see the wrapper too), or a method, patched on its class.  Spans
are kept in memory as ``[target, parent, start, end]`` lists; leaving the
``with`` block restores every original.

Spans nest through one stack, so a traced run must execute in a single
thread (the benchmark passes ``--threads 1`` to sweep workloads).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Span groups: metric stem -> traced targets ("module:function" or
#: "module:Class.method").  Every group time is inclusive: the time inside
#: the group's outermost spans, including whatever they call.
GROUPS: dict[str, tuple[str, ...]] = {
    "spectral.transform": ("spectral:to_physical", "spectral:to_spectral"),
    "spectral.multiplier": (
        "spectral:velocity_from_theta",
        "spectral:riesz_transform",
        "spectral:dealias",
        "spectral:fractional_laplacian",
    ),
    "spectral.norm": (
        "spectral:lq_norm",
        "spectral:grid_lp_norm",
        "spectral:sobolev_norm",
    ),
    "dynamics.integrate": ("dynamics:integrate",),
    "dynamics.embed": (
        "dynamics:embed_odd_extension",
        "dynamics:restrict_odd_extension",
    ),
    "estimates.cordoba": ("estimates:cordoba_pointwise_check",),
    "estimates.positivity": ("estimates:positivity_integral_check",),
    "estimates.monitor": (
        "estimates:max_principle_monitor",
        "estimates:linf_monitor",
        "estimates:damped_energy_monitor",
    ),
    "estimates.sobolev": ("estimates:sobolev_bound_monitor",),
    "estimates.tail": ("estimates:tail_mass",),
    "critical.sweep": ("critical:sweep_with_runs",),
    "critical.report": ("critical:assemble_report",),
    "critical.distance": ("critical:h_minus_half_distance",),
    "critical.checks": (
        "critical:pairwise_bound_check",
        "critical:interpolation_upgrade",
        "critical:l43_interpolation_check",
    ),
    "operators.build": (
        "operators:scalar_operator",
        "operators:diagonal_operator",
        "operators:dirichlet_laplacian_1d",
        "operators:random_spd",
        "operators:DenseOperator.__post_init__",
    ),
    "operators.quadrature": (
        "operators:balakrishnan_neg_power",
        "operators:inv_I_plus_Apow",
        "operators:lemma62_convergence",
        "operators:identity_minus_negpower_decay",
    ),
    "operators.oracle": (
        "operators:resolvent_apply",
        "operators:DenseOperator.apply_power",
        "operators:DenseOperator.apply_function",
    ),
    "operators.moment": ("operators:moment_inequality_check",),
    "fields.init": (
        "fields:random_smooth_field",
        "fields:shear_field",
        "fields:gaussian_bump_field",
    ),
    "config.load": ("config:load_config_file",),
    "series.write": ("series:emit_csv", "series:write_table", "series:emit_json"),
    "cli.main": ("cli:main",),
}

#: Constructors that are counted, not timed: a span per field construction
#: would cost more than the construction itself.
COUNTED: dict[str, tuple[str, ...]] = {
    "spectral.fields_built": (
        "spectral:SpectralField.__post_init__",
        "spectral:PhysicalField.__post_init__",
    ),
    "estimates.records": ("estimates:InequalityRecord.__post_init__",),
}

_MARK = "_bench_traced"


def _resolve(target: str):
    """(owner, attribute name, original, is_method) for one target."""
    modname, _, attr = target.partition(":")
    owner = importlib.import_module(f"sqglab.{modname}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr], True
    return owner, attr, getattr(owner, attr), False


class Tracer:
    """Context manager: install wrappers on entry, restore them on exit."""

    def __init__(self) -> None:
        self.targets: list[str] = []
        self.group_of: list[str] = []
        for group, targets in GROUPS.items():
            for target in targets:
                self.targets.append(target)
                self.group_of.append(group)
        self.counted: list[str] = [t for ts in COUNTED.values() for t in ts]
        self.spans: list[list] = []
        self.calls = [0] * len(self.counted)
        #: Steps requested of ``integrate`` (its config's ``n_steps``).
        self.steps = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        importlib.import_module("sqglab.cli")  # loads every sqglab module
        try:
            for tid, target in enumerate(self.targets):
                self._patch(target, self._timed(tid, target))
            for cid, target in enumerate(self.counted):
                self._patch(target, self._counted(cid))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, target: str, make_wrapper) -> None:
        owner, attr, original, is_method = _resolve(target)
        wrapper = make_wrapper(original)
        setattr(wrapper, _MARK, True)
        if is_method:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in sqglab_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, tid: int, target: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_integrate = target == "dynamics:integrate"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if is_integrate:
                    config = args[2] if len(args) > 2 else kwargs["config"]
                    self.steps += config.n_steps
                span = [tid, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()

            return wrapper

        return make

    def _counted(self, cid: int):
        calls = self.calls

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[cid] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (tid, parent, start, end) in enumerate(self.spans):
                span = {"id": idx, "parent": parent, "name": self.targets[tid],
                        "group": self.group_of[tid], "start": start, "end": end}
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per-group inclusive seconds and per-target call counts.

        Keys: ``<group>_s`` for every group, ``<target>_calls`` for every
        target, ``<counter>`` for every counted constructor, ``cli.self_s``
        (main's span minus its child spans),
        ``dynamics.monitor_s`` (outermost norm spans under ``integrate``)
        and ``dynamics.steps``.
        """
        groups = self.group_of
        spans = self.spans
        out: dict[str, float] = {f"{g}_s": 0.0 for g in GROUPS}
        out.update({f"{t}_calls": 0 for t in self.targets})
        child_time = [0.0] * len(spans)
        monitor_s = 0.0
        for tid, parent, start, end in spans:
            group = groups[tid]
            duration = end - start
            out[f"{self.targets[tid]}_calls"] += 1
            if parent >= 0:
                child_time[parent] += duration
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(groups[spans[p][0]])
                p = spans[p][1]
            if group not in ancestors:
                out[f"{group}_s"] += duration
                if group == "spectral.norm" and "dynamics.integrate" in ancestors:
                    monitor_s += duration
        cli_self = 0.0
        for idx, (tid, _, start, end) in enumerate(spans):
            if groups[tid] == "cli.main":
                cli_self += end - start - child_time[idx]
        out["cli.self_s"] = cli_self
        out["dynamics.monitor_s"] = monitor_s
        out["dynamics.steps"] = self.steps
        for counter, targets in COUNTED.items():
            out[counter] = sum(self.calls[self.counted.index(t)] for t in targets)
        return out


def sqglab_modules() -> list:
    """Every loaded module of the sqglab package, the package itself included."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "sqglab" or name.startswith("sqglab.")
    ]


def leftover_wrappers() -> list[str]:
    """Names in sqglab namespaces or classes that still hold a tracer wrapper."""
    found = []
    for module in sqglab_modules():
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found
