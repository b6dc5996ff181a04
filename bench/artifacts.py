"""Comparison of a run's comparable artifacts against stored references.

The three comparable artifacts (``series.csv``, ``summary.json``,
``checks.json``) must have the same structure as the reference: the same
keys, list lengths, column names, check names, strings, integers and
pass/fail verdicts.  Floats may differ by round-off: a pair ``(a, b)``
agrees when ``|a - b| <= RTOL * max(|a|, |b|, FLOOR)``.

Why these values: ``roundoff.py`` perturbs every input of a workload by
one unit in the last place and measures the deviation.  On numpy 2.4.6 /
scipy 1.17.1 (x86-64, one BLAS thread) the worst values are 2.4e-10
(``operator-battery``: quadrature errors of about 1e-13 moving by 2e-16),
3.9e-12 (``estimates-battery``), 3.2e-14 (``dirichlet-sweep``) and
1.6e-15 (``torus-stepper``).  ``RTOL`` sits 40 times above the worst of
these, which leaves room for round-off that a reordered computation adds
at every step, and 100 times below the 1e-6 tolerance of the battery's
error checks, so a change to the mathematics is still caught.  ``FLOOR``
stops quantities that are zero up to round-off (slacks at t = 0,
quadrature errors of exact cases) from turning absolute differences of
1e-16 into huge relative ones.
"""

from __future__ import annotations

import json
import math
import os

COMPARED = ("series.csv", "summary.json", "checks.json")
RTOL = 1e-8
FLOOR = 1e-6

_REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class Mismatch(Exception):
    """Artifacts differ in structure, or a float beyond the tolerance."""


def reference_dir(workload: str, smoke: bool = False) -> str:
    return os.path.join(_REF_DIR, "smoke" if smoke else "full", workload)


def read(out_dir: str) -> dict[str, bytes]:
    """Bytes of the comparable artifacts in ``out_dir``."""
    result = {}
    for name in COMPARED:
        with open(os.path.join(out_dir, name), "rb") as fh:
            result[name] = fh.read()
    return result


def deviation(got: dict[str, bytes], want: dict[str, bytes]) -> float:
    """Largest relative float deviation of ``got`` from ``want``.

    Raises :class:`Mismatch` on any structural difference.
    """
    worst = 0.0
    for name in COMPARED:
        if got[name] == want[name]:
            continue
        if name.endswith(".json"):
            dev = _json_dev(json.loads(got[name]), json.loads(want[name]), name)
        else:
            dev = _csv_dev(got[name].decode(), want[name].decode(), name)
        worst = max(worst, dev)
    return worst


def check(got: dict[str, bytes], want: dict[str, bytes]) -> float:
    """Deviation of ``got`` from ``want``; raise Mismatch beyond the tolerance."""
    dev = deviation(got, want)
    if dev > RTOL:
        raise Mismatch(f"artifact floats deviate by {dev:.3e} (tolerance {RTOL:g})")
    return dev


def all_checks_passed(artifacts: dict[str, bytes]) -> bool:
    return json.loads(artifacts["checks.json"])["all_passed"] is True


def _float_dev(a: float, b: float, where: str) -> float:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        raise Mismatch(f"{where}: {a!r} != {b!r}")
    return abs(a - b) / max(abs(a), abs(b), FLOOR)


def _json_dev(a, b, where: str) -> float:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{where}: keys {sorted(a)} != {sorted(b)}")
        return max((_json_dev(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: length {len(a)} != {len(b)}")
        return max(
            (_json_dev(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
            default=0.0,
        )
    if isinstance(a, float) and isinstance(b, float):
        return _float_dev(a, b, where)
    if type(a) is not type(b) or a != b:
        raise Mismatch(f"{where}: {a!r} != {b!r}")
    return 0.0


def _cell_dev(a: str, b: str, where: str) -> float:
    if a == b:
        return 0.0
    try:
        return _float_dev(float(a), float(b), where)
    except ValueError:
        raise Mismatch(f"{where}: {a!r} != {b!r}") from None


def _csv_dev(a: str, b: str, where: str) -> float:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        raise Mismatch(f"{where}: {len(lines_a)} lines != {len(lines_b)}")
    worst = 0.0
    header_seen = False
    for num, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        at = f"{where}:{num}"
        if la.startswith("# ") or lb.startswith("# "):
            key_a, sep_a, val_a = la.partition(" = ")
            key_b, sep_b, val_b = lb.partition(" = ")
            if key_a != key_b or not (sep_a and sep_b):
                raise Mismatch(f"{at}: {la!r} != {lb!r}")
            worst = max(worst, _cell_dev(val_a, val_b, at))
            continue
        cells_a, cells_b = la.split(","), lb.split(",")
        if not header_seen:
            header_seen = True
            if cells_a != cells_b:
                raise Mismatch(f"{at}: header {la!r} != {lb!r}")
            continue
        if len(cells_a) != len(cells_b):
            raise Mismatch(f"{at}: {len(cells_a)} cells != {len(cells_b)}")
        for ca, cb in zip(cells_a, cells_b):
            worst = max(worst, _cell_dev(ca, cb, at))
    return worst
