"""Tests of the benchmark itself: tracer, artifact checks and smoke runs.

    python3 -m pytest bench/tests -q

The smoke runs use tiny sizes of all four workloads (``run.py --smoke``),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import artifacts  # noqa: E402
import run  # noqa: E402
from tracer import GROUPS, Tracer, leftover_wrappers, sqglab_modules  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

import sqglab.cli  # noqa: E402


def _namespace_snapshot() -> dict:
    snapshot = {}
    for module in sqglab_modules():
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snapshot[(module.__name__, f"{name}.{attr}")] = member
    return snapshot


def _invoke(workload, tmp_path, traced: bool) -> dict:
    """Run the smoke config; ``traced`` runs sweeps on one thread."""
    config = tmp_path / "experiment.cfg"
    config.write_text(workload.config_text(DEFAULT_SEED, smoke=True), encoding="utf-8")
    out = tmp_path / ("traced" if traced else "plain")
    with contextlib.redirect_stdout(io.StringIO()):
        assert sqglab.cli.main(workload.argv(str(config), str(out), traced)) == 0
    return artifacts.read(str(out))


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    return proc


class TestTracer:
    def test_wrappers_are_installed_in_every_namespace(self):
        from sqglab import critical, dynamics

        original = dynamics.integrate
        with Tracer():
            wrapped = dynamics.integrate
            assert wrapped is not original
            assert sqglab.cli.integrate is wrapped
            assert critical.integrate is wrapped
            assert sqglab.integrate is wrapped
        assert dynamics.integrate is original

    def test_every_wrapped_name_is_restored(self, tmp_path):
        before = _namespace_snapshot()
        with Tracer() as tracer:
            _invoke(WORKLOADS["torus-stepper"], tmp_path, traced=True)
        assert tracer.spans
        assert leftover_wrappers() == []
        after = _namespace_snapshot()
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []

    def test_restored_after_an_exception(self):
        before = _namespace_snapshot()
        with pytest.raises(RuntimeError):
            with Tracer():
                raise RuntimeError("boom")
        assert leftover_wrappers() == []
        assert all(_namespace_snapshot()[k] is v for k, v in before.items())

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_traced_artifacts_are_byte_identical(self, tmp_path, name):
        workload = WORKLOADS[name]
        plain = _invoke(workload, tmp_path, traced=False)
        with Tracer():
            traced = _invoke(workload, tmp_path, traced=True)
        assert traced == plain

    def test_summary_nests_spans(self, tmp_path):
        with Tracer() as tracer:
            _invoke(WORKLOADS["torus-stepper"], tmp_path, traced=True)
        summary = tracer.summary()
        # Smoke torus-stepper: 0.2 / 0.05 = 4 steps, one integrate call.
        assert summary["dynamics.steps"] == 4
        assert summary["dynamics:integrate_calls"] == 1
        assert summary["cli:main_calls"] == 1
        assert 0 < summary["dynamics.monitor_s"] < summary["dynamics.integrate_s"]
        assert 0 < summary["cli.self_s"] < summary["cli.main_s"]
        assert set(GROUPS) <= {k[:-2] for k in summary if k.endswith("_s")}


class TestArtifacts:
    def _reference(self, name="torus-stepper"):
        return artifacts.read(artifacts.reference_dir(name, smoke=True))

    def test_identical_artifacts_deviate_by_zero(self):
        ref = self._reference()
        assert artifacts.check(dict(ref), ref) == 0.0

    def test_round_off_is_accepted_and_larger_changes_are_not(self):
        ref = self._reference()
        summary = json.loads(ref["summary.json"])
        for scale, ok in ((1 + 1e-12, True), (1 + 1e-6, False)):
            changed = dict(summary, final_l2=summary["final_l2"] * scale)
            got = dict(ref, **{"summary.json": json.dumps(changed).encode()})
            if ok:
                assert 0 < artifacts.check(got, ref) <= artifacts.RTOL
            else:
                with pytest.raises(artifacts.Mismatch):
                    artifacts.check(got, ref)

    def test_flipped_verdict_is_a_mismatch(self):
        ref = self._reference()
        checks = json.loads(ref["checks.json"])
        checks["checks"][0]["passed"] = not checks["checks"][0]["passed"]
        got = dict(ref, **{"checks.json": json.dumps(checks).encode()})
        with pytest.raises(artifacts.Mismatch):
            artifacts.check(got, ref)

    def test_csv_row_count_is_structural(self):
        ref = self._reference()
        got = dict(ref, **{"series.csv": ref["series.csv"].rsplit(b"\n", 2)[0] + b"\n"})
        with pytest.raises(artifacts.Mismatch):
            artifacts.check(got, ref)


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile(list(range(10))) is None
    pct, value = run.high_percentile([float(i) for i in range(20)])
    assert pct == 50 and value == 9.0
    pct, value = run.high_percentile([float(i) for i in range(100)])
    assert pct == 90 and value == 89.0


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0",
                  "--trace", "0", "--smoke")
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0 " in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat_across_seeds(name):
    results = [
        _result(_bench("--workload", name, "--seed", str(seed), "--seconds", "0",
                       "--trace", "1", "--smoke"))
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1)
    ]
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
    exact = [n for n, u in run.PER_LAYER.items() if u == run.EXACT_UNIT]
    counts = [{n: r["metrics"][n]["value"] for n in exact} for r in results]
    assert counts[0] == counts[1]
    layer_count = {
        "torus-stepper": "dynamics.steps",
        "dirichlet-sweep": "critical.distance_calls",
        "estimates-battery": "estimates.records",
        "operator-battery": "operators.builds",
    }[name]
    assert counts[0][layer_count] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "torus-stepper", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
