"""Tests of the benchmark itself: tiny workloads pass the gate, the gate
catches wrong outputs, and the span arithmetic is right.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driftwatch import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path):
    if name == "uni-detect":
        return workloads.UniDetect(3, lines=2_000)
    if name == "mv-detect":
        return workloads.MvDetect(3, lines=300, build_dir=str(tmp_path))
    return workloads.Experiment(3, count=400)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_the_gate(name, tmp_path):
    workload = tiny(name, tmp_path)
    e2e, passes = run.end_to_end(workload, seconds=0.0, probes=1)
    layers, traced = run.per_layer(workload, seconds=0.0, span_file=tmp_path / "spans.csv")
    assert sum(p.failed for p in passes + traced) == 0
    assert sum(p.attempted for p in passes + traced) > 0
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(value > 0 for value in e2e.values())
    if name == "uni-detect":
        assert layers["cli.lines_rejected"] == len(workload.bad) == 2
        assert layers["linalg.self_share"] == 0.0
    assert (tmp_path / "spans.csv").read_text().startswith("index,name,")


def test_gate_counts_a_shifted_density(monkeypatch, tmp_path):
    workload = tiny("mv-detect", tmp_path)
    real_score = cli.score

    def shifted(model, x, tau):
        verdict = real_score(model, x, tau)
        return dataclasses.replace(verdict, log_density=verdict.log_density + 1e-7)

    monkeypatch.setattr(cli, "score", shifted)
    result = workload.run()
    assert result.failed == result.attempted == len(workload.scores)


def test_gate_counts_one_skipped_update(monkeypatch, tmp_path):
    workload = tiny("mv-detect", tmp_path)
    real_update = cli.update_online
    calls = []

    def skip_tenth(model, x, **kwargs):
        calls.append(1)
        return model if len(calls) == 10 else real_update(model, x, **kwargs)

    monkeypatch.setattr(cli, "update_online", skip_tenth)
    result = workload.run()
    assert result.failed == len(workload.scores) - 10


def test_gate_counts_a_wrong_experiment_report(monkeypatch):
    workload = tiny("experiment", None)
    real = workloads.harness.run_experiment_2

    def off(data, *args, **kwargs):
        reports = real(data, *args, **kwargs)
        return [dataclasses.replace(reports[0], aad=reports[0].aad * (1 + 1e-7)), *reports[1:]]

    monkeypatch.setattr(workloads.harness, "run_experiment_2", off)
    assert workload.run().failed == 1


def test_gate_counts_an_accepted_malformed_line():
    workload = workloads.UniDetect(4, lines=2_000)
    assert workload.run().failed == 0
    workload.bad = workload.bad | {1}  # line 1 is valid, so it is not rejected
    assert workload.run().failed == 1  # the rejection that did not happen


SPANS = [
    ("cli.run_detect", 0.0, 10.0, -1),
    ("detector.update_online", 1.0, 4.0, 0),
    ("linalg._paired_update", 1.5, 3.5, 1),
    ("linalg.inverse_from_factor", 3.5, 3.75, 1),
    ("detector.fit_static", 5.0, 9.0, 0),
    ("linalg.inverse_from_factor", 6.0, 7.0, 4),
]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(SPANS) == [3.0, 0.75, 2.0, 0.25, 3.0, 1.0]


def test_summary_aggregates_by_module_and_charges_kernels_to_updates():
    summary = tracing.SpanSummary(SPANS)
    assert dict(summary.self_by_module) == {"cli": 3.0, "detector": 3.75, "linalg": 3.25}
    assert summary.root_total == 10.0
    assert summary.share("linalg") == 32.5
    assert summary.linalg_self_in_update == 2.25
    assert summary.rebuilds_in_update == 1
    assert summary.mean("linalg.inverse_from_factor", 1e3) == 625.0
    assert summary.mean("detector.update_online", own=True) == 0.75
    assert summary.mean("pewma.pewma_step") == 0.0


def test_installed_wraps_cross_module_calls_and_restores_them():
    import importlib

    modules = {name: importlib.import_module(f"driftwatch.{name}") for name in run.LAYERS}
    targets = tracing.boundary_targets(modules)
    names = {name for _, _, name in targets}
    assert {"pewma.pewma_step", "detector.update_online", "linalg.inverse_from_factor"} <= names
    assert "cli._parse_scalar" not in names  # calls within a module are not boundaries
    before = [getattr(module, attr) for module, attr, _ in targets]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets):
        cli.pewma_step(cli.pewma_init(1.0, cli.PewmaParams()), 2.0, cli.PewmaParams())
    assert [getattr(module, attr) for module, attr, _ in targets] == before
    assert [span[0] for span in tracer.take()] == ["pewma.pewma_init", "pewma.pewma_step"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "uni-detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
