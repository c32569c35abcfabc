"""Self-tests of the benchmark: tracer rebinding, exact counts, the control.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import functools
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, workload_doc  # noqa: E402


@functools.cache
def traced(name, seed):
    workload = WORKLOADS[name]
    return run.traced_run(workload, run.prepare_input(workload, seed))


def test_tracer_rebinds_every_namespace_and_restores():
    import qtransport.affine
    import qtransport.cli
    import qtransport.ncmat
    import qtransport.verify

    original = qtransport.ncmat.matmul
    tracer = Tracer()
    tracer.install()
    try:
        holders = set(tracer.rebound["qtransport.ncmat.matmul"])
        assert {
            "qtransport.ncmat",
            "qtransport.affine",
            "qtransport.verify",
            "qtransport.network",
        } <= holders
        assert "qtransport.ncmat" in tracer.rebound["qtransport.qalg.qmul"]
        assert qtransport.verify.matmul is qtransport.affine.matmul
        assert qtransport.verify.matmul is not original
    finally:
        tracer.uninstall()
    assert qtransport.verify.matmul is original
    assert qtransport.affine.matmul is original


def test_qmul_counted_on_rtt_and_absent_on_export():
    _, _, rtt, _ = traced("rtt-triangle", 1)
    _, _, export, _ = traced("export-triangle", 1)
    assert rtt["qalg.qmul.calls"][0] > 0
    assert export["qalg.qmul.calls"][0] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_keeps_output_and_counts_repeat_across_seeds(name):
    # Every in-process run, traced or not, must reproduce the pinned stdout,
    # and the trace's own checks (repeat counts, expected zeros) must hold.
    first = traced(name, 1)
    second = traced(name, 2)
    for attempted, failed, _, problems in (first, second):
        assert failed == 0 and problems == []
        assert attempted == 1 + run.TRACED_RUNS
    counts = {k: v for k, (v, unit) in first[2].items() if unit != "s"}
    assert counts == {k: v for k, (v, unit) in second[2].items() if unit != "s"}


def test_seed_changes_the_input():
    workload = WORKLOADS["all-chain"]
    assert workload_doc(workload, 1) != workload_doc(workload, 2)
    assert workload_doc(workload, 1) == workload_doc(workload, 1)


@pytest.mark.parametrize("seed", range(4))
def test_negative_control_fails_as_required(seed):
    run.WORK.mkdir(exist_ok=True)
    assert run.run_control(seed)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rtt-triangle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
