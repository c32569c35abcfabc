"""The benchmark tracer must still find every function it traces.

perfbench/tracer.py rebinds traced functions by name in every qtransport
module that holds them.  A rename in the package would break the benchmark's
layer metrics; this test makes such a rename fail here instead.  The same
tracer counts the calls of small commands: an identity suite must invert
M12 once, and a relation must be summed straight from its products, each
built once per checker window and read in both sheet orders.  Each
benchmark workload, run small, must also meet the zero and nonzero layer
counts the traced benchmark requires of it.
"""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

from qtransport import cli  # imports every qtransport module

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_rebound():
    tracer_module = _load("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        functions = [
            f"{modname}.{attr}"
            for _, modname, attr in tracer_module.TARGETS
            if "." not in attr
        ]
        unbound = [name for name in functions if not tracer.rebound[name]]
    finally:
        tracer.uninstall()
    assert functions and not unbound


def _traced(argv, capsys):
    """Exit code and tracer of one CLI run."""
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return code, tracer


def _traced_calls(argv, capsys):
    """Exit code and calls per traced layer of one CLI run."""
    code, tracer = _traced(argv, capsys)
    return code, {name: n for name, (n, _) in tracer.layer_totals().items()}


def test_check_all_inverts_m12_once(capsys):
    argv = ["check", "all", "--builder", "chain", "--n", "2,2", "--bridge"]
    code, calls = _traced_calls(argv, capsys)
    assert code == 0
    assert calls["ncmat.invert_restricted"] == 1
    assert calls["ncmat.lift"] > 0


def test_check_rtt_sums_residuals_without_matrix_arithmetic(capsys):
    argv = ["check", "rtt", "--builder", "triangle", "--n", "3"]
    code, calls = _traced_calls(argv, capsys)
    assert code == 0
    assert calls["ncmat.sheet_product"] == 1  # (2)M (1)M re-indexes (1)M (2)M
    assert calls["ncmat.classical_act"] == 0
    assert calls["ncmat.elementwise"] == 0
    assert calls["qalg.scalar"] == 0


def test_check_loop_builds_each_sheet_product_once(capsys):
    # Component (a, b) reads R* (1)X_{a+1} (2)Y_b - R (1)X_a (2)Y_{b+1} and
    # the same words backwards, (2)Y_b (1)X_{a+1} and so on.  The default
    # --order 2 gives the window -2 <= a, b <= 1, where neighbouring
    # components share level pairs.  A product is keyed by its two matrices
    # in word order, and with X = Y the pair set is closed under swapping
    # them, so the backward words read products the forward ones built.
    window = [(a, b) for a in range(-2, 2) for b in range(-2, 2)]
    pairs = {p for a, b in window for p in ((a + 1, b), (a, b + 1))}
    assert pairs == {(q, p) for p, q in pairs}
    argv = ["check", "loop", "--builder", "chain", "--n", "2,2", "--bridge"]
    code, calls = _traced_calls(argv, capsys)
    assert code == 0
    assert calls["ncmat.sheet_product"] == len(pairs) == 23


# Each workload at a small size: (builder size, --split or None).
SMALL = {
    "rtt-triangle": ((3,), None),
    "all-chain": ((2, 2), "2,1,2"),
    "export-triangle": ((4,), None),
}
workloads = _load("workloads")


def test_every_workload_has_a_small_instance():
    assert set(SMALL) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_small_workload_meets_its_traced_counts(name, tmp_path, capsys):
    size, split = SMALL[name]
    workload = dataclasses.replace(workloads.WORKLOADS[name], size=size)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(workloads.workload_doc(workload, 1)))
    argv = [a.replace("{input}", str(path)) for a in workload.argv]
    if split is not None:
        argv[argv.index("--split") + 1] = split
    code, tracer = _traced(argv, capsys)
    assert code == 0
    metrics = {key: value for key, (value, _) in tracer.metrics().items()}
    assert [key for key in workload.zero if metrics[key] != 0] == []
    assert [key for key in workload.nonzero if not metrics[key] > 0] == []
