"""The benchmark tracer must still find every function it traces.

perfbench/tracer.py rebinds traced functions by name in every qtransport
module that holds them.  A rename in the package would break the benchmark's
layer metrics; this test makes such a rename fail here instead.  The same
tracer counts the calls of small commands: an identity suite must invert
M12 once, and a relation must be summed straight from its products, each
built once per checker window.
"""

import importlib.util
import pathlib

from qtransport import cli  # imports every qtransport module

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_rebound():
    tracer_module = _load_tracer()
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


def _traced_calls(argv, capsys):
    """Exit code and calls per traced layer of one CLI run."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
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
    assert calls["ncmat.sheet_product"] == 2  # (1)M (2)M and (2)M (1)M
    assert calls["ncmat.classical_act"] == 0
    assert calls["ncmat.elementwise"] == 0
    assert calls["qalg.scalar"] == 0


def test_check_loop_builds_each_sheet_product_once(capsys):
    # Component (a, b) reads R* (1)X_{a+1} (2)Y_b - R (1)X_a (2)Y_{b+1} and
    # the same products in the other sheet order.  The default --order 2
    # gives the window -2 <= a, b <= 1, where neighbouring components share
    # level pairs.
    window = [(a, b) for a in range(-2, 2) for b in range(-2, 2)]
    pairs = {p for a, b in window for p in ((a + 1, b), (a, b + 1))}
    argv = ["check", "loop", "--builder", "chain", "--n", "2,2", "--bridge"]
    code, calls = _traced_calls(argv, capsys)
    assert code == 0
    assert calls["ncmat.sheet_product"] == 2 * len(pairs) < 4 * len(window)
