"""The benchmark tracer must still find every function it traces.

perfbench/tracer.py rebinds traced functions by name in every qtransport
module that holds them.  A rename in the package would break the benchmark's
layer metrics; this test makes such a rename fail here instead.  The same
tracer counts the calls of one identity suite, which must invert M12 once.
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


def test_check_all_inverts_m12_once(capsys):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        argv = ["check", "all", "--builder", "chain", "--n", "2,2", "--bridge"]
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: n for name, (n, _) in tracer.layer_totals().items()}
    assert code == 0
    assert calls["ncmat.invert_restricted"] == 1
    assert calls["ncmat.lift"] > 0
