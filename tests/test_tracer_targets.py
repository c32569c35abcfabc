"""The benchmark tracer must still find every function it traces.

perfbench/tracer.py rebinds traced functions by name in every qtransport
module that holds them.  A rename in the package would break the benchmark's
layer metrics; this test makes such a rename fail here instead.
"""

import importlib.util
import pathlib

import qtransport.cli  # noqa: F401  (imports every qtransport module)

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
