"""Every function and method the benchmark tracer wraps still exists.

perfbench/tracer.py looks each layer up by name when it installs; a rename in
semirep would otherwise surface only as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("semirep_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    tracer = _tracer()
    for modname, names in tracer.LAYERS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    for span, (modname, cls, meth) in tracer.METHODS.items():
        klass = getattr(importlib.import_module(modname), cls, None)
        assert callable(getattr(klass, meth, None)), span
