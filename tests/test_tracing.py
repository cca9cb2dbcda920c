"""The benchmark's span tracer names conergy functions by string; each of
them must still exist, so that a renamed or deleted function fails here
and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py, loaded by path: it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    tracing = load_tracing()
    names = [f"{short}.{name}" for short, names in tracing.LAYERS.items() for name in names or ()]
    names += [name for pair in tracing.RATIOS.values() for name in pair]
    assert len(names) > len(tracing.LAYERS)
    modules = {short: importlib.import_module(f"conergy.{short}") for short in tracing.LAYERS}
    for name in names:
        short, function = name.split(".")
        assert inspect.isfunction(getattr(modules[short], function, None)), name
