import importlib.util
from importlib import import_module
from pathlib import Path

from pointedcat.cyclo import Cyclotomic

TRACED_PY = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def test_traced_names_resolve():
    # bench/traced.py wraps these callables by name; a renamed or deleted one
    # would only fail the traced benchmark run
    spec = importlib.util.spec_from_file_location("traced", TRACED_PY)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for layer, names in traced.TRACED.items():
        module = import_module(f"pointedcat.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for attr in traced.METHODS:
        assert callable(Cyclotomic.__dict__.get(attr)), f"Cyclotomic.{attr}"
