"""The benchmark's span tracer (perfbench/tracing.py) wraps hubpay entry
points by name: module functions by attribute, methods through their class's
own ``__dict__``. A refactor that renames, moves or inherits one of them
breaks ``--trace 1`` runs, so check every name here. The tracer module is
only imported, never changed."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_looks():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{name}"
               for _, module, names in tracing.FUNCTIONS for name in names
               if not callable(getattr(module, name, None))]
    missing += [f"{cls.__module__}.{cls.__qualname__}.{name}"
                for _, cls, names in tracing.METHODS for name in names
                if name not in cls.__dict__]
    assert missing == []
