"""The benchmark tracer's boundaries name attributes that exist.

``benchmark/spans.py`` wraps module and class attributes by name
(``owner.__dict__[attr]``), so a renamed or deleted function would only
surface as a ``KeyError`` in a traced benchmark run.  This reads the
boundary table and changes nothing under ``benchmark/``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_names_an_attribute():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name in load_spans().BOUNDARIES
        if attr not in owner.__dict__
    ]
    assert missing == []
