"""The benchmark's traced run wraps package functions by the names their
callers import them under (``perfbench/tracing.py``, ``WRAPS``).  A name
dropped from a package module would break only the traced benchmark, so
the suite checks that every wrapped name still exists.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_names(wraps) -> list[str]:
    """``module.attribute`` of each entry with a package module whose
    attribute that module lacks; entries for the benchmark's own namespace
    (module None) are left out."""
    return [f"{mod}.{attr}" for mod, attr, *_rest in wraps
            if mod is not None
            and not hasattr(importlib.import_module(f"rainbowmatch.{mod}"), attr)]


def test_scanner_finds_a_dropped_name():
    wraps = (("generators", "build_graph", "x", "graphs.build", None),
             ("generators", "no_such_function", "y", "graphs.build", None),
             (None, "no_such_api_name", "z", "cli", None))
    assert missing_names(wraps) == ["generators.no_such_function"]


def test_every_wrapped_package_name_exists():
    wraps = load_tracing().WRAPS
    assert any(mod == "generators" for mod, *_rest in wraps)
    assert missing_names(wraps) == []
