"""The engine names that bench/spans.py reaches directly.

The tracer wraps these by name, so deleting or renaming one breaks
`python3 bench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import unipcount.symreps
from unipcount.symreps import ClassFunction
from unipcount.weylmodules import ModuleDecomp

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cached_functions_exist_with_cache_info():
    for name in _spans().CACHED:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"unipcount.{layer}"), attr)
        assert callable(getattr(fn, "cache_info", None)), name


def test_wrapped_names_exist():
    for attr in ("_load_table", "_store_table", "_table_path"):
        assert callable(getattr(unipcount.symreps, attr)), attr
    for method in (
        "__init__", "__add__", "tensor", "multiplicity", "dimension", "entries",
        "to_json_obj", "from_json_obj",
    ):
        assert method in ModuleDecomp.__dict__, method
    assert isinstance(ModuleDecomp.__dict__["from_json_obj"], classmethod)
    assert "__post_init__" in ClassFunction.__dict__
