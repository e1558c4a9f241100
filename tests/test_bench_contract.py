"""The engine names that bench/spans.py reaches directly.

The tracer wraps these by name, so deleting or renaming one breaks
`python3 bench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import unipcount.symreps
from unipcount.symreps import ClassFunction
from unipcount.weylmodules import ModuleDecomp

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "bench" / "spans.py"


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
    # layer_metrics reads the self time of these by name.
    for name in (
        "oracle.induced_character", "oracle.decompose", "oracle.orthogonality_check",
        "symreps.character_table",
    ):
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"unipcount.{layer}"), attr)), name
    for method in (
        "__init__", "__add__", "tensor", "multiplicity", "dimension", "entries",
        "to_json_obj", "from_json_obj",
    ):
        assert method in ModuleDecomp.__dict__, method
    assert isinstance(ModuleDecomp.__dict__["from_json_obj"], classmethod)
    assert "__post_init__" in ClassFunction.__dict__


# Traced work in a child: install() rebinds attributes of the engine modules.
TRACED_CHILD = """
import importlib.util, json, sys
import unipcount.cli

spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
mods = {layer: sys.modules["unipcount." + layer] for layer in spans.LAYERS}
tracer = spans.Tracer()
spans.install(tracer, mods)
unipotent, weyl = mods["unipotent"], mods["weylmodules"]
assert all(entry["pass"] for entry in mods["oracle"].run_checks(3))
su = unipotent.make_group("su", p=2, q=2)
assert unipotent.count_unipotent(su, unipotent.OrbitSpec((2, 1, 1))) == 1
module = weyl.coh_u_cover(2, 2, mods["diagrams"].coset_signature((2, 1, 1)))
assert weyl.ModuleDecomp.from_json_obj(module.to_json_obj()) == module
print(json.dumps(spans.layer_metrics(spans.merge([tracer.snapshot()]))))
"""

# Filled in by bench/run.py from process timings and stdout, not by layer_metrics.
PROCESS_METRICS = {
    "cli.interpreter_ms", "cli.import_ms", "cli.run_ms", "cli.process_ms",
    "cli.stdout_bytes", "trace.overhead_ratio",
}


def test_traced_engine_reports_every_layer_metric(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHILD, str(SPANS_PATH)],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == PROCESS_METRICS
    for name in ("oracle.calls", "unipotent.calls", "weylmodules.modules_built",
                 "weylmodules.json.self_ms", "diagrams.check_diagram.calls"):
        assert metrics[name] > 0, name
