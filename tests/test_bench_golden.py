"""The answers recorded in bench/golden.json, checked without a benchmark run.

Every coh module of the full coh-modules battery must serialize to its
recorded canonical-JSON digest, every count of the full count-sweep
population must equal its recorded answer, and every verify-sweep report
must pass and hash to its recorded digest. The battery's own operations and
checks are used, loaded from bench/battery.py as the benchmark loads them.
"""

import importlib.util
from pathlib import Path

from unipcount import diagrams, oracle, unipotent, weylmodules

BATTERY_PATH = Path(__file__).resolve().parent.parent / "bench" / "battery.py"
MODS = {
    "diagrams": diagrams,
    "oracle": oracle,
    "unipotent": unipotent,
    "weylmodules": weylmodules,
}


def _battery():
    spec = importlib.util.spec_from_file_location("bench_battery", BATTERY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coh_modules_match_golden_digests():
    battery = _battery()
    golden = battery.load_golden()["full"]["coh-modules"]
    n = battery.SIZES["full"]["coh-modules"]
    ops = battery.coh_ops(n, battery.battery_rng("coh-modules", 1))
    assert {battery.coh_key(op) for op in ops} == set(golden)
    kept = [battery.keep_coh(op, battery.run_coh(MODS, op)) for op in ops]
    assert battery.check_coh(ops, kept, golden) == []


def test_count_population_matches_golden_answers():
    battery = _battery()
    golden = battery.load_golden()["full"]["count-sweep"]
    ops = list(battery.count_population(battery.SIZES["full"]["count-sweep"]))
    assert {battery.count_key(op) for op in ops} == set(golden)
    answers = [battery.run_count(MODS, op) for op in ops]
    assert battery.check_counts(ops, answers, golden) == []


def test_verify_reports_match_golden_digests():
    battery = _battery()
    golden = battery.load_golden()["full"]["verify-sweep"]
    ops = battery.verify_ops(
        battery.SIZES["full"]["verify-sweep"], battery.battery_rng("verify-sweep", 1)
    )
    assert {battery.verify_key(op) for op in ops} == set(golden)
    reports = [battery.run_verify(MODS, op) for op in ops]
    assert battery.check_verify(ops, reports, golden) == []
