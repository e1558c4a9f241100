"""Smoke test of the benchmark itself, at tiny battery sizes.

    python3 bench/smoke.py

Works on a copy of src/, bench/ and BENCHMARK.json under .bench_work/ and
checks that:
- every workload emits exactly the end-to-end metrics of BENCHMARK.json with
  --trace 0, and exactly its per-layer metrics with --trace 1, plus the
  details (failed_ratio, tail percentile, environment, source line counts);
- a wrong recorded answer gives failed_ratio > 0 and a non-zero exit, both
  for an in-process workload and for the CLI one;
- without src/, the benchmark exits non-zero and prints no result.

It is not part of the tier-1 test suite.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("count-sweep", "coh-modules", "verify-sweep", "cli-oneshot")


def copy_tree(dest: Path, with_src: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def run(root: Path, workload: str, trace: int) -> tuple[int, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    objects = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, objects


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        raise SystemExit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work", prefix="smoke-") as tmp:
        good, bare = Path(tmp, "good"), Path(tmp, "bare")
        copy_tree(good, with_src=True)
        copy_tree(bare, with_src=False)

        for workload in WORKLOADS:
            for trace in (0, 1):
                code, objects = run(good, workload, trace)
                result, details = objects[-1], objects[-2]["details"]
                check(code == 0 and result["correct"] and result["failed"] == 0,
                      f"{workload} --trace {trace}: exit 0, every answer correct")
                check(set(result["metrics"]) == names[trace],
                      f"{workload} --trace {trace}: emits exactly the BENCHMARK.json metrics")
                check(details["failed_ratio"] == 0 and "src.lines" in details["static"]
                      and {"commit", "seed", "nproc", "python", "platform"} <= set(details["environment"])
                      and (trace or "op_tail_percentile" in details),
                      f"{workload} --trace {trace}: details carry failed_ratio, environment, line counts")

        golden_path = good / "bench" / "golden.json"
        golden = json.loads(golden_path.read_text())
        count = golden["tiny"]["count-sweep"]
        first = next(iter(count))
        count[first] += 1
        golden["tiny"]["cli-oneshot"] = {key: "9 wrong" for key in golden["tiny"]["cli-oneshot"]}
        golden_path.write_text(json.dumps(golden))
        for workload in ("count-sweep", "cli-oneshot"):
            code, objects = run(good, workload, 0)
            result, details = objects[-1], objects[-2]["details"]
            check(code != 0 and not result["correct"] and details["failed_ratio"] > 0,
                  f"{workload}: a wrong recorded answer gives failed_ratio > 0 and exit {code}")

        code, objects = run(bare, "count-sweep", 0)
        check(code != 0 and not objects, f"without src/: exit {code} and no result line")


if __name__ == "__main__":
    main()
