"""Benchmark of unipcount: cold-cache workloads, answer-checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Every battery runs in a fresh interpreter that imports ``unipcount`` from this
checkout's ``src/``, with no warm-up: the engine's ``functools.cache``s are the
computation, and every CLI user pays them in each process. One closed-loop
caller runs one operation at a time. The seed fixes the sampling and the order
of every battery; the program only sees the generated inputs.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates traced and untraced batteries and prints the per-layer metrics
(see spans.py) and the tracing overhead. Each printed metric line names the
workload, the metric, its value, unit and sample count. A details line (JSON)
follows with the environment, source line counts, failures and digests, and
the last line is the result object (with ``--workload all``, one object that
holds every workload's result and details). The metric names and units are
those of ``BENCHMARK.json``. The exit code is 1 when any answer is wrong and 2
when there is no ``src/unipcount`` to measure.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import battery
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("count-sweep", "coh-modules", "verify-sweep", "cli-oneshot")
CACHE_ENV = "UNIPCOUNT_CACHE_DIR"

# setup_s samples: a few before the first battery and one after each, so that
# a burst of load on the machine moves only some of them.
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_EACH = 1
# Other tenants of a shared machine slow a CPU down by up to half, CPU time
# included, for stretches of 10 to 20 seconds, and not every CPU at once; so
# medians over batteries drift by a third from run to run. Two remedies:
# - Every battery of a run repeats the same operations in the same order, each
#   in a fresh interpreter, so operation i does the same work in every
#   battery: the timings use its best latency and CPU time over the batteries.
# - Successive children run on successive usable CPUs (Children.run sets the
#   affinity of this process, and children inherit it), so one slow CPU does
#   not slow a whole run.
# An untraced run keeps going past --seconds until MIN_BATTERIES are done.
MIN_BATTERIES = 5
CPUS = sorted(os.sched_getaffinity(0))
# No battery starts after MAX_RUN_S, and every child still running at
# KILL_AFTER_S is killed, so that a run ends within 180 s.
MAX_RUN_S = 140
KILL_AFTER_S = 170
TAIL_LADDER_PER_MILLE = (999, 990, 950, 900, 750, 500)

# name -> unit of the BENCHMARK.json metrics printed with --trace 0 and 1
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    False: {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]},
    True: {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]},
}
CLI_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.run_ms", "cli.process_ms")


# --- processes -----------------------------------------------------------

class Children:
    """Runs the children of one workload run: this checkout's src/ on
    PYTHONPATH, no user cache dir, successive children on successive CPUs."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env.pop(CACHE_ENV, None)
        self.env["PYTHONPATH"] = str(SRC)
        self.kill_at = time.monotonic() + KILL_AFTER_S
        self.spawned = 0

    def run(self, argv: list[str]) -> dict:
        """Run one child to completion; its wall time, CPU time and peak RSS."""
        os.sched_setaffinity(0, {CPUS[self.spawned % len(CPUS)]})
        self.spawned += 1
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            spawned = time.monotonic()
            begin = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(max(0.1, self.kill_at - spawned), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_s = time.perf_counter() - begin
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {
                "code": proc.returncode,
                "spawned": spawned,
                "wall_s": wall_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
                "stdout": out.read(),
                "stderr": err.read(),
            }


def measure_setup(children: Children, count: int) -> list[float]:
    """Fresh interpreter to `import unipcount.cli` done, `count` times."""
    samples = []
    for _ in range(count):
        proc = children.run([sys.executable, "-c", "import unipcount.cli"])
        if proc["code"] != 0:
            raise RuntimeError("import unipcount.cli failed: " + proc["stderr"].decode(errors="replace"))
        samples.append(proc["wall_s"])
    return samples


# --- batteries -----------------------------------------------------------

def inprocess_battery(workload: str, scale: str, seed: int, traced: bool, children: Children) -> dict:
    spec = {
        "workload": workload, "scale": scale, "seed": seed, "trace": traced,
        "spans_out": str(WORK / f"spans-{workload}.json"),
    }
    proc = children.run([sys.executable, str(BENCH / "child.py"), "battery", json.dumps(spec)])
    try:
        result = json.loads(proc["stdout"].decode().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc["code"] != 0 or result is None:
        make_ops = battery.IN_PROCESS[workload][0]
        ops = len(make_ops(battery.SIZES[scale][workload], battery.battery_rng(workload, seed)))
        message = proc["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return failed_battery(ops, f"battery child exited {proc['code']}: {message}", traced)
    procs = [{
        "cli.interpreter_ms": 1000 * (result["start"] - proc["spawned"]),
        "cli.import_ms": 1000 * result["import_s"],
    }]
    return {
        "traced": traced,
        "ops": result["ops"],
        "failed": result["failed"],
        "errors": result["errors"],
        "digest": result["digest"],
        "latencies": result["latencies"],
        "cpus": result["cpus"],
        "wall_s": result["wall_s"],
        "rss_mb": result["rss_mb"],
        "raws": [result["trace"]] if traced else [],
        "procs": procs,
        "stdout_bytes": 0,
    }


def failed_battery(ops: int, message: str, traced: bool) -> dict:
    return {
        "traced": traced, "ops": ops, "failed": ops, "errors": [message], "digest": None,
        "latencies": [], "cpus": [], "wall_s": None, "rss_mb": None,
        "raws": [], "procs": [], "stdout_bytes": 0,
    }


def cli_battery(scale: str, seed: int, traced: bool, children: Children) -> dict:
    """One process per command. Each battery gets its own empty cache dir."""
    ops = battery.cli_ops(scale, battery.battery_rng("cli-oneshot", seed))
    golden = battery.load_golden()[scale]["cli-oneshot"]
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK))
    table = cache / f"chartable_{battery.CLI_CHARTABLE_N[scale]}.json"
    trace_file = WORK / "cli-trace.json"
    runs = []
    wall0 = time.perf_counter()
    try:
        for role, argv, _ in ops:
            real = [arg.replace(battery.CACHE_TOKEN, str(cache)) for arg in argv]
            if traced:
                trace_file.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(trace_file), *real]
            else:
                cmd = [sys.executable, "-m", "unipcount.cli", *real]
            stored_before = table.exists()
            proc = children.run(cmd)
            proc["stored_before"], proc["stored_after"] = stored_before, table.exists()
            if traced:
                proc["trace"] = json.loads(trace_file.read_text()) if trace_file.exists() else None
            runs.append(proc)
        wall_s = time.perf_counter() - wall0
    finally:
        shutil.rmtree(cache)

    errors = []
    answers = []
    miss_stdout = None
    for (role, argv, expected), proc in zip(ops, runs):
        key = battery.cli_key(argv)
        answer = battery.cli_answer(proc["code"], proc["stdout"])
        answers.append((key, answer))
        if proc["code"] != expected:
            errors.append(f"{key}: exit {proc['code']}, expected {expected}: "
                          + proc["stderr"].decode(errors="replace").strip()[-300:])
        elif golden.get(key) != answer:
            errors.append(f"{key}: answer {answer}, recorded {golden.get(key)}")
        elif role == "chartable-miss":
            miss_stdout = proc["stdout"]
            if proc["stored_before"] or not proc["stored_after"]:
                errors.append(f"{key}: the miss found a table or stored none")
        elif role == "chartable-hit" and (not proc["stored_before"] or proc["stdout"] != miss_stdout):
            errors.append(f"{key}: the hit had no stored table or printed other bytes")

    procs, raws = [], []
    for proc in runs:
        entry = {"cli.process_ms": 1000 * proc["wall_s"]}
        trace = proc.get("trace")
        if trace:
            raws.append(trace["trace"])
            run_stats = trace["trace"]["stats"].get("cli.run", (0, 0.0, 0.0))
            entry.update({
                "cli.interpreter_ms": 1000 * (trace["start"] - proc["spawned"]),
                "cli.import_ms": 1000 * trace["import_s"],
                "cli.run_ms": 1000 * run_stats[1],
            })
        procs.append(entry)
    return {
        "traced": traced,
        "ops": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "digest": battery.digest(answers),
        "latencies": [proc["wall_s"] for proc in runs],
        "cpus": [proc["cpu_s"] for proc in runs],
        "wall_s": wall_s,
        "rss_mb": max(proc["rss_mb"] for proc in runs),
        "raws": raws,
        "procs": procs,
        "stdout_bytes": sum(len(proc["stdout"]) for proc in runs),
    }


def run_battery(workload, scale, seed, traced, children) -> dict:
    if workload == "cli-oneshot":
        return cli_battery(scale, seed, traced, children)
    return inprocess_battery(workload, scale, seed, traced, children)


# --- metrics -------------------------------------------------------------

def percentile(values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-per_mille * len(ordered) // 1000))
    return ordered[rank - 1]


def tail_per_mille(ops: int) -> int:
    """Highest ladder percentile with at least 10 of `ops` samples beyond it;
    the maximum when a battery has too few operations for any."""
    for p in TAIL_LADDER_PER_MILLE:
        if ops - -(-p * ops // 1000) >= 10:
            return p
    return 1000


def end_to_end(setup: list[float], batteries: list[dict]) -> tuple[dict, dict]:
    done = [b for b in batteries if not b["traced"] and b["wall_s"] is not None]
    best = [min(column) for column in zip(*(b["latencies"] for b in done))]
    best_cpu = [min(column) for column in zip(*(b["cpus"] for b in done))]
    tail = tail_per_mille(len(best))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "cpu_s": sum(best_cpu),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000 * percentile(best, 500),
        "op_tail_ms": 1000 * percentile(best, tail),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in done),
    }
    info = {
        "op_tail_percentile": tail / 10,
        "samples": {
            "setup_s": len(setup),
            **{name: f"{len(best)} ops x best of {len(done)}"
               for name in ("wall_s", "cpu_s", "ops_per_s", "op_p50_ms", "op_tail_ms")},
            "peak_rss_mb": len(done),
        },
    }
    return values, info


def per_layer(batteries: list[dict]) -> tuple[dict, dict]:
    traced = [b for b in batteries if b["traced"] and b["wall_s"] is not None]
    plain = [b for b in batteries if not b["traced"] and b["wall_s"] is not None]
    rows = []
    for b in traced:
        row = spans.layer_metrics(spans.merge(b["raws"]))
        for name in CLI_METRICS:
            samples = [p[name] for p in b["procs"] if name in p]
            row[name] = statistics.median(samples) if samples else 0.0
        row["cli.stdout_bytes"] = b["stdout_bytes"]
        rows.append(row)
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(b["wall_s"] for b in traced) / statistics.median(b["wall_s"] for b in plain)
    )
    return values, {"samples": {"traced_batteries": len(traced), "untraced_batteries": len(plain)}}


# --- run -----------------------------------------------------------------

def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_files() -> list[Path]:
    return sorted((SRC / "unipcount").glob("*.py"))


def environment(seed: int) -> dict:
    sha = hashlib.sha256()
    for path in source_files():
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": sha.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def static_metrics() -> dict:
    lines = {f"{path.stem}.lines": len(path.read_text().splitlines()) for path in source_files()}
    return {"src.lines": sum(lines.values()), **lines}


def run_workload(workload: str, scale: str, seed: int, seconds: float, trace: bool) -> dict:
    children = Children()
    setup = measure_setup(children, SETUP_SAMPLES_FIRST)
    batteries = []
    start = time.perf_counter()
    while True:
        index = len(batteries)
        batteries.append(run_battery(workload, scale, seed, trace and index % 2 == 0, children))
        setup += measure_setup(children, SETUP_SAMPLES_EACH)
        elapsed = time.perf_counter() - start
        enough = len(batteries) >= (2 if trace else MIN_BATTERIES)
        if elapsed >= MAX_RUN_S or (elapsed >= seconds and enough):
            break

    attempted = sum(b["ops"] for b in batteries)
    failed = sum(b["failed"] for b in batteries)
    correct = failed == 0
    details = {
        "workload": workload,
        "scale": scale,
        "seconds": seconds,
        "batteries": len(batteries),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": [e for b in batteries for e in b["errors"]][:10],
        # Every battery runs the same operations, so one digest is expected.
        "digests": sorted({b["digest"] for b in batteries if b["digest"]}),
        "environment": environment(seed),
        "static": static_metrics(),
    }
    metrics = {}
    complete = [b for b in batteries if b["wall_s"] is not None]
    if {b["traced"] for b in complete} == ({True, False} if trace else {False}):
        values, info = per_layer(batteries) if trace else end_to_end(setup, batteries)
        details.update(info)
        units = UNITS[trace]
        if set(values) != set(units):
            raise RuntimeError(f"computed metrics {sorted(values)} are not those of BENCHMARK.json")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details}


def print_lines(result: dict) -> None:
    details = result["details"]
    samples = details.get("samples", {})
    for name, metric in result["metrics"].items():
        n = samples.get(name, samples.get("traced_batteries", ""))
        print(f"{details['workload']:<13} {name:<44} {metric['value']:>14.4f} {metric['unit']:<6} n={n}")
    print(f"{details['workload']:<13} {'failed_ratio':<44} {details['failed_ratio']:>14.4f} ratio  "
          f"n={details['attempted']}")
    for error in details["errors"]:
        print(f"{details['workload']}: FAILED {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(battery.SIZES), default="full",
                        help="battery sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "unipcount" / "__init__.py").is_file():
        print(f"error: no package to measure at {SRC / 'unipcount'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.scale, args.seed, args.seconds, bool(args.trace))
        print_lines(results[name])
        print(json.dumps({"details": results[name]["details"]}))
    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct, "workloads": results}))
    else:
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
