"""One fresh interpreter of the benchmark.

    child.py battery SPEC_JSON      run one in-process battery, print its result as JSON
    child.py cli TRACE_OUT ARGV...  run one traced CLI command, as ``python -m unipcount.cli``

Both import ``unipcount`` from the ``src/`` directory next to ``bench/`` (the
parent puts it on PYTHONPATH) and refuse to run on any other copy.
"""

import time

START = time.monotonic()  # read by the parent against its spawn time
# The engine is imported before anything else, so that the standard-library
# modules it pulls in are timed too, as they are in `python -m unipcount.cli`.
IMPORT_BEGIN = time.perf_counter()
import unipcount.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - IMPORT_BEGIN

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import battery  # noqa: E402
import spans  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def engine_modules() -> dict:
    pkg = sys.modules["unipcount"]
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"unipcount imported from {pkg.__file__}, not from {SRC}")
    return {layer: sys.modules[f"unipcount.{layer}"] for layer in spans.LAYERS}


def run_battery(spec: dict) -> dict:
    mods = engine_modules()
    make_ops, run_op, keep, key_of, answer_of, check = battery.IN_PROCESS[spec["workload"]]
    size = battery.SIZES[spec["scale"]][spec["workload"]]
    ops = make_ops(size, battery.battery_rng(spec["workload"], spec["seed"]))
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer, mods)

    results, latencies, cpus, errors = [], [], [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    wall0 = clock()
    for i, op in enumerate(ops):
        if tracer:
            tracer.request = i
        begin, cpu_begin = clock(), cpu_clock()
        try:
            result = run_op(mods, op)
        except Exception as exc:  # an operation that raises is a failure, not a crash
            result = exc
        cpus.append(cpu_clock() - cpu_begin)
        latencies.append(clock() - begin)
        # Untimed: only what the checks need is kept, so that peak_rss_mb
        # counts the engine's memory and little of the benchmark's.
        results.append(result if isinstance(result, Exception) else keep(op, result))
    wall_s = clock() - wall0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = None
    if tracer:  # before the checks, which call into the engine too
        raw = tracer.snapshot()
        tracer.write_spans(spec["spans_out"])

    good = [(op, r) for op, r in zip(ops, results) if not isinstance(r, Exception)]
    for op, r in zip(ops, results):
        if isinstance(r, Exception):
            errors.append((key_of(op), f"{key_of(op)}: raised {r!r}"))
    golden = battery.load_golden()[spec["scale"]][spec["workload"]]
    errors += check([op for op, _ in good], [r for _, r in good], golden)
    return {
        "start": START,
        "import_s": IMPORT_S,
        "ops": len(ops),
        "failed": len({key for key, _ in errors}),
        "errors": [message for _, message in errors[:5]],
        "digest": battery.digest((key_of(op), answer_of(r)) for op, r in good),
        "latencies": latencies,
        "cpus": cpus,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "trace": raw,
    }


def run_cli(trace_out: str, argv: list[str]) -> int:
    mods = engine_modules()
    tracer = spans.Tracer()
    spans.install(tracer, mods)
    try:
        code = mods["cli"].run(argv)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w") as out:
            json.dump(
                {"start": START, "import_s": IMPORT_S, "trace": tracer.snapshot(), "spans": tracer.spans},
                out,
            )
    return code


if __name__ == "__main__":
    if sys.argv[1] == "battery":
        print(json.dumps(run_battery(json.loads(sys.argv[2]))))
    else:
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
