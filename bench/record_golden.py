"""Record the answers every benchmark operation is checked against.

    PYTHONPATH=src python3 bench/record_golden.py

Writes bench/golden.json: for each scale and workload, a map from an
operation's key to its answer (a count, or a short SHA-256 of the module
JSON, the verify report or the CLI's exit code and stdout). Run it only when
an output is meant to change; the file holds the outputs of the commit that
recorded it.
"""

import contextlib
import io
import json
import tempfile

import battery
from unipcount import cli, diagrams, oracle, unipotent, weylmodules

MODS = {"diagrams": diagrams, "unipotent": unipotent, "weylmodules": weylmodules, "oracle": oracle}


def run_cli(argv, cache_dir: str) -> str:
    out = io.StringIO()
    real = [arg.replace(battery.CACHE_TOKEN, cache_dir) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(real)
    return code, battery.cli_answer(code, out.getvalue().encode())


def record(scale: str, cache_dir: str) -> dict:
    sizes = battery.SIZES[scale]
    count = {
        battery.count_key(op): battery.run_count(MODS, op)
        for op in battery.count_population(sizes["count-sweep"])
    }
    coh = {
        battery.coh_key(op): battery.coh_answer(battery.keep_coh(op, battery.run_coh(MODS, op)))
        for op in battery.coh_ops(sizes["coh-modules"], battery.battery_rng("coh-modules", 0))
    }
    verify = {
        battery.verify_key(size): battery.verify_answer(battery.run_verify(MODS, size))
        for size in range(1, sizes["verify-sweep"] + 1)
    }
    commands = [(argv, 0) for _, candidates in battery.cli_templates(sizes["cli-oneshot"]) for argv in candidates]
    commands += [(argv, 1) for argv in battery.CLI_DOMAIN_ERRORS]
    commands += [(argv, code) for _, argv, code in battery.cli_fixed(scale)]
    clis = {}
    for argv, expected in commands:
        code, answer = run_cli(argv, cache_dir)
        if code != expected:
            raise SystemExit(f"{battery.cli_key(argv)} exited {code}, expected {expected}")
        clis[battery.cli_key(argv)] = answer
    return {"count-sweep": count, "coh-modules": coh, "verify-sweep": verify, "cli-oneshot": clis}


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        golden = {scale: record(scale, cache_dir) for scale in battery.SIZES}
    battery.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
