"""Command-line front end: parse group and orbit inputs, dispatch to the
engine, and emit deterministic tables or JSON.

Exit codes: 0 on success, 1 on domain errors (size mismatch, unsupported
kind, failed verification, a cache that cannot be written), 2 on usage
errors.
"""

import argparse
import os
import sys
from functools import cache
from operator import getitem

from .diagrams import all_diagrams, diagram_text, format_diagram, parse_orbit
from .errors import EngineError
from .oracle import TABLE_BOUND, run_checks
from .symreps import _table_rows, character_table
from .unipotent import (
    GroupKind,
    GroupSpec,
    OrbitSpec,
    _block_tags,
    _real_params,
    cell_rep,
    coherent_module,
    count_record,
    enumeration_record,
    make_group,
    query_record,
)

CACHE_ENV = "UNIPCOUNT_CACHE_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipcount",
        description="Count and enumerate special unipotent representations "
        "of type A real groups attached to a nilpotent orbit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_group: bool = True) -> None:
        if with_group:
            p.add_argument(
                "--group", required=True, choices=[k.value for k in GroupKind]
            )
            p.add_argument("--n", type=int)
            p.add_argument("--p", type=int)
            p.add_argument("--q", type=int)
            p.add_argument("--orbit", required=True, help="comma-separated row lengths, e.g. 3,1,1")
            p.add_argument("--orbit2", help="second orbit factor for the complex kinds (defaults to --orbit)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if not with_group:  # only the character-table commands read a cache
            p.add_argument("--cache-dir")

    add_common(sub.add_parser("count", help="count the attached special unipotent representations"))
    add_common(sub.add_parser("enumerate", help="list the induced parameters (gl-r and sl-r)"))
    add_common(sub.add_parser("coh", help="coherent continuation decomposition at the orbit's coset"))
    add_common(sub.add_parser("cell", help="cell label tuple attached to the orbit"))

    chart = sub.add_parser("chartable", help="symmetric group character table")
    chart.add_argument("--n", type=int, required=True)
    add_common(chart, with_group=False)

    verify = sub.add_parser("verify", help="run the brute-force cross-validation sweeps")
    verify.add_argument("--max-size", type=int, default=8)
    add_common(verify, with_group=False)

    return parser


def _resolve(parser: argparse.ArgumentParser, args) -> tuple[GroupSpec, OrbitSpec]:
    """The group and orbit of a group command, each orbit parsed once.

    Usage errors in --p/--q come first. Then the group's errors come before
    the orbit's, except for a kind without --n, which takes n from the
    orbit. A stray --orbit2 is reported last.
    """
    kind = GroupKind(args.group)
    family = kind.family
    hermitian = family == "u"
    if hermitian and (args.p is None or args.q is None):
        parser.error(f"--group {kind.value} requires --p and --q")
    if not hermitian and (args.p is not None or args.q is not None):
        parser.error(f"--group {kind.value} takes --n, not --p/--q")
    group = None
    if hermitian or args.n is not None:
        group = make_group(kind, n=args.n, p=args.p, q=args.q)
    first = parse_orbit(args.orbit)
    if group is None:
        group = make_group(kind, n=sum(first))
    if family == "c":
        return group, OrbitSpec(first, first if args.orbit2 is None else parse_orbit(args.orbit2))
    if args.orbit2 is not None:
        parser.error(f"--orbit2 is only meaningful for the complex kinds, not {kind.value}")
    return group, OrbitSpec(first)


def _emit(obj: dict) -> None:
    import json  # imported here: table output, errors and start-up never need it

    print(json.dumps(obj))


def _cmd_count(parser, args) -> int:
    record = count_record(*_resolve(parser, args))
    if args.format == "json":
        _emit(record)
    else:
        print(record["count"])
    return 0


def _cmd_enumerate(parser, args) -> int:
    group, orbit = _resolve(parser, args)
    if args.format == "json":
        _emit(enumeration_record(group, orbit))
        return 0
    params = _real_params(group, orbit)  # checks the query before a row is printed
    # Every row's sizes are the orbit; a block's tags depend only on its sign count.
    sizes = format_diagram(orbit.first)
    tags = [[",".join(tag for _, tag in pairs) for pairs in row] for row in _block_tags(orbit.first)]
    for index, (a, sign) in enumerate(params):
        line = f"{index}  {sizes}  {','.join(map(getitem, tags, a))}"
        print(f"{line}  {sign}" if sign else line)
    return 0


def _cmd_coh(parser, args) -> int:
    group, orbit = _resolve(parser, args)
    module = coherent_module(group, orbit)
    if args.format == "json":
        record = query_record(group, orbit, **module.to_json_obj())
        if module.parts:
            record["parts"] = {name: part.to_json_obj() for name, part in module.parts.items()}
        _emit(record)
        return 0
    print("shape: " + ",".join(str(s) for s in module.shape))
    text = cache(format_diagram)  # each label is rendered once per command
    for key, m in module.entries():
        print(f"{m}  " + " ".join(map(text, key)))
    return 0


def _cmd_cell(parser, args) -> int:
    group, orbit = _resolve(parser, args)
    cell = cell_rep(group, orbit)
    if args.format == "json":
        _emit(query_record(group, orbit, cell=[list(d) for d in cell]))
    else:
        print(" ".join(format_diagram(d) for d in cell))
    return 0


def _cache_dir(args) -> str | None:
    """The table cache directory: --cache-dir, else $UNIPCOUNT_CACHE_DIR."""
    return args.cache_dir or os.environ.get(CACHE_ENV)


def _cmd_chartable(parser, args) -> int:
    table = character_table(args.n, cache_dir=_cache_dir(args))
    classes = all_diagrams(args.n)
    if args.format == "json":
        _emit({"degree": args.n, "classes": [list(mu) for mu in classes], "table": _table_rows(table)})
        return 0
    names = [diagram_text(mu) or "-" for mu in classes]
    # The widest value text in a row is that of its largest or its smallest
    # value, so each value becomes text once, in its own row.
    width = max(
        max(map(len, names)),
        *(len(str(extreme(row))) for row in table.values() for extreme in (max, min)),
    )
    print("  ".join(["label".ljust(width)] + [name.rjust(width) for name in names]))
    for name, row in zip(names, table.values()):
        print("  ".join([name.ljust(width)] + [str(v).rjust(width) for v in row]))
    return 0


def _cmd_verify(parser, args) -> int:
    if args.max_size < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")
    all_diagrams(args.max_size)  # refuses a size run_checks would refuse, before a table is stored
    cache_dir = _cache_dir(args)
    if cache_dir:  # store every table run_checks reads
        for n in range(1, min(args.max_size, TABLE_BOUND) + 1):
            character_table(n, cache_dir=cache_dir)
    checks = run_checks(args.max_size)
    all_passed = all(c["pass"] for c in checks)
    if args.format == "json":
        _emit({"max_size": args.max_size, "checks": checks, "all_passed": all_passed})
        return 0 if all_passed else 1
    by_check: dict[str, list[dict]] = {}
    for c in checks:
        by_check.setdefault(c["check"], []).append(c)
    for name, group in by_check.items():
        failed = [c for c in group if not c["pass"]]
        if failed:
            for c in failed:
                print(
                    f"FAIL {name} {c['instance']}: expected {c['expected']}, got {c['actual']}"
                )
        else:
            print(f"ok {name}: {len(group)} instances")
    if all_passed:
        print("all checks passed")
        return 0
    print(f"{sum(1 for c in checks if not c['pass'])} checks failed")
    return 1


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "coh": _cmd_coh,
    "cell": _cmd_cell,
    "chartable": _cmd_chartable,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:  # the reader left; main stops quietly
        raise
    except (EngineError, OSError) as exc:  # OSError: a cache that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: stdout to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
