"""Workload batteries: the seeded inputs of each workload, the operation each
input runs, and the answer checks.

The checks never go through the code path being timed. They use closed forms
(criterion 1's su = u-tilde equality, the gl-r and sl-r parameter counts, the
complex-kind singleton/empty rule, the gl-c regular dimension), round trips,
and the answers that record_golden.py stored in ``golden.json``.

Orbits are generated here rather than with ``unipcount.diagrams`` so that
building a battery neither warms the engine's caches nor shares its code.
"""

import hashlib
import json
import random
from collections import Counter
from math import factorial, prod
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Battery sizes. "full" is what the benchmark measures; "tiny" exists for the
# smoke test (bench/smoke.py) and is recorded in golden.json as well.
SIZES = {
    "full": {"count-sweep": 12, "coh-modules": 12, "verify-sweep": 6, "cli-oneshot": 6},
    "tiny": {"count-sweep": 5, "coh-modules": 6, "verify-sweep": 4, "cli-oneshot": 3},
}
# cli-oneshot extras: the degree of the chartable miss/hit pair and the
# verify size, per scale.
CLI_CHARTABLE_N = {"full": 14, "tiny": 6}
CLI_VERIFY_SIZE = {"full": 4, "tiny": 3}

HERMITIAN = ("su", "u-tilde")
COMPLEX = ("gl-c", "sl-c")

# Commands that must fail with a domain error (exit 1). Each battery samples
# two of them.
CLI_DOMAIN_ERRORS = (
    ("count", "--group", "gl-h", "--orbit", "2,2"),
    ("count", "--group", "su", "--p", "2", "--q", "2", "--orbit", "3,2"),
    ("count", "--group", "sl-r", "--orbit", "1"),
    ("count", "--group", "gl-r", "--orbit", "2,0"),
    ("enumerate", "--group", "gl-c", "--orbit", "2,1"),
    ("coh", "--group", "gl-r", "--orbit", "2,1"),
    ("cell", "--group", "sl-r", "--orbit", "2,2"),
)
CACHE_TOKEN = "{cache}"


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples, in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def text(d: tuple[int, ...]) -> str:
    return ",".join(map(str, d))


def short_hash(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def digest(pairs) -> str:
    """Order-independent digest of (key, answer) pairs."""
    lines = sorted(f"{key}\t{answer}" for key, answer in pairs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def battery_rng(workload: str, seed: int) -> random.Random:
    """Sampling and order of a battery. Every battery of a run repeats the
    same operations in the same order, each in a fresh interpreter."""
    return random.Random(f"{workload}/{seed}")


# --- count-sweep ---------------------------------------------------------

def count_key(op) -> str:
    kind, p, q, first, second = op
    if kind in HERMITIAN:
        return f"{kind} {p} {q} {text(first)}"
    if kind in COMPLEX:
        return f"{kind} {text(first)} {text(second)}"
    return f"{kind} {text(first)}"


def count_population(n: int):
    """Every count query of the sweep except the sampled unequal pairs."""
    for orbit in partitions(n):
        for p in range(n + 1):
            for kind in HERMITIAN:
                yield (kind, p, n - p, orbit, None)
        yield ("gl-r", None, None, orbit, None)
        yield ("sl-r", None, None, orbit, None)
        for kind in COMPLEX:
            yield (kind, None, None, orbit, orbit)


def count_ops(n: int, rng: random.Random) -> list:
    ops = list(count_population(n))
    orbits = list(partitions(n))
    if len(orbits) > 1:
        for orbit in orbits:
            for kind in COMPLEX:
                other = rng.choice([o for o in orbits if o != orbit])
                ops.append((kind, None, None, orbit, other))
    rng.shuffle(ops)
    return ops


def run_count(mods, op) -> int:
    kind, p, q, first, second = op
    unipotent = mods["unipotent"]
    if kind in HERMITIAN:
        group = unipotent.make_group(kind, p=p, q=q)
    else:
        group = unipotent.make_group(kind, n=sum(first))
    return unipotent.count_unipotent(group, unipotent.OrbitSpec(first, second))


def _identity(op) -> int | None:
    """The closed-form count, where the kind has one."""
    kind, _, _, first, second = op
    if kind in COMPLEX:
        return int(first == second)
    if kind in HERMITIAN:
        return None
    mults = list(Counter(first).values())
    total = prod(m + 1 for m in mults)
    if kind == "gl-r":
        return total
    return (total + 3 * all(m % 2 == 0 for m in mults)) // 2


def check_counts(ops, answers, golden: dict) -> list[tuple[str, str]]:
    """Failures among count answers, one message per wrong operation.

    Unequal complex pairs are sampled from a population too large to record,
    so only their closed form (0) checks them.
    """
    bad = []
    by_key = {}
    for op, answer in zip(ops, answers):
        key = count_key(op)
        by_key[key] = answer
        expected = _identity(op)
        if expected is not None and answer != expected:
            bad.append((key, f"{key}: got {answer}, closed form {expected}"))
        elif not (op[0] in COMPLEX and op[3] != op[4]) and golden.get(key) != answer:
            bad.append((key, f"{key}: got {answer}, recorded {golden.get(key)}"))
    for key, answer in by_key.items():
        if key.startswith("su "):
            cover = by_key.get("u-tilde" + key[2:])
            if cover is not None and cover != answer:
                bad.append((key, f"criterion 1 at {key}: su {answer} != u-tilde {cover}"))
    return bad


# --- coh-modules ---------------------------------------------------------

def coh_key(op) -> str:
    name, p, q, sig = op
    if p is None:
        return f"{name} {sig[0]} {sig[1]}"
    return f"{name} {p} {q} {sig[0]} {sig[1]}"


def coh_ops(n: int, rng: random.Random) -> list:
    ops = []
    for n_h in range(0, n + 1, 2):
        sig = (n_h, n - n_h)
        ops.append(("coh_gl_complex", None, None, sig))
        ops.append(("coh_sl_complex", None, None, sig))
        for p in range(n + 1):
            ops.append(("coh_su", p, n - p, sig))
            ops.append(("coh_u_cover", p, n - p, sig))
    rng.shuffle(ops)
    return ops


def run_coh(mods, op):
    """Build the module, write canonical JSON and read it back."""
    name, p, q, sig = op
    weyl = mods["weylmodules"]
    sig = mods["diagrams"].CosetSignature(*sig)
    fn = getattr(weyl, name)
    module = fn(sig) if p is None else fn(p, q, sig)
    body = json.dumps(module.to_json_obj(), sort_keys=True)
    return module, body, weyl.ModuleDecomp.from_json_obj(json.loads(body))


def keep_coh(op, result):
    """What check_coh needs of one result: the JSON digest, whether the round
    trip gave an equal module (a plain dict comparison, which warms no cache),
    and the module itself only where its dimension is checked afterwards."""
    module, body, back = result
    return short_hash(body), back == module, module if op[0] == "coh_gl_complex" else None


def coh_answer(kept) -> str:
    return kept[0]


def check_coh(ops, kept, golden: dict) -> list[tuple[str, str]]:
    bad = []
    for op, (answer, round_trip, module) in zip(ops, kept):
        key = coh_key(op)
        if not round_trip:
            bad.append((key, f"{key}: JSON read back to a different module"))
        if module is not None:
            n_h, n_0 = op[3]
            if module.dimension() != factorial(n_h) * factorial(n_0):
                bad.append((key, f"{key}: dimension {module.dimension()} != n_h! n_0!"))
        if golden.get(key) != answer:
            bad.append((key, f"{key}: JSON digest {answer}, recorded {golden.get(key)}"))
    return bad


# --- verify-sweep --------------------------------------------------------

def verify_ops(max_size: int, rng: random.Random) -> list:
    """Sizes 1..max_size in ascending order, whatever the seed: the sizes share
    character tables and LR coefficients, so a shuffled order would make the
    seed decide which size pays for them."""
    return list(range(1, max_size + 1))


def verify_key(size: int) -> str:
    return f"run_checks {size}"


def run_verify(mods, size: int) -> list:
    return mods["oracle"].run_checks(size)


def verify_answer(report) -> str:
    return short_hash(json.dumps(report, sort_keys=True))


def check_verify(ops, reports, golden: dict) -> list[tuple[str, str]]:
    bad = []
    for size, report in zip(ops, reports):
        key = verify_key(size)
        failed = [c for c in report if not c["pass"]]
        if failed:
            bad.append((key, f"{key}: {len(failed)} checks failed, first {failed[0]}"))
        elif golden.get(key) != verify_answer(report):
            bad.append((key, f"{key}: report digest {verify_answer(report)}, recorded {golden.get(key)}"))
    return bad


# --- cli-oneshot ---------------------------------------------------------

def cli_templates(n: int) -> list[tuple[str, list[tuple[str, ...]]]]:
    """(template name, candidate argv list) for every query template of size n.

    Every candidate exits 0.
    """
    orbits = [text(o) for o in partitions(n)]
    herm = [(str(p), str(n - p), o) for o in orbits for p in range(n + 1)]
    pairs = [(a, b) for a in orbits for b in orbits if a != b]

    def hermitian(command, kind, *extra):
        return [(command, "--group", kind, "--p", p, "--q", q, "--orbit", o, *extra) for p, q, o in herm]

    def single(command, kind, *extra):
        return [(command, "--group", kind, "--orbit", o, *extra) for o in orbits]

    return [
        ("count-su", hermitian("count", "su")),
        ("count-u-tilde-json", hermitian("count", "u-tilde", "--format", "json")),
        ("count-gl-r", single("count", "gl-r")),
        ("count-sl-r-json", single("count", "sl-r", "--format", "json")),
        ("count-gl-c", single("count", "gl-c")),
        ("count-sl-c-unequal", [("count", "--group", "sl-c", "--orbit", a, "--orbit2", b) for a, b in pairs]),
        ("cell-su", hermitian("cell", "su")),
        ("cell-sl-c-json", single("cell", "sl-c", "--format", "json")),
        ("enumerate-gl-r", single("enumerate", "gl-r")),
        ("enumerate-sl-r-json", single("enumerate", "sl-r", "--format", "json")),
        ("coh-su-json", hermitian("coh", "su", "--format", "json")),
        ("coh-u-tilde", hermitian("coh", "u-tilde")),
        ("coh-gl-c", single("coh", "gl-c")),
        ("coh-sl-c-json", single("coh", "sl-c", "--format", "json")),
    ]


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_fixed(scale: str) -> list[tuple[str, tuple[str, ...], int]]:
    """The unsampled commands: (role, argv, expected exit code)."""
    verify = str(CLI_VERIFY_SIZE[scale])
    chartable = ("chartable", "--n", str(CLI_CHARTABLE_N[scale]), "--cache-dir", CACHE_TOKEN)
    return [
        ("verify", ("verify", "--max-size", verify), 0),
        ("verify-store", ("verify", "--max-size", verify, "--cache-dir", CACHE_TOKEN), 0),
        ("chartable-miss", chartable, 0),
        ("chartable-hit", chartable, 0),
    ]


def cli_ops(scale: str, rng: random.Random) -> list[tuple[str, tuple[str, ...], int]]:
    """Three sampled commands per template, two domain errors, and the fixed
    commands; the chartable hit always runs after its miss."""
    n = SIZES[scale]["cli-oneshot"]
    ops = [
        (name, argv, 0)
        for name, candidates in cli_templates(n)
        for argv in rng.sample(candidates, min(3, len(candidates)))
    ]
    ops += [("domain-error", argv, 1) for argv in rng.sample(CLI_DOMAIN_ERRORS, 2)]
    fixed = cli_fixed(scale)
    ops += fixed[:2]
    rng.shuffle(ops)
    miss = rng.randrange(len(ops) + 1)
    ops.insert(miss, fixed[2])
    ops.insert(rng.randrange(miss + 1, len(ops) + 1), fixed[3])
    return ops


def cli_answer(exit_code: int, stdout: bytes) -> str:
    return f"{exit_code} {short_hash(stdout)}"


def keep_all(op, result):
    return result


# The in-process workloads: (make the operations, run one, keep what the checks
# need of its result, key of an operation, answer of a kept result, check the
# kept results).
IN_PROCESS = {
    "count-sweep": (count_ops, run_count, keep_all, count_key, lambda answer: answer, check_counts),
    "coh-modules": (coh_ops, run_coh, keep_coh, coh_key, coh_answer, check_coh),
    "verify-sweep": (verify_ops, run_verify, keep_all, verify_key, verify_answer, check_verify),
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
