"""Span tracing from outside the engine.

``install`` replaces every public function of the ``unipcount`` layer modules,
in every module namespace that holds a reference to it, with a wrapper that
records a span: id, parent id, request id, name, start and end. Calls between
layers go through the caller's namespace (``from .diagrams import ...``), so
wrapping each namespace sees them. A few ``ModuleDecomp`` and
``ClassFunction`` methods and the two chartable disk-cache helpers are wrapped
as well, because the layer metrics need them.

Spans stay in memory (up to ``SPAN_CAP``; the calls beyond it are still
counted and timed) and are written out when the traced work ends. Self time
is a span's duration minus that of its child spans, accumulated per name as
calls end.
"""

import functools
import json
import os
import time
from collections import Counter

LAYERS = ("diagrams", "symreps", "weylmodules", "unipotent", "oracle", "cli")
SPAN_CAP = 50_000
CACHED = (
    "diagrams.all_diagrams",
    "symreps.irrep_dimension",
    "symreps.centralizer_order",
    "weylmodules.sign_induction_module",
    "weylmodules.block_matchings_first",
    "weylmodules.block_matchings_second",
    "weylmodules.matchings_module",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [child_s, span_id] per open call
        self.next_id = 0
        self.request = None
        self.cached: dict = {}

    def wrap(self, name: str, fn, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self.request, name, start, end))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        """Raw per-name statistics, counters and cache_info, ready to merge."""
        return {
            "stats": {name: list(v) for name, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "cache": {
                name: [fn.cache_info().hits, fn.cache_info().misses]
                for name, fn in self.cached.items()
            },
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(
                {"dropped": max(0, self.next_id - len(self.spans)), "spans": self.spans}, out
            )


def _is_traceable(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
    )


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the layer functions of `modules` (layer name -> module object)."""
    home: dict[int, tuple[str, object]] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and _is_traceable(obj, mod.__name__):
                home[id(obj)] = (f"{layer}.{name}", obj)
    for name in CACHED:
        layer, attr = name.split(".")
        tracer.cached[name] = getattr(modules[layer], attr)

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in home:
                setattr(mod, attr, tracer.wrap(*home[id(obj)]))

    symreps, weyl = modules["symreps"], modules["weylmodules"]
    counters = tracer.counters

    def loaded(args, table):
        counters["chartable_hits" if table is not None else "chartable_misses"] += 1

    def stored(args, _):
        n, _table, cache_dir = args
        counters["chartable_bytes_written"] += os.path.getsize(symreps._table_path(n, cache_dir))

    symreps._load_table = tracer.wrap("symreps._load_table", symreps._load_table, loaded)
    symreps._store_table = tracer.wrap("symreps._store_table", symreps._store_table, stored)

    def built(args, _):
        counters["modules_built"] += 1
        counters["entries_built"] += len(args[0].mults)

    cls = weyl.ModuleDecomp
    cls.__init__ = tracer.wrap("weylmodules.ModuleDecomp.__init__", cls.__init__, built)
    for method in ("__add__", "tensor", "multiplicity", "dimension", "entries", "to_json_obj"):
        setattr(cls, method, tracer.wrap(f"weylmodules.ModuleDecomp.{method}", getattr(cls, method)))
    cls.from_json_obj = classmethod(
        tracer.wrap("weylmodules.ModuleDecomp.from_json_obj", cls.__dict__["from_json_obj"].__func__)
    )
    cf = symreps.ClassFunction
    cf.__post_init__ = tracer.wrap("symreps.ClassFunction.__post_init__", cf.__post_init__)


def merge(raws: list[dict]) -> dict:
    """Sum raw snapshots (one per process of a battery)."""
    out = {"stats": {}, "counters": Counter(), "cache": {}}
    for raw in raws:
        for name, (calls, total, own) in raw["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        out["counters"].update(raw["counters"])
        for name, (hits, misses) in raw["cache"].items():
            acc = out["cache"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics of one battery, from its merged snapshot."""
    stats, counters, cache = raw["stats"], raw["counters"], raw["cache"]

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def self_ms(*names):
        return 1000 * sum(stats.get(n, (0, 0, 0))[2] for n in names)

    def total_ms(name):
        return 1000 * stats.get(name, (0, 0, 0))[1]

    def layer(prefix):
        return [n for n in stats if n.startswith(prefix + ".")]

    def hit_ratio(*names):
        hits = sum(cache.get(n, (0, 0))[0] for n in names)
        total = hits + sum(cache.get(n, (0, 0))[1] for n in names)
        return hits / total if total else 0.0

    entries = counters.get("entries_built", 0)
    oracle = ("induced_character", "decompose", "orthogonality_check")
    return {
        "diagrams.check_diagram.calls": calls("diagrams.check_diagram"),
        "diagrams.self_ms": self_ms(*layer("diagrams")),
        "diagrams.all_diagrams.hit_ratio": hit_ratio("diagrams.all_diagrams"),
        "symreps.induce_outer.calls": calls("symreps.induce_outer"),
        "symreps.induce_outer.self_ms": self_ms("symreps.induce_outer"),
        "symreps.inner_product.self_ms": self_ms("symreps.inner_product"),
        "symreps.character_table.self_ms": self_ms("symreps.character_table"),
        "symreps.irrep_dimension.hit_ratio": hit_ratio("symreps.irrep_dimension"),
        "symreps.centralizer_order.hit_ratio": hit_ratio("symreps.centralizer_order"),
        "symreps.chartable_cache.hits": counters.get("chartable_hits", 0),
        "symreps.chartable_cache.misses": counters.get("chartable_misses", 0),
        "symreps.chartable_cache.store_ms": total_ms("symreps._store_table"),
        "symreps.chartable_cache.load_ms": total_ms("symreps._load_table"),
        "symreps.chartable_cache.bytes_written": counters.get("chartable_bytes_written", 0),
        "weylmodules.modules_built": counters.get("modules_built", 0),
        "weylmodules.entries_built": entries,
        "weylmodules.self_ms": self_ms(*layer("weylmodules")),
        "weylmodules.lookup_ratio": (
            calls("weylmodules.ModuleDecomp.multiplicity") / entries if entries else 0.0
        ),
        "weylmodules.sign_induction_module.hit_ratio": hit_ratio("weylmodules.sign_induction_module"),
        "weylmodules.block_matchings.hit_ratio": hit_ratio(
            "weylmodules.block_matchings_first", "weylmodules.block_matchings_second"
        ),
        "weylmodules.matchings_module.hit_ratio": hit_ratio("weylmodules.matchings_module"),
        "weylmodules.coh.self_ms": self_ms(
            "weylmodules.coh_su", "weylmodules.coh_u_cover",
            "weylmodules.coh_gl_complex", "weylmodules.coh_sl_complex",
        ),
        "weylmodules.json.self_ms": self_ms(
            "weylmodules.ModuleDecomp.to_json_obj", "weylmodules.ModuleDecomp.from_json_obj"
        ),
        "unipotent.count_unipotent.self_ms": self_ms("unipotent.count_unipotent"),
        "unipotent.enumerate.self_ms": self_ms(
            "unipotent.gl_r_params", "unipotent.sl_r_enumerate", "unipotent.split_by_twist"
        ),
        "unipotent.calls": calls(*layer("unipotent")),
        **{f"oracle.{name}.self_ms": self_ms(f"oracle.{name}") for name in oracle},
        "oracle.calls": calls(*layer("oracle")),
    }
