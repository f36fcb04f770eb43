"""Outside-in layer tracing for chebcone.

The child side (`Tracer`) wraps every public function of the seven
chebcone modules and rebinds the wrapper in every module that holds the
original object, so calls made through `from .tilde_ring import mul`
style imports and through a module's own globals are both seen.  Each
call becomes a span (name, start, end, id, parent); spans stay in memory
and are written once, when the traced process ends.  A few wrappers also
count work from their arguments and results (term and pair operations,
output bytes, coefficient bit lengths).

The parent side (`summarize`) turns one span file into the per-layer
metrics listed in BENCHMARK.json.  A span's self time is its duration
minus the durations of its direct children; the calls are strictly
nested on one thread, so the self times of all spans add up to the
duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time

PACKAGE = "chebcone"
LAYERS = (
    "tilde_ring",
    "multiset_cone",
    "recurrence_engine",
    "laurent_oracle",
    "certifier",
    "suites",
    "cli",
)
SUITES = (
    "lemmas",
    "w-theorem",
    "multiset",
    "cone",
    "shift",
    "positivity",
    "cross",
    "oracle",
)
RAW = ("e0_raw", "e1_raw", "leading_extra_term")
CLOSED = ("e0_closed", "e1_closed")

# Per-layer metric names and units, in the order they are reported.
METRICS = (
    ("tilde_ring.mul.calls", "count"),
    ("tilde_ring.mul.self_s", "s"),
    ("tilde_ring.mul.term_ops", "count"),
    ("tilde_ring.mul.max_out_bits", "bits"),
    ("tilde_ring.fold_L.calls", "count"),
    ("tilde_ring.fold_L.self_s", "s"),
    ("tilde_ring.self_s", "s"),
    ("multiset_cone.msum.calls", "count"),
    ("multiset_cone.msum.self_s", "s"),
    ("multiset_cone.msum.pair_ops", "count"),
    ("multiset_cone.munion.self_s", "s"),
    ("multiset_cone.decompose_cone.calls", "count"),
    ("multiset_cone.decompose_cone.self_s", "s"),
    ("multiset_cone.in_cone.self_s", "s"),
    ("multiset_cone.self_s", "s"),
    ("recurrence_engine.raw.self_s", "s"),
    ("recurrence_engine.raw.cache_hit_ratio", "ratio"),
    ("recurrence_engine.closed.self_s", "s"),
    ("recurrence_engine.check_structure.calls", "count"),
    ("recurrence_engine.max_coeff_bits", "bits"),
    ("recurrence_engine.self_s", "s"),
    ("laurent_oracle.evaluate.calls", "count"),
    ("laurent_oracle.evaluate.self_s", "s"),
    ("laurent_oracle.lmul.calls", "count"),
    ("laurent_oracle.lmul.self_s", "s"),
    ("laurent_oracle.lmul.term_ops", "count"),
    ("laurent_oracle.self_s", "s"),
    ("certifier.certify_positivity.self_s", "s"),
    ("certifier.certify_cone.self_s", "s"),
    ("certifier.document_json.self_s", "s"),
    ("certifier.document_json.bytes", "bytes"),
    ("certifier.self_s", "s"),
    *((f"suites.{name}.wall_s", "s") for name in SUITES),
    ("suites.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.main.wall_s", "s"),
    ("cli.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(METRICS)

# Metrics that count work rather than time it; two traced runs of the
# same input must give identical values.
EXACT = tuple(
    name for name, unit in METRICS if unit in ("count", "bits", "bytes", "ratio")
)


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Wraps the public chebcone functions of one process and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts = {
            "tilde_ring.mul.term_ops": 0,
            "tilde_ring.mul.max_out_bits": 0,
            "multiset_cone.msum.pair_ops": 0,
            "laurent_oracle.lmul.term_ops": 0,
            "certifier.document_json.bytes": 0,
            "recurrence_engine.max_coeff_bits": 0,
        }
        self._stack = [0]
        self._ids = itertools.count(1)
        self._raw_caches: list = []
        self._seen_results: set[int] = set()
        self._fold = None
        self._hooks = self._make_hooks()

    def install(self) -> None:
        """Rebind every public function of every layer to a tracing wrapper."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        holders = [sys.modules[PACKAGE], *modules]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for holder in holders:
            for name, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(holder, name, wrapper)
        tilde_ring, engine = modules[0], modules[2]
        self._fold = tilde_ring.fold_L.__wrapped__
        self._raw_caches = [engine.e0_raw.__wrapped__, engine.e1_raw.__wrapped__]

    def wrap(self, qname: str, fn):
        """Return fn wrapped so that each call records one span named qname."""
        index = len(self.names)
        self.names.append(qname)
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        hook = self._hooks.get(qname)

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, start, end, span_id, parent))
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _make_hooks(self) -> dict:
        counts = self.counts

        def mul(args, result):
            g1, g2 = args
            width = g2.support_size()
            counts["tilde_ring.mul.term_ops"] += sum(
                (i + 1) * width for i, _ in self._fold(g1).items()
            )
            bits = _max_bits(c for _, c in result.items())
            if bits > counts["tilde_ring.mul.max_out_bits"]:
                counts["tilde_ring.mul.max_out_bits"] = bits

        def msum(args, result):
            m1, m2 = args
            counts["multiset_cone.msum.pair_ops"] += m1.support_size() * m2.support_size()

        def lmul(args, result):
            p, q = args
            counts["laurent_oracle.lmul.term_ops"] += len(list(p.items())) * len(list(q.items()))

        def document_json(args, result):
            counts["certifier.document_json.bytes"] += len(result.encode("utf-8"))

        def family(args, result):
            # cached results are the same objects, so each is measured once
            if id(result) in self._seen_results:
                return
            self._seen_results.add(id(result))
            items = result.M.items() if hasattr(result, "M") else result.items()
            bits = _max_bits(c for _, c in items)
            if bits > counts["recurrence_engine.max_coeff_bits"]:
                counts["recurrence_engine.max_coeff_bits"] = bits

        hooks = {
            "tilde_ring.mul": mul,
            "multiset_cone.msum": msum,
            "laurent_oracle.lmul": lmul,
            "certifier.document_json": document_json,
        }
        for name in RAW[:2] + CLOSED:
            hooks[f"recurrence_engine.{name}"] = family
        return hooks

    def dump(self, path: str, run_id: int) -> None:
        hits = sum(f.cache_info().hits for f in self._raw_caches)
        misses = sum(f.cache_info().misses for f in self._raw_caches)
        doc = {
            "run_id": run_id,
            "names": self.names,
            "counts": self.counts,
            "raw_cache": {"hits": hits, "misses": misses},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def summarize(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, from its span file.

    Raises ValueError if the spans do not form one tree under a single
    root, since self times would then not account for the root's time.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_time: dict[int, float] = {}
    for _, start, end, _, parent in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    roots = [s for s in spans if s[4] == 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root_index, root_start, root_end, root_id, _ = roots[0]
    root_wall = root_end - root_start

    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, start, end, span_id, _ in spans:
        name = names[index]
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        wall_s[name] = wall_s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(span_id, 0.0)

    def self_of(layer: str, funcs) -> float:
        return sum(self_s.get(f"{layer}.{f}", 0.0) for f in funcs)

    root_name = names[root_index]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        if name != root_name:
            layer_self[name.split(".", 1)[0]] += value
    unattributed = self_s[root_name]
    accounted = sum(layer_self.values()) + unattributed
    if abs(accounted - root_wall) > 1e-6 * max(1.0, root_wall):
        raise ValueError(f"self times add up to {accounted} s, root span took {root_wall} s")

    cache = doc["raw_cache"]
    lookups = cache["hits"] + cache["misses"]
    out = dict(doc["counts"])
    out.update({
        "tilde_ring.mul.calls": calls.get("tilde_ring.mul", 0),
        "tilde_ring.mul.self_s": self_s.get("tilde_ring.mul", 0.0),
        "tilde_ring.fold_L.calls": calls.get("tilde_ring.fold_L", 0),
        "tilde_ring.fold_L.self_s": self_s.get("tilde_ring.fold_L", 0.0),
        "multiset_cone.msum.calls": calls.get("multiset_cone.msum", 0),
        "multiset_cone.msum.self_s": self_s.get("multiset_cone.msum", 0.0),
        "multiset_cone.munion.self_s": self_s.get("multiset_cone.munion", 0.0),
        "multiset_cone.decompose_cone.calls": calls.get("multiset_cone.decompose_cone", 0),
        "multiset_cone.decompose_cone.self_s": self_s.get("multiset_cone.decompose_cone", 0.0),
        "multiset_cone.in_cone.self_s": self_s.get("multiset_cone.in_cone", 0.0),
        "recurrence_engine.raw.self_s": self_of("recurrence_engine", RAW),
        "recurrence_engine.raw.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "recurrence_engine.closed.self_s": self_of("recurrence_engine", CLOSED),
        "recurrence_engine.check_structure.calls": calls.get("recurrence_engine.check_structure", 0),
        "laurent_oracle.evaluate.calls": calls.get("laurent_oracle.evaluate", 0),
        "laurent_oracle.evaluate.self_s": self_s.get("laurent_oracle.evaluate", 0.0),
        "laurent_oracle.lmul.calls": calls.get("laurent_oracle.lmul", 0),
        "laurent_oracle.lmul.self_s": self_s.get("laurent_oracle.lmul", 0.0),
        "certifier.certify_positivity.self_s": self_s.get("certifier.certify_positivity", 0.0),
        "certifier.certify_cone.self_s": self_s.get("certifier.certify_cone", 0.0),
        "certifier.document_json.self_s": self_s.get("certifier.document_json", 0.0),
        "cli.main.wall_s": root_wall,
        "cli.unattributed_s": unattributed,
        "trace.spans": len(spans),
    })
    for suite in SUITES:
        func = "suites.suite_" + suite.replace("-", "_")
        out[f"suites.{suite}.wall_s"] = wall_s.get(func, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
