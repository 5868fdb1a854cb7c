"""Span tracing of the mlds layers, installed from outside the package.

``instrument(tracer)`` rebinds every module attribute through which mlds code
resolves a layer entry point (for example ``mlds.scheme.gen_a``, which
``keygen``/``sign`` look up at call time, and the ``Ring`` methods) to a
wrapper that records one span per call, and puts the original objects back on
exit. Nothing under ``src/`` is edited; a call that mlds makes through a name
not listed here is attributed to its caller's span.

A span is ``[op, parent, name, start_ns, end_ns]``; its index in
``Tracer.spans`` is its id. Spans stay in memory until ``write_spans``.

The tracer also counts the (m, b) cells the estimator evaluates: it wraps
``mlds.estimator._pick``, which ``primal_cost`` and ``dual_cost`` hand every
cost block they compute, and adds up the blocks' sizes. A change that makes
the estimator evaluate fewer cells moves that count; one that stops calling
``_pick`` must change this counter with it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from collections import defaultdict

import mlds
import mlds.cli
import mlds.codec
import mlds.estimator
import mlds.sampling
import mlds.scheme
from mlds.ring import Ring

#: Public entry points per layer. The span name is ``<layer>.<function>``.
ENTRY_POINTS = {
    "sampling": (mlds.sampling, ("hash_h", "crh", "gen_a", "gen_se", "gen_se_vec")),
    "codec": (mlds.codec, (
        "encode_bits", "decode_bits", "decode_payload", "pack_poly", "unpack_poly",
        "serialize_pk", "parse_pk", "serialize_sk", "parse_sk", "serialize_sig", "parse_sig",
    )),
    "scheme": (mlds.scheme, ("keygen", "sign", "verify", "measure_agreement")),
    "estimator": (mlds.estimator, ("primal_cost", "dual_cost")),
}
RING_METHODS = (
    "ntt", "intt", "vec_ntt", "vec_intt", "add", "sub",
    "pointwise_mul", "matvec", "inner_product",
)
#: Every namespace mlds code resolves those names through.
NAMESPACES = (mlds, mlds.sampling, mlds.codec, mlds.scheme, mlds.estimator, mlds.cli)

OP_LAYER = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.ops = 0
        self.grid_cells = 0

    def count_cells(self, pick):
        @functools.wraps(pick)
        def counted(cost, *args, **kwargs):
            self.grid_cells += cost.size
            return pick(cost, *args, **kwargs)

        return counted

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self._op, stack[-1] if stack else -1, name, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Root span of one workload request; its layer spans share its op id."""
        self._op = self.ops
        self.ops += 1
        rec = [self._op, -1, f"{OP_LAYER}.{kind}", 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1


def _bindings():
    """(owner, attribute, original) for every rebinding ``instrument`` makes."""
    targets = {}
    for layer, (module, names) in ENTRY_POINTS.items():
        for name in names:
            targets[id(getattr(module, name))] = f"{layer}.{name}"
    out = []
    for ns in NAMESPACES:
        for attr, value in vars(ns).items():
            if id(value) in targets:
                out.append((ns, attr, value, targets[id(value)]))
    for name in RING_METHODS:
        out.append((Ring, name, Ring.__dict__[name], f"ring.{name}"))
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every listed entry point through ``tracer`` for the block's duration."""
    bindings = _bindings()
    pick = mlds.estimator._pick
    wrappers = {}
    try:
        for owner, attr, original, name in bindings:
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original)
            setattr(owner, attr, wrappers[id(original)])
        mlds.estimator._pick = tracer.count_cells(pick)
        yield tracer
    finally:
        mlds.estimator._pick = pick
        for owner, attr, original, _ in bindings:
            setattr(owner, attr, original)


# -- summaries ----------------------------------------------------------------

class Summary:
    """Durations, self times and counts of a span list."""

    def __init__(self, spans: list[list]):
        child_ns = defaultdict(int)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.layer_self_ns = defaultdict(int)
        self.op_ns = 0
        for sid, (_, _, name, start, end) in enumerate(spans):
            dur = end - start
            own = dur - child_ns[sid]
            self.durations[name].append(dur)
            self.self_times[name].append(own)
            layer = name.split(".", 1)[0]
            self.layer_self_ns[layer] += own
            if layer == OP_LAYER:
                self.op_ns += dur
        self.span_count = len(spans)

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_us(self, name: str, self_time: bool = False) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values) / 1e3

    def self_share(self, layer: str) -> float:
        """Share of all op time spent in ``layer``'s own code (children excluded)."""
        return self.layer_self_ns.get(layer, 0) / self.op_ns if self.op_ns else 0.0


def write_spans(path, spans: list[list]) -> None:
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[op, parent, index[name], start, end] for op, parent, name, start, end in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"fields": ["op", "parent", "name", "start_ns", "end_ns"],
                   "names": names, "spans": rows}, fh, separators=(",", ":"))
