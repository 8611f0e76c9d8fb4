"""Span and counter tracing of the tidd library, applied from outside it.

`Tracer` replaces the public functions of the ``tidd.*`` modules with
wrappers for the duration of a ``with`` block and restores the originals on
exit.  A function imported by name into several modules (``apply`` lives in
``ops`` and is bound again in ``bench``, ``builders``, ``linalg`` and
``oracle``) is replaced at every binding that holds it; a binding that was
missed shows up as a mismatch in `Tracer.self_check`.

Each wrapped call is a span with a name, a start, an end and the span that
was open when it started.  Self time is a span's duration minus the time its
child spans cover; a span wrapper's own bookkeeping is charged to neither.
Ring values are counted, not spanned: `Value` construction and arithmetic
run millions of times, so they feed aggregate counters and one outermost
timer.  That value time, with the counters' cost, lies inside the self time
of the span that called them, as does the observer of the product stacks
that ``linalg`` hands to ``canonical_tidd``.

Span records are kept in memory up to ``MAX_RECORDS`` (parents are recorded
before their children, so a truncated record list is still a closed tree);
the per-name aggregates cover every call.
"""

from __future__ import annotations

import sys
from time import perf_counter

from tidd import analysis, bench, builders, core, linalg, ops, oracle
from tidd.core import Manager
from tidd.values import Value


def _mgr_of_tidd(args):
    return args[1].manager  # apply(op, f, g)


def _mgr_of_layer_or_tidd(args):
    return args[0].manager  # pair_product(a, b), kronecker(a, b)


def _mgr_of_matrix(args):
    return args[0].t.manager  # matmul(a, b)


def _mgr_of_self(args):
    return args[0]  # Manager.intern_layer(self, ...)


# span name -> (owner, attribute, cache dict on the Manager, manager getter).
# A call "hits" when it leaves that cache the size it found it.
SPANS = {
    "bench.run_benchmark": (bench, "run_benchmark", None, None),
    "bench.gate_matrix": (bench, "gate_matrix", None, None),
    "bench.measure_distribution": (bench, "measure_distribution", None, None),
    "builders.constant": (builders, "constant", None, None),
    "builders.projection": (builders, "projection", None, None),
    "builders.negation": (builders, "negation", None, None),
    "builders.from_truth_table": (builders, "from_truth_table", None, None),
    "builders.equality_relation": (builders, "equality_relation", None, None),
    "ops.apply": (ops, "apply", "apply_cache", _mgr_of_tidd),
    "ops.kronecker": (ops, "kronecker", "kron_cache", _mgr_of_layer_or_tidd),
    "ops.pair_product": (ops, "pair_product", "pair_cache", _mgr_of_layer_or_tidd),
    "ops.reduce_stack": (ops, "reduce_stack", None, None),
    "linalg.matmul": (linalg, "matmul", "matmul_cache", _mgr_of_matrix),
    "core.intern_layer": (Manager, "intern_layer", "_layers", _mgr_of_self),
    "core.size_metrics": (core, "size_metrics", None, None),
    "analysis.sample": (analysis, "sample", None, None),
    "analysis.path_counts": (analysis, "layer_path_counts", None, None),
    "oracle.run_equivalence_suite": (oracle, "run_equivalence_suite", None, None),
    "oracle.dense_function": (oracle, "dense_function", None, None),
    "oracle.dense_constant": (oracle, "dense_constant", None, None),
    "oracle.dense_projection": (oracle, "dense_projection", None, None),
    "oracle.dense_from_tidd": (oracle, "dense_from_tidd", None, None),
    "oracle.dense_apply": (oracle, "dense_apply", None, None),
    "oracle.exhaustive_equiv": (oracle, "exhaustive_equiv", None, None),
}

MAX_RECORDS = 20000

# counter name -> Value attribute
VALUE_COUNTERS = {
    "values.constructed": "__post_init__",
    "values.add": "__add__",
    "values.mul": "__mul__",
    "values.scale_int": "scale_int",
}

# Manager.stats keys that count the calls of each span.
STATS_KEYS = {
    "ops.apply": "apply",
    "ops.pair_product": "pair_product",
    "linalg.matmul": "matmul",
}


def _stack_states(top) -> tuple[int, int]:
    """(total states, widest layer) of a layer stack."""
    counts = [layer.num_states for layer in top.stack()]
    return sum(counts), max(counts)


class SpanStats:
    __slots__ = ("calls", "hits", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.hits = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installed for the body of each ``with tracer:`` block; figures accumulate."""

    def __init__(self) -> None:
        self.spans = {name: SpanStats() for name in SPANS}
        self.counts = dict.fromkeys(VALUE_COUNTERS, 0)
        self.records: list[list] = []  # [id, parent id or None, name, start, end]
        self.reduce_in_states = 0
        self.reduce_out_states = 0
        self.product_states = 0
        self.product_width_max = 0
        self._stack: list[list] = []  # open spans: [child seconds, id]
        self._next_id = 0
        self._value_state = [0, 0.0]  # [inside a Value method, seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tidd" or name.startswith("tidd.")]
        for name, (owner, attr, cache, manager_of) in SPANS.items():
            original = getattr(owner, attr)
            observe = self._observe_reduce if name == "ops.reduce_stack" else None
            wrapper = self._span(name, original, cache, manager_of, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_bindings(modules, original, wrapper)
        # the unreduced product stack linalg hands to canonical_tidd
        self._patch(linalg, "canonical_tidd", self._observe_product(linalg.canonical_tidd))
        for name, attr in VALUE_COUNTERS.items():
            self._patch(Value, attr, self._count(name, getattr(Value, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_bindings(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, cache, manager_of, observe):
        stats = self.spans[name]
        stack = self._stack
        records = self.records

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            table = getattr(manager_of(args), cache) if cache else None
            before = len(table) if cache else 0
            ident = self._next_id
            self._next_id = ident + 1
            record = None
            if len(records) < MAX_RECORDS:
                parent = stack[-1][1] if stack else None
                record = [ident, parent, name, 0.0, 0.0]
                records.append(record)
            frame = [0.0, ident]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if record is not None:
                    record[3], record[4] = start, end
            duration = end - start
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - frame[0]
            if cache and len(table) == before:
                stats.hits += 1
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][0] += perf_counter() - entered
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        state = self._value_state

        def wrapper(*args):
            counts[name] += 1
            if state[0]:
                return fn(*args)
            state[0] = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                state[1] += perf_counter() - start
                state[0] = 0

        return wrapper

    def _observe_reduce(self, args, result) -> None:
        self.reduce_in_states += _stack_states(args[0])[0]
        self.reduce_out_states += _stack_states(result[0])[0]

    def _observe_product(self, fn):
        def wrapper(top, raw_values):
            states, width = _stack_states(top)
            self.product_states += states
            self.product_width_max = max(self.product_width_max, width)
            return fn(top, raw_values)

        return wrapper

    # -- results ------------------------------------------------------------

    @property
    def value_seconds(self) -> float:
        return self._value_state[1]

    def self_check(self, managers) -> list[str]:
        """Compare traced call and hit counts with the managers' own stats.

        Every call of the listed spans must have gone through a wrapper, so
        the traced count equals hits plus misses summed over ``managers``.
        Returns one message per disagreement.
        """
        problems = []
        for name, key in STATS_KEYS.items():
            hits = sum(m.stats[f"{key}_hits"] for m in managers)
            misses = sum(m.stats[f"{key}_misses"] for m in managers)
            traced = self.spans[name]
            if traced.calls != hits + misses:
                problems.append(f"{name}: traced {traced.calls} calls, stats {hits}+{misses}")
            elif traced.hits != hits:
                problems.append(f"{name}: traced {traced.hits} hits, stats {hits}")
        return problems
