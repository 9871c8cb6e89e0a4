"""Spans around the calls into each axbdd layer, recorded from the benchmark.

While a :class:`Tracer` is entered it rebinds the public functions of the
layer modules, and the public methods of ``BddManager``, to wrappers that
time every call.  Every module-level reference to a wrapped function is
rebound, the dispatch tables in ``metrics`` included, so calls that one
layer makes into another are seen as well.  Leaving the tracer puts the
originals back, so untraced code runs the program exactly as shipped.

A span's self time is its duration minus the time of the spans it caused.
Manager methods are counted at the outermost call only: ``sat_prob``
calling ``sat_count`` is one count call.  Node counts are read with
``nodes_created()`` before and after a call, never reset.
"""

from __future__ import annotations

import gc
import sys
import time


class TraceError(RuntimeError):
    """A wrapped function that the workload must reach never ran."""


def _first_arg(args):
    return args[0] if args else None


def _word_manager(args):
    return getattr(args[0], "manager", None) if args else None


# span name -> (module, attribute, how to find the manager of the call)
FUNCTIONS = {
    "circuit.parse": ("circuit", "parse", None),
    "circuit.oracle": ("circuit", "oracle_metrics", None),
    "adders.mutate": ("adders", "mutate", None),
    "bitvec.compile": ("bitvec", "compile_circuit", _first_arg),
    "bitvec.subtract": ("bitvec", "subtract", _word_manager),
    "bitvec.add": ("bitvec", "add", _word_manager),
    "metrics.wce.baseline": ("metrics", "wce_baseline", _word_manager),
    "metrics.wce.ones": ("metrics", "wce_ones", _word_manager),
    "metrics.wce.noabs": ("metrics", "wce_noabs", _word_manager),
    "metrics.mae.baseline": ("metrics", "mae_baseline", _word_manager),
    "metrics.mae.ones": ("metrics", "mae_ones", _word_manager),
    "metrics.mae.noabs": ("metrics", "mae_noabs", _word_manager),
    "metrics.ep": ("metrics", "error_rate", _word_manager),
    "search": ("search", "run_search", None),
}

# span name -> public BddManager methods counted under it
METHODS = {
    "bdd.apply": ("apply",),
    "bdd.not": ("not_",),
    "bdd.count": ("sat_count", "sat_prob", "sat_count_and", "sat_count_andnot"),
}

SPANS = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    """Per-span totals: calls, inclusive ns, self ns, nodes created.

    Also counts managers constructed and, through ``gc.callbacks``, the
    collections the interpreter ran and the time they took.
    """

    def __init__(self, package):
        self._package = package
        self.stats = {name: [0, 0, 0, 0] for name in SPANS}
        self.managers = 0
        self.gc_collections = 0
        self.gc_ns = 0
        self._stack: list[int] = []
        self._in_bdd = False
        self._gc_start = 0
        self._undo: list[tuple[object, object, object, bool]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        modules = [
            m
            for name, m in sys.modules.items()
            if name == self._package.__name__
            or name.startswith(self._package.__name__ + ".")
        ]
        for span, (module, attr, manager_of) in FUNCTIONS.items():
            original = getattr(getattr(self._package, module), attr)
            wrapper = self._wrap(span, original, manager_of)
            for m in modules:
                self._rebind(vars(m), original, wrapper)
        manager_cls = self._package.bdd.BddManager
        for span, names in METHODS.items():
            for name in names:
                original = manager_cls.__dict__[name]
                self._set_attr(manager_cls, name, self._wrap_method(span, original))
        self._set_attr(manager_cls, "__init__", self._wrap_init(manager_cls.__init__))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for container, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()
        return False

    def _rebind(self, namespace: dict, original, wrapper) -> None:
        for key, value in list(namespace.items()):
            if value is original:
                self._undo.append((namespace, key, original, False))
                namespace[key] = wrapper
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        self._undo.append((value, k, original, False))
                        value[k] = wrapper

    def _set_attr(self, obj, name, wrapper) -> None:
        self._undo.append((obj, name, getattr(obj, name), True))
        setattr(obj, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, span, fn, manager_of):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            manager = manager_of(args) if manager_of is not None else None
            before = manager.nodes_created() if manager is not None else 0
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if manager is not None:
                    stats[3] += manager.nodes_created() - before

        return traced

    def _wrap_method(self, span, fn):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(manager, *args, **kwargs):
            if tracer._in_bdd:
                return fn(manager, *args, **kwargs)
            tracer._in_bdd = True
            before = manager.nodes_created()
            start = clock()
            try:
                return fn(manager, *args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._in_bdd = False
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed
                stats[3] += manager.nodes_created() - before

        return traced

    def _wrap_init(self, fn):
        tracer = self

        def traced(manager, *args, **kwargs):
            tracer.managers += 1
            return fn(manager, *args, **kwargs)

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    # -- results -----------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.stats[span][0]

    def ms(self, span: str) -> float:
        return self.stats[span][1] / 1e6

    def self_ms(self, span: str) -> float:
        return self.stats[span][2] / 1e6

    def nodes(self, span: str) -> int:
        return self.stats[span][3]

    def require(self, spans) -> None:
        """Fail loudly when a span the workload must reach never fired."""
        silent = [
            s
            for s in spans
            if (self.managers if s == "bdd.managers" else self.stats[s][0]) == 0
        ]
        if silent:
            raise TraceError(
                "traced run never reached: " + ", ".join(sorted(silent))
            )
