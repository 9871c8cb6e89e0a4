"""Hash-consed reduced ordered binary decision diagrams.

A :class:`BddManager` owns a shared node store over a fixed variable
order and hands out :class:`NodeRef` handles.  Structurally identical
functions always map to the identical live handle, so equivalence
checking is pointer comparison, satisfiability is a terminal test, and
model counting is one linear pass over the DAG.

Nodes are plain integers inside the manager; a handle is made only when
the API returns a node, and is interned in a weak table.  A handle
keeps its manager alive, but a manager does not keep its handles alive,
so there is no reference cycle: a manager is freed by reference
counting as soon as its last handle and its last other owner are gone.

Each node is kept once, as the ``(level, low, high)`` tuple that also
keys it in the unique table.  The store is append-only, so the number
of nodes created since any point (terminals excluded) is read off its
length; callers use that to attribute node construction to phases of a
larger computation.

Operations and model counts recurse once per variable level.  Where
that would pass Python's recursion limit, the public entry point raises
:class:`BddError` instead; the limit itself is left alone.
"""

from __future__ import annotations

import functools
import sys
import weakref
from fractions import Fraction


class BddError(Exception):
    """Misuse of a manager or node handle (foreign node, bad index, ...)."""


# Binary operation codes.  The six classic gate operations are
# commutative and cache on (op, min, max); the fused and-not (the
# ``diff`` operator of the usual BDD libraries, here so callers never
# have to materialize a complement copy) caches on (op, a, b) as is.
_AND, _OR, _XOR, _NAND, _NOR, _XNOR, _ANDNOT = range(7)

_OP_CODES = {
    "and": _AND,
    "or": _OR,
    "xor": _XOR,
    "nand": _NAND,
    "nor": _NOR,
    "xnor": _XNOR,
    "andnot": _ANDNOT,
}

_COMMUTATIVE = frozenset({_AND, _OR, _XOR, _NAND, _NOR, _XNOR})

# Truth tables indexed by 2*a + b.
_TABLES = {
    _AND: (0, 0, 0, 1),
    _OR: (0, 1, 1, 1),
    _XOR: (0, 1, 1, 0),
    _NAND: (1, 1, 1, 0),
    _NOR: (1, 0, 0, 0),
    _XNOR: (1, 0, 0, 1),
    _ANDNOT: (0, 0, 1, 0),
}

# When one operand is a terminal (or both operands coincide) the
# operation degenerates to a unary function of the other operand.
_U_CONST0, _U_CONST1, _U_SAME, _U_NEG = range(4)


def _unary_kind(when0: int, when1: int) -> int:
    if when0 == when1:
        return _U_CONST1 if when0 else _U_CONST0
    return _U_SAME if when1 else _U_NEG


# _LEFT[op][v] is the unary residual of op(v, x) for terminal v,
# _RIGHT[op][v] that of op(x, v); _DIAG[op] the residual on op(x, x).
_LEFT = {
    op: (_unary_kind(t[0], t[1]), _unary_kind(t[2], t[3]))
    for op, t in _TABLES.items()
}
_RIGHT = {
    op: (_unary_kind(t[0], t[2]), _unary_kind(t[1], t[3]))
    for op, t in _TABLES.items()
}
_DIAG = {op: _unary_kind(t[0], t[3]) for op, t in _TABLES.items()}


def _depth_guarded(method):
    """Report a recursion too deep for the interpreter as a :class:`BddError`."""

    @functools.wraps(method)
    def guarded(self, *args):
        try:
            return method(self, *args)
        except RecursionError:
            raise BddError(
                f"BDD over {self.var_count} variables recurses past Python's "
                f"recursion limit ({sys.getrecursionlimit()})"
            ) from None

    return guarded


class NodeRef:
    """Opaque handle to one canonical node of a :class:`BddManager`.

    Handles are interned while alive: building the same function twice
    yields the identical object, so ``a is b`` and ``a == b`` both
    decide functional equivalence within one manager.  A handle holds
    its manager strongly, so ``handle.manager`` stays usable after every
    other owner of the manager is gone; the manager holds its handles
    only weakly.
    """

    __slots__ = ("manager", "index", "__weakref__")

    def __init__(self, manager: "BddManager", index: int):
        self.manager = manager
        self.index = index

    def __repr__(self):
        if self.index == 0:
            return "<bdd FALSE>"
        if self.index == 1:
            return "<bdd TRUE>"
        level, _, _ = self.manager._nodes[self.index]
        return f"<bdd node {self.index} on x{level}>"

    # Operator sugar; the owning manager does the real work.
    def __invert__(self):
        return self.manager.not_(self)

    def __and__(self, other):
        return self.manager.apply("and", self, other)

    def __or__(self, other):
        return self.manager.apply("or", self, other)

    def __xor__(self, other):
        return self.manager.apply("xor", self, other)


class BddManager:
    """Shared store of reduced ordered BDD nodes.

    The variable order is fixed at construction: variable ``i`` sits at
    level ``i``.  Node ``u`` is ``_nodes[u]``, the ``(level, low, high)``
    tuple that is also its key in the unique table.  The store is
    append-only, so ``nodes_created`` and ``node_count`` are read off its
    length.

    ``cache_capacity`` bounds the binary-operation cache only (the node
    store itself is never evicted): when set, the cache becomes a fixed
    table of that many slots with overwrite on collision, the way the
    classic C libraries behave.  By default the cache is an unbounded
    dict, which is fastest and recomputes nothing.

    A manager and all of its handles are confined to a single logical
    thread; parallel workloads run one manager per worker.
    """

    def __init__(self, var_count: int, cache_capacity: int | None = None):
        if var_count < 0:
            raise BddError("variable count must be non-negative")
        if cache_capacity is not None and cache_capacity < 1:
            raise BddError("cache capacity must be positive or None")
        self.var_count = var_count
        self._cache_capacity = cache_capacity
        # Slots 0 and 1 are the terminals, parked at the leaf level below
        # every variable; they are not in the unique table.
        self._nodes = [(var_count, 0, 0), (var_count, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._counted_from = 2
        # Node index -> its live handle; an entry goes when its handle dies.
        self._handles: weakref.WeakValueDictionary[int, NodeRef] = (
            weakref.WeakValueDictionary()
        )
        self.clear_caches()

    @property
    def false(self) -> NodeRef:
        """The constant-false function."""
        return self._ref(0)

    @property
    def true(self) -> NodeRef:
        """The constant-true function."""
        return self._ref(1)

    # -- node construction -------------------------------------------------

    def var(self, index: int) -> NodeRef:
        """The projection function of variable ``index``."""
        if not 0 <= index < self.var_count:
            raise BddError(
                f"variable index {index} out of range "
                f"(manager has {self.var_count} variables)"
            )
        return self._ref(self._mk(index, 0, 1))

    @_depth_guarded
    def apply(self, op: str, a: NodeRef, b: NodeRef) -> NodeRef:
        """Combine two functions.

        Operations: ``and``, ``or``, ``xor``, ``nand``, ``nor``,
        ``xnor``, plus the fused ``andnot`` (a AND NOT b).
        """
        try:
            code = _OP_CODES[op.lower()]
        except (KeyError, AttributeError):
            raise BddError(f"unknown operation {op!r}") from None
        return self._ref(self._apply(code, self._unwrap(a), self._unwrap(b)))

    @_depth_guarded
    def not_(self, a: NodeRef) -> NodeRef:
        """Complement of a function."""
        return self._ref(self._not(self._unwrap(a)))

    # -- queries ------------------------------------------------------------

    def is_sat(self, a: NodeRef) -> bool:
        """Whether any input vector makes the function true."""
        return self._unwrap(a) != 0

    @_depth_guarded
    def sat_count(self, a: NodeRef) -> int:
        """Number of satisfying assignments over all manager variables."""
        u = self._unwrap(a)
        return self._count(u) << self._nodes[u][0]

    def sat_prob(self, a: NodeRef) -> Fraction:
        """Exact probability that a uniformly random assignment satisfies ``a``."""
        return Fraction(self.sat_count(a), 1 << self.var_count)

    @_depth_guarded
    def sat_count_and(self, a: NodeRef, b: NodeRef) -> int:
        """Model count of ``a AND b`` without materializing the conjunction.

        A pairwise traversal of both DAGs; equals
        ``sat_count(apply('and', a, b))`` but creates no nodes.
        """
        return self._count_pair(_AND, self._unwrap(a), self._unwrap(b))

    @_depth_guarded
    def sat_count_andnot(self, a: NodeRef, b: NodeRef) -> int:
        """Model count of ``a AND NOT b`` without materializing it."""
        return self._count_pair(_ANDNOT, self._unwrap(a), self._unwrap(b))

    def evaluate(self, a: NodeRef, assignment) -> bool:
        """Evaluate under a full assignment (sequence of ``var_count`` bits)."""
        if len(assignment) != self.var_count:
            raise BddError(
                f"assignment has {len(assignment)} bits, expected {self.var_count}"
            )
        u = self._unwrap(a)
        while u > 1:
            level, low, high = self._nodes[u]
            u = high if assignment[level] else low
        return u == 1

    def pick_assignment(self, a: NodeRef) -> list[int]:
        """One satisfying assignment; variables off the chosen path get 0."""
        u = self._unwrap(a)
        if u == 0:
            raise BddError("function is unsatisfiable")
        bits = [0] * self.var_count
        while u > 1:
            # Every non-FALSE node has a satisfiable child (reducedness).
            level, low, high = self._nodes[u]
            if low == 0:
                bits[level] = 1
                u = high
            else:
                u = low
        return bits

    # -- bookkeeping ----------------------------------------------------------

    def nodes_created(self) -> int:
        """Internal nodes created since construction or the last reset."""
        return len(self._nodes) - self._counted_from

    def reset_node_counter(self) -> None:
        self._counted_from = len(self._nodes)

    @property
    def node_count(self) -> int:
        """Internal nodes currently in the unique table."""
        return len(self._nodes) - 2

    def clear_caches(self) -> None:
        """Start the operation, NOT and count caches empty; nodes are kept."""
        capacity = self._cache_capacity
        self._apply_cache: dict[tuple[int, int, int], int] = {}
        self._apply_slots: list[tuple[tuple[int, int, int], int] | None] | None = (
            None if capacity is None else [None] * capacity
        )
        self._not_cache: dict[int, int] = {}
        self._count_cache: dict[int, int] = {0: 0, 1: 1}
        self._count2_cache: dict[tuple[int, int, int], int] = {}

    # -- internals ------------------------------------------------------------

    def _ref(self, u: int) -> NodeRef:
        ref = self._handles.get(u)
        if ref is None:
            ref = self._handles[u] = NodeRef(self, u)
        return ref

    def _unwrap(self, ref) -> int:
        if type(ref) is not NodeRef or ref.manager is not self:
            raise BddError("node handle does not belong to this manager")
        return ref.index

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        u = self._unique.get(key)
        if u is None:
            u = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return u

    def _unary(self, kind: int, u: int) -> int:
        if kind == _U_SAME:
            return u
        if kind == _U_CONST0:
            return 0
        if kind == _U_CONST1:
            return 1
        return self._not(u)

    def _apply(self, op: int, a: int, b: int) -> int:
        if a < 2:
            return self._unary(_LEFT[op][a], b)
        if b < 2:
            return self._unary(_RIGHT[op][b], a)
        if a == b:
            return self._unary(_DIAG[op], a)
        if a > b and op in _COMMUTATIVE:
            a, b = b, a
        key = (op, a, b)
        slots = self._apply_slots
        if slots is None:
            r = self._apply_cache.get(key)
            if r is not None:
                return r
        else:
            slot = slots[hash(key) % self._cache_capacity]
            if slot is not None and slot[0] == key:
                return slot[1]
        nodes = self._nodes
        la, a0, a1 = nodes[a]
        lb, b0, b1 = nodes[b]
        lv = la if la < lb else lb
        if la != lv:
            a0 = a1 = a
        if lb != lv:
            b0 = b1 = b
        r = self._mk(lv, self._apply(op, a0, b0), self._apply(op, a1, b1))
        if slots is None:
            self._apply_cache[key] = r
        else:
            slots[hash(key) % self._cache_capacity] = (key, r)
        return r

    def _not(self, a: int) -> int:
        if a < 2:
            return 1 - a
        cache = self._not_cache
        r = cache.get(a)
        if r is None:
            level, low, high = self._nodes[a]
            r = cache[a] = self._mk(level, self._not(low), self._not(high))
        return r

    def _count(self, u: int) -> int:
        # Satisfying assignments over the variables at or below u's level;
        # sat_count() scales by the levels above the root.
        cache = self._count_cache
        r = cache.get(u)
        if r is None:
            nodes = self._nodes
            level, low, high = nodes[u]
            r = cache[u] = (self._count(low) << (nodes[low][0] - level - 1)) + (
                self._count(high) << (nodes[high][0] - level - 1)
            )
        return r

    def _count_pair(self, op: int, a: int, b: int) -> int:
        return self._count2(op, a, b) << min(self._nodes[a][0], self._nodes[b][0])

    def _count2(self, op: int, u: int, v: int) -> int:
        # Counts over the variables at or below min(level(u), level(v)).
        if u < 2:
            if v < 2:
                return _TABLES[op][2 * u + v]
            return self._count_unary(_LEFT[op][u], v)
        if v < 2:
            return self._count_unary(_RIGHT[op][v], u)
        if u == v:
            return self._count_unary(_DIAG[op], u)
        if u > v and op in _COMMUTATIVE:
            u, v = v, u
        key = (op, u, v)
        cache = self._count2_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        lu, u0, u1 = nodes[u]
        lv, v0, v1 = nodes[v]
        lv_min = lu if lu < lv else lv
        if lu != lv_min:
            u0 = u1 = u
        if lv != lv_min:
            v0 = v1 = v
        r = cache[key] = (
            self._count2(op, u0, v0)
            << (min(nodes[u0][0], nodes[v0][0]) - lv_min - 1)
        ) + (
            self._count2(op, u1, v1)
            << (min(nodes[u1][0], nodes[v1][0]) - lv_min - 1)
        )
        return r

    def _count_unary(self, kind: int, u: int) -> int:
        # Count of the residual unary function, over levels >= level(u).
        if kind == _U_CONST0:
            return 0
        if kind == _U_CONST1:
            return 1 << (self.var_count - self._nodes[u][0])
        if kind == _U_SAME:
            return self._count(u)
        return (1 << (self.var_count - self._nodes[u][0])) - self._count(u)
