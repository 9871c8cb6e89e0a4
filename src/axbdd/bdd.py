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
of nodes created (terminals excluded) is read off its length; callers
attribute node construction to a phase of a larger computation by the
difference of two readings.  The operation cache is one dict, cleared
when it reaches ``cache_capacity`` entries.

A binary operation is coded by its 4-bit truth table, and what it
degenerates to on a terminal or on equal operands by a 2-bit one.  A
ternary operation is coded by its 8-bit truth table, so it covers XOR3,
MAJ and ITE with no intermediate BDDs.  One ternary recursion walks the
operands once, down to the leaves, and builds the results of two
tables: the ripple cell of :mod:`axbdd.bitvec`
(:meth:`BddManager._cell`) takes a sum and a carry from it, and
:meth:`BddManager.apply3` is the same walk with both tables equal.  It
calls nothing of the binary kernel, and only the operation cache is
shared: a binary entry is keyed by a 3-tuple and a ternary pair by a
5-tuple, so no two can collide.

Model counts are over all of the manager's variables at every node, so
no count is rescaled by the levels a child skips.  The only pairwise
count is that of a conjunction, the one the metrics ask for; it walks
both DAGs together and builds no node.  One count cache holds both: a
node's count under its int, a conjunction's under the ordered pair.

:meth:`BddManager.build` runs a straight-line program of binary steps
over node integers and makes handles only for the slots asked for, so
loading a netlist creates no handle per wire.

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


# An operation is coded by its truth table: bit ``2*a + b`` of the code
# is op(a, b).  The six gate operations are commutative (bits 1 and 2
# agree) and cache on (op, min, max); the fused and-not (the ``diff``
# operator of the usual BDD libraries, here so callers never have to
# materialize a complement copy) caches on (op, a, b) as is.
_OP_CODES = {
    "and": 0b1000,
    "or": 0b1110,
    "xor": 0b0110,
    "nand": 0b0111,
    "nor": 0b0001,
    "xnor": 0b1001,
    "andnot": 0b0100,
}

_COMMUTATIVE = frozenset(op for op in range(16) if (op >> 1 ^ op >> 2) & 1 == 0)

# When one operand is a terminal (or both operands coincide) the
# operation degenerates to a unary function of the other operand, coded
# the same way: bit x of the 2-bit code is its value at x.
_U_CONST0, _U_NEG, _U_SAME, _U_CONST1 = range(4)


def _bits(table: int, *positions: int) -> int:
    """The bits of ``table`` at ``positions``, packed low bit first."""
    return sum((table >> p & 1) << k for k, p in enumerate(positions))


# _LEFT[op][v] is the residual of op(v, x) for terminal v, _RIGHT[op][v]
# that of op(x, v), and _DIAG[op] that of op(x, x).
_LEFT = [(_bits(op, 0, 1), _bits(op, 2, 3)) for op in range(16)]
_RIGHT = [(_bits(op, 0, 2), _bits(op, 1, 3)) for op in range(16)]
_DIAG = [_bits(op, 0, 3) for op in range(16)]


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
    append-only, so ``nodes_created`` is read off its length.  Operations
    are coded by their truth tables, and every model count, cached or
    not, is over all ``var_count`` variables.  Single-node and pairwise
    AND counts share one count cache.

    ``cache_capacity`` bounds the operation cache only (the node
    store itself is never evicted): the cache is one dict, shared by
    the binary and ternary kernels and cleared when it reaches
    ``cache_capacity`` entries, so it never holds more.  By
    default it is unbounded and recomputes nothing.  The bound changes
    speed only, never a result.

    A manager and all of its handles are confined to a single logical
    thread; parallel workloads run one manager per worker.
    """

    def __init__(self, var_count: int, cache_capacity: int | None = None):
        if type(var_count) is not int or var_count < 0:
            raise BddError("variable count must be a non-negative integer")
        if cache_capacity is not None and (
            type(cache_capacity) is not int or cache_capacity < 1
        ):
            raise BddError("cache capacity must be a positive integer or None")
        self.var_count = var_count
        self._cache_limit = sys.maxsize if cache_capacity is None else cache_capacity
        # Slots 0 and 1 are the terminals, parked at the leaf level below
        # every variable; they are not in the unique table.
        self._nodes = [(var_count, 0, 0), (var_count, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
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
        if type(index) is not int or not 0 <= index < self.var_count:
            raise BddError(
                f"variable index {index!r} is not an int in range({self.var_count})"
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
    def apply3(self, table: int, a: NodeRef, b: NodeRef, c: NodeRef) -> NodeRef:
        """Combine three functions by an 8-bit truth table.

        Bit ``4*a + 2*b + c`` of ``table`` is the result at those operand
        values: ``0x96`` is XOR3, ``0xE8`` majority and ``0xCA`` is
        if-then-else.  No intermediate BDD is built.
        """
        if type(table) is not int or not 0 <= table <= 255:
            raise BddError(f"ternary truth table {table!r} is not an int in 0..255")
        s, _ = self._apply3_pair(
            table, table, self._unwrap(a), self._unwrap(b), self._unwrap(c)
        )
        return self._ref(s)

    @_depth_guarded
    def _cell(
        self, ts: int, tc: int, a: NodeRef, b: NodeRef, c: NodeRef
    ) -> tuple[NodeRef, NodeRef]:
        """``(apply3(ts, a, b, c), apply3(tc, a, b, c))`` from one walk.

        The ripple cell's sum and carry: both visit the same operand
        triples, so one recursion builds the two and caches them as one
        pair.
        """
        s, carry = self._apply3_pair(
            ts, tc, self._unwrap(a), self._unwrap(b), self._unwrap(c)
        )
        return self._ref(s), self._ref(carry)

    @_depth_guarded
    def build(self, program, outputs) -> list[NodeRef]:
        """Run a straight-line program over node integers; handles for ``outputs``.

        Slot 0 is FALSE, slot 1 TRUE and slot ``2 + i`` variable ``i``;
        each step ``(code, i, j)`` of ``program`` appends the binary
        operation with 4-bit truth table ``code`` (bit ``2*a + b`` is
        op(a, b)) of slots ``i`` and ``j``.  A unary step is a code on
        ``(i, i)`` (``0b1100`` copies slot ``i``, ``0b0011`` complements
        it) and a constant one a code on ``(0, 0)`` (``0b0000``,
        ``0b1111``); the equal-operand and terminal shortcuts answer both
        without a binary recursion.  Only the slots listed in ``outputs``
        get handles.
        """
        slots = [0, 1]
        slots += [self._mk(level, 0, 1) for level in range(self.var_count)]
        apply = self._apply
        for code, i, j in program:
            slots.append(apply(code, slots[i], slots[j]))
        return [self._ref(slots[k]) for k in outputs]

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
        return self._count(self._unwrap(a))

    def sat_prob(self, a: NodeRef) -> Fraction:
        """Exact probability that a uniformly random assignment satisfies ``a``."""
        return Fraction(self.sat_count(a), 1 << self.var_count)

    @_depth_guarded
    def sat_count_and(self, a: NodeRef, b: NodeRef) -> int:
        """Model count of ``a AND b`` without materializing the conjunction.

        A pairwise traversal of both DAGs; equals
        ``sat_count(apply('and', a, b))`` but creates no nodes.
        """
        return self._count_and(self._unwrap(a), self._unwrap(b))

    def sat_count_andnot(self, a: NodeRef, b: NodeRef) -> int:
        """Model count of ``a AND NOT b``: ``a``'s count less that of ``a AND b``."""
        return self.sat_count(a) - self.sat_count_and(a, b)

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
        """Internal nodes created since construction, all still stored."""
        return len(self._nodes) - 2

    def clear_caches(self) -> None:
        """Start the three caches (operation, NOT, count) empty; nodes are kept."""
        self._apply_cache: dict[tuple[int, ...], int | tuple[int, int]] = {}
        self._not_cache: dict[int, int] = {}
        self._count_cache: dict[int | tuple[int, int], int] = {
            0: 0,
            1: 1 << self.var_count,
        }

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
        cache = self._apply_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        la, a0, a1 = nodes[a]
        lb, b0, b1 = nodes[b]
        lv = la if la < lb else lb
        if la != lv:
            a0 = a1 = a
        if lb != lv:
            b0 = b1 = b
        r = self._mk(lv, self._apply(op, a0, b0), self._apply(op, a1, b1))
        if len(cache) >= self._cache_limit:
            cache.clear()
        cache[key] = r
        return r

    def _apply3_pair(
        self, ts: int, tc: int, a: int, b: int, c: int
    ) -> tuple[int, int]:
        # The one ternary recursion: the results of tables ts and tc on
        # the same operands, one cache entry per triple.  It splits on the
        # top level until all three operands are terminals, whose row
        # 4a + 2b + c it reads off both tables; a terminal sits at the
        # leaf level below every variable, so a split leaves it as its
        # own cofactor.  _mk is written out inline for both nodes, which
        # measured faster than two calls.
        if a < 2 and b < 2 and c < 2:
            row = 4 * a + 2 * b + c
            return ts >> row & 1, tc >> row & 1
        key = (ts, tc, a, b, c)
        cache = self._apply_cache
        r = cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        la, a0, a1 = nodes[a]
        lb, b0, b1 = nodes[b]
        lc, c0, c1 = nodes[c]
        lv = la if la < lb else lb
        if lc < lv:
            lv = lc
        if la != lv:
            a0 = a1 = a
        if lb != lv:
            b0 = b1 = b
        if lc != lv:
            c0 = c1 = c
        s0, r0 = self._apply3_pair(ts, tc, a0, b0, c0)
        s1, r1 = self._apply3_pair(ts, tc, a1, b1, c1)
        unique = self._unique
        s = s0
        if s0 != s1:
            k = (lv, s0, s1)
            s = unique.get(k)
            if s is None:
                s = unique[k] = len(nodes)
                nodes.append(k)
        carry = r0
        if r0 != r1:
            k = (lv, r0, r1)
            carry = unique.get(k)
            if carry is None:
                carry = unique[k] = len(nodes)
                nodes.append(k)
        r = s, carry
        if len(cache) >= self._cache_limit:
            cache.clear()
        cache[key] = r
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
        # Satisfying assignments over all variables.  Neither child depends
        # on u's variable, so half of each child's models take u's branch
        # to that child.
        cache = self._count_cache
        r = cache.get(u)
        if r is None:
            _, low, high = self._nodes[u]
            r = cache[u] = (self._count(low) + self._count(high)) >> 1
        return r

    def _count_and(self, u: int, v: int) -> int:
        # Satisfying assignments of u AND v over all variables, cached on
        # the ordered pair beside the single-node counts.
        if u > v:
            u, v = v, u
        if u < 2 or u == v:
            return self._count(v) if u else 0
        key = (u, v)
        cache = self._count_cache
        r = cache.get(key)
        if r is None:
            lu, u0, u1 = self._nodes[u]
            lv, v0, v1 = self._nodes[v]
            if lu < lv:
                v0 = v1 = v
            elif lv < lu:
                u0 = u1 = u
            r = self._count_and(u0, v0) + self._count_and(u1, v1)
            r = cache[key] = r >> 1
        return r
