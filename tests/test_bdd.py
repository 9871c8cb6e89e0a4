import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from axbdd import (
    BddError,
    BddManager,
    BddWord,
    compile_circuit,
    evaluate_error,
    gen_adder,
    int_value,
    mutate,
    parse,
    simulate,
    subtract,
)
from axbdd.bdd import _OP_CODES

from conftest import all_assignments, xor_chain_text

OPS = ("and", "or", "xor", "nand", "nor", "xnor")

PY_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nand": lambda a, b: 1 - (a & b),
    "nor": lambda a, b: 1 - (a | b),
    "xnor": lambda a, b: 1 - (a ^ b),
    "andnot": lambda a, b: a & (1 - b),
}


def random_formula_pool(manager, rng, extra=60, ops=tuple(PY_OPS)):
    """Random nodes paired with equivalent plain-Python evaluators."""
    pool = [(manager.var(i), (lambda i: lambda bits: bits[i])(i))
            for i in range(manager.var_count)]
    for _ in range(extra):
        (a, fa), (b, fb) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(ops)
        node = manager.apply(op, a, b)
        pool.append((node, (lambda op, fa, fb: lambda bits: PY_OPS[op](fa(bits), fb(bits)))(op, fa, fb)))
        if rng.random() < 0.3:
            node, fn = pool[-1]
            pool.append((manager.not_(node), (lambda fn: lambda bits: 1 - fn(bits))(fn)))
    return pool


def test_var_projection_and_canonicity():
    m = BddManager(3)
    x0 = m.var(0)
    assert m.var(0) is x0
    assert m.evaluate(x0, (1, 0, 0)) is True
    assert m.evaluate(x0, (0, 1, 1)) is False
    assert m.sat_prob(x0) == Fraction(1, 2)


def test_repr_names_node_and_variable():
    m = BddManager(4)
    assert repr(m.false) == "<bdd FALSE>"
    assert repr(m.true) == "<bdd TRUE>"
    assert repr(m.var(3)) == "<bdd node 2 on x3>"


def test_var_index_out_of_range():
    m = BddManager(2)
    with pytest.raises(BddError):
        m.var(2)
    for index in (-1, 1.5, True, "0"):
        with pytest.raises(BddError):
            m.var(index)


def test_apply_identities():
    m = BddManager(2)
    x = m.var(0)
    assert m.apply("and", x, m.not_(x)) is m.false
    assert m.apply("xor", x, m.false) is x
    assert m.apply("or", x, m.true) is m.true
    assert m.apply("xnor", x, m.true) is x
    assert m.apply("andnot", x, m.false) is x


def test_apply_or_model_count():
    # n=2: enumeration of the 4 assignments gives 3 satisfying OR(x0, x1)
    m = BddManager(2)
    assert m.sat_count(m.apply("or", m.var(0), m.var(1))) == 3


def test_xor_model_count_with_spare_variable():
    # n=3: 8 assignments, XOR(x0, x1) true on 4 of them
    m = BddManager(3)
    assert m.sat_count(m.apply("xor", m.var(0), m.var(1))) == 4


def test_sat_basics():
    m = BddManager(2)
    assert not m.is_sat(m.false)
    assert m.is_sat(m.true)
    assert m.is_sat(m.apply("and", m.var(0), m.var(1)))
    assert m.sat_count(m.true) == 4


def test_sat_count_full_space():
    m = BddManager(5)
    assert m.sat_count(m.true) == 32
    assert m.sat_prob(m.var(3)) == Fraction(1, 2)


def test_unknown_operation():
    m = BddManager(1)
    with pytest.raises(BddError):
        m.apply("implies", m.var(0), m.true)


def test_foreign_node_rejected():
    m1, m2 = BddManager(2), BddManager(2)
    with pytest.raises(BddError):
        m1.apply("and", m1.var(0), m2.var(0))
    with pytest.raises(BddError):
        m2.is_sat(m1.true)


def test_de_morgan_and_involution():
    rng = random.Random(7)
    m = BddManager(6)
    pool = random_formula_pool(m, rng, extra=40, ops=OPS)
    for (a, _), (b, _) in zip(pool[::2], pool[1::2]):
        assert m.not_(m.not_(a)) is a
        assert m.apply("nand", a, b) is m.not_(m.apply("and", a, b))
        assert m.apply("nor", a, b) is m.not_(m.apply("or", a, b))
        assert m.apply("or", a, b) is m.not_(
            m.apply("and", m.not_(a), m.not_(b))
        )


def test_model_count_additivity():
    rng = random.Random(11)
    m = BddManager(9)
    for node, _ in random_formula_pool(m, rng, extra=50):
        assert m.sat_count(node) + m.sat_count(m.not_(node)) == 1 << 9


def test_canonicity_of_equivalent_constructions():
    # the same truth table reached by different syntax must intern equal
    rng = random.Random(3)
    m = BddManager(8)
    for node, fn in random_formula_pool(m, rng, extra=80):
        rebuilt = m.false
        # disjunction of minterms over the support is the clumsy route
        for bits in all_assignments(8):
            if not fn(bits):
                continue
            minterm = m.true
            for i, bit in enumerate(bits):
                lit = m.var(i) if bit else m.not_(m.var(i))
                minterm = m.apply("and", minterm, lit)
            rebuilt = m.apply("or", rebuilt, minterm)
        assert rebuilt is node
        break  # one full minterm rebuild is expensive; spot check
    # cheaper structural variations, many samples
    for node_a, _ in random_formula_pool(m, rng, extra=30):
        assert m.apply("xor", node_a, m.false) is node_a
        assert m.apply("xnor", node_a, node_a) is m.true


def test_sat_count_matches_enumeration():
    rng = random.Random(23)
    for n in (4, 8, 11, 14):
        m = BddManager(n)
        pool = random_formula_pool(m, rng, extra=25)
        sample = rng.sample(pool, min(8, len(pool)))
        for node, fn in sample:
            expected = sum(
                1 for bits in all_assignments(n) if fn(bits)
            )
            assert m.sat_count(node) == expected
            assert m.sat_prob(node) == Fraction(expected, 1 << n)


def test_apply_matches_truth_table():
    rng = random.Random(5)
    m = BddManager(6)
    pool = random_formula_pool(m, rng, extra=50)
    for node, fn in rng.sample(pool, 12):
        for bits in all_assignments(6):
            assert m.evaluate(node, bits) == bool(fn(bits))


def test_pairwise_counting_matches_materialized_product():
    rng = random.Random(17)
    m = BddManager(10)
    pool = random_formula_pool(m, rng, extra=80)
    for _ in range(200):
        (a, _), (b, _) = rng.choice(pool), rng.choice(pool)
        assert m.sat_count_and(a, b) == m.sat_count(m.apply("and", a, b))
        assert m.sat_count_andnot(a, b) == m.sat_count(m.apply("andnot", a, b))


@pytest.mark.parametrize("op", PY_OPS)
def test_terminal_and_equal_operands(op):
    # The residual of op on a terminal operand, or on two equal ones.
    m = BddManager(3)
    x = (m.apply("xor", m.var(0), m.var(2)), lambda bits: bits[0] ^ bits[2])
    operands = [(x, x)]
    for term in ((m.false, lambda bits: 0), (m.true, lambda bits: 1)):
        operands += [(x, term), (term, x)]
    for (a, fa), (b, fb) in operands:
        node = m.apply(op, a, b)
        for bits in all_assignments(3):
            assert m.evaluate(node, bits) == bool(PY_OPS[op](fa(bits), fb(bits)))
        assert m.sat_count_and(a, b) == m.sat_count(m.apply("and", a, b))
        assert m.sat_count_andnot(a, b) == m.sat_count(m.apply("andnot", a, b))


def test_apply3_matches_enumeration():
    # Every 8-bit table on random functions of 5 variables, with a
    # terminal in each operand position and each pair of equal operands.
    rng = random.Random(31)
    n = 5
    m = BddManager(n)
    pool = random_formula_pool(m, rng, extra=40)
    pool += [(m.false, lambda bits: 0), (m.true, lambda bits: 1)]
    inner = [p for p in pool if p[0].index > 1]
    false, true = pool[-2], pool[-1]
    assignments = list(all_assignments(n))
    for table in range(256):
        x, y, z = rng.sample(inner, 3)
        triples = [(x, y, z), (x, x, y), (x, y, x), (y, x, x), (x, x, x)]
        for term in (false, true):
            triples += [(term, x, y), (x, term, y), (x, y, term)]
        for (a, fa), (b, fb), (c, fc) in triples:
            node = m.apply3(table, a, b, c)
            for bits in assignments:
                expected = table >> (4 * fa(bits) + 2 * fb(bits) + fc(bits)) & 1
                assert m.evaluate(node, bits) == bool(expected), (table, bits)


def test_apply3_named_tables_are_their_binary_compositions():
    m = BddManager(4)
    x, y, z = m.var(0), m.var(2), m.apply("or", m.var(1), m.var(3))
    assert m.apply3(0x96, x, y, z) is x ^ y ^ z
    assert m.apply3(0xE8, x, y, z) is (x & y) | (x & z) | (y & z)
    assert m.apply3(0xCA, x, y, z) is (x & y) | (~x & z)
    assert m.apply3(0x69, x, y, z) is ~(x ^ y ^ z)
    assert m.apply3(0xB2, x, y, z) is (x & ~y) | (x & z) | (~y & z)


def test_apply3_rejects_bad_tables():
    m = BddManager(2)
    x, y = m.var(0), m.var(1)
    for table in (256, -1, True, "maj", 1.0):
        with pytest.raises(BddError):
            m.apply3(table, x, y, x)
    with pytest.raises(BddError):
        m.apply3(0x96, x, y, BddManager(2).var(0))


def test_apply3_bounded_cache_changes_nothing_but_speed():
    results = []
    for capacity in (None, 1, 7):
        m = BddManager(12, cache_capacity=capacity)
        a = BddWord(tuple(m.var(2 * i) for i in range(6)), signed=True)
        b = BddWord(tuple(m.var(2 * i + 1) for i in range(6)), signed=True)
        diff = subtract(a, b)
        if capacity is not None:
            assert len(m._apply_cache) <= capacity
        results.append(([bit.index for bit in diff.bits], m.nodes_created()))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("capacity", [None, 1])
def test_cell_is_apply3_of_each_table(capacity):
    # apply3 runs the same walk as _cell, so each half is checked against
    # its table on every assignment.
    rng = random.Random(41)
    m = BddManager(6, cache_capacity=capacity)
    pool = [node for node, _ in random_formula_pool(m, rng, extra=60)]
    pool += [m.false, m.true]
    assignments = list(all_assignments(m.var_count))

    def values(node):
        return [m.evaluate(node, bits) for bits in assignments]

    tables = [(0x96, 0xE8), (0x69, 0xB2), (0xE8, 0x96), (0xB2, 0x69)]
    tables += [(rng.randrange(256), rng.randrange(256)) for _ in range(60)]
    for ts, tc in tables:
        for _ in range(20):
            a, b, c = (rng.choice(pool) for _ in range(3))
            rows = [4 * va + 2 * vb + vc
                    for va, vb, vc in zip(values(a), values(b), values(c))]
            s, carry = m._cell(ts, tc, a, b, c)
            assert values(s) == [bool(ts >> r & 1) for r in rows], (ts, a, b, c)
            assert values(carry) == [bool(tc >> r & 1) for r in rows], (tc, a, b, c)
        if capacity is not None:
            assert len(m._apply_cache) <= capacity


def test_ternary_and_binary_entries_share_one_cache():
    m = BddManager(3)
    x, y, z = m.var(0), m.var(1), m.var(2)
    # apply3 is the sum-and-carry walk with both tables equal, walked to
    # the leaves: every entry it makes is a 5-tuple.
    majority = m.apply3(0xE8, x, y, z)
    assert m._apply_cache[(0xE8, 0xE8, x.index, y.index, z.index)] == (
        majority.index, majority.index
    )
    assert {len(key) for key in m._apply_cache} == {5}
    # A sum-and-carry pair is one more 5-tuple entry beside it, and a
    # binary operation a 3-tuple entry in the same dict.
    s, carry = m._cell(0x96, 0xE8, x, y, z)
    assert m._apply_cache[(0x96, 0xE8, x.index, y.index, z.index)] == (
        s.index, carry.index
    )
    both = m.apply("and", x, y)
    assert m._apply_cache[(_OP_CODES["and"], x.index, y.index)] == both.index
    assert {len(key) for key in m._apply_cache} == {3, 5}
    m.clear_caches()
    assert m._apply_cache == {}


@pytest.mark.parametrize("capacity", [None, 1, 16])
def test_cell_adds_only_the_nodes_its_results_reach(capacity):
    # Every node the ternary walk makes is a cofactor of one of its two
    # results, so it adds exactly the nodes reachable from them that were
    # not stored before, whatever the cache bound and whether or not an
    # operand is a terminal or two operands are equal.
    rng = random.Random(43)
    m = BddManager(7, cache_capacity=capacity)
    pool = [node for node, _ in random_formula_pool(m, rng, extra=60)]
    terminals = [m.false, m.true]

    def reachable(*roots):
        seen, stack = set(), [root.index for root in roots]
        while stack:
            u = stack.pop()
            if u > 1 and u not in seen:
                seen.add(u)
                stack += m._nodes[u][1:]
        return seen

    for i in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        shape = i % 5
        if shape < 3:
            a, b, c = [rng.choice(terminals) if k == shape else node
                       for k, node in enumerate((a, b, c))]
        elif shape == 3:
            a, b, c = rng.choice([(a, a, c), (a, b, a), (a, b, b)])
        stored = len(m._nodes)
        s, carry = m._cell(rng.randrange(256), rng.randrange(256), a, b, c)
        added = set(range(stored, len(m._nodes)))
        assert added == {u for u in reachable(s, carry) if u >= stored}


def test_build_runs_a_program_on_node_ints():
    m = BddManager(2)
    x, y = m.var(0), m.var(1)
    # slots: 0 FALSE, 1 TRUE, 2 x, 3 y; steps append slots 4, 5, 6
    program = [(_OP_CODES["xor"], 2, 3), (0b0011, 4, 4), (_OP_CODES["and"], 5, 1)]
    handles = m.build(program, [6, 4, 0, 3, 6])
    assert handles == [~(x ^ y), x ^ y, m.false, y, ~(x ^ y)]
    assert handles[0] is handles[4] is m.not_(m.apply("xor", x, y))


def test_build_runs_every_binary_code():
    # Bit 2a + b of a code is op(a, b), for all 16 codes: with a terminal
    # in each position, on equal operands and on two distinct functions.
    m = BddManager(3)
    fns = {
        0: lambda bits: 0,
        1: lambda bits: 1,
        5: lambda bits: bits[0] ^ bits[2],
        6: lambda bits: bits[1] | bits[2],
    }
    prefix = [(_OP_CODES["xor"], 2, 4), (_OP_CODES["or"], 3, 4)]  # slots 5, 6
    pairs = [(0, 5), (1, 5), (5, 0), (5, 1), (0, 1), (1, 0), (5, 5), (5, 6)]
    for code in range(16):
        program = prefix + [(code, i, j) for i, j in pairs]
        handles = m.build(program, range(7, 7 + len(pairs)))
        for (i, j), node in zip(pairs, handles):
            for bits in all_assignments(3):
                expected = code >> (2 * fns[i](bits) + fns[j](bits)) & 1
                assert m.evaluate(node, bits) == bool(expected), (code, i, j, bits)


def test_counts_on_a_wide_manager():
    n = 200
    m = BddManager(n)
    assert m.sat_count(m.true) == 2**n
    assert m.sat_count(m.false) == 0
    for i, j in ((0, 1), (0, 199), (57, 143), (198, 199), (120, 3)):
        assert m.sat_count(m.var(i)) == m.sat_count(m.var(j)) == 2 ** (n - 1)
        assert m.sat_count_and(m.var(i), m.var(j)) == 2 ** (n - 2)
        assert m.sat_count_andnot(m.var(i), m.var(j)) == 2 ** (n - 2)
    assert m.sat_count(m.apply("xor", m.var(0), m.var(199))) == 2 ** (n - 1)


def test_node_counter():
    _check_node_counter(capacity=None)


def test_node_counter_bounded_cache():
    _check_node_counter(capacity=7)


def _check_node_counter(capacity):
    m = BddManager(4, cache_capacity=capacity)
    assert m.nodes_created() == 0  # terminals excluded by convention
    m.var(0)
    assert m.nodes_created() == 1
    m.var(0)
    assert m.nodes_created() == 1  # cache hit creates nothing
    m.apply("xor", m.var(1), m.var(2))
    created = m.nodes_created()
    assert created > 1
    m.clear_caches()
    assert m.nodes_created() == created
    m.apply("xor", m.var(1), m.var(2))
    assert m.nodes_created() == created  # the node store survives a clear
    # Each stored node is the very tuple that keys it in the unique table.
    assert all(m._nodes[u] is key for key, u in m._unique.items())


def test_bounded_cache_changes_nothing_but_speed():
    results = []
    for capacity in (None, 1, 7):
        m = BddManager(7, cache_capacity=capacity)
        rng_local = random.Random(29)
        pool = random_formula_pool(m, rng_local, extra=60)
        if capacity is not None:
            assert len(m._apply_cache) <= capacity
        results.append(([m.sat_count(node) for node, _ in pool], m.nodes_created()))
    assert results[0] == results[1] == results[2]


def test_cache_capacity_validation():
    for capacity in (0, 2.5, "8", True):
        with pytest.raises(BddError):
            BddManager(2, cache_capacity=capacity)


def test_var_count_validation():
    for var_count in (-1, 2.5, "3", True, False, None):
        with pytest.raises(BddError, match="variable count"):
            BddManager(var_count)
    assert BddManager(0).var_count == 0


def test_clear_caches_keeps_results():
    _check_clear_caches_keeps_results(capacity=None)


def test_clear_caches_keeps_results_bounded_cache():
    _check_clear_caches_keeps_results(capacity=7)


def _check_clear_caches_keeps_results(capacity):
    m = BddManager(4, cache_capacity=capacity)
    a = m.apply("xor", m.var(0), m.var(1))
    b = m.apply("or", m.var(1), m.not_(m.var(2)))
    counts = (m.sat_count(a), m.sat_count_and(a, b))
    # A conjunction's count sits in the count cache under the ordered pair.
    assert (min(a.index, b.index), max(a.index, b.index)) in m._count_cache
    m.clear_caches()
    fresh = BddManager(4, cache_capacity=capacity)
    for cache in ("_apply_cache", "_not_cache", "_count_cache"):
        assert getattr(m, cache) == getattr(fresh, cache), cache
    assert m.apply("xor", m.var(0), m.var(1)) is a
    assert (m.sat_count(a), m.sat_count_and(a, b)) == counts == (8, 6)


def test_pick_assignment():
    m = BddManager(5)
    f = m.apply("and", m.var(1), m.not_(m.var(3)))
    bits = m.pick_assignment(f)
    assert m.evaluate(f, bits)
    with pytest.raises(BddError):
        m.pick_assignment(m.false)


def test_evaluate_length_check():
    m = BddManager(3)
    with pytest.raises(BddError):
        m.evaluate(m.var(0), (1, 0))


def test_operator_sugar():
    m = BddManager(2)
    x, y = m.var(0), m.var(1)
    assert (x & y) is m.apply("and", x, y)
    assert (x | y) is m.apply("or", x, y)
    assert (x ^ y) is m.apply("xor", x, y)
    assert ~x is m.not_(x)


# -- lifetimes: managers are freed by reference counting alone ---------------


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _wce_result():
    golden = gen_adder("rca", 4)
    approx = mutate(golden, 3, 3)
    return golden, approx, evaluate_error(golden, approx, "wce")


def test_dropped_result_frees_its_manager(gc_disabled):
    _, _, result = _wce_result()
    manager = weakref.ref(result.witness.manager)
    del result
    assert manager() is None


def test_held_witness_keeps_its_manager(gc_disabled):
    golden, approx, result = _wce_result()
    witness, wce = result.witness, result.value
    del result
    point = witness.manager.pick_assignment(witness)
    error = int_value(simulate(golden, point)) - int_value(simulate(approx, point))
    assert wce > 0 and abs(error) == wce


def test_intern_table_holds_only_live_handles(gc_disabled):
    m = BddManager(6)
    rng = random.Random(13)
    kept = [m.var(i) for i in range(6)]
    for _ in range(200):
        pool = random_formula_pool(m, rng, extra=20)
        kept.append(pool[-1][0])
        del pool
    live = {id(h) for h in kept}
    assert len(m._handles) == len(live) < m.nodes_created()


# -- recursion depth -----------------------------------------------------------

DEEP = sys.getrecursionlimit() + 100

# Each call recurses once per level through an AND or OR over all DEEP
# variables.
DEEP_CALLS = {
    "apply": lambda m, conj, disj: m.apply("xor", conj, disj),
    "apply3": lambda m, conj, disj: m.apply3(0x96, conj, disj, m.var(DEEP - 1)),
    "not_": lambda m, conj, disj: m.not_(conj),
    "sat_count": lambda m, conj, disj: m.sat_count(conj),
    "sat_prob": lambda m, conj, disj: m.sat_prob(conj),
    "sat_count_and": lambda m, conj, disj: m.sat_count_and(conj, disj),
    "sat_count_andnot": lambda m, conj, disj: m.sat_count_andnot(disj, conj),
    # Bit 0 leaves the carry NOT x(DEEP-1), so bit 1 is a sum-and-carry
    # walk over three non-terminal operands.
    "subtract": lambda m, conj, disj: subtract(
        BddWord((m.false, conj), False), BddWord((m.var(DEEP - 1), disj), False)
    ),
}


@pytest.mark.parametrize("entry", DEEP_CALLS)
def test_recursion_past_the_limit_is_a_bdd_error(entry):
    m = BddManager(DEEP)
    # Built from the bottom variable up, so no step recurses deeply.
    conj = disj = m.var(DEEP - 1)
    for i in reversed(range(DEEP - 1)):
        conj, disj = m.var(i) & conj, m.var(i) | disj
    with pytest.raises(BddError, match=f"{DEEP} variables .* recursion limit"):
        DEEP_CALLS[entry](m, conj, disj)
    assert m.sat_count(m.var(0)) == 1 << (DEEP - 1)


def test_deep_xor_chain_is_a_bdd_error():
    circuit = parse(xor_chain_text(DEEP))
    with pytest.raises(BddError, match="recursion limit"):
        compile_circuit(BddManager(DEEP), circuit)
