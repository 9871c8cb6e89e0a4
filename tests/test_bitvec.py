import random
from fractions import Fraction

import pytest

from axbdd import (
    BddError,
    BddManager,
    BddWord,
    SearchConfig,
    add,
    bits_to_int,
    compile_circuit,
    extend,
    gen_adder,
    mutate,
    parse,
    range_threshold,
    run_search,
    subtract,
    word_value,
)

from conftest import HALF_ADDER_TEXT, all_assignments, random_netlist


# -- reference constructions: the same nodes must come out -------------------


def reference_compile(manager, circuit):
    """Gate-by-gate compile through the public handle API."""
    wires = {name: manager.var(i) for i, name in enumerate(circuit.inputs)}
    for g in circuit.gates:
        args = [wires[w] for w in g.inputs]
        if g.op == "CONST0":
            node = manager.false
        elif g.op == "CONST1":
            node = manager.true
        elif g.op == "BUF":
            node = args[0]
        elif g.op == "NOT":
            node = manager.not_(args[0])
        else:
            node = manager.apply(g.op, *args)
        wires[g.out] = node
    return [wires[w] for w in circuit.outputs]


def reference_ripple(a, b, subtracting):
    """Five binary applies per bit: h = half(a, b), sum h ^ carry, and
    carry generate(a, b) | (h & carry); b inverted inside xnor/andnot."""
    half, generate = ("xnor", "andnot") if subtracting else ("xor", "and")
    width = max(a.width, b.width) + 1
    a, b = extend(a, width), extend(b, width)
    m = a.manager
    carry = m.true if subtracting else m.false
    bits = []
    for i in range(width):
        h = m.apply(half, a.bits[i], b.bits[i])
        bits.append(m.apply("xor", h, carry))
        if i + 1 < width:
            g = m.apply(generate, a.bits[i], b.bits[i])
            carry = m.apply("or", g, m.apply("and", h, carry))
    return bits


def assert_ripples_match_reference(a, b):
    for fn, subtracting in ((add, False), (subtract, True)):
        got = fn(a, b).bits
        expected = reference_ripple(a, b, subtracting)
        assert len(got) == len(expected)
        assert all(x is y for x, y in zip(got, expected)), fn.__name__


def free_words(width, signed):
    """Two words of free variables: a on even levels, b on odd levels."""
    m = BddManager(2 * width)
    a = BddWord(tuple(m.var(2 * i) for i in range(width)), signed)
    b = BddWord(tuple(m.var(2 * i + 1) for i in range(width)), signed)
    return m, a, b


def operand_values(bits, width, signed):
    a = bits_to_int(bits[0::2][:width], signed)
    b = bits_to_int(bits[1::2][:width], signed)
    return a, b


def test_compile_half_adder():
    c = parse(HALF_ADDER_TEXT)
    m = BddManager(2)
    word = compile_circuit(m, c)
    assert word.width == 2
    assert m.sat_prob(word.bits[1]) == Fraction(1, 4)
    assert word.bits[0] is m.apply("xor", m.var(0), m.var(1))


def test_compile_constants_and_rca_lsb():
    c = parse(
        ".model t\n.inputs a\n.outputs one a\n.gate CONST1 -> one\n.end\n"
    )
    m = BddManager(1)
    word = compile_circuit(m, c)
    assert word.bits[0] is m.true

    rca = gen_adder("rca", 8, False)
    m8 = BddManager(16)
    word8 = compile_circuit(m8, rca)
    assert word8.bits[0] is m8.apply("xor", m8.var(0), m8.var(1))


def test_compile_variable_count_mismatch():
    c = parse(HALF_ADDER_TEXT)
    with pytest.raises(BddError):
        compile_circuit(BddManager(3), c)


def test_extend_unsigned_pads_false():
    m = BddManager(1)
    w = BddWord((m.var(0),), signed=False)
    wide = extend(w, 3)
    assert wide.bits == (m.var(0), m.false, m.false)


def test_extend_identity_and_narrowing():
    m = BddManager(1)
    w = BddWord((m.var(0),), signed=False)
    assert extend(w, 1) is w
    with pytest.raises(ValueError):
        extend(w, 0)


def test_extend_signed_preserves_value():
    m, a, _ = free_words(3, signed=True)
    wide = extend(a, 6)
    assert wide.bits[3:] == (a.bits[2],) * 3
    for bits in all_assignments(6):
        assert word_value(wide, bits) == word_value(a, bits)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("signed", [False, True])
def test_add_and_subtract_exhaustive(width, signed):
    m, a, b = free_words(width, signed)
    total = add(a, b)
    diff = subtract(a, b)
    assert total.width == width + 1
    assert diff.width == width + 1
    assert diff.signed
    assert total.signed == signed
    for bits in all_assignments(2 * width):
        va, vb = operand_values(bits, width, signed)
        assert word_value(total, bits) == va + vb
        assert word_value(diff, bits) == va - vb
        # the difference sign bit flags exactly the negative outcomes
        assert m.evaluate(diff.sign_bit, bits) == (va - vb < 0)


def test_subtract_self_is_all_false():
    rca = gen_adder("rca", 6, False)
    m = BddManager(12)
    w = compile_circuit(m, rca)
    eps = subtract(w, w)
    assert all(bit is m.false for bit in eps.bits)


def test_mixed_width_operands():
    m = BddManager(3)
    a = BddWord((m.var(0), m.var(1)), signed=False)
    b = BddWord((m.var(2),), signed=False)
    total = add(a, b)
    assert total.width == 3
    for bits in all_assignments(3):
        va = bits[0] + 2 * bits[1]
        assert word_value(total, bits) == va + bits[2]


def test_word_validation():
    m1, m2 = BddManager(1), BddManager(1)
    with pytest.raises(ValueError):
        BddWord((), signed=False)
    with pytest.raises(BddError):
        BddWord((m1.var(0), m2.var(0)), signed=False)
    with pytest.raises(BddError):
        add(BddWord((m1.var(0),), False), BddWord((m2.var(0),), False))
    with pytest.raises(ValueError):
        add(BddWord((m1.var(0),), False), BddWord((m1.var(0),), True))


@pytest.mark.parametrize("signed", [False, True])
def test_ripple_is_the_five_call_reference(signed):
    for width in (1, 2, 3, 4):
        _, a, b = free_words(width, signed)
        assert_ripples_match_reference(a, b)
        assert_ripples_match_reference(b, a)
        assert_ripples_match_reference(a, a)
    m = BddManager(5)
    wide = BddWord(tuple(m.var(i) for i in range(3)), signed)
    narrow = BddWord((m.var(3), m.apply("or", m.var(4), m.var(0))), signed)
    assert_ripples_match_reference(wide, narrow)
    assert_ripples_match_reference(narrow, wide)


def test_ripple_on_evolved_mutants_is_the_reference():
    for kind in ("rca", "cla", "cska"):
        golden = gen_adder(kind, 8, kind == "cla")
        cfg = SearchConfig(
            threshold=range_threshold(golden, Fraction(1, 5)), max_generations=15,
            seed=3,
        )
        evolved, _ = run_search(golden, cfg)
        for seed in range(2):
            m = BddManager(16)
            f = compile_circuit(m, golden)
            fp = compile_circuit(m, mutate(evolved, seed, 4))
            assert_ripples_match_reference(f, fp)


def test_compile_is_the_gate_by_gate_reference():
    text = (
        ".model odd\n.inputs a b c\n.outputs one z a nb t b cp nb\n"
        ".gate CONST1 -> one\n.gate CONST0 -> z\n.gate NOT b -> nb\n"
        ".gate BUF nb -> cp\n.gate XNOR a cp -> t\n.end\n"
    )
    circuits = [parse(text), gen_adder("cska", 5, True)]
    rng = random.Random(8)
    for case in range(200):
        inputs = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        circuits.append(random_netlist(rng, "r", inputs, rng.randint(1, 5), False))
    for circuit in circuits:
        m = BddManager(circuit.input_count)
        expected = reference_compile(m, circuit)
        got = compile_circuit(m, circuit).bits
        assert len(got) == len(expected)
        assert all(x is y for x, y in zip(got, expected)), circuit.name
