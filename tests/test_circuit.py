import random
from fractions import Fraction

import numpy as np
import pytest

from axbdd import (
    BddManager,
    Circuit,
    Gate,
    InterfaceMismatchError,
    NetlistError,
    OracleLimitError,
    OutputWord,
    bits_to_int,
    check_interface,
    compile_circuit,
    emit,
    evaluate_error,
    gen_adder,
    int_value,
    mutate,
    oracle_metrics,
    parse,
    simulate,
    simulate_lanes,
)
import axbdd.oracle as oracle_mod
from axbdd.circuit import GATES
from axbdd.oracle import _chunk_inputs, _popcount, _Program

from conftest import (
    HALF_ADDER_TEXT,
    adder_value_pair,
    all_assignments,
    brute_force_metrics,
    random_netlist,
)


def test_parse_half_adder():
    c = parse(HALF_ADDER_TEXT)
    assert c.name == "half_adder"
    assert c.input_count == 2
    assert c.output_count == 2
    assert not c.signed
    assert c.gates == (Gate("XOR", ("a", "b"), "s0"), Gate("AND", ("a", "b"), "s1"))


def test_parse_comments_and_blank_lines():
    text = "# header\n.model t\n\n.inputs a  # trailing\n.outputs a\n.end\n"
    c = parse(text)
    assert c.inputs == ("a",)


def test_simulate_half_adder():
    c = parse(HALF_ADDER_TEXT)
    out = simulate(c, (1, 1))
    assert out.bits == (0, 1)
    assert int_value(out) == 2


def chunk_words(plane, n):
    """The words of one chunk plane of an ``n``-input enumeration, in
    order: the plane broadcast to the chunk's full word count."""
    bits = min(oracle_mod._CHUNK_BITS, max(0, n - 6))
    assert np.ndim(plane) == bits
    return [int(w) for w in np.broadcast_to(plane, (2,) * bits).reshape(-1)]


def check_rows(c, table):
    """Each row's output by simulate on 0/1 ints, by the oracle's program
    on one full uint64 word (lane k is row k mod 2^n, so all 64 lanes are
    checked), and by the compiled BDD."""
    n = c.input_count
    ((plane,),) = _Program(c).run(next(_chunk_inputs(n)))
    (word,) = chunk_words(plane, n)
    m = BddManager(n)
    (bit,) = compile_circuit(m, c).bits
    for bits, expected in table.items():
        assert simulate(c, bits).bits == (expected,), bits
        assert m.evaluate(bit, bits) == expected, bits
    for k in range(64):
        row = tuple(k >> i & 1 for i in range(n))
        assert word >> k & 1 == table[row], (k, row)


@pytest.mark.parametrize(
    "op,table",
    [
        ("BUF", {(0,): 0, (1,): 1}),
        ("NOT", {(0,): 1, (1,): 0}),
        ("AND", {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
        ("OR", {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
        ("XOR", {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        ("NAND", {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        ("NOR", {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}),
        ("XNOR", {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
        ("CONST0", {(0,): 0, (1,): 0}),
        ("CONST1", {(0,): 1, (1,): 1}),
    ],
)
def test_gate_semantics(op, table):
    arity = {"CONST0": 0, "CONST1": 0, "BUF": 1, "NOT": 1}.get(op, 2)
    ins = tuple(f"i{k}" for k in range(arity))
    c = Circuit(
        name="g",
        inputs=("i0", "i1")[: max(1, arity)],
        outputs=("o",),
        gates=(Gate(op, ins, "o"),),
    )
    check_rows(c, table)


# Gates fed by a constant wire, k0 = CONST0 and k1 = CONST1; compiled,
# they meet the kernel's terminal and equal-operand shortcuts.
@pytest.mark.parametrize(
    "op,ins,table",
    [
        ("BUF", ("k0",), {(0,): 0, (1,): 0}),
        ("BUF", ("k1",), {(0,): 1, (1,): 1}),
        ("NOT", ("k0",), {(0,): 1, (1,): 1}),
        ("NOT", ("k1",), {(0,): 0, (1,): 0}),
        ("AND", ("k1", "i0"), {(0,): 0, (1,): 1}),
        ("AND", ("i0", "k0"), {(0,): 0, (1,): 0}),
        ("OR", ("k0", "i0"), {(0,): 0, (1,): 1}),
        ("OR", ("i0", "k1"), {(0,): 1, (1,): 1}),
        ("XOR", ("i0", "k1"), {(0,): 1, (1,): 0}),
        ("NAND", ("k0", "i0"), {(0,): 1, (1,): 1}),
        ("NOR", ("k0", "k0"), {(0,): 1, (1,): 1}),
        ("XNOR", ("k1", "k0"), {(0,): 0, (1,): 0}),
    ],
)
def test_constant_fed_gate_semantics(op, ins, table):
    c = Circuit(
        name="k",
        inputs=("i0",),
        outputs=("o",),
        gates=(Gate("CONST0", (), "k0"), Gate("CONST1", (), "k1"), Gate(op, ins, "o")),
    )
    check_rows(c, table)


def test_simulate_length_mismatch(identity2):
    with pytest.raises(ValueError):
        simulate(identity2, (1,))
    with pytest.raises(ValueError):
        simulate_lanes(identity2, [1], 1)


def test_simulate_lanes_equals_simulate_lane_by_lane():
    rng = random.Random(38)
    circuits = [random_netlist(rng, f"r{i}", ("x", "y", "z"), 3, i % 2 == 0)
                for i in range(20)]
    circuits += [mutate(gen_adder(kind, 4, signed), rng.getrandbits(64), edits)
                 for kind in ("rca", "cla", "cska") for signed in (False, True)
                 for edits in (1, 4)]
    for c in circuits:
        for lanes in (1, 7, 64, 100):
            planes = [rng.getrandbits(lanes) for _ in c.inputs]
            outs = simulate_lanes(c, planes, lanes)
            assert len(outs) == c.output_count
            assert all(0 <= word < 1 << lanes for word in outs), (c, lanes)
            for k in range(lanes):
                bits = tuple(plane >> k & 1 for plane in planes)
                lane = tuple(word >> k & 1 for word in outs)
                assert simulate(c, bits).bits == lane, (c, lanes, k)


def test_int_value_examples():
    assert int_value(OutputWord((1, 0, 1), signed=False)) == 5
    assert int_value(OutputWord((1, 0, 1), signed=True)) == -3
    assert int_value(OutputWord((1,) * 7, signed=False)) == 127
    assert int_value(OutputWord((0, 0, 0, 1), signed=True)) == -8
    assert bits_to_int((0, 0, 0, 1), signed=False) == 8


def test_rca8_simulation_matches_integer_addition():
    c = gen_adder("rca", 8, False)
    a, b = 200, 100
    bits = []
    for i in range(8):
        bits.append((a >> i) & 1)
        bits.append((b >> i) & 1)
    assert int_value(simulate(c, bits)) == 300


# -- parser diagnostics ----------------------------------------------------


# Each fault sits in the second gate (line 5 of the netlist text), after a
# well-formed gate that defines ``n``.
GATE_FAULTS = {
    "unknown-op": (
        (Gate("MAJ3", ("a", "a", "a"), "o"),),
        "unknown gate operation 'MAJ3'",
    ),
    "arity": ((Gate("AND", ("a",), "o"),), "AND takes 2 input(s), got 1"),
    "undefined-wire": ((Gate("BUF", ("q7",), "o"),), "undefined wire 'q7'"),
    "use-before-definition": (
        (Gate("BUF", ("w",), "o"), Gate("BUF", ("a",), "w")),
        "wire 'w' used before its definition",
    ),
    "duplicate-definition": (
        (Gate("BUF", ("a",), "n"), Gate("BUF", ("n",), "o")),
        "duplicate definition of wire 'n'",
    ),
}


@pytest.mark.parametrize("fault", GATE_FAULTS)
def test_gate_fault_names_its_line(fault):
    gates, message = GATE_FAULTS[fault]
    text = ".model t\n.inputs a\n.outputs o\n.gate NOT a -> n\n" + "".join(
        f".gate {' '.join([g.op, *g.inputs, '->', g.out])}\n" for g in gates
    )
    with pytest.raises(NetlistError) as exc:
        parse(text + ".end\n")
    assert str(exc.value).startswith(f"line 5: {message}")
    assert exc.value.line == 5


def test_use_before_definition_is_an_ordering_error():
    text = (
        ".model t\n.inputs a\n.outputs o\n"
        ".gate BUF w -> o\n.gate BUF a -> w\n.end\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse(text)
    assert "before its definition" in str(exc.value)


def test_duplicate_definition():
    text = (
        ".model t\n.inputs a\n.outputs o\n"
        ".gate BUF a -> o\n.gate NOT a -> o\n.end\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse(text)
    assert "duplicate" in str(exc.value)


def test_unknown_gate_operation():
    text = ".model t\n.inputs a\n.outputs o\n.gate MAJ3 a a a -> o\n.end\n"
    with pytest.raises(NetlistError) as exc:
        parse(text)
    assert "MAJ3" in str(exc.value)


def test_gate_arity_mismatch():
    text = ".model t\n.inputs a\n.outputs o\n.gate AND a -> o\n.end\n"
    with pytest.raises(NetlistError):
        parse(text)


@pytest.mark.parametrize(
    "text,needle",
    [
        (".inputs a\n.outputs a\n.end\n", ".model"),
        (".model t\n.outputs a\n.end\n", ".inputs"),
        (".model t\n.inputs a\n.end\n", ".outputs"),
        (".model t\n.inputs a\n.outputs a\n", ".end"),
        (".model t\n.inputs a\n.outputs a\n.end\nx\n", "after .end"),
        (".model t\n.inputs a\n.outputs a\n.signed maybe\n.end\n", ".signed"),
        (".model t\n.inputs a\n.inputs b\n.outputs a\n.end\n", "duplicate .inputs"),
        (".model a\n.model b\n.inputs a\n.outputs a\n.end\n", "duplicate .model"),
        (
            ".model t\n.inputs a\n.outputs a\n.signed true\n.signed false\n.end\n",
            "duplicate .signed",
        ),
        (".model t\n.wires a\n.end\n", ".wires"),
        (".model t\n.inputs a\n.outputs nope\n.end\n", "nope"),
    ],
)
def test_structural_errors(text, needle):
    with pytest.raises(NetlistError) as exc:
        parse(text)
    assert needle in str(exc.value)


def test_signed_flag_parses():
    text = ".model t\n.inputs a\n.outputs a\n.signed true\n.end\n"
    assert parse(text).signed is True


def test_round_trip_generated_circuits():
    rng = random.Random(2)
    for kind in ("rca", "cla", "cska"):
        for signed in (False, True):
            c = gen_adder(kind, 6, signed)
            assert parse(emit(c)) == c
            mutant = mutate(c, rng.getrandbits(64), 3)
            assert parse(emit(mutant)) == mutant


@pytest.mark.parametrize(
    "name,wire,bad",
    [("", "a", ""), ("t", "a b", "a b"), ("t", "a#b", "a#b"), ("t\nu", "a", "t\nu")],
)
def test_emit_refuses_a_name_the_text_cannot_hold(name, wire, bad):
    # Emitted, each would parse back as another circuit or not at all.
    c = Circuit(name, (wire, "c"), ("o",), (Gate("AND", (wire, "c"), "o"),))
    with pytest.raises(NetlistError) as exc:
        emit(c)
    assert repr(bad) in str(exc.value)


def test_circuit_validation_rejects_bad_constructions():
    with pytest.raises(NetlistError):
        Circuit("t", (), ("o",), (Gate("CONST1", (), "o"),))
    with pytest.raises(NetlistError):
        Circuit("t", ("a",), ("o",), (Gate("BUF", ("missing",), "o"),))
    with pytest.raises(NetlistError):
        Circuit("t", ("a", "a"), ("a",), ())
    for gates, message in GATE_FAULTS.values():
        with pytest.raises(NetlistError) as exc:
            Circuit("t", ("a",), ("o",), (Gate("NOT", ("a",), "n"), *gates))
        assert str(exc.value).startswith(message)
        assert exc.value.gate == 1 and exc.value.line is None


def test_active_gate_count():
    c = Circuit(
        name="t",
        inputs=("a",),
        outputs=("o",),
        gates=(
            Gate("NOT", ("a",), "dead"),
            Gate("BUF", ("a",), "o"),
        ),
    )
    assert c.gate_count() == 2
    assert c.active_gate_count() == 1


@pytest.mark.parametrize("kind", ["rca", "cla", "cska"])
@pytest.mark.parametrize("signed", [False, True])
def test_active_gate_count_matches_a_dfs_from_the_outputs(kind, signed):
    def dfs(c):
        produced = {g.out: g for g in c.gates}
        live, stack = set(), [w for w in c.outputs if w in produced]
        while stack:
            w = stack.pop()
            if w not in live:
                live.add(w)
                stack.extend(v for v in produced[w].inputs if v in produced)
        return len(live)

    rng = random.Random(f"active:{kind}:{signed}")
    for bits in (4, 8, 12, 16):
        golden = gen_adder(kind, bits, signed)
        assert golden.active_gate_count() == dfs(golden) == golden.gate_count()
        for edits in range(1, 7):
            for _ in range(5):
                mutant = mutate(golden, rng.getrandbits(64), edits)
                assert mutant.active_gate_count() == dfs(mutant), (bits, edits)


# -- oracle ------------------------------------------------------------------


def test_oracle_identical_circuits(identity2):
    assert oracle_metrics(identity2, identity2) == (0, Fraction(0), Fraction(0))


def test_oracle_identity_vs_truncated(identity2, truncated2):
    # enumeration of the 4 inputs: errors 0,1,0,1
    wce, mae, rate = oracle_metrics(identity2, truncated2)
    assert wce == 1
    assert mae == Fraction(1, 2)
    assert rate == Fraction(1, 2)


def test_oracle_zeros_vs_identity(zeros2, identity2):
    # errors over inputs 0..3 are 0,1,2,3
    wce, mae, rate = oracle_metrics(zeros2, identity2)
    assert wce == 3
    assert mae == Fraction(6, 4)
    assert rate == Fraction(3, 4)


def test_oracle_matches_naive_simulation_loop():
    rng = random.Random(31)
    golden = gen_adder("rca", 3, False)
    for i in range(8):
        mutant = mutate(golden, rng.getrandbits(64), 1 + i % 3)
        wce, abs_sum, diff = brute_force_metrics(golden, mutant)
        n = golden.input_count
        assert oracle_metrics(golden, mutant) == (
            wce,
            Fraction(abs_sum, 1 << n),
            Fraction(diff, 1 << n),
        )


def test_oracle_signed_circuits():
    golden = gen_adder("cska", 3, True)
    mutant = mutate(golden, 99, 2)
    wce, abs_sum, diff = brute_force_metrics(golden, mutant)
    n = golden.input_count
    assert oracle_metrics(golden, mutant) == (
        wce,
        Fraction(abs_sum, 1 << n),
        Fraction(diff, 1 << n),
    )


def test_oracle_sums_wide_outputs_exactly():
    # 2^20 50-bit differences sum past int64.
    inputs = tuple(f"i{k}" for k in range(20))
    outputs = tuple(f"o{k}" for k in range(50))
    ones, zeros = (
        Circuit(op, inputs, outputs, tuple(Gate(op, (), o) for o in outputs))
        for op in ("CONST1", "CONST0")
    )
    top = (1 << 50) - 1
    assert oracle_metrics(ones, zeros) == (top, Fraction(top), Fraction(1))
    assert evaluate_error(ones, zeros, "mae").value == top


def test_oracle_limit():
    c = gen_adder("rca", 13, False)  # 26 inputs
    with pytest.raises(OracleLimitError):
        oracle_metrics(c, c)
    with pytest.raises(OracleLimitError):
        oracle_metrics(c, c, limit=25)


@pytest.mark.parametrize("limit", [None, "24", 24.0, True, False, -1])
def test_oracle_limit_must_be_an_int_at_least_0(identity2, limit):
    # A bool is an int to Python, but True is no limit of one input.
    with pytest.raises(ValueError, match="limit") as exc:
        oracle_metrics(identity2, identity2, limit=limit)
    assert not isinstance(exc.value, OracleLimitError)


def test_oracle_any_output_width():
    # No int64 value is formed, so words past 62 bits are exact too.
    inputs = ("a",)
    for width in (63, 64, 100):
        outputs = tuple(f"o{k}" for k in range(width))
        ones, zeros = (
            Circuit(op, inputs, outputs, tuple(Gate(op, (), o) for o in outputs))
            for op in ("CONST1", "CONST0")
        )
        top = (1 << width) - 1
        assert oracle_metrics(ones, zeros) == (top, Fraction(top), Fraction(1))
        assert evaluate_error(ones, zeros, "mae").value == top


@pytest.mark.parametrize("n", range(1, 10))
def test_oracle_lanes_and_words_match_brute_force(n):
    # n < 6 fills part of one word, n = 6 exactly one, n > 6 several.
    rng = random.Random(f"oracle-planes:{n}")
    inputs = tuple(f"x{i}" for i in range(n))
    for case in range(16):
        signed = case % 2 == 1
        golden = random_netlist(rng, "golden", inputs, rng.randint(1, 5), signed)
        approx = random_netlist(rng, "approx", inputs, golden.output_count, signed)
        wce, abs_sum, diff = brute_force_metrics(golden, approx)
        assert oracle_metrics(golden, approx) == (
            wce,
            Fraction(abs_sum, 1 << n),
            Fraction(diff, 1 << n),
        ), case


@pytest.mark.parametrize("words", [1, 2])
def test_oracle_chunks_give_the_same_triple(monkeypatch, words):
    rng = random.Random(47)
    pairs = []
    for signed in (False, True):
        golden = gen_adder("cla", 5, signed)  # 10 inputs: 16 words
        pairs.append((golden, mutate(golden, rng.getrandbits(64), 3)))
        inputs = tuple(f"x{i}" for i in range(9))  # 8 words
        golden = random_netlist(rng, "golden", inputs, 4, signed)
        pairs.append((golden, random_netlist(rng, "approx", inputs, 4, signed)))
    whole = [oracle_metrics(g, a) for g, a in pairs]
    monkeypatch.setattr(oracle_mod, "_CHUNK_BITS", words.bit_length() - 1)
    assert [oracle_metrics(g, a) for g, a in pairs] == whole


@pytest.mark.parametrize("chunk_bits", [0, 1, 2, 3, None])
def test_chunk_inputs_are_the_assignment_bits(monkeypatch, chunk_bits):
    # Concatenated over the chunks, lane k of word w of input i's plane is
    # bit i of assignment 64 w + k; below 6 inputs the one word repeats
    # the 2^n rows.
    if chunk_bits is not None:
        monkeypatch.setattr(oracle_mod, "_CHUNK_BITS", chunk_bits)
    for n in range(1, 13):
        chunks = list(_chunk_inputs(n))
        assert all(len(planes) == n for planes in chunks)
        words = max(1, (1 << n) >> 6)
        for i in range(n):
            plane = [w for planes in chunks for w in chunk_words(planes[i], n)]
            expected = [
                sum((64 * w + k >> i & 1) << k for k in range(64))
                for w in range(words)
            ]
            assert plane == expected, (n, i)


@pytest.mark.parametrize("chunk_bits", [None, 10])
def test_oracle_planes_span_only_their_support(monkeypatch, chunk_bits):
    # Sum bit i of an interleaved rca reads inputs 0 .. 2i + 1, of which
    # 6 .. 2i + 1 are word bits, so its plane holds 2^max(0, 2i - 4) words,
    # at most the chunk's; the carry out reads all 20 inputs.
    if chunk_bits is not None:
        monkeypatch.setattr(oracle_mod, "_CHUNK_BITS", chunk_bits)
    bits = oracle_mod._CHUNK_BITS
    inputs = next(_chunk_inputs(20))
    assert max(np.size(p) for p in inputs) == 2
    (outputs,) = _Program(gen_adder("rca", 10, False)).run(inputs)
    sizes = [np.size(p) for p in outputs]
    assert sizes == [min(1 << max(0, 2 * i - 4), 1 << bits) for i in range(11)]
    # A plane with k axes of length 1 counts 2^k times, as if broadcast.
    for plane in inputs + outputs:
        full = np.broadcast_to(plane, (2,) * bits)
        assert _popcount(plane) == int(np.bitwise_count(full).sum())


def test_oracle_shares_every_gate_of_a_renamed_copy():
    golden = gen_adder("cla", 4, True)
    name = {g.out: f"r{i}" for i, g in enumerate(golden.gates)}
    renamed = Circuit(
        "renamed",
        golden.inputs,
        tuple(name.get(w, w) for w in golden.outputs),
        tuple(
            Gate(g.op, tuple(name.get(w, w) for w in g.inputs), name[g.out])
            for g in golden.gates
        ),
        golden.signed,
    )
    program = _Program(golden, renamed)
    assert program.outputs[0] == program.outputs[1]
    assert program.steps == _Program(golden).steps
    assert oracle_metrics(golden, renamed) == (0, 0, 0)


def _move(golden, mutant):
    """The mutate move that turned ``golden`` into the one-edit ``mutant``."""
    changed = [
        (g, h) for g, h in zip(golden.gates, mutant.gates) if g != h
    ]
    if len(changed) != 1:
        return None
    ((g, h),) = changed
    if not h.inputs:
        return "const"
    if not g.inputs:
        return None  # a constant grown back into a unary gate
    return "op" if g.op != h.op else "rewire"


@pytest.mark.parametrize("kind", ["rca", "cla", "cska"])
@pytest.mark.parametrize("bits", [3, 4])
@pytest.mark.parametrize("signed", [False, True])
def test_oracle_matches_brute_force_on_every_mutate_move(kind, bits, signed):
    golden = gen_adder(kind, bits, signed)
    rows = 1 << golden.input_count
    seen = set()
    for seed in range(100):
        mutant = mutate(golden, seed, 1)
        move = _move(golden, mutant)
        if move is None or move in seen:
            continue
        seen.add(move)
        wce, abs_sum, diff = brute_force_metrics(golden, mutant)
        expected = (wce, Fraction(abs_sum, rows), Fraction(diff, rows))
        assert oracle_metrics(golden, mutant) == expected, (move, seed)
    assert seen == {"op", "rewire", "const"}


def test_oracle_never_shares_gates_that_differ_in_op():
    # Every operation on the same operand slots: one step and one slot each.
    inputs = ("a", "b")
    gates = tuple(
        Gate(op, inputs[:arity], f"o_{op}") for op, (arity, _) in GATES.items()
    )
    golden = Circuit("ops", inputs, tuple(g.out for g in gates), gates)
    program = _Program(golden)
    assert len(program.steps) == len(GATES)
    assert len(set(program.outputs[0])) == len(GATES)
    # Rotated, each output's gate takes the next operation on the same
    # operands: it shares the golden gate of that operation, not its own.
    ops = [g.op for g in gates]
    rotated = Circuit(
        "rotated",
        inputs,
        golden.outputs,
        tuple(
            Gate(op, inputs[: GATES[op][0]], g.out)
            for op, g in zip(ops[1:] + ops[:1], gates)
        ),
    )
    shared = _Program(golden, rotated)
    assert len(shared.steps) == len(GATES)
    assert all(a != b for a, b in zip(*shared.outputs))
    wce, abs_sum, diff = brute_force_metrics(golden, rotated)
    assert oracle_metrics(golden, rotated) == (
        wce,
        Fraction(abs_sum, 4),
        Fraction(diff, 4),
    )


def test_oracle_builds_each_repeated_input_plane_once(monkeypatch):
    # With 4-word chunks a 16-input pair takes 256 chunks.  Planes that
    # repeat across chunks must be the same objects, not rebuilt or kept
    # per chunk: kept per chunk, a 32-input pair would hold 2^13 planes.
    golden = gen_adder("rca", 8, False)
    approx = mutate(golden, 5, 4)
    whole = oracle_metrics(golden, approx)
    chunks = []
    chunk_inputs = oracle_mod._chunk_inputs

    def spy(n):
        for planes in chunk_inputs(n):
            chunks.append(planes)
            yield planes

    monkeypatch.setattr(oracle_mod, "_CHUNK_BITS", 2)
    monkeypatch.setattr(oracle_mod, "_chunk_inputs", spy)
    assert oracle_metrics(golden, approx) == whole
    assert len(chunks) == 256
    assert len({id(p) for planes in chunks for p in planes}) <= 16 + 2


def test_interface_checks(identity2):
    other = Circuit(
        name="other",
        inputs=("x", "y"),
        outputs=("o0", "o1"),
        gates=(Gate("BUF", ("x",), "o0"), Gate("BUF", ("y",), "o1")),
    )
    with pytest.raises(InterfaceMismatchError):
        check_interface(identity2, other)
    narrower = Circuit(
        name="narrow",
        inputs=("i0", "i1"),
        outputs=("o0",),
        gates=(Gate("BUF", ("i0",), "o0"),),
    )
    with pytest.raises(InterfaceMismatchError):
        check_interface(identity2, narrower)
    signed = Circuit(
        name="signed",
        inputs=("i0", "i1"),
        outputs=("o0", "o1"),
        gates=(Gate("BUF", ("i0",), "o0"), Gate("BUF", ("i1",), "o1")),
        signed=True,
    )
    with pytest.raises(InterfaceMismatchError):
        check_interface(identity2, signed)


def test_simulate_adders_exhaustively_small():
    for kind in ("rca", "cla", "cska"):
        for signed in (False, True):
            c = gen_adder(kind, 2, signed)
            for bits in all_assignments(c.input_count):
                a, b = adder_value_pair(c, bits)
                assert int_value(simulate(c, bits)) == a + b
