import random
from fractions import Fraction

import pytest

from axbdd import (
    Circuit,
    Gate,
    InterfaceMismatchError,
    NetlistError,
    OracleLimitError,
    OutputWord,
    bits_to_int,
    check_interface,
    emit,
    evaluate_error,
    gen_adder,
    int_value,
    mutate,
    oracle_metrics,
    parse,
    simulate,
)

from conftest import HALF_ADDER_TEXT, adder_value_pair, all_assignments, brute_force_metrics


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
    for bits, expected in table.items():
        use = bits[: c.input_count]
        assert simulate(c, use).bits == (expected,)


def test_simulate_length_mismatch(identity2):
    with pytest.raises(ValueError):
        simulate(identity2, (1,))


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
    # 50-bit differences over 2^18-row chunks sum past int64.
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


def test_oracle_output_width_limit():
    inputs = ("a",)
    for width, fits in ((62, True), (63, False)):
        outputs = tuple(f"o{k}" for k in range(width))
        ones, zeros = (
            Circuit(op, inputs, outputs, tuple(Gate(op, (), o) for o in outputs))
            for op in ("CONST1", "CONST0")
        )
        if fits:
            top = (1 << width) - 1
            assert oracle_metrics(ones, zeros) == (top, Fraction(top), Fraction(1))
        else:
            with pytest.raises(OracleLimitError, match="63 outputs"):
                oracle_metrics(ones, zeros)


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
