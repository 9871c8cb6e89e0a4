import itertools

import pytest

from axbdd import Circuit, Gate, bits_to_int, int_value, simulate
from axbdd.circuit import GATES


def all_assignments(n):
    """Every input assignment as a tuple of bits, LSB of the index first."""
    return itertools.product((0, 1), repeat=n)


def brute_force_metrics(f, fp):
    """Reference triple (wce, abs_sum, diff_count) by plain simulation.

    Deliberately naive: a scalar loop over every assignment with its own
    sum and maximum.  It shares the gate evaluators of ``circuit.GATES``
    with the bit-sliced oracle, but not the oracle's planes, chunking or
    plane arithmetic, and nothing of the BDD algorithms.
    """
    wce = 0
    abs_sum = 0
    diff_count = 0
    for bits in all_assignments(f.input_count):
        vf = int_value(simulate(f, bits))
        vp = int_value(simulate(fp, bits))
        d = abs(vf - vp)
        wce = max(wce, d)
        abs_sum += d
        if vf != vp:
            diff_count += 1
    return wce, abs_sum, diff_count


def random_netlist(rng, name, inputs, output_count, signed):
    """Random gate DAG over ``inputs``: every gate kind, outputs on any wire."""
    wires = list(inputs)
    gates = []
    for k in range(rng.randint(0, 10)):
        op = rng.choice(tuple(GATES))
        args = tuple(rng.choice(wires) for _ in range(GATES[op][0]))
        gates.append(Gate(op, args, f"w{k}"))
        wires.append(f"w{k}")
    outputs = tuple(rng.choice(wires) for _ in range(output_count))
    return Circuit(name, inputs, outputs, tuple(gates), signed)


def adder_value_pair(circuit, bits):
    """(a, b) operand values for an interleaved-input adder assignment."""
    a = bits_to_int(bits[0::2], circuit.signed)
    b = bits_to_int(bits[1::2], circuit.signed)
    return a, b


@pytest.fixture
def identity2():
    return Circuit(
        name="id2",
        inputs=("i0", "i1"),
        outputs=("o0", "o1"),
        gates=(Gate("BUF", ("i0",), "o0"), Gate("BUF", ("i1",), "o1")),
    )


@pytest.fixture
def truncated2():
    """Two-bit identity with the LSB output forced to zero."""
    return Circuit(
        name="id2_trunc",
        inputs=("i0", "i1"),
        outputs=("z", "o1"),
        gates=(Gate("CONST0", (), "z"), Gate("BUF", ("i1",), "o1")),
    )


@pytest.fixture
def zeros2():
    return Circuit(
        name="zeros2",
        inputs=("i0", "i1"),
        outputs=("z0", "z1"),
        gates=(Gate("CONST0", (), "z0"), Gate("CONST0", (), "z1")),
    )


HALF_ADDER_TEXT = """\
.model half_adder
.inputs a b
.outputs s0 s1
.gate XOR a b -> s0
.gate AND a b -> s1
.end
"""


def xor_chain_text(n):
    """Netlist of the XOR of ``n`` inputs, folded left to right."""
    lines = [".model xor_chain", ".inputs " + " ".join(f"x{i}" for i in range(n))]
    lines.append(f".outputs t{n - 1}")
    lines.append(".gate BUF x0 -> t0")
    lines += [f".gate XOR t{i - 1} x{i} -> t{i}" for i in range(1, n)]
    return "\n".join(lines + [".end"]) + "\n"
