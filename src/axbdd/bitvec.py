"""Multi-bit BDD words and ripple-carry arithmetic over them.

A word is a vector of BDD nodes, least significant bit first.  Circuits
compile into words; subtracting the words of two circuits yields the
signed difference function every error metric is computed on.

:func:`compile_circuit` translates a netlist into one straight-line
program of binary truth-table codes, one step per gate, and runs it on
the manager's node integers, so only the output word gets handles.  The
codes are this module's own, kept apart from the evaluators that
:mod:`axbdd.circuit` simulates with, so each side checks the other.

:func:`add` and :func:`subtract` share one ripple-carry cell,
:func:`_ripple`: one kernel walk per bit builds the sum (XOR3) and the
carry (majority) together, with no intermediate BDDs.  Subtraction is
the same cell with the second operand inverted inside both truth tables
and the carry input set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdd import _OP_CODES, BddError, BddManager, NodeRef
from .circuit import Circuit, bits_to_int

# 4-bit truth-table codes of the gates, bit 2a + b = op(a, b).  A unary
# gate is applied with its one input as both operands, so BUF is the code
# of a and NOT that of NOT a; a constant is applied to FALSE twice.
_GATE_CODES = {op.upper(): code for op, code in _OP_CODES.items()}
_GATE_CODES.update(CONST0=0b0000, CONST1=0b1111, BUF=0b1100, NOT=0b0011)

# 8-bit truth tables of the ripple cell, bit 4a + 2b + c = op(a, b, c):
# the sum a ^ b ^ c and the carry MAJ(a, b, c), and both with b inverted.
_ADD_SUM, _ADD_CARRY = 0x96, 0xE8
_SUB_SUM, _SUB_CARRY = 0x69, 0xB2


@dataclass(frozen=True)
class BddWord:
    """Vector of BDD nodes, least significant bit first."""

    bits: tuple[NodeRef, ...]
    signed: bool

    def __post_init__(self):
        if not self.bits:
            raise ValueError("a word needs at least one bit")
        manager = self.bits[0].manager
        if any(b.manager is not manager for b in self.bits):
            raise BddError("all bits of a word must share one manager")

    @property
    def manager(self) -> BddManager:
        return self.bits[0].manager

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def sign_bit(self) -> NodeRef:
        """Top bit; the sign for signed words."""
        return self.bits[-1]


def compile_circuit(manager: BddManager, circuit: Circuit) -> BddWord:
    """Build the BDD word of a circuit's outputs, gate by gate.

    The manager must have exactly the circuit's input count as
    variables; input declaration order is the variable order.  The
    gates become one :meth:`BddManager.build` program, one step per
    gate: a wire is a slot number, and only the outputs get handles.
    """
    if manager.var_count != circuit.input_count:
        raise BddError(
            f"manager has {manager.var_count} variables, "
            f"circuit {circuit.name!r} has {circuit.input_count} inputs"
        )
    slot = {name: 2 + i for i, name in enumerate(circuit.inputs)}
    slot[None] = 0  # a constant's operands: FALSE, under a key no wire has
    first_gate = 2 + circuit.input_count
    program = []
    for k, g in enumerate(circuit.gates):
        ins = g.inputs or (None,)
        program.append((_GATE_CODES[g.op], slot[ins[0]], slot[ins[-1]]))
        slot[g.out] = first_gate + k
    bits = manager.build(program, [slot[w] for w in circuit.outputs])
    return BddWord(tuple(bits), circuit.signed)


def extend(word: BddWord, width: int) -> BddWord:
    """Widen a word: zero-extension when unsigned, sign-extension when signed."""
    if width < word.width:
        raise ValueError(f"cannot narrow a {word.width}-bit word to {width}")
    if width == word.width:
        return word
    pad = word.sign_bit if word.signed else word.manager.false
    return BddWord(word.bits + (pad,) * (width - word.width), word.signed)


def _ripple(
    a: BddWord, b: BddWord, sum_table: int, carry_table: int, carry_in: bool,
    signed: bool,
) -> BddWord:
    """Ripple-carry word one bit wider than the wider operand.

    Bit i is ``sum_table(a_i, b_i, carry)`` and the next carry is
    ``carry_table(a_i, b_i, carry)``, for 8-bit truth tables.  One
    :meth:`BddManager._cell` walk builds both; the top bit needs no
    carry, so it is one :meth:`BddManager.apply3` call.
    """
    if a.manager is not b.manager:
        raise BddError("words belong to different managers")
    if a.signed != b.signed:
        raise ValueError("cannot mix signed and unsigned words")
    width = max(a.width, b.width) + 1
    a = extend(a, width)
    b = extend(b, width)
    manager = a.manager
    cell = manager._cell
    carry = manager.true if carry_in else manager.false
    bits = []
    for i in range(width - 1):
        bit, carry = cell(sum_table, carry_table, a.bits[i], b.bits[i], carry)
        bits.append(bit)
    bits.append(manager.apply3(sum_table, a.bits[-1], b.bits[-1], carry))
    return BddWord(tuple(bits), signed)


def add(a: BddWord, b: BddWord) -> BddWord:
    """Ripple-carry sum, one bit wider than the widest operand.

    One sum-and-carry kernel walk per bit (XOR3 and majority).  The extra
    bit absorbs the carry, so the integer value is exact for every
    assignment.
    """
    return _ripple(a, b, _ADD_SUM, _ADD_CARRY, False, a.signed)


def subtract(a: BddWord, b: BddWord) -> BddWord:
    """Ripple-carry difference as a signed word, one bit wider than the operands.

    The adder cell with the second operand inverted inside both truth
    tables, so no complement copy is built, and the carry input set: one
    sum-and-carry kernel walk per bit.  The extra bit means it can never
    overflow.
    """
    return _ripple(a, b, _SUB_SUM, _SUB_CARRY, True, True)


def word_value(word: BddWord, assignment) -> int:
    """Integer value of a word under one full assignment."""
    evaluate = word.manager.evaluate
    return bits_to_int([evaluate(bit, assignment) for bit in word.bits], word.signed)
