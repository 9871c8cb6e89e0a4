"""Multi-bit BDD words and ripple-carry arithmetic over them.

A word is a vector of BDD nodes, least significant bit first.  Circuits
compile into words; subtracting the words of two circuits yields the
signed difference function every error metric is computed on.

:func:`add` and :func:`subtract` share one ripple-carry cell,
:func:`_ripple`; subtraction is the same cell with the second operand
inverted inside its operations and the carry input set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdd import BddError, BddManager, NodeRef
from .circuit import Circuit, bits_to_int


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
    variables; input declaration order is the variable order.
    """
    if manager.var_count != circuit.input_count:
        raise BddError(
            f"manager has {manager.var_count} variables, "
            f"circuit {circuit.name!r} has {circuit.input_count} inputs"
        )
    wires: dict[str, NodeRef] = {}
    for i, name in enumerate(circuit.inputs):
        wires[name] = manager.var(i)
    for g in circuit.gates:
        op = g.op
        if op == "CONST0":
            node = manager.false
        elif op == "CONST1":
            node = manager.true
        elif op == "BUF":
            node = wires[g.inputs[0]]
        elif op == "NOT":
            node = manager.not_(wires[g.inputs[0]])
        else:
            node = manager.apply(op, wires[g.inputs[0]], wires[g.inputs[1]])
        wires[g.out] = node
    return BddWord(tuple(wires[w] for w in circuit.outputs), circuit.signed)


def extend(word: BddWord, width: int) -> BddWord:
    """Widen a word: zero-extension when unsigned, sign-extension when signed."""
    if width < word.width:
        raise ValueError(f"cannot narrow a {word.width}-bit word to {width}")
    if width == word.width:
        return word
    pad = word.sign_bit if word.signed else word.manager.false
    return BddWord(word.bits + (pad,) * (width - word.width), word.signed)


def _ripple(
    a: BddWord, b: BddWord, half: str, generate: str, carry_in: bool, signed: bool
) -> BddWord:
    """Ripple-carry word one bit wider than the wider operand.

    Bit i is ``h XOR carry`` with ``h = half(a_i, b_i)``; the next carry
    is ``generate(a_i, b_i) OR (h AND carry)``.  The last carry is dropped.
    """
    if a.manager is not b.manager:
        raise BddError("words belong to different managers")
    if a.signed != b.signed:
        raise ValueError("cannot mix signed and unsigned words")
    width = max(a.width, b.width) + 1
    a = extend(a, width)
    b = extend(b, width)
    manager = a.manager
    apply = manager.apply
    carry = manager.true if carry_in else manager.false
    bits = []
    for i in range(width):
        abit, bbit = a.bits[i], b.bits[i]
        h = apply(half, abit, bbit)
        bits.append(apply("xor", h, carry))
        if i + 1 < width:
            carry = apply("or", apply(generate, abit, bbit), apply("and", h, carry))
    return BddWord(tuple(bits), signed)


def add(a: BddWord, b: BddWord) -> BddWord:
    """Ripple-carry sum, one bit wider than the widest operand.

    The extra bit absorbs the carry, so the integer value is exact for
    every assignment.
    """
    return _ripple(a, b, "xor", "and", False, a.signed)


def subtract(a: BddWord, b: BddWord) -> BddWord:
    """Ripple-carry difference as a signed word, one bit wider than the operands.

    The adder cell with the second operand inverted, fused into its
    operations (XNOR and and-not) so no complement copy is built, and
    the carry input set.  The extra bit means it can never overflow.
    """
    return _ripple(a, b, "xnor", "andnot", True, True)


def word_value(word: BddWord, assignment) -> int:
    """Integer value of a word under one full assignment."""
    evaluate = word.manager.evaluate
    return bits_to_int([evaluate(bit, assignment) for bit in word.bits], word.signed)
