"""Seed adder netlists and random point mutations.

Three classic two-operand adder topologies (ripple-carry, block-4
carry-lookahead, block-4 carry-skip), each in an unsigned and a signed
variant.  Inputs are interleaved (a0 b0 a1 b1 ...) so the compiled BDDs
stay linear in the operand width.
"""

from __future__ import annotations

import random

from .circuit import GATES, Circuit, Gate

RCA = "rca"
CLA = "cla"
CSKA = "cska"
ADDER_KINDS = (RCA, CLA, CSKA)

_BLOCK = 4

# The gate operations by input count, in table order.
_CONST_OPS, _ONE_INPUT_OPS, _TWO_INPUT_OPS = (
    tuple(op for op, (arity, _) in GATES.items() if arity == k) for k in range(3)
)


class _Builder:
    """Accumulates gates and hands out unique temporary wire names."""

    def __init__(self):
        self.gates: list[Gate] = []
        self._tmp = 0

    def emit(self, op: str, ins: tuple[str, ...], out: str) -> str:
        self.gates.append(Gate(op, ins, out))
        return out

    def tmp(self, op: str, *ins: str) -> str:
        self._tmp += 1
        return self.emit(op, ins, f"u{self._tmp}")

    def or_tree(self, terms: list[str]) -> str:
        acc = terms[0]
        for term in terms[1:]:
            acc = self.tmp("OR", acc, term)
        return acc


def _interleaved_inputs(bits: int) -> tuple[str, ...]:
    names = []
    for i in range(bits):
        names.append(f"a{i}")
        names.append(f"b{i}")
    return tuple(names)


def _finish(kind, bits, signed, builder, sums, top_propagate, carry_out):
    # MSB is the carry out when unsigned; signed operands are
    # sign-extended one position, which folds into one extra XOR.
    if signed:
        sums.append(builder.emit("XOR", (top_propagate, carry_out), f"s{bits}"))
    else:
        sums.append(carry_out)
    name = f"{kind}{bits}{'s' if signed else 'u'}"
    return Circuit(
        name=name,
        inputs=_interleaved_inputs(bits),
        outputs=tuple(sums),
        gates=tuple(builder.gates),
        signed=signed,
    )


def _gen_rca(bits: int, signed: bool) -> Circuit:
    b = _Builder()
    sums = []
    carry = None
    for i in range(bits):
        a, y = f"a{i}", f"b{i}"
        if i == 0:
            sums.append(b.emit("XOR", (a, y), "s0"))
            carry = b.emit("AND", (a, y), "c1")
            top = "s0"
        else:
            x = b.emit("XOR", (a, y), f"x{i}")
            sums.append(b.emit("XOR", (x, carry), f"s{i}"))
            gen = b.emit("AND", (a, y), f"g{i}")
            t = b.emit("AND", (x, carry), f"t{i}")
            carry = b.emit("OR", (gen, t), f"c{i + 1}")
            top = x
    return _finish(RCA, bits, signed, b, sums, top, carry)


def _gen_cla(bits: int, signed: bool) -> Circuit:
    b = _Builder()
    p = [b.emit("XOR", (f"a{i}", f"b{i}"), f"p{i}") for i in range(bits)]
    g = [b.emit("AND", (f"a{i}", f"b{i}"), f"g{i}") for i in range(bits)]
    sums = []
    cin = None
    for lo in range(0, bits, _BLOCK):
        hi = min(lo + _BLOCK, bits)
        sums.append(p[lo] if cin is None else b.emit("XOR", (p[lo], cin), f"s{lo}"))
        # Two-level carries: c_j = g_{j-1} + p_{j-1}g_{j-2} + ... (+ prefix*cin)
        for j in range(lo + 1, hi + 1):
            prod = p[j - 1]
            terms = [g[j - 1]]
            for t in range(j - 2, lo - 1, -1):
                terms.append(b.tmp("AND", prod, g[t]))
                if t > lo or cin is not None:
                    prod = b.tmp("AND", prod, p[t])
            if cin is not None:
                terms.append(b.tmp("AND", prod, cin))
            carry = b.or_tree(terms) if len(terms) > 1 else terms[0]
            if j < hi:
                sums.append(b.emit("XOR", (p[j], carry), f"s{j}"))
        cin = carry
    return _finish(CLA, bits, signed, b, sums, p[bits - 1], cin)


def _gen_cska(bits: int, signed: bool) -> Circuit:
    b = _Builder()
    p = [b.emit("XOR", (f"a{i}", f"b{i}"), f"p{i}") for i in range(bits)]
    sums = []
    cin = None
    for lo in range(0, bits, _BLOCK):
        hi = min(lo + _BLOCK, bits)
        carry = cin
        for i in range(lo, hi):
            if carry is None:
                sums.append(p[i])
                carry = b.emit("AND", (f"a{i}", f"b{i}"), f"c{i + 1}")
            else:
                sums.append(b.emit("XOR", (p[i], carry), f"s{i}"))
                gen = b.emit("AND", (f"a{i}", f"b{i}"), f"g{i}")
                t = b.emit("AND", (p[i], carry), f"t{i}")
                carry = b.emit("OR", (gen, t), f"c{i + 1}")
        if cin is not None:
            # Skip path: when every stage propagates, the block carry is
            # just the incoming carry.
            prop = p[lo]
            for i in range(lo + 1, hi):
                prop = b.tmp("AND", prop, p[i])
            skip = b.tmp("AND", prop, cin)
            carry = b.tmp("OR", carry, skip)
        cin = carry
    return _finish(CSKA, bits, signed, b, sums, p[bits - 1], cin)


_GENERATORS = {RCA: _gen_rca, CLA: _gen_cla, CSKA: _gen_cska}


def gen_adder(kind: str, bits: int, signed: bool = False) -> Circuit:
    """Exact two-operand adder: 2*bits inputs, bits+1 outputs, LSB first."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown adder kind {kind!r}; expected one of {ADDER_KINDS}")
    if type(bits) is not int or not 1 <= bits <= 32:
        raise ValueError(f"operand width {bits!r} is not an int in 1..32")
    if type(signed) is not bool:
        raise ValueError(f"signed must be a bool, got {signed!r}")
    return _GENERATORS[kind](bits, signed)


def mutate(circuit: Circuit, seed: int, edits: int) -> Circuit:
    """Apply random point mutations, keeping the interface and the DAG intact.

    Each edit picks one gate and either swaps its operation, rewires one
    input to a random earlier wire, or collapses it to a constant.
    Deterministic for a given seed.
    """
    if type(edits) is not int or edits < 1:
        raise ValueError(f"edits must be an int >= 1, got {edits!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if not circuit.gates:
        raise ValueError(f"circuit {circuit.name!r} has no gates to mutate")
    rng = random.Random(seed)
    gates = list(circuit.gates)
    for _ in range(edits):
        idx = rng.randrange(len(gates))
        g = gates[idx]
        earlier = list(circuit.inputs) + [h.out for h in gates[:idx]]
        move = rng.choice(("op", "rewire", "const"))
        if move == "const":
            gates[idx] = Gate(rng.choice(_CONST_OPS), (), g.out)
        elif not g.inputs:
            # A constant has no operation to flip and no input to rewire;
            # grow it back into a unary gate over some earlier wire.
            gates[idx] = Gate(
                rng.choice(_ONE_INPUT_OPS), (rng.choice(earlier),), g.out
            )
        elif move == "op":
            if len(g.inputs) == 2:
                new_op = rng.choice([op for op in _TWO_INPUT_OPS if op != g.op])
                gates[idx] = Gate(new_op, g.inputs, g.out)
            else:
                gates[idx] = Gate("NOT" if g.op == "BUF" else "BUF", g.inputs, g.out)
        else:
            pos = rng.randrange(len(g.inputs))
            wired = list(g.inputs)
            wired[pos] = rng.choice(earlier)
            gates[idx] = Gate(g.op, tuple(wired), g.out)
    return Circuit(
        name=circuit.name,
        inputs=circuit.inputs,
        outputs=circuit.outputs,
        gates=tuple(gates),
        signed=circuit.signed,
    )
