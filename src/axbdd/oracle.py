"""The enumeration oracle: exact error metrics by bit-parallel simulation.

Every wire is a bit plane, a numpy ``uint64`` array that packs 64 input
assignments into each word, and the assignments are enumerated in
chunks of 2^``_CHUNK_BITS`` words (:func:`_chunk_inputs`).  Both
circuits compile into one straight-line program over slots,
:class:`_Program`, which runs the gate table
:data:`axbdd.circuit.GATES`: a gate equal by operation and operand
slots to an earlier one is evaluated once, and each plane is dropped
after the last step that reads it, so a chunk holds only live planes.
The difference, its magnitude, the maximum and the sums are bitwise
arithmetic on the output planes (:func:`_tally`), totalled as
per-plane popcounts in Python ints, so any output width is exact.

This is the only module of the package that imports numpy, and it
imports nothing of the BDD side.  Its entry is
:func:`axbdd.circuit.oracle_metrics`, which checks the pair and the
input limit before it loads this module.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .circuit import GATES, Circuit

#: log2 of the words per chunk, so that chunks are powers of two like the
#: whole enumeration and tile it: 2^13 words, 2^19 assignments.  A plane is
#: then 64 KB, closer to the CPU caches than at 2^14 words, which measured
#: slower at 20 and 24 inputs.
_CHUNK_BITS = 13

#: Plane of input i < 6 in every word: lane k holds bit i of k, which
#: gives 0xAAAA..., 0xCCCC..., 0xF0F0..., ..., 0xFFFFFFFF00000000.
_LANE_MASKS = tuple(sum(1 << k for k in range(64) if k >> i & 1) for i in range(6))


def _flat(size: int, word: int) -> np.ndarray:
    """A read-only plane of ``size`` copies of one word, in one word of memory."""
    return np.broadcast_to(np.uint64(word), size)


def _chunk_inputs(n: int):
    """Yield the ``n`` input planes of each chunk of the enumeration.

    Lane k of word w is assignment 64 w + k, and input i is its bit i:
    inputs 0-5 are the lane masks, and input i >= 6 is all ones or all
    zeros by bit j = i - 6 of w.  A chunk holds the 2^c words of one
    ``w >> c``, c = ``_CHUNK_BITS``, so the lane masks and the bits j < c
    are the same planes in every chunk, and a bit j >= c is the flat
    plane (:func:`_flat`) of bit j - c of the chunk number.  Every plane
    is built once per call, and none may be written to.
    """
    high = max(0, n - 6)
    bits = min(_CHUNK_BITS, high)
    size = 1 << bits
    index = np.arange(size, dtype=np.uint64)
    low = [_flat(size, mask) for mask in _LANE_MASKS[:n]]
    low += [np.negative(index >> j & 1) for j in range(bits)]
    flat = (_flat(size, 0), _flat(size, (1 << 64) - 1))
    for chunk in range(1 << (high - bits)):
        yield low + [flat[chunk >> (j - bits) & 1] for j in range(bits, high)]


class _Program:
    """Circuits over the same inputs as one straight-line program on slots.

    Slots ``0 .. n - 1`` hold the inputs, and each gate step writes one
    new slot.  A gate whose ``(op, operand slot, operand slot)`` equals an
    earlier step's takes that step's slot and adds no step, so a gate is
    shared by value, whatever its wire is called and in whichever
    circuit it sits.  Only steps that some output depends on are kept.
    Each step lists the slots it reads for the last time, and
    :meth:`run` drops their planes as soon as the step is done; output
    planes are kept to the end.
    """

    def __init__(self, *circuits: Circuit):
        n = circuits[0].input_count
        keys: dict[tuple, int] = {}
        gates: list[tuple] = []
        self.outputs = []
        for c in circuits:
            slot = dict(zip(c.inputs, range(n)))
            for g in c.gates:
                ins = [slot[w] for w in g.inputs] or [0]
                key = (g.op, ins[0], ins[-1])
                if key not in keys:
                    keys[key] = n + len(gates)
                    gates.append(key)
                slot[g.out] = keys[key]
            self.outputs.append(tuple(slot[w] for w in c.outputs))
        self.size = n + len(gates)
        live = {s for outs in self.outputs for s in outs}
        steps = []
        for out in reversed(range(n, self.size)):
            if out in live:
                op, a, b = gates[out - n]
                steps.append((GATES[op][1], a, b, out, tuple({a, b} - live)))
                live.update((a, b))
        steps.reverse()
        self.steps = steps

    def run(self, planes: list) -> list[list[np.ndarray]]:
        """Each circuit's output planes, least significant first, from one
        plane per input."""
        values = planes + [None] * (self.size - len(planes))
        for evaluate, a, b, out, drops in self.steps:
            values[out] = evaluate(values[a], values[b])
            for s in drops:
                values[s] = None
        return [[values[s] for s in outs] for outs in self.outputs]


def _tally(f: list, fp: list, signed: bool) -> tuple[int, int, int]:
    """(largest, sum, nonzero count) of |F - F'| over the lanes of two
    m-bit output words.

    A ripple borrow forms d = F - F' over m + 1 planes, each word extended
    by its sign plane if signed and by zero if not; the borrow out of a
    bit is the bit of F' where the bits differ and the borrow in where
    they agree, so a bit both words take from the same slot passes the
    borrow on untouched.  Then |d| = (d ^ s) + s with s the sign plane of
    d, and |F - F'| < 2^m, so m planes hold it; each plane of d is
    dropped once its magnitude plane is formed.
    """
    zero = _flat(len(f[0]), 0)
    diff = borrow = x = zero
    d = []
    for a, b in zip(f, fp):
        if a is b:
            x = zero
            d.append(borrow)
            continue
        x = a ^ b
        diff = diff | x
        d.append(x ^ borrow)
        borrow = borrow ^ (x & (b ^ borrow))
    s = borrow ^ x if signed else borrow
    mag = []
    total = 0
    carry = s
    for i in range(len(d)):
        x = d[i] ^ s
        d[i] = None
        mag.append(x ^ carry)
        carry = x & carry
        total += _popcount(mag[-1]) << i
    return _largest(mag), total, _popcount(diff)


def _popcount(plane: np.ndarray) -> int:
    return int(np.bitwise_count(plane).sum())


def _largest(planes: list) -> int:
    """Largest value any lane holds, by a scan from the top plane down."""
    value, live = 0, None
    for i in reversed(range(len(planes))):
        hit = planes[i] if live is None else live & planes[i]
        if hit.any():
            value |= 1 << i
            live = hit
    return value


def enumerate_metrics(f: Circuit, fp: Circuit) -> tuple[int, Fraction, Fraction]:
    """(wce, mae, error_rate) of two circuits with the same interface."""
    n = f.input_count
    words = max(1, (1 << n) >> 6)
    program = _Program(f, fp)
    wce = abs_sum = diff_count = 0
    for planes in _chunk_inputs(n):
        # ``outputs`` holds a chunk's output planes until the next chunk's
        # replace them.  Were every plane freed at a chunk's end, the
        # allocator could hand that memory back to the system and the next
        # chunk would fault it in again: a 26-input rca pair took about 560
        # page faults per chunk that way, against about 14.
        outputs = program.run(planes)
        largest, chunk_sum, chunk_diff = _tally(*outputs, f.signed)
        wce = max(wce, largest)
        abs_sum += chunk_sum
        diff_count += chunk_diff
    # Below 6 inputs the one word holds each of the 2^n rows 2^(6 - n)
    # times, which scales both sums alike and leaves the maximum alone.
    total = words << 6
    return wce, Fraction(abs_sum, total), Fraction(diff_count, total)
