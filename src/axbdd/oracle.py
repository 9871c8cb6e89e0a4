"""The enumeration oracle: exact error metrics by bit-parallel simulation.

Every wire is a bit plane, a numpy ``uint64`` array that packs 64 input
assignments into each word, and the assignments are enumerated in
chunks of 2^``_CHUNK_BITS`` words (:func:`_chunk_inputs`).  A chunk's
planes have one axis per bit of the word index, and an input plane has
length 2 only on its own axis, so numpy broadcasting gives each wire
words only along the inputs it depends on: sum bit i of a ripple-carry
adder holds 2^max(0, 2i - 4) words, up to the chunk's 2^``_CHUNK_BITS``,
and :func:`_popcount` counts each word it holds once for every chunk
word it stands for.  Both circuits compile into one straight-line program over slots,
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
#: whole enumeration and tile it: 2^14 words, 2^20 assignments, so a
#: 20-input pair is one chunk and a plane that spans every word is 128 KB.
#: Per pair of 4-edit adder mutants on a 2-core box, 2^14 ran no slower
#: than 2^13 at any width: 2.3-4.3 against 2.5-4.8 ms at 20 inputs,
#: 29-39 against 34-54 ms at 24, 0.49-0.52 against 0.57-0.61 s at 28 and
#: 9.3-10.6 against 11.5 s at 32.
_CHUNK_BITS = 14

#: Plane of input i < 6 in every word: lane k holds bit i of k, which
#: gives 0xAAAA..., 0xCCCC..., 0xF0F0..., ..., 0xFFFFFFFF00000000.
_LANE_MASKS = tuple(sum(1 << k for k in range(64) if k >> i & 1) for i in range(6))


def _chunk_inputs(n: int):
    """Yield the ``n`` input planes of each chunk of the enumeration.

    Lane k of word w is assignment 64 w + k, and input i is its bit i:
    inputs 0-5 are the lane masks, and input i >= 6 is all ones or all
    zeros by bit j = i - 6 of w.  A chunk holds the 2^c words of one
    ``w >> c``, c = ``_CHUNK_BITS``, as an array with one axis per bit of
    the word index, bit j on axis c - 1 - j, so that a plane broadcast to
    shape ``(2,) * c`` lists the words in order.  Input 6 + j, j < c, is
    ``[0, ~0]`` along its axis and has length 1 on the others; a lane
    mask, and a bit j >= c, which is bit j - c of the chunk number, is
    one word of shape ``(1,) * c``.  A gate's plane then has length 2 only
    on the axes of the inputs it depends on.  Every plane is built once
    per call, and none may be written to.
    """
    high = max(0, n - 6)
    bits = min(_CHUNK_BITS, high)
    unit = (1,) * bits
    ones = (1 << 64) - 1
    low = [np.full(unit, mask, np.uint64) for mask in _LANE_MASKS[:n]]
    low += [
        np.array([0, ones], np.uint64).reshape(unit[j + 1:] + (2,) + unit[:j])
        for j in range(bits)
    ]
    flat = (np.zeros(unit, np.uint64), np.full(unit, ones, np.uint64))
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


def _tally(f: list, fp: list, signed: bool) -> tuple[list, int, int]:
    """(magnitude planes, sum, nonzero count) of |F - F'| over the lanes
    of two m-bit output words.

    A ripple borrow forms d = F - F' over m + 1 planes, each word extended
    by its sign plane if signed and by zero if not; the borrow out of a
    bit is the bit of F' where the bits differ and the borrow in where
    they agree, so a bit both words take from the same slot passes the
    borrow on untouched.  Then |d| = (d ^ s) + s with s the sign plane of
    d, and |F - F'| < 2^m, so m planes hold it; each plane of d is
    dropped once its magnitude plane is formed.
    """
    zero = np.zeros((1,) * np.ndim(f[0]), np.uint64)
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
    return mag, total, _popcount(diff)


def _popcount(plane: np.ndarray) -> int:
    """Set bits of a plane over its chunk: a plane with k axes of length 1
    stands for 2^k words per word it holds (:func:`_chunk_inputs`)."""
    k = np.ndim(plane) - (np.size(plane).bit_length() - 1)
    return int(np.bitwise_count(plane).sum()) << k


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
        # ``outputs`` and ``mag`` hold a chunk's output and magnitude planes
        # until the next chunk's replace them.  Were they freed at a chunk's
        # end, the allocator could hand that memory back to the system and
        # the next chunk would fault it in again: 28-input pairs of 4-edit
        # adder mutants took about 400 page faults per chunk with only
        # ``outputs`` held, against about 100 with both, and ran 20 % slower.
        outputs = program.run(planes)
        mag, chunk_sum, chunk_diff = _tally(*outputs, f.signed)
        wce = max(wce, _largest(mag))
        abs_sum += chunk_sum
        diff_count += chunk_diff
    # Below 6 inputs the one word holds each of the 2^n rows 2^(6 - n)
    # times, which scales both sums alike and leaves the maximum alone.
    total = words << 6
    return wce, Fraction(abs_sum, total), Fraction(diff_count, total)
