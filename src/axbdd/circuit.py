"""Gate-level netlists: text format, simulation, and the enumeration oracle.

The text format is line oriented (``#`` starts a comment)::

    .model <name>
    .inputs <w> <w> ...        # declaration order = BDD variable order
    .outputs <w> <w> ...       # least significant bit first
    .signed <true|false>       # optional, default false
    .gate <OP> <in1> [<in2>] -> <out>
    .end

The gate operations and their input counts are the rows of
:data:`GATES`.  Gates must appear in topological order, one per line.

:func:`parse` checks the syntax (directives, token shape, ``.inputs``
before gates) and :class:`Circuit` the wires (arity, definition order,
duplicates, outputs); a parse error names its line wherever it has one.

Both referees, :func:`simulate` and the enumeration oracle
:func:`oracle_metrics`, evaluate gates through the one table
:data:`GATES`: ``simulate`` on 0/1 ints, the oracle on bit planes that
pack 64 assignments into each ``uint64`` word.  The oracle compiles
both circuits into one straight-line program over slots, in which a
gate equal by operation and operand slots to an earlier one is
evaluated once, and it drops each plane after the last step that reads
it, so a chunk holds only live planes.  The BDD compiler in
:mod:`axbdd.bitvec` codes the same gates as truth tables of its own, so
a wrong entry on either side shows up as a mismatch between the BDD and
the referees.  The oracle's arithmetic is its own numpy code; this
module imports nothing of the BDD side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Every gate operation: name -> (input count, evaluator).  An evaluator
#: is a bitwise form of its two operands, right on 0/1 Python ints (in
#: bit 0: ints are two's complement, so ``~`` keeps it) and on numpy
#: ``uint64`` planes (in every bit).  A unary gate gets its input twice, a
#: constant the circuit's first input twice.  The order is the order
#: mutations draw in.
GATES = {
    "CONST0": (0, lambda a, b: a ^ a),
    "CONST1": (0, lambda a, b: ~(a ^ a)),
    "BUF": (1, lambda a, b: a),
    "NOT": (1, lambda a, b: ~a),
    "AND": (2, lambda a, b: a & b),
    "OR": (2, lambda a, b: a | b),
    "XOR": (2, lambda a, b: a ^ b),
    "NAND": (2, lambda a, b: ~(a & b)),
    "NOR": (2, lambda a, b: ~(a | b)),
    "XNOR": (2, lambda a, b: ~(a ^ b)),
}

#: Largest input count the exhaustive oracle will enumerate by default.
DEFAULT_ORACLE_LIMIT = 24

#: Words per chunk of the oracle's enumeration: 2^19 assignments.  A
#: plane is then 64 KB, and a chunk's planes stay closer to the CPU
#: caches than at 2^14 words, which measured slower at 20 and 24 inputs.
_ORACLE_WORDS = 1 << 13

#: Plane of input i < 6 in every word: lane k holds bit i of k, which
#: gives 0xAAAA..., 0xCCCC..., 0xF0F0..., ..., 0xFFFFFFFF00000000.
_LANE_MASKS = tuple(sum(1 << k for k in range(64) if k >> i & 1) for i in range(6))


class NetlistError(ValueError):
    """Malformed netlist text or an ill-formed circuit.

    ``line`` (source line) and ``gate`` (index into ``Circuit.gates``)
    locate the fault, or are ``None`` where it has no such place.
    """

    def __init__(
        self, message: str, line: int | None = None, gate: int | None = None
    ):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.gate = gate


class InterfaceMismatchError(ValueError):
    """Two circuits that must share inputs/outputs/signedness do not."""


class OracleLimitError(ValueError):
    """Exhaustive enumeration refused: too many inputs."""


@dataclass(frozen=True)
class Gate:
    op: str
    inputs: tuple[str, ...]
    out: str


@dataclass(frozen=True)
class OutputWord:
    """Concrete output bits of one simulation, least significant first."""

    bits: tuple[int, ...]
    signed: bool


@dataclass(frozen=True)
class Circuit:
    """Immutable combinational gate DAG with an ordered I/O interface.

    Construction checks every wire in one pass; a faulty gate raises a
    :class:`NetlistError` whose ``gate`` is the gate's position.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    signed: bool = False

    def __post_init__(self):
        if self.input_count < 1:
            raise NetlistError("circuit needs at least one input")
        if self.output_count < 1:
            raise NetlistError("circuit needs at least one output")
        defined = set()
        for w in self.inputs:
            if w in defined:
                raise NetlistError(f"duplicate input {w!r}")
            defined.add(w)
        for i, g in enumerate(self.gates):
            if g.op not in GATES:
                raise NetlistError(f"unknown gate operation {g.op!r}", gate=i)
            arity = GATES[g.op][0]
            if len(g.inputs) != arity:
                raise NetlistError(
                    f"{g.op} takes {arity} input(s), got {len(g.inputs)}", gate=i
                )
            for w in g.inputs:
                if w not in defined:
                    if any(h.out == w for h in self.gates[i:]):
                        raise NetlistError(
                            f"wire {w!r} used before its definition "
                            "(cycle or gates out of topological order)",
                            gate=i,
                        )
                    raise NetlistError(f"undefined wire {w!r}", gate=i)
            if g.out in defined:
                raise NetlistError(f"duplicate definition of wire {g.out!r}", gate=i)
            defined.add(g.out)
        for w in self.outputs:
            if w not in defined:
                raise NetlistError(f"output wire {w!r} is never defined")

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    def gate_count(self) -> int:
        return len(self.gates)

    def active_gate_count(self) -> int:
        """Gates lying on some path to an output."""
        produced = {g.out: g for g in self.gates}
        live = set()
        stack = [w for w in self.outputs if w in produced]
        while stack:
            w = stack.pop()
            if w in live:
                continue
            live.add(w)
            stack.extend(v for v in produced[w].inputs if v in produced)
        return len(live)


def parse(text: str) -> Circuit:
    """Parse netlist source into a validated :class:`Circuit`."""
    name = None
    inputs: list[str] | None = None
    outputs: list[str] | None = None
    signed = False
    gates: list[Gate] = []
    gate_lines: list[int] = []
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise NetlistError("content after .end", lineno)
        tokens = line.split()
        head = tokens[0]
        if head == ".model":
            if len(tokens) != 2:
                raise NetlistError(".model takes exactly one name", lineno)
            name = tokens[1]
        elif head == ".inputs":
            if inputs is not None:
                raise NetlistError("duplicate .inputs", lineno)
            if len(tokens) < 2:
                raise NetlistError(".inputs needs at least one wire", lineno)
            inputs = tokens[1:]
        elif head == ".outputs":
            if outputs is not None:
                raise NetlistError("duplicate .outputs", lineno)
            if len(tokens) < 2:
                raise NetlistError(".outputs needs at least one wire", lineno)
            outputs = tokens[1:]
        elif head == ".signed":
            if len(tokens) != 2 or tokens[1] not in ("true", "false"):
                raise NetlistError(".signed takes true or false", lineno)
            signed = tokens[1] == "true"
        elif head == ".gate":
            if inputs is None:
                raise NetlistError(".inputs must precede gates", lineno)
            if len(tokens) < 4 or tokens[-2] != "->":
                raise NetlistError(
                    "expected .gate <OP> <in...> -> <out>", lineno
                )
            gates.append(Gate(tokens[1], tuple(tokens[2:-2]), tokens[-1]))
            gate_lines.append(lineno)
        elif head == ".end":
            ended = True
        else:
            raise NetlistError(f"unknown directive {head!r}", lineno)

    if not ended:
        raise NetlistError("missing .end")
    if name is None:
        raise NetlistError("missing .model")
    if inputs is None:
        raise NetlistError("missing .inputs")
    if outputs is None:
        raise NetlistError("missing .outputs")

    try:
        return Circuit(name, tuple(inputs), tuple(outputs), tuple(gates), signed)
    except NetlistError as exc:
        if exc.gate is None:
            raise
        raise NetlistError(str(exc), gate_lines[exc.gate], exc.gate) from None


def parse_file(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def emit(c: Circuit) -> str:
    """Netlist source for a circuit; ``parse(emit(c)) == c``."""
    lines = [
        f".model {c.name}",
        ".inputs " + " ".join(c.inputs),
        ".outputs " + " ".join(c.outputs),
        f".signed {'true' if c.signed else 'false'}",
    ]
    for g in c.gates:
        parts = [".gate", g.op, *g.inputs, "->", g.out]
        lines.append(" ".join(parts))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def simulate(c: Circuit, assignment) -> OutputWord:
    """Evaluate one input assignment gate by gate."""
    if len(assignment) != c.input_count:
        raise ValueError(
            f"assignment has {len(assignment)} bits, circuit has {c.input_count} inputs"
        )
    values = dict(zip(c.inputs, (int(bool(v)) for v in assignment)))
    first = c.inputs[:1]
    for g in c.gates:
        ins = g.inputs or first
        values[g.out] = GATES[g.op][1](values[ins[0]], values[ins[-1]])
    return OutputWord(tuple(values[w] & 1 for w in c.outputs), c.signed)


def bits_to_int(bits, signed: bool) -> int:
    """Integer value of a bit vector, least significant bit first."""
    value = 0
    for i, bit in enumerate(bits):
        value |= (1 if bit else 0) << i
    if signed and bits[-1]:
        value -= 1 << len(bits)
    return value


def int_value(w: OutputWord) -> int:
    return bits_to_int(w.bits, w.signed)


def check_interface(f: Circuit, fp: Circuit) -> None:
    """Require the interface both circuits of an error analysis must share."""
    problems = []
    if f.inputs != fp.inputs:
        problems.append("input names/order differ")
    if f.output_count != fp.output_count:
        problems.append(
            f"output counts differ ({f.output_count} vs {fp.output_count})"
        )
    if f.signed != fp.signed:
        problems.append("signedness differs")
    if problems:
        raise InterfaceMismatchError(
            f"{f.name!r} vs {fp.name!r}: " + "; ".join(problems)
        )


def _flat(size: int, word: int) -> np.ndarray:
    """A read-only plane of ``size`` copies of one word, in one word of memory."""
    return np.broadcast_to(np.uint64(word), size)


def _chunk_inputs(n: int, words: int):
    """Yield the ``n`` input planes of each chunk of ``_ORACLE_WORDS`` words.

    Lane k of word w is assignment 64 w + k, and input i is its bit i:
    inputs 0-5 are the lane masks, and input i >= 6 is all ones or all
    zeros by bit i - 6 of the word index.  A plane that repeats across
    chunks is built once per call: the lane masks and the all-zero and
    all-one planes of inputs constant over a chunk (each one word of
    memory, see :func:`_flat`), and the word-index bits whose period
    divides the chunk size, since chunks start at multiples of it.  Any
    other plane is built for its chunk only, so memory does not grow
    with the number of chunks.  No plane may be written to.
    """
    size = min(_ORACLE_WORDS, words)
    index = np.arange(size, dtype=np.uint64)
    lanes = [_flat(size, mask) for mask in _LANE_MASKS[:n]]
    periodic = {
        j: np.negative(index >> j & 1)
        for j in range(n - 6)
        if size % (2 << j) == 0
    }
    flat = {}
    for start in range(0, words, size):
        count = min(size, words - start)
        last = start + count - 1
        planes = lanes[:]
        for j in range(n - 6):
            if start >> j == last >> j:
                bit = start >> j & 1
                if bit not in flat:
                    flat[bit] = _flat(size, bit * ((1 << 64) - 1))
                planes.append(flat[bit])
            elif j in periodic:
                planes.append(periodic[j])
            else:
                word = np.arange(start, start + count, dtype=np.uint64)
                planes.append(np.negative(word >> j & 1))
        yield planes if count == size else [p[:count] for p in planes]


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


def oracle_metrics(
    f: Circuit, fp: Circuit, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, Fraction, Fraction]:
    """Exact (wce, mae, error_rate) by enumerating every input assignment.

    Bit-parallel: every wire is a ``uint64`` plane that holds 64
    assignments per word, in chunks of ``_ORACLE_WORDS`` words.  Both
    circuits run as one :class:`_Program` through :data:`GATES`, so a
    gate the approximation shares by value with the golden circuit is
    evaluated once, and a plane is dropped after the last step that
    reads it.  The difference, its magnitude, the maximum and the sums
    are bitwise arithmetic on the output planes, totalled as per-plane
    popcounts over every lane in Python ints, so any output width is
    exact.
    Refuses input counts above ``limit``: enumeration time doubles per
    extra input.
    """
    check_interface(f, fp)
    n = f.input_count
    if n > limit:
        raise OracleLimitError(
            f"{n} inputs exceed the oracle limit of {limit}"
        )
    words = max(1, (1 << n) >> 6)
    program = _Program(f, fp)
    wce = abs_sum = diff_count = 0
    for planes in _chunk_inputs(n, words):
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
