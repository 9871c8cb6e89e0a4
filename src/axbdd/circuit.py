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
pack 64 assignments into each ``uint64`` word.  The BDD compiler in
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


def _run_gates(c: Circuit, values: dict) -> dict:
    """Evaluate every gate in order into ``values``, which holds the inputs."""
    first = c.inputs[:1]
    for g in c.gates:
        ins = g.inputs or first
        values[g.out] = GATES[g.op][1](values[ins[0]], values[ins[-1]])
    return values


def simulate(c: Circuit, assignment) -> OutputWord:
    """Evaluate one input assignment gate by gate."""
    if len(assignment) != c.input_count:
        raise ValueError(
            f"assignment has {len(assignment)} bits, circuit has {c.input_count} inputs"
        )
    values = _run_gates(c, dict(zip(c.inputs, (int(bool(v)) for v in assignment))))
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


def _input_planes(n: int, start: int, count: int) -> list[np.ndarray]:
    """Planes of ``n`` inputs over words ``start`` .. ``start + count - 1``.

    Lane k of word w is assignment 64 w + k, and input i is its bit i:
    inputs 0-5 are the lane masks, and input i >= 6 is all ones or all
    zeros by bit i - 6 of the word index.
    """
    words = np.arange(start, start + count, dtype=np.uint64)
    return [
        np.full(count, _LANE_MASKS[i], dtype=np.uint64) if i < 6
        else np.negative(words >> (i - 6) & 1)
        for i in range(n)
    ]


def _output_planes(c: Circuit, planes) -> list[np.ndarray]:
    """Output planes of ``c``, least significant first, from one plane per input."""
    values = _run_gates(c, dict(zip(c.inputs, planes)))
    return [values[w] for w in c.outputs]


def _magnitude(f: list, fp: list, signed: bool) -> list[np.ndarray]:
    """The m planes of |F - F'| for two m-bit output words.

    A ripple borrow forms d = F - F' over m + 1 planes, each word extended
    by its sign plane if signed and by zero if not; then |d| = (d ^ s) + s
    with s the sign plane of d.  |F - F'| < 2^m, so m planes hold it.
    """
    zero = f[0] ^ f[0]
    top = (f[-1], fp[-1]) if signed else (zero, zero)
    d = []
    borrow = zero
    for a, b in zip([*f, top[0]], [*fp, top[1]]):
        x = a ^ b
        d.append(x ^ borrow)
        borrow = (~a & b) | (~x & borrow)
    s = d.pop()
    out = []
    carry = s
    for p in d:
        x = p ^ s
        out.append(x ^ carry)
        carry = x & carry
    return out


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
    assignments per word, run through :data:`GATES` in chunks of
    ``_ORACLE_WORDS`` words.  The difference, its magnitude, the maximum
    and the sums are bitwise arithmetic on the planes, totalled as
    per-plane popcounts over every lane in Python ints, so any output
    width is exact.
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
    wce = abs_sum = diff_count = 0
    for start in range(0, words, _ORACLE_WORDS):
        planes = _input_planes(n, start, min(_ORACLE_WORDS, words - start))
        out_f, out_fp = _output_planes(f, planes), _output_planes(fp, planes)
        diff = out_f[0] ^ out_fp[0]
        for a, b in zip(out_f[1:], out_fp[1:]):
            diff |= a ^ b
        mag = _magnitude(out_f, out_fp, f.signed)
        diff_count += _popcount(diff)
        abs_sum += sum(_popcount(p) << i for i, p in enumerate(mag))
        wce = max(wce, _largest(mag))
    # Below 6 inputs the one word holds each of the 2^n rows 2^(6 - n)
    # times, which scales both sums alike and leaves the maximum alone.
    total = words << 6
    return wce, Fraction(abs_sum, total), Fraction(diff_count, total)
