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
:data:`GATES`.  The BDD compiler in :mod:`axbdd.bitvec` codes the same
gates as truth tables of its own, so a wrong entry on either side shows
up as a mismatch between the BDD and the referees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Every gate operation: name -> (input count, evaluator).  An evaluator
#: takes two operands, each a 0/1 int or a numpy bool array, and returns
#: the same kind; a unary gate gets its input twice, a constant the
#: circuit's first input twice.  The order is the order mutations draw in.
GATES = {
    "CONST0": (0, lambda a, b: a & False),
    "CONST1": (0, lambda a, b: a | True),
    "BUF": (1, lambda a, b: a),
    "NOT": (1, lambda a, b: a ^ True),
    "AND": (2, lambda a, b: a & b),
    "OR": (2, lambda a, b: a | b),
    "XOR": (2, lambda a, b: a ^ b),
    "NAND": (2, lambda a, b: (a & b) ^ True),
    "NOR": (2, lambda a, b: (a | b) ^ True),
    "XNOR": (2, lambda a, b: (a ^ b) ^ True),
}

#: Largest input count the exhaustive oracle will enumerate by default.
DEFAULT_ORACLE_LIMIT = 24

_ORACLE_CHUNK = 1 << 18


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
    """Exhaustive enumeration refused: too many inputs or outputs."""


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
    return OutputWord(tuple(values[w] for w in c.outputs), c.signed)


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


def _batch_values(c: Circuit, idx: np.ndarray) -> np.ndarray:
    """Output integers for a batch of assignment indices (input i = bit i)."""
    one = np.uint64(1)
    wires = _run_gates(c, {
        name: ((idx >> np.uint64(i)) & one).astype(bool)
        for i, name in enumerate(c.inputs)
    })
    values = np.zeros(idx.shape, dtype=np.int64)
    for i, name in enumerate(c.outputs):
        weight = 1 << i
        if c.signed and i == c.output_count - 1:
            weight = -weight
        values += wires[name].astype(np.int64) * weight
    return values


def oracle_metrics(
    f: Circuit, fp: Circuit, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, Fraction, Fraction]:
    """Exact (wce, mae, error_rate) by enumerating every input assignment.

    Vectorized over blocks of assignments; exact integer accumulation.
    Refuses input counts above ``limit`` (enumeration time doubles per
    extra input) and words over 62 bits, whose differences int64 cannot hold.
    """
    check_interface(f, fp)
    n = f.input_count
    if n > limit:
        raise OracleLimitError(
            f"{n} inputs exceed the oracle limit of {limit}"
        )
    if f.output_count > 62:
        raise OracleLimitError(
            f"{f.output_count} outputs exceed the oracle's 62-bit words"
        )
    total = 1 << n
    wce = 0
    abs_sum = 0
    diff_count = 0
    for start in range(0, total, _ORACLE_CHUNK):
        stop = min(start + _ORACLE_CHUNK, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        diff = np.abs(_batch_values(f, idx) - _batch_values(fp, idx))
        wce = max(wce, int(diff.max()))
        # A chunk of m-bit differences can sum past int64, so the high
        # and low 32-bit halves are summed separately.
        high = int((diff >> 32).sum())
        abs_sum += (high << 32) + int((diff & 0xFFFFFFFF).sum())
        diff_count += int(np.count_nonzero(diff))
    return wce, Fraction(abs_sum, total), Fraction(diff_count, total)
