"""Gate-level netlists: text format, simulation, and the oracle's entry.

The text format is line oriented (``#`` starts a comment)::

    .model <name>
    .inputs <w> <w> ...        # declaration order = BDD variable order
    .outputs <w> <w> ...       # least significant bit first
    .signed <true|false>       # optional, default false
    .gate <OP> <in1> [<in2>] -> <out>
    .end

The gate operations and their input counts are the rows of
:data:`GATES`.  Gates must appear in topological order, one per line.

:func:`parse` checks the syntax (directives, each but ``.gate`` at most
once, token shape, ``.inputs`` before gates) and :class:`Circuit` the
wires (arity, definition order, duplicates, outputs); a parse error
names its line wherever it has one.

Both referees, :func:`simulate` on 0/1 ints and the enumeration oracle
of :mod:`axbdd.oracle` on bit planes, evaluate gates through the one
table :data:`GATES`.  The BDD compiler in :mod:`axbdd.bitvec` codes the
same gates as truth tables of its own, so a wrong entry on either side
shows up as a mismatch between the BDD and the referees.  This module
imports nothing of the BDD side, and no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    seen = set()
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise NetlistError("content after .end", lineno)
        tokens = line.split()
        head = tokens[0]
        if head in seen:
            raise NetlistError(f"duplicate {head}", lineno)
        if head != ".gate":
            seen.add(head)
        if head == ".model":
            if len(tokens) != 2:
                raise NetlistError(".model takes exactly one name", lineno)
            name = tokens[1]
        elif head == ".inputs":
            if len(tokens) < 2:
                raise NetlistError(".inputs needs at least one wire", lineno)
            inputs = tokens[1:]
        elif head == ".outputs":
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
    """Netlist source for a circuit; ``parse(emit(c)) == c``, so a model or
    wire name that is not one token without ``#`` raises NetlistError."""
    for name in (c.name, *c.inputs, *(g.out for g in c.gates)):
        if "#" in name or name.split() != [name]:
            raise NetlistError(f"name {name!r} is not one token without '#'")
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


def oracle_metrics(
    f: Circuit, fp: Circuit, limit: int = DEFAULT_ORACLE_LIMIT
) -> tuple[int, Fraction, Fraction]:
    """Exact (wce, mae, error_rate) by enumerating every input assignment.

    Raises :class:`InterfaceMismatchError` for circuits that do not share
    an interface, and :class:`OracleLimitError` for input counts above
    ``limit``, since enumeration time doubles per extra input.  A refused
    call does not load numpy.
    """
    check_interface(f, fp)
    n = f.input_count
    if n > limit:
        raise OracleLimitError(
            f"{n} inputs exceed the oracle limit of {limit}"
        )
    from .oracle import enumerate_metrics

    return enumerate_metrics(f, fp)
