"""Threshold-constrained (1+lambda) approximation search.

Starting from an exact seed circuit, each generation mutates the
current parent and keeps the smallest candidate whose error, measured
exactly against the original seed, stays within the threshold.
Offspring win ties with the parent so the search can drift across
equal-size plateaus.  Each candidate is decided by the first of these
that settles it, cheapest first; every step is exact, so none changes
a decision:

1. Gate count.  A candidate's active gates are known before any BDD is
   built.  One larger than its parent, or no smaller than an earlier
   sibling within the threshold, is never kept: it is counted and
   skipped.
2. Neutral cone.  A candidate whose active gates are its parent's
   computes the parent's function, so its error is the parent's.
3. Refutation, before subtract.  WCE: the golden circuit is simulated
   once per run on ``SAMPLE_LANES`` fixed random inputs, one per bit of
   a Python int (:func:`axbdd.circuit.simulate_lanes`), and each
   candidate on the same inputs; one input where |F - F'| exceeds the
   threshold proves that its WCE does.  MAE: the candidate is compiled,
   and the sum of |d| is at least the sum of |sum of d over C| over the
   2^k cubes C of the last k = ``CUBE_VARS`` variables, whose inner sums
   need only model counts of output bits (:func:`_cube_sums`); a total
   over threshold * 2^n proves that its MAE is over the threshold.
4. A BDD score: subtract, and the exact error against the threshold.

The log's ``scored`` still counts the candidates that could win, those
past step 1, however they were decided; ``rejected`` counts those of
them over the threshold, and ``refuted`` those rejected at step 3.

All BDD scores share one manager, so a candidate reuses the nodes and
cache entries of the ones before it.  The node store only grows, so
once it holds more than ``NODE_LIMIT`` nodes the search starts a fresh
manager and rebuilds the golden circuit (and MAE cubes) in it; the old
one is freed with everything it held.  BDDs are canonical and every metric is exact,
so this bounds memory without changing a score or the trajectory.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import metrics
from .adders import mutate
from .bdd import BddManager, NodeRef
from .bitvec import BddWord, compile_circuit, subtract
from .circuit import Circuit, check_interface, simulate_lanes

# Internal nodes past which the next candidate is scored on a fresh
# manager.  Smaller limits rebuild often enough that the cold caches
# show in the per-evaluation time; larger ones only cost memory.
NODE_LIMIT = 100_000

# Random inputs every WCE candidate is simulated on before a BDD score,
# drawn from their own generator so that the search's draws, and with
# them every trajectory, do not depend on them.  In rca/cla/cska 12-bit
# and rca 16-bit searches at a fifth of the range, 1,024 inputs refuted
# 98-99 % of the rejected candidates (256: 92-98 %, 64: 88-92 %), and a
# check cost about 21 us per 12-bit candidate at 64, 256 and 1,024 alike.
SAMPLE_LANES = 1024
SAMPLE_SEED = 2022

# Variables, last in the order, whose cubes bound an MAE candidate's error
# before subtract.  In five 12- and 16-bit MAE searches k = 4 refuted 73-88 %
# of the rejections, and k = 6 ran slower than k = 4 in every one.
CUBE_VARS = 4


@dataclass
class SearchConfig:
    """Knobs of one search run.

    ``threshold`` is a finite number >= 0: an integer for WCE and a
    rational for MAE.  ``offspring`` and ``edits`` are integers >= 1, and
    ``seed`` is an integer.  At least one of ``max_generations`` (an
    integer >= 0) / ``max_seconds`` (a finite number >= 0) must be set;
    whichever trips first ends the run.
    """

    metric: str = metrics.WCE
    threshold: int | Fraction = 0
    algorithm: str = metrics.NOABS
    offspring: int = 4
    edits: int = 2
    max_generations: int | None = None
    max_seconds: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.metric not in (metrics.WCE, metrics.MAE):
            raise ValueError(f"search metric must be wce or mae, got {self.metric!r}")
        if self.algorithm not in metrics.ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not metrics._finite_non_negative(self.threshold):
            raise ValueError("threshold must be a finite number >= 0")
        if type(self.offspring) is not int or self.offspring < 1:
            raise ValueError("offspring must be an integer >= 1")
        if type(self.edits) is not int or self.edits < 1:
            raise ValueError("edits per mutation must be an integer >= 1")
        if self.max_generations is None and self.max_seconds is None:
            raise ValueError("set max_generations and/or max_seconds")
        gens, secs = self.max_generations, self.max_seconds
        if gens is not None and (type(gens) is not int or gens < 0):
            raise ValueError("max_generations must be None or an integer >= 0")
        if secs is not None and not metrics._finite_non_negative(secs):
            raise ValueError("max_seconds must be None or a finite number >= 0")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass
class GenerationRecord:
    """One JSON-lines log entry; error stored as numerator / 2^exponent.

    ``evals`` counts every candidate so far, ``scored`` those whose gate
    count could win, so that their error was decided, ``rejected`` the
    scored ones over the threshold, and ``refuted`` the rejected ones
    proved over it before subtract: by simulation for WCE, by cube counts
    for MAE.  None of them depends on the algorithm family.
    """

    generation: int
    best_size: int
    best_error_numerator: int
    best_error_denominator_exp: int
    evals: int
    scored: int
    rejected: int
    refuted: int
    elapsed_ns: int


def range_threshold(circuit: Circuit, fraction) -> int:
    """Absolute threshold for a fraction of the circuit's output range.

    A float counts at its decimal value: 0.6 is 3/5, not the binary
    fraction nearest to it.
    """
    frac = Fraction(str(fraction) if isinstance(fraction, float) else fraction)
    if not 0 <= frac <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    return int(frac * ((1 << circuit.output_count) - 1))


def run_search(
    seed_circuit: Circuit, cfg: SearchConfig, start_from: Circuit | None = None
) -> tuple[Circuit, list[GenerationRecord]]:
    """Minimize active gate count under the error bound; returns (best, history).

    The seed doubles as the golden reference for every candidate, so it
    must be exact for the threshold to mean anything.  The returned
    circuit always satisfies the bound and is never larger than the
    first parent.  ``start_from`` resumes from an earlier result while
    keeping the original seed as the golden reference; it must share the
    seed's interface (else ``InterfaceMismatchError``).  Deterministic
    for a given config seed (timings aside).

    A candidate's error is decided only if its gate count could make it
    the generation's winner, so ``evals`` counts candidates, not scores;
    the module notes give the order in which it is decided.
    Memory stays bounded however long the search runs: once the shared
    manager holds more than ``NODE_LIMIT`` nodes, the next candidate is
    scored on a fresh one with the golden circuit recompiled, which
    changes no score and so no result.
    """
    rng = random.Random(cfg.seed)
    n = seed_circuit.input_count
    mae = cfg.metric == metrics.MAE
    # The greatest integer within the threshold, on MAE's scale of 2^n.
    cap = math.floor(Fraction(cfg.threshold) * (1 << n if mae else 1))

    def fresh_golden():
        manager = BddManager(n)
        golden = compile_circuit(manager, seed_circuit)
        cubes = _cubes(manager, min(CUBE_VARS, n)) if mae else []
        return manager, golden, cubes, _cube_sums(golden, cubes)

    manager, golden, cubes, golden_sums = fresh_golden()
    if not mae:
        draw = random.Random(SAMPLE_SEED)
        sample = [draw.getrandbits(SAMPLE_LANES) for _ in seed_circuit.inputs]
        golden_lanes = simulate_lanes(seed_circuit, sample, SAMPLE_LANES)
    start = time.perf_counter_ns()
    evals = scored = rejected = refuted = generation = 0

    def score(candidate: Circuit) -> int | Fraction | None:
        """The candidate's exact error, or ``None`` if it is over the threshold."""
        nonlocal manager, golden, cubes, golden_sums, refuted
        if not mae and _over_in_some_lane(
            golden_lanes, simulate_lanes(candidate, sample, SAMPLE_LANES),
            seed_circuit.signed, cap,
        ):
            refuted += 1
            return None
        if manager.nodes_created() > NODE_LIMIT:
            manager, golden, cubes, golden_sums = fresh_golden()
        word = compile_circuit(manager, candidate)
        if mae and _over_in_cubes(golden_sums, _cube_sums(word, cubes), cap):
            refuted += 1
            return None
        value = metrics.compute(subtract(golden, word), cfg.metric, cfg.algorithm).value
        return value if value <= cfg.threshold else None

    parent = start_from if start_from is not None else seed_circuit
    parent_cone = parent.active_gates()
    parent_fitness = len(parent_cone)
    parent_error = Fraction(0) if mae else 0
    if start_from is not None:
        check_interface(seed_circuit, start_from)
        parent_error = score(parent)
        if parent_error is None:
            raise ValueError("start_from circuit violates the threshold")

    def record(elapsed_ns: int) -> GenerationRecord:
        return GenerationRecord(
            generation,
            parent_fitness,
            *metrics.exact_fields(parent_error, seed_circuit.input_count),
            evals,
            scored,
            rejected,
            refuted,
            elapsed_ns,
        )

    history = [record(0)]
    while True:
        if cfg.max_generations is not None and generation >= cfg.max_generations:
            break
        if (
            cfg.max_seconds is not None
            and time.perf_counter_ns() - start >= cfg.max_seconds * 1e9
        ):
            break
        generation += 1

        best_child = best_child_cone = None
        best_child_fitness: float | int = math.inf
        for _ in range(cfg.offspring):
            child = mutate(parent, rng.getrandbits(64), cfg.edits)
            evals += 1
            # A child larger than its parent, or no smaller than a sibling
            # already within the threshold, is never kept: skip its score.
            cone = child.active_gates()
            fitness = len(cone)
            if fitness > parent_fitness or fitness >= best_child_fitness:
                continue
            scored += 1
            # mutate keeps the outputs, so a child with its parent's active
            # gates computes its parent's function.
            error = parent_error if cone == parent_cone else score(child)
            if error is None:
                rejected += 1
                continue
            best_child = child
            best_child_cone = cone
            best_child_fitness = fitness
            best_child_error = error
        if best_child is not None:
            parent = best_child
            parent_cone = best_child_cone
            parent_fitness = best_child_fitness
            parent_error = best_child_error
        history.append(record(time.perf_counter_ns() - start))
    return parent, history


def _over_in_some_lane(f: list[int], fp: list[int], signed: bool, bound: int) -> bool:
    """Whether |F - F'| > ``bound`` in some lane of two m-bit output words.

    Each word is one int per output bit, bit k of each its lane k, with
    no bit set past the last lane.  A ripple borrow forms d = F - F' over
    m + 1 bits, each word extended by its sign bit if signed and by zero
    if not, and |d| = (d ^ s) + s with s the sign of d, as the oracle's
    tally does on bit planes; |d| < 2^m, so no lane exceeds a bound of
    2^m or more.  Then |d| is compared with ``bound`` from the top bit
    down: ``tied`` holds the lanes equal to it so far, and a lane is over
    at the first bit where it has a 1 and the bound a 0.
    """
    if bound >> len(f):
        return False
    d = []
    borrow = x = 0
    for a, b in zip(f, fp):
        x = a ^ b
        d.append(x ^ borrow)
        borrow ^= x & (b ^ borrow)
    s = borrow ^ x if signed else borrow
    mag = []
    carry = s
    for bit in d:
        y = bit ^ s
        mag.append(y ^ carry)
        carry &= y
    tied = -1
    for i in reversed(range(len(mag))):
        if bound >> i & 1:
            tied &= mag[i]
        elif tied & mag[i]:
            return True
        if not tied:
            return False
    return False


def _cubes(manager: BddManager, k: int) -> list[NodeRef]:
    """The 2^k minterms of the manager's last k variables, as BDDs."""
    cubes = [manager.true]
    for index in range(manager.var_count - k, manager.var_count):
        x = manager.var(index)
        cubes = [manager.apply(op, cube, x) for cube in cubes for op in ("andnot", "and")]
    return cubes


def _cube_sums(word: BddWord, cubes: list[NodeRef]) -> list[int]:
    """The word's value summed over each cube's inputs, by model counts:
    bit i weighs 2^i, and the sign bit of a signed word -2^(m-1)."""
    count = word.manager.sat_count_and
    weights = [1 << i for i in range(word.width)]
    if word.signed:
        weights[-1] = -weights[-1]
    return [sum(w * count(bit, cube) for w, bit in zip(weights, word.bits))
            for cube in cubes]


def _over_in_cubes(golden_sums: list[int], sums: list[int], cap: int) -> bool:
    """Whether the sum of |golden_C - sums_C| over the cubes C, a lower bound
    of the sum of |d| over all inputs, exceeds ``cap``."""
    return sum(abs(g - c) for g, c in zip(golden_sums, sums)) > cap


def write_history(history: list[GenerationRecord], path) -> None:
    """Dump a search history as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(asdict(record)) + "\n")
