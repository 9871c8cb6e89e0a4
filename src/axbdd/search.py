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
3. Refutation (WCE only).  The golden circuit is simulated once per run
   on ``SAMPLE_LANES`` fixed random inputs, one per bit of a Python int
   (:func:`axbdd.circuit.simulate_lanes`), and each candidate on the
   same inputs.  One input where |F - F'| exceeds the threshold proves
   its WCE does, so it is rejected.
4. A BDD score, with the threshold as the metric's ``limit``: a
   candidate over it is rejected as soon as that is proven, and one
   within it gets its exact error.

The log's ``scored`` still counts the candidates that could win, those
past step 1, however they were decided; ``rejected`` counts those of
them over the threshold, and ``refuted`` those rejected at step 3.

All BDD scores share one manager, so a candidate reuses the nodes and
cache entries of the ones before it.  The node store only grows, so
once it holds more than ``NODE_LIMIT`` nodes the search starts a fresh
manager and recompiles the golden circuit into it; the old one is freed
with everything it held.  BDDs are canonical and every metric is exact,
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
from .bdd import BddManager
from .bitvec import compile_circuit, subtract
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
    scored ones over the threshold, and ``refuted`` the rejected ones that
    a simulated input proved over it before any BDD was built.  None of
    them depends on the algorithm family.
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

    def fresh_golden():
        manager = BddManager(seed_circuit.input_count)
        return manager, compile_circuit(manager, seed_circuit)

    manager, golden = fresh_golden()
    start = time.perf_counter_ns()

    parent = start_from if start_from is not None else seed_circuit
    parent_cone = parent.active_gates()
    parent_fitness = len(parent_cone)
    zero = 0 if cfg.metric == metrics.WCE else Fraction(0)
    parent_error = zero

    def score(candidate: Circuit) -> int | Fraction | None:
        """The candidate's exact error, or ``None`` once it is over the threshold."""
        nonlocal manager, golden
        if manager.nodes_created() > NODE_LIMIT:
            manager, golden = fresh_golden()
        eps = subtract(golden, compile_circuit(manager, candidate))
        result = metrics.compute(eps, cfg.metric, cfg.algorithm, limit=cfg.threshold)
        if result is None or result.value > cfg.threshold:
            return None
        return result.value

    if start_from is not None:
        check_interface(seed_circuit, start_from)
        parent_error = score(parent)
        if parent_error is None:
            raise ValueError("start_from circuit violates the threshold")
    evals = scored = rejected = refuted = generation = 0

    sample = None
    if cfg.metric == metrics.WCE:
        draw = random.Random(SAMPLE_SEED)
        sample = [draw.getrandbits(SAMPLE_LANES) for _ in seed_circuit.inputs]
        golden_lanes = simulate_lanes(seed_circuit, sample, SAMPLE_LANES)
        bound = math.floor(cfg.threshold)

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
        best_child_error = zero
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
            if cone == parent_cone:
                error = parent_error
            elif sample is not None and _over_in_some_lane(
                golden_lanes,
                simulate_lanes(child, sample, SAMPLE_LANES),
                seed_circuit.signed,
                bound,
            ):
                refuted += 1
                error = None
            else:
                error = score(child)
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


def write_history(history: list[GenerationRecord], path) -> None:
    """Dump a search history as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(asdict(record)) + "\n")
