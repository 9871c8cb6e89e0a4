"""Threshold-constrained (1+lambda) approximation search.

Starting from an exact seed circuit, each generation mutates the
current parent, scores every candidate with an exact BDD error metric
against the original seed, and keeps the smallest candidate whose error
stays within the threshold.  Candidates over the threshold get infinite
fitness; offspring win ties with the parent so the search can drift
across equal-size plateaus.  A candidate is scored with the threshold
as the metric's ``limit``, so one over it is rejected as soon as that
is proven, without its exact error being computed.  A candidate within
the threshold still gets its exact error, so the run is unchanged.

All candidates share one BDD manager, so a candidate reuses the nodes
and cache entries of the ones before it.  The node store only grows,
so once it holds more than ``NODE_LIMIT`` nodes the search starts a
fresh manager and recompiles the golden circuit into it; the old one is
freed with everything it held.  BDDs are canonical and every metric is
exact, so this bounds memory without changing a score or the trajectory.
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
from .circuit import Circuit, check_interface

# Internal nodes past which the next candidate is scored on a fresh
# manager.  Smaller limits rebuild often enough that the cold caches
# show in the per-evaluation time; larger ones only cost memory.
NODE_LIMIT = 100_000


@dataclass
class SearchConfig:
    """Knobs of one search run.

    ``threshold`` is a finite number >= 0: an integer for WCE and a
    rational for MAE.  ``offspring`` and ``edits`` are integers >= 1.  At
    least one of ``max_generations`` (an integer >= 0) / ``max_seconds``
    (a finite number >= 0) must be set; whichever trips first ends the run.
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


@dataclass
class GenerationRecord:
    """One JSON-lines log entry; error stored as numerator / 2^exponent."""

    generation: int
    best_size: int
    best_error_numerator: int
    best_error_denominator_exp: int
    evals: int
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
    parent_fitness: float | int = parent.active_gate_count()
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
    evals = 0
    history = [
        GenerationRecord(
            0,
            parent_fitness,
            *metrics.exact_fields(parent_error, seed_circuit.input_count),
            evals,
            0,
        )
    ]

    generation = 0
    while True:
        if cfg.max_generations is not None and generation >= cfg.max_generations:
            break
        if (
            cfg.max_seconds is not None
            and time.perf_counter_ns() - start >= cfg.max_seconds * 1e9
        ):
            break
        generation += 1

        best_child = None
        best_child_fitness: float | int = math.inf
        best_child_error = zero
        for _ in range(cfg.offspring):
            child = mutate(parent, rng.getrandbits(64), cfg.edits)
            error = score(child)
            evals += 1
            fitness = child.active_gate_count() if error is not None else math.inf
            if fitness < best_child_fitness:
                best_child = child
                best_child_fitness = fitness
                best_child_error = error
        if best_child is not None and best_child_fitness <= parent_fitness:
            parent = best_child
            parent_fitness = best_child_fitness
            parent_error = best_child_error
        history.append(
            GenerationRecord(
                generation,
                int(parent_fitness),
                *metrics.exact_fields(parent_error, seed_circuit.input_count),
                evals,
                time.perf_counter_ns() - start,
            )
        )
    return parent, history


def write_history(history: list[GenerationRecord], path) -> None:
    """Dump a search history as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in history:
            fh.write(json.dumps(asdict(record)) + "\n")
