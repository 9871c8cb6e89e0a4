"""Threshold-constrained (1+lambda) approximation search.

Starting from an exact seed circuit, each generation mutates the
current parent, scores every candidate with an exact BDD error metric
against the original seed, and keeps the smallest candidate whose error
stays within the threshold.  Candidates over the threshold get infinite
fitness; offspring win ties with the parent so the search can drift
across equal-size plateaus.
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
from .circuit import Circuit


@dataclass
class SearchConfig:
    """Knobs of one search run.

    ``threshold`` is an integer for WCE and a rational for MAE.  At
    least one of ``max_generations`` / ``max_seconds`` must be set;
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
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.offspring < 1:
            raise ValueError("offspring count must be >= 1")
        if self.edits < 1:
            raise ValueError("edits per mutation must be >= 1")
        if self.max_generations is None and self.max_seconds is None:
            raise ValueError("set max_generations and/or max_seconds")


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


def _error_fields(value, input_count: int) -> tuple[int, int]:
    if isinstance(value, Fraction):
        return int(value * (1 << input_count)), input_count
    return int(value), 0


def run_search(
    seed_circuit: Circuit, cfg: SearchConfig, start_from: Circuit | None = None
) -> tuple[Circuit, list[GenerationRecord]]:
    """Minimize active gate count under the error bound; returns (best, history).

    The seed doubles as the golden reference for every candidate, so it
    must be exact for the threshold to mean anything.  The returned
    circuit always satisfies the bound and is never larger than the
    first parent.  ``start_from`` resumes from an earlier result while
    keeping the original seed as the golden reference.  Deterministic
    for a given config seed (timings aside).
    """
    rng = random.Random(cfg.seed)
    manager = BddManager(seed_circuit.input_count)
    golden = compile_circuit(manager, seed_circuit)
    start = time.perf_counter_ns()

    parent = start_from if start_from is not None else seed_circuit
    parent_fitness: float | int = parent.active_gate_count()
    zero = 0 if cfg.metric == metrics.WCE else Fraction(0)
    parent_error = zero

    def score(candidate: Circuit) -> int | Fraction:
        eps = subtract(golden, compile_circuit(manager, candidate))
        return metrics.compute(eps, cfg.metric, cfg.algorithm).value

    if start_from is not None:
        parent_error = score(parent)
        if parent_error > cfg.threshold:
            raise ValueError("start_from circuit violates the threshold")
    evals = 0
    history = [
        GenerationRecord(
            0,
            parent_fitness,
            *_error_fields(parent_error, seed_circuit.input_count),
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
            fitness = (
                child.active_gate_count() if error <= cfg.threshold else math.inf
            )
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
                *_error_fields(parent_error, seed_circuit.input_count),
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
