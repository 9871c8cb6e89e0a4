"""Exact error analysis for approximate arithmetic circuits.

Compile a golden circuit and a candidate approximation to reduced
ordered BDDs, build the signed difference function with a ripple-carry
subtractor, and read off worst-case error, mean absolute error, and
error rate exactly.  Includes three algorithm families for WCE/MAE, an
exhaustive simulation oracle, seed adder generators, a mutation-based
approximation search, and a per-phase benchmark harness.
"""

from .bdd import BddError, BddManager, NodeRef
from .bitvec import BddWord, add, compile_circuit, extend, subtract, word_value
from .circuit import (
    Circuit,
    Gate,
    InterfaceMismatchError,
    NetlistError,
    OracleLimitError,
    OutputWord,
    bits_to_int,
    check_interface,
    emit,
    int_value,
    oracle_metrics,
    parse,
    parse_file,
    simulate,
    simulate_lanes,
)
from .metrics import (
    ALGORITHMS,
    BASELINE,
    ERROR_RATE,
    MAE,
    METRICS,
    NOABS,
    ONES,
    WCE,
    ErrorValue,
    compute,
    error_rate,
    evaluate_error,
    mae_baseline,
    mae_noabs,
    mae_ones,
    wce_baseline,
    wce_noabs,
    wce_ones,
)
from .adders import ADDER_KINDS, CLA, CSKA, RCA, gen_adder, mutate
from .search import GenerationRecord, SearchConfig, range_threshold, run_search
from .bench import BenchRecord, CorpusSpec, run_corpus, summarize

__version__ = "0.1.0"

__all__ = [
    "ADDER_KINDS",
    "ALGORITHMS",
    "BASELINE",
    "BddError",
    "BddManager",
    "BddWord",
    "BenchRecord",
    "CLA",
    "CSKA",
    "Circuit",
    "CorpusSpec",
    "ERROR_RATE",
    "ErrorValue",
    "Gate",
    "GenerationRecord",
    "InterfaceMismatchError",
    "MAE",
    "METRICS",
    "NOABS",
    "NetlistError",
    "NodeRef",
    "ONES",
    "OracleLimitError",
    "OutputWord",
    "RCA",
    "SearchConfig",
    "WCE",
    "add",
    "bits_to_int",
    "check_interface",
    "compile_circuit",
    "compute",
    "emit",
    "error_rate",
    "evaluate_error",
    "extend",
    "gen_adder",
    "int_value",
    "mae_baseline",
    "mae_noabs",
    "mae_ones",
    "mutate",
    "oracle_metrics",
    "parse",
    "parse_file",
    "range_threshold",
    "run_corpus",
    "run_search",
    "simulate",
    "simulate_lanes",
    "subtract",
    "summarize",
    "wce_baseline",
    "wce_noabs",
    "wce_ones",
    "word_value",
]
