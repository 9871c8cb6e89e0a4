"""Exact worst-case and mean-absolute error metrics over BDD words.

All algorithms operate on the signed difference word produced by
:func:`axbdd.bitvec.subtract` for a golden circuit and a candidate.
Three families compute identical values by different routes:

* ``baseline`` materializes the absolute difference in two's complement
  (mask with the sign, then ripple-increment) before measuring it.
* ``ones`` skips the increment and compensates arithmetically: a
  negative point's masked magnitude is exactly one short, which the
  sign bit's satisfiability (WCE) or probability (MAE) repairs.
* ``noabs`` never builds an absolute value at all; it splits the
  difference into its non-negative and negative halves with the sign
  bit and measures each directly.

Worst-case searches walk the bits from the most significant end,
keeping a witness function of the assignments that still attain the
running maximum.  All results are exact: integers for WCE, rationals
with denominator 2^n for MAE and error rate, stored as numerator / 2^e
by :func:`exact_fields` and read back by :func:`exact_value`.
:func:`evaluate_error` runs the whole pipeline and times its phases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

from .bdd import BddManager, NodeRef
from .bitvec import BddWord, add, compile_circuit, subtract
from .circuit import Circuit, check_interface

WCE = "wce"
MAE = "mae"
ERROR_RATE = "ep"

BASELINE = "baseline"
ONES = "ones"
NOABS = "noabs"

METRICS = (WCE, MAE, ERROR_RATE)
ALGORITHMS = (BASELINE, ONES, NOABS)


class Phases(NamedTuple):
    """Wall time and nodes created by loading, subtracting and calculating."""

    load_ns: int
    sub_ns: int
    calc_ns: int
    load_nodes: int
    sub_nodes: int
    calc_nodes: int


@dataclass(frozen=True)
class ErrorValue:
    """One exact metric result.

    ``value`` is an unbounded integer for WCE and an exact rational
    (denominator 2^n) for MAE and error rate.  ``witness``, when
    present, is a BDD whose satisfying assignments attain the value
    (WCE) or exhibit a mismatch (error rate).  ``phases`` is set by
    :func:`evaluate_error` only and takes no part in equality.
    """

    kind: str
    algorithm: str
    value: int | Fraction
    input_count: int
    output_count: int
    witness: NodeRef | None = None
    phases: Phases | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("error metrics are non-negative")

    def relative(self) -> Fraction:
        """Value scaled to the output range (division by 2^m - 1)."""
        if self.kind == ERROR_RATE:
            raise ValueError("error rate is already a probability")
        return Fraction(self.value) / ((1 << self.output_count) - 1)


def exact_fields(value: int | Fraction, input_count: int) -> tuple[int, int]:
    """``(numerator, e)`` with value = numerator / 2^e: e is 0 for an
    integer, ``input_count`` for a rational (its denominator divides 2^n)."""
    if isinstance(value, Fraction):
        return int(value * (1 << input_count)), input_count
    return int(value), 0


def exact_value(numerator: int, e: int) -> int | Fraction:
    """Inverse of :func:`exact_fields`: an integer when ``e`` is 0."""
    return Fraction(numerator, 1 << e) if e else numerator


def _require_difference_word(eps: BddWord) -> None:
    if not eps.signed:
        raise ValueError("expected the signed difference word from subtract()")
    if eps.width < 2:
        raise ValueError("difference word must carry a sign bit above the magnitude")


def _masked_magnitude(eps: BddWord) -> BddWord:
    """XOR every magnitude bit with the sign: |eps| for non-negative points,
    |eps| - 1 for negative ones (the increment is deliberately left out)."""
    manager = eps.manager
    sign = eps.sign_bit
    return BddWord(
        tuple(manager.apply("xor", b, sign) for b in eps.bits[:-1]),
        signed=False,
    )


def _search_max(manager, bits, mu, invert=False):
    """Greatest reachable value of a bit vector restricted to ``mu``.

    Scans from the most significant bit; whenever the running witness
    still admits a set bit (cleared bit if ``invert``), the bit joins
    the maximum and the witness is narrowed.  Afterwards every
    satisfying assignment of the witness attains the returned value.
    """
    best = 0
    op = "andnot" if invert else "and"
    for i in range(len(bits) - 1, -1, -1):
        narrowed = manager.apply(op, mu, bits[i])
        if manager.is_sat(narrowed):
            best += 1 << i
            mu = narrowed
    return best, mu


def wce_baseline(eps: BddWord) -> ErrorValue:
    """Worst-case error via the full two's-complement absolute value."""
    _require_difference_word(eps)
    manager = eps.manager
    sign = eps.sign_bit
    magnitude = add(_masked_magnitude(eps), BddWord((sign,), signed=False))
    wce, mu = _search_max(manager, magnitude.bits, manager.true)
    return ErrorValue(WCE, BASELINE, wce, manager.var_count, eps.width - 1, mu)


def mae_baseline(eps: BddWord) -> ErrorValue:
    """Mean absolute error as the weighted bit probabilities of |eps|."""
    _require_difference_word(eps)
    manager = eps.manager
    sign = eps.sign_bit
    magnitude = add(_masked_magnitude(eps), BddWord((sign,), signed=False))
    total = 0
    for i, bit in enumerate(magnitude.bits):
        total += manager.sat_count(bit) << i
    value = Fraction(total, 1 << manager.var_count)
    return ErrorValue(MAE, BASELINE, value, manager.var_count, eps.width - 1)


def wce_ones(eps: BddWord) -> ErrorValue:
    """Worst-case error with the increment replaced by a +1 correction.

    The search runs on the un-incremented masked magnitude; if the
    witness still admits a negative point, the true maximum is one
    higher and the witness narrows to those points.
    """
    _require_difference_word(eps)
    manager = eps.manager
    sign = eps.sign_bit
    magnitude = _masked_magnitude(eps)
    wce, mu = _search_max(manager, magnitude.bits, manager.true)
    negative = manager.apply("and", mu, sign)
    if manager.is_sat(negative):
        wce += 1
        mu = negative
    return ErrorValue(WCE, ONES, wce, manager.var_count, eps.width - 1, mu)


def mae_ones(eps: BddWord) -> ErrorValue:
    """Mean absolute error with the increment folded into one probability.

    Every negative point's masked magnitude is short by exactly one, so
    adding the satisfying fraction of the sign bit restores the mean.
    """
    _require_difference_word(eps)
    manager = eps.manager
    magnitude = _masked_magnitude(eps)
    total = 0
    for i, bit in enumerate(magnitude.bits):
        total += manager.sat_count(bit) << i
    total += manager.sat_count(eps.sign_bit)
    value = Fraction(total, 1 << manager.var_count)
    return ErrorValue(MAE, ONES, value, manager.var_count, eps.width - 1)


def wce_noabs(eps: BddWord) -> ErrorValue:
    """Worst-case error straight off the signed difference.

    Two guided searches: the non-negative branch maximizes the
    difference itself, the negative branch maximizes the inverted bits
    (value ``|eps| - 1``) and gets the two's-complement +1 back.  An
    unsatisfiable branch is skipped entirely; in particular an exact
    circuit reports 0, the stray +1 never applies.
    """
    _require_difference_word(eps)
    manager = eps.manager
    sign = eps.sign_bit
    not_sign = manager.not_(sign)
    magnitude_bits = eps.bits[:-1]
    positive = negative = None
    if manager.is_sat(not_sign):
        positive = _search_max(manager, magnitude_bits, not_sign)
    if manager.is_sat(sign):
        wce_n, mu_n = _search_max(manager, magnitude_bits, sign, invert=True)
        negative = (wce_n + 1, mu_n)
    if negative is None:
        wce, mu = positive
    elif positive is None or negative[0] > positive[0]:
        wce, mu = negative
    else:
        wce, mu = positive
    return ErrorValue(WCE, NOABS, wce, manager.var_count, eps.width - 1, mu)


def mae_noabs(eps: BddWord) -> ErrorValue:
    """Mean absolute error without materializing the absolute value.

    Sums the difference bits over the non-negative points and the
    inverted bits over the negative points, then adds the negative
    fraction once to undo the missing increment.  Bit ``b`` under sign
    ``s`` adds exactly ``|b & ~s| + |s & ~b| = |b| + |s| - 2|b & s|``:
    one pairwise count per bit, and no BDD is built at all.
    """
    _require_difference_word(eps)
    manager = eps.manager
    sign = eps.sign_bit
    negatives = total = manager.sat_count(sign)
    for i, bit in enumerate(eps.bits[:-1]):
        both = manager.sat_count_and(bit, sign)
        total += (manager.sat_count(bit) + negatives - 2 * both) << i
    value = Fraction(total, 1 << manager.var_count)
    return ErrorValue(MAE, NOABS, value, manager.var_count, eps.width - 1)


def error_rate(f_word: BddWord, fp_word: BddWord) -> ErrorValue:
    """Fraction of inputs where any output bit differs."""
    if f_word.width != fp_word.width:
        raise ValueError(
            f"width mismatch: {f_word.width} vs {fp_word.width} output bits"
        )
    manager = f_word.manager
    diff = manager.false
    for a, b in zip(f_word.bits, fp_word.bits):
        diff = manager.apply("or", diff, manager.apply("xor", a, b))
    witness = diff if manager.is_sat(diff) else None
    return ErrorValue(
        ERROR_RATE,
        "direct",
        manager.sat_prob(diff),
        manager.var_count,
        f_word.width,
        witness,
    )


_WCE_ALGORITHMS = {BASELINE: wce_baseline, ONES: wce_ones, NOABS: wce_noabs}
_MAE_ALGORITHMS = {BASELINE: mae_baseline, ONES: mae_ones, NOABS: mae_noabs}


def compute(eps: BddWord, metric: str, algorithm: str = NOABS) -> ErrorValue:
    """Dispatch one metric/algorithm pair on a difference word."""
    try:
        table = {WCE: _WCE_ALGORITHMS, MAE: _MAE_ALGORITHMS}[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    try:
        fn = table[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    return fn(eps)


def evaluate_error(
    golden: Circuit,
    approx: Circuit,
    metric: str,
    algorithm: str = NOABS,
    manager: BddManager | None = None,
) -> ErrorValue:
    """Compile both circuits, build the difference word, run one algorithm.

    A fresh manager is created unless one is supplied (reusing a
    manager across many candidates shares the node store and caches).
    The result's ``phases`` holds each phase's wall time and the nodes
    it added to the store; error rate has no subtracting phase, so its
    ``sub_ns`` and ``sub_nodes`` are 0.
    """
    check_interface(golden, approx)
    if manager is None:
        manager = BddManager(golden.input_count)
    n0, t0 = manager.nodes_created(), time.perf_counter_ns()
    f_word = compile_circuit(manager, golden)
    fp_word = compile_circuit(manager, approx)
    n1, t1 = manager.nodes_created(), time.perf_counter_ns()
    if metric == ERROR_RATE:
        n2, t2 = n1, t1
        result = error_rate(f_word, fp_word)
    else:
        eps = subtract(f_word, fp_word)
        n2, t2 = manager.nodes_created(), time.perf_counter_ns()
        result = compute(eps, metric, algorithm)
    t3, n3 = time.perf_counter_ns(), manager.nodes_created()
    phases = Phases(t1 - t0, t2 - t1, t3 - t2, n1 - n0, n2 - n1, n3 - n2)
    return replace(result, phases=phases)
