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
Every family computes its one exact value; a search that only needs to
know whether the error is within a bound decides that in
:mod:`axbdd.search`, before subtract wherever that is exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Real
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


def _finite_non_negative(x) -> bool:
    """Whether ``x`` is a real number in [0, inf); a ``bool`` is not one."""
    return not isinstance(x, bool) and isinstance(x, Real) and 0 <= x < math.inf


def _weighted_count(count, bits) -> int:
    """The sum of ``count(bits[i]) << i`` over every bit of a word."""
    return sum(count(bit) << i for i, bit in enumerate(bits))


def _check_difference(eps: BddWord) -> BddManager:
    """The manager of the signed difference word, which is checked first."""
    if not eps.signed:
        raise ValueError("expected the signed difference word from subtract()")
    if eps.width < 2:
        raise ValueError("difference word must carry a sign bit above the magnitude")
    return eps.manager


def _wce_result(eps: BddWord, algorithm: str, found) -> ErrorValue:
    """The WCE of a family's ``(value, witness)``."""
    wce, mu = found
    return ErrorValue(WCE, algorithm, wce, eps.manager.var_count, eps.width - 1, mu)


def _mae_result(eps: BddWord, algorithm: str, total: int) -> ErrorValue:
    """The MAE of a family's integer total over 2^n."""
    n = eps.manager.var_count
    return ErrorValue(MAE, algorithm, Fraction(total, 1 << n), n, eps.width - 1)


def _masked_magnitude(eps: BddWord) -> BddWord:
    """XOR every magnitude bit with the sign: |eps| for non-negative points,
    |eps| - 1 for negative ones (the increment is deliberately left out)."""
    manager = eps.manager
    sign = eps.sign_bit
    return BddWord(
        tuple(manager.apply("xor", b, sign) for b in eps.bits[:-1]),
        signed=False,
    )


def _absolute(eps: BddWord) -> BddWord:
    """|eps| in two's complement: the masked magnitude plus the sign bit
    (``add`` stays a module global, which the benchmark tracer rebinds)."""
    return add(_masked_magnitude(eps), BddWord((eps.sign_bit,), signed=False))


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
    manager = _check_difference(eps)
    found = _search_max(manager, _absolute(eps).bits, manager.true)
    return _wce_result(eps, BASELINE, found)


def mae_baseline(eps: BddWord) -> ErrorValue:
    """Mean absolute error as the weighted bit probabilities of |eps|."""
    manager = _check_difference(eps)
    total = _weighted_count(manager.sat_count, _absolute(eps).bits)
    return _mae_result(eps, BASELINE, total)


def wce_ones(eps: BddWord) -> ErrorValue:
    """Worst-case error with the increment replaced by a +1 correction.

    The search runs on the un-incremented masked magnitude; if the
    witness still admits a negative point, the true maximum is one
    higher and the witness narrows to those points.
    """
    manager = _check_difference(eps)
    wce, mu = _search_max(manager, _masked_magnitude(eps).bits, manager.true)
    negative = manager.apply("and", mu, eps.sign_bit)
    if manager.is_sat(negative):
        wce += 1
        mu = negative
    return _wce_result(eps, ONES, (wce, mu))


def mae_ones(eps: BddWord) -> ErrorValue:
    """Mean absolute error with the increment folded into one probability.

    Every negative point's masked magnitude is short by exactly one, so
    adding the satisfying fraction of the sign bit restores the mean.
    """
    manager = _check_difference(eps)
    total = manager.sat_count(eps.sign_bit) + _weighted_count(
        manager.sat_count, _masked_magnitude(eps).bits
    )
    return _mae_result(eps, ONES, total)


def wce_noabs(eps: BddWord) -> ErrorValue:
    """Worst-case error straight off the signed difference.

    Two guided searches: the non-negative branch maximizes the
    difference itself, the negative branch maximizes the inverted bits
    (value ``|eps| - 1``) and gets the two's-complement +1 back.  An
    unsatisfiable branch is skipped entirely; in particular an exact
    circuit reports 0, the stray +1 never applies.
    """
    manager = _check_difference(eps)
    sign = eps.sign_bit
    not_sign = manager.not_(sign)
    magnitude_bits = eps.bits[:-1]
    positive = negative = None
    if manager.is_sat(not_sign):
        positive = _search_max(manager, magnitude_bits, not_sign)
    if manager.is_sat(sign):
        wce_n, mu_n = _search_max(manager, magnitude_bits, sign, invert=True)
        negative = (wce_n + 1, mu_n)
    if negative is None or (positive is not None and negative[0] <= positive[0]):
        return _wce_result(eps, NOABS, positive)
    return _wce_result(eps, NOABS, negative)


def mae_noabs(eps: BddWord) -> ErrorValue:
    """Mean absolute error without materializing the absolute value.

    Sums the difference bits over the non-negative points and the
    inverted bits over the negative points, then adds the negative
    fraction once to undo the missing increment.  Bit ``b`` under sign
    ``s`` adds exactly ``|b & ~s| + |s & ~b| = |b| + |s| - 2|b & s|``:
    one pairwise count per bit, and no BDD is built at all.
    """
    manager = _check_difference(eps)
    sign = eps.sign_bit
    negatives = manager.sat_count(sign)

    def count(bit):
        return manager.sat_count(bit) + negatives - 2 * manager.sat_count_and(bit, sign)

    return _mae_result(eps, NOABS, negatives + _weighted_count(count, eps.bits[:-1]))


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


_FAMILIES = {
    (WCE, BASELINE): wce_baseline, (WCE, ONES): wce_ones, (WCE, NOABS): wce_noabs,
    (MAE, BASELINE): mae_baseline, (MAE, ONES): mae_ones, (MAE, NOABS): mae_noabs,
}


def _family(metric: str, algorithm: str):
    """The WCE or MAE family of one metric/algorithm pair, or ``ValueError``."""
    if metric == ERROR_RATE:
        raise ValueError("error rate has no families; use error_rate(f_word, fp_word)")
    if metric not in (WCE, MAE):
        raise ValueError(f"unknown metric {metric!r}")
    try:
        return _FAMILIES[metric, algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None


def compute(eps: BddWord, metric: str, algorithm: str = NOABS) -> ErrorValue:
    """Dispatch one metric/algorithm pair on a difference word."""
    return _family(metric, algorithm)(eps)


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
    ``sub_ns`` and ``sub_nodes`` are 0, and it ignores ``algorithm``.  An
    unknown metric or algorithm raises before anything is compiled.
    """
    check_interface(golden, approx)
    family = None if metric == ERROR_RATE else _family(metric, algorithm)
    if manager is None:
        manager = BddManager(golden.input_count)
    n0, t0 = manager.nodes_created(), time.perf_counter_ns()
    f_word = compile_circuit(manager, golden)
    fp_word = compile_circuit(manager, approx)
    n1, t1 = manager.nodes_created(), time.perf_counter_ns()
    if family is None:
        n2, t2 = n1, t1
        result = error_rate(f_word, fp_word)
    else:
        eps = subtract(f_word, fp_word)
        n2, t2 = manager.nodes_created(), time.perf_counter_ns()
        result = family(eps)
    t3, n3 = time.perf_counter_ns(), manager.nodes_created()
    phases = Phases(t1 - t0, t2 - t1, t3 - t2, n1 - n0, n2 - n1, n3 - n2)
    return replace(result, phases=phases)
