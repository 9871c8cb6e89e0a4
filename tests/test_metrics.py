import random
from fractions import Fraction

import pytest

from axbdd import (
    ALGORITHMS,
    BddManager,
    compile_circuit,
    compute,
    error_rate,
    evaluate_error,
    gen_adder,
    int_value,
    mutate,
    oracle_metrics,
    simulate,
    subtract,
    wce_baseline,
    wce_noabs,
    wce_ones,
    mae_baseline,
    mae_noabs,
    mae_ones,
    metrics,
)
from axbdd.circuit import Circuit, Gate
from conftest import brute_force_metrics, random_netlist

WCE_FNS = (wce_baseline, wce_ones, wce_noabs)
MAE_FNS = (mae_baseline, mae_ones, mae_noabs)


def difference_word(golden, approx, manager=None):
    manager = manager or BddManager(golden.input_count)
    return subtract(
        compile_circuit(manager, golden), compile_circuit(manager, approx)
    )


def test_exact_circuit_gives_zero_everywhere():
    golden = gen_adder("rca", 4, False)
    eps = difference_word(golden, golden)
    for fn in WCE_FNS + MAE_FNS:
        assert fn(eps).value == 0, fn.__name__


def test_wce_noabs_guard_returns_zero_not_one():
    # with no negative points the +1 of the negative branch must not fire
    golden = gen_adder("cla", 3, True)
    result = wce_noabs(difference_word(golden, golden))
    assert result.value == 0


def test_zeros_vs_identity(zeros2, identity2):
    # oracle over the 4 inputs: max |0 - x| = 3, mean = 6/4
    eps = difference_word(zeros2, identity2)
    for fn in WCE_FNS:
        assert fn(eps).value == 3, fn.__name__
    for fn in MAE_FNS:
        assert fn(eps).value == Fraction(3, 2), fn.__name__


def test_ones_correction_fires_on_negative_maximum(zeros2, identity2):
    # every error is negative here; the raw masked search alone reaches
    # only |e|-1 = 2, the sign correction supplies the missing 1
    eps = difference_word(zeros2, identity2)
    result = wce_ones(eps)
    assert result.value == 3
    man = eps.manager
    assert man.is_sat(man.apply("and", result.witness, eps.sign_bit))


def test_identity_vs_truncated(identity2, truncated2):
    # all errors non-negative; the negative terms of the noabs sum are zero
    eps = difference_word(identity2, truncated2)
    for fn in WCE_FNS:
        assert fn(eps).value == 1
    for fn in MAE_FNS:
        assert fn(eps).value == Fraction(1, 2)
    man = eps.manager
    assert not man.is_sat(eps.sign_bit)


def test_positive_only_and_wraparound_corpora():
    # +1 mod 4 circuit: half the errors negative, half positive
    plus_one = Circuit(
        name="plus1",
        inputs=("i0", "i1"),
        outputs=("o0", "o1"),
        gates=(
            Gate("NOT", ("i0",), "o0"),
            Gate("XOR", ("i0", "i1"), "o1"),
        ),
    )
    ident = Circuit(
        name="id",
        inputs=("i0", "i1"),
        outputs=("p0", "p1"),
        gates=(Gate("BUF", ("i0",), "p0"), Gate("BUF", ("i1",), "p1")),
    )
    wce_o, mae_o, _ = oracle_metrics(ident, plus_one)
    eps = difference_word(ident, plus_one)
    for fn in WCE_FNS:
        assert fn(eps).value == wce_o
    for fn in MAE_FNS:
        assert fn(eps).value == mae_o


def test_error_rate_cases(identity2, truncated2, zeros2):
    man = BddManager(2)
    ident = compile_circuit(man, identity2)
    trunc = compile_circuit(man, truncated2)
    assert error_rate(ident, ident).value == 0
    assert error_rate(ident, trunc).value == Fraction(1, 2)
    complement = Circuit(
        name="compl",
        inputs=("i0", "i1"),
        outputs=("n0", "n1"),
        gates=(Gate("NOT", ("i0",), "n0"), Gate("NOT", ("i1",), "n1")),
    )
    assert error_rate(ident, compile_circuit(man, complement)).value == 1


def test_error_rate_width_mismatch():
    man = BddManager(2)
    a = compile_circuit(
        man,
        Circuit("a", ("i0", "i1"), ("i0",), ()),
    )
    b = compile_circuit(
        man,
        Circuit("b", ("i0", "i1"), ("i0", "i1"), ()),
    )
    with pytest.raises(ValueError):
        error_rate(a, b)


def test_requires_signed_difference_word():
    man = BddManager(2)
    word = compile_circuit(man, Circuit("t", ("i0", "i1"), ("i0", "i1"), ()))
    for fn in WCE_FNS + MAE_FNS:
        with pytest.raises(ValueError):
            fn(word)


@pytest.mark.parametrize("kind", ["rca", "cla", "cska"])
@pytest.mark.parametrize("signed", [False, True])
def test_mutant_corpus_matches_oracle(kind, signed):
    golden = gen_adder(kind, 8, signed)
    manager = BddManager(16)
    golden_word = compile_circuit(manager, golden)
    rng = random.Random(f"{kind}-{signed}")
    for i in range(10):
        mutant = mutate(golden, rng.getrandbits(64), 1 + i % 4)
        wce_o, mae_o, rate_o = oracle_metrics(golden, mutant)
        mutant_word = compile_circuit(manager, mutant)
        eps = subtract(golden_word, mutant_word)
        for fn in WCE_FNS:
            assert fn(eps).value == wce_o, (kind, signed, i, fn.__name__)
        for fn in MAE_FNS:
            assert fn(eps).value == mae_o, (kind, signed, i, fn.__name__)
        assert error_rate(golden_word, mutant_word).value == rate_o


def test_cross_algorithm_agreement_beyond_oracle():
    golden = gen_adder("cska", 16, False)
    manager = BddManager(32)
    golden_word = compile_circuit(manager, golden)
    rng = random.Random(161)
    for i in range(5):
        mutant = mutate(golden, rng.getrandbits(64), 1 + i % 3)
        eps = subtract(golden_word, compile_circuit(manager, mutant))
        wces = {fn(eps).value for fn in WCE_FNS}
        maes = {fn(eps).value for fn in MAE_FNS}
        assert len(wces) == 1
        assert len(maes) == 1


def test_witness_soundness():
    golden = gen_adder("rca", 6, True)
    rng = random.Random(77)
    manager = BddManager(12)
    golden_word = compile_circuit(manager, golden)
    for i in range(6):
        mutant = mutate(golden, rng.getrandbits(64), 1 + i % 3)
        eps = subtract(golden_word, compile_circuit(manager, mutant))
        for fn in WCE_FNS:
            result = fn(eps)
            assert result.witness is not None
            assert manager.is_sat(result.witness)
            bits = manager.pick_assignment(result.witness)
            attained = abs(
                int_value(simulate(golden, bits)) - int_value(simulate(mutant, bits))
            )
            assert attained == result.value, fn.__name__


def test_random_netlists_match_brute_force_and_oracle():
    rng = random.Random(2022)
    for case in range(1000):
        n, m, signed = rng.randint(1, 6), rng.randint(1, 6), case % 2 == 1
        inputs = tuple(f"x{i}" for i in range(n))
        golden = random_netlist(rng, "golden", inputs, m, signed)
        approx = random_netlist(rng, "approx", inputs, m, signed)
        wce, abs_sum, diff_count = brute_force_metrics(golden, approx)
        mae, rate = Fraction(abs_sum, 1 << n), Fraction(diff_count, 1 << n)
        assert oracle_metrics(golden, approx) == (wce, mae, rate), case
        manager = BddManager(n)
        f_word = compile_circuit(manager, golden)
        fp_word = compile_circuit(manager, approx)
        eps = subtract(f_word, fp_word)
        for fn in MAE_FNS:
            assert fn(eps).value == mae, (case, fn.__name__)
        for fn in WCE_FNS:
            result = fn(eps)
            assert result.value == wce, (case, fn.__name__)
            point = manager.pick_assignment(result.witness)
            attained = int_value(simulate(golden, point)) - int_value(
                simulate(approx, point)
            )
            assert abs(attained) == wce, (case, fn.__name__)
        ep = error_rate(f_word, fp_word)
        assert ep.value == rate, case
        if ep.witness is not None:
            point = manager.pick_assignment(ep.witness)
            assert simulate(golden, point) != simulate(approx, point), case
        assert (ep.witness is None) == (rate == 0), case


def test_metric_ordering_invariants():
    golden = gen_adder("cla", 5, False)
    rng = random.Random(8)
    manager = BddManager(10)
    golden_word = compile_circuit(manager, golden)
    for i in range(8):
        mutant = mutate(golden, rng.getrandbits(64), 1 + i % 2)
        mutant_word = compile_circuit(manager, mutant)
        eps = subtract(golden_word, mutant_word)
        wce = wce_noabs(eps).value
        mae = mae_noabs(eps).value
        rate = error_rate(golden_word, mutant_word).value
        assert mae <= wce
        assert (wce == 0) == (mae == 0) == (rate == 0)


def test_relative_accessor(zeros2, identity2):
    eps = difference_word(zeros2, identity2)
    result = wce_baseline(eps)
    assert result.relative() == Fraction(3, 3)  # m = 2 -> range 3
    assert result.value == 3  # accessor never mutates the stored value
    mae = mae_ones(eps)
    assert mae.relative() == Fraction(1, 2)
    man = BddManager(2)
    word = compile_circuit(man, identity2)
    with pytest.raises(ValueError):
        error_rate(word, word).relative()


def test_dispatch_and_validation(identity2, truncated2):
    eps = difference_word(identity2, truncated2)
    assert compute(eps, "wce", "noabs").value == 1
    with pytest.raises(ValueError):
        compute(eps, "epsilon", "noabs")
    with pytest.raises(ValueError):
        compute(eps, "wce", "fastest")
    with pytest.raises(ValueError, match="error_rate"):
        compute(eps, "ep")
    # evaluate_error rejects an unknown pair before it compiles anything.
    for metric, algorithm, message in (
        ("epsilon", "noabs", "unknown metric"),
        ("wce", "fastest", "unknown algorithm"),
    ):
        manager = BddManager(identity2.input_count)
        with pytest.raises(ValueError, match=message):
            evaluate_error(identity2, truncated2, metric, algorithm, manager)
        assert manager.nodes_created() == 0
    # Error rate has one algorithm and ignores the name it is given.
    rate = evaluate_error(identity2, truncated2, metrics.ERROR_RATE, "fastest")
    assert rate.value == Fraction(1, 2)


def test_evaluate_error_convenience(identity2, truncated2):
    result = evaluate_error(identity2, truncated2, metrics.MAE, metrics.NOABS)
    assert result.value == Fraction(1, 2)
    assert result.input_count == 2
    assert result.output_count == 2
    rate = evaluate_error(identity2, truncated2, metrics.ERROR_RATE)
    assert rate.value == Fraction(1, 2)
    # Each phase's nodes are the growth of the store across it.
    golden = gen_adder("rca", 4)
    approx = mutate(golden, 5, 3)
    for metric in metrics.METRICS:
        manager = BddManager(golden.input_count)
        first = evaluate_error(golden, approx, metric, metrics.NOABS, manager)
        p = first.phases
        assert min(p) >= 0 and p.load_nodes > 0
        assert p.load_nodes + p.sub_nodes + p.calc_nodes == manager.nodes_created()
        again = evaluate_error(golden, approx, metric, metrics.NOABS, manager)
        assert again == first
        assert again.phases[3:] == (0, 0, 0)  # every node is already stored
    assert first.phases.sub_ns == first.phases.sub_nodes == 0  # ep: no subtract
    # The metric functions themselves leave the phases unset.
    assert wce_noabs(difference_word(golden, approx)).phases is None


def test_algorithm_names_recorded(identity2, truncated2):
    eps = difference_word(identity2, truncated2)
    assert wce_baseline(eps).algorithm == "baseline"
    assert wce_ones(eps).algorithm == "ones"
    assert wce_noabs(eps).algorithm == "noabs"
    assert set(ALGORITHMS) == {"baseline", "ones", "noabs"}


def test_exact_fields_round_trip():
    cases = [
        (37, 16, (37, 0)),  # an integer WCE
        (Fraction(2217, 64), 16, (2217 << 10, 16)),
        (Fraction(2), 16, (2 << 16, 16)),
        (0, 16, (0, 0)),
    ]
    for value, input_count, fields in cases:
        assert metrics.exact_fields(value, input_count) == fields
        back = metrics.exact_value(*fields)
        assert back == value and type(back) is type(value)


def limited_pairs(rng):
    """Small (golden, approx) pairs: mutants of 4-8-bit adders, then random netlists."""
    for case in range(120):
        kind = ("rca", "cla", "cska")[case % 3]
        golden = gen_adder(kind, rng.randint(4, 8), case % 2 == 1)
        yield golden, mutate(golden, rng.getrandbits(64), rng.randint(1, 4))
    for case in range(120):
        n, m, signed = rng.randint(1, 6), rng.randint(1, 6), case % 2 == 1
        inputs = tuple(f"x{i}" for i in range(n))
        yield (random_netlist(rng, "golden", inputs, m, signed),
               random_netlist(rng, "approx", inputs, m, signed))


def test_limited_families_decide_the_bound_and_keep_exact_values():
    rng = random.Random(12)
    over = within = 0
    for case, (golden, approx) in enumerate(limited_pairs(rng)):
        wce_o, mae_o, _ = oracle_metrics(golden, approx)
        manager = BddManager(golden.input_count)
        eps = difference_word(golden, approx, manager)
        step = Fraction(1, 1 << golden.input_count)
        for fns, exact, unit in ((WCE_FNS, wce_o, 1), (MAE_FNS, mae_o, step)):
            limits = [0, exact - unit, exact, exact + unit,
                      Fraction(rng.randint(0, 4 * int(exact) + 4), rng.randint(1, 4))]
            for fn in fns:
                unlimited = fn(eps)
                assert unlimited.value == exact, (case, fn.__name__)
                for limit in limits:
                    if limit < 0:
                        continue
                    result = fn(eps, limit=limit)
                    where = (case, fn.__name__, limit)
                    if exact > limit:
                        over += 1
                        assert result is None, where
                        assert result != unlimited, where
                    else:
                        within += 1
                        assert result == unlimited, where
                        assert result.witness is unlimited.witness, where
                        assert result.value == exact, where
    assert over > 1000 and within > 1000


def test_limit_validation(identity2, truncated2):
    eps = difference_word(identity2, truncated2)
    for bad in (True, float("nan"), float("inf"), -1, "3"):
        with pytest.raises(ValueError, match="limit"):
            compute(eps, "wce", "noabs", limit=bad)
        with pytest.raises(ValueError, match="limit"):
            compute(eps, "mae", "baseline", limit=bad)
        for fn in WCE_FNS + MAE_FNS:
            with pytest.raises(ValueError, match="limit"):
                fn(eps, limit=bad)
    # Any finite real >= 0 is a limit, and compute passes it through.
    assert compute(eps, "wce", "ones", limit=0) is None
    assert compute(eps, "wce", "ones", limit=1.0).value == 1
    assert compute(eps, "mae", "noabs", limit=Fraction(1, 3)) is None
    assert compute(eps, "mae", "noabs", limit=0.5).value == Fraction(1, 2)
    with pytest.raises(TypeError):
        error_rate(eps, eps, limit=1)
