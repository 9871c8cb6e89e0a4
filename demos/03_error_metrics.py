"""Exact error metrics of an approximate circuit, three ways each.

The pipeline: compile golden and candidate to BDD words, build the
signed difference with a ripple-carry subtractor, then measure it.  The
baseline materializes |difference| in two's complement; the ones'
variant skips the +1 increment and repairs the result through the sign
bit; the noabs variant never builds an absolute value at all.  All
three are exact and must agree bit for bit.
"""

from axbdd import (
    BddManager,
    compile_circuit,
    error_rate,
    gen_adder,
    int_value,
    mutate,
    oracle_metrics,
    simulate,
    subtract,
    metrics,
)

golden = gen_adder("rca", 8, signed=False)
candidate = mutate(golden, seed=2024, edits=3)

manager = BddManager(golden.input_count)
golden_word = compile_circuit(manager, golden)
candidate_word = compile_circuit(manager, candidate)
eps = subtract(golden_word, candidate_word)
print(f"difference word: {eps.width} bits over {manager.var_count} variables")

values = {}
for metric in (metrics.WCE, metrics.MAE):
    print(f"\n{metric}:")
    for algorithm in metrics.ALGORITHMS:
        result = metrics.compute(eps, metric, algorithm)
        values[metric, algorithm] = result.value
        print(f"  {algorithm:<9} -> {result.value}")

rate = error_rate(golden_word, candidate_word)
print(f"\nerror rate: {rate.value} ({float(rate.value):.3f})")

# the exhaustive oracle agrees exactly (feasible here: 2^16 inputs)
wce_o, mae_o, rate_o = oracle_metrics(golden, candidate)
print(f"oracle:     wce={wce_o} mae={mae_o} rate={rate_o}")
for algorithm in metrics.ALGORITHMS:
    assert values[metrics.WCE, algorithm] == wce_o
    assert values[metrics.MAE, algorithm] == mae_o
assert rate.value == rate_o

# worst-case searches also return a witness: an input attaining the error
result = metrics.wce_noabs(eps)
witness_bits = manager.pick_assignment(result.witness)
print(f"\na worst-case input: {witness_bits} attains |error| = {result.value}")
exact, approx = (int_value(simulate(c, witness_bits)) for c in (golden, candidate))
assert abs(exact - approx) == result.value
