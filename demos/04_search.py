"""Threshold-constrained approximation search.

A (1+lambda) loop mutates the current parent and keeps the smallest
circuit whose error, measured exactly against the original seed, stays
within the bound.  A candidate's gate count is read first, and only one
that could win (no larger than the parent, smaller than any sibling
already within the bound) has its error decided: a candidate with its
parent's active gates takes its parent's error, one that is provably
over the bound is refuted before subtract (a WCE one by 1,024 fixed
random inputs, an MAE one by output-bit counts over input cubes), and
only the rest are subtracted and scored.  The log counts evaluations,
scored candidates, rejected ones and refuted ones apart.
"""

from axbdd import SearchConfig, gen_adder, oracle_metrics, run_search

seed = gen_adder("rca", 8, signed=False)
print(f"seed: {seed.name}, {seed.active_gate_count()} active gates")

cfg = SearchConfig(
    metric="wce",
    threshold=8,          # tolerate |error| up to 8 of a 0..511 output range
    algorithm="noabs",
    offspring=4,
    edits=2,
    max_generations=500,  # 2000 evaluations
    seed=42,
)
best, history = run_search(seed, cfg)

last = history[-1]
print(f"best: {best.active_gate_count()} active gates after {last.evals} "
      f"evaluations ({last.scored} scored, {last.rejected} over the bound, "
      f"{last.refuted} of them refuted before subtract)")
assert 0 < last.refuted <= last.rejected
wce, mae, rate = oracle_metrics(seed, best)
print(f"oracle check of the result: wce={wce} (bound {cfg.threshold}), "
      f"mae={float(mae):.3f}, error rate={float(rate):.3f}")
assert wce <= cfg.threshold

print("\nsize trajectory (every 50th generation):")
for record in history[::50]:
    print(f"  gen {record.generation:>4}: size {record.best_size:>3}, "
          f"wce {record.best_error_numerator}")
