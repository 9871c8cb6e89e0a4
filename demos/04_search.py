"""Threshold-constrained approximation search.

A (1+lambda) loop mutates the current parent, scores every candidate
exactly against the original seed, and keeps the smallest circuit whose
error stays within the bound.  Fitness is the active gate count when
the bound holds, infinity otherwise.
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

print(f"best: {best.active_gate_count()} active gates "
      f"after {history[-1].evals} evaluations")
wce, mae, rate = oracle_metrics(seed, best)
print(f"oracle check of the result: wce={wce} (bound {cfg.threshold}), "
      f"mae={float(mae):.3f}, error rate={float(rate):.3f}")
assert wce <= cfg.threshold

print("\nsize trajectory (every 50th generation):")
for record in history[::50]:
    print(f"  gen {record.generation:>4}: size {record.best_size:>3}, "
          f"wce {record.best_error_numerator}")
