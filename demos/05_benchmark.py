"""Per-phase benchmark of the three algorithm families.

Each evaluation runs on a fresh manager and is split into loading
(netlist to BDDs), subtracting (difference word), and calculating (the
metric itself).  The corpus mimics the approximation pipeline: mutants
of parents evolved by a short threshold-bounded search.  Expect the
proposed algorithms to beat the baseline, and the baseline to spend the
largest share of its time in the calculating phase.

Runs a couple of minutes at 12 bits; bump bits/mutants for more signal.
"""

import os
import tempfile

from axbdd import CorpusSpec, run_corpus, summarize
from axbdd.bench import format_summary, write_records_csv

spec = CorpusSpec(
    kinds=["rca", "cla", "cska"],
    bits=[12],
    signed=[False],
    mutants=8,
    edits=4,
    metrics=["wce", "mae"],
    algorithms=["baseline", "ones", "noabs"],
    seed=13,
    evolve_generations=120,
)

records = run_corpus(spec)
print(format_summary(summarize(records), records))

path = os.path.join(tempfile.mkdtemp(), "bench_records.csv")
write_records_csv(records, path)
print(f"\n{len(records)} records written to {path}")
print("every (pair, metric) result is identical across the three algorithms:")
by_pair = {}
for r in records:
    by_pair.setdefault((r.circuit_id, r.metric), set()).add(
        (r.result_num, r.result_den_exp)
    )
agreement = all(len(v) == 1 for v in by_pair.values())
print("  agreement:", agreement)
assert agreement
