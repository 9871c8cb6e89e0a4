"""Build Boolean functions as BDDs and ask exact questions about them.

Every function lives in a manager with a fixed variable order.  Because
nodes are hash-consed, two equivalent constructions return the *same*
handle, satisfiability is a constant-time test, and model counting is a
single pass over the DAG.
"""

from axbdd import BddManager

m = BddManager(4)
x0, x1, x2 = m.var(0), m.var(1), m.var(2)

majority = (x0 & x1) | (x1 & x2) | (x0 & x2)
print("majority(x0,x1,x2) over 4 variables")
print("  satisfiable:", m.is_sat(majority))
print("  satisfying assignments:", m.sat_count(majority), "of", 2**4)
print("  probability:", m.sat_prob(majority))

# canonicity: a different syntax for the same function is the same node
rebuilt = ~((~x0 | ~x1) & (~x1 | ~x2) & (~x0 | ~x2))
print("  de-morganed rebuild is the identical node:", rebuilt is majority)
assert rebuilt is majority

# a witness assignment
bits = m.pick_assignment(majority)
print("  one satisfying assignment:", bits)

# contradiction collapses to the FALSE terminal, so checks are free
print("  x0 AND NOT x0 is FALSE:", (x0 & ~x0) is m.false)
assert (x0 & ~x0) is m.false

before = m.nodes_created()
print("\nnodes created so far:", before)
xor3 = x0 ^ x1 ^ x2
print("building x0^x1^x2 adds", m.nodes_created() - before, "nodes")
print("conjunction count without building the product:",
      m.sat_count_and(majority, xor3))
