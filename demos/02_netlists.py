"""The gate-level netlist format: parse, simulate, emit, and compare.

Circuits are plain combinational DAGs with an ordered input list (that
order becomes the BDD variable order) and LSB-first outputs.
"""

from axbdd import emit, gen_adder, int_value, oracle_metrics, parse, simulate

source = """\
.model half_adder
.inputs a b
.outputs s0 s1
.gate XOR a b -> s0
.gate AND a b -> s1
.end
"""

ha = parse(source)
print(f"{ha.name}: {ha.input_count} inputs, {ha.output_count} outputs")
for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
    out = simulate(ha, bits)
    print(f"  {bits[0]} + {bits[1]} = {int_value(out)}   bits {out.bits}")

# generators emit the same format; round-tripping is lossless
rca = gen_adder("rca", 8, signed=False)
assert parse(emit(rca)) == rca
print(f"\ngenerated {rca.name}: {rca.gate_count()} gates, "
      f"{rca.input_count} inputs (interleaved a0 b0 a1 b1 ...)")

# the enumeration oracle is the ground truth for small circuits
cla = gen_adder("cla", 8, signed=False)
wce, mae, rate = oracle_metrics(rca, cla)
print(f"rca8 vs cla8 over all 2^16 inputs: wce={wce} mae={mae} rate={rate}")
print("(zero everywhere: different topology, same function)")
assert wce == mae == rate == 0
