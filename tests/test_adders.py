import random

import numpy as np
import pytest

from axbdd import Circuit, emit, gen_adder, int_value, mutate, simulate
from axbdd.oracle import _Program

from conftest import adder_value_pair, all_assignments

KINDS = ("rca", "cla", "cska")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_adders_exact_exhaustively(kind, signed, bits):
    c = gen_adder(kind, bits, signed)
    assert c.input_count == 2 * bits
    assert c.output_count == bits + 1
    for assignment in all_assignments(2 * bits):
        a, b = adder_value_pair(c, assignment)
        assert int_value(simulate(c, assignment)) == a + b, (assignment, a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("signed", [False, True])
def test_wide_adders_exact_on_random_sample(kind, signed):
    # widths past exhaustive reach get a large random sample: 1,000,000
    # assignments, 64 to a uint64 word, through the oracle's program
    bits = 16
    c = gen_adder(kind, bits, signed)
    rng = np.random.default_rng(123)
    words = rng.integers(0, 1 << 64, size=(2 * bits, 1_000_000 // 64), dtype=np.uint64)

    def value(planes):
        """Each lane's integer value, lane k of word w at index 64 w + k."""
        total = np.zeros(1_000_000, dtype=np.int64)
        for i, plane in enumerate(planes):
            weight = 1 << i
            if signed and i == len(planes) - 1:
                weight = -weight
            lanes = np.unpackbits(plane.astype("<u8").view(np.uint8), bitorder="little")
            total += lanes.astype(np.int64) * weight
        return total

    (out,) = _Program(c).run(list(words))
    sums = value(out)
    assert np.array_equal(sums, value(words[0::2]) + value(words[1::2]))


def test_interleaved_input_order():
    c = gen_adder("rca", 3, False)
    assert c.inputs == ("a0", "b0", "a1", "b1", "a2", "b2")


def test_gate_count_ordering_at_16_bits():
    sizes = {k: gen_adder(k, 16, False).active_gate_count() for k in KINDS}
    assert sizes["rca"] < sizes["cska"] < sizes["cla"]


@pytest.mark.parametrize("kind", KINDS)
def test_signed_variant_is_never_smaller(kind):
    unsigned = gen_adder(kind, 16, False).active_gate_count()
    signed = gen_adder(kind, 16, True).active_gate_count()
    assert signed >= unsigned


def test_one_bit_rca_is_a_half_adder():
    c = gen_adder("rca", 1, False)
    assert c.active_gate_count() == 2
    assert c.output_count == 2


def test_width_validation():
    with pytest.raises(ValueError):
        gen_adder("rca", 0, False)
    with pytest.raises(ValueError):
        gen_adder("rca", 33, False)
    with pytest.raises(ValueError):
        gen_adder("csa", 8, False)
    for bits, signed in ((True, False), (4.0, False), ("4", False),
                         (4, "false"), (4, 1), (4, None)):
        with pytest.raises(ValueError):
            gen_adder("rca", bits, signed)


def test_mutate_requires_edits():
    c = gen_adder("rca", 4, False)
    for seed, edits in ((1, 0), (1, 2.0), (1, True), (None, 2), (1.0, 2),
                        (True, 2), ("1", 2)):
        with pytest.raises(ValueError):
            mutate(c, seed, edits)


def test_mutate_names_a_circuit_without_gates():
    c = Circuit("id", ("a", "b"), ("a", "b"), ())
    with pytest.raises(ValueError, match="circuit 'id' has no gates to mutate"):
        mutate(c, 1, 1)


def test_mutate_preserves_interface_and_validity():
    rng = random.Random(4)
    for kind in KINDS:
        c = gen_adder(kind, 6, True)
        for _ in range(20):
            m = mutate(c, rng.getrandbits(64), rng.randrange(1, 6))
            assert m.inputs == c.inputs
            assert m.outputs == c.outputs
            assert m.signed == c.signed
            # construction re-runs the DAG validation
            simulate(m, (0,) * m.input_count)


def test_mutate_deterministic():
    c = gen_adder("cla", 8, False)
    a = mutate(c, seed=42, edits=3)
    b = mutate(c, seed=42, edits=3)
    assert a == b
    assert emit(a) == emit(b)
    assert mutate(c, seed=43, edits=3) != a


def test_mutant_corpus_regenerates_identically():
    c = gen_adder("cska", 8, False)

    def corpus(master_seed):
        rng = random.Random(master_seed)
        return [emit(mutate(c, rng.getrandbits(64), 2)) for _ in range(50)]

    assert corpus(9) == corpus(9)
