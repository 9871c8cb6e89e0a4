import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from axbdd import InterfaceMismatchError
from axbdd import SearchConfig, gen_adder, mutate, oracle_metrics, range_threshold, run_search
from axbdd import bits_to_int, evaluate_error, metrics, search
from axbdd.search import write_history


def strip_timing(history):
    return [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "elapsed_ns"}
        for r in history
    ]


def test_zero_threshold_returns_equivalent_circuit():
    seed = gen_adder("rca", 4, False)
    cfg = SearchConfig(
        metric="wce", threshold=0, max_generations=60, seed=3
    )
    best, history = run_search(seed, cfg)
    assert best.active_gate_count() <= seed.active_gate_count()
    wce, mae, rate = oracle_metrics(seed, best)
    assert wce == 0 and mae == 0 and rate == 0
    assert history[-1].best_error_numerator == 0


def test_search_shrinks_under_wce_bound():
    seed = gen_adder("rca", 8, False)
    cfg = SearchConfig(
        metric="wce", threshold=8, max_generations=300, seed=11
    )
    best, history = run_search(seed, cfg)
    assert best.active_gate_count() < seed.active_gate_count()
    wce, _, _ = oracle_metrics(seed, best)
    assert wce <= 8


def test_search_with_mae_threshold():
    seed = gen_adder("cska", 4, False)
    cfg = SearchConfig(
        metric="mae",
        threshold=Fraction(2),
        algorithm="ones",
        max_generations=120,
        seed=5,
    )
    best, _ = run_search(seed, cfg)
    _, mae, _ = oracle_metrics(seed, best)
    assert mae <= 2
    assert best.active_gate_count() <= seed.active_gate_count()


def test_history_is_deterministic_and_monotone():
    seed = gen_adder("cla", 6, False)
    cfg = SearchConfig(metric="wce", threshold=4, max_generations=80, seed=21)
    best1, hist1 = run_search(seed, cfg)
    best2, hist2 = run_search(seed, cfg)
    assert best1 == best2
    assert strip_timing(hist1) == strip_timing(hist2)
    sizes = [r.best_size for r in hist1]
    assert sizes == sorted(sizes, reverse=True) or all(
        a >= b for a, b in zip(sizes, sizes[1:])
    )
    evals = [r.evals for r in hist1]
    assert evals[-1] == cfg.max_generations * cfg.offspring


def test_zero_budget_returns_seed():
    seed = gen_adder("rca", 4, True)
    cfg = SearchConfig(metric="wce", threshold=5, max_generations=0, seed=1)
    best, history = run_search(seed, cfg)
    assert best == seed
    assert len(history) == 1
    assert history[0].generation == 0
    assert history[0].best_size == seed.active_gate_count()


def test_zero_seconds_stops_after_generation_zero():
    seed = gen_adder("rca", 4, False)
    cfg = SearchConfig(metric="wce", threshold=5, max_seconds=0, seed=1)
    best, history = run_search(seed, cfg)
    assert best == seed
    assert strip_timing(history) == [
        {"generation": 0, "best_size": seed.active_gate_count(),
         "best_error_numerator": 0, "best_error_denominator_exp": 0, "evals": 0,
         "scored": 0, "rejected": 0, "refuted": 0}
    ]


def test_resume_from_previous_result():
    seed = gen_adder("rca", 5, False)
    cfg = SearchConfig(metric="wce", threshold=6, max_generations=40, seed=2)
    stage1, _ = run_search(seed, cfg)
    cfg2 = SearchConfig(metric="wce", threshold=6, max_generations=40, seed=3)
    stage2, _ = run_search(seed, cfg2, start_from=stage1)
    assert stage2.active_gate_count() <= stage1.active_gate_count()
    wce, _, _ = oracle_metrics(seed, stage2)
    assert wce <= 6


def test_resume_rejects_threshold_violator(truncated2, identity2):
    cfg = SearchConfig(metric="wce", threshold=0, max_generations=5, seed=0)
    with pytest.raises(ValueError):
        run_search(identity2, cfg, start_from=truncated2)


def test_resume_rejects_a_different_interface():
    seed = gen_adder("rca", 4, False)
    cfg = SearchConfig(metric="wce", threshold=31, max_generations=2, seed=0)
    for other in (
        dataclasses.replace(seed, outputs=seed.outputs[:-1]),
        dataclasses.replace(seed, signed=True),
    ):
        with pytest.raises(InterfaceMismatchError):
            run_search(seed, cfg, start_from=other)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(metric="ep", threshold=0, max_generations=1)
    with pytest.raises(ValueError):
        SearchConfig(metric="wce", threshold=-1, max_generations=1)
    with pytest.raises(ValueError):
        SearchConfig(metric="wce", threshold=0)  # no budget at all
    with pytest.raises(ValueError):
        SearchConfig(metric="wce", threshold=0, max_generations=1, offspring=0)
    with pytest.raises(ValueError):
        SearchConfig(metric="wce", threshold=0, max_generations=1, edits=0)
    with pytest.raises(ValueError):
        SearchConfig(metric="wce", threshold=0, max_generations=1, algorithm="x")
    # A budget that never trips (NaN, infinity) or is meaningless must not
    # reach run_search; these are only constructed, never run.
    for seconds in (float("nan"), float("inf"), -1.0, "5", True):
        with pytest.raises(ValueError, match="max_seconds"):
            SearchConfig(metric="wce", threshold=0, max_seconds=seconds)
    for generations in (-1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="max_generations"):
            SearchConfig(metric="wce", threshold=0, max_generations=generations)
    # A NaN threshold would reject every candidate and return the seed.
    for threshold in (float("nan"), float("inf"), "3", True):
        with pytest.raises(ValueError, match="threshold"):
            SearchConfig(metric="wce", threshold=threshold, max_generations=1)
    for field in ("offspring", "edits"):
        for count in (2.5, True, "2"):
            with pytest.raises(ValueError, match=field):
                SearchConfig(metric="wce", threshold=0, max_generations=1,
                             **{field: count})
    # seed=None would seed from OS entropy, so the run would not repeat.
    for seed in (None, 1.5, "13", True):
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(metric="wce", threshold=0, max_generations=1, seed=seed)
    SearchConfig(metric="mae", threshold=Fraction(1, 3), max_generations=1)
    SearchConfig(metric="wce", threshold=0, max_generations=0, max_seconds=0)


def test_range_threshold():
    c = gen_adder("rca", 8, False)  # 9 outputs -> range 511
    assert range_threshold(c, Fraction(1, 2)) == 255
    assert range_threshold(c, 0) == 0
    assert range_threshold(c, 1) == 511
    with pytest.raises(ValueError):
        range_threshold(c, 2)


def test_range_threshold_takes_a_float_at_its_decimal_value():
    c = gen_adder("rca", 15, False)  # 16 outputs -> range 65,535
    assert range_threshold(c, 0.6) == range_threshold(c, Fraction("0.6")) == 39321


def test_write_history_json_lines(tmp_path):
    seed = gen_adder("rca", 3, False)
    cfg = SearchConfig(metric="wce", threshold=2, max_generations=4, seed=9)
    _, history = run_search(seed, cfg)
    path = tmp_path / "log.jsonl"
    write_history(history, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(history)
    record = json.loads(lines[0])
    assert set(record) == {
        "generation",
        "best_size",
        "best_error_numerator",
        "best_error_denominator_exp",
        "evals",
        "scored",
        "rejected",
        "refuted",
        "elapsed_ns",
    }


@pytest.mark.parametrize(
    "cfg, resume",
    [
        (SearchConfig(metric="wce", threshold=6, max_generations=60, seed=4), False),
        (SearchConfig(metric="mae", threshold=Fraction(3, 2), algorithm="ones",
                      max_generations=60, seed=7), False),
        (SearchConfig(metric="wce", threshold=6, max_generations=40, seed=3), True),
    ],
    ids=["wce-noabs", "mae-ones", "resume"],
)
def test_rebuilt_manager_keeps_the_trajectory(cfg, resume, monkeypatch):
    seed = gen_adder("rca", 5, False)
    start = None
    if resume:
        start, _ = run_search(seed, SearchConfig(metric="wce", threshold=6,
                                                 max_generations=40, seed=2))
    expected_best, expected = run_search(seed, cfg, start_from=start)

    built, counts = [], []

    class CountingManager(search.BddManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    compile_circuit = search.compile_circuit

    def recording_compile(manager, circuit):
        counts.append((manager, manager.nodes_created()))
        return compile_circuit(manager, circuit)

    monkeypatch.setattr(search, "BddManager", CountingManager)
    monkeypatch.setattr(search, "compile_circuit", recording_compile)
    monkeypatch.setattr(search, "NODE_LIMIT", 300)
    best, history = run_search(seed, cfg, start_from=start)

    assert best == expected_best
    assert strip_timing(history) == strip_timing(expected)
    assert len(built) > 1
    # Nodes in the manager as each circuit is compiled into it (its golden
    # first): the limit is checked before every candidate, so no manager
    # ends more than one candidate's nodes past it.
    added = [(b if n is m else m.nodes_created()) - a
             for (m, a), (n, b) in zip(counts, counts[1:] + [(None, 0)])]
    assert all(count <= search.NODE_LIMIT for _, count in counts)
    assert max(m.nodes_created() for m in built) <= search.NODE_LIMIT + max(added)


def limited_case(metric, algorithm, resume=False, node_limit=None):
    threshold, seed = (6, 4) if metric == "wce" else (Fraction(3, 4), 7)
    cfg = SearchConfig(metric=metric, threshold=threshold, algorithm=algorithm,
                       max_generations=50, seed=seed)
    name = f"{metric}-{algorithm}" + ("-resume" if resume else "") + (
        f"-node-limit-{node_limit}" if node_limit else "")
    return pytest.param(cfg, resume, node_limit, id=name)


@pytest.mark.parametrize(
    "cfg, resume, node_limit",
    [limited_case(metric, algorithm)
     for metric in ("wce", "mae") for algorithm in ("baseline", "ones", "noabs")]
    + [limited_case("wce", "noabs", resume=True),
       limited_case("mae", "ones", node_limit=300)],
)
def test_limit_keeps_the_trajectory(cfg, resume, node_limit, monkeypatch):
    # Refuting a candidate before subtract, by simulation for WCE and by
    # cube counts for MAE, must change nothing in the run but ``refuted``:
    # with both checks made to refute nothing, every candidate over the
    # threshold reaches an exact BDD score instead.
    seed = gen_adder("rca", 5, False)
    start = None
    if resume:
        start, _ = run_search(seed, SearchConfig(metric="wce", threshold=6,
                                                 max_generations=40, seed=2))
    if node_limit is not None:
        monkeypatch.setattr(search, "NODE_LIMIT", node_limit)
    managers = []
    real_compile = search.compile_circuit

    def recording_compile(manager, circuit):
        managers.append(manager)
        return real_compile(manager, circuit)

    monkeypatch.setattr(search, "compile_circuit", recording_compile)
    best, history = run_search(seed, cfg, start_from=start)
    assert history[-1].refuted > 0
    if node_limit is not None:
        assert len(set(map(id, managers))) > 1

    monkeypatch.setattr(search, "_over_in_some_lane", lambda *args: False)
    monkeypatch.setattr(search, "_over_in_cubes", lambda *args: False)
    expected_best, expected = run_search(seed, cfg, start_from=start)
    assert expected[-1].refuted == 0
    assert best == expected_best

    def without_refuted(h):
        return [{k: v for k, v in r.items() if k != "refuted"} for r in strip_timing(h)]

    assert without_refuted(history) == without_refuted(expected)


def all_scoring_search(seed_circuit, cfg, start_from=None):
    """The (1+lambda) loop that scores every candidate, by the oracle.

    Returns the best circuit and each generation's record without its
    ``elapsed_ns``, ``scored`` and ``rejected``, the fields that depend on
    which candidates are scored or on time.
    """
    def error(candidate):
        wce, mae, _ = oracle_metrics(seed_circuit, candidate)
        value = wce if cfg.metric == "wce" else mae
        return value if value <= cfg.threshold else None

    rng = random.Random(cfg.seed)
    parent = start_from if start_from is not None else seed_circuit
    parent_error = error(parent) if start_from is not None else 0
    if cfg.metric == "mae":
        parent_error = Fraction(parent_error)
    evals = 0
    history = []
    for generation in range(cfg.max_generations + 1):
        if generation:
            best_child, best_fitness = None, math.inf
            for _ in range(cfg.offspring):
                child = mutate(parent, rng.getrandbits(64), cfg.edits)
                child_error = error(child)
                evals += 1
                fitness = child.active_gate_count() if child_error is not None else math.inf
                if fitness < best_fitness:
                    best_child, best_fitness, best_error = child, fitness, child_error
            if best_fitness <= parent.active_gate_count():
                parent, parent_error = best_child, best_error
        numerator, exponent = metrics.exact_fields(parent_error, seed_circuit.input_count)
        history.append({
            "generation": generation,
            "best_size": parent.active_gate_count(),
            "best_error_numerator": numerator,
            "best_error_denominator_exp": exponent,
            "evals": evals,
        })
    return parent, history


@pytest.mark.parametrize(
    "cfg, resume, node_limit",
    [limited_case(metric, algorithm)
     for metric in ("wce", "mae") for algorithm in ("baseline", "ones", "noabs")]
    + [limited_case("wce", "noabs", resume=True),
       limited_case("mae", "ones", resume=True),
       limited_case("wce", "noabs", node_limit=300),
       limited_case("mae", "baseline", node_limit=300)],
)
def test_search_scores_exactly_the_candidates_that_can_win(
        cfg, resume, node_limit, monkeypatch):
    seed = gen_adder("rca", 5, False)
    start = None
    if resume:
        start, _ = run_search(seed, SearchConfig(metric=cfg.metric, threshold=cfg.threshold,
                                                 max_generations=40, seed=2))
    expected_best, expected = all_scoring_search(seed, cfg, start_from=start)

    # Record each candidate with its parent as mutate makes it, each
    # circuit as it is compiled, and whether each BDD score, of the
    # circuit compiled just before it, came out over the threshold.
    children, compiled, over = [], [], {}
    real_mutate, real_compile, real_compute = (
        search.mutate, search.compile_circuit, search.metrics.compute)

    def recording_mutate(parent, *args):
        child = real_mutate(parent, *args)
        children.append((parent, child))
        return child

    def recording_compile(manager, circuit):
        compiled.append(circuit)
        return real_compile(manager, circuit)

    def recording_compute(*args, **kwargs):
        result = real_compute(*args, **kwargs)
        over[id(compiled[-1])] = result.value > cfg.threshold
        return result

    monkeypatch.setattr(search, "mutate", recording_mutate)
    monkeypatch.setattr(search, "compile_circuit", recording_compile)
    monkeypatch.setattr(search.metrics, "compute", recording_compute)
    if node_limit is not None:
        monkeypatch.setattr(search, "NODE_LIMIT", node_limit)
    best, history = run_search(seed, cfg, start_from=start)

    assert best == expected_best
    assert [{k: v for k, v in r.items() if k not in ("scored", "rejected", "refuted")}
            for r in strip_timing(history)] == expected
    if node_limit is not None:
        assert sum(c is seed for c in compiled) > 1  # the golden was recompiled

    # A child's error is decided exactly when its gate count could still
    # win: no larger than its parent and smaller than every earlier sibling
    # that came out within the threshold.  A neutral child, whose active
    # gates are its parent's, takes the parent's error unscored; any other
    # child that no BDD scores was refuted before subtract (by simulation
    # for WCE, by cube counts for MAE), and must be over the threshold by
    # the oracle.
    def oracle_over(child):
        wce, mae, _ = oracle_metrics(seed, child)
        return (wce if cfg.metric == "wce" else mae) > cfg.threshold

    assert len(children) == history[-1].evals
    scored = rejected = refuted = neutral = 0
    for first in range(0, len(children), cfg.offspring):
        best_within = math.inf
        for parent, child in children[first:first + cfg.offspring]:
            size = child.active_gate_count()
            if size > parent.active_gate_count() or size >= best_within:
                assert id(child) not in over
                continue
            scored += 1
            is_over = oracle_over(child)
            rejected += is_over
            if child.active_gates() == parent.active_gates():
                assert id(child) not in over and not is_over
                neutral += 1
            elif id(child) in over:
                assert over[id(child)] == is_over
            else:
                # WCE refutes before compile, MAE after it.
                assert is_over
                assert any(c is child for c in compiled) == (cfg.metric == "mae")
                refuted += 1
            if not is_over:
                best_within = size
    assert (history[-1].scored, history[-1].rejected, history[-1].refuted) == (
        scored, rejected, refuted)
    assert 0 < rejected < scored < len(children)
    assert neutral > 0 and refuted > 0


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_lane_comparison_matches_a_per_lane_brute_force(signed):
    # |F - F'| > bound in some lane, against each lane's integers.
    rng = random.Random(38)
    for m in (1, 2, 3, 5, 8):
        for bound in (0, 1, (1 << m) - 2, (1 << m) - 1, 1 << m, (1 << m) + 3, 3 << m):
            for lanes in (1, 3, 64):
                f = [rng.getrandbits(lanes) for _ in range(m)]
                fp = [rng.getrandbits(lanes) for _ in range(m)]
                gaps = [abs(bits_to_int([w >> k & 1 for w in f], signed)
                            - bits_to_int([w >> k & 1 for w in fp], signed))
                        for k in range(lanes)]
                assert search._over_in_some_lane(f, fp, signed, bound) == (
                    max(gaps) > bound), (m, bound, lanes)
                for k in range(lanes):
                    lane_f = [w >> k & 1 for w in f]
                    lane_fp = [w >> k & 1 for w in fp]
                    assert search._over_in_some_lane(lane_f, lane_fp, signed, bound) == (
                        gaps[k] > bound), (m, bound, lanes, k)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("kind", ["rca", "cla", "cska"])
def test_every_refuted_child_is_over_the_threshold(kind, signed, monkeypatch):
    # A child is refuted when the sample comparison after its simulation
    # says so; the oracle must then put its WCE over the threshold.
    seed = gen_adder(kind, 8, signed)
    cfg = SearchConfig(metric="wce", threshold=range_threshold(seed, Fraction(1, 5)),
                       max_generations=60, seed=5)
    simulated, refuted = [], []
    real_simulate, real_over = search.simulate_lanes, search._over_in_some_lane

    def recording_simulate(circuit, *args):
        simulated.append(circuit)
        return real_simulate(circuit, *args)

    def recording_over(*args):
        result = real_over(*args)
        if result:
            refuted.append(simulated[-1])
        return result

    monkeypatch.setattr(search, "simulate_lanes", recording_simulate)
    monkeypatch.setattr(search, "_over_in_some_lane", recording_over)
    _, history = run_search(seed, cfg)
    assert simulated[0] is seed  # the golden circuit, once
    assert sum(c is seed for c in simulated) == 1
    assert len(refuted) == history[-1].refuted > 0
    assert history[-1].refuted <= history[-1].rejected
    for child in refuted:
        assert oracle_metrics(seed, child)[0] > cfg.threshold


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
@pytest.mark.parametrize("kind", ["rca", "cla", "cska"])
def test_every_cube_refuted_child_is_over_the_threshold(kind, signed, monkeypatch):
    # A child is refuted when the cube comparison after its compile says
    # so; the oracle must then put its MAE over the threshold.
    seed = gen_adder(kind, 8, signed)
    cfg = SearchConfig(metric="mae", threshold=range_threshold(seed, Fraction(1, 20)),
                       max_generations=60, seed=5)
    compiled, refuted = [], []
    real_compile, real_over = search.compile_circuit, search._over_in_cubes

    def recording_compile(manager, circuit):
        compiled.append(circuit)
        return real_compile(manager, circuit)

    def recording_over(*args):
        result = real_over(*args)
        if result:
            refuted.append(compiled[-1])
        return result

    monkeypatch.setattr(search, "compile_circuit", recording_compile)
    monkeypatch.setattr(search, "_over_in_cubes", recording_over)
    _, history = run_search(seed, cfg)
    assert len(refuted) == history[-1].refuted > 0
    assert history[-1].refuted <= history[-1].rejected
    for child in refuted:
        assert oracle_metrics(seed, child)[1] > cfg.threshold


@pytest.mark.parametrize(
    "cfg",
    [SearchConfig(metric="wce", threshold=6, algorithm="noabs", max_generations=60, seed=4),
     SearchConfig(metric="mae", threshold=Fraction(3, 4), algorithm="ones",
                  max_generations=60, seed=7)],
    ids=["wce", "mae"],
)
def test_neutral_children_take_their_parents_error_unscored(cfg, monkeypatch):
    seed = gen_adder("rca", 5, False)
    children, compiled = [], set()
    real_mutate, real_compile = search.mutate, search.compile_circuit

    def recording_mutate(parent, *args):
        child = real_mutate(parent, *args)
        children.append((parent, child))
        return child

    def recording_compile(manager, circuit):
        compiled.add(id(circuit))
        return real_compile(manager, circuit)

    monkeypatch.setattr(search, "mutate", recording_mutate)
    monkeypatch.setattr(search, "compile_circuit", recording_compile)
    run_search(seed, cfg)
    neutral = [(p, c) for p, c in children if c.active_gates() == p.active_gates()]
    assert neutral
    errors = {}
    for parent, child in neutral:
        assert id(child) not in compiled
        if id(parent) not in errors:
            errors[id(parent)] = evaluate_error(seed, parent, cfg.metric).value
        assert evaluate_error(seed, child, cfg.metric).value == errors[id(parent)]
