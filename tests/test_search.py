import dataclasses
import json
from fractions import Fraction

import pytest

from axbdd import InterfaceMismatchError
from axbdd import SearchConfig, gen_adder, oracle_metrics, range_threshold, run_search
from axbdd import search
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
    # Scoring with the threshold as the limit rejects over-threshold
    # candidates early, and must change nothing else in the run.
    seed = gen_adder("rca", 5, False)
    start = None
    if resume:
        start, _ = run_search(seed, SearchConfig(metric="wce", threshold=6,
                                                 max_generations=40, seed=2))
    if node_limit is not None:
        monkeypatch.setattr(search, "NODE_LIMIT", node_limit)
    compute = search.metrics.compute
    results, managers = [], []

    def recording_compute(eps, *args, **kwargs):
        result = compute(eps, *args, **kwargs)
        results.append(result)
        managers.append(eps.manager)
        return result

    monkeypatch.setattr(search.metrics, "compute", recording_compute)
    best, history = run_search(seed, cfg, start_from=start)
    assert any(result is None for result in results)
    if node_limit is not None:
        assert len(set(map(id, managers))) > 1

    def unlimited_compute(*args, limit=None, **kwargs):
        return compute(*args, **kwargs)

    monkeypatch.setattr(search.metrics, "compute", unlimited_compute)
    expected_best, expected = run_search(seed, cfg, start_from=start)
    assert best == expected_best
    assert strip_timing(history) == strip_timing(expected)
