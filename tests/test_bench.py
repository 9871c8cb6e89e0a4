import csv
import json
from fractions import Fraction

import pytest

import axbdd.bench as bench_mod
from axbdd import BenchRecord, CorpusSpec, run_corpus, summarize
from axbdd.bench import (
    CSV_COLUMNS,
    format_summary,
    median_loading_share,
    write_records_csv,
    write_records_jsonl,
)


def small_spec(**overrides):
    base = dict(
        kinds=["rca"],
        bits=[6],
        signed=[False],
        mutants=3,
        edits=2,
        metrics=["wce", "mae"],
        algorithms=["baseline", "ones", "noabs"],
        seed=5,
        warmup=False,
        evolve_generations=0,
    )
    base.update(overrides)
    return CorpusSpec(**base)


@pytest.fixture(scope="module")
def records():
    return run_corpus(small_spec())


def test_record_counts(records):
    # 3 mutants x 2 metrics x 3 algorithms
    assert len(records) == 18
    assert all(r.error is None for r in records)


def test_results_agree_across_algorithms(records):
    by_pair = {}
    for r in records:
        by_pair.setdefault((r.circuit_id, r.metric), set()).add(
            (r.result_num, r.result_den_exp)
        )
    assert all(len(v) == 1 for v in by_pair.values())


def test_loading_nodes_identical_across_algorithms(records):
    by_pair = {}
    for r in records:
        by_pair.setdefault(r.circuit_id, set()).add(r.load_nodes)
    assert all(len(v) == 1 for v in by_pair.values())


def test_phase_columns_populated(records):
    for r in records:
        assert r.load_ns >= 0 and r.sub_ns >= 0 and r.calc_ns >= 0
        assert r.load_nodes >= 0 and r.sub_nodes >= 0 and r.calc_nodes >= 0
        assert r.load_nodes > 0  # compiling two adders always builds nodes


def test_empty_spec_gives_empty_list():
    assert run_corpus(small_spec(mutants=0)) == []


def test_empty_corpus_runs_no_evolution(monkeypatch):
    calls = []
    run_search = bench_mod.run_search

    def spy(*args, **kwargs):
        calls.append(args)
        return run_search(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "run_search", spy)
    assert run_corpus(small_spec(mutants=0, evolve_generations=8)) == []
    assert calls == []


def test_error_rate_metric_records():
    records = run_corpus(small_spec(metrics=["ep"], mutants=2))
    assert len(records) == 2
    for r in records:
        assert r.algorithm == "direct"
        assert r.sub_ns == 0 and r.sub_nodes == 0
        assert r.result_den_exp == r.width * 2


def test_record_result_property():
    r = BenchRecord(
        circuit_id="x", width=4, signed=False, metric="mae",
        algorithm="ones", result_num=3, result_den_exp=8,
    )
    from fractions import Fraction
    assert r.result == Fraction(3, 256)
    r2 = BenchRecord(
        circuit_id="x", width=4, signed=False, metric="wce",
        algorithm="ones", result_num=7, result_den_exp=0,
    )
    assert r2.result == 7
    r3 = BenchRecord(
        circuit_id="x", width=4, signed=False, metric="wce",
        algorithm="ones", error="boom",
    )
    assert r3.result is None


def test_per_record_failure_is_captured(monkeypatch):
    import axbdd.metrics as metrics_mod

    def flaky(eps):
        raise RuntimeError("synthetic fault")

    monkeypatch.setitem(metrics_mod._FAMILIES, ("wce", "ones"), flaky)
    records = run_corpus(small_spec(metrics=["wce"], mutants=2))
    failed = [r for r in records if r.error is not None]
    healthy = [r for r in records if r.error is None]
    assert len(failed) == 2  # one per mutant, the 'ones' algorithm
    assert all("synthetic fault" in r.error for r in failed)
    for r in failed:  # a failed record carries no part of a measurement
        assert (r.load_ns, r.sub_ns, r.calc_ns) == (0, 0, 0)
        assert (r.load_nodes, r.sub_nodes, r.calc_nodes) == (0, 0, 0)
        assert r.result is None and r.result_num is None
    assert len(healthy) == 4


def test_csv_columns_and_round_trip(records, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # The header README documents; reordering a record field must fail here.
    header = (
        "circuit_id,width,signed,metric,algorithm,load_ns,sub_ns,calc_ns,"
        "load_nodes,sub_nodes,calc_nodes,result_num,result_den_exp,seed"
    )
    assert rows[0] == list(CSV_COLUMNS) == header.split(",")
    assert len(rows) == len(records) + 1
    assert rows[1][1] == "6"  # width column
    assert rows[1][2] == "false"  # signedness serialized as true/false


def test_jsonl_mirror(records, tmp_path):
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    entry = json.loads(lines[0])
    for column in CSV_COLUMNS:
        assert column in entry
    assert "error" in entry


def test_summarize_speedups(records):
    rows = summarize(records)
    assert {r.algorithm for r in rows} == {"baseline", "ones", "noabs"}
    for row in rows:
        if row.algorithm == "baseline":
            assert row.speedup_vs_baseline == pytest.approx(1.0)
        assert row.records == 3
        assert row.mean_total_ns > 0


def test_summarize_synthetic_equal_timings():
    records = []
    for algo in ("baseline", "ones", "noabs"):
        for i in range(4):
            records.append(
                BenchRecord(
                    circuit_id=f"c{i}", width=8, signed=False, metric="wce",
                    algorithm=algo, load_ns=100, sub_ns=400, calc_ns=500,
                    load_nodes=10, sub_nodes=20, calc_nodes=30,
                    result_num=1, result_den_exp=0,
                )
            )
    rows = summarize(records)
    for row in rows:
        assert row.speedup_vs_baseline == pytest.approx(1.0)
    assert median_loading_share(records) == pytest.approx(0.1)


def test_summary_skips_failed_records_and_marks_a_missing_baseline():
    def record(metric, algorithm, **fields):
        return BenchRecord(
            circuit_id="c0", width=8, signed=False, metric=metric,
            algorithm=algorithm, **fields,
        )

    timed = dict(load_ns=100, sub_ns=400, calc_ns=500, result_num=1, result_den_exp=0)
    records = [
        record("wce", "baseline", **timed),
        record("wce", "ones", **timed),
        record("wce", "ones", error="boom"),
        record("mae", "noabs", **timed),  # a group with no baseline
    ]
    rows = {(r.metric, r.algorithm): r for r in summarize(records)}
    assert rows["wce", "ones"].records == 1
    assert rows["wce", "ones"].speedup_vs_baseline == pytest.approx(1.0)
    assert rows["mae", "noabs"].speedup_vs_baseline is None
    lines = format_summary(list(rows.values()), records).splitlines()
    mae_line = next(line for line in lines if line.startswith("mae"))
    assert mae_line.split()[5] == "-"
    assert "! 1 record(s) failed; see the JSON-lines output" in lines


def test_format_summary_mentions_reference_and_flags(records):
    rows = summarize(records)
    text = format_summary(rows, records)
    header, _, *lines = text.splitlines()
    for column in ("load [ms]", "sub [ms]", "calc [ms]", "load nodes", "calc nodes"):
        assert column in header
    for row, line in zip(rows, lines):
        phases = (row.mean_load_ns, row.mean_sub_ns, row.mean_calc_ns)
        assert line.split()[6:9] == [f"{ns / 1e6:.3f}" for ns in phases]
        assert line.split()[9:] == [
            f"{n:.0f}"
            for n in (row.mean_load_nodes, row.mean_sub_nodes, row.mean_calc_nodes)
        ]
    assert "3.47x" in text and "4.20x" in text
    assert "loading-time share" in text
    assert "31.04x" in text


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(kinds=["bogus"])
    with pytest.raises(ValueError):
        CorpusSpec(metrics=["latency"])
    with pytest.raises(ValueError):
        CorpusSpec(algorithms=["magic"])
    with pytest.raises(ValueError):
        CorpusSpec(mutants=-1)
    with pytest.raises(ValueError):
        CorpusSpec(edits=0)
    with pytest.raises(ValueError):
        CorpusSpec(evolve_tau_range=2.0)
    with pytest.raises(ValueError, match="cache_capacity"):
        CorpusSpec.from_dict({"cache_capacity": 0})
    for bits in ([0], [33], [8.0], [True]):
        with pytest.raises(ValueError, match="bits"):
            CorpusSpec(bits=bits)
    for signed in (["x"], [1]):
        with pytest.raises(ValueError, match="signed"):
            CorpusSpec(signed=signed)
    for key in ("mutants", "edits", "evolve_generations"):
        for count in (1.5, True, "2"):
            with pytest.raises(ValueError, match=key):
                CorpusSpec.from_dict({key: count})
    for tau in ("0.5", float("nan"), True):
        with pytest.raises(ValueError, match="evolve_tau_range"):
            CorpusSpec.from_dict({"evolve_tau_range": tau})
    for key in ("kinds", "bits", "signed", "metrics", "algorithms"):
        for shape in (None, 16, "rca", {"rca": 1}):
            with pytest.raises(ValueError, match=key):
                CorpusSpec.from_dict({key: shape})
    # A seed names one corpus: "13" would be a second name for 13.
    for seed in (None, "13", 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            CorpusSpec.from_dict({"seed": seed})
    for warmup in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="warmup"):
            CorpusSpec.from_dict({"warmup": warmup})
    for data in ([], "spec", None, 3):
        with pytest.raises(ValueError, match="JSON object"):
            CorpusSpec.from_dict(data)
    CorpusSpec(evolve_tau_range=Fraction(1, 5), evolve_generations=0, mutants=0)
    with pytest.raises(ValueError):
        CorpusSpec.from_dict({"mutants": 2, "surprise": 1})


def test_from_dict_round_trip():
    spec = CorpusSpec.from_dict(
        {"kinds": ["rca"], "bits": [4], "mutants": 1, "seed": 3}
    )
    assert spec.kinds == ["rca"]
    assert spec.bits == [4]


def test_corpus_deterministic():
    a = run_corpus(small_spec(mutants=2))
    b = run_corpus(small_spec(mutants=2))
    keys = ("circuit_id", "metric", "algorithm", "result_num", "result_den_exp",
            "load_nodes", "sub_nodes", "calc_nodes", "seed")
    fixed = lambda rs: [[getattr(r, k) for k in keys] for r in rs]
    assert fixed(a) == fixed(b)


def test_workers_match_inline_results():
    spec = small_spec(mutants=2)
    inline = run_corpus(spec, workers=1)
    pooled = run_corpus(spec, workers=2)
    keys = ("circuit_id", "metric", "algorithm", "result_num", "result_den_exp",
            "seed", "width", "signed", "load_nodes", "sub_nodes", "calc_nodes")
    fixed = lambda rs: [[getattr(r, k) for k in keys] for r in rs]
    assert fixed(inline) == fixed(pooled)


def test_evolved_corpus_smoke():
    spec = small_spec(mutants=2, evolve_generations=8)
    records = run_corpus(spec)
    assert len(records) == 12
    assert all(r.error is None for r in records)
