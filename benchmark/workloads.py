"""The three axbdd workloads: seeded inputs, a timed closed loop, and checks.

Each workload is one client in a closed loop: an evaluation starts when
the previous one has returned.  The amount of work is fixed by the seed
and ``--seconds`` (corpus16 and oracle20 are sized to take about that
long on a 2-core box; search12 runs a fixed-length search), so two
commits measured with the same arguments run exactly the same
evaluations.  A run that overshoots four times its budget stops early
and reports what it finished.

The program only ever sees generated netlist text and public API calls.
Every result is checked against a reference that is not the BDD code
under test; a failed check or an exception counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import statistics
import time
from fractions import Fraction

import axbdd
from axbdd import adders, bdd, bitvec, circuit, metrics, search

import tracing

CACHE_CAPACITY = 1 << 16
TAU_RANGE = Fraction(1, 5)
KINDS = ("rca", "cla", "cska")
FAMILIES = (
    ("wce", "baseline"),
    ("wce", "ones"),
    ("wce", "noabs"),
    ("mae", "baseline"),
    ("mae", "ones"),
    ("mae", "noabs"),
    ("ep", None),
)
# The search trajectories and the corpus16 pairs, order included, are
# pinned, so that a run measures the code rather than the seed.  Two
# search trajectories from the same start differ up to 4x in cost per
# evaluation; seeded corpus16 mutants moved eval_ms_p90 between 136 and
# 276 ms over eight seeds, and a seeded order of the same pairs still
# moved evals_per_s by 25 %, because garbage collection takes about 40 %
# of an evaluation and depends on what ran before.  --seed draws the
# assignments the corpus16 checks sample and the oracle20 mutants, whose
# oracle cost hardly depends on the mutant.
PINNED_SEED = 20220506
WARM_UP_GENERATIONS = 5
OVERRUN_FACTOR = 4

FULL = {
    "corpus16": {"bits": 16, "generations": 40, "edits": 4, "pairs_per_s": 1.6,
                 "samples": 32},
    "search12": {"bits": 12, "generations": 400, "offspring": 4, "edits": 2,
                 "verify_repeats": 5},
    "oracle20": {"bits": 10, "edits": 4, "pairs_per_s": 5.0},
}
# A few seconds in all, for the self-test.
TINY = {
    "corpus16": {"bits": 4, "generations": 4, "edits": 2, "pairs_per_s": 6.0,
                 "samples": 8},
    "search12": {"bits": 4, "generations": 10, "offspring": 4, "edits": 2,
                 "verify_repeats": 2},
    "oracle20": {"bits": 4, "edits": 2, "pairs_per_s": 6.0},
}

# Spans each workload must reach in a traced run.
_EVAL_SPANS = ("circuit.parse", "bitvec.compile", "bdd.apply", "bdd.managers")
REQUIRED_SPANS = {
    "corpus16": _EVAL_SPANS + (
        "bitvec.subtract", "bitvec.add", "bdd.not", "bdd.count", "metrics.ep",
        *(f"metrics.{m}.{a}" for m, a in FAMILIES if a is not None),
    ),
    "search12": ("search", "adders.mutate", "bitvec.compile", "bitvec.subtract",
                 "metrics.wce.noabs", "bdd.apply", "bdd.not", "bdd.managers"),
    "oracle20": _EVAL_SPANS + ("circuit.oracle", "bitvec.subtract", "metrics.ep"),
}


def family_label(metric, algorithm):
    return metric if algorithm is None else f"{metric}.{algorithm}"


class Run:
    """Operation counts, timing samples and check failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def fail(self, count, message):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def sample(self, label, ms):
        self.samples.setdefault(label, []).append(ms)


def _digest(params, texts):
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _pair_count(rate, seconds):
    return max(1, round(rate * seconds))


def evaluate(golden_text, approx_text, metric, algorithm):
    """One whole evaluation as a user runs it: parse both netlists, load
    them into a fresh manager, subtract, calculate."""
    golden = circuit.parse(golden_text)
    approx = circuit.parse(approx_text)
    manager = bdd.BddManager(golden.input_count, cache_capacity=CACHE_CAPACITY)
    f_word = bitvec.compile_circuit(manager, golden)
    fp_word = bitvec.compile_circuit(manager, approx)
    if metric == "ep":
        return metrics.error_rate(f_word, fp_word), golden, approx
    calculate = getattr(metrics, f"{metric}_{algorithm}")
    return calculate(bitvec.subtract(f_word, fp_word)), golden, approx


def _timed_families(run, golden_text, approx_text, record, corrupt=False):
    """All seven evaluations of one pair.

    Returns ``({label: value}, {label: witness assignment}, golden,
    approx)``.  The witness is read after the clock stops, and each
    result is dropped before the next evaluation, so one manager is alive
    at a time.  ``corrupt`` raises the noabs WCE by 1, which every check
    must catch.
    """
    values, points = {}, {}
    golden = approx = None
    for metric, algorithm in FAMILIES:
        label = family_label(metric, algorithm)
        run.attempted += 1
        start = time.perf_counter_ns()
        try:
            result, golden, approx = evaluate(golden_text, approx_text, metric, algorithm)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            run.fail(1, f"{label}: {type(exc).__name__}: {exc}")
            continue
        if record:
            run.sample(label, (time.perf_counter_ns() - start) / 1e6)
        values[label] = result.value + (1 if corrupt and label == "wce.noabs" else 0)
        if metric == "wce" and result.witness is not None:
            points[label] = result.witness.manager.pick_assignment(result.witness)
    return values, points, golden, approx


def _abs_error(golden, approx, point):
    return abs(
        circuit.int_value(circuit.simulate(golden, point))
        - circuit.int_value(circuit.simulate(approx, point))
    )


def check_pair(run, values, points, golden, approx, rng, samples):
    """Check one pair's seven results by simulation, never by the BDD code.

    Each WCE witness must attain its value when simulated on both
    circuits, no sampled assignment may exceed it, the three families of
    each metric must agree exactly, and the error rate is 0 exactly when
    the WCE is.  Evaluations that raised were counted already.
    """
    bad = set()
    n = golden.input_count
    sampled = max(
        _abs_error(golden, approx, [rng.getrandbits(1) for _ in range(n)])
        for _ in range(samples)
    )
    wce_labels = [f"wce.{a}" for a in ("baseline", "ones", "noabs")]
    mae_labels = [f"mae.{a}" for a in ("baseline", "ones", "noabs")]
    for label in wce_labels:
        if label not in values:
            continue
        point = points.get(label)
        attained = None if point is None else _abs_error(golden, approx, point)
        if attained != values[label] or sampled > values[label]:
            bad.add(label)
    for labels in (wce_labels, mae_labels):
        if len({values[l] for l in labels if l in values}) > 1:
            bad.update(labels)
    if "wce.noabs" in values and "ep" in values:
        if (values["ep"] == 0) != (values["wce.noabs"] == 0):
            bad.add("ep")
    if bad:
        run.fail(len(bad), f"{golden.name}: check failed for {sorted(bad)}")


def _check_against(run, values, reference, name):
    """Every family must equal the oracle's (wce, mae, ep)."""
    expected = dict(zip(("wce", "mae", "ep"), reference))
    wrong = [l for l, v in values.items() if v != expected[l.split(".")[0]]]
    if wrong:
        run.fail(len(wrong), f"{name}: {wrong} disagree with the oracle")


# -- inputs --------------------------------------------------------------------


def _evolved_parents(golden, generations):
    """Four parents along one pinned WCE-bounded search trajectory, built
    with public ``run_search(start_from=...)`` the way the corpus
    of ``axbdd.bench`` does: half the generations burn in, then four
    checkpoints cover the rest."""
    tau = search.range_threshold(golden, TAU_RANGE)
    rng = random.Random(f"{PINNED_SEED}:{golden.name}")

    def segment(gens, start):
        cfg = search.SearchConfig(
            metric="wce", threshold=tau, algorithm="noabs", offspring=4, edits=2,
            max_generations=gens, seed=rng.getrandbits(32),
        )
        return search.run_search(golden, cfg, start_from=start)[0]

    burn_in = generations // 2
    current = segment(burn_in, golden) if burn_in else golden
    step = max(1, (generations - burn_in) // 4)
    parents = []
    for _ in range(4):
        current = segment(step, current)
        parents.append(current)
    return parents


def corpus16_inputs(seed, seconds, size):
    """16-bit RCA/CLA/CSkA goldens and 4-edit mutants of evolved parents.

    Pairs are dealt round-robin over the twelve parents, so every run
    measures each parent the same number of times.
    """
    strata = []
    for kind in KINDS:
        golden = adders.gen_adder(kind, size["bits"])
        golden_text = circuit.emit(golden)
        strata += [(golden_text, p) for p in _evolved_parents(golden, size["generations"])]
    rng = random.Random(f"{PINNED_SEED}:corpus16")
    count = _pair_count(size["pairs_per_s"], seconds)
    pairs = []
    for i in range(count):
        golden_text, parent = strata[i % len(strata)]
        approx = adders.mutate(parent, rng.getrandbits(64), size["edits"])
        pairs.append((golden_text, circuit.emit(approx)))
    params = {"workload": "corpus16", "pairs": count, **size,
              "pinned_seed": PINNED_SEED, "cache": CACHE_CAPACITY}
    return pairs, _digest(params, [t for pair in pairs for t in pair])


def search12_inputs(seed, seconds, size):
    golden = adders.gen_adder("rca", size["bits"])
    text = circuit.emit(golden)
    seed_circuit = circuit.parse(text)
    cfg = {
        "metric": "wce",
        "threshold": search.range_threshold(seed_circuit, TAU_RANGE),
        "algorithm": "noabs",
        "offspring": size["offspring"],
        "edits": size["edits"],
        "max_generations": size["generations"],
        "seed": PINNED_SEED,
    }
    params = {"workload": "search12", **size, **cfg}
    return (text, seed_circuit, cfg), _digest(params, [text])


def oracle20_inputs(seed, seconds, size):
    """Mutants of exact 10-bit (20-input) adders, round-robin over kinds."""
    goldens = [adders.gen_adder(kind, size["bits"]) for kind in KINDS]
    rng = random.Random(f"oracle20:{seed}")
    count = _pair_count(size["pairs_per_s"], seconds)
    pairs = []
    for i in range(count):
        golden = goldens[i % len(goldens)]
        approx = adders.mutate(golden, rng.getrandbits(64), size["edits"])
        pairs.append((circuit.emit(golden), circuit.emit(approx)))
    params = {"workload": "oracle20", "seed": seed, "pairs": count, **size}
    return pairs, _digest(params, [t for pair in pairs for t in pair])


INPUTS = {
    "corpus16": corpus16_inputs,
    "search12": search12_inputs,
    "oracle20": oracle20_inputs,
}


def _warm_up(workload, inputs):
    """One evaluation of the first item, so lazy set-up is done before timing."""
    if workload == "search12":
        _, seed_circuit, cfg = inputs
        cfg = {**cfg, "max_generations": WARM_UP_GENERATIONS}
        search.run_search(seed_circuit, search.SearchConfig(**cfg))
    elif workload == "oracle20":
        golden_text, approx_text = inputs[0]
        circuit.oracle_metrics(circuit.parse(golden_text), circuit.parse(approx_text))
    else:
        evaluate(*inputs[0], "wce", "noabs")


def set_up(run, workload, seed, seconds, size):
    """Build the inputs and warm up, at least three times and for at least
    half a second; the median of these set-ups is ``setup_s``.

    Every build must give the same digest, or the generator drifts.
    """
    build = INPUTS[workload]
    times, digests = [], set()
    while len(times) < 3 or (sum(times) < 0.5 and len(times) < 1000):
        start = time.perf_counter()
        inputs, digest = build(seed, seconds, size)
        _warm_up(workload, inputs)
        times.append(time.perf_counter() - start)
        digests.add(digest)
    if len(digests) != 1:
        run.fail(1, f"{workload}: input generation is not deterministic")
    return inputs, digest, times


# -- timed loops ---------------------------------------------------------------


class Deadline:
    def __init__(self, seconds):
        self._start = time.perf_counter()
        self._limit = OVERRUN_FACTOR * seconds + 5

    def passed(self):
        return time.perf_counter() - self._start > self._limit


def _traced_or_not(tracer, traced):
    return tracer if traced else contextlib.nullcontext()


def corpus16_loop(run, pairs, seed, size, tracer, corrupt):
    """Seven evaluations per pair, then the simulation checks.

    With a tracer, each pair is evaluated untraced and traced, in
    alternating order, so the tracing overhead is measured on the same
    work."""
    rng = random.Random(f"corpus16-check:{seed}")
    deadline = Deadline(len(pairs) / size["pairs_per_s"])
    untraced_ns = traced_ns = evals = 0
    for i, (golden_text, approx_text) in enumerate(pairs):
        if deadline.passed():
            run.problems.append(f"stopped after {i} of {len(pairs)} pairs")
            break
        passes = [False] if tracer is None else [bool(i % 2), not i % 2]
        for traced in passes:
            start = time.perf_counter_ns()
            with _traced_or_not(tracer, traced):
                values, points, golden, approx = _timed_families(
                    run, golden_text, approx_text, not traced, corrupt
                )
            elapsed = time.perf_counter_ns() - start
            if traced:
                traced_ns += elapsed
                evals += len(FAMILIES)
                continue
            untraced_ns += elapsed
            if golden is not None:
                check_pair(run, values, points, golden, approx, rng, size["samples"])
    return {"traced_ns": traced_ns, "untraced_ns": untraced_ns, "traced_evals": evals}


def search12_loop(run, inputs, seed, size, tracer, corrupt):
    """One pinned search (two with a tracer, one traced), then the
    champion is verified by the oracle and by every family."""
    text, seed_circuit, cfg = inputs
    out = {"traced_ns": 0, "untraced_ns": 0, "traced_evals": 0}
    champion = None
    # With a tracer the traced search runs first on odd seeds, second on
    # even ones: the second search shares the process with the garbage of
    # the first.
    order = [False] if tracer is None else [bool(seed % 2), not seed % 2]
    for traced in order:
        start = time.perf_counter_ns()
        with _traced_or_not(tracer, traced):
            best, history = search.run_search(seed_circuit, search.SearchConfig(**cfg))
        elapsed = time.perf_counter_ns() - start
        evals = history[-1].evals
        run.attempted += evals
        if traced:
            out["traced_ns"] += elapsed
            out["traced_evals"] += evals
            out["best_size"] = history[-1].best_size
        else:
            out["untraced_ns"] += elapsed
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["evals"] = evals
            out["search_s"] = elapsed / 1e9
            for a, b in zip(history, history[1:]):
                run.sample("eval", (b.elapsed_ns - a.elapsed_ns) / 1e6 / (b.evals - a.evals))
        best_text = circuit.emit(best)
        if champion is not None:
            if best_text != champion:
                run.fail(1, "search12: the pinned search is not deterministic")
            continue
        champion = best_text
        _verify_champion(run, text, seed_circuit, best, best_text, history, cfg, size,
                         corrupt)
    return out


def _verify_champion(run, text, seed_circuit, best, best_text, history, cfg, size, corrupt):
    last = history[-1]
    run.attempted += 1
    try:
        wce, mae, ep = circuit.oracle_metrics(seed_circuit, best)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        run.fail(1, f"search12 oracle: {type(exc).__name__}: {exc}")
        return
    reported = last.best_error_numerator + (1 if corrupt else 0)
    if (reported != wce or last.best_error_denominator_exp != 0
            or wce > cfg["threshold"] or best.active_gate_count() != last.best_size):
        run.fail(1, f"search12: champion reports WCE {reported}, oracle {wce}, "
                    f"threshold {cfg['threshold']}")
    for _ in range(size["verify_repeats"]):
        values, _, _, _ = _timed_families(run, text, best_text, True)
        _check_against(run, values, (wce, mae, ep), "search12 champion")


def oracle20_loop(run, pairs, seed, size, tracer, corrupt):
    """The oracle referees each pair; every family must match it."""
    deadline = Deadline(len(pairs) / size["pairs_per_s"])
    untraced_ns = traced_ns = evals = 0
    for i, (golden_text, approx_text) in enumerate(pairs):
        if deadline.passed():
            run.problems.append(f"stopped after {i} of {len(pairs)} pairs")
            break
        passes = [False] if tracer is None else [bool(i % 2), not i % 2]
        for traced in passes:
            run.attempted += 1
            start = time.perf_counter_ns()
            with _traced_or_not(tracer, traced):
                try:
                    golden = circuit.parse(golden_text)
                    approx = circuit.parse(approx_text)
                    reference = circuit.oracle_metrics(golden, approx)
                except Exception as exc:  # a crash is a failed operation
                    run.fail(1, f"oracle: {type(exc).__name__}: {exc}")
                    continue
                oracle_ns = time.perf_counter_ns() - start
                values, _, _, _ = _timed_families(
                    run, golden_text, approx_text, not traced, corrupt
                )
            elapsed = time.perf_counter_ns() - start
            if traced:
                traced_ns += elapsed
                evals += 1
                continue
            untraced_ns += elapsed
            run.sample("eval", oracle_ns / 1e6)
            _check_against(run, values, reference, golden.name)
    return {"traced_ns": traced_ns, "untraced_ns": untraced_ns, "traced_evals": evals}


# -- metrics -------------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(workload, run, setup_times, loop):
    """The user-visible metrics: {name: (value, unit)}."""
    out = {"setup_s": (statistics.median(setup_times), "s")}
    if workload == "corpus16":
        eval_times = [ms for m, a in FAMILIES for ms in run.samples[family_label(m, a)]]
    else:
        eval_times = run.samples["eval"]
    if workload == "search12":
        out["evals_per_s"] = (loop["evals"] / loop["search_s"], "1/s")
    else:
        out["evals_per_s"] = (len(eval_times) / (sum(eval_times) / 1e3), "1/s")
    out["eval_ms_p50"] = (statistics.median(eval_times), "ms")
    out["eval_ms_p90"] = (_p90(eval_times), "ms")
    out["peak_rss_mb"] = (
        loop.get("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "MB",
    )
    return out


def per_layer(workload, run, tracer, loop, input_count):
    """Layer metrics from the traced passes: {name: (value, unit)}.

    Times and counts are per evaluation of the workload (corpus16: each
    of the seven per pair; search12: each candidate the search scores;
    oracle20: each refereed pair), the metric families per call.  A
    layer the workload never calls reads 0."""
    tracer.require(REQUIRED_SPANS[workload])
    n = loop["traced_evals"]

    def per_call(total, span):
        calls = tracer.calls(span)
        return total / calls if calls else 0.0

    out = {}
    for span in ("bdd.apply", "bdd.not", "bdd.count"):
        out[f"{span}.calls"] = (tracer.calls(span) / n, "count/eval")
        out[f"{span}.ms"] = (tracer.ms(span) / n, "ms/eval")
    out["bdd.nodes_created"] = (
        sum(tracer.nodes(s) for s in ("bdd.apply", "bdd.not", "bdd.count")) / n,
        "count/eval",
    )
    out["bdd.managers"] = (tracer.managers / n, "count/eval")
    for span in ("bitvec.subtract", "bitvec.compile"):
        out[f"{span}.ms"] = (tracer.ms(span) / n, "ms/eval")
        out[f"{span}.self_ms"] = (tracer.self_ms(span) / n, "ms/eval")
        out[f"{span}.nodes"] = (tracer.nodes(span) / n, "count/eval")
    out["bitvec.add.ms"] = (tracer.ms("bitvec.add") / n, "ms/eval")
    for metric, algorithm in FAMILIES:
        span = f"metrics.{family_label(metric, algorithm)}"
        out[f"{span}.ms"] = (per_call(tracer.ms(span), span), "ms/call")
        if algorithm is not None:
            out[f"{span}.nodes"] = (per_call(tracer.nodes(span), span), "count/call")
    out["circuit.parse.ms"] = (tracer.ms("circuit.parse") / n, "ms/eval")
    out["circuit.oracle.ms"] = (per_call(tracer.ms("circuit.oracle"), "circuit.oracle"),
                                "ms/call")
    oracle_s = tracer.ms("circuit.oracle") / 1e3
    rows = tracer.calls("circuit.oracle") * (1 << input_count)
    out["circuit.oracle.rows_per_s"] = (rows / oracle_s if oracle_s else 0.0, "rows/s")
    out["adders.mutate.calls"] = (tracer.calls("adders.mutate") / n, "count/eval")
    out["adders.mutate.ms"] = (tracer.ms("adders.mutate") / n, "ms/eval")
    searches = tracer.calls("search")
    out["search.self_ms"] = (tracer.self_ms("search") / n, "ms/eval")
    out["search.evals"] = (n / searches if searches else 0, "count")
    out["search.best_size"] = (loop.get("best_size", 0), "count")
    out["gc.collections"] = (tracer.gc_collections / n, "count/eval")
    out["gc.ms"] = (tracer.gc_ns / 1e6 / n, "ms/eval")
    out["trace.overhead_pct"] = (
        100.0 * (loop["traced_ns"] / loop["untraced_ns"] - 1.0), "%"
    )
    # Medians of the untraced passes; see README for why they carry no bound.
    for metric, algorithm in FAMILIES:
        name = "ep_ms_p50" if metric == "ep" else f"{metric}_ms_p50.{algorithm}"
        out[name] = (statistics.median(run.samples[family_label(metric, algorithm)]), "ms")
    for metric in ("wce", "mae"):
        base = statistics.median(run.samples[f"{metric}.baseline"])
        for algorithm in ("ones", "noabs"):
            out[f"speedup.{metric}.{algorithm}"] = (
                base / statistics.median(run.samples[f"{metric}.{algorithm}"]), "x"
            )
    return out


LOOPS = {"corpus16": corpus16_loop, "search12": search12_loop, "oracle20": oracle20_loop}


def run_workload(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """Set up, run and check one workload.

    Returns (run, metrics, notes): ``metrics`` maps each metric name to
    (value, unit) -- the end-to-end set untraced, the per-layer set
    traced.  ``corrupt`` raises one WCE result by 1 before the checks."""
    size = (TINY if tiny else FULL)[workload]
    run = Run()
    inputs, digest, setup_times = set_up(run, workload, seed, seconds, size)
    tracer = tracing.Tracer(axbdd) if trace else None
    loop = LOOPS[workload](run, inputs, seed, size, tracer, corrupt)
    notes = {"digest": digest, "setup_times": setup_times}
    if trace:
        result = per_layer(workload, run, tracer, loop, 2 * size["bits"])
    else:
        result = end_to_end(workload, run, setup_times, loop)
    return run, result, notes
