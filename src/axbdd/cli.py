"""Command-line interface.

Subcommands: ``gen`` (seed adders), ``eval`` (one metric on a circuit
pair), ``verify`` (all algorithms plus the enumeration oracle must
agree, and every WCE witness must attain its value), ``bench`` (corpus
timing), ``search`` (threshold-constrained approximation).

Exit codes: 0 ok, 2 usage or bad input (a malformed netlist, or BDDs too
deep for Python's recursion limit), 3 interface mismatch, 4 oracle
limit, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from . import bench as bench_mod
from . import metrics
from .adders import ADDER_KINDS, gen_adder
from .bdd import BddError, BddManager
from .circuit import (
    DEFAULT_ORACLE_LIMIT,
    InterfaceMismatchError,
    NetlistError,
    OracleLimitError,
    check_interface,
    emit,
    int_value,
    oracle_metrics,
    parse_file,
    simulate,
)
from .search import SearchConfig, range_threshold, run_search, write_history

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERFACE = 3
EXIT_ORACLE = 4
EXIT_VERIFY = 5


def _format_value(value, input_count: int) -> str:
    if isinstance(value, Fraction):
        num, e = metrics.exact_fields(value, input_count)
        return f"{num}/2^{e} ({float(value):g})"
    return str(value)


def cmd_gen(args) -> int:
    circuit = gen_adder(args.kind, args.bits, args.signed)
    text = emit(circuit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_pair(args):
    golden = parse_file(args.golden)
    approx = parse_file(args.approx)
    if args.signedness:
        forced = args.signedness == "signed"
        golden = dataclasses.replace(golden, signed=forced)
        approx = dataclasses.replace(approx, signed=forced)
    check_interface(golden, approx)
    return golden, approx


def cmd_eval(args) -> int:
    golden, approx = _load_pair(args)
    n = golden.input_count
    if args.relative and args.metric == metrics.ERROR_RATE:
        raise SystemExit("error rate is already relative; drop --relative")
    if args.algo == "oracle":
        if n >= 20:
            print(
                f"warning: enumerating 2^{n} inputs; this may take a while",
                file=sys.stderr,
            )
        wce, mae, rate = oracle_metrics(golden, approx, limit=args.max_oracle_bits)
        value = {metrics.WCE: wce, metrics.MAE: mae, metrics.ERROR_RATE: rate}[
            args.metric
        ]
        result = metrics.ErrorValue(
            args.metric, "oracle", value, n, golden.output_count
        )
    else:
        result = metrics.evaluate_error(golden, approx, args.metric, args.algo)
    if args.relative:
        frac = result.relative()
        print(f"{frac.numerator}/{frac.denominator} ({float(frac):g})")
    else:
        print(_format_value(result.value, n))
    return EXIT_OK


def _witness_problem(golden, approx, manager, result) -> str | None:
    """Why a WCE result's witness does not attain its value, or ``None``."""
    if result.witness is None:
        return "no witness"
    point = manager.pick_assignment(result.witness)
    gap = abs(int_value(simulate(golden, point)) - int_value(simulate(approx, point)))
    return None if gap == result.value else f"its witness attains {gap}"


def cmd_verify(args) -> int:
    golden, approx = _load_pair(args)
    # One shared manager: after the first call, compile and subtract hit the cache.
    manager = BddManager(golden.input_count)
    results = {}
    for metric in (metrics.WCE, metrics.MAE):
        for algo in metrics.ALGORITHMS:
            results[(metric, algo)] = metrics.evaluate_error(
                golden, approx, metric, algo, manager
            )
    try:
        wce, mae, _ = oracle_metrics(golden, approx, limit=args.max_oracle_bits)
        oracle = {metrics.WCE: wce, metrics.MAE: mae}
    except OracleLimitError:
        oracle = None

    failures = 0
    for metric in (metrics.WCE, metrics.MAE):
        baseline = results[(metric, metrics.BASELINE)].value
        expected = oracle[metric] if oracle else baseline
        source = "oracle" if oracle else metrics.BASELINE
        for algo in metrics.ALGORITHMS:
            result = results[(metric, algo)]
            problems = []
            if result.value != expected:
                problems.append(f"expected {expected} from {source}")
            # The values alone pass a fault every family shares, so each WCE
            # witness is also checked by simulating both circuits there.
            if metric == metrics.WCE:
                problems.append(_witness_problem(golden, approx, manager, result))
            problems = [p for p in problems if p]
            print(
                f"{metric} {algo:<9} = {result.value}"
                + (f"  MISMATCH ({'; '.join(problems)})" if problems else "")
            )
            failures += bool(problems)
        if oracle:
            print(f"{metric} oracle    = {expected}")
    if failures:
        print(f"{failures} disagreement(s)", file=sys.stderr)
        return EXIT_VERIFY
    print("all algorithms agree" + (" with the oracle" if oracle else ""))
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = bench_mod.CorpusSpec.from_json(args.spec)
    records = bench_mod.run_corpus(spec, workers=args.workers)
    if args.out_csv:
        bench_mod.write_records_csv(records, args.out_csv)
    if args.out_jsonl:
        bench_mod.write_records_jsonl(records, args.out_jsonl)
    if records:
        print(bench_mod.format_summary(bench_mod.summarize(records), records))
    else:
        print("empty corpus, nothing to do")
    return EXIT_OK


def cmd_search(args) -> int:
    seed_circuit = parse_file(args.seed_circuit)
    tau = args.tau
    if args.tau_range is not None:
        # A WCE is an integer, so the range bound's integer part is exact
        # for it; an MAE bound keeps its fraction.
        tau = range_threshold(seed_circuit, args.tau_range)
        if args.metric == metrics.MAE:
            tau = args.tau_range * ((1 << seed_circuit.output_count) - 1)
    if tau < 0:
        raise SystemExit("threshold must be non-negative")
    if args.metric == metrics.WCE:
        if tau.denominator != 1:
            raise SystemExit("wce threshold must be an integer")
        tau = int(tau)
    cfg = SearchConfig(
        metric=args.metric,
        threshold=tau,
        algorithm=args.algo,
        offspring=args.lam,
        edits=args.edits,
        max_generations=-(-args.budget // args.lam),  # ceil(evals / lambda)
        max_seconds=args.time_budget,
        seed=args.rng_seed,
    )
    best, history = run_search(seed_circuit, cfg)
    text = emit(best)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.log:
        write_history(history, args.log)
    last = history[-1]
    err = _format_value(
        metrics.exact_value(last.best_error_numerator, last.best_error_denominator_exp),
        seed_circuit.input_count,
    )
    print(
        f"best: {last.best_size} active gates (seed "
        f"{seed_circuit.active_gate_count()}), {args.metric} = {err}, "
        f"{last.evals} evaluations",
        file=sys.stderr,
    )
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axbdd",
        description="Exact BDD-based error analysis for approximate arithmetic circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seed adder netlist")
    p.add_argument("--kind", choices=ADDER_KINDS, default="rca")
    p.add_argument("--bits", type=_positive_int, required=True, help="operand width")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--golden", required=True)
    pair.add_argument("--approx", required=True)
    pair.add_argument("--max-oracle-bits", type=int, default=DEFAULT_ORACLE_LIMIT)
    pair.add_argument(
        "--signedness",
        choices=("signed", "unsigned"),
        help="override both circuits' output interpretation",
    )

    p = sub.add_parser(
        "eval", parents=[pair], help="evaluate one error metric on a circuit pair"
    )
    p.add_argument("--metric", choices=metrics.METRICS, default=metrics.WCE)
    p.add_argument(
        "--algo",
        choices=(*metrics.ALGORITHMS, "oracle"),
        default=metrics.NOABS,
    )
    p.add_argument(
        "--relative",
        action="store_true",
        help="scale by the output range (2^m - 1)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "verify",
        parents=[pair],
        help="run all algorithms plus the oracle and demand agreement",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a corpus benchmark from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-jsonl")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("search", help="shrink a circuit under an error bound")
    p.add_argument("--seed-circuit", required=True)
    p.add_argument("--metric", choices=(metrics.WCE, metrics.MAE), default=metrics.WCE)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--tau", type=_fraction, help="absolute threshold (integer or a/b)"
    )
    group.add_argument(
        "--tau-range",
        type=_fraction,
        help="threshold as a fraction of the output range, e.g. 0.2",
    )
    p.add_argument("--algo", choices=metrics.ALGORITHMS, default=metrics.NOABS)
    p.add_argument("--lambda", dest="lam", type=_positive_int, default=4)
    p.add_argument("--edits", type=_positive_int, default=2)
    p.add_argument(
        "--budget", type=_positive_int, default=10_000, help="evaluation budget"
    )
    p.add_argument("--time-budget", type=float, help="optional wall-clock cap [s]")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--out", help="best netlist (default: stdout)")
    p.add_argument("--log", help="JSON-lines generation log")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InterfaceMismatchError as exc:
        print(f"interface mismatch: {exc}", file=sys.stderr)
        return EXIT_INTERFACE
    except OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (NetlistError, BddError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
