import dataclasses
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from axbdd import gen_adder, emit, oracle_metrics, parse, parse_file
from axbdd.cli import main

from conftest import HALF_ADDER_TEXT, xor_chain_text


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


@pytest.fixture
def pair(tmp_path):
    golden = tmp_path / "golden.net"
    approx = tmp_path / "approx.net"
    golden.write_text(
        ".model id2\n.inputs i0 i1\n.outputs o0 o1\n"
        ".gate BUF i0 -> o0\n.gate BUF i1 -> o1\n.end\n"
    )
    approx.write_text(
        ".model id2t\n.inputs i0 i1\n.outputs z o1\n"
        ".gate CONST0 -> z\n.gate BUF i1 -> o1\n.end\n"
    )
    return golden, approx


def test_gen_writes_parseable_exact_adder(tmp_path, capsys):
    out = tmp_path / "rca8.net"
    assert run_cli(["gen", "--kind", "rca", "--bits", "8", "--out", str(out)]) == 0
    circuit = parse_file(out)
    assert circuit.input_count == 16
    assert oracle_metrics(circuit, gen_adder("rca", 8, False))[0] == 0


def test_gen_to_stdout(capsys):
    assert run_cli(["gen", "--kind", "cla", "--bits", "2"]) == 0
    text = capsys.readouterr().out
    assert parse(text).output_count == 3


def test_gen_signed_interface(tmp_path):
    out = tmp_path / "cla16s.net"
    assert run_cli(
        ["gen", "--kind", "cla", "--bits", "16", "--signed", "--out", str(out)]
    ) == 0
    c = parse_file(out)
    assert c.input_count == 32
    assert c.output_count == 17
    assert c.signed


def test_gen_rejects_zero_bits(capsys):
    assert run_cli(["gen", "--bits", "0"]) == 2


def test_gen_rejects_out_of_range_bits(capsys):
    assert run_cli(["gen", "--bits", "40"]) == 2


def test_eval_identical_pair_prints_zero(pair, capsys):
    golden, _ = pair
    for algo in ("baseline", "ones", "noabs", "oracle"):
        code = run_cli(
            ["eval", "--golden", str(golden), "--approx", str(golden),
             "--metric", "wce", "--algo", algo]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"


def test_eval_mae_rational_format(pair, capsys):
    golden, approx = pair
    code = run_cli(
        ["eval", "--golden", str(golden), "--approx", str(approx),
         "--metric", "mae", "--algo", "noabs"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "2/2^2 (0.5)"


def test_eval_relative_wce(pair, capsys):
    golden, approx = pair
    code = run_cli(
        ["eval", "--golden", str(golden), "--approx", str(approx),
         "--metric", "wce", "--algo", "baseline", "--relative"]
    )
    assert code == 0
    # wce 1 over range 3
    assert capsys.readouterr().out.strip().startswith("1/3")


def test_eval_relative_formats_oracle_and_bdd_alike(pair, capsys):
    golden, approx = pair
    # wce 1 and mae 1/2 over the range 3
    for metric, expected in (("wce", "1/3 (0.333333)"), ("mae", "1/6 (0.166667)")):
        for algo in ("oracle", "baseline", "noabs"):
            code = run_cli(
                ["eval", "--golden", str(golden), "--approx", str(approx),
                 "--metric", metric, "--algo", algo, "--relative"]
            )
            assert code == 0
            assert capsys.readouterr().out.strip() == expected, (metric, algo)
    code = run_cli(["eval", "--golden", str(golden), "--approx", str(approx),
                    "--metric", "ep", "--relative"])
    assert code == 2
    assert "already relative" in capsys.readouterr().err


def test_eval_interface_mismatch_exits_3(tmp_path, pair, capsys):
    golden, _ = pair
    other = tmp_path / "other.net"
    other.write_text(HALF_ADDER_TEXT)
    code = run_cli(
        ["eval", "--golden", str(golden), "--approx", str(other)]
    )
    assert code == 3


def test_eval_oracle_limit_exits_4(tmp_path, capsys):
    big = tmp_path / "big.net"
    big.write_text(emit(gen_adder("rca", 13, False)))  # 26 inputs
    code = run_cli(
        ["eval", "--golden", str(big), "--approx", str(big), "--algo", "oracle"]
    )
    assert code == 4


def wide_pair(tmp_path, width=70):
    """Two 2-input netlists whose ``width`` outputs all copy ``a``, or are 0."""
    head = [".model wide", ".inputs a b",
            ".outputs " + " ".join(f"o{i}" for i in range(width))]
    copies = [f".gate BUF a -> o{i}" for i in range(width)]
    zeros = [f".gate CONST0 -> o{i}" for i in range(width)]
    gfile, afile = tmp_path / "wide_g.net", tmp_path / "wide_a.net"
    gfile.write_text("\n".join(head + copies + [".end"]) + "\n")
    afile.write_text("\n".join(head + zeros + [".end"]) + "\n")
    return ["--golden", str(gfile), "--approx", str(afile)]


def test_wide_outputs_hit_the_oracle_limit(tmp_path, capsys):
    pair = wide_pair(tmp_path)
    assert run_cli(["eval", *pair, "--algo", "oracle"]) == 4
    assert "70 outputs" in capsys.readouterr().err
    assert run_cli(["eval", *pair, "--algo", "noabs"]) == 0
    assert capsys.readouterr().out.strip() == str((1 << 70) - 1)
    # verify falls back to the baseline reference, as past the input limit.
    assert run_cli(["verify", *pair]) == 0
    out = capsys.readouterr().out
    assert "all algorithms agree" in out and "oracle" not in out


def test_eval_oracle_at_the_limit_warns_but_computes(tmp_path, capsys):
    from axbdd import mutate

    golden = gen_adder("rca", 12, False)  # 24 inputs: at the default limit
    approx = mutate(golden, 5, 2)
    gfile, afile = tmp_path / "g.net", tmp_path / "a.net"
    gfile.write_text(emit(golden))
    afile.write_text(emit(approx))
    code = run_cli(
        ["eval", "--golden", str(gfile), "--approx", str(afile),
         "--metric", "wce", "--algo", "oracle"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    oracle_value = captured.out.strip()
    code = run_cli(
        ["eval", "--golden", str(gfile), "--approx", str(afile),
         "--metric", "wce", "--algo", "noabs"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == oracle_value


def test_eval_signedness_override(tmp_path, capsys):
    import dataclasses

    from axbdd import evaluate_error, mutate

    golden = gen_adder("rca", 4, False)
    approx = mutate(golden, 21, 2)
    gfile, afile = tmp_path / "g.net", tmp_path / "a.net"
    gfile.write_text(emit(golden))
    afile.write_text(emit(approx))
    code = run_cli(
        ["eval", "--golden", str(gfile), "--approx", str(afile),
         "--metric", "wce", "--algo", "baseline", "--signedness", "signed"]
    )
    assert code == 0
    expected = evaluate_error(
        dataclasses.replace(golden, signed=True),
        dataclasses.replace(approx, signed=True),
        "wce",
        "baseline",
    ).value
    assert capsys.readouterr().out.strip() == str(expected)


def test_verify_beyond_oracle_reach(tmp_path, capsys):
    from axbdd import mutate

    golden = gen_adder("cska", 4, False)
    approx = mutate(golden, 3, 1)
    gfile, afile = tmp_path / "g.net", tmp_path / "a.net"
    gfile.write_text(emit(golden))
    afile.write_text(emit(approx))
    code = run_cli(
        ["verify", "--golden", str(gfile), "--approx", str(afile),
         "--max-oracle-bits", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "agree" in out
    assert "oracle" not in out


def test_eval_bad_netlist_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.net"
    broken.write_text(".model x\n.inputs a\n.outputs q\n.end\n")
    code = run_cli(["eval", "--golden", str(broken), "--approx", str(broken)])
    assert code == 2


def test_verify_agreement(pair, capsys):
    golden, approx = pair
    assert run_cli(["verify", "--golden", str(golden), "--approx", str(approx)]) == 0
    out = capsys.readouterr().out
    assert "agree" in out
    assert "oracle" in out


def test_verify_detects_corruption(pair, capsys, monkeypatch):
    import axbdd.metrics as metrics_mod

    def wrong(eps, *, limit=None):
        real = metrics_mod.wce_baseline(eps)
        return metrics_mod.ErrorValue(
            real.kind, "ones", real.value + 1, real.input_count, real.output_count
        )

    monkeypatch.setitem(metrics_mod._FAMILIES, ("wce", "ones"), wrong)
    golden, approx = pair
    code = run_cli(["verify", "--golden", str(golden), "--approx", str(approx)])
    assert code == 5
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("oracle_bits", ["24", "1"])  # the oracle, then the baseline
def test_verify_checks_each_wce_witness(pair, capsys, monkeypatch, oracle_bits):
    import axbdd.metrics as metrics_mod
    from axbdd import int_value, simulate

    golden, approx = (parse_file(path) for path in pair)
    wce = oracle_metrics(golden, approx)[0]
    zero = [0] * golden.input_count  # what pick_assignment(manager.true) gives
    gap = abs(int_value(simulate(golden, zero)) - int_value(simulate(approx, zero)))
    assert gap != wce

    def blind(eps, *, limit=None):
        real = metrics_mod.wce_ones(eps)
        return dataclasses.replace(real, witness=eps.manager.true)

    monkeypatch.setitem(metrics_mod._FAMILIES, ("wce", "ones"), blind)
    code = run_cli(["verify", "--golden", str(pair[0]), "--approx", str(pair[1]),
                    "--max-oracle-bits", oracle_bits])
    assert code == 5
    lines = [line for line in capsys.readouterr().out.splitlines() if "MISMATCH" in line]
    assert len(lines) == 1
    assert lines[0].startswith(f"wce ones      = {wce}") and f"attains {gap}" in lines[0]


def test_search_tau_zero_keeps_function(tmp_path, capsys):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 4, False)))
    out = tmp_path / "best.net"
    log = tmp_path / "log.jsonl"
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--metric", "wce",
         "--tau", "0", "--budget", "200", "--rng-seed", "7",
         "--out", str(out), "--log", str(log)]
    )
    assert code == 0
    best = parse_file(out)
    seed = parse_file(seed_file)
    assert oracle_metrics(seed, best)[0] == 0
    assert len(log.read_text().splitlines()) >= 1


def test_search_deterministic_outputs(tmp_path, capsys):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 4, False)))

    def one_run(tag):
        out = tmp_path / f"best{tag}.net"
        log = tmp_path / f"log{tag}.jsonl"
        code = run_cli(
            ["search", "--seed-circuit", str(seed_file), "--metric", "wce",
             "--tau", "2", "--budget", "120", "--rng-seed", "5",
             "--out", str(out), "--log", str(log)]
        )
        assert code == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        for e in entries:
            e.pop("elapsed_ns")
        return out.read_text(), entries

    assert one_run("a") == one_run("b")


def test_search_gateless_seed_exits_2(tmp_path, capsys):
    seed_file = tmp_path / "id.net"
    seed_file.write_text(".model id\n.inputs a b\n.outputs a b\n.end\n")
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--tau", "0", "--budget", "8"]
    )
    assert code == 2
    assert "circuit 'id' has no gates to mutate" in capsys.readouterr().err


def test_search_rejects_negative_tau(tmp_path, capsys):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 3, False)))
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--tau", "-1"]
    )
    assert code == 2


def test_search_rejects_fractional_wce_tau(tmp_path, capsys):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 3, False)))
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--metric", "wce",
         "--tau", "1/2"]
    )
    assert code == 2


@pytest.mark.parametrize("option", ["--tau", "--tau-range"])
def test_search_rejects_zero_denominator_tau(tmp_path, capsys, option):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 3, False)))
    code = run_cli(["search", "--seed-circuit", str(seed_file), option, "1/0"])
    assert code == 2
    assert "1/0" in capsys.readouterr().err


def test_search_rejects_nan_time_budget(tmp_path, capsys):
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 2, False)))
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--tau", "0",
         "--time-budget", "nan"]
    )
    assert code == 2
    assert "max_seconds" in capsys.readouterr().err


def test_search_tau_range(tmp_path, capsys, monkeypatch):
    import axbdd.cli as cli_mod

    thresholds, real_run_search = [], cli_mod.run_search

    def spy(seed_circuit, cfg):
        thresholds.append(cfg.threshold)
        return real_run_search(seed_circuit, cfg)

    monkeypatch.setattr(cli_mod, "run_search", spy)
    seed_file = tmp_path / "seed.net"
    seed_file.write_text(emit(gen_adder("rca", 3, False)))
    out = tmp_path / "best.net"
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--metric", "wce",
         "--tau-range", "0.2", "--budget", "80", "--out", str(out)]
    )
    assert code == 0
    seed = parse_file(seed_file)
    assert oracle_metrics(seed, parse_file(out))[0] <= int(0.2 * 15)
    # An MAE bound keeps its fraction: 1/7 of the range 15 is 15/7, not 2.
    code = run_cli(
        ["search", "--seed-circuit", str(seed_file), "--metric", "mae",
         "--tau-range", "1/7", "--budget", "8", "--out", str(out)]
    )
    assert code == 0
    assert thresholds == [3, Fraction(15, 7)]
    assert type(thresholds[0]) is int


def test_bench_command(tmp_path, capsys):
    spec = {
        "kinds": ["rca"],
        "bits": [5],
        "mutants": 2,
        "metrics": ["wce"],
        "algorithms": ["baseline", "noabs"],
        "seed": 4,
        "warmup": False,
        "evolve_generations": 0,
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_csv = tmp_path / "records.csv"
    code = run_cli(
        ["bench", "--spec", str(spec_file), "--out-csv", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("circuit_id,width,signed,metric,algorithm")
    assert len(lines) == 5
    assert "speedup" in capsys.readouterr().out


def test_bench_bad_spec_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kinds": ["rook"]}))
    assert run_cli(["bench", "--spec", str(spec_file)]) == 2


def test_bench_misshapen_spec_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    for spec in ([], {"bits": 16}, {"metrics": None}, {"warmup": "no"}):
        spec_file.write_text(json.dumps(spec))
        assert run_cli(["bench", "--spec", str(spec_file)]) == 2
        assert "error:" in capsys.readouterr().err


def test_bench_fractional_mutants_exits_2(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kinds": ["rca"], "bits": [3], "mutants": 1.5}))
    assert run_cli(["bench", "--spec", str(spec_file)]) == 2
    assert "mutants" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "axbdd.cli", "gen", "--bits", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert ".model rca2u" in result.stdout


def test_eval_too_deep_for_recursion_exits_2(tmp_path, capsys):
    chain = tmp_path / "chain.net"
    chain.write_text(xor_chain_text(sys.getrecursionlimit() + 100))
    assert run_cli(["eval", "--golden", str(chain), "--approx", str(chain)]) == 2
    assert "recursion limit" in capsys.readouterr().err
