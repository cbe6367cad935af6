import csv
import io
import json
import re
import threading
import time

import pytest

from powertree.bench import BenchError, derive_seed, parse_config, run_bench
from powertree.cli import main
from powertree.generators import generate
from powertree.instance import serialize


SUITE = """
seed = 42
reps = 1
k = 3
mode = spanning
instance gen:uniform-random nodes=6 terminals=6 seed=5
instance gen:uniform-random nodes=7 terminals=7 seed=6
solver exact
solver mst
solver irr
"""


def strip_wall_time(report: str) -> str:
    lines = report.splitlines()
    out = []
    for line in lines:
        cells = line.split(",")
        if len(cells) > 9:
            cells[9] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def test_bench_row_count_and_summary():
    cfg = parse_config(SUITE)
    report = run_bench(cfg)
    lines = report.strip().splitlines()
    data = [l for l in lines if ",row," in l]
    summary = [l for l in lines if ",summary," in l]
    assert len(data) == 2 * 3  # instances x solvers, reps = 1
    assert len(summary) == 3
    assert lines[0].startswith("schema,row_type,instance")


def test_bench_reproducible_modulo_wall_time():
    cfg = parse_config(SUITE)
    a = strip_wall_time(run_bench(cfg))
    b = strip_wall_time(run_bench(parse_config(SUITE)))
    assert a == b


def test_bench_mst_ratio_at_most_two():
    cfg = parse_config(SUITE)
    report = run_bench(cfg)
    for line in report.splitlines():
        cells = line.split(",")
        if len(cells) > 7 and cells[1] == "row" and cells[3] == "mst" and cells[7]:
            assert float(cells[7]) <= 2.0


def test_bench_solver_error_recorded_not_fatal():
    # 13-node instance exceeds the exact guard; the row records the error
    cfg = parse_config(
        "seed = 1\nmode = spanning\n"
        "instance gen:uniform-random nodes=13 terminals=13 seed=2\n"
        "solver exact\nsolver mst\n"
    )
    report = run_bench(cfg)
    rows = [l for l in report.splitlines() if ",row," in l]
    exact_row = next(l for l in rows if ",exact," in l)
    assert "SolverError" in exact_row
    mst_row = next(l for l in rows if ",mst," in l)
    assert "SolverError" not in mst_row
    assert mst_row.split(",")[7] == ""  # no exact optimum, so no ratio


ORACLE_SUITE = """
seed = 3
reps = 3
mode = steiner
instance gen:uniform-random nodes=7 terminals=4 seed=8
instance gen:two-level nodes=8 terminals=3 seed=9
solver exact
solver mst
solver steiner-cost
"""


def report_rows(report: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(report)))


def test_bench_solves_each_exact_row_once(monkeypatch):
    import powertree.bench

    calls = []
    real = powertree.bench.exact_min_power

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr("powertree.bench.exact_min_power", counting)
    rows = report_rows(run_bench(parse_config(ORACLE_SUITE)))
    assert len(calls) == 3 * 2  # reps x instances, no pre-pass
    data = [r for r in rows if r["row_type"] == "row"]
    assert len(data) == 3 * 2 * 3 and all(r["ratio_to_exact"] and not r["error"] for r in data)
    assert all(r["ratio_to_exact"] == "1.000000" for r in data if r["solver"] == "exact")
    assert all(r["mean_ratio"] for r in rows if r["row_type"] == "summary")


def test_bench_exact_exception_recorded_not_fatal(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("stub failure")

    monkeypatch.setattr("powertree.bench.exact_min_power", broken)
    rows = report_rows(run_bench(parse_config(ORACLE_SUITE)))
    data = [r for r in rows if r["row_type"] == "row"]
    assert {r["error"] for r in data if r["solver"] == "exact"} == {"RuntimeError: stub failure"}
    assert all(r["power"] and not r["error"] for r in data if r["solver"] != "exact")
    assert not any(r["ratio_to_exact"] for r in data)
    assert not any(r["mean_ratio"] for r in rows if r["row_type"] == "summary")


def test_bench_ratio_past_float_range_is_inf(tmp_path):
    # the optimum, 3/10^4000, against an mst row of power about 2
    tiny = "1/1" + "0" * 4000
    path = tmp_path / "tiny.mpst"
    path.write_text(f"nodes 4\nedge 0 1 {tiny}\nedge 1 2 {tiny}\nedge 0 2 1\nedge 2 3 1\nterminals 0 2\nroot 0\n")
    rows = report_rows(run_bench(parse_config(f"threads = 1\ninstance file:{path}\nsolver exact\nsolver mst\n")))
    mst = next(r for r in rows if r["row_type"] == "row" and r["solver"] == "mst")
    assert mst["ratio_to_exact"] == "inf" and mst["error"] == ""
    assert mst["power"] and mst["cost"]
    summary = next(r for r in rows if r["row_type"] == "summary" and r["solver"] == "mst")
    assert summary["max_ratio"] == "inf"


def test_bench_thread_count_changes_no_row():
    one = strip_wall_time(run_bench(parse_config(ORACLE_SUITE + "threads = 1\n")))
    for threads in ("", "threads = 3\n", "threads = 64\n"):
        assert strip_wall_time(run_bench(parse_config(ORACLE_SUITE + threads))) == one


def test_bench_rows_run_in_order_on_calling_thread(monkeypatch):
    import powertree.bench

    calls = []
    real = powertree.bench.run_solver

    def recording(instance, solver, mode, k, seed, max_iters):
        calls.append((threading.get_ident(), instance.node_count, solver, seed))
        return real(instance, solver, mode, k, seed, max_iters)

    monkeypatch.setattr("powertree.bench.run_solver", recording)
    cfg = parse_config(ORACLE_SUITE + "threads = 4\n")
    rows = [r for r in report_rows(run_bench(cfg)) if r["row_type"] == "row"]
    assert {ident for ident, *_ in calls} == {threading.get_ident()}
    nodes = [7, 8]  # node counts of ORACLE_SUITE's two instances
    want = [(nodes[i // 9], ["exact", "mst", "steiner-cost"][i // 3 % 3], derive_seed(3, i)) for i in range(18)]
    assert [call[1:] for call in calls] == want
    assert [(r["solver"], int(r["seed"])) for r in rows] == [(solver, seed) for _, solver, seed in want]


def test_config_errors():
    with pytest.raises(BenchError, match="unknown solver"):
        parse_config("instance gen:uniform-random nodes=4 terminals=4 seed=1\nsolver nope\n")
    with pytest.raises(BenchError, match="no instances"):
        parse_config("solver exact\n")
    body = "instance gen:uniform-random nodes=4 terminals=4 seed=1\nsolver exact\n"
    for line, message in [
        ("threads = 0", "line 1: threads must be >= 1"),
        ("reps = 0", "line 1: reps must be >= 1"),
        ("reps = -1", "line 1: reps must be >= 1"),
        ("seed = abc", "line 1: seed must be an integer"),
        ("k = 3.5", "line 1: k must be an integer"),
        ("k = 9", r"line 1: k must be in \[2, 4\], got 9"),
        ("k = 1", r"line 1: k must be in \[2, 4\], got 1"),
        ("max_iters = 0", "line 1: max_iters must be >= 1"),
    ]:
        with pytest.raises(BenchError, match=message):
            parse_config(line + "\n" + body)


def test_config_bounds_threads_and_rows():
    body = "instance gen:uniform-random nodes=4 terminals=4 seed=1\nsolver exact\nsolver mst\n"
    for head, message in [
        ("threads = 1000000\n", "threads must be at most 64, got 1000000"),
        ("reps = 1000000000000\n", "suite has 2000000000000 rows"),
        ("reps = 5001\n", "suite has 10002 rows"),
    ]:
        start = time.perf_counter()
        with pytest.raises(BenchError, match=message):
            parse_config(head + body)
        assert time.perf_counter() - start < 1.0
    assert parse_config("threads = 64\nreps = 5000\n" + body).reps == 5000


def test_derive_seed_stable():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)


# ---------------------------------------------------------------------------
# CLI dispatch


def test_cli_solve_exact(tmp_path, capsys):
    inst = generate("uniform-random", 6, 3, 9)
    path = tmp_path / "x.mpst"
    path.write_text(serialize(inst))
    assert main(["solve", str(path), "--algo", "exact"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["solver"] == "exact"
    assert set(record) >= {"edges", "node_powers", "total_power", "total_cost"}


LP_INSTANCE = """nodes 7
edge 0 1 10
edge 1 2 4
edge 0 3 8
edge 1 4 3
edge 1 5 4
edge 3 6 1
edge 0 2 5
edge 0 6 5
edge 1 3 2
edge 1 6 9
edge 2 3 9
edge 3 4 5
terminals 0 1 2 4 5 6
root 0
"""


@pytest.mark.parametrize("k, want", [
    (2, {"columns": 30, "objective": 37.0, "rows": 10,
         "nonzero": {"(0+2,0)": 1.0, "(1+2,2)": 1.0, "(1+4,1)": 1.0, "(1+5,1)": 1.0, "(1+6,1)": 1.0}}),
    (3, {"columns": 90, "objective": 29.5, "rows": 10,
         "nonzero": {"(0+1+2,0)": 1.0, "(1+4+5,1)": 0.5, "(1+4+6,1)": 0.5, "(1+5+6,1)": 0.5}}),
])
def test_cli_lp_golden(tmp_path, capsys, k, want):
    # `generate("uniform-random", 7, 6, 28, edge_prob=0.5)`: a fractional
    # optimum, four cut rows past the singletons and a sink that is not the
    # smallest terminal of its set
    path = tmp_path / "x.mpst"
    path.write_text(LP_INSTANCE)
    assert main(["lp", str(path), "--k", str(k)]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_cli_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", "missing.mpst", "--algo", "exact", "--bogus"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "x.mpst", "--algo", "exact", "--k", "9"],
    ["lp", "x.mpst", "--k", "1"],
    ["component", "x.mpst", "--terminals", "0,1", "--k", "5"],
])
def test_cli_k_out_of_range_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--k: invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["decompose", "x.mpst", "--tree", "t.txt", "--mode", "hpow", "--q", "abc"], "--q"),
    (["component", "x.mpst", "--terminals", "1,x"], "--terminals"),
    (["component", "x.mpst", "--terminals", "0,,1"], "--terminals"),
])
def test_cli_malformed_value_exits_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["exact", "mst", "steiner-cost"])
def test_cli_trace_without_irr_exits_2(algo, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    with pytest.raises(SystemExit) as info:
        main(["solve", "x.mpst", "--algo", algo, "--trace", str(out)])
    assert info.value.code == 2
    assert "--trace needs --algo irr" in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_record(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "missing.mpst"), "--algo", "exact"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "type" in err


def test_cli_bench_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "seed = 7\nmode = spanning\n"
        "instance gen:uniform-random nodes=5 terminals=5 seed=3\n"
        "solver exact\nsolver mst\n"
    )
    out = tmp_path / "r.csv"
    assert main(["bench", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("schema,row_type")
    printed = capsys.readouterr().out
    assert "summary" in printed


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.mpst"
    assert main(["gen", "--kind", "two-level", "--nodes", "6", "--terminals", "3",
                 "--seed", "4", "--low", "0", "--high", "1", "-o", str(out)]) == 0
    text = out.read_text()
    assert re.search(r"^nodes 6$", text, re.M)
    assert main(["path", str(out), "--from", "0", "--to", "5"]) == 0
    json.loads(capsys.readouterr().out)


def test_cli_gen_bad_parameter_exits_1(capsys):
    start = time.perf_counter()
    assert main(["gen", "--kind", "uniform-random", "--nodes", "200000", "--terminals", "3",
                 "--seed", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InstanceError" and "node pairs" in err["error"]


@pytest.mark.parametrize("edge_prob", ["2", "nan", "-0.1"])
def test_cli_gen_edge_prob_outside_unit_interval_exits_1(tmp_path, capsys, edge_prob):
    out = tmp_path / "g.mpst"
    assert main(["gen", "--kind", "uniform-random", "--nodes", "5", "--terminals", "3",
                 "--seed", "1", "--edge-prob", edge_prob, "-o", str(out)]) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InstanceError" and "edge_prob must be in [0, 1]" in err["error"]


def test_cli_gen_reduction_past_file_limits_exits_1(capsys):
    start = time.perf_counter()
    assert main(["gen", "--kind", "reduction-wrapped", "--nodes", "320", "--terminals", "3",
                 "--seed", "1", "--edge-prob", "1.0"]) == 1
    assert time.perf_counter() - start < 2.0
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InstanceError" and "file limits" in err["error"]


def test_cli_gen_huge_two_level_cost_exits_1(capsys):
    start = time.perf_counter()
    assert main(["gen", "--kind", "two-level", "--nodes", "6", "--terminals", "3",
                 "--seed", "1", "--high", "1e10000000"]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InstanceError" and "digits" in err["error"]


def test_bench_huge_two_level_cost_exits_1(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("instance gen:two-level nodes=6 terminals=3 seed=1 high=1e10000000\nsolver mst\n")
    start = time.perf_counter()
    assert main(["bench", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "InstanceError" and "digits" in err["error"]


@pytest.mark.parametrize("spec, message", [
    ("gen:", "names no generator kind"),
    ("gen:uniform-random nodes=abc terminals=3 seed=1", "bad nodes value 'abc'"),
    ("gen:uniform-random nodes=6 terminals=3 seed=1 edge_prob", "bad edge_prob value ''"),
    ("gen:uniform-random nodes=6 seed=1", "lacks generator parameter terminals"),
])
def test_bench_malformed_gen_spec_exits_1(tmp_path, capsys, spec, message):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"instance {spec}\nsolver mst\n")
    assert main(["bench", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "BenchError" and spec in err["error"] and message in err["error"]


def test_cli_decompose_and_analyze(tmp_path, capsys):
    inst = generate("uniform-random", 7, 4, 21)
    ipath = tmp_path / "x.mpst"
    ipath.write_text(serialize(inst))
    from powertree.exact import exact_min_power
    tree = exact_min_power(inst, "steiner")
    tpath = tmp_path / "t.txt"
    tpath.write_text(" ".join(map(str, tree.edges)))
    assert main(["decompose", str(ipath), "--tree", str(tpath), "--mode", "degree",
                 "--delta", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bound_holds"] and record["component_graph_is_tree"]
    assert main(["decompose", str(ipath), "--tree", str(tpath), "--mode", "hpow", "--q", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == 1
    # a well-formed q outside [0, h-1] is a runtime error, like --delta 2
    assert main(["decompose", str(ipath), "--tree", str(tpath), "--mode", "hpow", "--q", "3"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "q must be in [0, 2], got 3"
    assert main(["analyze", "classify", str(ipath), "--tree", str(tpath)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "alpha" in record
    assert main(["analyze", "delta", "--kind", "spanning", "--i-max", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("i,delta")


def test_cli_analyze_witness(tmp_path, capsys):
    # a solver tree gets normalized to the full-component form automatically
    ipath = tmp_path / "w.mpst"
    ipath.write_text(
        "nodes 6\nedge 0 1 9\nedge 0 2 7\nedge 0 3 5\nedge 0 4 3\nedge 4 5 2\n"
        "terminals 1 2 3 5\nroot 1\n"
    )
    tpath = tmp_path / "t.txt"
    tpath.write_text("0 1 2 3 4")
    assert main(["analyze", "witness", str(ipath), "--tree", str(tpath),
                 "--node", "0", "--i", "2", "--trials", "400", "--seed", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["trials"] == 400
    assert abs(record["freq_s_equals_d"] - 0.25) < 0.1
    # an oversized trial count is a structured error, not an endless loop
    start = time.perf_counter()
    assert main(["analyze", "witness", str(ipath), "--tree", str(tpath),
                 "--node", "0", "--i", "2", "--trials", "1000000000000", "--seed", "3"]) == 1
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "AnalysisError" and "trials must be at most" in err["error"]
