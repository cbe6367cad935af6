"""Checks of the scripts under tools/ that need no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script("bench_pairs")


def test_quartile_distance():
    assert bench_pairs.quartile_distance([1, 2, 3, 4, 5]) == 3.0  # q1 1.5, q3 4.5
    assert bench_pairs.quartile_distance([7.0]) == 0.0
    assert bench_pairs.quartile_distance([]) == 0.0
    assert bench_pairs.quartile_distance([2.0, 2.0, 2.0]) == 0.0


TIGHT = [100.0, 101.0, 102.0, 103.0, 104.0]   # quartile distance 2.5% of the median
NOISY = [50.0, 100.0, 150.0, 200.0, 250.0]    # quartile distance 100/150 of the median


@pytest.mark.parametrize("base, change, expected", [
    (TIGHT, [60.0, 61.0, 62.0, 63.0, 64.0], "worse"),      # median −39%
    (NOISY, [50.0, 60.0, 70.0, 80.0, 90.0], "worse"),      # worse wins over a noisy base
    (TIGHT, [95.0, 96.0, 97.0, 98.0, 99.0], "ok"),         # −4.9%, inside the bound
    (TIGHT, [200.0, 201.0, 202.0, 203.0, 204.0], "ok"),
    (NOISY, [140.0, 150.0, 160.0, 170.0, 180.0], "unresolved"),
    (NOISY, [251.0, 260.0, 270.0, 280.0, 290.0], "ok"),    # every change run beats every base run
    (NOISY, [250.0, 260.0, 270.0, 280.0, 290.0], "unresolved"),  # a tie is not a beat
])
def test_verdict_higher_is_better(base, change, expected):
    assert bench_pairs.verdict(base, change, "higher", 0.25) == expected


@pytest.mark.parametrize("base, change, expected", [
    ([1.0, 1.01, 1.02, 1.03, 1.04], [1.5, 1.5, 1.5, 1.5, 1.5], "worse"),   # +47% time
    ([1.0, 1.01, 1.02, 1.03, 1.04], [0.5, 0.5, 0.5, 0.5, 0.5], "ok"),
    ([0.5, 1.0, 1.5, 2.0, 2.5], [1.2, 1.3, 1.4, 1.5, 1.6], "unresolved"),
    ([0.5, 1.0, 1.5, 2.0, 2.5], [0.1, 0.2, 0.3, 0.4, 0.49], "ok"),        # every change run beats every base run
    ([0.5, 1.0, 1.5, 2.0, 2.5], [0.1, 0.2, 0.3, 0.4, 0.5], "unresolved"),  # a tie is not a beat
    ([0.5, 1.0, 1.5, 2.0, 2.5], [2.6, 2.7, 2.8, 2.9, 3.0], "worse"),      # worse wins over a noisy base
])
def test_verdict_lower_is_better(base, change, expected):
    assert bench_pairs.verdict(base, change, "lower", 0.25) == expected


def test_verdict_bound_is_relative_to_the_base_median():
    assert bench_pairs.verdict([100.0] * 3, [95.1] * 3, "higher", 0.05) == "ok"
    assert bench_pairs.verdict([100.0] * 3, [94.9] * 3, "higher", 0.05) == "worse"
    assert bench_pairs.verdict([100.0] * 3, [104.9] * 3, "lower", 0.05) == "ok"
    assert bench_pairs.verdict([100.0] * 3, [105.1] * 3, "lower", 0.05) == "worse"


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["0", "--workload", "irr-steiner-k4", "--workload", "no-such-workload"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload no-such-workload" in err and "irr-steiner-k4" in err


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["0", "--pairs", "0"])
    assert exit_info.value.code == 2
    assert "--pairs must be >= 1" in capsys.readouterr().err
