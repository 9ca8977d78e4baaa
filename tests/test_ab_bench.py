"""`tools/ab_bench.py`'s verdicts on synthetic runs, without running the benchmark."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

#: The parent's revision as `main` finds it, before the fixture below replaces it.
PARENT_REVISION = ab_bench.parent_revision


@pytest.fixture(autouse=True)
def revision(monkeypatch):
    # `main` names its BENCH file after the parent checkout's git revision;
    # the tests' checkouts are temporary directories and their runs are mocked
    monkeypatch.setattr(ab_bench, "parent_revision", lambda root: "abc1234")


def test_parent_revision_outside_git_is_unknown(tmp_path):
    assert PARENT_REVISION(str(tmp_path)) == "unknown"


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}
RATE = {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}


def verdict(metric, parent, change):
    runs = {side: [{"metrics": {metric["name"]: {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    (row,) = ab_bench.verdicts(runs, [metric])
    return row


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
WIDE = [0.60, 0.80, 1.00, 1.20, 1.40, 1.00]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # the change's median 30 % worse, beyond the 24 % bound
    (WALL, TIGHT, [1.30, 1.31, 1.29, 1.30, 1.28, 1.32], "worse"),
    (RATE, TIGHT, [0.70, 0.71, 0.69, 0.70, 0.72, 0.68], "worse"),
    # 5 % worse, with the parent's quartiles 2 % apart
    (WALL, TIGHT, [1.05, 1.04, 1.06, 1.05, 1.05, 1.05], "within bound"),
    (RATE, TIGHT, [0.95, 0.96, 0.94, 0.95, 0.95, 0.95], "within bound"),
    # the parent's quartiles 50 % apart: a median that did not move resolves nothing
    (WALL, WIDE, [1.00, 0.90, 1.10, 1.00, 0.95, 1.05], "unresolved"),
    (RATE, WIDE, [1.00, 0.90, 1.10, 1.00, 0.95, 1.05], "unresolved"),
    # unless every run of the change beats every run of the parent
    (WALL, WIDE, [0.50, 0.55, 0.58, 0.52, 0.51, 0.56], "within bound"),
    (RATE, WIDE, [1.50, 1.45, 1.42, 1.48, 1.49, 1.44], "within bound"),
    # a median worse by more than the bound is worse whatever the spread
    (WALL, WIDE, [1.30, 1.35, 1.40, 1.25, 1.45, 1.30], "worse"),
])
def test_regression_verdict(metric, parent, change, expected):
    assert verdict(metric, parent, change)["regression"] == expected


def test_gain_rule_beside_the_verdict():
    row = verdict(RATE, TIGHT, [1.30, 1.31, 1.29, 1.30, 1.28, 1.32])
    assert row["gain"] and row["regression"] == "within bound"
    assert row["wins"] == {"change": 6, "parent": 0, "ties": 0}
    assert not verdict(RATE, WIDE, [1.00, 0.90, 1.10, 1.00, 0.95, 1.05])["gain"]


def test_pair_ratios():
    # the change/parent ratio of every pair, in pair order, and their median
    row = verdict(WALL, [1.0, 2.0, 4.0, 1.0], [0.5, 3.0, 2.0, 1.0])
    assert row["pair_ratios"] == [0.5, 1.5, 0.5, 1.0]
    assert row["pair_ratio"] == 0.75
    # the ratio of the two sides' medians is another number
    assert row["ratio"] == 1.0


def summary(wall):
    return json.dumps({"correct": True, "failed": 0, "metrics": {
        "wall_s": {"value": wall}, "evals_per_s": {"value": 1.0 / wall}}})


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n", '{"wall_s": 1}'],
                         ids=["empty", "not-json", "not-a-summary"])
def test_malformed_run_is_not_clean(tmp_path, monkeypatch, capsys, stdout):
    # the second run of three pairs prints no summary: it is reported with
    # its standard error, the other pairs are still run and compared, and the
    # script exits 1
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [WALL, RATE]}))
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs["cwd"])
        out = stdout if len(calls) == 2 else "log line\n" + summary(1.0 + 0.01 * len(calls))
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="the run's stderr")

    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    monkeypatch.setattr("sys.argv", ["ab_bench.py", "--parent", str(tmp_path), "--change",
                                     str(tmp_path), "--workload", "w", "--pairs", "3"])
    assert ab_bench.main() == 1
    assert len(calls) == 6
    out, err = capsys.readouterr()
    assert "printed no JSON summary line:\nthe run's stderr" in err
    assert "w: 2 of 3 pairs" in out
    assert "not clean: change pair 1: printed no JSON summary line" in out


@pytest.mark.parametrize("cached", [("parent",), ("change",), ("parent", "change"), ()])
def test_bytecode_on_one_side_only_is_refused(tmp_path, monkeypatch, capsys, cached):
    # one checkout with .pyc files in the package's cache and one without: exit 2
    # before any run, naming the directory; both or neither: the pairs run
    roots = {side: tmp_path / side for side in ab_bench.SIDES}
    for side, root in roots.items():
        (root / ab_bench.BYTECODE).mkdir(parents=True)
        (root / ab_bench.BYTECODE / "notes.txt").write_text("not bytecode")
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [WALL, RATE]}))
        if side in cached:
            (root / ab_bench.BYTECODE / "inference.cpython-311.pyc").write_bytes(b"")
    runs = []

    def run(cmd, **kwargs):
        runs.append(kwargs["cwd"])
        return subprocess.CompletedProcess(cmd, 0, stdout=summary(1.0), stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    monkeypatch.setattr("sys.argv", ["ab_bench.py", "--parent", str(roots["parent"]),
                                     "--change", str(roots["change"]), "--workload", "w",
                                     "--pairs", "1"])
    if len(cached) == 1:
        assert ab_bench.main() == 2
        assert runs == []
        assert str(roots[cached[0]] / ab_bench.BYTECODE) in capsys.readouterr().err
    else:
        assert ab_bench.main() == 0
        assert len(runs) == 2


def test_bench_record_holds_the_verdicts():
    # synthetic runs: a clean parent, a change with one run that gave no metrics
    # (left out of the pairs) and one that counted a failed operation
    def run(wall, failed=0):
        return {"correct": True, "failed": failed, "metrics": {
            "wall_s": {"value": wall}, "evals_per_s": {"value": 1.0 / wall}}}

    runs = {"parent": [run(1.0), run(1.1), run(0.9), run(1.0)],
            "change": [run(0.8), {"correct": False, "failed": None, "metrics": None},
                       run(0.7, failed=2), run(0.8)]}
    compared = [0, 2, 3]
    rows = ab_bench.verdicts({side: [runs[side][i] for i in compared] for side in ab_bench.SIDES},
                             [WALL, RATE])
    record = ab_bench.bench_record("w", "abc1234", 35, [5, 6, 7, 8], [5, 7, 8], runs, rows)
    assert record["workload"] == "w" and record["parent_rev"] == "abc1234"
    assert set(record["machine"]) == {"cpu_count", "python", "numpy"}
    assert record["run_seconds"] == 35
    assert (record["seeds"], record["seeds_compared"]) == ([5, 6, 7, 8], [5, 7, 8])
    assert record["clean_runs"] == {"parent": 4, "change": 2}
    wall, rate = record["metrics"]
    assert wall["name"] == "wall_s" and rate["name"] == "evals_per_s"
    assert wall["pair_ratios"] == pytest.approx([0.8, 0.7 / 0.9, 0.8])
    assert wall["parent"][1] == 1.0 and wall["change"][1] == 0.8
    assert wall["wins"] == {"change": 3, "parent": 0, "ties": 0}
    assert rate["regression"] == "within bound" and wall["regression"] == "within bound"


def test_bench_file_is_written_at_the_change_root(tmp_path, monkeypatch):
    # pair i runs seed seed0 + i on both sides, and the record lands beside
    # the change's BENCHMARK.json under the parent's revision
    roots = {side: tmp_path / side for side in ab_bench.SIDES}
    for root in roots.values():
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [WALL, RATE]}))
    seeds = []

    def run(cmd, **kwargs):
        seeds.append(int(cmd[cmd.index("--seed") + 1]))
        return subprocess.CompletedProcess(cmd, 0, stdout=summary(1.0 + 0.1 * len(seeds)),
                                           stderr="")

    monkeypatch.setattr(ab_bench.subprocess, "run", run)
    monkeypatch.setattr("sys.argv", ["ab_bench.py", "--parent", str(roots["parent"]),
                                     "--change", str(roots["change"]), "--workload", "w",
                                     "--pairs", "2", "--seed0", "40"])
    assert ab_bench.main() == 0
    assert seeds == [40, 40, 41, 41]
    record = json.loads((roots["change"] / "BENCH_w_abc1234.json").read_text())
    assert record["seeds"] == record["seeds_compared"] == [40, 41]
    assert record["clean_runs"] == {"parent": 2, "change": 2}
    assert [m["name"] for m in record["metrics"]] == ["wall_s", "evals_per_s"]
    assert not (roots["parent"] / "BENCH_w_abc1234.json").exists()
