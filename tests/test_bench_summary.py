"""tools/bench_summary.py on synthetic run records and a pytest log."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

LOG = """\
........ [100%]
============================= slowest 6 durations ==============================
12.50s call     tests/test_a.py::test_slow
3.25s call     tests/test_a.py::test_b
2.00s setup    tests/test_c.py::test_d
1.00s call     tests/test_c.py::test_e
0.50s call     tests/test_c.py::test_f
0.25s call     tests/test_c.py::test_g
=========== 40 passed, 2 deselected in 20.75s ===========
"""


def write_runs(root, rev, src_lines, job_p50):
    root.mkdir()
    for seed, value in zip((1, 2, 3), job_p50):
        metrics = {"setup_s": 0.3, "job_p50_s": value, "wall_s": 2 * value,
                   "peak_rss_mb": 60.0}
        record = {"git_rev": rev, "nproc": 2, "versions": {"numpy": "x"},
                  "src_lines": src_lines}
        (root / f"rb_1q-seed{seed}-trace0.json").write_text(json.dumps(
            {"record": record, "metrics": metrics, "failed_frac": 0.0}))
    (root / "rb_1q-seed1-trace1.json").write_text("{}")  # traced: skipped


def test_summary(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "aaa", 100, (1.0, 1.2, 1.1))
    write_runs(tmp_path / "change", "bbb", 90, (0.5, 1.3, 0.4))
    (tmp_path / "t1.log").write_text(LOG)
    monkeypatch.chdir(tmp_path)
    assert bench_summary.main([
        "--parent", "parent", "--change", "change", "--topic", "x",
        "--tier1-change", "t1.log"]) == 0
    out = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert out["git_rev"] == {"parent": "aaa", "change": "bbb"}
    assert out["src_lines"] == {"parent": 100, "change": 90}
    rb = out["workloads"]["rb_1q"]
    assert rb["seeds"] == [1, 2, 3]
    assert rb["parent"]["job_p50_s"] == 1.1
    assert rb["change"]["job_p50_s"] == 0.5
    assert rb["change_lower"]["job_p50_s"] == 2
    assert rb["change_lower"]["setup_s"] == 0
    assert rb["quartiles"]["job_p50_s"]["parent"] == pytest.approx(
        {"q1": 1.05, "q3": 1.15, "iqr": 0.1})
    assert rb["quartiles"]["job_p50_s"]["change"] == pytest.approx(
        {"q1": 0.45, "q3": 0.9, "iqr": 0.45})
    assert rb["beyond_parent_iqr"]["job_p50_s"]  # 0.6 apart, IQR 0.1
    assert rb["quartiles"]["setup_s"]["parent"] == {
        "q1": 0.3, "q3": 0.3, "iqr": 0.0}
    assert not rb["beyond_parent_iqr"]["setup_s"]  # equal medians
    t1 = out["tier1"]["change"]
    assert t1["wall_s"] == 20.75
    assert t1["counts"] == {"passed": 40, "deselected": 2}
    assert [t for t, _ in t1["slowest"]] == [
        "tests/test_a.py::test_slow", "tests/test_a.py::test_b",
        "tests/test_c.py::test_d", "tests/test_c.py::test_e",
        "tests/test_c.py::test_f"]


def test_traced_records(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "aaa", 100, (1.0, 1.2, 1.1))
    write_runs(tmp_path / "change", "bbb", 90, (0.5, 1.3, 0.4))
    for side, fit_s in (("parent", 0.2), ("change", 0.05)):
        (tmp_path / f"{side}-t.json").write_text(json.dumps({
            "workload": "rb_1q", "seed": 7, "metrics": {
                "analysis.fit.self_s": fit_s, "bounds.self_s": 0.0}}))
    monkeypatch.chdir(tmp_path)
    assert bench_summary.main([
        "--parent", "parent", "--change", "change", "--topic", "x",
        "--trace-parent", "parent-t.json",
        "--trace-change", "change-t.json"]) == 0
    out = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert "tier1" not in out
    assert out["traced"] == {
        side: {"workload": "rb_1q", "seed": 7,
               "metrics": {"analysis.fit.self_s": fit_s}}
        for side, fit_s in (("parent", 0.2), ("change", 0.05))}


def write_mixed_runs(root, dense_s):
    """group_small-like runs: each round one job of each of three kinds,
    plus one traced round that the kind medians skip."""
    root.mkdir()
    for seed, dense in zip((1, 2, 3), dense_s):
        kinds = {"group_cayley": 0.010, "group_dense": dense,
                 "group_bounds": 0.016}
        times = [[False, kind, 0.3, t + 0.001 * r, 0.3, t]
                 for r in range(3) for kind, t in kinds.items()]
        times.append([True, "group_dense", 0.3, 9.0, 0.3, 9.0])
        record = {"git_rev": "r", "nproc": 2, "versions": {}, "src_lines": 1}
        metrics = {"setup_s": 0.3, "job_p50_s": 0.01, "wall_s": 1.0,
                   "peak_rss_mb": 60.0}
        (root / f"group_small-seed{seed}-trace0.json").write_text(json.dumps(
            {"record": record, "metrics": metrics, "failed_frac": 0.0,
             "job_times": times}))


def test_kind_medians(tmp_path, monkeypatch):
    write_mixed_runs(tmp_path / "parent", (0.014, 0.015, 0.013))
    write_mixed_runs(tmp_path / "change", (0.005, 0.016, 0.004))
    monkeypatch.chdir(tmp_path)
    assert bench_summary.main([
        "--parent", "parent", "--change", "change", "--topic", "x"]) == 0
    out = json.loads((tmp_path / "BENCH_x.json").read_text())
    kinds = out["workloads"]["group_small"]["kind_job_p50_s"]
    assert sorted(kinds) == ["group_bounds", "group_cayley", "group_dense"]
    dense = kinds["group_dense"]
    assert dense["parent"] == pytest.approx(0.015)  # 0.015, 0.016, 0.014
    assert dense["change"] == pytest.approx(0.006)  # 0.006, 0.017, 0.005
    assert dense["change_lower"] == 2
    assert dense["quartiles"]["parent"] == pytest.approx(
        {"q1": 0.0145, "q3": 0.0155, "iqr": 0.001})
    assert dense["beyond_parent_iqr"]  # 0.009 apart
    assert kinds["group_cayley"]["change_lower"] == 0
    assert kinds["group_cayley"]["quartiles"]["change"]["iqr"] == 0.0
    assert not kinds["group_cayley"]["beyond_parent_iqr"]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10])
def test_quartiles_are_numpy_percentiles(size):
    values = np.random.default_rng(size).random(size).tolist()
    q1, q3 = np.percentile(values, [25, 75])
    got = bench_summary.quartiles(values)
    assert got == pytest.approx({"q1": q1, "q3": q3, "iqr": q3 - q1})


def test_one_kind_has_no_kind_medians(tmp_path, monkeypatch):
    write_runs(tmp_path / "parent", "aaa", 100, (1.0, 1.2, 1.1))
    write_runs(tmp_path / "change", "bbb", 90, (0.5, 1.3, 0.4))
    for side in ("parent", "change"):
        for path in (tmp_path / side).glob("*-trace0.json"):
            run = json.loads(path.read_text())
            run["job_times"] = [[False, "rb_1q", 0.3, 1.0, 0.3, 1.0]] * 3
            path.write_text(json.dumps(run))
    monkeypatch.chdir(tmp_path)
    assert bench_summary.main([
        "--parent", "parent", "--change", "change", "--topic", "x"]) == 0
    out = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert "kind_job_p50_s" not in out["workloads"]["rb_1q"]
