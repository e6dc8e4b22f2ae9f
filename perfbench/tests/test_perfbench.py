"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench/tests

Run from the root of a cliffrb checkout.  Scratch files go under
`.bench_work/tests/`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, run, speed, tracing, workloads  # noqa: E402

SCRATCH = os.path.join(".bench_work", "tests")


@pytest.fixture
def scratch(monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def test_benchmark_json_lists_what_the_driver_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_corrupted_reference_is_a_failed_job(scratch):
    spec = workloads.WORKLOADS["rb_1q"].warmups()[0]
    assert run.failures(run_in(scratch, spec, "good")) == []

    with open(spec["ref"]) as f:
        ref = json.load(f)
    header, first, *rest = ref["csv"].splitlines(keepends=True)
    fields = first.split(",")
    fields[-1] = f"{int(fields[-1]) - 1}\n"
    ref["csv"] = "".join([header, ",".join(fields)] + rest)
    ref["fit"]["params"]["eps_s"] *= 1 + 1e-6
    bad_ref = os.path.join(scratch, "ref.json")
    with open(bad_ref, "w") as f:
        json.dump(ref, f)
    reasons = run.failures(run_in(scratch, dict(spec, ref=bad_ref), "bad"))
    assert any(r.startswith("ref_csv") for r in reasons)
    assert any(r.startswith("ref_fit") for r in reasons)


def run_in(scratch, spec, name):
    return run.run_job(spec, os.path.join(scratch, name))


def test_wrong_gate_list_is_a_failed_job(scratch):
    kind = workloads.JOB_KINDS["compile"]
    params = {"circuits": [[5, 7]]}
    kind.run(params, scratch, workloads.JobContext(), None)
    assert run.failures({"checks": kind.check(params, scratch, None, None)}) == []

    path = os.path.join(scratch, "circuit0.json")
    with open(path) as f:
        report = json.load(f)
    gates = report["sequence"]["gates"]
    i = next(i for i, (g, _) in enumerate(gates) if g == "H")
    for wrong in ("S", "CX"):
        gates[i][0] = wrong
        with open(path, "w") as f:
            json.dump(report, f)
        reasons = run.failures({"checks": kind.check(params, scratch, None,
                                                     None)})
        assert reasons, wrong


def test_pauli_conjugation_matches_known_gates():
    images = workloads.gate_images(("H", "S", "CZ"))
    x0 = (0, 1, 0)
    assert checks.conjugate(x0, images["H"], [0]) == checks.parse_pauli("Z")
    assert checks.conjugate(x0, images["S"], [0]) == checks.parse_pauli("Y")
    assert (checks.conjugate((0, 2, 0), images["CZ"], [0, 1])
            == checks.parse_pauli("+ZX"))
    # Y = iXZ, so XZ = -iY and ZX = iY
    x, z = checks.parse_pauli("X"), checks.parse_pauli("Z")
    assert checks.pauli_product(x, z) == checks.parse_pauli("-iY")
    assert checks.pauli_product(z, x) == checks.parse_pauli("iY")


def test_traced_module_self_times_sum_to_the_root_span(scratch):
    spec = {"kind": "compile", "params": {"circuits": [[6, 3], [4, 9]]}}
    res = run.run_job(spec, os.path.join(scratch, "traced"), trace=True)
    assert run.failures(res) == []
    values = run.layer_values({"jobs": [res]})
    total = sum(values["_module_self"].values())
    assert total == pytest.approx(values["trace.job_s"], rel=1e-9)
    assert values["gates.sequence_tableau.calls"] == 2
    assert values["clifford.sample_uniform.calls"] == 2
    assert values["pauli.objects"] > 0


def test_speed_window_weights_samples_and_counts_their_cost():
    ref = speed.KERNEL_REF_S
    sampler = speed.SpeedSampler()
    # (start, end, fastest kernel time): full speed for 1 s, then half
    # speed for 3 s; the last sample lies outside the window
    sampler.samples = [(1.0, 1.001, ref), (4.0, 4.002, 2 * ref),
                       (9.0, 9.001, ref)]
    window = sampler.window(0.0, 5.0)
    assert window["samples"] == 2
    assert window["probe_s"] == pytest.approx(0.003)
    assert window["speed"] == pytest.approx((1.0 * 1 + 2.999 * 0.5) / 3.999)
    assert speed.SpeedSampler().window(0.0, 1.0)["speed"] == 1.0


def test_tracer_uninstall_restores_the_library():
    import cliffrb.clifford
    import cliffrb.protocol
    from cliffrb.pauli import PauliOperator

    originals = (cliffrb.clifford.clifford_compose,
                 cliffrb.protocol.clifford_compose, PauliOperator.__post_init__)
    tracer = tracing.Tracer("test")
    tracer.install()
    assert cliffrb.protocol.clifford_compose is not originals[1]
    assert cliffrb.protocol.clifford_compose is cliffrb.clifford.clifford_compose
    tracer.uninstall()
    assert (cliffrb.clifford.clifford_compose, cliffrb.protocol.clifford_compose,
            PauliOperator.__post_init__) == originals


def test_without_the_program_the_benchmark_fails(scratch):
    bare = os.path.abspath(os.path.join(scratch, "bare"))
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rb_1q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
