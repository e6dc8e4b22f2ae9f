"""cliffrb benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cliffrb checkout.  Workloads (see BENCHMARK.json for
why each exists): rb_1q, rb_2q_interleaved, compile, group_small, or `all`
to run the four in turn (the final JSON then keys metrics "<workload>/<name>").

One driver process runs the jobs one at a time, each in a fresh Python
process (`perfbench/job.py`), so every job pays the CLI import and the lazy
table builds the way a command-line user does.  A run is:

1. a warm-up job at a fixed seed for each job kind with a stored reference
   in `perfbench/refs/` (rb_1q, rb_2q_interleaved), whose outputs must
   match it;
2. rounds of the workload's fixed job list, built from `--seed`, while the
   next round is expected to end within `--seconds` (at least two rounds).
   With `--trace 1` untraced and traced rounds alternate (at least one of
   each).

Times are seconds at a reference CPU speed: on a shared host the speed a
process gets moves by up to 2x for minutes at a time, so each job samples
its CPU's speed while it runs and scales its set-up and job times by it
(see `perfbench/speed.py`).  A change in the program's work moves these
times as it moves wall time; the host's load moves them far less.  The same
end-to-end times in plain wall seconds are printed as `wall_clock.*`.

Every job's outputs are checked (see `perfbench/checks.py`) and must repeat
exactly from round to round.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end metrics
(`--trace 0`) or the per-layer metrics of the traced rounds (`--trace 1`).
Lines before it print every metric with its unit, and the traced run's
per-module split.  A record of the run goes to `.bench_results/`; the job
directories under `.bench_work/` are removed at the end.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.getcwd())

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 150
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

END_TO_END = {"setup_s": "s", "job_p50_s": "s", "wall_s": "s",
              "peak_rss_mb": "MB"}

MODULES = ("pauli", "clifford", "gates", "stabilizer", "errors", "dense",
           "subgroups", "decomp", "protocol", "analysis", "bounds", "cli",
           "bench")

# per-layer metric -> unit; "<span>.calls" / "<span>.self_s" come from the
# spans, "<module>.self_s" sums a module, the rest are tracer counters
PER_LAYER = {
    "protocol.sequences": "count", "protocol.steps": "count",
    "protocol.run_experiment.calls": "count",
    "protocol.run_experiment.self_s": "s",
    "protocol.gen_exact_sequence.calls": "count",
    "protocol.gen_exact_sequence.self_s": "s",
    "protocol.gen_interleaved_sequence.calls": "count",
    "protocol.gen_interleaved_sequence.self_s": "s",
    "protocol.self_s": "s",
    "errors.expected_sequence_fidelity.calls": "count",
    "errors.expected_sequence_fidelity.self_s": "s",
    "errors.self_s": "s",
    "stabilizer.apply_clifford.calls": "count",
    "stabilizer.apply_clifford.self_s": "s",
    "stabilizer.stabilizer_decomposition.calls": "count",
    "stabilizer.deterministic_z_outcome.calls": "count",
    "stabilizer.self_s": "s",
    "clifford.sample_uniform.calls": "count",
    "clifford.sample_uniform.self_s": "s",
    "clifford.clifford_compose.calls": "count",
    "clifford.clifford_compose.self_s": "s",
    "clifford.clifford_inverse.calls": "count",
    "clifford.clifford_inverse.self_s": "s",
    "clifford.clifford_apply.calls": "count",
    "clifford.clifford_apply.self_s": "s",
    "clifford.embed_tableau.calls": "count",
    "clifford.embed_tableau.self_s": "s",
    "clifford.enumerate_group.self_s": "s",
    "clifford.self_s": "s",
    "pauli.objects": "count",
    "pauli.pauli_multiply.calls": "count",
    "pauli.pauli_commutes.calls": "count",
    "pauli.self_s": "s",
    "gates.sequence_tableau.calls": "count",
    "gates.sequence_tableau.self_s": "s",
    "gates.self_s": "s",
    "decomp.block_decompose.self_s": "s",
    "decomp.translate_sequence.self_s": "s",
    "decomp.cayley_search.full.self_s": "s",
    "decomp.cayley_search.quotient.self_s": "s",
    "decomp.gates_emitted": "count",
    "decomp.self_s": "s",
    "analysis.fit.calls": "count",
    "analysis.fit.self_s": "s",
    "analysis.fit.iterations": "count",
    "analysis.bootstrap.self_s": "s",
    "analysis.bootstrap.failures": "count",
    "analysis.bootstrap.ok_ratio": "ratio",
    "analysis.self_s": "s",
    "bounds.convolve.calls": "count",
    "bounds.convolve.self_s": "s",
    "bounds.tv_series.self_s": "s",
    "bounds.kappa_bounds.self_s": "s",
    "bounds.undetected_probability.calls": "count",
    "bounds.self_s": "s",
    "dense.group_twirl.self_s": "s",
    "dense.conjugate_by_tableau.calls": "count",
    "dense.DenseSuperoperator.compose.self_s": "s",
    "dense.self_s": "s",
    "subgroups.q_subgroup.self_s": "s",
    "subgroups.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_frac": "ratio",
}


# -- jobs -------------------------------------------------------------------------


def run_job(spec: dict, jobdir: str, trace: bool = False) -> dict:
    """Run one job in a fresh interpreter and return its result record."""
    os.makedirs(jobdir, exist_ok=True)
    for stale in ("result.json", "spans.npz"):
        if os.path.exists(os.path.join(jobdir, stale)):
            os.remove(os.path.join(jobdir, stale))
    for name, text in spec.get("files", {}).items():
        with open(os.path.join(jobdir, name), "w") as f:
            f.write(text)
    spec_path = os.path.join(jobdir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(dict(spec, trace=trace), f)
    with open(os.path.join(jobdir, "log.txt"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "job.py"), spec_path],
            stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.perf_counter()
    try:
        with open(os.path.join(jobdir, "result.json")) as f:
            res = json.load(f)
    except (OSError, ValueError):
        res = {}
    res.update(kind=spec["kind"], jobdir=jobdir, returncode=code,
               traced=trace, process_s=t1 - t0)
    if code is None:
        res.setdefault("error", f"timed out after {JOB_TIMEOUT_S} s")
    elif code != 0 or "t_end" not in res:
        res.setdefault("error", f"exit code {code}")
    if "t_ready" in res and "t_end" in res:
        # wall times, and the same at the reference CPU speed without the
        # speed sampling's own time (see perfbench/speed.py)
        res["setup_raw_s"] = res["t_ready"] - t0
        res["job_raw_s"] = res["t_end"] - res["t_ready"]
        for key in ("setup", "job"):
            sp = res["speed"][key]
            res[key + "_s"] = ((res[key + "_raw_s"] - sp["probe_s"])
                               * sp["speed"])
    if trace and "error" not in res:
        spans = tracing.load(os.path.join(jobdir, "spans.npz"))
        res["spans"] = {"by_name": tracing.aggregate(spans),
                        "counts": spans["counts"],
                        "root_s": tracing.root_seconds(spans)}
    return res


def failures(res: dict) -> List[str]:
    """Reasons a job counts as failed (empty when it passed)."""
    out = [res["error"].strip().splitlines()[-1]] if "error" in res else []
    out += [f"{name}: {detail}" for name, ok, detail in res.get("checks", [])
            if not ok]
    return out


# -- metrics ----------------------------------------------------------------------


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def _mean(xs: List[float]) -> float:
    return statistics.fmean(xs) if xs else float("nan")


def by_job(rounds: List[dict]) -> List[List[dict]]:
    """The finished runs of each job of the round list, over the rounds."""
    n = len(rounds[0]["jobs"]) if rounds else 0
    runs = [[r["jobs"][i] for r in rounds if "job_s" in r["jobs"][i]]
            for i in range(n)]
    return [js for js in runs if js]


def end_to_end(rounds: List[dict], raw: str = "") -> Dict[str, float]:
    """`setup_s`: median over all jobs; `job_p50_s`: each job's median over
    the rounds, averaged over the round's jobs (their kinds differ, so a
    median over all of them would jump from kind to kind); `wall_s`: the
    round's jobs, each at its median set-up plus job time, summed."""
    runs = by_job(rounds)
    jobs = [j for js in runs for j in js]
    setup, job = f"setup{raw}_s", f"job{raw}_s"
    return {"setup_s": _median([j[setup] for j in jobs]),
            "job_p50_s": _mean([_median([j[job] for j in js])
                                for js in runs]),
            "wall_s": sum(_median([j[setup] + j[job] for j in js])
                          for js in runs),
            "peak_rss_mb": max((j.get("rss_kb", 0) for j in jobs),
                               default=0) / 1024}


def workload_extras(rounds: List[dict]) -> Dict[str, tuple]:
    """Printed and recorded, not gated: the end-to-end times in plain wall
    seconds (`wall_clock.`), the end-to-end metrics that only some job kinds
    have (from median stage times at the reference speed), and, where a
    round holds several kinds, each kind's `job_p50_s`."""
    runs = by_job(rounds)
    out = {f"wall_clock.{k}": (v, "s")
           for k, v in end_to_end(rounds, raw="_raw").items()
           if k != "peak_rss_mb"}
    kinds = list(dict.fromkeys(js[0]["kind"] for js in runs))
    for kind in kinds:
        group = [js for js in runs if js[0]["kind"] == kind]
        # with several job kinds in a round, each kind's numbers apart
        pre = f"{kind}." if len(kinds) > 1 else ""
        if pre:
            out[pre + "job_p50_s"] = (_mean(
                [_median([j["job_s"] for j in js]) for js in group]), "s")

        def stage(name: str) -> float:
            return sum(_median([j["stages"].get(name, 0.0)
                                * j["speed"]["job"]["speed"] for j in js])
                       for js in group)

        def total(key: str) -> float:
            return sum(js[0]["summary"].get(key, 0) for js in group)

        if total("sim_steps"):
            out[pre + "sim_steps_per_s"] = (
                total("sim_steps") / stage("cli.simulate"), "1/s")
            out[pre + "boot_fits_per_s"] = (
                total("boot_fits") / stage("cli.bootstrap"), "1/s")
        twoq = [c for js in group for c in js[0]["summary"].get(
            "twoq_gates", [])]
        if twoq:
            out[pre + "twoq_gates_mean"] = (sum(twoq) / len(twoq), "count")
    return out


def layer_values(traced_round: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced round (summed over its jobs)."""
    by_name: Dict[str, dict] = {}
    counts: Dict[str, float] = {}
    root_s = 0.0
    for job in traced_round["jobs"]:
        sp = job.get("spans")
        if sp is None:
            continue
        root_s += sp["root_s"]
        for name, agg in sp["by_name"].items():
            acc = by_name.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "entry_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for key, v in sp["counts"].items():
            counts[key] = counts.get(key, 0) + v
    module_self = {m: 0.0 for m in MODULES}
    module_entry = {m: 0.0 for m in MODULES}
    for name, agg in by_name.items():
        module_self[tracing.module_of(name)] += agg["self_s"]
        module_entry[tracing.module_of(name)] += agg["entry_s"]
    values = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric in counts:
            values[metric] = counts[metric]
        elif field == "self_s" and base in module_self:
            values[metric] = module_self[base]
        else:
            values[metric] = by_name.get(base, {}).get(field, 0)
    resamples = counts.get("analysis.bootstrap.resamples", 0)
    values["analysis.bootstrap.ok_ratio"] = (
        (resamples - counts.get("analysis.bootstrap.failures", 0)) / resamples
        if resamples else 0.0)
    values["trace.job_s"] = root_s
    values["_module_self"] = module_self
    values["_module_entry"] = module_entry
    return values


# -- run record -------------------------------------------------------------------


def run_record(jobs: List[dict]) -> dict:
    rev = "unknown"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    return {"git_rev": rev, "nproc": os.cpu_count(), "versions": versions,
            "src_lines": src_lines}


# -- driver -----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cliffrb", "cli.py")):
        print("error: run from the root of a cliffrb checkout "
              "(src/cliffrb/cli.py not found)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = os.path.join(WORK_DIR, f"{name}-s{args.seed}-t{args.trace}"
                                      f"-p{os.getpid()}")
        try:
            results[name] = _run(WORKLOADS[name], args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    # one workload: its metrics; all of them: "<workload>/<metric>" keys
    metrics = {k if len(names) == 1 else f"{name}/{k}": v
               for name, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


def _run(wl, args, work: str) -> dict:
    """Run one workload, print its metrics and write its run record."""
    warm = [run_job(spec, os.path.join(work, f"warmup{i}"))
            for i, spec in enumerate(wl.warmups())]
    specs = wl.jobs(args.seed)
    plan = [False, True] if args.trace else [False, False]
    rounds: List[dict] = []
    last_wall: Dict[bool, float] = {}
    t_start = time.perf_counter()
    while True:
        traced = plan[len(rounds) % len(plan)]
        t0 = time.perf_counter()
        jobs = [run_job(spec, os.path.join(work, f"job{i}"), trace=traced)
                for i, spec in enumerate(specs)]
        wall = time.perf_counter() - t0
        rounds.append({"traced": traced, "wall_s": wall, "jobs": jobs})
        last_wall[traced] = wall
        elapsed = time.perf_counter() - t_start
        if len(rounds) < len(plan):
            continue
        upcoming = plan[len(rounds) % len(plan)]
        if elapsed + last_wall[upcoming] > args.seconds:
            break

    # outputs must repeat exactly from round to round
    first = {}
    for r in rounds:
        for i, job in enumerate(r["jobs"]):
            digest = job.get("summary", {}).get("digest")
            if digest is None:
                continue
            if first.setdefault(i, digest) != digest:
                job.setdefault("checks", []).append(
                    ["repeatable", False, "output differs from round 1"])

    all_jobs = warm + [j for r in rounds for j in r["jobs"]]
    failed = [(j["jobdir"], failures(j)) for j in all_jobs if failures(j)]
    failed_frac = len(failed) / len(all_jobs)
    plain = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(plain)
    extras = workload_extras(plain)
    record = run_record(all_jobs)

    print(f"workload {wl.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"jobs {len(all_jobs)} (warm-up {len(warm)}, {len(specs)} per "
          "round)")
    print("record: " + json.dumps(record))
    for where, reasons in failed:
        print(f"FAILED {where}: {'; '.join(reasons)}")
    if args.trace:
        layers = [layer_values(r) for r in rounds if r["traced"]]
        metrics = {m: _median([v[m] for v in layers]) for m in PER_LAYER
                   if m != "trace.overhead_frac"}
        traced = end_to_end([r for r in rounds if r["traced"]])
        metrics["trace.overhead_frac"] = traced["wall_s"] / e2e["wall_s"] - 1
        units = PER_LAYER
        first = next(r for r in rounds if r["traced"])
        kinds = list(dict.fromkeys(j["kind"] for j in first["jobs"]))
        for kind in kinds + ["all"] if len(kinds) > 1 else kinds:
            values = layer_values({"jobs": [
                j for j in first["jobs"] if kind in ("all", j["kind"])]})
            if values["trace.job_s"] > 0:
                _print_split(kind, values)
    else:
        metrics, units = e2e, END_TO_END
        n_jobs = sum(len(r["jobs"]) for r in plain)
        print(f"{n_jobs} jobs: {len(specs)} per round, {len(plain)} rounds")
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {units[name]}")
    if not args.trace:
        for name, (value, unit) in extras.items():
            print(f"  {name:<45} {value:>14.6g} {unit}")
        print(f"  {'failed_frac':<45} {failed_frac:>14.6g} ratio")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, f"{wl.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "record": record, "rounds": len(rounds),
                   "jobs": len(all_jobs), "failed_frac": failed_frac,
                   "failed": [{"job": w, "reasons": r} for w, r in failed],
                   "metrics": metrics,
                   "workload_metrics": {k: v for k, (v, _) in extras.items()},
                   "job_times": [
                       [r["traced"], j["kind"]] + [j.get(k) for k in (
                           "setup_s", "job_s", "setup_raw_s", "job_raw_s")]
                       for r in rounds for j in r["jobs"]]},
                  f, indent=2)
    print(f"wrote {out}")
    return {"correct": not failed, "attempted": len(all_jobs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _print_split(kind: str, values: dict) -> None:
    """Per-module self time, and time of the library calls made straight
    from the CLI or the harness, as shares of the traced job time."""
    job_s = values["trace.job_s"]
    print(f"{kind}: traced job time {job_s:.3f} s; per module: self share, "
          "entry share")
    for m in MODULES:
        s, e = values["_module_self"][m], values["_module_entry"][m]
        if s or e:
            print(f"  {m:<12} {100 * s / job_s:6.1f} %  {100 * e / job_s:6.1f} %")


if __name__ == "__main__":
    sys.exit(main())
