"""Summarize paired benchmark runs into a committed BENCH_<topic>.json.

    python3 tools/bench_summary.py --parent PARENT/.bench_results \\
        [--change .bench_results] --topic NAME \\
        [--tier1-parent LOG] [--tier1-change LOG] [--change-rev TEXT] \\
        [--trace-parent RECORD] [--trace-change RECORD]

`perfbench/run.py --trace 0` writes one record per workload and seed,
`<workload>-seed<N>-trace0.json`, to the `.bench_results/` of the checkout it
ran in.  Run it in a checkout of the parent commit and in the changed one
with the same seeds, then point this script at both result directories.  It
pairs the runs by (workload, seed) and writes, per workload, the medians of
the four end-to-end metrics on each side, each side's quartiles and IQR
(interpolated between order statistics, as numpy's default percentiles),
whether the medians differ by more than the parent's IQR, and how many pairs
moved down.  For a workload whose rounds mix job kinds, each kind's job
median comes from the `job_times` of each run record and is summarized the
same way.  The git revs and `src/` line counts come from the run records.
A Tier-1 log is the output of `pytest --durations=N` (N >= 5); its wall
time, counts and five slowest tests are copied in.  A `--trace 1` run record
(`<workload>-seed<N>-trace1.json`) gives its workload, seed and nonzero
per-layer metrics.  Standard library only.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

METRICS = ("setup_s", "job_p50_s", "wall_s", "peak_rss_mb")
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
DURATION = re.compile(r"^(?P<s>\d+(?:\.\d+)?)s (?:call|setup|teardown)\s+"
                      r"(?P<test>\S+)")
COUNT = re.compile(r"(?P<n>\d+) (?P<what>passed|failed|errors?|deselected)")
WALL = re.compile(r" in (?P<s>\d+(?:\.\d+)?)s")


def load_runs(results_dir):
    """(workload, seed) -> run record, for every untraced run in the dir."""
    runs = {}
    for path in glob.glob(os.path.join(results_dir, "*-trace0.json")):
        match = RECORD.match(os.path.basename(path))
        if match:
            with open(path) as f:
                runs[match["workload"], int(match["seed"])] = json.load(f)
    return runs


def one_value(runs, key, default=None):
    """The value every run record agrees on for key, else an error."""
    values = {json.dumps(r["record"].get(key, default)) for r in runs}
    if len(values) != 1:
        raise SystemExit(f"run records disagree on {key}: {sorted(values)}")
    return json.loads(values.pop())


def tier1(log_path):
    """Wall time, outcome counts and five slowest tests of a pytest log."""
    with open(log_path) as f:
        lines = f.read().splitlines()
    slowest = [[m["test"], float(m["s"])] for m in map(DURATION.match, lines)
               if m]
    final = next((ln for ln in reversed(lines) if WALL.search(ln)), "")
    counts = {m["what"].rstrip("s"): int(m["n"])
              for m in COUNT.finditer(final)}
    wall = WALL.search(final)
    return {"wall_s": float(wall["s"]) if wall else None, "counts": counts,
            "slowest": sorted(slowest, key=lambda t: -t[1])[:5]}


def traced(record_path):
    """Workload, seed and nonzero per-layer metrics of a traced run."""
    with open(record_path) as f:
        run = json.load(f)
    return {"workload": run["workload"], "seed": run["seed"],
            "metrics": {k: v for k, v in run["metrics"].items() if v}}


def kind_medians(run):
    """Job kind -> median job_s of its untraced jobs in one run record, when
    the run's rounds mix kinds; else {}."""
    times = {}
    for traced, kind, _setup, job_s, *_ in run.get("job_times", []):
        if not traced and job_s is not None:
            times.setdefault(kind, []).append(job_s)
    if len(times) < 2:
        return {}
    return {kind: statistics.median(ts) for kind, ts in times.items()}


def quartiles(values):
    """First and third quartile of values and their distance, the IQR."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent, change):
    """Medians, quartiles and pairs moved down of paired per-run values."""
    sides = {"parent": parent, "change": change}
    out = {name: statistics.median(vs) for name, vs in sides.items()}
    spread = {name: quartiles(vs) for name, vs in sides.items()}
    return {**out, "quartiles": spread,
            "beyond_parent_iqr": abs(out["change"] - out["parent"])
            > spread["parent"]["iqr"],
            "change_lower": sum(c < p for p, c in zip(parent, change))}


def summarize(parent_runs, change_runs):
    pairs = sorted(set(parent_runs) & set(change_runs))
    if not pairs:
        raise SystemExit("no (workload, seed) run appears on both sides")
    out = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        sides = {name: [runs[workload, s]["metrics"] for s in seeds]
                 for name, runs in (("parent", parent_runs),
                                    ("change", change_runs))}
        per_metric = {m: compare([r[m] for r in sides["parent"]],
                                 [r[m] for r in sides["change"]])
                      for m in METRICS}
        out[workload] = {
            "seeds": seeds,
            **{key: {m: per_metric[m][key] for m in METRICS}
               for key in per_metric[METRICS[0]]},
            "failed_frac_max": max(runs[workload, s]["failed_frac"]
                                   for runs in (parent_runs, change_runs)
                                   for s in seeds)}
        kinds = {name: [kind_medians(runs[workload, s]) for s in seeds]
                 for name, runs in (("parent", parent_runs),
                                    ("change", change_runs))}
        shared = set.intersection(*(set(k) for ks in kinds.values()
                                    for k in ks))
        if shared:
            out[workload]["kind_job_p50_s"] = {
                kind: compare([k[kind] for k in kinds["parent"]],
                              [k[kind] for k in kinds["change"]])
                for kind in sorted(shared)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="results dir of the parent checkout")
    ap.add_argument("--change", default=".bench_results",
                    help="results dir of the changed checkout")
    ap.add_argument("--topic", required=True,
                    help="writes BENCH_<topic>.json")
    ap.add_argument("--tier1-parent", help="pytest --durations log, parent")
    ap.add_argument("--tier1-change", help="pytest --durations log, change")
    ap.add_argument("--change-rev",
                    help="label for the change side when its runs came "
                         "from an uncommitted tree")
    ap.add_argument("--trace-parent", help="a --trace 1 run record, parent")
    ap.add_argument("--trace-change", help="a --trace 1 run record, change")
    args = ap.parse_args(argv)

    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    workloads = summarize(parent_runs, change_runs)
    sides = {"parent": list(parent_runs.values()),
             "change": list(change_runs.values())}
    summary = {
        "topic": args.topic,
        "git_rev": {name: one_value(runs, "git_rev")
                    for name, runs in sides.items()},
        "machine": {"nproc": one_value(sides["change"], "nproc"),
                    "versions": one_value(sides["change"], "versions")},
        "src_lines": {name: one_value(runs, "src_lines")
                      for name, runs in sides.items()},
        "note": "per workload: medians over the paired seeds of each "
                "side; quartiles: each side's q1, q3 and IQR; "
                "beyond_parent_iqr: the medians differ by more than the "
                "parent's IQR; change_lower counts the pairs where the "
                "change is lower; kind_job_p50_s: each job kind's median "
                "job_s per run, summarized the same way",
        "workloads": workloads,
    }
    if args.change_rev:
        summary["git_rev"]["change"] = args.change_rev
    logs = {"parent": args.tier1_parent, "change": args.tier1_change}
    if any(logs.values()):
        summary["tier1"] = {name: tier1(path) for name, path in logs.items()
                            if path}
    records = {"parent": args.trace_parent, "change": args.trace_change}
    if any(records.values()):
        summary["traced"] = {name: traced(path)
                             for name, path in records.items() if path}
    out = f"BENCH_{args.topic}.json"
    with open(out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
