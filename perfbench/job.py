"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/job.py <jobdir>/spec.json

Run from the root of a cliffrb checkout; cliffrb is imported from its
`src/`.  The job imports the CLI, prepares its inputs, then reports
`t_ready` (the end of set-up, on the same monotonic clock the driver reads
when it spawns the process), runs the timed work, checks the outputs and
writes `<jobdir>/result.json`.  From its first line to the end of the timed
work it samples its CPU's speed (`perfbench/speed.py`) and reports the
set-up and job windows' mean speed and sampling cost.  With `"trace": true` in the spec the timed
work runs under `perfbench.tracing` and the spans go to `<jobdir>/spans.npz`.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.speed import SpeedSampler

    sampler = SpeedSampler()
    t_start = time.perf_counter()
    sampler.start()
    spec_path = sys.argv[1]
    jobdir = os.path.dirname(spec_path)
    src = os.path.join(root, "src")
    with open(spec_path) as f:
        spec = json.load(f)
    result = {}
    try:
        import cliffrb.cli  # noqa: F401  -- the import every CLI user pays

        if not os.path.abspath(cliffrb.__file__).startswith(src + os.sep):
            raise RuntimeError(f"cliffrb imported from {cliffrb.__file__}")
        import numpy
        import scipy

        from perfbench import workloads
        from perfbench.tracing import ROOT, Tracer

        kind = workloads.JOB_KINDS[spec["kind"]]
        params = spec["params"]
        inputs = kind.prepare(params)
        result["t_ready"] = time.perf_counter()

        tracer = Tracer(jobdir) if spec.get("trace") else None
        ctx = workloads.JobContext(tracer)
        if tracer:
            tracer.install()
        try:
            with ctx.stage(ROOT):
                outputs = kind.run(params, jobdir, ctx, inputs)
        finally:
            result["t_end"] = time.perf_counter()
            sampler.stop()
            if tracer:
                tracer.uninstall()
        result["speed"] = {
            "setup": sampler.window(t_start, result["t_ready"]),
            "job": sampler.window(result["t_ready"], result["t_end"])}
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["stages"] = ctx.stages
        result["versions"] = {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer:
            tracer.save(os.path.join(jobdir, "spans.npz"))
        found = kind.check(params, jobdir, outputs, inputs)
        ref = workloads.load_ref(spec)
        if ref is not None:
            found += workloads.ref_checks(
                kind.reference(params, jobdir, outputs), ref)
        result["checks"] = [[name, bool(ok), str(detail)]
                            for name, ok, detail in found]
        result["summary"] = kind.summary(params, jobdir, outputs)
    except Exception:
        result["error"] = traceback.format_exc()
    sampler.stop()
    with open(os.path.join(jobdir, "result.json"), "w") as f:
        json.dump(result, f)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
