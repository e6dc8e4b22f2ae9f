"""Regenerate the stored references in perfbench/refs/.

    python3 perfbench/make_refs.py

Run from the root of a cliffrb checkout.  Runs each job that names a
reference (the warm-up jobs at fixed seed `REF_SEED`, and the seed-free
`group_cayley` job) in this process and stores the outputs its job kind
pins.  Only regenerate when an output change is intended: the references
are what a benchmark run compares against.
"""

import json
import os
import shutil
import sys


def main() -> int:
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import workloads

    scratch = os.path.join(".bench_work", "make_refs")
    try:
        specs = {}
        for wl in workloads.WORKLOADS.values():
            for spec in wl.warmups() + wl.jobs(workloads.REF_SEED):
                if spec.get("ref"):
                    specs.setdefault(spec["ref"], spec)
        for spec in specs.values():
            name = spec["kind"]
            kind = workloads.JOB_KINDS[name]
            jobdir = os.path.join(scratch, name)
            os.makedirs(jobdir, exist_ok=True)
            for fname, text in spec.get("files", {}).items():
                with open(os.path.join(jobdir, fname), "w") as f:
                    f.write(text)
            params = spec["params"]
            inputs = kind.prepare(params)
            outputs = kind.run(params, jobdir, workloads.JobContext(), inputs)
            bad = [c for c in kind.check(params, jobdir, outputs, inputs)
                   if not c[1]]
            if bad:
                print(f"{name}: checks failed, reference not written: {bad}",
                      file=sys.stderr)
                return 1
            with open(spec["ref"], "w") as f:
                json.dump(kind.reference(params, jobdir, outputs), f,
                          indent=1, sort_keys=True)
                f.write("\n")
            print(f"wrote {spec['ref']}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
