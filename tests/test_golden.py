"""Golden outputs: seeded CLI runs must reproduce the committed fixtures.

The order of RNG draws (`_rand_bits`, `sample_uniform`, `sequence_seed`, and
the bootstrap's per-replicate, per-length `integers` then `binomial` calls)
is part of the interface, so a refactor must leave these outputs unchanged.
CSV datasets are compared byte for byte; JSON reports are compared with the
`manifest` (library versions, file paths) stripped.

Regenerate the fixtures on purpose only, after a deliberate change of
behaviour:  PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cliffrb.cli import main
from cliffrb.clifford import sample_uniform
from cliffrb.gates import get_gate
from cliffrb.protocol import gen_approximate_sequence, knill_1q_distribution
from cliffrb.stabilizer import (
    apply_clifford,
    measure_z,
    random_stabilizer_element,
    zero_state,
)

GOLDEN = Path(__file__).parent / "golden"
MODEL = "model_2q.json"

# (fixture file, CLI arguments; "{out}" is the output path, "{model}" the
# error-model file, "{golden}" this fixture directory)
CASES = [
    ("simulate_1q_exact.csv",
     ["simulate", "--n", "1", "--lengths", "1,3,8,21", "--n-seq", "4",
      "--shots", "100", "--depolarizing", "0.02", "--spam", "0.01",
      "--seed", "11", "-o", "{out}"]),
    ("simulate_2q_exact.csv",
     ["simulate", "--n", "2", "--lengths", "1,3,6", "--n-seq", "3",
      "--shots", "100", "--depolarizing", "0.03", "--seed", "12",
      "-o", "{out}"]),
    ("simulate_2q_interleaved_cx.csv",
     ["simulate", "--protocol", "interleaved", "--gate", "CX", "--n", "2",
      "--lengths", "1,3,5", "--n-seq", "3", "--shots", "100",
      "--error-model", "{model}", "--seed", "13", "-o", "{out}"]),
    ("gen_sequences_exact.json",
     ["gen-sequences", "--n", "2", "--lengths", "1,3", "--n-seq", "2",
      "--seed", "14", "-o", "{out}"]),
    ("gen_sequences_interleaved.json",
     ["gen-sequences", "--protocol", "interleaved", "--gate", "CX",
      "--n", "2", "--lengths", "1,2", "--n-seq", "2", "--seed", "15",
      "-o", "{out}"]),
    ("sample_clifford_3q.json",
     ["sample-clifford", "--n", "3", "--count", "20", "--seed", "16",
      "-o", "{out}"]),
    ("decompose_random_4q_cz.json",
     ["decompose", "--random", "--n", "4", "--target", "cz", "--seed", "17",
      "-o", "{out}"]),
    ("decompose_random_8q.json",
     ["decompose", "--random", "--n", "8", "--seed", "5", "-o", "{out}"]),
    ("decompose_random_8q_cx.json",
     ["decompose", "--random", "--n", "8", "--target", "cx", "--seed", "5",
      "-o", "{out}"]),
    ("search_decomp_2q_quotient.json",
     ["search-decomp", "--n", "2", "--quotient", "-o", "{out}"]),
    ("search_decomp_1q.json",
     ["search-decomp", "--n", "1", "-o", "{out}"]),
    ("search_decomp_1q_hs.json",
     ["search-decomp", "--n", "1", "--gates", "H,S", "--primary", "H",
      "-o", "{out}"]),
    ("search_decomp_2q_quotient_cz.json",
     ["search-decomp", "--n", "2", "--quotient", "--gates", "H,S,CZ",
      "--primary", "CZ", "-o", "{out}"]),
    ("tv_decay_1q.json",
     ["tv-decay", "--n", "1", "--dist", "X90:0.4,Y90:0.4,I:0.2",
      "--steps", "30", "-o", "{out}"]),
    ("tv_decay_2q.json",
     ["tv-decay", "--n", "2", "--dist", "I:0.2,CX:0.3,MS:0.2,G:0.3",
      "--steps", "30", "-o", "{out}"]),
    ("bounds_1q.json",
     ["bounds", "--n", "1", "--dist", "X90:0.4,Y90:0.4,I:0.2",
      "--eps", "0.01", "--k", "2", "--length", "10", "-o", "{out}"]),
    ("bounds_2q.json",
     ["bounds", "--n", "2", "--dist", "I:0.2,CX:0.3,MS:0.2,G:0.3",
      "--eps", "0.02", "--k", "3", "--length", "12", "-o", "{out}"]),
    ("fit_1q_exact.json",
     ["fit", "--data", "{golden}/simulate_1q_exact.csv", "--n", "1",
      "-o", "{out}"]),
    ("bootstrap_1q_exact.json",
     ["bootstrap", "--data", "{golden}/simulate_1q_exact.csv", "--n", "1",
      "--resamples", "200", "--seed", "21", "-o", "{out}"]),
    ("interleaved_2q_cx.json",
     ["interleaved", "--reference", "{golden}/simulate_2q_exact.csv",
      "--interleaved", "{golden}/simulate_2q_interleaved_cx.csv", "--n", "2",
      "-o", "{out}"]),
]


# knill-1q sequences are not reachable from the CLI, so they are pinned at
# the library level: (length, seed) -> gen_approximate_sequence(...).to_json()
APPROXIMATE = "approximate_knill_1q.json"
APPROXIMATE_CASES = [(l, s) for l in (1, 5, 20) for s in (1, 2, 3)]


def approximate_sequences():
    dist = knill_1q_distribution()
    return [{"length": l, "seed": s,
             "sequence": gen_approximate_sequence(
                 dist, l, np.random.default_rng(s)).to_json()}
            for l, s in APPROXIMATE_CASES]


# stabilizer row order and neighbor operators are an interface too (they
# decide which element random_stabilizer_element draws): seeded random
# circuits at n = 2..5, the state after every step, then 20 element draws
STABILIZER = "stabilizer_rows.json"
GATES_1Q = ("H", "S", "Sdg", "X90", "Y90", "T", "X", "Z")
GATES_2Q = ("CX", "CZ", "MS", "G")


def stabilizer_rows():
    out = []
    for n in (2, 3, 4, 5):
        rng = np.random.default_rng(20 + n)
        state = zero_state(n)
        apply_clifford(state, sample_uniform(n, rng))
        steps = []
        for _ in range(40):
            u = rng.random()
            if u < 0.2:
                j = int(rng.integers(n))
                bit, _ = measure_z(state, j, rng)
                op = ["M", [j], bit]
            else:
                pool, width = (GATES_2Q, 2) if u < 0.5 else (GATES_1Q, 1)
                name = pool[int(rng.integers(len(pool)))]
                idxs = [int(q) for q in rng.permutation(n)[:width]]
                apply_clifford(state, get_gate(name), tuple(idxs))
                op = [name, idxs]
            steps.append({"op": op, "state": str(state),
                          "neighbor": list(state.neighbor)})
        draws = [str(random_stabilizer_element(state, rng))
                 for _ in range(20)]
        out.append({"n": n, "steps": steps, "draws": draws})
    return out


def run_case(args, out):
    args = [a.format(out=out, model=GOLDEN / MODEL,
                     golden=os.path.relpath(GOLDEN)) for a in args]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output


def comparable(path):
    if path.suffix == ".csv":
        return path.read_bytes()
    report = json.loads(path.read_text())
    report.pop("manifest")
    return report


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_matches_golden(name, args, tmp_path):
    out = tmp_path / name
    run_case(args, out)
    assert comparable(out) == comparable(GOLDEN / name)


def test_approximate_sequences_match_golden():
    want = json.loads((GOLDEN / APPROXIMATE).read_text())
    assert approximate_sequences() == want


def test_stabilizer_rows_match_golden():
    want = json.loads((GOLDEN / STABILIZER).read_text())
    assert stabilizer_rows() == want


if __name__ == "__main__":
    for name, args in CASES:
        run_case(args, GOLDEN / name)
        manifest = GOLDEN / (name + ".manifest.json")
        if manifest.exists():
            manifest.unlink()
    (GOLDEN / APPROXIMATE).write_text(
        json.dumps(approximate_sequences(), indent=2) + "\n")
    (GOLDEN / STABILIZER).write_text(
        json.dumps(stabilizer_rows(), indent=1) + "\n")
    sys.exit(0)
