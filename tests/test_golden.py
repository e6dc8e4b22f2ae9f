"""Golden outputs: seeded CLI runs must reproduce the committed fixtures.

The order of RNG draws (`_rand_bits`, `sample_uniform`, `sequence_seed`) is
part of the interface, so a refactor must leave these outputs unchanged.
CSV datasets are compared byte for byte; JSON reports are compared with the
`manifest` (library versions, file paths) stripped.

Regenerate the fixtures on purpose only, after a deliberate change of
behaviour:  PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cliffrb.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODEL = "model_2q.json"

# (fixture file, CLI arguments; "{out}" is the output path, "{model}" the
# error-model file)
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
]


def run_case(args, out):
    args = [a.format(out=out, model=GOLDEN / MODEL) for a in args]
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


if __name__ == "__main__":
    for name, args in CASES:
        run_case(args, GOLDEN / name)
        manifest = GOLDEN / (name + ".manifest.json")
        if manifest.exists():
            manifest.unlink()
    sys.exit(0)
