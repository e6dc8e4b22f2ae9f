import json

import numpy as np
import pytest
from click.testing import CliRunner

from cliffrb.cli import main
from cliffrb.clifford import CliffordTableau
from cliffrb.gates import sequence_tableau
from cliffrb.clifford import GateSequence


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestEnumerate:
    def test_quotient_count(self, runner):
        res = run_ok(runner, ["enumerate", "--n", "2", "--quotient"])
        report = json.loads(res.stdout)
        assert report["count"] == 720
        assert report["manifest"]["schema_version"] == 1

    def test_elements_listing(self, runner):
        res = run_ok(runner, ["enumerate", "--n", "1", "--elements"])
        report = json.loads(res.stdout)
        assert len(report["elements"]) == 24

    def test_pretty_rendering(self, runner):
        res = run_ok(runner, ["enumerate", "--n", "1", "--pretty"])
        assert "count: 24" in res.stdout


class TestSearchDecomp:
    def test_single_qubit_histogram(self, runner):
        res = run_ok(runner, ["search-decomp", "--n", "1",
                              "--gates", "H,S,Sdg,X90,X90m"])
        report = json.loads(res.stdout)
        assert report["group_size"] == 24
        assert report["histogram"] == {"0": 24}

    def test_two_qubit_quotient_cx_histogram(self, runner):
        res = run_ok(runner, ["search-decomp", "--n", "2", "--quotient",
                              "--gates", "H,S,Sdg,X90,X90m,CX"])
        report = json.loads(res.stdout)
        assert report["histogram"] == {"0": 36, "1": 324, "2": 324, "3": 36}
        assert report["mean_primary_count"] == pytest.approx(1.5)


class TestDecompose:
    def test_random_roundtrip(self, runner):
        res = run_ok(runner, ["decompose", "--random", "--n", "3",
                              "--seed", "5"])
        report = json.loads(res.stdout)
        assert report["verified"] is True
        seq = GateSequence.from_json(report["sequence"])
        tab = CliffordTableau.from_json(report["tableau"])
        assert sequence_tableau(seq) == tab

    def test_cz_target(self, runner):
        res = run_ok(runner, ["decompose", "--random", "--n", "2",
                              "--seed", "7", "--target", "cz"])
        report = json.loads(res.stdout)
        assert report["verified"] is True
        names = {g for g, _ in report["sequence"]["gates"]}
        assert "CX" not in names

    def test_input_file(self, runner, tmp_path):
        tab = CliffordTableau.identity(2)
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(tab.to_json()))
        res = run_ok(runner, ["decompose", "--input", str(path)])
        report = json.loads(res.stdout)
        assert report["gate_count"] == 0

    def test_requires_source(self, runner):
        result = CliRunner().invoke(main, ["decompose"])
        assert result.exit_code != 0


class TestSampleAndSequences:
    def test_sampling_deterministic(self, runner):
        a = run_ok(runner, ["sample-clifford", "--n", "2", "--count", "3",
                            "--seed", "11"])
        b = run_ok(runner, ["sample-clifford", "--n", "2", "--count", "3",
                            "--seed", "11"])
        assert json.loads(a.stdout)["samples"] == \
            json.loads(b.stdout)["samples"]

    def test_gen_sequences(self, runner):
        res = run_ok(runner, ["gen-sequences", "--n", "1",
                              "--lengths", "1,3", "--n-seq", "2",
                              "--seed", "3"])
        report = json.loads(res.stdout)
        assert len(report["sequences"]) == 4
        lengths = [s["length"] for s in report["sequences"]]
        assert lengths == [1, 1, 3, 3]

    def test_interleaved_needs_gate(self, runner):
        result = CliRunner().invoke(main, [
            "gen-sequences", "--protocol", "interleaved", "--n", "1",
            "--lengths", "2", "--seed", "1"])
        assert result.exit_code != 0

    def test_seed_autogenerated(self, runner):
        res = run_ok(runner, ["sample-clifford", "--n", "1"])
        json.loads(res.stdout)  # stdout stays pure JSON; seed goes to stderr


class TestPipeline:
    def test_simulate_reproducible(self, runner, tmp_path):
        args = ["simulate", "--n", "1", "--lengths", "1,4,9",
                "--n-seq", "5", "--shots", "50", "--depolarizing", "0.05",
                "--seed", "21", "-o", None]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args_a = args[:-1] + [str(a)]
        args_b = args[:-1] + [str(b)]
        run_ok(runner, args_a)
        run_ok(runner, args_b)
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 21

    def test_fit_all_correct(self, runner, tmp_path):
        lines = ["protocol,length,seq_index,n_shots,n_correct"]
        for l in (1, 4, 9):
            for i in range(3):
                lines.append(f"exact,{l},{i},100,100")
        data = tmp_path / "perfect.csv"
        data.write_text("\n".join(lines) + "\n")
        res = run_ok(runner, ["fit", "--data", str(data), "--n", "1"])
        fitrep = json.loads(res.stdout)["fit"]
        assert abs(fitrep["params"]["eps_s"]) < 1e-6
        assert fitrep["chi2"] < 1e-6

    def test_full_interleaved_pipeline(self, runner, tmp_path):
        # planted per-gate depolarizing error recovered end to end
        p_step, p_gate = 0.04, 0.02
        model = {"default": {"type": "depolarizing", "p": p_step},
                 "per_gate": {"gate": {"type": "depolarizing", "p": p_gate}}}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        ref_csv = tmp_path / "ref.csv"
        int_csv = tmp_path / "int.csv"
        common = ["--n", "1", "--lengths", "1,3,8,21,55", "--n-seq", "60",
                  "--shots", "200", "--error-model", str(model_path)]
        run_ok(runner, ["simulate", *common, "--seed", "5",
                        "-o", str(ref_csv)])
        run_ok(runner, ["simulate", *common, "--protocol", "interleaved",
                        "--gate", "S", "--seed", "6", "-o", str(int_csv)])
        res = run_ok(runner, ["interleaved", "--reference", str(ref_csv),
                              "--interleaved", str(int_csv), "--n", "1"])
        report = json.loads(res.stdout)
        want = 0.5 * p_gate
        assert report["gate_error"] == pytest.approx(want, abs=0.005)

    def test_bootstrap_command(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["protocol,length,seq_index,n_shots,n_correct"]
        for l in (1, 4, 9, 20):
            f = 0.5 + 0.45 * 0.92 ** l
            for i in range(20):
                lines.append(f"exact,{l},{i},100,{rng.binomial(100, f)}")
        data = tmp_path / "noisy.csv"
        data.write_text("\n".join(lines) + "\n")
        res = run_ok(runner, ["bootstrap", "--data", str(data), "--n", "1",
                              "--resamples", "50", "--seed", "9"])
        rep = json.loads(res.stdout)["bootstrap"]
        assert rep["n_resamples"] == 50
        assert len(rep["standard_errors"]) == 2


class TestBoundsCommands:
    def test_tv_decay(self, runner, tmp_path):
        csv_path = tmp_path / "tv.csv"
        res = run_ok(runner, ["tv-decay", "--dist", "X90:0.5,Y90:0.5",
                              "--steps", "5", "--csv", str(csv_path)])
        report = json.loads(res.stdout)
        assert len(report["total_variation"]) == 5
        assert csv_path.read_text().startswith("steps,total_variation")

    def test_bounds_uniform(self, runner):
        dist = ",".join(f"{g}:1" for g in ("I", "H", "S", "X90", "Y90"))
        res = run_ok(runner, ["bounds", "--dist", dist, "--eps", "0.05"])
        report = json.loads(res.stdout)
        assert "step_comparison" in report and "kappa" in report

    def test_bad_gate_rejected(self, runner):
        result = CliRunner().invoke(main, ["tv-decay", "--dist", "NOPE:1"])
        assert result.exit_code != 0


def assert_usage_error(args, option):
    """Bad input exits non-zero with one click usage line, no traceback."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1 and option in errors[0], result.output
    assert "Traceback" not in result.output


class TestBadInput:
    def test_tv_decay_unknown_gate(self):
        assert_usage_error(["tv-decay", "--dist", "FOO:1"], "--dist")

    def test_bounds_unknown_gate(self):
        assert_usage_error(["bounds", "--dist", "FOO:1", "--eps", "0.01"],
                           "--dist")

    def test_dist_bad_weights(self):
        for dist in ("H:x", "H:-1,S:2", "H:0", "H:inf"):
            assert_usage_error(["tv-decay", "--dist", dist], "--dist")

    def test_simulate_depolarizing_out_of_range(self, tmp_path):
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1,2",
                            "--depolarizing", "1.5", "--seed", "1",
                            "-o", str(tmp_path / "d.csv")], "--depolarizing")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_spam_out_of_range(self, tmp_path):
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1,2",
                            "--depolarizing", "0.01", "--spam", "1.5",
                            "--seed", "1", "-o", str(tmp_path / "d.csv")],
                           "--spam")
        assert not (tmp_path / "d.csv").exists()

    def test_bad_lengths(self, tmp_path):
        for lengths in ("1,x", "0,3", "5,3", ""):
            assert_usage_error(["simulate", "--n", "1", "--lengths", lengths,
                                "--depolarizing", "0.01", "--seed", "1",
                                "-o", str(tmp_path / "d.csv")], "--lengths")
            assert_usage_error(["gen-sequences", "--n", "1",
                                "--lengths", lengths, "--seed", "1"],
                               "--lengths")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_counts_must_be_positive(self, tmp_path):
        for option in ("--n-seq", "--shots"):
            assert_usage_error(["simulate", "--n", "1", "--lengths", "1,2",
                                "--depolarizing", "0.01", option, "0",
                                "--seed", "1", "-o", str(tmp_path / "d.csv")],
                               option)
        assert not (tmp_path / "d.csv").exists()

    def test_qubit_count_must_be_positive(self):
        for n in ("0", "-1"):
            assert_usage_error(["sample-clifford", "--n", n, "--seed", "1"],
                               "--n")
            assert_usage_error(["decompose", "--random", "--n", n,
                                "--seed", "1"], "--n")
