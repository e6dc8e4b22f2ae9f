import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cliffrb.pauli
from cliffrb import cli
from cliffrb.cli import _dumps, main
from cliffrb.clifford import CliffordTableau
from cliffrb.gates import sequence_tableau
from cliffrb.clifford import GateSequence
from cliffrb.errors import DEFAULT_QUBIT_CAP
from cliffrb.pauli import DEPOLARIZING_MAX_QUBITS


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

    def test_gate_aliases(self, runner):
        for gates, primary in (("H,S,CNOT", "CX"), ("H,S,CX", "CNOT")):
            res = run_ok(runner, ["search-decomp", "--n", "2", "--quotient",
                                  "--gates", gates, "--primary", primary])
            report = json.loads(res.stdout)
            assert report["histogram"] == {"0": 36, "1": 324, "2": 324,
                                           "3": 36}


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

    def test_simulate_eight_qubits(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        run_ok(runner, ["simulate", "--n", "8", "--lengths", "1",
                        "--n-seq", "1", "--shots", "10",
                        "--depolarizing", "0.01", "--seed", "1",
                        "-o", str(out)])
        assert out.read_text().splitlines()[1].startswith("exact,1,0,10,")

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


def _indent2(obj):
    return json.dumps(obj, indent=2)


# string pieces that stress the string scan: quotes, backslash runs before
# quotes, structural characters, control characters and non-ASCII text
_PIECES = ['"', "\\", '\\"', '\\\\"', '\\\\\\"', "[", "]", "{", "}",
           ",", ":", ": ", " ", "a", "\n", "\t", "\x00", "\x1f", "\x7f",
           "\u00e9", "\u65e5\u672c", "\U0001f600", "\ud800"]


def _fuzz_doc(rng, depth=0):
    if depth == 0:
        kind = rng.randrange(5, 9)  # a list, tuple or dict at the top
    else:
        kind = rng.randrange(9 if depth < 4 else 5)  # scalars from depth 4
    if kind == 0:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([True, False, None, math.nan, math.inf, -math.inf,
                           -0.0, 1e300, 0.1, -7])
    if kind in (2, 3, 4):
        return rng.randrange(-10 ** 9, 10 ** 9)
    if kind in (5, 6):
        return [_fuzz_doc(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 7:
        return tuple(_fuzz_doc(rng, depth + 1)
                     for _ in range(rng.randrange(3)))
    return {_fuzz_doc(rng, 4) if rng.random() < 0.2 else
            "".join(rng.choice(_PIECES) for _ in range(rng.randrange(4))):
            _fuzz_doc(rng, depth + 1) for _ in range(rng.randrange(4))}


class TestReportText:
    """`cli._dumps` (the C encoder's compact text, re-indented) is
    `json.dumps(obj, indent=2)` byte for byte, and every report the CLI
    writes has that layout."""

    def test_golden_reports(self):
        paths = sorted((Path(__file__).parent / "golden").glob("*.json"))
        assert paths
        for path in paths:
            obj = json.loads(path.read_text())
            assert _dumps(obj) == _indent2(obj), path.name

    def test_fuzzed_documents(self):
        rng = random.Random(20240)
        for _ in range(2500):
            doc = _fuzz_doc(rng)
            assert _dumps(doc) == _indent2(doc), doc

    @pytest.mark.parametrize("obj", [
        math.nan, math.inf, -math.inf, -0.0, 1e300, 5, "a,[b]", True, False,
        None, [], {}, [[]], [{}], {"a": []}, {"": {}}, [[[[]]], {}],
        (1, (2, ()), [3]), {"k": (True, None, math.nan)},
        {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
        ['\\', '\\"', '"\\', "]", "{,}"]])
    def test_special_values(self, obj):
        assert _dumps(obj) == _indent2(obj)

    def test_same_errors(self):
        circular = [1]
        circular.append(circular)
        for bad, error in ((object(), TypeError), ({"x": {1, 2}}, TypeError),
                           (circular, ValueError)):
            with pytest.raises(error) as ours:
                _dumps(bad)
            with pytest.raises(error) as stdlib:
                _indent2(bad)
            assert type(ours.value) is type(stdlib.value)

    def test_written_files_are_indent_2(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        outputs = {"decompose": tmp_path / "decompose.json",
                   "simulate": tmp_path / "d.csv.manifest.json",
                   "fit": tmp_path / "fit.json",
                   "bootstrap": tmp_path / "bootstrap.json"}
        run_ok(runner, ["decompose", "--random", "--n", "8", "--target", "cz",
                        "--seed", "3", "-o", str(outputs["decompose"])])
        run_ok(runner, ["simulate", "--n", "1", "--lengths", "1,4,9",
                        "--n-seq", "5", "--shots", "50", "--depolarizing",
                        "0.05", "--seed", "21", "-o", str(data)])
        run_ok(runner, ["fit", "--data", str(data), "--n", "1",
                        "-o", str(outputs["fit"])])
        run_ok(runner, ["bootstrap", "--data", str(data), "--n", "1",
                        "--resamples", "20", "--seed", "9",
                        "-o", str(outputs["bootstrap"])])
        for name, path in outputs.items():
            text = path.read_text()
            assert text == _indent2(json.loads(text)) + "\n", name


class TestManifestParameters:
    """The full `parameters` of a manifest, key order included: one entry
    per option that shapes the result, named after its long option, in
    declaration order whatever order the command line gives."""

    def test_simulate(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        run_ok(runner, ["simulate", "--seed", "4", "--shots", "5",
                        "--depolarizing", "0.01", "--lengths", "1,2",
                        "--n", "1", "--n-seq", "2", "-o", str(out)])
        man = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert man["command"] == "simulate" and man["seed"] == 4
        assert list(man["parameters"].items()) == [
            ("protocol", "exact"), ("n", 1), ("lengths", "1,2"),
            ("n_seq", 2), ("shots", 5), ("gate", None),
            ("error_model", None), ("depolarizing", 0.01), ("spam", None)]

    def test_decompose_random(self, runner):
        res = run_ok(runner, ["decompose", "--seed", "5", "--n", "2",
                              "--random", "--target", "cz"])
        man = json.loads(res.stdout)["manifest"]
        assert man["command"] == "decompose" and man["seed"] == 5
        assert list(man["parameters"].items()) == [
            ("input", None), ("n", 2), ("random", True), ("target", "cz")]

    def test_tv_decay_csv(self, runner, tmp_path):
        csv_path = tmp_path / "tv.csv"
        res = run_ok(runner, ["tv-decay", "--csv", str(csv_path), "--steps",
                              "3", "--dist", "X90:0.5,Y90:0.5"])
        want = [("n", 1), ("dist", "X90:0.5,Y90:0.5"), ("steps", 3)]
        man = json.loads(res.stdout)["manifest"]
        assert man["command"] == "tv-decay" and "seed" not in man
        assert list(man["parameters"].items()) == want
        csv_man = json.loads((tmp_path / "tv.csv.manifest.json").read_text())
        assert csv_man == man

    def test_versions_looked_up_once(self, runner, monkeypatch):
        """The package version lookup scans every `sys.path` entry, so a
        process makes it once, however many commands it runs."""
        calls = []

        def version(name):
            calls.append(name)
            return "1.2.3"

        monkeypatch.setattr(cli.metadata, "version", version)
        cli._versions.cache_clear()
        try:
            mans = [json.loads(run_ok(runner, [
                "decompose", "--seed", str(s), "--n", "2", "--random"]
                ).stdout)["manifest"] for s in (5, 6)]
        finally:
            cli._versions.cache_clear()
        assert calls == ["artifact"]
        assert mans[0]["versions"] == mans[1]["versions"]
        assert mans[0]["versions"]["artifact"] == "1.2.3"


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
    return errors[0]


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

    def test_simulate_depolarizing_too_many_qubits(self, tmp_path,
                                                   monkeypatch):
        # the limit is checked before any of the 4^n Paulis is built
        def refuse(n_qubits):
            raise AssertionError(f"enumerated the 4^{n_qubits} Paulis")

        monkeypatch.setattr(cliffrb.pauli, "enumerate_paulis", refuse)
        n = str(DEPOLARIZING_MAX_QUBITS + 1)
        common = ["simulate", "--n", n, "--lengths", "1,2", "--seed", "1",
                  "-o", str(tmp_path / "d.csv")]
        assert "the limit is" in assert_usage_error(
            common + ["--depolarizing", "0.01"], "--depolarizing")
        for model in ({"default": {"type": "depolarizing", "p": 0.01}},
                      {"default": {"type": "pauli", "weights": {}},
                       "spam": {"type": "depolarizing", "p": 0.01}}):
            path = tmp_path / "m.json"
            path.write_text(json.dumps(model))
            assert "the limit is" in assert_usage_error(
                common + ["--error-model", str(path)], "--error-model")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_more_qubits_than_measured_cap(self, tmp_path):
        # both protocols measure every qubit, and the fidelity sum runs over
        # at most DEFAULT_QUBIT_CAP measured Paulis
        n = DEFAULT_QUBIT_CAP + 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"default": {
            "type": "pauli", "weights": {"X" + "I" * (n - 1): 0.01}}}))
        assert_usage_error(["simulate", "--n", str(n), "--lengths", "1",
                            "--n-seq", "1", "--error-model", str(path),
                            "--seed", "1", "-o", str(tmp_path / "o.csv")],
                           "'--n'")
        assert not (tmp_path / "o.csv").exists()

    def test_bad_lengths(self, tmp_path):
        # a repeated length would be written twice with the same seq_index
        # and then counted twice by fit and bootstrap
        for lengths in ("1,x", "0,3", "5,3", "1,1,3", "1,3,3", ""):
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

    def test_gen_sequences_n_seq_must_be_positive(self):
        for count in ("0", "-3"):
            assert_usage_error(["gen-sequences", "--n", "1", "--lengths", "1",
                                "--n-seq", count, "--seed", "1"], "--n-seq")

    def test_unknown_interleaved_gate(self, tmp_path):
        assert_usage_error(["gen-sequences", "--protocol", "interleaved",
                            "--n", "1", "--lengths", "1", "--gate", "FOO",
                            "--seed", "1"], "--gate")
        assert_usage_error(["simulate", "--protocol", "interleaved",
                            "--n", "1", "--lengths", "1", "--gate", "FOO",
                            "--depolarizing", "0.01", "--seed", "1",
                            "-o", str(tmp_path / "d.csv")], "--gate")
        assert not (tmp_path / "d.csv").exists()

    def test_interleaved_gate_of_wrong_size(self, tmp_path):
        assert_usage_error(["simulate", "--protocol", "interleaved",
                            "--n", "2", "--lengths", "1", "--gate", "S",
                            "--depolarizing", "0.01", "--seed", "1",
                            "-o", str(tmp_path / "d.csv")], "--gate")
        assert_usage_error(["gen-sequences", "--protocol", "interleaved",
                            "--n", "1", "--lengths", "1", "--gate", "CX",
                            "--seed", "1"], "--gate")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_interleaved_needs_gate(self, tmp_path):
        assert_usage_error(["simulate", "--protocol", "interleaved",
                            "--n", "1", "--lengths", "1",
                            "--depolarizing", "0.01", "--seed", "1",
                            "-o", str(tmp_path / "d.csv")], "--gate")
        assert not (tmp_path / "d.csv").exists()

    def test_gate_needs_interleaved_protocol(self, tmp_path):
        assert_usage_error(["gen-sequences", "--n", "1", "--lengths", "1",
                            "--gate", "S", "--seed", "1"], "--gate")
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1",
                            "--gate", "S", "--depolarizing", "0.01",
                            "--seed", "1", "-o", str(tmp_path / "d.csv")],
                           "--gate")
        assert not (tmp_path / "d.csv").exists()

    def test_search_decomp_unknown_gates(self):
        assert_usage_error(["search-decomp", "--n", "1",
                            "--gates", "H,FOO"], "--gates")
        assert_usage_error(["search-decomp", "--n", "1",
                            "--primary", "FOO"], "--primary")

    def test_search_decomp_group_too_large(self):
        assert_usage_error(["search-decomp", "--n", "3"], "--n")
        assert_usage_error(["search-decomp", "--n", "4", "--quotient"], "--n")

    def test_group_diagnostics_qubit_limit(self):
        assert_usage_error(["tv-decay", "--n", "3", "--dist", "I:1"], "--n")
        assert_usage_error(["bounds", "--n", "3", "--dist", "I:1",
                            "--eps", "0.01"], "--n")

    def test_enumerate_elements_group_too_large(self):
        assert_usage_error(["enumerate", "--n", "3", "--elements"],
                           "--elements")

    def test_search_decomp_non_generating_gates(self):
        assert_usage_error(["search-decomp", "--n", "1", "--gates", "S"],
                           "--gates")

    def test_search_decomp_no_moves(self):
        # CX needs two qubits, so at n = 1 the gate set has no move at all
        assert_usage_error(["search-decomp", "--n", "1", "--gates", "CX"],
                           "--gates")

    def test_missing_input_files(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        assert_usage_error(["fit", "--data", missing, "--n", "1"], "--data")
        assert_usage_error(["bootstrap", "--data", missing, "--n", "1",
                            "--seed", "1"], "--data")
        data = tmp_path / "d.csv"
        data.write_text("protocol,length,seq_index,n_shots,n_correct\n")
        assert_usage_error(["interleaved", "--reference", missing,
                            "--interleaved", str(data), "--n", "1"],
                           "--reference")
        assert_usage_error(["interleaved", "--reference", str(data),
                            "--interleaved", missing, "--n", "1"],
                           "--interleaved")
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1",
                            "--error-model", missing, "--seed", "1",
                            "-o", str(tmp_path / "out.csv")], "--error-model")
        assert_usage_error(["decompose", "--input", missing], "--input")
        assert_usage_error(["decompose", "--input", str(tmp_path)], "--input")
        assert not (tmp_path / "out.csv").exists()

    def test_bootstrap_needs_two_resamples(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                        "exact,1,0,100,99\n")
        for count in ("0", "1"):
            assert_usage_error(["bootstrap", "--data", str(data), "--n", "1",
                                "--resamples", count, "--seed", "1"],
                               "--resamples")

    def test_bounds_counts_must_be_positive(self):
        for option in ("--k", "--length"):
            assert_usage_error(["bounds", "--dist", "H:1", "--eps", "0.01",
                                option, "0"], option)

    def test_bounds_infeasible_eps(self):
        for eps in ("5", "nan", "-1e-13"):
            assert_usage_error(["bounds", "--dist", "H:1", "--eps", eps],
                               "--eps")

    def test_empty_outputs_rejected(self):
        assert_usage_error(["tv-decay", "--dist", "H:1", "--steps", "0"],
                           "--steps")
        assert_usage_error(["sample-clifford", "--n", "1", "--count", "-2",
                            "--seed", "1"], "--count")

    def test_decompose_random_with_input(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(CliffordTableau.identity(1).to_json()))
        assert_usage_error(["decompose", "--random", "--n", "1",
                            "--input", str(path), "--seed", "1"], "--input")

    def test_decompose_n_needs_random(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(CliffordTableau.identity(1).to_json()))
        assert_usage_error(["decompose", "--input", str(path), "--n", "5"],
                           "--n")
        assert_usage_error(["decompose", "--n", "5"], "--n")

    def test_negative_seed_for_rng_commands(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                        "exact,1,0,100,99\n")
        for args in (["sample-clifford", "--n", "1", "--seed", "-5"],
                     ["decompose", "--random", "--n", "1", "--seed", "-1"],
                     ["bootstrap", "--data", str(data), "--n", "1",
                      "--seed", "-1"]):
            assert_usage_error(args, "--seed")

    def test_negative_seed_hashed_commands(self, runner, tmp_path):
        # these derive per-sequence seeds by hashing, so any integer works
        run_ok(runner, ["gen-sequences", "--n", "1", "--lengths", "1",
                        "--seed", "-3"])
        run_ok(runner, ["simulate", "--n", "1", "--lengths", "1",
                        "--depolarizing", "0.01", "--seed", "-3",
                        "-o", str(tmp_path / "d.csv")])

    def test_decompose_malformed_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{")
        assert_usage_error(["decompose", "--input", str(path)], "--input")

    def test_decompose_non_symplectic_tableau(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n_qubits": 1, "image_x": ["X"],
                                    "image_z": ["X"]}))
        assert_usage_error(["decompose", "--input", str(path)], "--input")

    def test_simulate_malformed_error_model(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{")
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1",
                            "--error-model", str(path), "--seed", "1",
                            "-o", str(tmp_path / "d.csv")], "--error-model")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_error_model_excludes_depolarizing(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"default": {"type": "depolarizing", "p": 0.01}}))
        for extra in (["--depolarizing", "0.5"], ["--spam", "0.2"]):
            assert_usage_error(["simulate", "--n", "1", "--lengths", "1",
                                "--error-model", str(path), *extra,
                                "--seed", "1", "-o", str(tmp_path / "d.csv")],
                               "--error-model")
        assert not (tmp_path / "d.csv").exists()

    def _simulate_model(self, tmp_path, model, *extra):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        assert_usage_error(["simulate", "--n", "1", "--lengths", "1,8",
                            "--error-model", str(path), *extra,
                            "--seed", "1", "-o", str(tmp_path / "d.csv")],
                           "--error-model")
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_unknown_step_label(self, tmp_path):
        for per_gate in ({"CX": {"type": "depolarizing", "p": 0.5}},
                         ["gate"]):
            self._simulate_model(tmp_path, {
                "default": {"type": "depolarizing", "p": 0.01},
                "per_gate": per_gate})
        self._simulate_model(tmp_path, [])

    def test_simulate_time_ramp_not_a_number(self, tmp_path):
        for ramp in ("abc", True, [0.1]):
            self._simulate_model(tmp_path, {
                "default": {"type": "depolarizing", "p": 0.01},
                "time_ramp": ramp})

    def test_simulate_time_ramp_nan(self, tmp_path):
        self._simulate_model(tmp_path, {
            "default": {"type": "depolarizing", "p": 0.01},
            "time_ramp": float("nan")})

    def test_simulate_time_ramp_out_of_range(self, tmp_path):
        model = {"default": {"type": "depolarizing", "p": 0.3},
                 "time_ramp": 1.0}
        self._simulate_model(tmp_path, model)
        # a ramp that breaks only the gate channel, only late in the
        # interleaved sequence
        model = {"default": {"type": "depolarizing", "p": 0.01},
                 "per_gate": {"gate": {"type": "depolarizing", "p": 0.1}},
                 "time_ramp": 1.0}
        self._simulate_model(tmp_path, model, "--protocol", "interleaved",
                             "--gate", "S")

    def test_fit_wrong_header(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("length,fidelity\n1,0.99\n")
        assert_usage_error(["fit", "--data", str(data), "--n", "1"], "--data")

    def test_fit_header_only(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("protocol,length,seq_index,n_shots,n_correct\n")
        assert_usage_error(["fit", "--data", str(data), "--n", "1"], "--data")

    @pytest.mark.parametrize("row", ["exact,1,1,0,0", "exact,1,1,100,150",
                                     "exact,1,1,100,-1", "exact,0,1,100,99"],
                             ids=["no-shots", "above-shots", "negative",
                                  "length-0"])
    def test_bad_dataset_row(self, tmp_path, row):
        # zero shots divided by zero in fit, bootstrap and interleaved, and
        # a count above the shots was fitted as a survival above 1
        bad = tmp_path / "bad.csv"
        bad.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                       f"exact,1,0,100,99\n\n{row}\n")
        good = tmp_path / "good.csv"
        counts = {l: round(50 + 45 * 0.95 ** l) for l in (1, 2, 4, 8, 16)}
        good.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                        + "".join(f"exact,{l},0,100,{c}\n"
                                  for l, c in counts.items()))
        for args, option in (
                (["fit", "--data", str(bad)], "--data"),
                (["bootstrap", "--data", str(bad), "--seed", "1"], "--data"),
                (["interleaved", "--reference", str(bad),
                  "--interleaved", str(good)], "--reference"),
                (["interleaved", "--reference", str(good),
                  "--interleaved", str(bad)], "--interleaved")):
            error = assert_usage_error(args + ["--n", "1"], option)
            assert "line 4" in error


    @pytest.mark.parametrize("row", ["exact,1,0,100", "exact,1,0,100,99,1",
                                     "exact,1,x,100,99"],
                             ids=["too-few", "too-many", "non-integer"])
    def test_malformed_dataset_row(self, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                       f"exact,1,0,100,99\n{row}\n")
        error = assert_usage_error(["fit", "--data", str(bad), "--n", "1"],
                                   "--data")
        assert "line 3" in error

    def test_empty_dataset(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        error = assert_usage_error(["fit", "--data", str(empty), "--n", "1"],
                                   "--data")
        assert "empty dataset" in error

    def test_interleaved_file_read_before_reference_fit(self, tmp_path,
                                                        saturated):
        # the saturated reference cannot be fitted by magesan; the bad
        # interleaved file is still the error reported
        bad = tmp_path / "bad.csv"
        bad.write_text("protocol,length,seq_index,n_shots,n_correct\n"
                       "exact,1,0,100\n")
        error = assert_usage_error(["interleaved", "--reference", saturated,
                                    "--interleaved", str(bad), "--model",
                                    "magesan", "--n", "1"], "'--interleaved'")
        assert "line 2" in error


@pytest.fixture(scope="module")
def saturated(tmp_path_factory):
    """A 1q dataset whose decay is already saturated at length 1."""
    path = tmp_path_factory.mktemp("saturated") / "d.csv"
    run_ok(CliRunner(), [
        "simulate", "--n", "1", "--lengths", "1,3,8,21,55",
        "--n-seq", "20", "--shots", "100", "--depolarizing", "0.9",
        "--seed", "3", "-o", str(path)])
    return str(path)


class TestFailedFit:
    """A saturated decay that the magesan model cannot fit exits 1 with one
    error line carrying the last objective value, not a traceback."""

    def assert_fit_failed(self, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [l for l in result.output.splitlines()
                  if l.startswith("Error:")]
        assert len(errors) == 1, result.output
        assert "did not converge" in errors[0]
        assert "last objective" in errors[0]
        assert "Traceback" not in result.output

    def test_fit(self, saturated):
        self.assert_fit_failed(["fit", "--data", saturated,
                                "--model", "magesan", "--n", "1"])

    def test_bootstrap(self, saturated):
        self.assert_fit_failed(["bootstrap", "--data", saturated,
                                "--model", "magesan", "--n", "1",
                                "--seed", "1"])

    def test_interleaved(self, saturated):
        self.assert_fit_failed(["interleaved", "--reference", saturated,
                                "--interleaved", saturated,
                                "--model", "magesan", "--n", "1"])


FIT_KEYS = {"model", "alpha", "params", "covariance", "chi2", "dof",
            "p_value", "significant", "lengths", "residuals"}
BOOTSTRAP_KEYS = {"n_resamples", "param_names", "original", "means",
                  "biases", "standard_errors", "bias_significant",
                  "ellipse_center", "ellipse_axes", "n_failures"}


class TestFitDiagnostics:
    """Fit diagnostics go to the manifest; the report bodies keep their
    exact key sets."""

    DATA = str(Path(__file__).parent / "golden" / "simulate_1q_exact.csv")

    def test_fit_manifest(self, runner):
        res = run_ok(runner, ["fit", "--data", self.DATA, "--n", "1"])
        report = json.loads(res.stdout)
        man = report["manifest"]
        assert set(report["fit"]) == FIT_KEYS
        assert man["converged"] is True
        assert man["n_iterations"] == len(man["objective_trace"]) - 1 > 0
        assert man["objective_trace"][-1] == report["fit"]["chi2"]
        assert "warnings" not in man
        assert res.stderr == ""

    def test_bootstrap_manifest(self, runner):
        res = run_ok(runner, ["bootstrap", "--data", self.DATA, "--n", "1",
                              "--resamples", "30", "--seed", "4"])
        report = json.loads(res.stdout)
        assert set(report["bootstrap"]) == BOOTSTRAP_KEYS
        # every replicate starts at the original fit and takes >= 1 step
        assert report["manifest"]["lm_iterations"] >= 30
        assert "warnings" not in report["manifest"]


class TestUnphysicalFit:
    """On a saturated decay the main model fits eps_m = -23499.5: the
    command still exits 0 with the same stdout schema, and flags it in
    manifest.warnings and on one stderr line."""

    def assert_warned(self, args, body_keys, n_warnings=1):
        res = run_ok(CliRunner(), args)
        report = json.loads(res.stdout)
        for key, keys in body_keys.items():
            assert set(report[key]) == keys
        warnings = report["manifest"]["warnings"]
        assert len(warnings) == n_warnings
        assert all("eps_m = -23499.5 lies outside [0, 0.5]" in w
                   for w in warnings)
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")

    def test_fit(self, saturated):
        self.assert_warned(["fit", "--data", saturated, "--n", "1"],
                           {"fit": FIT_KEYS})

    def test_bootstrap(self, saturated):
        self.assert_warned(["bootstrap", "--data", saturated, "--n", "1",
                            "--resamples", "20", "--seed", "1"],
                           {"bootstrap": BOOTSTRAP_KEYS})

    def test_interleaved(self, saturated):
        self.assert_warned(["interleaved", "--reference", saturated,
                            "--interleaved", saturated, "--n", "1"],
                           {"reference_fit": FIT_KEYS,
                            "interleaved_fit": FIT_KEYS}, n_warnings=2)
