import numpy as np
import pytest
from scipy.stats import chisquare

from cliffrb.clifford import CliffordTableau, clifford_compose, enumerate_group
from cliffrb.errors import ErrorModel
from cliffrb.errors import expected_sequence_fidelity
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliChannel
from cliffrb.protocol import (
    ExperimentDesign,
    RBDataset,
    RBSequence,
    StepDistribution,
    gen_approximate_sequence,
    gen_exact_sequence,
    gen_interleaved_sequence,
    knill_1q_distribution,
    run_experiment,
    sequence_seed,
)
from cliffrb.stabilizer import apply_clifford, measure_pauli, measure_z, zero_state


def total_tableau(seq: RBSequence) -> CliffordTableau:
    total = CliffordTableau.identity(seq.n_qubits)
    for _, tab in seq.steps:
        total = clifford_compose(tab, total)
    return total


class TestExactSequences:
    def test_composition_is_pauli(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            for l in (1, 4):
                seq = gen_exact_sequence(n, l, rng)
                assert total_tableau(seq).strip_signs().is_identity()

    def test_final_pauli_matches_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            seq = gen_exact_sequence(2, 3, rng)
            from cliffrb.clifford import pauli_tableau
            assert total_tableau(seq) == pauli_tableau(seq.final_pauli)

    def test_inversion_marginal_uniform(self):
        rng = np.random.default_rng(2)
        codes = [tab.encode() for tab in enumerate_group(1)]
        index = {c: i for i, c in enumerate(codes)}
        counts = np.zeros(24)
        trials = 2400
        for _ in range(trials):
            seq = gen_exact_sequence(1, 2, rng)
            counts[index[seq.inversion.encode()]] += 1
        _, p = chisquare(counts)
        assert p > 0.001

    def test_ideal_outcomes_uniform(self):
        rng = np.random.default_rng(3)
        bits = [gen_exact_sequence(1, 1, rng).ideal_outcomes[0]
                for _ in range(1000)]
        assert 420 < sum(bits) < 580

    def test_noiseless_simulation_reproduces_ideal_outcomes(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            seq = gen_exact_sequence(n, 3, rng)
            state = zero_state(n)
            for _, tab in seq.steps:
                apply_clifford(state, tab)
            for j, want in zip(seq.measured_qubits, seq.ideal_outcomes):
                out, _ = measure_z(state, j, rng)
                assert out == want

    def test_fidelity_one_without_errors(self):
        rng = np.random.default_rng(5)
        seq = gen_exact_sequence(2, 5, rng)
        model = ErrorModel(PauliChannel.identity(2))
        assert expected_sequence_fidelity(seq, model) == pytest.approx(1.0, abs=1e-12)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(6)
        seq = gen_exact_sequence(2, 3, rng)
        assert RBSequence.from_json(seq.to_json()) == seq

    def test_length_validation(self):
        with pytest.raises(ValueError):
            gen_exact_sequence(1, 0, np.random.default_rng(7))


class TestInterleavedSequences:
    def test_composition_is_pauli(self):
        rng = np.random.default_rng(8)
        g = get_gate("G").tableau
        for l in (1, 3):
            seq = gen_interleaved_sequence(2, l, g, rng)
            assert total_tableau(seq).strip_signs().is_identity()
            assert len(seq.core_steps) == 2 * l
            assert [label for label, _ in seq.core_steps] == \
                ["clifford", "gate"] * l

    def test_shares_cliffords_with_exact_at_same_seed(self):
        g = get_gate("S").tableau
        a = gen_exact_sequence(1, 4, np.random.default_rng(9))
        b = gen_interleaved_sequence(1, 4, g, np.random.default_rng(9))
        exact_cliffs = [tab for _, tab in a.core_steps]
        inter_cliffs = [tab for label, tab in b.core_steps if label == "clifford"]
        assert exact_cliffs == inter_cliffs

    def test_uniform_times_gate_marginal_uniform(self):
        rng = np.random.default_rng(10)
        g = get_gate("H").tableau
        codes = {tab.encode(): i for i, tab in enumerate(enumerate_group(1))}
        counts = np.zeros(24)
        for _ in range(2400):
            seq = gen_interleaved_sequence(1, 1, g, rng)
            c = seq.core_steps[0][1]
            counts[codes[clifford_compose(g, c).encode()]] += 1
        _, p = chisquare(counts)
        assert p > 0.001


class TestApproximateSequences:
    def test_knill_distribution_shape(self):
        pauli_part, comp_part = knill_1q_distribution()
        assert len(pauli_part.elements) == 4
        assert len(comp_part.elements) == 4
        assert all(w == 0.25 for _, w in pauli_part.elements)

    def test_partial_inversion_parity_deterministic(self):
        rng = np.random.default_rng(11)
        dist = knill_1q_distribution()
        for _ in range(200):
            seq = gen_approximate_sequence(dist, int(rng.integers(1, 8)), rng)
            assert seq.parity_mode and seq.measured_qubits == (0,)
            state = zero_state(1)
            for _, tab in seq.steps:
                apply_clifford(state, tab)
            out, _ = measure_pauli(state, seq.measured_paulis[0], rng)
            assert out == seq.ideal_outcomes[0]

    def test_multiqubit_partial_inversion(self):
        # two-qubit approximate protocol built from uniform Cliffords
        rng = np.random.default_rng(12)
        comp = StepDistribution(tuple(_distinct_tableaux(2, 8, rng)))
        for _ in range(100):
            seq = gen_approximate_sequence((None, comp), 4, rng)
            assert seq.measured_qubits  # nonempty
            state = zero_state(2)
            for _, tab in seq.steps:
                apply_clifford(state, tab)
            out, _ = measure_pauli(state, seq.measured_paulis[0], rng)
            assert out == seq.ideal_outcomes[0]

    def test_step_distribution_validation(self):
        ident = CliffordTableau.identity(1)
        with pytest.raises(ValueError):
            StepDistribution(((ident, 0.7),))
        with pytest.raises(ValueError):
            StepDistribution(((ident, 0.5), (ident, 0.5)))

    def test_step_distribution_rejects_nan(self):
        # NaN compares false both ways: it used to fail at the first sample
        ident = CliffordTableau.identity(1)
        x = get_gate("X").tableau
        for elements in (((ident, float("nan")),),
                         ((ident, 1.0), (x, float("nan")))):
            with pytest.raises(ValueError, match="must be a distribution"):
                StepDistribution(elements)


def _distinct_tableaux(n, count, rng):
    from cliffrb.clifford import sample_uniform
    seen = {}
    while len(seen) < count:
        tab = sample_uniform(n, rng)
        seen.setdefault(tab.encode(), tab)
    return [(tab, 1.0 / count) for tab in seen.values()]


class TestExperiment:
    def test_zero_error_all_correct(self):
        design = ExperimentDesign((1, 3), 4, 50, master_seed=99)
        data = run_experiment(design, "exact", ErrorModel(PauliChannel.identity(1)), 1)
        assert all(nc == ns for _, _, _, ns, nc in data.rows)
        assert len(data.rows) == 8

    def test_deterministic_on_master_seed(self):
        design = ExperimentDesign((1, 2, 5), 3, 30, master_seed=7)
        model = ErrorModel(PauliChannel.depolarizing(1, 0.05))
        a = run_experiment(design, "exact", model, 1)
        b = run_experiment(design, "exact", model, 1)
        assert a.rows == b.rows

    def test_csv_roundtrip(self):
        design = ExperimentDesign((1, 2), 2, 20, master_seed=3)
        data = run_experiment(design, "exact",
                              ErrorModel(PauliChannel.depolarizing(1, 0.1)), 1)
        assert RBDataset.from_csv(data.to_csv()).rows == data.rows

    @pytest.mark.parametrize("row,what", [
        ("exact,2,0,0,0", "n_shots"), ("exact,2,0,10,11", "n_correct"),
        ("exact,2,0,10,-1", "n_correct"), ("exact,0,0,10,9", "length")])
    def test_csv_rejects_bad_rows(self, row, what):
        text = ("protocol,length,seq_index,n_shots,n_correct\n"
                f"exact,1,0,10,10\n{row}\n")
        with pytest.raises(ValueError, match=f"line 3: {what}"):
            RBDataset.from_csv(text)

    def test_decay_matches_depolarizing_model(self):
        p, pm = 0.08, 0.04
        model = ErrorModel(PauliChannel.depolarizing(1, p),
                           spam_channel=PauliChannel.depolarizing(1, pm))
        design = ExperimentDesign((1, 5, 10), 40, 400, master_seed=11)
        data = run_experiment(design, "exact", model, 1)
        for l in design.lengths:
            want = 0.5 + 0.5 * (1 - pm) * (1 - p) ** (l + 1)
            got = data.fidelities(l).mean()
            assert got == pytest.approx(want, abs=0.02)

    def test_per_length_counts(self):
        design = ExperimentDesign((2, 4), (3, 5), 10, master_seed=1)
        data = run_experiment(design, "exact", ErrorModel(PauliChannel.identity(1)), 1)
        assert sum(1 for _, l, _, _, _ in data.rows if l == 2) == 3
        assert sum(1 for _, l, _, _, _ in data.rows if l == 4) == 5

    def test_design_validation(self):
        with pytest.raises(ValueError):
            ExperimentDesign((3, 1), 2, 10, 0)
        with pytest.raises(ValueError):
            ExperimentDesign((1, 2), 0, 10, 0)
        with pytest.raises(ValueError):
            ExperimentDesign((1, 2), (1,), 10, 0)
        with pytest.raises(ValueError, match="strictly ascending"):
            ExperimentDesign((1, 1, 3), 2, 10, 0)

    def test_interleaved_gate_must_be_an_element(self):
        design = ExperimentDesign((1, 2), 2, 10, master_seed=5)
        model = ErrorModel(PauliChannel.identity(2))
        with pytest.raises(ValueError, match="Clifford element"):
            run_experiment(design, "interleaved", model, 2,
                           gate=CliffordTableau(2, (1, 1, 1, 1)))

    def test_sequence_seed_stable(self):
        assert sequence_seed(5, "exact", 8, 2) == sequence_seed(5, "exact", 8, 2)
        assert sequence_seed(5, "exact", 8, 2) != sequence_seed(5, "exact", 8, 3)
