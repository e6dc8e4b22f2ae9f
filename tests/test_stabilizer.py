import numpy as np
import pytest

from cliffrb.clifford import clifford_apply, sample_uniform
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliDimensionError, PauliOperator, pauli_multiply
from cliffrb.stabilizer import (
    InvalidStateError,
    apply_clifford,
    default_neighbor,
    deterministic_z_outcome,
    measure_pauli,
    measure_z,
    prepare_zero,
    random_stabilizer_element,
    reduce_gssf,
    stabilizer_decomposition,
    zero_state,
)

from oracles import (canonical_row_span, check_gssf, embed_unitary, project_z,
                     z_outcome_probability)


class CountingRng:
    """Wraps a numpy generator, counting how many coin flips are consumed."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, lo, hi):
        self.calls += 1
        return self.rng.integers(lo, hi)


def bell_state():
    s = zero_state(2)
    apply_clifford(s, get_gate("H").tableau, (0,))
    apply_clifford(s, get_gate("CX").tableau, (0, 1))
    return s


class TestPrepare:
    def test_empty_to_single_qubit(self):
        s = zero_state(0)
        prepare_zero(s)
        assert s.n_qubits == 1
        assert str(s.rows[0]) == "+Z"

    def test_prepared_qubit_measures_zero(self):
        s = zero_state(3)
        rng = CountingRng(0)
        for j in range(3):
            out, _ = measure_z(s, j, rng)
            assert out == 0
        assert rng.calls == 0

    def test_product_state_has_no_adjacency(self):
        s = zero_state(2)
        for r in range(2):
            for c in range(2):
                if r != c:
                    assert s.rows[r].factor(c) == "I"


class TestReduce:
    def test_idempotent_on_gssf(self):
        s = bell_state()
        again = reduce_gssf(list(s.rows))
        assert again.rows == s.rows

    def test_random_rows_reach_gssf_and_preserve_group(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            c = sample_uniform(n, rng)
            rows = [clifford_apply(c, PauliOperator.single(n, j, "Z"))
                    for j in range(n)]
            # scramble with row products to hide the structure
            for _ in range(2 * n):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    rows[a] = pauli_multiply(rows[a], rows[b])
            before = canonical_row_span(reduce_gssf(list(rows)))
            state = reduce_gssf(rows)
            check_gssf(state)
            assert canonical_row_span(state) == before

    def test_noncommuting_rows_rejected(self):
        with pytest.raises(InvalidStateError):
            reduce_gssf([PauliOperator.from_string("XI"),
                         PauliOperator.from_string("ZI")])

    def test_dependent_rows_rejected(self):
        with pytest.raises(InvalidStateError):
            reduce_gssf([PauliOperator.from_string("ZI"),
                         PauliOperator.from_string("ZI")])

    @pytest.mark.parametrize("rows, counts", [
        (["ZI"], "1 rows on 2 qubits"), (["XI"], "1 rows on 2 qubits"),
        (["Z", "Z"], "2 rows on 1 qubits")])
    def test_one_row_per_qubit(self, rows, counts):
        with pytest.raises(InvalidStateError, match=counts):
            reduce_gssf([PauliOperator.from_string(r) for r in rows])


def test_default_neighbor_anticommutes_with_diagonal():
    assert [default_neighbor(d) for d in "XYZ"] == ["Z", "Z", "X"]


class TestApplyClifford:
    def test_h_on_zero_gives_plus(self):
        s = zero_state(1)
        apply_clifford(s, get_gate("H").tableau, (0,))
        assert str(s.rows[0]) == "+X"

    def test_bell_state_stabilizers(self):
        s = bell_state()
        for text in ("XX", "ZZ"):
            dec = stabilizer_decomposition(s, PauliOperator.from_string(text))
            assert dec is not None and dec[1] == 0

    def test_identity_gate_no_change(self):
        s = bell_state()
        rows = list(s.rows)
        apply_clifford(s, get_gate("I").tableau, (1,))
        assert s.rows == rows

    def test_membership_transported(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            s = zero_state(n)
            prep = sample_uniform(n, rng)
            apply_clifford(s, prep)
            elem = random_stabilizer_element(s, rng)
            c = sample_uniform(n, rng)
            apply_clifford(s, c)
            dec = stabilizer_decomposition(s, clifford_apply(c, elem))
            assert dec is not None and dec[1] == 0

    @pytest.mark.parametrize("text", ["Z", "ZZZ"])
    def test_decomposition_checks_qubit_count(self, text):
        with pytest.raises(PauliDimensionError,
                           match=f"{len(text)}-qubit .* 2-qubit"):
            stabilizer_decomposition(zero_state(2),
                                     PauliOperator.from_string(text))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_clifford(zero_state(1), get_gate("H").tableau, (1,))

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="positions"):
            apply_clifford(zero_state(2), get_gate("CX"), (0, 0))

    def test_index_count_must_match_arity(self):
        # a one-qubit gate given two qubits
        with pytest.raises(ValueError, match="positions"):
            apply_clifford(zero_state(2), get_gate("H"), (0, 1))


class TestMeasureZ:
    def test_zero_state_deterministic(self):
        s = zero_state(1)
        rng = CountingRng(1)
        out, _ = measure_z(s, 0, rng)
        assert (out, rng.calls) == (0, 0)
        assert str(s.rows[0]) == "+Z"

    def test_plus_state_fair_coin(self):
        outcomes = []
        rng = CountingRng(2)
        for _ in range(400):
            s = zero_state(1)
            apply_clifford(s, get_gate("H").tableau, (0,))
            out, _ = measure_z(s, 0, rng)
            outcomes.append(out)
            # post-state stabilized by (-1)^out Z
            assert s.rows[0] == PauliOperator(1, 0, 1, 2 * out)
        assert rng.calls == 400
        assert 140 < sum(outcomes) < 260

    def test_bell_outcomes_correlated(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = bell_state()
            o0, _ = measure_z(s, 0, rng)
            o1, _ = measure_z(s, 1, rng)
            assert o0 == o1

    def test_repeated_measurement_stable(self):
        rng = CountingRng(4)
        s = bell_state()
        o0, _ = measure_z(s, 0, rng)
        first_calls = rng.calls
        o0_again, _ = measure_z(s, 0, rng)
        assert o0_again == o0 and rng.calls == first_calls
        check_gssf(s)


class TestMeasurePauli:
    def test_z_on_zero(self):
        s = zero_state(1)
        out, _ = measure_pauli(s, PauliOperator.from_string("Z"), CountingRng(5))
        assert out == 0

    def test_minus_z_on_zero(self):
        s = zero_state(1)
        out, _ = measure_pauli(s, PauliOperator.from_string("-Z"), CountingRng(6))
        assert out == 1

    def test_xx_on_bell_deterministic(self):
        s = bell_state()
        rng = CountingRng(7)
        out, _ = measure_pauli(s, PauliOperator.from_string("XX"), rng)
        assert (out, rng.calls) == (0, 0)

    def test_x_on_zero_fair_coin(self):
        rng = CountingRng(8)
        outs = []
        for _ in range(300):
            s = zero_state(1)
            out, _ = measure_pauli(s, PauliOperator.from_string("X"), rng)
            outs.append(out)
        assert 100 < sum(outs) < 200

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            measure_pauli(zero_state(1), PauliOperator.identity(1), CountingRng(9))


class TestAgainstDenseSimulation:
    """Co-simulate random circuits against a dense statevector, feeding the
    stabilizer outcomes into the dense projector."""

    GATE_POOL_1Q = ["H", "S", "Sdg", "X90", "Y90", "T", "X", "Z"]
    GATE_POOL_2Q = ["CX", "CZ", "MS", "G"]

    def test_random_circuits(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            state = zero_state(n)
            vec = np.zeros(2 ** n, dtype=complex)
            vec[0] = 1.0
            for _ in range(25):
                r = rng.random()
                if r < 0.25:
                    j = int(rng.integers(0, n))
                    det = deterministic_z_outcome(state, j)
                    out, _ = measure_z(state, j, rng)
                    p = z_outcome_probability(vec, j, out)
                    if det is not None:
                        assert det == out
                        assert p == pytest.approx(1.0, abs=1e-9)
                    else:
                        assert p == pytest.approx(0.5, abs=1e-9)
                    vec = project_z(vec, j, out)
                    check_gssf(state)
                else:
                    if n >= 2 and rng.random() < 0.4:
                        name = self.GATE_POOL_2Q[int(rng.integers(0, 4))]
                        idx = tuple(rng.permutation(n)[:2].tolist())
                    else:
                        name = self.GATE_POOL_1Q[int(rng.integers(0, 8))]
                        idx = (int(rng.integers(0, n)),)
                    g = get_gate(name)
                    apply_clifford(state, g.tableau, idx)
                    vec = embed_unitary(g.dense, idx, n) @ vec
            # final full-state cross-check: every stabilizer row fixes vec
            from oracles import dense_pauli
            for row in state.rows:
                assert np.allclose(dense_pauli(row) @ vec, vec, atol=1e-9)
