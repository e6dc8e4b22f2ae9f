import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cliffrb.pauli
from cliffrb.pauli import (
    DEPOLARIZING_MAX_QUBITS,
    PauliChannel,
    PauliDimensionError,
    PauliOperator,
    enumerate_paulis,
    pauli_commutes,
    pauli_multiply,
    pauli_support,
)

from oracles import dense_pauli


def all_paulis(n, phases=(0,)):
    for p in enumerate_paulis(n):
        for ph in phases:
            yield PauliOperator(n, p.x_mask, p.z_mask, ph)


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        x = PauliOperator.from_string("X")
        z = PauliOperator.from_string("Z")
        prod = pauli_multiply(x, z)
        assert prod.phase == 3
        assert (prod.x_mask, prod.z_mask) == (1, 1)

    def test_two_qubit_example(self):
        p = PauliOperator.from_string("XZ")
        q = PauliOperator.from_string("ZZ")
        assert str(pauli_multiply(p, q)) == "-iYI"

    def test_identity_neutral(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            p = PauliOperator(n, int(rng.integers(0, 1 << n)),
                              int(rng.integers(0, 1 << n)), int(rng.integers(0, 4)))
            ident = PauliOperator.identity(n)
            assert pauli_multiply(ident, p) == p
            assert pauli_multiply(p, ident) == p

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_matrix_product(self, n):
        # exhaustive over all phase pairs too: exact agreement incl. phase
        ops = list(all_paulis(n, phases=(0, 1, 2, 3)))
        for p, q in itertools.product(ops, ops):
            got = dense_pauli(pauli_multiply(p, q))
            want = dense_pauli(p) @ dense_pauli(q)
            assert np.allclose(got, want), (str(p), str(q))

    def test_associative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            ps = [PauliOperator(n, int(rng.integers(0, 1 << n)),
                                int(rng.integers(0, 1 << n)),
                                int(rng.integers(0, 4))) for _ in range(3)]
            a = pauli_multiply(pauli_multiply(ps[0], ps[1]), ps[2])
            b = pauli_multiply(ps[0], pauli_multiply(ps[1], ps[2]))
            assert a == b

    def test_representatives_form_group(self):
        for n in (1, 2):
            ops = set(all_paulis(n))
            assert len(ops) == 4 ** n
            products = {pauli_multiply(p, q).representative()
                        for p in ops for q in ops}
            assert products == ops

    def test_dimension_mismatch(self):
        with pytest.raises(PauliDimensionError):
            pauli_multiply(PauliOperator.identity(1), PauliOperator.identity(2))


class TestCommutes:
    def test_x_z_anticommute(self):
        assert not pauli_commutes(PauliOperator.from_string("X"),
                                  PauliOperator.from_string("Z"))

    def test_disjoint_support(self):
        assert pauli_commutes(PauliOperator.from_string("XI"),
                              PauliOperator.from_string("IZ"))

    def test_double_anticommute_commutes(self):
        assert pauli_commutes(PauliOperator.from_string("XZ"),
                              PauliOperator.from_string("ZX"))

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense(self, n):
        ops = list(all_paulis(n))
        for p, q in itertools.product(ops, ops):
            mp, mq = dense_pauli(p), dense_pauli(q)
            assert pauli_commutes(p, q) == np.allclose(mp @ mq, mq @ mp)

    def test_symmetric_and_reflexive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = PauliOperator(n, int(rng.integers(0, 1 << n)),
                              int(rng.integers(0, 1 << n)))
            q = PauliOperator(n, int(rng.integers(0, 1 << n)),
                              int(rng.integers(0, 1 << n)))
            assert pauli_commutes(p, q) == pauli_commutes(q, p)
            assert pauli_commutes(p, p)

    def test_distinct_paulis_distinguished_by_commutation(self):
        # any two distinct non-identity representatives disagree in
        # commutation with at least one other pauli
        for n in (1, 2):
            ops = [p for p in all_paulis(n) if not p.is_identity()]
            for p, q in itertools.combinations(ops, 2):
                assert any(pauli_commutes(p, r) != pauli_commutes(q, r)
                           for r in all_paulis(n))


class TestSupportAndText:
    def test_support_examples(self):
        assert pauli_support(PauliOperator.from_string("II")) == set()
        assert pauli_support(PauliOperator.from_string("XIY")) == {0, 2}
        assert pauli_support(PauliOperator.from_string("ZZZZZ")) == {0, 1, 2, 3, 4}

    @given(st.integers(0, 3),
           st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=12))
    def test_string_roundtrip(self, phase, chars):
        text = {0: "+", 1: "i", 2: "-", 3: "-i"}[phase] + "".join(chars)
        op = PauliOperator.from_string(text)
        assert str(op) == text
        assert PauliOperator.from_string(str(op)) == op

    def test_bad_strings_rejected(self):
        for bad in ("", "+", "XQ", "x"):
            with pytest.raises(ValueError):
                PauliOperator.from_string(bad)

    def test_mask_bounds_enforced(self):
        with pytest.raises(ValueError):
            PauliOperator(1, 2, 0)


class TestChannel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PauliChannel(1, {PauliOperator.identity(1): 0.5})

    def test_keys_must_be_phase_zero(self):
        with pytest.raises(ValueError):
            PauliChannel(1, {PauliOperator.from_string("-X"): 1.0})

    def test_depolarizing_weights(self):
        ch = PauliChannel.depolarizing(1, 0.04)
        ident = PauliOperator.identity(1)
        assert ch.weights[ident] == pytest.approx(1 - 0.04 * 3 / 4)
        for op in enumerate_paulis(1):
            if not op.is_identity():
                assert ch.weights[op] == pytest.approx(0.01)

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.3])
    def test_depolarizing_builds_at_eight_qubits(self, p):
        # 4^8 equal weights: their naive float sum misses 1 by about 2e-12
        ch = PauliChannel.depolarizing(8, p)
        assert len(ch.weights) == 4 ** 8

    def test_depolarizing_qubit_limit(self, monkeypatch):
        # the limit is checked before any of the 4^n Paulis is built
        def refuse(n_qubits):
            raise AssertionError(f"enumerated the 4^{n_qubits} Paulis")

        monkeypatch.setattr(cliffrb.pauli, "enumerate_paulis", refuse)
        with pytest.raises(ValueError, match="limit is"):
            PauliChannel.depolarizing(DEPOLARIZING_MAX_QUBITS + 1, 0.01)
        with pytest.raises(AssertionError):
            PauliChannel.depolarizing(DEPOLARIZING_MAX_QUBITS, 0.01)

    def test_scaled_ramps_non_identity_weights(self):
        ch = PauliChannel.depolarizing(2, 0.1).scaled(1.5)
        non_ident = sum(w for op, w in ch.weights.items()
                        if not op.is_identity())
        assert non_ident == pytest.approx(0.1 * 15 / 16 * 1.5)
