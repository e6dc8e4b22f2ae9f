import re

import numpy as np
import pytest

import oracles
from cliffrb.clifford import (
    CliffordTableau,
    GateSequence,
    clifford_apply,
    clifford_compose,
    clifford_inverse,
    embed_tableau,
    enumerate_group,
    group_order,
    quotient_group,
    sample_uniform,
)
from cliffrb.dense import group_twirl
from cliffrb.gates import find_mapping, get_gate, sequence_tableau
from cliffrb.pauli import (
    PauliOperator,
    enumerate_paulis,
    pauli_commutes,
)


def random_pauli(n, rng, nonidentity=False):
    while True:
        p = PauliOperator(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)))
        if not (nonidentity and p.is_identity()):
            return p


class TestApply:
    def test_gate_table_examples(self):
        h = get_gate("H").tableau
        assert str(clifford_apply(h, PauliOperator.from_string("X"))) == "+Z"
        cx = get_gate("CX").tableau
        assert str(clifford_apply(cx, PauliOperator.from_string("XI"))) == "+XX"
        g = CliffordTableau.from_image_strings(["YZ", "ZY"], ["ZI", "IZ"])
        assert str(clifford_apply(g, PauliOperator.from_string("XI"))) == "+YZ"

    def test_preserves_commutation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            c = sample_uniform(n, rng)
            p, q = random_pauli(n, rng), random_pauli(n, rng)
            assert pauli_commutes(p, q) == \
                pauli_commutes(clifford_apply(c, p), clifford_apply(c, q))

    def test_group_action_including_sign(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            c, d = sample_uniform(n, rng), sample_uniform(n, rng)
            p = random_pauli(n, rng)
            assert clifford_apply(clifford_compose(c, d), p) == \
                clifford_apply(c, clifford_apply(d, p))


class TestComposeInverse:
    def test_h_squared_is_identity(self):
        h = get_gate("H").tableau
        assert clifford_compose(h, h).is_identity()

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            c = sample_uniform(n, rng)
            assert clifford_compose(clifford_inverse(c), c).is_identity()
            assert clifford_compose(c, clifford_inverse(c)).is_identity()

    def test_identity_and_pauli_inverses(self):
        assert clifford_inverse(CliffordTableau.identity(3)).is_identity()
        x_as_clifford = get_gate("X").tableau
        assert clifford_inverse(x_as_clifford) == x_as_clifford

    def test_validation_rejects_bad_tableau(self):
        with pytest.raises(ValueError):
            CliffordTableau.from_image_strings(["X"], ["X"])


class TestGroupOrder:
    def test_table_values(self):
        assert group_order(1) == 24
        assert group_order(1, quotient=True) == 6
        assert group_order(2) == 11520
        assert group_order(2, quotient=True) == 720
        assert group_order(3, quotient=True) == 1451520

    def test_choice_count_product_identity(self):
        for n in range(1, 9):
            prod = 1
            for cx, cz in oracles.sample_choice_counts(n):
                prod *= cx * cz
            assert prod == group_order(n)


class TestEnumerate:
    def test_small_counts(self):
        assert len(enumerate_group(1)) == 24
        assert len(enumerate_group(1, quotient=True)) == 6
        assert len(enumerate_group(2, quotient=True)) == 720

    def test_all_distinct_and_contains_identity(self):
        group = enumerate_group(2, quotient=True)
        codes = {t.encode() for t in group}
        assert len(codes) == 720
        assert any(t.is_identity() for t in group)

    def test_closed_under_compose(self):
        group = enumerate_group(1)
        codes = {t.encode() for t in group}
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b = rng.integers(0, len(group), size=2)
            assert clifford_compose(group[a], group[b]).encode() in codes

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            enumerate_group(3, quotient=False)

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_order_matches_recursion(self, n, quotient):
        """The elements come in the order of the recursion the walk over the
        sampler's draws replaced: `bounds` sums in it and `enumerate
        --elements` prints it."""
        assert (enumerate_group(n, quotient=quotient)
                == oracles.enumerate_group_recursive(n, quotient=quotient))

    @pytest.mark.slow
    def test_three_qubit_quotient_order_matches_recursion(self):
        # n and the signs are fixed, so the images name each element; one
        # list of 1.45 million tableaux is held at a time
        want = [t.vecs for t in
                oracles.enumerate_group_recursive(3, quotient=True)]
        assert [t.vecs for t in enumerate_group(3, quotient=True)] == want

    def test_one_transitivity(self):
        # |{C : C(P_i) = ±P_j}| is the same constant over all non-identity i, j
        for n in (1, 2):
            group = enumerate_group(n)
            paulis = [p for p in enumerate_paulis(n) if not p.is_identity()]
            index = {(p.x_mask, p.z_mask): k for k, p in enumerate(paulis)}
            counts = np.zeros((len(paulis), len(paulis)), dtype=int)
            for c in group:
                for k, p in enumerate(paulis):
                    q = clifford_apply(c, p)
                    counts[k, index[(q.x_mask, q.z_mask)]] += 1
            expected = len(group) // len(paulis)
            assert np.all(counts == expected)



class TestGroupElements:
    def test_elements_built_only_when_read(self, monkeypatch):
        # enumeration, len, the whole-group twirl and the quotient record
        # read the image array; only an element read builds a tableau
        built = []

        class Counting(CliffordTableau):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        ch = oracles.random_tp_channel(2, np.random.default_rng(46))
        monkeypatch.setattr("cliffrb.clifford.CliffordTableau", Counting)
        group = enumerate_group(2)
        assert len(group) == 11520
        group_twirl(ch, group)
        assert len(quotient_group.__wrapped__(2).elements) == 720
        assert built == []
        tab = group[5]
        assert built == [tab]
        assert (tab.vecs, tab.signs) == (tuple(group.vecs[0].tolist()), 5)

    @pytest.mark.parametrize("quotient", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_sequence_protocol(self, n, quotient):
        group = enumerate_group(n, quotient=quotient)
        want = oracles.enumerate_group_recursive(n, quotient=quotient)
        assert group == want and want == group
        assert not (group != want or want != group)
        rng = np.random.default_rng(47)
        for i in rng.integers(0, len(want), size=20):  # numpy indices
            assert group[i].encode() == want[int(i)].encode()
            assert type(group[i].signs) is int
        assert [group[i] for i in (-1, -len(want))] == [want[-1], want[0]]
        for part in (slice(3, 50, 7), slice(None, None, -5), slice(-4, None)):
            assert group[part] == want[part]
        for i in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                group[i]
        with pytest.raises(TypeError):
            group[1.0]
        assert group != want[:-1] and group != want[::-1]
        with pytest.raises(TypeError):
            hash(group)
        if quotient:
            assert quotient_group(n).elements == group


class TestSampleUniform:
    def test_invariants_many_sizes(self):
        rng = np.random.default_rng(23)
        for n in range(1, 9):
            for _ in range(125):
                sample_uniform(n, rng).validate()

    def test_hits_whole_group_n1(self):
        rng = np.random.default_rng(29)
        codes = {t.encode() for t in enumerate_group(1)}
        seen = {sample_uniform(1, rng).encode() for _ in range(2000)}
        assert seen == codes


class TestFindMapping:
    def test_single_qubit_x_to_z(self):
        seq = find_mapping(PauliOperator.from_string("X"),
                           PauliOperator.from_string("Z"))
        t = sequence_tableau(seq)
        assert clifford_apply(t, PauliOperator.from_string("X")).representative() \
            == PauliOperator.from_string("Z")

    def test_fixed_point_gives_empty_sequence(self):
        z = PauliOperator.from_string("Z")
        assert len(find_mapping(z, z)) == 0

    def test_random_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            p = random_pauli(n, rng, nonidentity=True)
            q = random_pauli(n, rng, nonidentity=True)
            seq = find_mapping(p, q)
            got = clifford_apply(sequence_tableau(seq), p)
            assert got.representative() == q.representative()
            # O(n) gate count: swap (3) + 2n one-qubit + n CZ is a safe cap
            assert len(seq) <= 3 * n + 3

    def test_identity_arguments_rejected(self):
        with pytest.raises(ValueError):
            find_mapping(PauliOperator.identity(2),
                         PauliOperator.from_string("XI"))


class TestEmbedAndSequences:
    def test_embed_matches_direct(self):
        cx = get_gate("CX").tableau
        big = embed_tableau(cx, (2, 0), 3)
        p = PauliOperator.from_string("IIX")  # X on qubit 2 (the control)
        assert str(clifford_apply(big, p)) == "+XIX"

    def test_embed_rejects_bad_positions(self):
        cx = get_gate("CX").tableau
        with pytest.raises(ValueError, match="positions"):
            embed_tableau(cx, (0,), 3)  # wrong count
        with pytest.raises(ValueError, match="positions"):
            embed_tableau(cx, (1, 1), 3)  # repeated
        with pytest.raises(IndexError):
            embed_tableau(cx, (-1, 0), 3)
        with pytest.raises(IndexError):
            embed_tableau(cx, (0, 3), 3)

    def test_apply_names_imaginary_operand(self):
        ix = PauliOperator.from_string("iX")
        with pytest.raises(ValueError, match="iX: imaginary"):
            clifford_apply(get_gate("H").tableau, ix)

    def test_sequence_roundtrip_json(self):
        seq = GateSequence(2, (("H", (0,)), ("CX", (0, 1))))
        assert GateSequence.from_json(seq.to_json()) == seq

    def test_tableau_json_roundtrip(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c = sample_uniform(3, rng)
            assert CliffordTableau.from_json(c.to_json()) == c


class TestGateSequenceChecks:
    """Each bad index tuple is reported with the first gate that uses it,
    also when valid gates on the same qubits come before it."""

    @pytest.mark.parametrize("bad", [("CZ", (1, 1)), ("CX", (0, -1)),
                                     ("CX", (1, 2))],
                             ids=["repeated", "negative", "too-large"])
    @pytest.mark.parametrize("prefix", [(), (("H", (0,)), ("H", (1,)),
                                             ("CX", (0, 1)), ("CX", (1, 0)))],
                             ids=["alone", "after-valid"])
    def test_bad_index_names_gate(self, bad, prefix):
        name, idxs = bad
        # a later gate on the same tuple is not the one named
        gates = prefix + (bad, ("SWAP", idxs))
        with pytest.raises(ValueError, match=re.escape(f"{name}{idxs}")):
            GateSequence(2, gates)
