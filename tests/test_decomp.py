from collections import deque

import numpy as np
import pytest

from cliffrb.clifford import (
    CliffordTableau,
    GateSequence,
    clifford_compose,
    sample_uniform,
)
from cliffrb.decomp import (
    CoverageError,
    UnsupportedGateError,
    block_decompose,
    cayley_search,
    translate_sequence,
)
from cliffrb.gates import GateSet, get_gate, sequence_tableau, standard_gate_set


def xy_set():
    return GateSet("xy", (("X90", "each", 1.0), ("X90m", "each", 1.0),
                          ("Y90", "each", 1.0), ("Y90m", "each", 1.0)))


def oneq_plus_cx():
    return GateSet("1q+cx", (("H", "each", 1.0), ("S", "each", 1.0),
                             ("Sdg", "each", 1.0), ("X90", "each", 1.0),
                             ("X90m", "each", 1.0), ("CX", "all-pairs", 1.0)))


class TestCayleySearch:
    def test_identity_settled_at_zero(self):
        table = cayley_search(xy_set(), 1)
        seq, cost = table.lookup(CliffordTableau.identity(1))
        assert cost == (0, 0) and seq.gates == ()

    def test_xy_covers_single_qubit_group(self):
        table = cayley_search(xy_set(), 1, primary_gates=())
        assert len(table.entries) == 24

    def test_sequences_compose_to_keys(self):
        table = cayley_search(xy_set(), 1)
        for key, (seq, _) in table.entries.items():
            assert sequence_tableau(seq).encode() == key

    def test_cx_histogram_n2_quotient(self):
        table = cayley_search(oneq_plus_cx(), 2, quotient=True)
        hist = table.cost_histogram()
        assert hist == {0: 36, 1: 324, 2: 324, 3: 36}
        mean = sum(k * v for k, v in hist.items()) / sum(hist.values())
        assert mean == pytest.approx(1.5)

    def test_inverse_needs_equal_cx_count(self):
        rng = np.random.default_rng(0)
        table = cayley_search(oneq_plus_cx(), 2, quotient=True)
        from cliffrb.clifford import clifford_inverse
        for _ in range(50):
            c = sample_uniform(2, rng)
            _, (prim, _) = table.lookup(c)
            _, (prim_inv, _) = table.lookup(clifford_inverse(c))
            assert prim == prim_inv

    def test_costs_match_brute_force_bfs(self):
        # uniform weight comparison on a 2-generator set
        gs = GateSet("hs", (("H", "each", 1.0), ("S", "each", 1.0)))
        table = cayley_search(gs, 1, primary_gates=())
        depth = {CliffordTableau.identity(1).encode(): 0}
        frontier = deque([CliffordTableau.identity(1)])
        while frontier:
            cur = frontier.popleft()
            for name in ("H", "S"):
                new = clifford_compose(get_gate(name).tableau, cur)
                if new.encode() not in depth:
                    depth[new.encode()] = depth[cur.encode()] + 1
                    frontier.append(new)
        assert len(depth) == 24
        for key, (_, (_, tot)) in table.entries.items():
            assert tot == depth[key]

    def test_sequences_built_only_when_read(self, monkeypatch):
        # the search, len, key iteration and the histogram read the tree;
        # only a value read builds (and checks) a GateSequence
        built = []

        class Counting(GateSequence):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr("cliffrb.decomp.GateSequence", Counting)
        table = cayley_search(oneq_plus_cx(), 2, quotient=True)
        assert len(table.entries) == 720
        assert len(list(table.entries)) == 720
        assert sum(table.cost_histogram().values()) == 720
        assert built == []
        c = sample_uniform(2, np.random.default_rng(45))
        seq, (_, tot) = table.lookup(c)
        assert built == [seq] and len(seq) == tot

    def test_membership_builds_no_sequence(self, monkeypatch):
        # `in` ranks the key and reads the tree's arrays only
        table = cayley_search(oneq_plus_cx(), 2)

        def refuse(*args):
            raise AssertionError("membership built a GateSequence")

        monkeypatch.setattr("cliffrb.decomp.GateSequence", refuse)
        keys = list(table.entries)
        assert len(keys) == 11520
        assert all(key in table.entries for key in keys)
        assert not any(key in table.entries for key in (0, 1, (1 << 20) - 1))

    def test_non_generating_set_raises(self):
        with pytest.raises(CoverageError):
            cayley_search(GateSet("s", (("S", "each", 1.0),)), 1)

    def test_group_too_large_raises_before_searching(self):
        for n, quotient in ((3, False), (4, True), (5, False)):
            with pytest.raises(ValueError, match="too large"):
                cayley_search(standard_gate_set(), n, quotient=quotient)


class TestBlockDecompose:
    def test_identity_is_empty(self):
        assert block_decompose(CliffordTableau.identity(3)).gates == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_roundtrip_exact(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            c = sample_uniform(n, rng)
            seq = block_decompose(c)
            assert sequence_tableau(seq) == c

    def test_block_order(self):
        # emitted blocks (reading the inverted output backwards) are
        # 1q, CZ, CX, 1q, CZ, 1q -- so the output must match the reversed
        # regular expression over gate arities/kinds
        rng = np.random.default_rng(41)
        kinds = {"CZ": "z", "CX": "x"}
        for _ in range(30):
            c = sample_uniform(4, rng)
            seq = block_decompose(c)
            word = "".join(kinds.get(name, "q") for name, _ in seq.gates)
            # output order: (1q) CZ 1q CX CZ 1q
            import re
            assert re.fullmatch(r"q*z*q*x*z*q*", word), word

    def test_gate_count_scales_quadratically(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 6):
            worst = max(len(block_decompose(sample_uniform(n, rng)).gates)
                        for _ in range(20))
            assert worst <= 8 * n * n + 2 * n

    def test_never_beats_optimal_table(self):
        table = cayley_search(oneq_plus_cx(), 2, quotient=True)
        rng = np.random.default_rng(43)
        for _ in range(30):
            c = sample_uniform(2, rng)
            seq = block_decompose(c)
            cx_alg = sum(1 for name, _ in seq.gates if name == "CX")
            cz_alg = sum(1 for name, _ in seq.gates if name == "CZ")
            _, (cx_opt, _) = table.lookup(c)
            assert cx_alg + cz_alg >= cx_opt


class TestTranslate:
    def test_cz_to_cx(self):
        seq = GateSequence(2, (("CZ", (0, 1)),))
        got = translate_sequence(seq, oneq_plus_cx())
        assert got.gates == (("H", (1,)), ("CX", (0, 1)), ("H", (1,)))
        assert sequence_tableau(got) == get_gate("CZ").tableau

    def test_cx_via_g_gate(self):
        target = GateSet("trap", (("H", "each", 1.0), ("Sdg", "each", 1.0),
                                  ("G", ((0, 1),), 1.0)))
        seq = GateSequence(2, (("CX", (0, 1)),))
        got = translate_sequence(seq, target)
        assert all(name in ("H", "Sdg", "G") for name, _ in got.gates)
        assert sequence_tableau(got).strip_signs() == \
            get_gate("CX").tableau.strip_signs()

    def test_noop_when_already_in_target(self):
        seq = GateSequence(2, (("H", (0,)), ("CX", (0, 1))))
        assert translate_sequence(seq, standard_gate_set()) == seq

    def test_unreachable_gate_raises(self):
        seq = GateSequence(2, (("MS", (0, 1)),))
        with pytest.raises(UnsupportedGateError):
            translate_sequence(seq, standard_gate_set())

    def test_translated_decompositions_roundtrip(self):
        target = GateSet("cz-only", (("H", "each", 1.0), ("S", "each", 1.0),
                                     ("Sdg", "each", 1.0), ("X90", "each", 1.0),
                                     ("X90m", "each", 1.0), ("T2", "each", 1.0),
                                     ("T", "each", 1.0), ("X", "each", 1.0),
                                     ("Z", "each", 1.0), ("CZ", "all-pairs", 1.0)))
        rng = np.random.default_rng(44)
        for _ in range(10):
            c = sample_uniform(3, rng)
            seq = translate_sequence(block_decompose(c), target)
            assert all(name != "CX" for name, _ in seq.gates)
            assert sequence_tableau(seq) == c
