import numpy as np
import pytest

from cliffrb.clifford import GateSequence, clifford_apply, clifford_compose
from cliffrb.gates import (
    INVERSE_NAMES,
    GateDefinition,
    GateSet,
    get_gate,
    invert_sequence,
    sequence_tableau,
    standard_gate_set,
)
from cliffrb.pauli import PauliOperator

from oracles import (builtin_gates, dense_pauli, equal_up_to_phase,
                     generates_clifford_group, kron_all)


TABLE_NAMES = ["I", "X", "Y", "Z", "X90", "S", "T", "H", "CX", "CZ", "MS", "G"]


def test_contains_the_twelve_table_gates():
    reg = builtin_gates()
    for name in TABLE_NAMES:
        assert name in reg


def test_t_action():
    t = get_gate("T").tableau
    assert str(clifford_apply(t, PauliOperator.from_string("X"))) == "+Y"
    assert str(clifford_apply(t, PauliOperator.from_string("Z"))) == "+X"


def test_ms_action():
    ms = get_gate("MS").tableau
    assert str(clifford_apply(ms, PauliOperator.from_string("ZI"))) == "-YX"
    assert str(clifford_apply(ms, PauliOperator.from_string("IZ"))) == "-XY"


@pytest.mark.parametrize("name", sorted(builtin_gates()))
def test_tableau_matches_dense_conjugation(name):
    g = get_gate(name)
    u = g.dense
    assert np.allclose(u @ u.conj().T, np.eye(2 ** g.arity))
    for i in range(g.arity):
        for kind in ("X", "Y", "Z"):
            p = PauliOperator.single(g.arity, i, kind)
            want = dense_pauli(clifford_apply(g.tableau, p))
            assert np.allclose(u @ dense_pauli(p) @ u.conj().T, want)


def test_registry_check_rejects_a_mismatched_pair():
    h, s = get_gate("H"), get_gate("S")
    with pytest.raises(ValueError, match=r"gate bad: tableau and dense "
                                         r"action disagree on \+X$"):
        GateDefinition("bad", 1, h.tableau, s.dense)


def test_registry_check_rejects_a_non_unitary_matrix():
    h = get_gate("H")
    with pytest.raises(ValueError, match="gate bad: dense matrix is not "
                                         "unitary"):
        GateDefinition("bad", 1, h.tableau, 2 * h.dense)


def test_g_gate_identity():
    # Y1(90) Y2(90) . MS . Y1(-90) Y2(-90) == S1 S2 . CZ (up to global phase)
    y90 = get_gate("Y90").dense
    y90m = get_gate("Y90m").dense
    ms = get_gate("MS").dense
    s = get_gate("S").dense
    cz = get_gate("CZ").dense
    lhs = kron_all([y90, y90]) @ ms @ kron_all([y90m, y90m])
    rhs = kron_all([s, s]) @ cz
    assert equal_up_to_phase(lhs, rhs)
    assert equal_up_to_phase(get_gate("G").dense, rhs)


def test_cz_from_cx_and_hadamards():
    seq = GateSequence(2, (("H", (1,)), ("CX", (0, 1)), ("H", (1,))))
    assert sequence_tableau(seq) == get_gate("CZ").tableau


def test_named_inverses():
    for name in ("H", "S", "Sdg", "X90", "X90m", "Y90", "Y90m", "T", "T2",
                 "CX", "CZ", "X", "Y", "Z"):
        seq = GateSequence(2, ((name, tuple(range(get_gate(name).arity))),))
        inverse = GateSequence(2, invert_sequence(seq.gates))
        roundtrip = clifford_compose(sequence_tableau(inverse),
                                     sequence_tableau(seq))
        assert roundtrip.is_identity()


def test_inverse_names_table():
    # read off the registry's tableaux: MS and G have no registered inverse
    assert INVERSE_NAMES == {
        "I": "I", "X": "X", "Y": "Y", "Z": "Z", "H": "H",
        "S": "Sdg", "Sdg": "S", "X90": "X90m", "X90m": "X90",
        "Y90": "Y90m", "Y90m": "Y90", "T": "T2", "T2": "T",
        "CX": "CX", "CZ": "CZ", "MS": None, "G": None,
    }


def test_generates_clifford_group_examples():
    xy = GateSet("xy", (("X90", "each", 1.0), ("Y90", "each", 1.0)))
    assert generates_clifford_group(xy, 1)
    trap = GateSet("trap", (("Y90", "each", 1.0), ("X90", "each", 1.0),
                            ("G", ((0, 1),), 1.0)))
    assert generates_clifford_group(trap, 2)
    s_only = GateSet("s", (("S", "each", 1.0),))
    assert not generates_clifford_group(s_only, 1)
    assert not generates_clifford_group(s_only, 1, quotient=True)


def test_standard_set_generates():
    assert generates_clifford_group(standard_gate_set(), 2)


def test_gate_set_json_roundtrip():
    gs = GateSet("mix", (("H", "each", 1.0), ("CX", "all-pairs", 2.0),
                         ("CZ", ((0, 1), (1, 2)), 1.5)))
    assert GateSet.from_json(gs.to_json()) == gs


def test_gate_set_moves():
    gs = GateSet("m", (("H", "each", 1.0), ("CX", "all-pairs", 1.0)))
    moves = gs.moves(2)
    assert ("H", (0,), 1.0) in moves and ("H", (1,), 1.0) in moves
    assert ("CX", (0, 1), 1.0) in moves and ("CX", (1, 0), 1.0) in moves
    assert len(moves) == 4


def test_gate_set_moves_reject_repeated_qubit():
    # embedding CX on (0, 0) gives the identity, so the move was a no-op
    gs = GateSet("bad", (("H", "each", 1.0), ("CX", ((0, 0),), 1.0)))
    with pytest.raises(ValueError, match=r"CX takes 2 distinct indices"):
        gs.moves(2)
