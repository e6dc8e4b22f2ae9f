"""Cross-checks of the packed tableau kernel against the object-based slow
path kept in `oracles` (one PauliOperator per image factor)."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from cliffrb import cli, decomp
from cliffrb.clifford import (
    CliffordTableau,
    GateSequence,
    _sliced_update,
    clifford_apply,
    clifford_compose,
    clifford_inverse,
    sample_uniform,
)
from cliffrb.gates import sequence_tableau
from cliffrb.pauli import PauliDimensionError, PauliOperator

SIZES = (1, 2, 3, 6, 16)
# one size whose bit columns run past 64 bits (2n rows, 4n Choi columns)
WIDE_SIZES = SIZES + (33,)


def random_pauli(n, rng, phase):
    return PauliOperator(n, int(rng.integers(0, 1 << n)),
                         int(rng.integers(0, 1 << n)), phase)


def random_sequence(n, length, rng):
    gates = [(name, g.arity)
             for name, g in sorted(oracles.builtin_gates().items())
             if g.arity <= n]
    out = []
    for _ in range(length):
        name, arity = gates[int(rng.integers(0, len(gates)))]
        idxs = tuple(int(q) for q in rng.permutation(n)[:arity])
        out.append((name, idxs))
    return GateSequence(n, tuple(out))


@pytest.mark.parametrize("n", SIZES)
def test_apply_matches_oracle_all_phases(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        c = sample_uniform(n, rng)
        for phase in range(4):
            for _ in range(4):
                p = random_pauli(n, rng, phase)
                if phase % 2:
                    for apply in (clifford_apply, oracles.clifford_apply):
                        with pytest.raises(ValueError, match="imaginary"):
                            apply(c, p)
                else:
                    assert clifford_apply(c, p) == oracles.clifford_apply(c, p)


@pytest.mark.parametrize("n", SIZES)
def test_compose_matches_oracle(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        c, d = sample_uniform(n, rng), sample_uniform(n, rng)
        assert clifford_compose(c, d) == oracles.clifford_compose(c, d)


@pytest.mark.parametrize("n", SIZES)
def test_inverse_round_trips(n):
    rng = np.random.default_rng(300 + n)
    ident = CliffordTableau.identity(n)
    for _ in range(5):
        c = sample_uniform(n, rng)
        inv = clifford_inverse(c)
        assert clifford_compose(inv, c) == ident
        assert clifford_compose(c, inv) == ident
        assert oracles.clifford_compose(inv, c) == ident
        assert clifford_inverse(inv) == c
        assert inv.vecs == tuple(oracles.gf2_invert(c.vecs, 2 * n))


@pytest.mark.parametrize("n", WIDE_SIZES)
def test_sequence_tableau_matches_oracle(n):
    rng = np.random.default_rng(400 + n)
    for length in (0, 1, 7, 40):
        seq = random_sequence(n, length, rng)
        assert sequence_tableau(seq) == oracles.sequence_tableau(seq)


@pytest.mark.parametrize("n", WIDE_SIZES)
def test_choi_matrix_matches_oracle(n):
    rng = np.random.default_rng(500 + n)
    c = sample_uniform(n, rng)
    fast, slow = decomp._ChoiMatrix(c), oracles.ChoiMatrix(c)

    def same():
        for r in range(2 * n):
            assert fast.sign(r) == slow.sign(r)
            for col in range(n):
                assert fast.entry(r, col) == slow.entry(r, col)
                assert fast.left_z(r, col) == slow.left_z(r, col)

    same()
    for name, idxs in random_sequence(n, 20, rng).gates:
        fast.apply(name, idxs)
        slow.apply(name, idxs)
    same()
    # row swaps and products (all Choi rows commute)
    for _ in range(10):
        a, b = (int(q) for q in rng.integers(0, 2 * n, size=2))
        for m in (fast, slow):
            m.swap_rows(a, b)
            if a != b:
                m.mul_rows(a, b)
    same()


@pytest.mark.parametrize("name", sorted(oracles.builtin_gates()))
def test_sliced_form_matches_label_table(name):
    # one row per label: column j holds label bit j of that single row
    gate = oracles.builtin_gates()[name]
    images, flips = gate.local
    width = 2 * gate.arity
    for label in range(4 ** gate.arity):
        outs, flip = _sliced_update(gate.sliced,
                                    [label >> j & 1 for j in range(width)])
        assert all(col in (0, 1) for col in outs) and flip in (0, 1)
        assert sum(col << i for i, col in enumerate(outs)) == images[label]
        assert flip == flips[label]


def test_choi_rows_that_anticommute_are_refused():
    m = decomp._ChoiMatrix(CliffordTableau.identity(1))
    m.cols ^= 1 << 2  # row 0 loses its right X: X (x) I against Z (x) Z
    with pytest.raises(ValueError, match="rows do not commute"):
        m.mul_rows(0, 1)


def test_dimension_errors():
    c2, c3 = CliffordTableau.identity(2), CliffordTableau.identity(3)
    with pytest.raises(PauliDimensionError):
        clifford_apply(c2, PauliOperator.identity(3))
    with pytest.raises(PauliDimensionError):
        clifford_compose(c2, c3)
    with pytest.raises(PauliDimensionError):
        oracles.clifford_apply(c2, PauliOperator.identity(3))


def test_invalid_tableau_imaginary_image():
    # X -> X, Z -> X commute, so Y = iXZ maps to i·I: imaginary phase
    bad = CliffordTableau(1, (0b01, 0b01), 0)
    for apply in (clifford_apply, oracles.clifford_apply):
        with pytest.raises(ValueError, match="imaginary"):
            apply(bad, PauliOperator.from_string("Y"))
    with pytest.raises(ValueError, match="imaginary"):
        clifford_compose(bad, CliffordTableau.from_image_strings(["Y"], ["Z"]))


def decompose_report(args):
    res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return json.loads(res.stdout)


@pytest.mark.parametrize("n,target", [(1, "native"), (3, "cz"), (5, "cx"),
                                      (8, "cz")])
def test_decompose_random_matches_oracle_path(n, target, monkeypatch):
    args = ["decompose", "--random", "--n", str(n), "--seed", str(17 + n),
            "--target", target]
    fast = decompose_report(args)
    monkeypatch.setattr(decomp, "_ChoiMatrix", oracles.ChoiMatrix)
    monkeypatch.setattr(cli, "sequence_tableau", oracles.sequence_tableau)
    slow = decompose_report(args)
    assert fast == slow
    assert fast["verified"] is True
    tab = CliffordTableau.from_json(fast["tableau"])
    seq = GateSequence.from_json(fast["sequence"])
    assert oracles.sequence_tableau(seq) == tab
