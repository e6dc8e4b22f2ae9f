"""Cross-checks of the memoised RB step kernels against the forms they
replaced, kept in `oracles`: the sampler's carried elimination and one-call
`_rand_bits`, the per-channel Pauli-eigenvalue memo and the one-layer
compose; and of the n <= 2 table path of `run_experiment` against the
general path, with the two facts it rests on: numpy's word-block draw
identity and the sampler's fixed draw widths.  Each must give the same
tableaux, the same generator state and the same floats, bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cliffrb
import oracles
from cliffrb import clifford
from cliffrb.clifford import (
    CliffordTableau,
    _draw_widths,
    _rand_bits,
    _rank,
    _sample_images,
    _solve_affine,
    clifford_compose,
    clifford_inverse,
    embed_tableau,
    enumerate_group,
    pauli_tableau,
    quotient_group,
    sample_uniform,
)
from cliffrb.errors import ErrorModel, expected_sequence_fidelity
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliChannel, PauliOperator, enumerate_paulis
from cliffrb.protocol import (
    _general_simulator,
    _table_simulator,
    gen_exact_sequence,
    sequence_factory,
)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_sampler_matches_loop(n):
    for seed in range(200):
        memo, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw meets a warm memo
            assert sample_uniform(n, memo) == oracles.sample_uniform_loop(n, loop)
        assert memo.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("n, seeds", [(33, 10), (64, 3)])
def test_wide_sampler_matches_loop(n, seeds):
    """Past 32 qubits the packed images pass 64 bits and every X draw takes
    several 32-bit chunks."""
    for seed in range(seeds):
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_uniform(n, fast) == oracles.sample_uniform_loop(n, loop)
        assert fast.bit_generator.state == loop.bit_generator.state


def _random_system(rng, nbits):
    """Random rows on nbits bits, with rows that are XORs of earlier ones:
    consistent, or, now and then, with the right-hand side flipped."""
    rows = []
    for _ in range(int(rng.integers(0, nbits + 4))):
        if rows and rng.random() < 0.4:
            picks = rng.choice(len(rows), size=int(rng.integers(1, len(rows) + 1)))
            w = b = 0
            for i in picks:
                w ^= rows[i][0]
                b ^= rows[i][1]
            rows.append((w, b ^ int(rng.random() < 0.1)))
        else:
            rows.append((oracles.rand_bits_loop(rng, nbits),
                         int(rng.integers(0, 2))))
    return rows


@pytest.mark.parametrize("nbits", range(1, 71))
def test_solve_affine_matches_oracle(nbits):
    """The fold of `_reduce` gives the from-scratch elimination's particular
    solution and null basis, and rejects the same inconsistent systems."""
    rng = np.random.default_rng(nbits)
    inconsistent = 0
    for _ in range(20):
        rows = _random_system(rng, nbits)
        try:
            want = oracles.solve_affine(rows, nbits)
        except ValueError as err:
            inconsistent += 1
            with pytest.raises(ValueError, match=str(err)):
                _solve_affine(rows, nbits)
        else:
            assert _solve_affine(rows, nbits) == want
    assert inconsistent < 20


def test_rand_bits_matches_loop():
    memo, loop = np.random.default_rng(5), np.random.default_rng(5)
    for nbits in list(range(0, 70)) * 3:
        assert _rand_bits(memo, nbits) == oracles.rand_bits_loop(loop, nbits)
        assert memo.bit_generator.state == loop.bit_generator.state


def _channels(n):
    rng = np.random.default_rng(70 + n)
    ops = [p for p in enumerate_paulis(n) if not p.is_identity()]
    picks = [ops[int(i)] for i in rng.choice(len(ops), size=2, replace=False)]
    out = [PauliChannel.depolarizing(n, p) for p in (0.0, 0.013, 0.4)]
    out += [oracles.pauli_error(op, 0.07) for op in picks]
    out += [ch.scaled(f) for ch in out[1:] for f in (0.5, 1.37)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalue_matches_oracle(n):
    for ch in _channels(n):
        for _ in range(2):  # the second pass reads the memo
            for v in range(4 ** n):
                assert (ch.eigenvalue(v).hex()
                        == oracles.channel_eigenvalue(ch, v).hex())


def test_eigenvalue_memo_is_per_channel():
    ch = PauliChannel.depolarizing(1, 0.1)
    lam = ch.eigenvalue(0b01)
    assert ch == PauliChannel.depolarizing(1, 0.1)  # the memo is not compared
    ramped = ch.scaled(2.0)
    assert ramped.eigenvalue(0b01) == oracles.channel_eigenvalue(ramped, 0b01)
    assert ramped.eigenvalue(0b01) != lam


@pytest.mark.parametrize("n", [1, 2, 10])
def test_compose_matches_row_oracle(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(50):
        c, d = sample_uniform(n, rng), sample_uniform(n, rng)
        p = PauliOperator(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)), 0)
        for a, b in ((c, d), (d, c), (c, clifford_inverse(c)),
                     (pauli_tableau(p), c), (c, pauli_tableau(p))):
            assert clifford_compose(a, b) == oracles.compose_by_rows(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fidelity_bitwise_under_time_ramp(n, monkeypatch):
    rng = np.random.default_rng(90 + n)
    gate = {1: get_gate("S").tableau, 2: get_gate("CX").tableau,
            3: embed_tableau(get_gate("CX").tableau, (2, 0), 3)}[n]
    channels = _channels(n)
    model = ErrorModel(channels[1], per_gate={"gate": channels[3]},
                       time_ramp=0.11, spam_channel=channels[4])
    seqs = [sequence_factory(proto, n, gate)(l, rng)
            for proto in ("exact", "interleaved") for l in (1, 4, 9)]
    got = [expected_sequence_fidelity(s, model) for s in seqs]
    monkeypatch.setattr(PauliChannel, "eigenvalue", oracles.channel_eigenvalue)
    want = [expected_sequence_fidelity(s, model) for s in seqs]
    assert [f.hex() for f in got] == [f.hex() for f in want]


def test_word_block_draw_identity():
    """`integers(0, 1 << k)` is the top k bits of the next uint32 word for
    1 <= k <= 32 and draws nothing for k = 0, so rewinding a word block to
    the words used leaves the generator, PCG64's half-word buffer included,
    where the scalar draws leave it."""
    widths_rng = np.random.default_rng(2024)
    for seed in range(200):
        widths = widths_rng.integers(0, 33, size=widths_rng.integers(1, 60))
        scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
        state = block.bit_generator.state
        words = block.integers(0, 1 << 32, size=len(widths),
                               dtype=np.uint32).tolist()
        used = 0
        for k in widths.tolist():
            before = scalar.bit_generator.state
            got = int(scalar.integers(0, 1 << k))
            if k:
                assert got == words[used] >> (32 - k)
                used += 1
            else:
                assert got == 0 and scalar.bit_generator.state == before
        block.bit_generator.state = state
        block.integers(0, 1 << 32, size=used, dtype=np.uint32)
        assert block.bit_generator.state == scalar.bit_generator.state
        assert block.binomial(200, 0.7) == scalar.binomial(200, 0.7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sampler_draw_widths_are_fixed(n):
    """Step k draws its X image from 2(n-k) bits, again only while the draw
    is 0, then its Z image from 2(n-k)-1 bits, whatever came before; so the
    table path can read a step's draws at fixed widths."""
    widths = [(2 * (n - k), 2 * (n - k) - 1) for k in range(n)]
    for (cx, cz), (wx, wz) in zip(oracles.sample_choice_counts(n), widths):
        assert cx == 2 * (2 ** wx - 1) and cz == 2 * 2 ** wz
    for seed in range(200):
        rng = np.random.default_rng(seed)
        record = []

        def draw(nbits):
            record.append((nbits, _rand_bits(rng, nbits)))
            return record[-1][1]

        _sample_images(n, draw)
        draws = iter(record)
        for wx, wz in widths:
            while True:
                width, value = next(draws)
                assert width == wx
                if value:
                    break
            assert next(draws)[0] == wz
        assert next(draws, None) is None


@pytest.mark.parametrize("n", [1, 2])
def test_draw_index_is_a_bijection(n):
    """The keys whose X draws are all nonzero give each quotient element
    once; every other key holds len(elements)."""
    widths, index = sum(_draw_widths(n), ()), quotient_group(n).draws
    order = len(quotient_group(n).elements)
    assert len(index) == 2 ** sum(widths)
    valid = []
    for key, element in enumerate(index):
        shift, fields = sum(widths), []
        for w in widths:  # first draw highest
            shift -= w
            fields.append(key >> shift & (2 ** w - 1))
        if all(fields[::2]):
            valid.append(element)
        else:
            assert element == order
    assert sorted(valid) == list(range(order))


@pytest.mark.parametrize("n", [1, 2])
def test_draw_index_matches_sampler_replay(n):
    """Running the sampler on each key's draws gives the element that the
    record's draw index names for that key."""
    group = quotient_group(n)
    replay = oracles.replay_draws(n)
    assert len(replay) == len(group.draws)
    for key, tab in enumerate(replay):
        if tab is None:
            assert group.draws[key] == len(group.elements)
        else:
            assert group.elements[group.draws[key]] == tab


def test_sampler_and_walk_solve_nothing_afresh(monkeypatch):
    """The sampler and the rank tables' walk over the draws carry their
    reduced rows from step to step and never call the from-scratch
    solve."""
    def fail(*args):
        raise AssertionError("_solve_affine called")

    monkeypatch.setattr(clifford, "_solve_affine", fail)
    rng = np.random.default_rng(11)
    for n in (1, 2, 16):
        sample_uniform(n, rng)
    gen_exact_sequence(2, 20, rng)
    tables = clifford._rank_tables.__wrapped__(2)  # uncached: built here
    assert [radix for radix, *_ in tables] == [120, 6]  # 720 elements


def _gray_inverse(g):
    i = g
    while g := g >> 1:
        i ^= g
    return i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_is_the_walk_position(n):
    """`_rank` of every sign-free element is its position in
    `enumerate_group`, whose order `test_order_matches_recursion` pins."""
    vecs = enumerate_group(n, quotient=True).vecs
    assert np.array_equal(_rank(vecs.T), np.arange(len(vecs)))


@pytest.mark.parametrize("n", [1, 2])
def test_index_of_is_the_element_position(n):
    """`QuotientGroup.index_of` of every element, under any sign mask, is
    its position in the record; a tableau on other qubits is no element."""
    group, rng = quotient_group(n), np.random.default_rng(60 + n)
    for i, tab in enumerate(group.elements):
        signs = int(rng.integers(4 ** n))
        assert group.index_of(CliffordTableau(n, tab.vecs, signs)) == i
    with pytest.raises(ValueError, match="Clifford element"):
        group.index_of(CliffordTableau.identity(3 - n))


def test_rank_reads_the_sampler_draws():
    """At n = 3 an element's rank is the mixed-radix index of the draws the
    sampler made for it, with step digit (Gray⁻¹(dx) − 1)·2^wz + Gray⁻¹(dz),
    first step highest; one int key ranks as its array does."""
    rng = np.random.default_rng(2027)
    rows, want = [], []
    for _ in range(2000):
        record = []

        def draw(nbits):
            record.append(_rand_bits(rng, nbits))
            return record[-1]

        rows.append(_sample_images(3, draw))
        draws, index = iter(record), 0
        for wx, wz in _draw_widths(3):
            dx = next(draws)
            while not dx:  # the one draw the sampler repeats
                dx = next(draws)
            index = (index * (2 ** wx - 1) + _gray_inverse(dx) - 1) * 2 ** wz \
                + _gray_inverse(next(draws))
        want.append(index)
    assert _rank(np.array(rows, dtype=np.uint8).T).tolist() == want
    assert [int(_rank(vecs)) for vecs in rows[:50]] == want[:50]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_sentinel_marks_non_elements(n):
    """Rows that break the commutation pattern (random ones, and elements
    with one image repeated or replaced) rank -1; elements do not."""
    rng = np.random.default_rng(40 + n)
    elements = [_sample_images(n, lambda nbits: _rand_bits(rng, nbits))
                for _ in range(300)]
    rows = elements + [tuple(map(int, rng.integers(0, 4 ** n, 2 * n)))
                       for _ in range(300)]
    for vecs in elements:
        i, j = rng.choice(2 * n, 2, replace=False)
        rows.append(vecs[:i] + (vecs[j],) + vecs[i + 1:])
        rows.append(vecs[:i] + (int(rng.integers(4 ** n)),) + vecs[i + 1:])
    valid = []
    for vecs in rows:
        try:
            CliffordTableau(n, vecs).validate()
        except ValueError:
            valid.append(False)
        else:
            valid.append(True)
    ranks = _rank(np.array(rows, dtype=np.uint8).T).tolist()
    assert all(valid[:300]) and not all(valid[300:])
    assert [r >= 0 for r in ranks] == valid
    assert {r for r, ok in zip(ranks, valid) if not ok} == {-1}
    group = enumerate_group(n, quotient=True)
    assert all(group[r].vecs == vecs for r, vecs in zip(ranks, rows) if r >= 0)


def test_rank_tables_refuse_four_qubits():
    """The tables serve n <= 3; at n = 4 one table would take 1.4 GB."""
    with pytest.raises(ValueError, match="n <= 3"):
        clifford._rank_tables(4)


class _BlockCounter:
    """A generator that counts its `integers` calls with a size."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.sized = rng, rng.bit_generator, 0

    def integers(self, *args, size=None, **kwargs):
        self.sized += size is not None
        return self.rng.integers(*args, size=size, **kwargs)


def test_word_block_holds_a_two_qubit_sequence():
    """The table path's first word block almost always holds every draw of
    an n = 2 sequence; the last sized call is the rewind."""
    model = ErrorModel(PauliChannel.depolarizing(2, 0.01))
    simulate = _table_simulator("exact", 2, model, None)
    blocks = []
    for l in (1, 2, 5, 17, 64):
        for seed in range(20):
            rng = _BlockCounter(np.random.default_rng([seed, l]))
            simulate(l, rng)
            blocks.append(rng.sized - 1)
    assert np.mean(blocks) <= 1.1


def test_no_table_built_at_import():
    """`import cliffrb.cli` builds neither the quotient group nor the draw
    index, nor the dense engine's basis matrices, nor the rank tables, so a
    command that needs none of them does not pay for them; building the
    quotient group then fills no row of its product table."""
    code = ("import cliffrb.cli\n"
            "from cliffrb.clifford import _rank_tables, quotient_group\n"
            "from cliffrb.dense import _basis_stack, _vec_basis\n"
            "print(quotient_group.cache_info().currsize,"
            " _basis_stack.cache_info().currsize,"
            " _vec_basis.cache_info().currsize,"
            " _rank_tables.cache_info().currsize)\n"
            "table = quotient_group(2).table\n"
            "print(table.any(axis=1).sum())")
    src = str(Path(cliffrb.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["0", "0", "0", "0", "0"]


def _models(n):
    ch = _channels(n)
    return [ErrorModel(ch[1]),
            ErrorModel(ch[2], spam_channel=ch[4]),
            ErrorModel(ch[5], per_gate={"clifford": ch[3]}),
            ErrorModel(ch[1], per_gate={"gate": ch[3], "inversion": ch[6]},
                       spam_channel=ch[2])]


@pytest.mark.parametrize("protocol", ["exact", "interleaved"])
@pytest.mark.parametrize("n", [1, 2])
def test_table_path_matches_general_path(n, protocol):
    gates = ({1: ["S", "Y90m"], 2: ["CX", "CZ"]}[n]
             if protocol == "interleaved" else [None])
    for name in gates:
        gate = get_gate(name).tableau if name else None
        for model in _models(n):
            table = _table_simulator(protocol, n, model, gate)
            general = _general_simulator(protocol, n, model, gate)
            for seed in range(12):
                for l in (1, 2, 5, 17):
                    a = np.random.default_rng([seed, l])
                    b = np.random.default_rng([seed, l])
                    assert table(l, a).hex() == general(l, b).hex()
                    assert a.bit_generator.state == b.bit_generator.state


def test_general_path_kept():
    one, three = (ErrorModel(PauliChannel.depolarizing(n, 0.01))
                  for n in (1, 3))
    ramped = ErrorModel(PauliChannel.depolarizing(1, 0.01), time_ramp=0.1)
    assert _table_simulator("exact", 1, one, None) is not None
    assert _table_simulator("exact", 1, ramped, None) is None
    assert _table_simulator("knill-1q", 1, one, None) is None
    assert _table_simulator("exact", 3, three, None) is None
