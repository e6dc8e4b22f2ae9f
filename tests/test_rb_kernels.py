"""Cross-checks of the memoised RB step kernels against the forms they
replaced, kept in `oracles`: the sampler's cached choice spaces and one-call
`_rand_bits`, the per-channel Pauli-eigenvalue memo and the one-layer
compose.  Each must give the same tableaux, the same generator state and the
same floats, bit for bit."""

import numpy as np
import pytest

import oracles
from cliffrb.clifford import (
    _rand_bits,
    clifford_compose,
    clifford_inverse,
    embed_tableau,
    pauli_tableau,
    sample_uniform,
)
from cliffrb.errors import ErrorModel, expected_sequence_fidelity
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliChannel, PauliOperator, enumerate_paulis
from cliffrb.protocol import sequence_factory


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_sampler_matches_loop(n):
    for seed in range(200):
        memo, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw meets a warm memo
            assert sample_uniform(n, memo) == oracles.sample_uniform_loop(n, loop)
        assert memo.bit_generator.state == loop.bit_generator.state


def test_rand_bits_matches_loop():
    memo, loop = np.random.default_rng(5), np.random.default_rng(5)
    for nbits in list(range(0, 70)) * 3:
        assert _rand_bits(memo, nbits) == oracles.rand_bits_loop(loop, nbits)
        assert memo.bit_generator.state == loop.bit_generator.state


def _channels(n):
    rng = np.random.default_rng(70 + n)
    ops = list(enumerate_paulis(n, include_identity=False))
    picks = [ops[int(i)] for i in rng.choice(len(ops), size=2, replace=False)]
    out = [PauliChannel.depolarizing(n, p) for p in (0.0, 0.013, 0.4)]
    out += [PauliChannel.pauli_error(op, 0.07) for op in picks]
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
