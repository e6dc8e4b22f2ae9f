from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np
import pytest

from cliffrb.clifford import (
    CliffordTableau,
    clifford_compose,
    clifford_inverse,
    embed_tableau,
    sample_uniform,
)
from cliffrb.errors import ErrorModel, ResourceLimitError, expected_sequence_fidelity
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliChannel, PauliOperator
from cliffrb.protocol import gen_exact_sequence, sequence_factory
from cliffrb.stabilizer import apply_clifford, stabilizer_decomposition, zero_state

from oracles import (
    SignListDistribution,
    dense_pauli,
    embed_unitary,
    pauli_error,
    propagate_channel,
    sign_list_fidelity,
)


@dataclass
class FakeSequence:
    n_qubits: int
    steps: Tuple
    measured_paulis: Tuple


def z_measurements(n):
    return tuple(PauliOperator.single(n, j, "Z") for j in range(n))


def identity_steps(n, count):
    ident = CliffordTableau.identity(n)
    return tuple(("id", ident) for _ in range(count))


class TestDistribution:
    def test_identity_channel_is_noop(self):
        state = zero_state(2)
        dist = SignListDistribution.ideal(2)
        out = propagate_channel(dist, state, PauliChannel.identity(2))
        assert np.array_equal(out.probs, dist.probs)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            propagate_channel(SignListDistribution.ideal(1), zero_state(2),
                              PauliChannel.identity(2))

    def test_qubit_cap(self):
        with pytest.raises(ResourceLimitError):
            SignListDistribution.ideal(3, cap=2)

    def test_not_a_distribution_rejected(self):
        with pytest.raises(ValueError):
            SignListDistribution(1, np.array([0.7, 0.7]))

    def test_depolarizing_flip_probability(self):
        # on |0>, X and Y anticommute with the Z row: flip prob p/2
        p = 0.12
        state = zero_state(1)
        dist = propagate_channel(SignListDistribution.ideal(1), state,
                                 PauliChannel.depolarizing(1, p))
        assert dist.probs[1] == pytest.approx(p / 2)


class TestSequenceFidelity:
    def test_error_free_sequence(self):
        rng = np.random.default_rng(0)
        steps = [("c", sample_uniform(2, rng)) for _ in range(4)]
        total = CliffordTableau.identity(2)
        for _, c in steps:
            total = clifford_compose(c, total)
        steps.append(("inv", clifford_inverse(total)))
        seq = FakeSequence(2, tuple(steps), z_measurements(2))
        model = ErrorModel(PauliChannel.identity(2))
        assert expected_sequence_fidelity(seq, model) == pytest.approx(1.0, abs=1e-12)

    def test_certain_x_flip(self):
        seq = FakeSequence(1, identity_steps(1, 1), z_measurements(1))
        flip = pauli_error(PauliOperator.from_string("X"), 1.0)
        assert expected_sequence_fidelity(seq, ErrorModel(flip)) == pytest.approx(0.0)

    def test_depolarizing_before_measurement(self):
        p = 0.2
        seq = FakeSequence(1, identity_steps(1, 1), z_measurements(1))
        model = ErrorModel(PauliChannel.depolarizing(1, p))
        assert expected_sequence_fidelity(seq, model) == pytest.approx(1 - p / 2)

    def test_depolarizing_steps_compose(self):
        pa, pb = 0.1, 0.3
        steps = (("a", CliffordTableau.identity(1)), ("b", CliffordTableau.identity(1)))
        seq2 = FakeSequence(1, steps, z_measurements(1))
        model2 = ErrorModel(PauliChannel.identity(1),
                            per_gate={"a": PauliChannel.depolarizing(1, pa),
                                      "b": PauliChannel.depolarizing(1, pb)})
        pc = 1 - (1 - pa) * (1 - pb)
        seq1 = FakeSequence(1, identity_steps(1, 1), z_measurements(1))
        model1 = ErrorModel(PauliChannel.depolarizing(1, pc))
        assert expected_sequence_fidelity(seq2, model2) == pytest.approx(
            expected_sequence_fidelity(seq1, model1), abs=1e-12)

    def test_depolarizing_closed_form_any_clifford_sequence(self):
        # with per-step depolarizing p and SPAM p_m, any inverted Clifford
        # sequence of l+1 steps gives F = 1/2 + (1/2)(1-p_m)(1-p)^(l+1)
        rng = np.random.default_rng(7)
        p, pm, l = 0.04, 0.05, 6
        model = ErrorModel(PauliChannel.depolarizing(1, p),
                           spam_channel=PauliChannel.depolarizing(1, pm))
        want = 0.5 + 0.5 * (1 - pm) * (1 - p) ** (l + 1)
        for _ in range(5):
            cliffs = [sample_uniform(1, rng) for _ in range(l)]
            total = CliffordTableau.identity(1)
            for c in cliffs:
                total = clifford_compose(c, total)
            steps = tuple(("c", c) for c in cliffs) + (("inv", clifford_inverse(total)),)
            seq = FakeSequence(1, steps, z_measurements(1))
            assert expected_sequence_fidelity(seq, model) == pytest.approx(want, abs=1e-12)

    def test_time_ramp_zero_matches_flat(self):
        rng = np.random.default_rng(8)
        steps = [("c", sample_uniform(1, rng)) for _ in range(3)]
        total = CliffordTableau.identity(1)
        for _, c in steps:
            total = clifford_compose(c, total)
        steps.append(("inv", clifford_inverse(total)))
        seq = FakeSequence(1, tuple(steps), z_measurements(1))
        flat = ErrorModel(PauliChannel.depolarizing(1, 0.05))
        ramp0 = ErrorModel(PauliChannel.depolarizing(1, 0.05), time_ramp=0.0)
        assert expected_sequence_fidelity(seq, flat) == \
            expected_sequence_fidelity(seq, ramp0)

    def test_time_ramp_scales_by_step_index(self):
        p, gamma = 0.02, 0.5
        seq = FakeSequence(1, identity_steps(1, 2), z_measurements(1))
        model = ErrorModel(PauliChannel.depolarizing(1, p), time_ramp=gamma)
        q1 = p * (1 + gamma) / 2
        q2 = p * (1 + 2 * gamma) / 2
        want = 1 - (q1 * (1 - q2) + q2 * (1 - q1))
        assert expected_sequence_fidelity(seq, model) == pytest.approx(want, abs=1e-12)

    def test_correlated_flip_on_bell(self):
        # a certain ZI error anticommutes with both Bell stabilizers, while
        # ZZ commutes with both and leaves the joint outcome ideal
        bell = FakeSequence(2, (("prep", _bell_tableau()),),
                            (PauliOperator.from_string("XX"),
                             PauliOperator.from_string("ZZ")))
        zz = pauli_error(PauliOperator.from_string("ZZ"), 1.0)
        assert expected_sequence_fidelity(bell, ErrorModel(zz)) == pytest.approx(1.0)
        zi = pauli_error(PauliOperator.from_string("ZI"), 1.0)
        assert expected_sequence_fidelity(bell, ErrorModel(zi)) == pytest.approx(0.0)

    def test_nondeterministic_measurement_rejected(self):
        seq = FakeSequence(1, tuple(), (PauliOperator.from_string("X"),))
        with pytest.raises(ValueError):
            expected_sequence_fidelity(seq, ErrorModel(PauliChannel.identity(1)))


def _bell_tableau():
    h = get_gate("H").tableau
    cx = get_gate("CX").tableau
    return clifford_compose(cx, embed_tableau(h, (0,), 2))


class TestAgainstExhaustiveBranching:
    """Oracle: enumerate every combination of which Pauli fired at each step,
    insert it into a dense simulation, and sum the ideal-outcome indicator.
    Steps are named gates so each one has a known dense unitary."""

    POOL_1Q = ["H", "S", "X90", "Y90"]
    POOL_2Q = ["CX", "CZ"]

    def _random_gate_steps(self, n, count, rng):
        moves = []
        for _ in range(count):
            if n >= 2 and rng.random() < 0.5:
                name = self.POOL_2Q[int(rng.integers(0, 2))]
                idx = tuple(rng.permutation(n)[:2].tolist())
            else:
                name = self.POOL_1Q[int(rng.integers(0, 4))]
                idx = (int(rng.integers(0, n)),)
            moves.append((name, idx))
        # append the inverse circuit so the final Z outcomes are deterministic
        from cliffrb.gates import INVERSE_NAMES
        moves += [(INVERSE_NAMES[name], idx) for name, idx in reversed(moves)]
        steps, unitaries = [], []
        for name, idx in moves:
            g = get_gate(name)
            steps.append((name, embed_tableau(g.tableau, idx, n)))
            unitaries.append(embed_unitary(g.dense, idx, n))
        return tuple(steps), unitaries

    def _oracle(self, seq, model, unitaries):
        n = seq.n_qubits
        vec0 = np.zeros(2 ** n, dtype=complex)
        vec0[0] = 1.0
        # noiseless reference run for the ideal outcomes
        state = zero_state(n)
        for _, tab in seq.steps:
            apply_clifford(state, tab)
        ideal_signs = [stabilizer_decomposition(state, p)[1]
                       for p in seq.measured_paulis]

        channels = [model.channel_for(label, t)
                    for t, (label, _) in enumerate(seq.steps, start=1)]
        if model.spam_channel is not None:
            channels.append(model.spam_channel)
        branch_sets = [[(op, w) for op, w in ch.weights.items() if w > 0]
                       for ch in channels]

        total = 0.0
        for combo in product(*branch_sets):
            weight = float(np.prod([w for _, w in combo]))
            vec = vec0
            for k, u in enumerate(unitaries):
                vec = dense_pauli(combo[k][0]) @ (u @ vec)
            if model.spam_channel is not None:
                vec = dense_pauli(combo[-1][0]) @ vec
            ok = 1.0
            for p, sign in zip(seq.measured_paulis, ideal_signs):
                ev = np.real(np.vdot(vec, dense_pauli(p) @ vec))
                ok *= float(abs(ev - (1 - 2 * sign)) < 1e-9)
            total += weight * ok
        return total

    def test_random_small_circuits(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(1, 3))
            steps, unitaries = self._random_gate_steps(n, 2, rng)
            seq = FakeSequence(n, steps, z_measurements(n))
            weights = {PauliOperator.single(n, 0, "X"): 0.05,
                       PauliOperator.single(n, n - 1, "Z"): 0.08}
            weights[PauliOperator.identity(n)] = 1 - sum(weights.values())
            model = ErrorModel(PauliChannel(n, weights),
                               time_ramp=0.1,
                               spam_channel=PauliChannel.depolarizing(n, 0.03))
            got = expected_sequence_fidelity(seq, model)
            want = self._oracle(seq, model, unitaries)
            assert got == pytest.approx(want, abs=1e-10), f"trial {trial}"


def _random_channel(n, rng, terms=3, total=0.08):
    """Pauli channel with a few random non-identity terms."""
    weights = {}
    while len(weights) < terms:
        op = PauliOperator(n, int(rng.integers(0, 2 ** n)),
                           int(rng.integers(0, 2 ** n)), 0)
        if not op.is_identity():
            weights[op] = float(rng.uniform(0, total / terms))
    weights[PauliOperator.identity(n)] = 1.0 - sum(weights.values())
    return PauliChannel(n, weights)


class TestAgainstSignListOracle:
    """The Heisenberg-picture fidelity equals the sign-list tracker it
    replaced, on every sequence family and kind of error model."""

    @staticmethod
    def _models(n, rng):
        return {
            "per-gate": ErrorModel(
                _random_channel(n, rng),
                per_gate={"gate": _random_channel(n, rng, total=0.2),
                          "inversion": _random_channel(n, rng)}),
            "time-ramp": ErrorModel(PauliChannel.depolarizing(n, 0.03),
                                    time_ramp=0.15),
            "spam": ErrorModel(_random_channel(n, rng),
                               spam_channel=_random_channel(n, rng, total=0.1)),
        }

    @staticmethod
    def _factories(n):
        gate = {1: get_gate("S").tableau, 2: get_gate("CX").tableau,
                3: embed_tableau(get_gate("CX").tableau, (2, 0), 3)}[n]
        out = {"exact": sequence_factory("exact", n),
               "interleaved": sequence_factory("interleaved", n, gate)}
        if n == 1:
            out["knill-1q"] = sequence_factory("knill-1q", 1)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        models = self._models(n, rng)
        for proto, factory in self._factories(n).items():
            for l in (1, 2, 7):
                seq = factory(l, rng)
                for name, model in models.items():
                    got = expected_sequence_fidelity(seq, model)
                    want = sign_list_fidelity(seq, model)
                    assert abs(got - want) <= 1e-12, (proto, l, name)

    def test_measured_pauli_cap(self):
        seq = gen_exact_sequence(21, 1, np.random.default_rng(0))
        with pytest.raises(ResourceLimitError):
            expected_sequence_fidelity(seq, ErrorModel(PauliChannel.identity(21)))
