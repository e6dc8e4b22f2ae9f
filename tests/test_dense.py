import numpy as np
import pytest
from scipy.linalg import expm

from cliffrb.clifford import CliffordTableau, enumerate_group
from cliffrb.dense import (
    DenseSuperoperator,
    _basis_stack,
    conjugate_by_tableau,
    depolarization_strength,
    gate_fidelity,
    group_twirl,
    superoperator_trace,
)
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliChannel, PauliOperator, _unpack

from oracles import (chi_from_tableau, dense_pauli, dense_pauli_from_string,
                     kraus, random_tp_channel)


def random_density(n, rng):
    d = 2 ** n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestRepresentation:
    def test_identity_channel(self):
        s = DenseSuperoperator.identity(1)
        assert s.chi[0, 0] == pytest.approx(1)
        assert np.allclose(s.chi, np.diag([1, 0, 0, 0]))

    def test_dense_pauli_matches_oracle(self):
        for text in ("X", "Y", "ZZ", "-iXY", "XYZ"):
            assert np.allclose(dense_pauli(PauliOperator.from_string(text)),
                               dense_pauli_from_string(text))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_stack_is_dense_pauli(self, n):
        want = np.array([dense_pauli(_unpack(m, n)) for m in range(4 ** n)])
        assert np.array_equal(_basis_stack(n), want)
        assert _basis_stack(n).tobytes() == want.tobytes()  # signed zeros

    def test_apply_matches_kraus_action(self):
        rng = np.random.default_rng(0)
        for n in (1, 2):
            s = random_tp_channel(n, rng)
            rho = random_density(n, rng)
            via_chi = s.apply(rho)
            via_kraus = sum(a @ rho @ a.conj().T for a in kraus(s))
            assert np.allclose(via_chi, via_kraus, atol=1e-10)
            assert np.trace(via_chi) == pytest.approx(1, abs=1e-10)

    def test_natural_roundtrip(self):
        rng = np.random.default_rng(1)
        s = random_tp_channel(2, rng)
        back = DenseSuperoperator.from_natural(2, s.natural())
        assert s.distance(back) < 1e-10

    def test_compose_matches_sequential_action(self):
        rng = np.random.default_rng(2)
        a, b = random_tp_channel(1, rng), random_tp_channel(1, rng)
        rho = random_density(1, rng)
        assert np.allclose(a.compose(b).apply(rho), a.apply(b.apply(rho)),
                           atol=1e-10)

    def test_non_tp_kraus_rejected(self):
        with pytest.raises(ValueError):
            DenseSuperoperator.from_kraus(1, [0.5 * np.eye(2)])

    def test_from_tableau_matches_dense_unitary(self):
        for name in ("H", "S", "X90", "CX", "CZ", "MS", "G"):
            g = get_gate(name)
            via_tab = DenseSuperoperator(g.arity, chi_from_tableau(g.tableau))
            via_mat = DenseSuperoperator.from_unitary(g.dense)
            assert via_tab.distance(via_mat) < 1e-10


class TestDepolarizationStrength:
    def test_identity(self):
        assert depolarization_strength(DenseSuperoperator.identity(1)) == \
            pytest.approx(0, abs=1e-12)

    def test_pauli_x_unitary(self):
        s = DenseSuperoperator.from_unitary(dense_pauli_from_string("X"))
        assert depolarization_strength(s) == pytest.approx(4 / 3, abs=1e-12)

    def test_over_rotation(self):
        x = dense_pauli_from_string("X")
        for theta in (0.05, 0.3, 1.1):
            s = DenseSuperoperator.from_unitary(expm(-1j * theta * x))
            assert depolarization_strength(s) == pytest.approx(
                (4 / 3) * np.sin(theta) ** 2, abs=1e-10)

    def test_small_angle_intensity_form(self):
        gamma = 0.01
        theta = gamma * np.pi / 2
        s = DenseSuperoperator.from_unitary(expm(-1j * theta * dense_pauli_from_string("X")))
        assert depolarization_strength(s) == pytest.approx(
            (4 / 3) * (gamma * np.pi / 2) ** 2, rel=1e-3)

    def test_depolarizing_fixed_strength(self):
        for n, p in ((1, 0.07), (2, 0.2)):
            s = DenseSuperoperator.depolarizing(n, p)
            assert depolarization_strength(s) == pytest.approx(p, abs=1e-12)

    def test_non_tp_rejected(self):
        bad = DenseSuperoperator(1, np.diag([0.5, 0, 0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            depolarization_strength(bad)

    def test_superoperator_trace_is_kraus_trace_sum(self):
        rng = np.random.default_rng(3)
        s = random_tp_channel(2, rng)
        want = sum(abs(np.trace(a)) ** 2 for a in kraus(s))
        assert superoperator_trace(s) == pytest.approx(want, abs=1e-9)


class TestTwirls:
    def test_clifford_twirl_depolarizes(self):
        rng = np.random.default_rng(4)
        for n in (1, 2):
            grp = enumerate_group(n)
            for _ in range(3):
                s = random_tp_channel(n, rng)
                twirled = group_twirl(s, grp)
                want = DenseSuperoperator.depolarizing(n, depolarization_strength(s))
                assert twirled.distance(want) < 1e-9

    def test_pauli_twirl_diagonalizes(self):
        rng = np.random.default_rng(5)
        for n in (1, 2):
            s = random_tp_channel(n, rng)
            t = group_twirl(s, "pauli")
            off = t.chi - np.diag(np.diag(t.chi))
            assert np.max(np.abs(off)) < 1e-10
            assert np.allclose(np.diag(t.chi), np.diag(s.chi), atol=1e-10)

    def test_depolarizing_is_fixed_point(self):
        s = DenseSuperoperator.depolarizing(1, 0.13)
        assert group_twirl(s, enumerate_group(1)).distance(s) < 1e-10
        assert group_twirl(s, "pauli").distance(s) < 1e-12

    def test_conjugation_matches_dense(self):
        rng = np.random.default_rng(6)
        s = random_tp_channel(1, rng)
        g = get_gate("H")
        got = conjugate_by_tableau(s, g.tableau)
        u = DenseSuperoperator.from_unitary(g.dense)
        uinv = DenseSuperoperator.from_unitary(g.dense.conj().T)
        want = uinv.compose(s.compose(u))
        assert got.distance(want) < 1e-10

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group_twirl(DenseSuperoperator.identity(1), [])

    def test_wrong_qubit_count_rejected(self):
        s = DenseSuperoperator.identity(2)
        one, two = CliffordTableau.identity(1), CliffordTableau.identity(2)
        for group in ([one], [two, one], [one, two]):
            with pytest.raises(ValueError, match="qubits"):
                group_twirl(s, group)
        with pytest.raises(ValueError, match="qubits"):
            conjugate_by_tableau(s, one)


class TestGateFidelity:
    def test_exact_gate(self):
        g = get_gate("H")
        s = DenseSuperoperator.from_unitary(g.dense)
        assert gate_fidelity(s, g.dense) == pytest.approx(1, abs=1e-12)

    def test_depolarizing_vs_identity(self):
        # F = 1 - alpha_n * p with alpha_n = (D-1)/D
        for n, p in ((1, 0.06), (2, 0.1)):
            s = DenseSuperoperator.depolarizing(n, p)
            d = 2 ** n
            want = 1 - p * (d - 1) / d
            assert gate_fidelity(s, np.eye(d)) == pytest.approx(want, abs=1e-12)

    def test_infidelity_is_alpha_times_strength(self):
        # average gate infidelity of any TP channel vs identity equals
        # alpha_n times its depolarization strength
        rng = np.random.default_rng(7)
        for n in (1, 2):
            d = 2 ** n
            alpha = (d - 1) / d
            for _ in range(3):
                s = random_tp_channel(n, rng)
                infid = 1 - gate_fidelity(s, np.eye(d))
                assert infid == pytest.approx(
                    alpha * depolarization_strength(s), abs=1e-9)

    def test_against_haar_state_average(self):
        rng = np.random.default_rng(8)
        x = dense_pauli_from_string("X")
        u = expm(-1j * 0.08 * x)  # small unitary error, target = identity
        s = DenseSuperoperator.from_unitary(u)
        exact = gate_fidelity(s, np.eye(2))
        samples = []
        for _ in range(10000):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            samples.append(abs(np.vdot(psi, u @ psi)) ** 2)
        mean = np.mean(samples)
        se = np.std(samples) / np.sqrt(len(samples))
        assert abs(exact - mean) < 3 * se + 1e-12


class TestRandomChannels:
    def test_trace_preserving(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            assert random_tp_channel(n, rng).is_trace_preserving()

    def test_pauli_channel_roundtrip(self):
        ch = PauliChannel.depolarizing(2, 0.3)
        s = DenseSuperoperator.from_pauli_channel(ch)
        assert s.is_trace_preserving()
        assert depolarization_strength(s) == pytest.approx(0.3, abs=1e-12)
