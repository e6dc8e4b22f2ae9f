"""Dense superoperator engine (n <= 3).

This is the dense reference the stabilizer-based fast paths are checked
against: channels are held as 4^n x 4^n process matrices chi in the
(unnormalized) Pauli basis, Lambda(rho) = sum_mn chi[m,n] P_m rho P_n.  With
that normalization chi[0,0] is the entanglement fidelity with the identity,
which keeps the depolarization and fidelity formulas short.

Every change of representation is one contraction with the cached stack of
the 4^n basis matrices (shape 4^n x 2^n x 2^n); the loop forms over the 16^n
Pauli pairs are kept as oracles in tests/oracles.py.  A Clifford acts on the
basis as the signed permutation of Pauli labels given by its
`clifford._local_table`.

Basis ordering: Pauli index m = x_mask | (z_mask << n), so m = 0 is the
identity; state index bit j is qubit j (qubit 0 = low-order bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from .clifford import CliffordTableau, _local_table, _unpack
from .pauli import PauliChannel, PauliOperator

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_QUBITS = 3


def dense_pauli(p: PauliOperator) -> np.ndarray:
    """Dense matrix of a Pauli operator (qubit 0 on the low tensor slot)."""
    out = np.eye(1, dtype=complex)
    for j in range(p.n_qubits):
        out = np.kron(_MATS[p.factor(j)], out)
    return (1j) ** p.phase * out


@lru_cache(maxsize=None)
def _basis_stack(n: int) -> np.ndarray:
    """P_m for every basis index m, stacked: shape (4^n, 2^n, 2^n)."""
    out = np.array([dense_pauli(_unpack(m, n)) for m in range(4 ** n)])
    out.setflags(write=False)
    return out


def _signed_perm(tab: CliffordTableau) -> Tuple[np.ndarray, np.ndarray]:
    """C P_m C+ = sign[m] P_idx[m] for every basis index m."""
    table = _local_table(tab)
    idx = np.array([img for img, _ in table])
    sign = 1 - 2 * np.array([flip for _, flip in table])
    return idx, sign


@dataclass(frozen=True)
class DenseSuperoperator:
    n_qubits: int
    chi: np.ndarray

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS:
            raise ValueError("dense engine is limited to small systems")
        d2 = 4 ** self.n_qubits
        if self.chi.shape != (d2, d2):
            raise ValueError("process matrix has wrong shape")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_kraus(cls, n_qubits: int,
                   kraus: Iterable[np.ndarray]) -> "DenseSuperoperator":
        d = 2 ** n_qubits
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if any(a.shape != (d, d) for a in ops):
            raise ValueError("Kraus operator has wrong shape")
        ops = np.array(ops).reshape(-1, d, d)
        total = np.einsum("aji,ajk->ik", ops.conj(), ops)
        if not np.allclose(total, np.eye(d), atol=1e-10):
            raise ValueError("Kraus set is not trace-preserving")
        # c[a, m] = tr(P_m+ A_a) / d
        c = np.einsum("mij,aij->am", _basis_stack(n_qubits).conj(), ops) / d
        return cls(n_qubits, c.T @ c.conj())

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "DenseSuperoperator":
        u = np.asarray(u, dtype=complex)
        n = int(round(np.log2(u.shape[0])))
        return cls.from_kraus(n, [u])

    @classmethod
    def identity(cls, n_qubits: int) -> "DenseSuperoperator":
        return cls.from_unitary(np.eye(2 ** n_qubits))

    @classmethod
    def depolarizing(cls, n_qubits: int, p: float) -> "DenseSuperoperator":
        return cls.from_pauli_channel(PauliChannel.depolarizing(n_qubits, p))

    @classmethod
    def from_pauli_channel(cls, ch: PauliChannel) -> "DenseSuperoperator":
        n = ch.n_qubits
        chi = np.zeros((4 ** n, 4 ** n), dtype=complex)
        for op, w in ch.weights.items():
            m = op.x_mask | (op.z_mask << n)
            chi[m, m] += w
        return cls(n, chi)

    @classmethod
    def from_tableau(cls, tab: CliffordTableau) -> "DenseSuperoperator":
        """Channel rho -> C rho C+ of a Clifford, built from its signed
        Pauli permutation (no dense unitary needed)."""
        n = tab.n_qubits
        return cls.from_natural(n, _signed_perm_natural(n, *_signed_perm(tab)))

    @classmethod
    def from_natural(cls, n_qubits: int, nat: np.ndarray) -> "DenseSuperoperator":
        """chi[m, k] = tr(kron(P_k^T, P_m)+ nat) / d^2."""
        d = 2 ** n_qubits
        b = _basis_stack(n_qubits).conj()
        chi = np.einsum("kca,mbe,abce->mk", b, b,
                        np.asarray(nat).reshape(d, d, d, d), optimize=True)
        return cls(n_qubits, chi / (d * d))

    # -- representations ------------------------------------------------------

    def natural(self) -> np.ndarray:
        """Matrix acting on column-stacked vec(rho):
        sum_mk chi[m, k] kron(P_k^T, P_m)."""
        d = 2 ** self.n_qubits
        b = _basis_stack(self.n_qubits)
        nat = np.einsum("mk,kca,mbe->abce", self.chi, b, b, optimize=True)
        return nat.reshape(d * d, d * d)

    def kraus(self, tol: float = 1e-12) -> List[np.ndarray]:
        vals, vecs = np.linalg.eigh((self.chi + self.chi.conj().T) / 2)
        if np.any(vals < -1e-9):
            raise ValueError("process matrix is not completely positive")
        keep = vals > tol
        weighted = (vecs[:, keep] * np.sqrt(vals[keep])).T
        return list(np.tensordot(weighted, _basis_stack(self.n_qubits), 1))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_mk chi[m, k] P_m rho P_k."""
        b = _basis_stack(self.n_qubits)
        return np.einsum("mk,mab,bc,kce->ae", self.chi, b,
                         np.asarray(rho, dtype=complex), b, optimize=True)

    def compose(self, other: "DenseSuperoperator") -> "DenseSuperoperator":
        """self after other."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("size mismatch")
        return DenseSuperoperator.from_natural(
            self.n_qubits, self.natural() @ other.natural())

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        """sum_mk chi[m, k] P_k P_m is the identity."""
        b = _basis_stack(self.n_qubits)
        total = np.einsum("mk,kab,mbc->ac", self.chi, b, b, optimize=True)
        return bool(np.allclose(total, np.eye(2 ** self.n_qubits), atol=tol))

    def distance(self, other: "DenseSuperoperator") -> float:
        return float(np.max(np.abs(self.chi - other.chi)))


def _signed_perm_natural(n: int, idx: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Natural representation of P_m -> sign[m] * P_idx[m] acting by
    conjugation: sum_m vec(sign[m] P_idx[m]) vec(P_m)+ / d."""
    # rows are the column-stacked vec(P_m)
    vecs = _basis_stack(n).transpose(0, 2, 1).reshape(4 ** n, -1)
    return (sign[:, None] * vecs[idx]).T @ vecs.conj() / 2 ** n


def superoperator_trace(s: DenseSuperoperator) -> float:
    """Trace of the natural representation; equals sum_i |tr A_i|^2."""
    return float(np.real(s.chi[0, 0]) * 4 ** s.n_qubits)


def depolarization_strength(s: DenseSuperoperator) -> float:
    """Strength of the depolarizing channel the full Clifford twirl maps s to."""
    if not s.is_trace_preserving():
        raise ValueError("channel is not trace-preserving")
    d2 = 4 ** s.n_qubits
    return (d2 - superoperator_trace(s)) / (d2 - 1)


def conjugate_by_tableau(s: DenseSuperoperator, tab: CliffordTableau) -> DenseSuperoperator:
    """Process matrix of C+ . s . C (twirl summand for Clifford C).

    With C P_j C+ = t_j P_f(j), C+ P_f(j) C = t_j P_j, so
    chi'[j, l] = t_j t_l chi[f(j), f(l)]."""
    idx, sign = _signed_perm(tab)
    return DenseSuperoperator(s.n_qubits,
                              np.outer(sign, sign) * s.chi[np.ix_(idx, idx)])


def group_twirl(s: DenseSuperoperator,
                group: Union[str, Sequence[CliffordTableau]]) -> DenseSuperoperator:
    """Average of C+ . s . C over a set of Cliffords, or over all Paulis when
    group == "pauli".  The Pauli twirl keeps the diagonal of chi: the signs
    t_j of conjugation by the Paulis are orthogonal characters, so the
    average of t_j t_l is 1 if j == l and 0 otherwise."""
    if isinstance(group, str):
        if group != "pauli":
            raise ValueError(f"unknown twirl group {group!r}")
        return DenseSuperoperator(s.n_qubits, np.diag(np.diag(s.chi)))
    group = list(group)
    if not group:
        raise ValueError("empty twirl set")
    acc = np.zeros_like(s.chi)
    for tab in group:
        acc += conjugate_by_tableau(s, tab).chi
    return DenseSuperoperator(s.n_qubits, acc / len(group))


def gate_fidelity(s: DenseSuperoperator, u: np.ndarray) -> float:
    """Average gate fidelity of the channel s against a target unitary u."""
    err = s.compose(DenseSuperoperator.from_unitary(np.asarray(u).conj().T))
    d = 2 ** s.n_qubits
    return float((1 + d * np.real(err.chi[0, 0])) / (1 + d))


def random_tp_channel(n_qubits: int, rng) -> DenseSuperoperator:
    """Random trace-preserving channel with four Kraus operators, from a
    Haar-ish random isometry."""
    d = 2 ** n_qubits
    g = rng.normal(size=(4 * d, d)) + 1j * rng.normal(size=(4 * d, d))
    q, _ = np.linalg.qr(g)
    kraus = [q[i * d:(i + 1) * d, :] for i in range(4)]
    return DenseSuperoperator.from_kraus(n_qubits, kraus)
