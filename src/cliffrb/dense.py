"""Dense superoperator engine (n <= 3).

This is the dense reference the stabilizer-based fast paths are checked
against: channels are held as 4^n x 4^n process matrices chi in the
(unnormalized) Pauli basis, Lambda(rho) = sum_mn chi[m,n] P_m rho P_n.  With
that normalization chi[0,0] is the entanglement fidelity with the identity,
which keeps the depolarization and fidelity formulas short.

The natural representation is one basis change by the cached (d^2, 4^n)
matrix V whose column m is vec(P_m), and Kraus operators and states meet the
cached stack of the 4^n basis matrices, built by broadcasting the four 2x2
factors over all labels, one product per qubit (`_paulis`; the Kronecker
chain of one Pauli in tests/oracles.py is its oracle, and the loop forms
over the 16^n Pauli pairs are kept there too).  A Clifford acts on the basis
as the signed permutation of Pauli labels given by its
`clifford._label_tables` row.  A twirl is one gather from the rows of its
whole set, and conjugation by one Clifford is the twirl over that Clifford
alone.  C_n is the Pauli group times its sign-free elements, so the twirl
over an `enumerate_group(n)` sequence is the Pauli twirl followed by one
gather over its sign-free image array (Dankert, Cleve, Emerson & Livine,
quant-ph/0606161), and builds no tableau.

Basis ordering: Pauli index m = x_mask | (z_mask << n), so m = 0 is the
identity; state index bit j is qubit j (qubit 0 = low-order bit).
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .clifford import CliffordTableau, _GroupElements, _label_tables
from .pauli import PauliChannel, _pack

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_QUBITS = 3
_TWIRL_CHUNK = 1 << 14  # gathered chi entries per step of a twirl


def _paulis(n: int, labels) -> np.ndarray:
    """The phase-0 Pauli P_m (qubit 0 on the low tensor slot) of each label
    m, stacked: shape (len(labels), 2^n, 2^n).

    The Kronecker chain of one Pauli (qubit n-1 outermost) run over all the
    labels at once, one broadcast product per qubit: the entries are the
    same products of 0, ±1 and ±i, and the unit phase comes last as there,
    so the stack is bitwise equal to the chain's, signed zeros included."""
    factors = np.array([_MATS[f] for f in "IXZY"])  # by x | z << 1
    labels = np.asarray(labels)
    out = np.ones((len(labels), 1, 1), dtype=complex)
    for j in range(n):
        mats = factors[labels >> j & 1 | (labels >> (n + j) & 1) << 1]
        d = 2 * out.shape[1]
        out = (mats[:, :, None, :, None]
               * out[:, None, :, None, :]).reshape(len(labels), d, d)
    out *= (1j) ** 0  # sets the zeros' signs as the chain's phase does
    return out


@lru_cache(maxsize=None)
def _basis_stack(n: int) -> np.ndarray:
    """P_m for every basis index m, stacked: shape (4^n, 2^n, 2^n)."""
    out = _paulis(n, np.arange(4 ** n))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _vec_basis(n: int) -> np.ndarray:
    """V, shape (d^2, 4^n): column m is the column-stacked vec(P_m)."""
    out = np.ascontiguousarray(
        _basis_stack(n).transpose(0, 2, 1).reshape(4 ** n, -1).T)
    out.setflags(write=False)
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a @ b as four real products.  OpenBLAS may hand a complex
    product of 48 or more rows to its thread pool, at a flat ~16 ms per
    call on a 2-core host; real products of these sizes stay in the caller's
    thread and take microseconds."""
    return (a.real @ b.real - a.imag @ b.imag) + 1j * (a.real @ b.imag
                                                        + a.imag @ b.real)


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap the first and last of the four d-sized axes of a d^2 x d^2
    matrix: vec(P_m) vec(P_k)+ <-> kron(P_k^T, P_m).  Its own inverse."""
    return m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


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
            m = _pack(op)
            chi[m, m] += w
        return cls(n, chi)

    @classmethod
    def from_natural(cls, n_qubits: int, nat: np.ndarray) -> "DenseSuperoperator":
        """chi[m, k] = tr(kron(P_k^T, P_m)+ nat) / d^2."""
        d = 2 ** n_qubits
        v = _vec_basis(n_qubits)
        chi = _matmul(_matmul(v.conj().T, _reshuffle(np.asarray(nat), d)), v)
        return cls(n_qubits, chi / (d * d))

    # -- representations ------------------------------------------------------

    def natural(self) -> np.ndarray:
        """Matrix acting on column-stacked vec(rho):
        sum_mk chi[m, k] kron(P_k^T, P_m)."""
        v = _vec_basis(self.n_qubits)
        return _reshuffle(_matmul(_matmul(v, self.chi), v.conj().T),
                          2 ** self.n_qubits)

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
            self.n_qubits, _matmul(self.natural(), other.natural()))

    def is_trace_preserving(self) -> bool:
        """sum_mk chi[m, k] P_k P_m is the identity (to 1e-10)."""
        b = _basis_stack(self.n_qubits)
        total = np.einsum("mk,kab,mbc->ac", self.chi, b, b, optimize=True)
        return bool(np.allclose(total, np.eye(2 ** self.n_qubits), atol=1e-10))

    def distance(self, other: "DenseSuperoperator") -> float:
        return float(np.max(np.abs(self.chi - other.chi)))


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
    """Process matrix of C+ . s . C (twirl summand for Clifford C): the
    twirl over the one-element set {C}."""
    return group_twirl(s, [tab])


def group_twirl(s: DenseSuperoperator,
                group: Union[str, Iterable[CliffordTableau]]) -> DenseSuperoperator:
    """Average of C+ . s . C over a set of Cliffords, or over all Paulis when
    group == "pauli".  The Pauli twirl keeps the diagonal of chi: the signs
    t_j of conjugation by the Paulis are orthogonal characters, so the
    average of t_j t_l is 1 if j == l and 0 otherwise.

    For a Clifford C with C P_j C+ = t_j P_f(j), C+ P_f(j) C = t_j P_j, so
    its summand is chi'[j, l] = t_j t_l chi[f(j), f(l)].  A Clifford set is
    one gather of these summands from the set's label tables, summed over
    chunks of at most _TWIRL_CHUNK entries.  An `enumerate_group(n)` set
    holds every sign mask m of each sign-free row, and m flips t_j by
    (-1)^popcount(m & j), so the masks' average of t_j t_l is the Pauli
    twirl's: the gather runs over the sign-free rows alone (720 of the
    11,520 elements at n = 2) on the Pauli-twirled chi."""
    if isinstance(group, str):
        if group != "pauli":
            raise ValueError(f"unknown twirl group {group!r}")
        return DenseSuperoperator(s.n_qubits, np.diag(np.diag(s.chi)))
    if (isinstance(group, _GroupElements)
            and group.n_signs == 4 ** group.n_qubits):
        s = DenseSuperoperator(s.n_qubits, np.diag(np.diag(s.chi)))
        group = _GroupElements(group.n_qubits, group.vecs, 1)
    if not isinstance(group, abc.Sequence):
        group = list(group)
    if not group:
        raise ValueError("empty twirl set")
    images, flips = _label_tables(group)  # builds no tableau of a group
    d2 = len(s.chi)
    if images.shape[1] != d2:
        raise ValueError(f"tableaux act on {group[0].n_qubits} qubits, "
                         f"the channel on {s.n_qubits}")
    # t_j t_l chi[f(j), f(l)] is entry (t_j ^ t_l) d2^2 + f(j) d2 + f(l) of
    # [chi, -chi]; the three fields hold disjoint bits, so it is one XOR of
    # a key of j and a key of l
    signed = np.concatenate([s.chi.ravel(), -s.chi.ravel()])
    acc = np.zeros((d2, d2), dtype=complex)
    step = max(1, _TWIRL_CHUNK // (d2 * d2))
    for lo in range(0, len(group), step):
        t = flips[lo:lo + step].astype(np.intp) * (d2 * d2)
        f = images[lo:lo + step].astype(np.intp)
        acc += signed[(t + f * d2)[:, :, None] ^ (t + f)[:, None, :]].sum(0)
    return DenseSuperoperator(s.n_qubits, acc / len(group))


def gate_fidelity(s: DenseSuperoperator, u: np.ndarray) -> float:
    """Average gate fidelity of the channel s against a target unitary u."""
    err = s.compose(DenseSuperoperator.from_unitary(np.asarray(u).conj().T))
    d = 2 ** s.n_qubits
    return float((1 + d * np.real(err.chi[0, 0])) / (1 + d))
