"""Small oracles used across the test suite.

The dense-matrix oracles are kept deliberately independent of the package
internals: they are built from the four 2x2 Pauli matrices and numpy.kron.
Basis convention: state index bit j is qubit j, so qubit 0 lives on the
low-order tensor slot.

The object-based Clifford action at the end is the slow path that the packed
tableau kernel replaced: one `PauliOperator` per image factor, multiplied
with `pauli_multiply`.  It uses only the public Pauli and tableau data types.
"""

import numpy as np

from cliffrb.clifford import CliffordTableau, embed_tableau
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliDimensionError, PauliOperator, pauli_multiply

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli_from_string(text):
    """Dense matrix of a pauli string in the package's textual format."""
    phase = 1
    for pref, val in (("-i", -1j), ("+", 1), ("-", -1), ("i", 1j)):
        if text.startswith(pref):
            phase = val
            text = text[len(pref):]
            break
    mat = np.eye(1, dtype=complex)
    for c in text:  # little-endian: first char = qubit 0 = low tensor slot
        mat = np.kron(PAULI_MATS[c], mat)
    return phase * mat


def dense_pauli(op):
    return dense_pauli_from_string(str(op))


def kron_all(mats):
    """kron with qubit 0 low: mats[0] acts on qubit 0."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


def embed_unitary(u, positions, n):
    """Embed a small unitary at the given qubits of an n-qubit system
    (gate index bit k = positions[k])."""
    u = np.asarray(u, dtype=complex)
    m = len(positions)
    pos_mask = sum(1 << p for p in positions)
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(2 ** n):
        rest = i & ~pos_mask
        gi = sum(((i >> positions[k]) & 1) << k for k in range(m))
        for gj in range(2 ** m):
            j = rest | sum(((gj >> k) & 1) << positions[k] for k in range(m))
            out[i, j] = u[gi, gj]
    return out


def z_outcome_probability(vec, j, outcome):
    """Probability that measuring Z on qubit j of statevector vec gives
    the given outcome bit."""
    idx = np.arange(len(vec))
    mask = ((idx >> j) & 1) == outcome
    return float(np.sum(np.abs(vec[mask]) ** 2))


def project_z(vec, j, outcome):
    idx = np.arange(len(vec))
    out = vec.copy()
    out[((idx >> j) & 1) != outcome] = 0
    norm = np.linalg.norm(out)
    return out / norm


def equal_up_to_phase(a, b, tol=1e-9):
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return np.allclose(a, b, atol=tol)
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1) < tol and np.allclose(a, phase * b, atol=tol)


# ---------------------------------------------------------------------------
# object-based Clifford action (slow path)


def clifford_apply(c, p):
    """Conjugation image of p under c, one pauli_multiply per factor."""
    if c.n_qubits != p.n_qubits:
        raise PauliDimensionError("tableau / operator size mismatch")
    n = c.n_qubits
    # p = i^{phase + #Y} * prod_j X_j^{x_j} Z_j^{z_j}; substitute the images.
    acc = PauliOperator(n, 0, 0,
                        (p.phase + (p.x_mask & p.z_mask).bit_count()) % 4)
    for j in range(n):
        if (p.x_mask >> j) & 1:
            acc = pauli_multiply(acc, c.image_x(j))
        if (p.z_mask >> j) & 1:
            acc = pauli_multiply(acc, c.image_z(j))
    if acc.phase % 2:
        raise ValueError("invalid tableau: image has imaginary phase")
    return acc


def _pack(p):
    return p.x_mask | (p.z_mask << p.n_qubits)


def clifford_compose(c, d):
    """Tableau of C∘D (apply d first), image by image."""
    if c.n_qubits != d.n_qubits:
        raise PauliDimensionError("tableau size mismatch")
    images = [clifford_apply(c, img) for img in d.images()]
    signs = 0
    for i, img in enumerate(images):
        signs |= img.sign_bit << i
    return CliffordTableau(c.n_qubits, tuple(_pack(p) for p in images), signs)


def sequence_tableau(seq):
    """Compose a gate sequence by embedding each gate's full tableau."""
    acc = CliffordTableau.identity(seq.n_qubits)
    for name, idxs in seq.gates:
        acc = clifford_compose(
            embed_tableau(get_gate(name).tableau, idxs, seq.n_qubits), acc)
    return acc


class ChoiMatrix:
    """Object-based stand-in for `decomp._ChoiMatrix`: rows are 2n-qubit
    PauliOperators and a gate is a full embedded-tableau conjugation."""

    def __init__(self, c):
        n = c.n_qubits
        self.n = n
        self.rows = []
        for i, img in enumerate(c.images()):
            left = PauliOperator.single(n, i % n, "X" if i < n else "Z")
            self.rows.append(PauliOperator(
                2 * n, left.x_mask | (img.x_mask << n),
                left.z_mask | (img.z_mask << n), img.phase))

    def entry(self, r, col):
        return self.rows[r].factor(self.n + col)

    def left_z(self, r, col):
        return (self.rows[r].z_mask >> col) & 1

    def sign(self, r):
        return self.rows[r].sign_bit

    def mul_rows(self, dst, src):
        self.rows[dst] = pauli_multiply(self.rows[dst], self.rows[src])

    def swap_rows(self, a, b):
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]

    def apply(self, name, idxs):
        tab = embed_tableau(get_gate(name).tableau,
                            tuple(self.n + i for i in idxs), 2 * self.n)
        self.rows = [clifford_apply(tab, r) for r in self.rows]
