"""Small oracles used across the test suite.

The dense-matrix oracles are kept deliberately independent of the package
internals: they are built from the four 2x2 Pauli matrices and numpy.kron.
Basis convention: state index bit j is qubit j, so qubit 0 lives on the
low-order tensor slot.

The object-based Clifford action further down is the slow path that the
packed tableau kernel replaced: one `PauliOperator` per image factor,
multiplied with `pauli_multiply`.  It uses only the public Pauli and tableau
data types.

The sign-list fidelity at the end is the Schrödinger-picture path that the
Heisenberg-picture `expected_sequence_fidelity` replaced: a probability vector
over the 2ⁿ sign-flip patterns of the stabilizer rows, co-transformed with
every row swap and product of a stabilizer simulation of the sequence.
"""

from dataclasses import dataclass

import numpy as np

from cliffrb.clifford import CliffordTableau, embed_tableau
from cliffrb.errors import DEFAULT_QUBIT_CAP, ResourceLimitError
from cliffrb.gates import get_gate
from cliffrb.pauli import (
    PauliDimensionError,
    PauliOperator,
    pauli_commutes,
    pauli_multiply,
)
from cliffrb.stabilizer import (
    StabilizerState,
    apply_clifford,
    stabilizer_decomposition,
    zero_state,
)

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


# ---------------------------------------------------------------------------
# sign-list fidelity (Schrödinger picture)


@dataclass
class SignListDistribution:
    """Dense probability vector over the 2ⁿ possible sign-flip patterns."""

    n_qubits: int
    probs: np.ndarray
    cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        if self.n_qubits > self.cap:
            raise ResourceLimitError(
                f"sign-list tracking capped at {self.cap} qubits")
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (1 << self.n_qubits,):
            raise ValueError("probability vector has wrong length")
        if np.any(self.probs < -1e-15) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("not a probability distribution")

    @classmethod
    def ideal(cls, n_qubits, cap=DEFAULT_QUBIT_CAP):
        probs = np.zeros(1 << n_qubits)
        probs[0] = 1.0
        return cls(n_qubits, probs, cap)


def _anticommute_pattern(p, rows):
    pattern = 0
    for i, row in enumerate(rows):
        if not pauli_commutes(p, row):
            pattern |= 1 << i
    return pattern


def propagate_channel(dist, state, ch):
    """Mix the distribution over the channel's XOR patterns against the
    current stabilizer rows."""
    if ch.n_qubits != state.n_qubits or dist.n_qubits != state.n_qubits:
        raise ValueError("size mismatch")
    idx = np.arange(1 << dist.n_qubits)
    out = np.zeros_like(dist.probs)
    for op, weight in ch.weights.items():
        if weight == 0.0:
            continue
        pattern = _anticommute_pattern(op, state.rows)
        out += weight * dist.probs[idx ^ pattern]
    return SignListDistribution(dist.n_qubits, out, dist.cap)


class ReportingState(StabilizerState):
    """StabilizerState that reports its row swaps and row products to
    listeners (the only structural row operations gate application makes)."""

    def __init__(self, rows, neighbor=None):
        super().__init__(rows, neighbor)
        self.listeners = []

    def _swap_rows(self, a, b):
        super()._swap_rows(a, b)
        for lis in self.listeners:
            lis.on_row_event("swap", a, b)

    def _mul_row(self, dst, src):
        super()._mul_row(dst, src)
        for lis in self.listeners:
            lis.on_row_event("mul", dst, src)


class SignTracker:
    """Listener pairing a SignListDistribution with a ReportingState so the
    distribution co-transforms with the structural row operations.  The
    distribution is kept relative to the ideal run (error pattern = actual
    signs XOR ideal signs), which makes it invariant under the ideal
    conjugations."""

    def __init__(self, state, cap=DEFAULT_QUBIT_CAP):
        self.state = state
        self.dist = SignListDistribution.ideal(state.n_qubits, cap)
        state.listeners.append(self)

    def on_row_event(self, event, *args):
        probs = self.dist.probs
        idx = np.arange(len(probs))
        if event == "swap":
            a, b = args
            differ = ((idx >> a) ^ (idx >> b)) & 1
            self.dist.probs = probs[idx ^ (differ << a) ^ (differ << b)]
        elif event == "mul":
            dst, src = args
            self.dist.probs = probs[idx ^ (((idx >> src) & 1) << dst)]

    def propagate(self, ch):
        self.dist = propagate_channel(self.dist, self.state, ch)

    def joint_parity_probability(self, masks):
        """Probability that every masked parity of the error pattern is even
        (i.e. every listed measurement matches its ideal outcome)."""
        idx = np.arange(len(self.dist.probs))
        ok = np.ones(len(idx), dtype=bool)
        for mask in masks:
            parity = np.zeros(len(idx), dtype=np.uint8)
            m = mask
            while m:
                b = (m & -m).bit_length() - 1
                parity ^= ((idx >> b) & 1).astype(np.uint8)
                m &= m - 1
            ok &= parity == 0
        return float(self.dist.probs[ok].sum())


def sign_list_fidelity(sequence, model):
    """`expected_sequence_fidelity` by sign-list tracking: simulate the
    sequence, mix each step's channel into the sign-flip distribution, and
    read off the probability that every measured parity is ideal."""
    state = ReportingState(zero_state(sequence.n_qubits).rows)
    tracker = SignTracker(state)
    for t, (label, tab) in enumerate(sequence.steps, start=1):
        apply_clifford(state, tab)
        tracker.propagate(model.channel_for(label, t))
    if model.spam_channel is not None:
        tracker.propagate(model.spam_channel)
    masks = []
    for p in sequence.measured_paulis:
        dec = stabilizer_decomposition(state, p)
        if dec is None:
            raise ValueError(f"measured operator {p} is not deterministic")
        masks.append(dec[0])
    return tracker.joint_parity_probability(masks)
