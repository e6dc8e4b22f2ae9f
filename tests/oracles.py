"""Small oracles used across the test suite.

The dense-matrix oracles are kept deliberately independent of the package
internals: they are built from the four 2x2 Pauli matrices and numpy.kron.
Basis convention: state index bit j is qubit j, so qubit 0 lives on the
low-order tensor slot.

The object-based Clifford action further down is the slow path that the
packed tableau kernel replaced: one `PauliOperator` per image factor,
multiplied with `pauli_multiply`.  It uses only the public Pauli and tableau
data types.

`gf2_invert` is the Gauss-Jordan elimination that the symplectic
transpose in `clifford_inverse` replaced.

The sign-list fidelity at the end is the Schrödinger-picture path that the
Heisenberg-picture `expected_sequence_fidelity` replaced: a probability vector
over the 2ⁿ sign-flip patterns of the stabilizer rows, co-transformed with
every row swap and product of a stabilizer simulation of the sequence.

The Cayley-graph Dijkstra over tableau objects and the loop forms of the
dense superoperator engine are the paths that the signed Pauli-label tables
(`local_table`, per tableau) and the stacked-basis contractions replaced.
`local_table` is also the per-tableau reference of the batched builder
`clifford._label_tables`.

The quotient-group loops are the element-by-element `bounds` convolution
and undetected-error probability that the ranked products and the image
array replaced, the product table composed pair by pair, against which
`QuotientGroup.products` is checked, and the image array built by GF(2)
linearity, which the batched signed-label tables (`clifford._label_tables`)
replaced.

`q_subgroup` is the subgroup builder that decoded every image of every
element with field arithmetic; `subgroups.q_subgroup` reads them off
per-unit-vector images by GF(2) linearity.

The separable start `initial_guess` is the one-q-at-a-time search that the
stacked `analysis._initial_guess` replaced: one `np.linalg.lstsq` call per
scanned q and per golden-section point.  `scalar_fit` starts from it.

The per-replicate bootstrap is the loop that the batched
`analysis.bootstrap` replaced: one `RBDataset` and one scalar
Levenberg-Marquardt fit per replicate, drawing its counts one row at a time.

The RB step kernels are the forms that the memoised ones replaced: the
uniform sampler solving every step's linear system afresh and drawing its
bits 32 at a time in a loop, the Pauli eigenvalue summed anew on every call,
and the compose that maps each image through `_image_sign`.  The afresh
solve `solve_affine` and its basis combination `xor_combo` are the
elimination that the sampler's carried reduced rows (`clifford._reduce`,
`clifford._pick`) replaced; `clifford._solve_affine` is checked against it.

The group walks are what the rank tables' walk over the sampler's draws
(`clifford._rank_tables`, read back in order by `clifford._unrank`)
replaced: `enumerate_group`'s own Gray-code recursion over the sampler's
choice sets, and the draw index built by replaying the afresh-solving
sampler on every packed draw key.  Neither shares the library's
elimination.

The helpers at the end were library functions and methods that only tests
reached; they live here as plain functions with their bodies unchanged:
the GSSF check `check_gssf` and the canonical form `canonical_row_span` of a
stabilizer state, `kraus` of a dense channel and `random_tp_channel`,
`pauli_error` (a one-Pauli channel), `model_predict` (a decay model's
curve), `ellipse_contains` of a bootstrap report, `builtin_gates` and
`generates_clifford_group`, the field encoding `pauli_to_field` and
`vectorial_power`, and the sampler's per-step choice-set sizes
`sample_choice_counts` (built from `clifford._draw_widths`).
"""

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cliffrb import analysis
from cliffrb import clifford as packed
from cliffrb.clifford import (
    CliffordTableau,
    GateSequence,
    clifford_inverse,
    embed_tableau,
)
from cliffrb.decomp import CoverageError, cayley_search
from cliffrb.dense import DenseSuperoperator, _basis_stack
from cliffrb.errors import DEFAULT_QUBIT_CAP, ResourceLimitError
from cliffrb.gates import _REGISTRY, get_gate
from cliffrb.pauli import (
    PauliChannel,
    PauliDimensionError,
    PauliOperator,
    _flip,
    _pack,
    _pauli_product,
    _symplectic,
    pauli_commutes,
    pauli_multiply,
)
from cliffrb.protocol import RBDataset
from cliffrb.stabilizer import (
    InvalidStateError,
    StabilizerState,
    apply_clifford,
    stabilizer_decomposition,
    zero_state,
)
from cliffrb.subgroups import (
    field_context,
    field_inv,
    field_mul,
    field_to_pauli,
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


def dense_pauli(p):
    """Dense matrix of a Pauli operator by its Kronecker chain (qubit 0 on
    the low tensor slot); `dense._paulis` broadcasts it over labels."""
    out = np.eye(1, dtype=complex)
    for j in range(p.n_qubits):
        out = np.kron(PAULI_MATS[p.factor(j)], out)
    return (1j) ** p.phase * out


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


def clifford_compose(c, d):
    """Tableau of C∘D (apply d first), image by image."""
    if c.n_qubits != d.n_qubits:
        raise PauliDimensionError("tableau size mismatch")
    images = [clifford_apply(c, img) for img in d.images()]
    signs = 0
    for i, img in enumerate(images):
        signs |= img.sign_bit << i
    return CliffordTableau(c.n_qubits, tuple(_pack(p) for p in images), signs)


def gf2_invert(rows, nbits):
    """Invert an nbits×nbits GF(2) matrix given as row bit-vectors by
    Gauss-Jordan elimination."""
    a = list(rows)
    inv = [1 << i for i in range(nbits)]
    for col in range(nbits):
        piv = next(r for r in range(col, nbits) if (a[r] >> col) & 1)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(nbits):
            if r != col and (a[r] >> col) & 1:
                a[r] ^= a[col]
                inv[r] ^= inv[col]
    return inv


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
# signed Pauli-label table of one tableau


def local_table(t):
    """Signed permutation of the 4^m Pauli labels under the m-qubit tableau
    t: entry k = x | z << m is the (image label, sign flip) of the phase-0
    factor-form Pauli k, one `_image_sign` call per label."""
    return tuple(packed._image_sign(t, k, 0) for k in range(4 ** t.n_qubits))


# ---------------------------------------------------------------------------
# Cayley-graph Dijkstra over tableau objects


def cayley_search_entries(gs, n, quotient=False, primary_gates=("CX",)):
    """`DecompositionTable.entries` of `decomp.cayley_search`, composing one
    embedded gate tableau per edge (packed `clifford_compose`); the quotient
    keys drop the signs."""

    def key(t):
        return (CliffordTableau(n, t.vecs, 0) if quotient else t).encode()

    moves = []
    for name, idxs, _w in gs.moves(n):
        tab = embed_tableau(get_gate(name).tableau, idxs, n)
        if quotient:
            tab = CliffordTableau(n, tab.vecs, 0)
        moves.append((name, idxs, tab, 1 if name in primary_gates else 0))
    start = CliffordTableau.identity(n)
    best = {key(start): (0, 0)}
    entries = {}
    counter = 0
    heap = [(0, 0, counter, start, ())]
    while heap:
        prim, tot, _, tab, seq = heapq.heappop(heap)
        k = key(tab)
        if k in entries:
            continue
        entries[k] = (GateSequence(n, seq), (prim, tot))
        for name, idxs, gtab, gprim in moves:
            new = packed.clifford_compose(gtab, tab)
            nkey = key(new)
            cost = (prim + gprim, tot + 1)
            if nkey not in entries and cost < best.get(nkey, (1 << 60, 0)):
                best[nkey] = cost
                counter += 1
                heapq.heappush(
                    heap, (*cost, counter, new, seq + ((name, idxs),)))
    return entries


# ---------------------------------------------------------------------------
# dense superoperator engine, loop forms (process matrix chi in the
# unnormalized Pauli basis, Lambda(rho) = sum_mn chi[m,n] P_m rho P_n)


def pauli_basis(n):
    """Dense P_m for m = x_mask | z_mask << n, phase 0."""
    mask = (1 << n) - 1
    return [dense_pauli(PauliOperator(n, m & mask, m >> n, 0))
            for m in range(4 ** n)]


def chi_from_kraus(n, kraus):
    d = 2 ** n
    mats = pauli_basis(n)
    c = np.array([[np.trace(pm.conj().T @ a) / d for pm in mats]
                  for a in kraus])
    return c.T @ c.conj()


def chi_from_natural(n, nat):
    d = 2 ** n
    mats = pauli_basis(n)
    chi = np.zeros((4 ** n, 4 ** n), dtype=complex)
    for m, pm in enumerate(mats):
        for k, pk in enumerate(mats):
            basis_elt = np.kron(pk.T, pm)
            chi[m, k] = np.trace(basis_elt.conj().T @ nat) / (d * d)
    return chi


def natural_from_chi(n, chi):
    """Matrix acting on column-stacked vec(rho)."""
    d = 2 ** n
    mats = pauli_basis(n)
    nat = np.zeros((d * d, d * d), dtype=complex)
    for m, pm in enumerate(mats):
        for k, pk in enumerate(mats):
            if chi[m, k] != 0:
                nat += chi[m, k] * np.kron(pk.T, pm)
    return nat


def apply_chi(n, chi, rho):
    mats = pauli_basis(n)
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for m, pm in enumerate(mats):
        for k, pk in enumerate(mats):
            if chi[m, k] != 0:
                out += chi[m, k] * (pm @ rho @ pk)
    return out


def chi_trace_map(n, chi):
    """sum_mk chi[m,k] P_k P_m, the identity exactly for a trace-preserving
    channel."""
    d = 2 ** n
    mats = pauli_basis(n)
    total = np.zeros((d, d), dtype=complex)
    for m, pm in enumerate(mats):
        for k, pk in enumerate(mats):
            if chi[m, k] != 0:
                total += chi[m, k] * (pk @ pm)
    return total


def signed_perm_natural(n, idx, phases):
    """Natural representation of P_m -> phases[m] * P_idx[m] acting by
    conjugation, one outer product per basis element."""
    d = 2 ** n
    mats = pauli_basis(n)
    nat = np.zeros((d * d, d * d), dtype=complex)
    for m in range(4 ** n):
        src = mats[m].reshape(-1, order="F")  # vec(P_m), column stacking
        dst = phases[m] * mats[idx[m]].reshape(-1, order="F")
        nat += np.outer(dst, src.conj()) / d
    return nat


def _signed_images(tab):
    """Index and phase of the image of every phase-0 basis Pauli under tab."""
    n = tab.n_qubits
    mask = (1 << n) - 1
    idx = np.zeros(4 ** n, dtype=int)
    phases = np.zeros(4 ** n, dtype=complex)
    for m in range(4 ** n):
        img = packed.clifford_apply(tab, PauliOperator(n, m & mask, m >> n, 0))
        idx[m] = img.x_mask | (img.z_mask << n)
        phases[m] = (1j) ** img.phase
    return idx, phases


def chi_from_tableau(tab):
    """Process matrix of rho -> C rho C+ from its signed Pauli permutation."""
    n = tab.n_qubits
    return chi_from_natural(n, signed_perm_natural(n, *_signed_images(tab)))


def conjugate_chi(chi, tab):
    """Process matrix of C+ . s . C, from the images under the inverse."""
    idx, sign = _signed_images(clifford_inverse(tab))
    out = np.zeros_like(chi)
    out[np.ix_(idx, idx)] = np.outer(sign, sign.conj()) * chi
    return out


def twirl_chi(chi, group):
    return sum(conjugate_chi(chi, tab) for tab in group) / len(group)


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

    def swap_rows(self, a, b):
        super().swap_rows(a, b)
        for lis in self.listeners:
            lis.on_row_event("swap", a, b)

    def mul_rows(self, dst, src):
        super().mul_rows(dst, src)
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


# ---------------------------------------------------------------------------
# quotient-group loops (bounds)


@lru_cache(maxsize=None)
def _quotient_group(n):
    """Quotient-group elements, their encoding -> index dict, and every
    element's image label of every Pauli label, as tuples."""
    elements = packed.enumerate_group(n, quotient=True)
    index = {tab.encode(): i for i, tab in enumerate(elements)}
    images = tuple(tuple(img for img, _ in local_table(tab))
                   for tab in elements)
    return elements, index, images


def quotient_images_by_linearity(n):
    """quotient_group(n).images from the elements' packed images alone:
    sign-free images are GF(2)-linear, so label v maps to the XOR of the
    images of its bits."""
    vecs = np.array([tab.vecs for tab in packed.enumerate_group(n, True)],
                    dtype=np.uint8)
    images = np.zeros((len(vecs), 4 ** n), dtype=np.uint8)
    for v in range(1, 4 ** n):
        low = v & -v
        images[:, v] = images[:, v ^ low] ^ vecs[:, low.bit_length() - 1]
    return images


def product_table(n):
    """quotient_group(n)'s product table as nested lists: [i][j] is the
    index of element i applied after element j, composed from element i's
    images of element j's images."""
    elements, _, images = _quotient_group(n)
    vecs = [tab.vecs for tab in elements]
    index = {v: i for i, v in enumerate(vecs)}
    return [[index[tuple(row[v] for v in vj)] for vj in vecs]
            for row in images]


def group_convolve(a, b):
    """bounds.convolve as a double loop over the supports (i-major, j-minor),
    composing each pair from element i's images of element j's images."""
    n = a.n_qubits
    elements, index, images = _quotient_group(n)
    out = np.zeros_like(a.probs)
    for i in a.support():
        for j in b.support():
            prod = CliffordTableau(n, tuple(images[i][v]
                                            for v in elements[j].vecs))
            out[index[prod.encode()]] += a.probs[i] * b.probs[j]
    return out


def undetected_probability(p_prime, r, measured=None):
    """bounds.undetected_probability as a loop over the support, one Pauli
    label at a time."""
    n = p_prime.n_qubits
    m = _pack(PauliOperator(n, 0, 1, 0) if measured is None
              else measured)
    v = _pack(r)
    _, _, images = _quotient_group(n)
    q = 0.0
    for i in p_prime.support():
        if not _symplectic(images[i][v], m, n):
            q += float(p_prime.probs[i])
    return q


def kappa_extremes(dists, measured=None):
    """Per step distribution, (q_max, q_min, r_max, r_min) of
    bounds.kappa_bounds from one undetected_probability call per
    non-identity Pauli."""
    n = dists[0].n_qubits
    paulis = [PauliOperator(n, m & ((1 << n) - 1), m >> n, 0)
              for m in range(1, 4 ** n)]
    out = []
    for dist in dists:
        qs = [undetected_probability(dist, r, measured) for r in paulis]
        hi, lo = int(np.argmax(qs)), int(np.argmin(qs))
        out.append((qs[hi], qs[lo], paulis[hi], paulis[lo]))
    return out


# ---------------------------------------------------------------------------
# separable start, one q at a time (analysis)


def _design_columns(model, lengths, q):
    """Basis functions multiplying the linear parameters at fixed decay q."""
    ones = np.ones_like(lengths)
    cols = {"main": [q ** lengths],
            "main-app": [q ** lengths],
            "three-param": [ones, q ** lengths],
            "magesan": [ones, q ** lengths,
                        (lengths - 1) * q ** (lengths - 2.0)]}[model.tag]
    return np.column_stack(cols)


def linear_solve(model, lengths, f, alpha, q):
    asym = {"main": 1 - alpha, "main-app": 0.5}.get(model.tag, 0.0)
    design = _design_columns(model, lengths, q)
    coef, *_ = np.linalg.lstsq(design, f - asym, rcond=None)
    resid = f - asym - design @ coef
    return coef, float(resid @ resid)


def initial_guess(model, lengths, f, alpha):
    """Separable start: scan the decay base q, solving the (linear) remaining
    parameters exactly at each candidate, then refine q by golden section."""
    lo, hi = 1e-6, 1 - 1e-9
    grid = np.linspace(lo, hi, 400)
    # seed the grid with a log-linear estimate when the data allows one
    y = f - (0.5 if model.tag == "main-app" else 1 - alpha)
    if np.sum(y > 1e-12) >= 2:
        mask = y > 1e-12
        slope, _ = np.polyfit(lengths[mask], np.log(y[mask]), 1)
        grid = np.append(grid, np.clip(np.exp(slope), lo, hi))
    costs = [linear_solve(model, lengths, f, alpha, q)[1] for q in grid]
    order = np.argsort(grid)
    grid, costs = grid[order], np.asarray(costs)[order]
    phi = (np.sqrt(5) - 1) / 2

    def refine(k):
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        for _ in range(80):
            c, d = b - phi * (b - a), a + phi * (b - a)
            if linear_solve(model, lengths, f, alpha, c)[1] <= \
                    linear_solve(model, lengths, f, alpha, d)[1]:
                b = d
            else:
                a = c
        return (a + b) / 2

    # the scan can expose several local minima; polish each candidate basin
    local = [k for k in range(len(grid))
             if (k == 0 or costs[k] <= costs[k - 1])
             and (k == len(grid) - 1 or costs[k] <= costs[k + 1])]
    q, best = None, np.inf
    for k in local:
        cand = refine(k)
        cost = linear_solve(model, lengths, f, alpha, cand)[1]
        if cost < best:
            q, best = cand, cost
    coef, _ = linear_solve(model, lengths, f, alpha, q)
    eps_s = alpha * (1 - q)
    if model.tag == "main":
        return np.array([eps_s, alpha - coef[0]])
    if model.tag == "main-app":
        return np.array([eps_s, alpha * (1 - 2 * coef[0])])
    if model.tag == "three-param":
        c = coef[0] / (1 - alpha)
        scale = c if abs(c) > 1e-12 else 1.0
        return np.array([eps_s, alpha - coef[1] / scale, scale])
    # magesan: coef = (a, amplitude, b)
    return np.array([eps_s, alpha - coef[1], coef[0], coef[2]])


# ---------------------------------------------------------------------------
# per-replicate bootstrap (analysis)


def length_moments(ds):
    """Sorted lengths, per-length mean survival and sigma_l as `fit` weights
    them, one length at a time from a 1-d array."""
    lengths = ds.lengths()
    f, var = [], []
    for l in lengths:
        p = ds.fidelities(l)
        f.append(float(p.mean()))
        var.append(float(np.var(p, ddof=1) / len(p)) if len(p) >= 2 else 0.0)
    sigma = np.sqrt(np.maximum(np.array(var), analysis.VARIANCE_FLOOR))
    return np.array(lengths, dtype=float), np.array(f), sigma


def _scalar_jacobian(func, lengths, params, alpha):
    jac = np.zeros((len(lengths), len(params)))
    for i in range(len(params)):
        h = 1e-6 * max(abs(params[i]), 1.0)
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = (func(lengths, up, alpha) - func(lengths, dn, alpha)) / (2 * h)
    return jac


def scalar_fit(ds, model, alpha, init=None, max_iterations=200):
    """analysis.fit as one scalar Levenberg-Marquardt loop on 1-d arrays."""
    m = analysis.MODELS[model]
    lengths, f_l, sigma = length_moments(ds)
    theta = (np.asarray(init, dtype=float).copy() if init is not None
             else initial_guess(m, lengths, f_l, alpha))

    def residual(th):
        return (f_l - m.func(lengths, th, alpha)) / sigma

    r = residual(theta)
    cost = float(r @ r)
    lam = 1e-3
    trace = [cost]
    converged = False
    for it in range(max_iterations):
        jac = _scalar_jacobian(m.func, lengths, theta, alpha) / sigma[:, None]
        jtj = jac.T @ jac
        g = jac.T @ r
        step_ok = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(
                    jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30)), g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            trial = theta + delta
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                step_ok = True
                break
            lam *= 10
        if not step_ok:
            break
        rel = (cost - cost_trial) / max(cost, 1e-300)
        theta, r, cost = trial, r_trial, cost_trial
        trace.append(cost)
        lam = max(lam / 3, 1e-12)
        if rel < 1e-14 or np.max(np.abs(delta)) < 1e-14:
            converged = True
            break
    else:
        raise analysis.FitError("fit did not converge", trace)

    jac = _scalar_jacobian(m.func, lengths, theta, alpha) / sigma[:, None]
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    dof = len(lengths) - m.n_params
    p = analysis.chi2_sf(cost, dof) if dof > 0 else float("nan")
    return analysis.FitReport(
        model=model, alpha=alpha, param_names=m.param_names, params=theta,
        covariance=cov, chi2=cost, dof=dof, p_value=p,
        significant=bool(p < 1 - analysis.SIGNIFICANCE),
        lengths=lengths.astype(int),
        residuals=f_l - m.func(lengths, theta, alpha),
        n_iterations=len(trace) - 1, objective_trace=trace,
        converged=converged)


def bootstrap_loop(ds, model, alpha, n_resamples=1000, rng=None):
    """analysis.bootstrap as a loop of replicates: each one builds an
    RBDataset from one scalar draw per resampled row and refits it with
    `scalar_fit`, covariance included."""
    rng = np.random.default_rng() if rng is None else rng
    base = scalar_fit(ds, model, alpha)
    by_length = {}
    for _, l, _, ns, nc in ds.rows:
        by_length.setdefault(l, []).append((ns, nc))

    samples = []
    failures = 0
    iterations = 0
    for _ in range(n_resamples):
        rows = []
        for l, seqs in by_length.items():
            picks = rng.integers(0, len(seqs), size=len(seqs))
            for j, k in enumerate(picks):
                ns, nc = seqs[k]
                rows.append(("boot", l, j, ns,
                             int(rng.binomial(ns, nc / ns))))
        try:
            rep = scalar_fit(RBDataset(rows), model, alpha, init=base.params)
            samples.append(rep.params)
            iterations += rep.n_iterations
        except (analysis.FitError, np.linalg.LinAlgError) as err:
            failures += 1
            iterations += len(getattr(err, "trace", [0])) - 1
    if failures > 0.1 * n_resamples:
        raise analysis.FitError(f"{failures}/{n_resamples} bootstrap "
                                "replicates failed to fit")

    arr = np.array(samples)
    means = arr.mean(axis=0)
    ses = arr.std(axis=0, ddof=1)
    biases = means - base.params
    cov2 = np.cov(arr[:, :2].T)
    vals, vecs = np.linalg.eigh(cov2)
    vals = np.clip(vals, 0.0, None)
    axes = (np.sqrt(analysis._ELLIPSE_QUANTILE * vals)[:, None] * vecs.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        flags = np.abs(biases) > 0.25 * ses
    return analysis.BootstrapReport(
        n_resamples=n_resamples,
        param_names=analysis.MODELS[model].param_names, samples=arr, original=base.params.copy(), means=means, biases=biases,
        standard_errors=ses, bias_significant=flags, ellipse_center=means[:2],
        ellipse_axes=axes, n_failures=failures, lm_iterations=iterations)


def rand_bits_loop(rng, nbits):
    """Uniform nbits-bit integer drawn as 32-bit chunks, low chunk first."""
    out = 0
    shift = 0
    while shift < nbits:
        take = min(32, nbits - shift)
        out |= (int(rng.integers(0, 1 << take)) << shift)
        shift += take
    return out


def solve_affine(constraints, nbits):
    """Solve parity(w & v) = b for all (w, b); return (particular, null
    basis), eliminating every constraint afresh."""
    pivots = []  # (col, w, b)
    for w, b in constraints:
        for col, pw, pb in pivots:
            if (w >> col) & 1:
                w ^= pw
                b ^= pb
        if w == 0:
            if b:
                raise ValueError("inconsistent linear system")
            continue
        col = w.bit_length() - 1
        pivots = [(c, pw ^ (w if (pw >> col) & 1 else 0),
                   pb ^ (b if (pw >> col) & 1 else 0)) for c, pw, pb in pivots]
        pivots.append((col, w, b))
    pivot_cols = {c for c, _, _ in pivots}
    particular = 0
    for c, _, b in pivots:
        if b:
            particular |= 1 << c
    basis = []
    for f in range(nbits):
        if f in pivot_cols:
            continue
        v = 1 << f
        for c, w, _ in pivots:
            if (w >> f) & 1:
                v |= 1 << c
        basis.append(v)
    return particular, basis


def xor_combo(basis, index):
    """XOR of the basis vectors named by the bits of index, lowest first."""
    v = 0
    for b in basis:
        if index & 1:
            v ^= b
        index >>= 1
    return v


def sample_images_loop(n, draw):
    """clifford._sample_images with `solve_affine` called at every step on
    constraints rebuilt from the images chosen so far, every random index
    taken from ``draw(nbits)``."""
    xi = []
    zi = []
    for _ in range(n):
        constraints = [(_flip(v, n), 0)
                       for pair in zip(xi, zi) for v in pair]
        _, basis = solve_affine(constraints, 2 * n)
        while True:
            vx = xor_combo(basis, draw(len(basis)))
            if vx:
                break
        part, basis_z = solve_affine(constraints + [(_flip(vx, n), 1)], 2 * n)
        vz = part ^ xor_combo(basis_z, draw(len(basis_z)))
        xi.append(vx)
        zi.append(vz)
    return tuple(xi + zi)


def sample_uniform_loop(n, rng):
    """clifford.sample_uniform from `sample_images_loop`, drawing its bits
    32 at a time in a loop."""
    vecs = sample_images_loop(n, lambda nbits: rand_bits_loop(rng, nbits))
    return CliffordTableau(n, vecs, rand_bits_loop(rng, 2 * n))


def channel_eigenvalue(ch, v):
    """Pauli eigenvalue λ(v) = Σ_E w_E (-1)^<E,v> of the channel, summed
    afresh in weight order."""
    n = ch.n_qubits
    return sum(-w if ((op.x_mask & (v >> n)) ^ (op.z_mask & v)).bit_count() & 1
               else w for op, w in ch.weights.items())


def compose_by_rows(c, d):
    """Tableau of C∘D (apply d first), one `_image_sign` per image of d."""
    if c.n_qubits != d.n_qubits:
        raise PauliDimensionError("tableau size mismatch")
    vecs = []
    signs = 0
    for i, v in enumerate(d.vecs):
        out, sign = packed._image_sign(c, v, (d.signs >> i) & 1)
        vecs.append(out)
        signs |= sign << i
    return CliffordTableau(c.n_qubits, tuple(vecs), signs)


# ---------------------------------------------------------------------------
# group walks (enumeration and the draw index)


def enumerate_group_recursive(n, quotient=False):
    """clifford.enumerate_group as a Gray-code recursion over the per-step
    image choices, solving each step's linear systems afresh."""
    out = []
    sign_patterns = [0] if quotient else list(range(1 << (2 * n)))
    xi = []
    zi = []

    def rec(k):
        if k == n:
            vecs = tuple(xi + zi)
            for s in sign_patterns:
                out.append(CliffordTableau(n, vecs, s))
            return
        constraints = [(_flip(v, n), 0)
                       for pair in zip(xi, zi) for v in pair]
        _, basis = solve_affine(constraints, 2 * n)
        vx = 0
        for i in range(1, 1 << len(basis)):
            vx ^= basis[(i & -i).bit_length() - 1]  # Gray-code walk
            part, basis_z = solve_affine(
                constraints + [(_flip(vx, n), 1)], 2 * n)
            vz = part
            xi.append(vx)
            zi.append(vz)
            rec(k + 1)
            for j in range(1, 1 << len(basis_z)):
                vz ^= basis_z[(j & -j).bit_length() - 1]
                zi[-1] = vz
                rec(k + 1)
            xi.pop()
            zi.pop()

    rec(0)
    return out


def replay_draws(n):
    """The sign-free tableau named by every packed draw key (first draw
    highest, X then Z width for each step), found by running
    `sample_images_loop` on the key's draws; None where an X draw is 0."""
    widths = [w for k in range(n, 0, -1) for w in (2 * k, 2 * k - 1)]
    out = []
    for key in range(1 << sum(widths)):
        shift, values = sum(widths), []
        for w in widths:
            shift -= w
            values.append(key >> shift & ((1 << w) - 1))
        if not all(values[::2]):
            out.append(None)
            continue
        draws = iter(values)
        out.append(CliffordTableau(
            n, sample_images_loop(n, lambda nbits: next(draws))))
    return out


# ---------------------------------------------------------------------------
# test helpers moved out of the library


def check_gssf(state):
    """Raise unless the three GSSF conditions hold."""
    n = len(state.vecs)
    for c in range(n):
        if state.diag(c) == "I":
            raise InvalidStateError(f"column {c}: identity diagonal")
        for r in range(n):
            if r == c:
                continue
            e = state.entry(r, c)
            if e != "I":
                if e != state.neighbor[c] or e == state.diag(c):
                    raise InvalidStateError(
                        f"column {c}: off-diagonal entry {e} at row {r}")
            if (e == "I") != (state.entry(c, r) == "I"):
                raise InvalidStateError(
                    f"identity pattern not symmetric at ({r},{c})")


def canonical_row_span(state):
    """Canonical form of the signed stabilizer group (RREF over GF(2) of
    packed rows, carrying signs along); equal iff the states are equal."""
    n = state.n_qubits
    pivots = []  # (vec, sign, column)
    for r, v in enumerate(state.vecs):
        s = state.sign(r)
        for pv, ps, col in pivots:
            if (v >> col) & 1:
                v, s = _pauli_product(v, s, pv, ps, n)
        if v == 0:
            raise InvalidStateError("dependent rows")
        col = v.bit_length() - 1
        pivots = [(*_pauli_product(pv, ps, v, s, n), pcol)
                  if (pv >> col) & 1 else (pv, ps, pcol)
                  for pv, ps, pcol in pivots] + [(v, s, col)]
    return tuple(sorted((v, 2 * s) for v, s, _ in pivots))


def kraus(s, tol=1e-12):
    """Kraus operators of a dense channel, from the eigenvectors of chi."""
    vals, vecs = np.linalg.eigh((s.chi + s.chi.conj().T) / 2)
    if np.any(vals < -1e-9):
        raise ValueError("process matrix is not completely positive")
    keep = vals > tol
    weighted = (vecs[:, keep] * np.sqrt(vals[keep])).T
    return list(np.tensordot(weighted, _basis_stack(s.n_qubits), 1))


def random_tp_channel(n_qubits, rng):
    """Random trace-preserving channel with four Kraus operators, from a
    Haar-ish random isometry."""
    d = 2 ** n_qubits
    g = rng.normal(size=(4 * d, d)) + 1j * rng.normal(size=(4 * d, d))
    q, _ = np.linalg.qr(g)
    kraus = [q[i * d:(i + 1) * d, :] for i in range(4)]
    return DenseSuperoperator.from_kraus(n_qubits, kraus)


def pauli_error(op, p):
    """Apply `op` with probability p, identity otherwise."""
    rep = op.representative()
    ident = PauliOperator.identity(op.n_qubits)
    if rep.is_identity():
        return PauliChannel(op.n_qubits, {ident: 1.0})
    return PauliChannel(op.n_qubits, {ident: 1.0 - p, rep: p})


def model_predict(model, lengths, params, alpha):
    m = analysis.MODELS[model]
    return np.asarray(
        m.func(np.asarray(lengths, dtype=float), np.asarray(params, float),
               alpha), dtype=float)


def ellipse_contains(rep, point):
    """True iff point lies in the bootstrap report's 95 % confidence
    ellipse, measured with the covariance of its samples."""
    cov = np.cov(rep.samples[:, :2].T)
    delta = np.asarray(point, float) - rep.ellipse_center
    try:
        dist2 = float(delta @ np.linalg.solve(cov, delta))
    except np.linalg.LinAlgError:
        return bool(np.allclose(delta, 0, atol=1e-12))
    return dist2 <= analysis._ELLIPSE_QUANTILE


def builtin_gates():
    """Registry of named standard gates (a copy)."""
    return dict(_REGISTRY)


def generates_clifford_group(gs, n, quotient=False):
    """True iff the closure of the gate set under composition is all of C_n
    (or its Pauli quotient)."""
    if n > 2:
        raise ValueError("generation check enumerates the group; n <= 2 only")
    try:
        cayley_search(gs, n, quotient, primary_gates=())
    except CoverageError:
        return False
    return True


def pauli_to_field(ctx, p):
    """Field pair (a, c) of a Pauli: its X part over the basis, its Z part
    over the dual basis."""
    a = c = 0
    for i in range(ctx.n):
        if (p.x_mask >> i) & 1:
            a ^= ctx.basis[i]
        if (p.z_mask >> i) & 1:
            c ^= ctx.dual[i]
    return a, c


def vectorial_power(ctx, p, k):
    """Raise a (phase-0) Pauli to a field-element power: (a, c) -> (k*a, k*c)."""
    if p.phase != 0:
        raise ValueError("vectorial powers are defined on phase-0 operators")
    a, c = pauli_to_field(ctx, p)
    return field_to_pauli(ctx, field_mul(ctx, k, a), field_mul(ctx, k, c))


def sample_choice_counts(n):
    """Per-step (X-image, Z-image) choice-set sizes of the uniform sampler,
    its nonzero X draws and all its Z draws, each with either sign; their
    product is exactly group_order(n)."""
    return [(2 * ((1 << wx) - 1), 1 << (wz + 1))
            for wx, wz in packed._draw_widths(n)]


def q_subgroup(n):
    """subgroups.q_subgroup with every image decoded by field arithmetic,
    two `field_to_pauli` calls per qubit and element."""
    if n > 4:
        raise ValueError("subgroup enumeration limited to n <= 4")
    ctx = field_context(n)
    out = []
    for ac in range(1, 1 << (2 * n)):
        a, c = ac & ((1 << n) - 1), ac >> n
        # all (d, e) with c*d + a*e = 1
        if a != 0:
            a_inv = field_inv(ctx, a)
            solutions = [(d, field_mul(ctx, 1 ^ field_mul(ctx, c, d), a_inv))
                         for d in range(1 << n)]
        else:
            c_inv = field_inv(ctx, c)
            solutions = [(c_inv, e) for e in range(1 << n)]
        for d, e in solutions:
            xs = [field_to_pauli(ctx, field_mul(ctx, a, ctx.basis[i]),
                                 field_mul(ctx, c, ctx.basis[i]))
                  for i in range(n)]
            zs = [field_to_pauli(ctx, field_mul(ctx, d, ctx.dual[i]),
                                 field_mul(ctx, e, ctx.dual[i]))
                  for i in range(n)]
            out.append(CliffordTableau.from_images(xs, zs))
    return out
