"""Named standard gates (tableau + dense matrix) and named gate sets.

Dense matrices use the convention that bit k of the basis index is the k-th
listed qubit (so the first index a two-qubit gate is applied at is the
low-order bit).  Every registered gate is checked at import time: conjugating
each generator Pauli by the dense matrix must reproduce the tableau image
including its sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .clifford import (
    CliffordTableau,
    GateSequence,
    SlicedForm,
    _label_tables,
    _sliced_form,
    _sliced_update,
    _transpose_bits,
    clifford_apply,
    clifford_inverse,
    embed_tableau,
)
from .dense import _paulis
from .pauli import PauliDimensionError, PauliOperator, pauli_support

_SQ2 = 1.0 / np.sqrt(2.0)

# the 4x4 basis permutation taking "first listed qubit = high bit" matrices
# (the conventional textbook layout) to our low-bit-first convention
_SWAP44 = np.eye(4)[[0, 2, 1, 3]]


def _hi(mat: np.ndarray) -> np.ndarray:
    """Convert a two-qubit matrix written control-as-high-bit to our layout."""
    return _SWAP44 @ np.asarray(mat, dtype=complex) @ _SWAP44


@dataclass(frozen=True)
class GateDefinition:
    """A named gate.  `local` is its signed Pauli-label table, the
    (images, flips) lists of its `clifford._label_tables` row; `sliced` is
    that table's `clifford._sliced_form`, which applies the gate to bit
    columns of packed rows."""

    name: str
    arity: int
    tableau: CliffordTableau
    dense: np.ndarray

    def __post_init__(self):
        if self.tableau.n_qubits != self.arity:
            raise ValueError("tableau arity mismatch")
        if self.dense.shape != (2 ** self.arity, 2 ** self.arity):
            raise ValueError("dense matrix shape mismatch")
        _check_consistency(self)

    @cached_property
    def local(self) -> Tuple[List[int], List[int]]:
        images, flips = _label_tables([self.tableau])
        return images[0].tolist(), flips[0].tolist()

    @cached_property
    def sliced(self) -> SlicedForm:
        return _sliced_form(*self.local)


def _check_consistency(g: GateDefinition) -> None:
    """The dense matrix is unitary, and it conjugates every generator at
    once (label 1 << b, tableau row b) to that row's Pauli, signed by sign
    bit b."""
    u, n = g.dense, g.arity
    if not np.allclose(u @ u.conj().T, np.eye(2 ** n), atol=1e-12):
        raise ValueError(f"gate {g.name}: dense matrix is not unitary")
    rows = [b for i in range(n) for b in (i, n + i)]  # X_i, then Z_i
    tab = g.tableau
    paulis = _paulis(n, [1 << b for b in rows] + [tab.vecs[b] for b in rows])
    got = u @ paulis[:2 * n] @ u.conj().T
    want = paulis[2 * n:] * np.array(
        [(-1) ** (tab.signs >> b & 1) for b in rows])[:, None, None]
    agree = np.isclose(got, want, atol=1e-12).all(axis=(1, 2))
    if not agree.all():
        b = rows[int(np.argmin(agree))]
        p = PauliOperator.single(n, b % n, "XZ"[b // n])
        raise ValueError(
            f"gate {g.name}: tableau and dense action disagree on {p}")


def _gate(name: str, image_x: List[str], image_z: List[str], dense) -> GateDefinition:
    return GateDefinition(
        name=name,
        arity=len(image_x),
        tableau=CliffordTableau.from_image_strings(image_x, image_z),
        dense=np.asarray(dense, dtype=complex),
    )


def _build_registry() -> Dict[str, GateDefinition]:
    # the unitary realizing the conjugation action X -> Y, Z -> X
    t_dense = _SQ2 * np.array([[1, -1j], [1, 1j]])
    gates = [
        _gate("I", ["X"], ["Z"], np.eye(2)),
        _gate("X", ["X"], ["-Z"], [[0, 1], [1, 0]]),
        _gate("Z", ["-X"], ["Z"], [[1, 0], [0, -1]]),
        _gate("Y", ["-X"], ["-Z"], [[0, -1j], [1j, 0]]),
        _gate("X90", ["X"], ["-Y"], _SQ2 * np.array([[1, -1j], [-1j, 1]])),
        _gate("S", ["Y"], ["Z"], [[1, 0], [0, 1j]]),
        _gate("T", ["Y"], ["X"], t_dense),
        _gate("H", ["Z"], ["X"], _SQ2 * np.array([[1, 1], [1, -1]])),
        _gate("CX", ["XX", "IX"], ["ZI", "ZZ"],
              _hi([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
        _gate("CZ", ["XZ", "ZX"], ["ZI", "IZ"], np.diag([1, 1, 1, -1])),
        # MS and G are normalized to unitarity; the MS phase convention is the
        # one consistent with its conjugation action (exp(-i pi/4 X⊗X))
        _gate("MS", ["XI", "IX"], ["-YX", "-XY"],
              _SQ2 * np.array([[1, 0, 0, -1j], [0, 1, -1j, 0],
                               [0, -1j, 1, 0], [-1j, 0, 0, 1]])),
        _gate("G", ["YZ", "ZY"], ["ZI", "IZ"], 1j * np.diag([1, 1j, 1j, 1])),
        # rotation-angle variants and inverses (distinct names on purpose)
        _gate("X90m", ["X"], ["Y"], _SQ2 * np.array([[1, 1j], [1j, 1]])),
        _gate("Y90", ["-Z"], ["X"], _SQ2 * np.array([[1, -1], [1, 1]])),
        _gate("Y90m", ["Z"], ["-X"], _SQ2 * np.array([[1, 1], [-1, 1]])),
        _gate("Sdg", ["-Y"], ["Z"], [[1, 0], [0, -1j]]),
        _gate("T2", ["Z"], ["Y"], t_dense @ t_dense),
    ]
    return {g.name: g for g in gates}


_REGISTRY = _build_registry()

# aliases from common notation
_ALIASES = {"Z90": "S", "P": "S", "Z90m": "Sdg", "CNOT": "CX", "Tdg": "T2"}

# each gate's inverse is the registered gate with the inverse tableau, if any
_NAME_OF = {g.tableau: name for name, g in _REGISTRY.items()}
INVERSE_NAMES = {name: _NAME_OF.get(clifford_inverse(g.tableau))
                 for name, g in _REGISTRY.items()}


def get_gate(name: str) -> GateDefinition:
    return _REGISTRY[_ALIASES.get(name, name)]


@dataclass(frozen=True)
class GateSet:
    """A named gate vocabulary with qubit-index patterns and search weights.

    A pattern is "each" (every single qubit), "all-pairs" (every ordered
    pair), or an explicit tuple of index tuples.
    """

    name: str
    gates: Tuple[Tuple[str, Union[str, Tuple[Tuple[int, ...], ...]], float], ...]

    def __post_init__(self):
        for gname, pattern, weight in self.gates:
            get_gate(gname)
            if weight < 0:
                raise ValueError("weights must be non-negative")
            if isinstance(pattern, str) and pattern not in ("each", "all-pairs"):
                raise ValueError(f"unknown pattern {pattern!r}")

    def moves(self, n: int) -> List[Tuple[str, Tuple[int, ...], float]]:
        out = []
        for gname, pattern, weight in self.gates:
            gate = get_gate(gname)
            if pattern == "each":
                idx_sets = [(i,) for i in range(n)]
            elif pattern == "all-pairs":
                idx_sets = [(i, j) for i in range(n) for j in range(n) if i != j]
            else:
                idx_sets = list(pattern)
            for idxs in idx_sets:
                if len(idxs) != gate.arity or len(set(idxs)) != gate.arity:
                    raise ValueError(f"{gname} takes {gate.arity} distinct "
                                     f"indices, got {tuple(idxs)}")
                if all(i < n for i in idxs):
                    out.append((gname, tuple(idxs), weight))
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "gates": [
                {"gate": g,
                 "qubits": p if isinstance(p, str) else [list(q) for q in p],
                 "weight": w}
                for g, p, w in self.gates
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GateSet":
        gates = []
        for entry in obj["gates"]:
            pattern = entry["qubits"]
            if not isinstance(pattern, str):
                pattern = tuple(tuple(q) for q in pattern)
            gates.append((entry["gate"], pattern, float(entry.get("weight", 1.0))))
        return cls(obj["name"], tuple(gates))


def standard_gate_set() -> GateSet:
    """One-qubit Cliffords (H/S generators plus rotations) and CX/CZ."""
    return GateSet("standard", (
        ("H", "each", 1.0),
        ("S", "each", 1.0),
        ("Sdg", "each", 1.0),
        ("X90", "each", 1.0),
        ("X90m", "each", 1.0),
        ("CX", "all-pairs", 1.0),
        ("CZ", "all-pairs", 1.0),
    ))


def sequence_tableau(seq: GateSequence) -> CliffordTableau:
    """Compose a gate sequence against the builtin registry.  The 2n packed
    images are held as their 2n bit columns (bit r of column c is bit c of
    image r); each gate rewrites its own 2·arity columns and the sign mask
    with `clifford._sliced_update`, and the columns are transposed back to
    images once, at the end."""
    n = seq.n_qubits
    cols = [1 << i for i in range(2 * n)]
    signs = 0
    for name, idxs in seq.gates:
        gate = get_gate(name)
        if len(idxs) != gate.arity:
            raise ValueError(f"{name} takes {gate.arity} indices")
        slots = idxs + tuple(n + i for i in idxs)
        outs, flip = _sliced_update(gate.sliced, [cols[s] for s in slots])
        for s, col in zip(slots, outs):
            cols[s] = col
        signs ^= flip
    return CliffordTableau(n, tuple(_transpose_bits(cols, 2 * n)), signs)


def invert_sequence(gates: Sequence[Tuple[str, Tuple[int, ...]]]
                    ) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Reverse a (gate name, qubit indices) list, replacing each gate by its
    named inverse."""
    out = []
    for name, idxs in reversed(gates):
        inv = INVERSE_NAMES.get(_ALIASES.get(name, name))
        if inv is None:
            raise ValueError(f"gate {name} has no registered named inverse")
        if inv != "I":
            out.append((inv, idxs))
    return tuple(out)


# single-qubit gate mapping factor σ to ±τ (unsigned coset choices)
_ONE_QUBIT_MAP = {
    ("X", "X"): "I", ("Y", "Y"): "I", ("Z", "Z"): "I",
    ("X", "Y"): "S", ("Y", "X"): "Sdg",
    ("X", "Z"): "H", ("Z", "X"): "H",
    ("Y", "Z"): "X90", ("Z", "Y"): "X90",
}


def find_mapping(p: PauliOperator, q: PauliOperator) -> GateSequence:
    """O(n)-gate sequence whose composed tableau maps p to ±q.

    Construction: align first supports with a SWAP (emitted as 3 CX), rotate
    p's factors to X at the anchor and Z elsewhere, fix the support
    difference with CZ gates from the anchor, then rotate every factor to
    match q.
    """
    if p.is_identity() or q.is_identity():
        raise ValueError("mapping endpoints must be non-identity")
    if p.n_qubits != q.n_qubits:
        raise PauliDimensionError("operand size mismatch")
    n = p.n_qubits
    if p.representative() == q.representative():
        return GateSequence(n, ())
    gates: List[Tuple[str, Tuple[int, ...]]] = []
    cur = p.representative()

    def emit(name: str, idxs: Tuple[int, ...]) -> None:
        nonlocal cur
        if name == "I":
            return
        gates.append((name, idxs))
        cur = clifford_apply(embed_tableau(get_gate(name).tableau, idxs, n), cur)

    l = min(pauli_support(cur))
    m = min(pauli_support(q))
    if l != m:
        emit("CX", (l, m))
        emit("CX", (m, l))
        emit("CX", (l, m))
    emit(_ONE_QUBIT_MAP[(cur.factor(m), "X")], (m,))
    for a in sorted(pauli_support(cur)):
        if a != m:
            emit(_ONE_QUBIT_MAP[(cur.factor(a), "Z")], (a,))
    for a in sorted(pauli_support(cur) ^ pauli_support(q)):
        emit("CZ", (m, a))
    for a in sorted(pauli_support(q)):
        emit(_ONE_QUBIT_MAP[(cur.factor(a), q.factor(a))], (a,))
    assert cur.representative() == q.representative(), "mapping construction failed"
    return GateSequence(n, tuple(gates))
