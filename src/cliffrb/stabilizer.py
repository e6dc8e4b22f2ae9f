"""Stabilizer-state simulation in graph-state standard form (GSSF).

`StabilizerState` holds n commuting signed Pauli rows: row r is the
factor-form Pauli (-1)^sign(r) · X^x Z^z, packed as ``x | z << n`` plus one
bit of a sign mask (Aaronson & Gottesman, quant-ph/0406196; Stim).  Row
swaps and row products act on the ints.  `gssf_reduce` needs only the
`ReducibleRows` methods, which the bit-sliced Choi matrix that
`decomp.block_decompose` reduces also has.

GSSF means: every column has a non-identity diagonal entry; every other
non-identity entry in a column equals that column's designated neighbor
operator, which anticommutes with the diagonal; and the identity pattern is
symmetric.  Two single-qubit factors anticommute when neither is I and they
differ.  `gssf_reduce` restores GSSF with row swaps and row products only.
"""

from __future__ import annotations

from typing import (Iterable, List, Optional, Protocol, Sequence, Tuple,
                    Union)

from .clifford import (
    CliffordTableau,
    _image_sign,
    _rand_bits,
    _solve_affine,
    clifford_apply,
    clifford_inverse,
    embed_tableau,
)
from .gates import find_mapping, sequence_tableau
from .pauli import (_FACTOR, PauliDimensionError, PauliOperator, _pack,
                    _pauli_product, _unpack, pauli_commutes)


class InvalidStateError(ValueError):
    pass


def default_neighbor(diag: str) -> str:
    """Neighbor operator of a column with no anticommuting off-diagonal
    entry: Z, or X when the diagonal is Z."""
    return "X" if diag == "Z" else "Z"


class ReducibleRows(Protocol):
    """The row operations `gssf_reduce` uses."""

    def entry(self, r: int, q: int) -> str: ...

    def swap_rows(self, a: int, b: int) -> None: ...

    def mul_rows(self, dst: int, src: int) -> None: ...


def gssf_reduce(m: ReducibleRows, n: int, fixed: Iterable[int],
                neighbor: List[Optional[str]], offset: int = 0) -> None:
    """Reduce rows offset..offset+n-1 of m over the columns 0..n-1 of
    `m.entry` to GSSF with row swaps and row products only, starting from
    the already-good columns in `fixed`; the neighbor operator chosen for
    column c is written to neighbor[c].

    The order of swaps and products is part of the behaviour: stabilizer
    draws and block-decomposition gate choices depend on the row order
    left."""
    fixed = set(fixed)
    while len(fixed) < n:
        r = next(i for i in range(n) if i not in fixed)
        d = next((c for c in range(n)
                  if c not in fixed and m.entry(offset + r, c) != "I"), None)
        if d is None:
            raise InvalidStateError("rows are not independent")
        m.swap_rows(offset + r, offset + d)
        diag = m.entry(offset + d, d)
        others = [a for a in range(offset, offset + n) if a != offset + d]
        nb = next((e for e in (m.entry(a, d) for a in others)
                   if e != "I" and e != diag), None) or default_neighbor(diag)
        neighbor[d] = nb
        for a in others:
            e = m.entry(a, d)
            if e != "I" and e != nb:
                m.mul_rows(a, offset + d)
        fixed.add(d)


class StabilizerState:
    """Single-owner mutable stabilizer state; create via zero_state() or
    reduce_gssf().  `vecs[r]` is ``x | z << n`` of row r and bit r of
    `signs` its sign; `neighbor[c]` is column c's neighbor operator."""

    def __init__(self, rows: Sequence[PauliOperator],
                 neighbor: Optional[List[Optional[str]]] = None):
        self.n_qubits = rows[0].n_qubits if rows else 0
        self.vecs = [_pack(r) for r in rows]
        self.signs = sum(r.sign_bit << i for i, r in enumerate(rows))
        self.neighbor: List[Optional[str]] = (
            list(neighbor) if neighbor else [None] * len(rows))

    def entry(self, r: int, q: int) -> str:
        """Factor of row r at qubit q."""
        v = self.vecs[r] >> q
        return _FACTOR[(v & 1) | (v >> self.n_qubits & 1) << 1]

    def sign(self, r: int) -> int:
        return (self.signs >> r) & 1

    def swap_rows(self, a: int, b: int) -> None:
        self.vecs[a], self.vecs[b] = self.vecs[b], self.vecs[a]
        if self.sign(a) != self.sign(b):
            self.signs ^= (1 << a) | (1 << b)

    def mul_rows(self, dst: int, src: int) -> None:
        """Row dst *= row src (the rows must commute)."""
        self.vecs[dst], s = _pauli_product(
            self.vecs[dst], self.sign(dst), self.vecs[src], self.sign(src),
            self.n_qubits)
        self.signs ^= (s ^ self.sign(dst)) << dst

    def product(self, mask: int) -> Tuple[int, int]:
        """(vec, sign) of the product of the rows selected by mask."""
        vec = sign = 0
        for r, v in enumerate(self.vecs):
            if (mask >> r) & 1:
                vec, sign = _pauli_product(vec, sign, v, self.sign(r),
                                           self.n_qubits)
        return vec, sign

    @property
    def rows(self) -> List[PauliOperator]:
        """The rows as new `PauliOperator`s (read-only view)."""
        return [_unpack(v, self.n_qubits, self.sign(r))
                for r, v in enumerate(self.vecs)]

    def copy(self) -> "StabilizerState":
        return StabilizerState(self.rows, self.neighbor)

    def diag(self, c: int) -> str:
        return self.entry(c, c)

    def __str__(self) -> str:
        return "\n".join(str(row) for row in self.rows)


def zero_state(n: int) -> StabilizerState:
    """|0...0>: rows +Z_j."""
    state = StabilizerState([])
    for _ in range(n):
        prepare_zero(state)
    return state


def prepare_zero(state: StabilizerState) -> StabilizerState:
    """Append one qubit in |0>: a new +Z row/column; GSSF is preserved."""
    n = state.n_qubits
    low = (1 << n) - 1
    state.vecs = [(v & low) | (v >> n) << (n + 1)
                  for v in state.vecs] + [1 << (2 * n + 1)]
    state.neighbor.append(None)
    state.n_qubits = n + 1
    return state


def reduce_gssf(rows: Sequence[PauliOperator]) -> StabilizerState:
    """Build a GSSF state from n commuting independent signed rows on n
    qubits."""
    rows = list(rows)
    n = rows[0].n_qubits if rows else 0
    if len(rows) != n:
        raise InvalidStateError(
            f"{len(rows)} rows on {n} qubits; a state needs one per qubit")
    for i, a in enumerate(rows):
        if a.phase % 2:
            raise InvalidStateError("row signs must be real")
        for b in rows[i + 1:]:
            if not pauli_commutes(a, b):
                raise InvalidStateError("rows do not commute")
    state = StabilizerState(rows)
    gssf_reduce(state, n, (), state.neighbor)
    return state


def apply_clifford(state: StabilizerState,
                   c: Union[CliffordTableau, "GateDefinition"],
                   indices: Optional[Sequence[int]] = None) -> StabilizerState:
    """Conjugate every row by the operator and restore GSSF on its support.
    With indices, the operator is embedded at those qubits first
    (`embed_tableau` checks them)."""
    tab = c if isinstance(c, CliffordTableau) else c.tableau
    if indices is not None:
        tab = embed_tableau(tab, tuple(indices), state.n_qubits)
    elif tab.n_qubits != state.n_qubits:
        raise ValueError("tableau size mismatch")
    n = tab.n_qubits
    mask = (1 << n) - 1
    moved = 0  # qubits of every image that differs from its generator
    for i, v in enumerate(tab.vecs):
        if v != (1 << i) or (tab.signs >> i) & 1:
            moved |= (1 << (i % n)) | ((v | v >> n) & mask)
    support = {j for j in range(n) if (moved >> j) & 1}
    signs = 0
    for r, v in enumerate(state.vecs):
        state.vecs[r], s = _image_sign(tab, v, state.sign(r))
        signs |= s << r
    state.signs = signs
    gssf_reduce(state, n, set(range(n)) - support, state.neighbor)
    return state


def measure_z(state: StabilizerState, j: int, rng) -> Tuple[int, StabilizerState]:
    """Measure Z on qubit j: deterministic when ±Z_j is in the stabilizer
    group, otherwise a fair coin consuming exactly one rng bit."""
    if j >= state.n_qubits or j < 0:
        raise IndexError("qubit index out of range")
    n = state.n_qubits
    # Step 1: deterministic case, or rotate the diagonal away from Z.
    for _ in range(n + 1):
        if state.diag(j) != "Z":
            break
        others = [i for i in range(n) if i != j and state.entry(i, j) != "I"]
        if not others:
            return state.sign(j), state
        state.swap_rows(others[0], j)
        gssf_reduce(state, n, set(range(n)) - {others[0], j}, state.neighbor)
    else:
        raise InvalidStateError("measurement step 1 failed to converge")
    # Step 2: make the column's neighbor operator Z.
    if state.neighbor[j] != "Z":
        for i in range(n):
            if i != j and state.entry(i, j) != "I":
                state.mul_rows(i, j)
        state.neighbor[j] = "Z"
    # Step 3: random outcome; new stabilizer ±Z_j replaces row j.
    outcome = int(rng.integers(0, 2))
    state.vecs[j] = 1 << (n + j)
    state.signs = state.signs & ~(1 << j) | outcome << j
    for r in range(n):
        if r != j and state.entry(r, j) != "I":
            state.mul_rows(r, j)
    state.neighbor[j] = None
    return outcome, state


def measure_pauli(state: StabilizerState, p: PauliOperator, rng) -> Tuple[int, StabilizerState]:
    """Measure a general Pauli by rotating it onto a single-qubit Z."""
    if p.is_identity():
        raise ValueError("cannot measure the identity")
    if p.phase % 2:
        raise ValueError("measured operator must be Hermitian (real sign)")
    rep = p.representative()
    target = PauliOperator.single(p.n_qubits, 0, "Z")
    t = sequence_tableau(find_mapping(rep, target))
    flip = clifford_apply(t, rep).sign_bit ^ p.sign_bit
    apply_clifford(state, t)
    outcome, _ = measure_z(state, 0, rng)
    apply_clifford(state, clifford_inverse(t))
    return outcome ^ flip, state


# ---------------------------------------------------------------------------
# group-membership helpers


def stabilizer_decomposition(state: StabilizerState, p: PauliOperator
                             ) -> Optional[Tuple[int, int]]:
    """If ±p is in the stabilizer group, return (row_mask, sign_bit) with
    product over the masked rows equal to (-1)^sign_bit · p; else None."""
    n = state.n_qubits
    if p.n_qubits != n:
        raise PauliDimensionError(
            f"{p.n_qubits}-qubit Pauli on a {n}-qubit state")
    target = _pack(p)
    # one constraint per packed bit; the rows are independent, so the
    # solution (if any) is unique
    constraints = [(sum(((v >> k) & 1) << i for i, v in enumerate(state.vecs)),
                    (target >> k) & 1) for k in range(2 * n)]
    try:
        m, _ = _solve_affine(constraints, n)
    except ValueError:
        return None
    vec, sign = state.product(m)
    assert vec == target
    return m, sign ^ p.sign_bit


def deterministic_z_outcome(state: StabilizerState, j: int) -> Optional[int]:
    """Outcome of a Z_j measurement if it is deterministic, else None."""
    dec = stabilizer_decomposition(state, PauliOperator.single(state.n_qubits, j, "Z"))
    return None if dec is None else dec[1]


def random_stabilizer_element(state: StabilizerState, rng) -> PauliOperator:
    """Uniform draw from the 2ⁿ−1 non-identity elements of the stabilizer group."""
    n = state.n_qubits
    mask = 0
    while mask == 0:
        mask = _rand_bits(rng, n)
    vec, sign = state.product(mask)
    return _unpack(vec, n, sign)
