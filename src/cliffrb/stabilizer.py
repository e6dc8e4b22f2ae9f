"""Stabilizer-state simulation in graph-state standard form (GSSF).

The state is n commuting, independent stabilizer rows with sign bits.  GSSF
means: every column has a non-identity diagonal entry; every other
non-identity entry in a column equals that column's designated neighbor
operator, which anticommutes with the diagonal; and the identity pattern is
symmetric.  Keeping this form makes gate application O(n²·m) and measurement
O(n²)-ish (our dense rows give the same structure with simpler invariants,
at O(n³) worst case for the restore step).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Union

from .clifford import (
    CliffordTableau,
    _rand_bits,
    clifford_apply,
    clifford_inverse,
    embed_tableau,
    find_mapping,
    sequence_to_tableau,
)
from .pauli import PauliOperator, pauli_commutes, pauli_multiply

_ANTICOMMUTERS = {"X": ("Z", "Y"), "Y": ("Z", "X"), "Z": ("X", "Y")}
_NEIGHBOR_PREFERENCE = ("Z", "X", "Y")


class InvalidStateError(ValueError):
    pass


class StabilizerState:
    """Single-owner mutable stabilizer state; create via zero_state() or
    reduce_gssf()."""

    def __init__(self, rows: List[PauliOperator], neighbor: Optional[List[Optional[str]]] = None):
        self.rows = list(rows)
        self.n_qubits = rows[0].n_qubits if rows else 0
        self.neighbor: List[Optional[str]] = list(neighbor) if neighbor else [None] * len(rows)

    # -- bookkeeping --------------------------------------------------------

    def copy(self) -> "StabilizerState":
        out = StabilizerState(list(self.rows), list(self.neighbor))
        return out

    def diag(self, c: int) -> str:
        return self.rows[c].factor(c)

    def _entry(self, r: int, c: int) -> str:
        return self.rows[r].factor(c)

    def _swap_rows(self, a: int, b: int) -> None:
        if a == b:
            return
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]

    def _mul_row(self, dst: int, src: int) -> None:
        """rows[dst] *= rows[src] (commuting, so order is immaterial)."""
        prod = pauli_multiply(self.rows[dst], self.rows[src])
        if prod.phase % 2:
            raise InvalidStateError("rows do not commute")
        self.rows[dst] = prod

    # -- GSSF ----------------------------------------------------------------

    def _pick_neighbor(self, d: int) -> str:
        diag = self.diag(d)
        for r in range(len(self.rows)):
            if r != d:
                e = self._entry(r, d)
                if e != "I" and e in _ANTICOMMUTERS[diag]:
                    return e
        # no anticommuting entry: deterministic arbitrary choice
        return next(c for c in _NEIGHBOR_PREFERENCE if c in _ANTICOMMUTERS[diag])

    def _reduce(self, fixed: Set[int]) -> None:
        """Row-product reduction to GSSF, starting from already-good columns."""
        n = len(self.rows)
        fixed = set(fixed)
        while len(fixed) < n:
            r = next(i for i in range(n) if i not in fixed)
            d = next((c for c in range(n)
                      if c not in fixed and self._entry(r, c) != "I"), None)
            if d is None:
                raise InvalidStateError("rows are not independent")
            self._swap_rows(r, d)
            nb = self._pick_neighbor(d)
            self.neighbor[d] = nb
            for a in range(n):
                if a != d:
                    e = self._entry(a, d)
                    if e != "I" and e != nb:
                        self._mul_row(a, d)
            fixed.add(d)

    def check_gssf(self) -> None:
        """Raise unless the three GSSF conditions hold (test hook)."""
        n = len(self.rows)
        for c in range(n):
            if self.diag(c) == "I":
                raise InvalidStateError(f"column {c}: identity diagonal")
            for r in range(n):
                if r == c:
                    continue
                e = self._entry(r, c)
                if e != "I":
                    if e != self.neighbor[c] or e not in _ANTICOMMUTERS[self.diag(c)]:
                        raise InvalidStateError(
                            f"column {c}: off-diagonal entry {e} at row {r}")
                if (e == "I") != (self._entry(c, r) == "I"):
                    raise InvalidStateError(
                        f"identity pattern not symmetric at ({r},{c})")

    # -- dumps ----------------------------------------------------------------

    def __str__(self) -> str:
        return "\n".join(str(row) for row in self.rows)

    def canonical_row_span(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical form of the signed stabilizer group (RREF over GF(2) of
        packed rows, carrying signs along); equal iff the states are equal."""
        n = self.n_qubits
        vecs = [(r.x_mask | (r.z_mask << n)) for r in self.rows]
        ops = list(self.rows)
        pivots = []
        for i in range(len(vecs)):
            v, op = vecs[i], ops[i]
            for pv, pop, col in pivots:
                if (v >> col) & 1:
                    v ^= pv
                    op = pauli_multiply(op, pop)
            if v == 0:
                raise InvalidStateError("dependent rows")
            col = v.bit_length() - 1
            new = []
            for pv, pop, pcol in pivots:
                if (pv >> col) & 1:
                    pv ^= v
                    pop = pauli_multiply(pop, op)
                new.append((pv, pop, pcol))
            pivots = new + [(v, op, col)]
        return tuple(sorted((v, op.phase) for v, op, _ in pivots))


def zero_state(n: int) -> StabilizerState:
    """|0...0>: rows +Z_j."""
    state = StabilizerState([], [])
    state.n_qubits = 0
    for _ in range(n):
        prepare_zero(state)
    return state


def prepare_zero(state: StabilizerState) -> StabilizerState:
    """Append one qubit in |0>: a new +Z row/column; GSSF is preserved."""
    n = state.n_qubits + 1
    state.rows = [PauliOperator(n, r.x_mask, r.z_mask, r.phase)
                  for r in state.rows]
    state.rows.append(PauliOperator.single(n, n - 1, "Z"))
    state.neighbor.append(None)
    state.n_qubits = n
    return state


def reduce_gssf(rows: Sequence[PauliOperator], signs: Optional[Sequence[int]] = None,
                fixed: Optional[Set[int]] = None) -> StabilizerState:
    """Build a GSSF state from commuting independent rows (+ optional signs)."""
    rows = list(rows)
    if signs is not None:
        rows = [r.with_phase(2 * s) for r, s in zip(rows, signs)]
    for i, a in enumerate(rows):
        if a.phase % 2:
            raise InvalidStateError("row signs must be real")
        for b in rows[i + 1:]:
            if not pauli_commutes(a, b):
                raise InvalidStateError("rows do not commute")
    state = StabilizerState(rows)
    state._reduce(set(fixed or ()))
    return state


def apply_clifford(state: StabilizerState,
                   c: Union[CliffordTableau, "GateDefinition"],
                   indices: Optional[Sequence[int]] = None) -> StabilizerState:
    """Conjugate every row by the operator and restore GSSF on its support."""
    tab = c if isinstance(c, CliffordTableau) else c.tableau
    if indices is not None:
        if any(i >= state.n_qubits or i < 0 for i in indices):
            raise IndexError("gate index out of range")
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
    for r in range(len(state.rows)):
        state.rows[r] = clifford_apply(tab, state.rows[r])
    state._reduce(set(range(state.n_qubits)) - support)
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
        others = [i for i in range(n) if i != j and state._entry(i, j) != "I"]
        if not others:
            return state.rows[j].sign_bit, state
        state._swap_rows(others[0], j)
        state._reduce(set(range(n)) - {others[0], j})
    else:
        raise InvalidStateError("measurement step 1 failed to converge")
    # Step 2: make the column's neighbor operator Z.
    if state.neighbor[j] != "Z":
        for i in range(n):
            if i != j and state._entry(i, j) != "I":
                state._mul_row(i, j)
        state.neighbor[j] = "Z"
    # Step 3: random outcome; new stabilizer ±Z_j replaces row j.
    outcome = int(rng.integers(0, 2))
    state.rows[j] = PauliOperator.single(n, j, "Z", 2 * outcome)
    for r in range(n):
        if r != j and state._entry(r, j) != "I":
            state._mul_row(r, j)
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
    t = sequence_to_tableau(find_mapping(rep, target))
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
    rep = p.representative()
    target = rep.x_mask | (rep.z_mask << n)
    # GF(2) elimination: pivots keyed by (unique) leading bit, reduced in
    # descending leading-bit order so a single pass is exact
    piv = {}  # leading bit -> (vec, row mask)
    for i, r in enumerate(state.rows):
        v, m = r.x_mask | (r.z_mask << n), 1 << i
        for lead in sorted(piv, reverse=True):
            if (v >> lead) & 1:
                pv, pm = piv[lead]
                v ^= pv
                m ^= pm
        if v:
            piv[v.bit_length() - 1] = (v, m)
    v, m = target, 0
    for lead in sorted(piv, reverse=True):
        if (v >> lead) & 1:
            pv, pm = piv[lead]
            v ^= pv
            m ^= pm
    if v != 0:
        return None
    prod = PauliOperator.identity(n)
    for i in range(n):
        if (m >> i) & 1:
            prod = pauli_multiply(prod, state.rows[i])
    assert prod.representative() == rep
    return m, (prod.sign_bit ^ p.sign_bit)


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
    prod = PauliOperator.identity(n)
    for i in range(n):
        if (mask >> i) & 1:
            prod = pauli_multiply(prod, state.rows[i])
    return prod
