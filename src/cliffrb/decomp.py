"""Clifford decomposition into elementary gates.

Two routes:

* `cayley_search` -- Dijkstra over the Cayley graph on a bucket queue (ties
  settle in push order) with a lexicographic (two-qubit gates, total gates)
  weight; optimal but only feasible for n <= 2 (n <= 3 for the quotient).
  One dict maps each node to its best push (parent, last move, cost) and
  ends as the tree; an element's gate sequence is built when it is read.
* `block_decompose` -- O(n^2)-gate algorithmic decomposition for any n,
  reducing the Bell-pair (Choi) stabilizer matrix of the operator to the
  identity with blocks of one-qubit gates, CZ gates and CX gates.

The Choi matrix is the stabilizer matrix of the 2n-qubit Choi state: row i
is X_i (x) C(X_i), row n+i is Z_i (x) C(Z_i) (left half in the low n
qubits).  It is held bit-sliced, as its 4n bit columns in one int, so a row
swap, a row product or an elementary gate is a few big-int operations
whatever n is.  Gates act on the right-hand n qubits only, through their
`clifford._sliced_form`.  Step 1 brings the bottom-right block to
graph-state standard form with `stabilizer.gssf_reduce`, the simulator's
reducer, on rows offset by n.
Quadrants are numbered clockwise from the top-left (1 = top-left block,
2 = top-right, 3 = bottom-right, 4 = bottom-left).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from .clifford import (
    CliffordTableau,
    GateSequence,
    _label_tables,
    _sliced_update,
    _transpose_bits,
    embed_tableau,
    group_order,
)
from .gates import GateSet, get_gate, invert_sequence
from .pauli import _FACTOR, _pauli_product
from .stabilizer import default_neighbor, gssf_reduce

# one-qubit palette covering the six quotient cosets, all with named inverses
_PALETTE = ("I", "S", "H", "X90", "T", "T2")


def _pair_gate_table() -> Dict[Tuple[str, str], str]:
    """(A, B) -> palette gate g with g(A) = +-X and g(B) = +-Z."""
    table = {}
    for name in _PALETTE:
        image = {_FACTOR[k]: img for k, img in
                 enumerate(get_gate(name).local[0])}
        a = next(k for k in "XYZ" if image[k] == 1)
        b = next(k for k in "XYZ" if image[k] == 2)
        table[(a, b)] = name
    assert len(table) == 6
    return table


_PAIR_GATE = _pair_gate_table()


class CoverageError(RuntimeError):
    """Gate set failed to generate the whole group."""


class _SearchTree(Mapping):
    """Read-only key -> (GateSequence, cost) view of the search's one dict:
    node -> ``((parent << move_bits | move index + 1) << cost_bits
    | primary) << cost_bits | total``, in settle order, where a node is the
    bytes of its 2n rows and its parent is the parent's ``int.from_bytes``
    (the root's parent and move field are 0).  Keys are
    `CliffordTableau.encode()` ints, converted at this boundary; a value is
    built, and its `GateSequence` checked, on each read."""

    def __init__(self, n: int, gates: List[Tuple[str, Tuple[int, ...]]],
                 nodes: Dict[bytes, int], move_bits: int, cost_bits: int):
        self._n = n
        self._gates = gates
        self._nodes = nodes
        self._move_bits = move_bits
        self._cost_bits = cost_bits

    def _node(self, key: int) -> bytes:
        w = 2 * self._n  # the sign mask, then the 2n images of w bits
        if not isinstance(key, int) or key >> w * (w + 1):
            raise KeyError(key)
        return bytes(key >> w * (i + 1) & (1 << w) - 1 | (key >> i & 1) << w
                     for i in range(w))

    def __getitem__(self, key: int) -> Tuple[GateSequence, Tuple[int, int]]:
        rec = self._nodes[self._node(key)]
        w = self._cost_bits
        cost = (rec >> w & (1 << w) - 1, rec & (1 << w) - 1)
        move_mask = (1 << self._move_bits) - 1
        seq = []
        link = rec >> 2 * w
        while link & move_mask:
            seq.append(self._gates[(link & move_mask) - 1])
            parent = (link >> self._move_bits).to_bytes(2 * self._n, "little")
            link = self._nodes[parent] >> 2 * w
        return GateSequence(self._n, tuple(reversed(seq))), cost

    def __iter__(self) -> Iterator[int]:
        w = 2 * self._n
        for rows in self._nodes:
            yield sum((r >> w) << i | (r & (1 << w) - 1) << w * (i + 1)
                      for i, r in enumerate(rows))

    def __len__(self) -> int:
        return len(self._nodes)

    def primaries(self) -> Iterator[int]:
        """Each element's primary-gate count, in settle order."""
        w = self._cost_bits
        return (rec >> w & (1 << w) - 1 for rec in self._nodes.values())


@dataclass(frozen=True)
class DecompositionTable:
    gate_set_name: str
    n_qubits: int
    quotient: bool
    entries: Mapping[int, Tuple[GateSequence, Tuple[int, int]]]

    def lookup(self, c: CliffordTableau) -> Tuple[GateSequence, Tuple[int, int]]:
        key = (c.strip_signs() if self.quotient else c).encode()
        return self.entries[key]

    def cost_histogram(self) -> Dict[int, int]:
        """Primary-gate count -> number of group elements."""
        return dict(Counter(self.entries.primaries()))


def cayley_search(gs: GateSet, n: int, quotient: bool = False,
                  primary_gates: Tuple[str, ...] = ("CX",)) -> DecompositionTable:
    """Dijkstra over the Cayley graph; first settlement is optimal under the
    lexicographic (primary-gate count, total gates) weight.

    A node is the bytes of the 2n signed rows ``vec | sign << 2n`` of a
    tableau.  Composing a gate on the left maps every row through the gate's
    signed Pauli-label table (one `bytes.translate`); one `_label_tables`
    call builds the tables of all the embedded gates.  In the quotient the
    sign bit stays 0.  One dict maps each reached node to the packed record
    of its best push (`_SearchTree`'s); the queue is a bucket of nodes per
    packed cost, drained lowest first, so ties settle in push order."""
    if n >= (4 if quotient else 3):
        raise ValueError(
            f"group too large to search (n={n}, quotient={quotient})")
    width = 2 * n
    gate_moves = gs.moves(n)
    gates = [(name, idxs) for name, idxs, _w in gate_moves]
    moves = []
    if gate_moves:  # with none, only the identity is reached: CoverageError
        images, flips = _label_tables([
            embed_tableau(get_gate(name).tableau, idxs, n)
            for name, idxs in gates])
        # steps[g, row] is the image row; a signed row also carries the flip
        steps = images if quotient else np.concatenate(
            [images | flips << width, images | (flips ^ 1) << width], axis=1)
        # a row has at most 2n + 1 <= 7 bits, so a node is a bytes object
        # (untracked by gc) and a step is its 256-byte translate table
        steps = np.pad(steps, ((0, 0), (0, 256 - steps.shape[1])))
        moves = [(j + 1, step.tobytes(),
                  1 if gates[j][0] in primary_gates else 0)
                 for j, step in enumerate(steps)]
    expected = group_order(n, quotient)
    # a cost is below the group order; a move field is its index + 1
    move_bits, cost_bits = len(gates).bit_length(), expected.bit_length()
    cost_mask = (1 << 2 * cost_bits) - 1
    start = bytes(1 << i for i in range(width))
    nodes = {start: 0}
    buckets = {0: [start]}
    # a node is settled when drained at its record's cost, and re-inserted
    # so the dict ends in settle order; every move adds 1 to the total, so
    # no push lands in the bucket being drained or below it
    while buckets:
        cost = min(buckets)
        costs = (cost + 1, cost + (1 << cost_bits) + 1)
        for rows in buckets.pop(cost):
            if nodes[rows] & cost_mask != cost:
                continue
            nodes[rows] = nodes.pop(rows)
            link = int.from_bytes(rows, "little") << move_bits
            for j, step, gprim in moves:
                new, c = rows.translate(step), costs[gprim]
                if c < nodes.get(new, cost_mask) & cost_mask:
                    nodes[new] = (link | j) << 2 * cost_bits | c
                    buckets.setdefault(c, []).append(new)
    if len(nodes) != expected:
        raise CoverageError(
            f"gate set {gs.name!r} reached {len(nodes)} of {expected} elements")
    return DecompositionTable(gs.name, n, quotient,
                              _SearchTree(n, gates, nodes, move_bits,
                                          cost_bits))


# -- algorithmic block decomposition -------------------------------------------


class _ChoiMatrix:
    """Mutable 2n-row stabilizer matrix of the Choi state of a Clifford,
    held bit-sliced: row r is the 2n-qubit Pauli ``x | z << 2n`` (left half
    in the low n qubits), and column c of those 4n bits is bits
    [c·2n, (c+1)·2n) of `cols`, bit r for row r.  `entry` reads the right
    half."""

    def __init__(self, c: CliffordTableau):
        n = c.n_qubits
        self.n = n
        w = 2 * n
        right = _transpose_bits(c.vecs, w)  # C(X_i) / C(Z_i) on the right
        left_x = [1 << q for q in range(n)]  # X_i / Z_i on the left
        left_z = [1 << (n + q) for q in range(n)]
        self.cols = 0
        for k, col in enumerate(left_x + right[:n] + left_z + right[n:]):
            self.cols |= col << (k * w)
        self.signs = c.signs
        self._row_mask = (1 << w) - 1
        # bit 0 of every column: a row, spread one bit per column
        self._spread = sum(1 << (k * w) for k in range(2 * w))

    def entry(self, r: int, col: int) -> str:
        """Factor of row r at right-half column col (0-based)."""
        w = 2 * self.n
        v = self.cols >> ((self.n + col) * w + r)
        return _FACTOR[(v & 1) | (v >> (w * w) & 1) << 1]

    def left_z(self, r: int, col: int) -> int:
        """Z bit of row r at left-half column col."""
        return (self.cols >> ((2 * self.n + col) * 2 * self.n + r)) & 1

    def sign(self, r: int) -> int:
        return (self.signs >> r) & 1

    def swap_rows(self, a: int, b: int) -> None:
        lo, hi = min(a, b), max(a, b)
        t = ((self.cols >> (hi - lo)) ^ self.cols) & (self._spread << lo)
        self.cols ^= t | t << (hi - lo)
        if self.sign(a) != self.sign(b):
            self.signs ^= (1 << a) | (1 << b)

    def mul_rows(self, dst: int, src: int) -> None:
        """Row dst *= row src (the rows must commute).  The two rows are
        extracted one bit per column, which keeps each X bit 2n·2n bits
        below its Z bit, so `_pauli_product` reads them as they are."""
        u = (self.cols >> dst) & self._spread
        v = (self.cols >> src) & self._spread
        _, s = _pauli_product(u, self.sign(dst), v, self.sign(src),
                              4 * self.n * self.n)
        self.cols ^= v << dst
        self.signs ^= (s ^ self.sign(dst)) << dst

    def apply(self, name: str, idxs: Tuple[int, ...]) -> None:
        """Conjugate every row by the named gate on the right-half qubits:
        its X and Z columns there go through `_sliced_update`."""
        n, w, cols = self.n, 2 * self.n, self.cols
        shifts = ([(n + i) * w for i in idxs]
                  + [(3 * n + i) * w for i in idxs])
        ins = [cols >> s & self._row_mask for s in shifts]
        outs, flip = _sliced_update(get_gate(name).sliced, ins)
        for s, old, new in zip(shifts, ins, outs):
            cols ^= (old ^ new) << s
        self.cols = cols
        self.signs ^= flip


def block_decompose(c: CliffordTableau) -> GateSequence:
    """Decompose into blocks of 1q / CZ / CX / 1q / CZ / (1q) gates.

    The returned sequence composes exactly to c.
    """
    n = c.n_qubits
    m = _ChoiMatrix(c)
    gates: List[Tuple[str, Tuple[int, ...]]] = []

    def emit(name: str, *idxs: int) -> None:
        gates.append((name, idxs))
        m.apply(name, idxs)

    if not c.strip_signs().is_identity():  # a Pauli needs only the sign fix
        _reduce_to_bell(m, n, emit)
    # 8. Pauli sign fix
    for k in range(n):
        if m.sign(k):
            emit("Z", k)
        if m.sign(n + k):
            emit("X", k)

    # the collected gates reduce C to the identity; C is their inverse chain
    return GateSequence(n, invert_sequence(gates))


def _reduce_to_bell(m: "_ChoiMatrix", n: int, emit) -> None:
    # 1. GSSF on quadrant 3 by row operations among the bottom rows (the
    #    stabilizer simulator's reducer, on rows offset by n)
    gssf_reduce(m, n, (), [None] * n, offset=n)

    # 2. one-qubit gates: quadrant-3 diagonal -> X, neighbor -> Z
    for k in range(n):
        diag = m.entry(n + k, k)
        nb = next((m.entry(n + r, k) for r in range(n)
                   if r != k and m.entry(n + r, k) != "I"), None)
        name = _PAIR_GATE[(diag, nb or default_neighbor(diag))]
        if name != "I":
            emit(name, k)

    # 3. CZ gates clear quadrant-3 off-diagonal Z entries
    for k in range(n):
        for l in range(k + 1, n):
            if m.entry(n + k, l) == "Z":
                emit("CZ", k, l)

    # 4. row operations diagonalize quadrant 4 (left halves, I/Z entries)
    for k in range(n):
        pivot = next(r for r in range(k, n) if m.left_z(n + r, k))
        m.swap_rows(n + k, n + pivot)
        for r in range(n):
            if r != k and m.left_z(n + r, k):
                m.mul_rows(n + r, n + k)

    # 5. CX gates diagonalize quadrant 3 (I/X entries, full rank)
    for k in range(n):
        if m.entry(n + k, k) != "X":
            l = next(j for j in range(k + 1, n) if m.entry(n + k, j) == "X")
            for pair in ((k, l), (l, k), (k, l)):  # SWAP as three CX
                emit("CX", *pair)
        for l in range(n):
            if l != k and m.entry(n + k, l) == "X":
                emit("CX", k, l)

    # 6. one-qubit gates: quadrant-3 diagonal X -> Z, quadrant-2 diagonal -> X
    for k in range(n):
        top = m.entry(k, k)  # anticommutes with the X below it
        name = _PAIR_GATE[(top, "X")]
        if name != "I":
            emit(name, k)

    # 7. CZ gates clear quadrant-2 off-diagonal Z entries
    for k in range(n):
        for l in range(k + 1, n):
            if m.entry(k, l) == "Z":
                emit("CZ", k, l)


# -- gate-set translation --------------------------------------------------------

# alternative expansions, applied first-gate-first; index patterns refer to
# the source gate's operands
_REWRITE_RULES: Dict[str, List[Tuple[Tuple[str, Tuple[int, ...]], ...]]] = {
    "CZ": [(("H", (1,)), ("CX", (0, 1)), ("H", (1,)))],
    "CX": [
        (("H", (1,)), ("CZ", (0, 1)), ("H", (1,))),
        (("H", (1,)), ("G", (0, 1)), ("Sdg", (0,)), ("Sdg", (1,)), ("H", (1,))),
    ],
    "SWAP": [(("CX", (0, 1)), ("CX", (1, 0)), ("CX", (0, 1)))],
}


class UnsupportedGateError(ValueError):
    pass


def translate_sequence(seq: GateSequence, target: GateSet) -> GateSequence:
    """Rewrite a sequence over the target set's gates using registered rules."""
    allowed = {name for name, _, _ in target.gates}
    out: List[Tuple[str, Tuple[int, ...]]] = []
    for name, idxs in seq.gates:
        out.extend(_translate_gate(name, idxs, allowed, frozenset()))
    return GateSequence(seq.n_qubits, tuple(out))


def _translate_gate(name: str, idxs: Tuple[int, ...], allowed: Set[str],
                    seen: frozenset) -> List[Tuple[str, Tuple[int, ...]]]:
    if name in allowed:
        return [(name, idxs)]
    if name in seen:
        raise UnsupportedGateError(f"no rewrite path for gate {name!r}")
    for rule in _REWRITE_RULES.get(name, []):
        try:
            out = []
            for gname, pattern in rule:
                mapped = tuple(idxs[i] for i in pattern)
                out.extend(_translate_gate(gname, mapped, allowed, seen | {name}))
            return out
        except UnsupportedGateError:
            continue
    raise UnsupportedGateError(f"no rewrite path for gate {name!r}")
