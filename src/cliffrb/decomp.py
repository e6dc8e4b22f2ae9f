"""Clifford decomposition into elementary gates.

Two routes:

* `cayley_search` -- Dijkstra over the Cayley graph on a bucket queue (ties
  settle in push order) with a lexicographic (two-qubit gates, total gates)
  weight; optimal but only feasible for n <= 2 (n <= 3 for the quotient).
  It runs on arrays: a node is an integer id, from the element's rank among
  the uniform sampler's draws (`clifford._rank`) and its sign mask; a
  bucket's children are ranked at once, and three arrays over the ids
  (cost, parent, last move) are the tree.  An element's gate sequence is
  built when it is read.
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

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

from .clifford import (
    CliffordTableau,
    GateSequence,
    _label_tables,
    _rank,
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
    """Read-only key -> (GateSequence, cost) view of the search's arrays.
    A node id is ``rank · S + sign mask``, with S = 4ⁿ sign masks (1 in the
    quotient) and the rank `clifford._rank`'s.  Per id the tree holds the
    packed cost ``primary << cost_bits | total``, the parent id and the move
    index + 1 (0 at the root); in settle order it holds the ids and their
    sign-free rows.  Keys are `CliffordTableau.encode()` ints: iteration
    encodes the rows at once, and a read ranks its key and builds, and
    checks, the `GateSequence` along the parent ids."""

    def __init__(self, n: int, gates: List[Tuple[str, Tuple[int, ...]]],
                 tree: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 settled: Tuple[np.ndarray, np.ndarray], cost_bits: int):
        self._n, self._gates, self._cost_bits = n, gates, cost_bits
        self._cost, self._parent, self._move = tree
        self._order, self._rows = settled
        self._signs = len(self._cost) // group_order(n, True)

    def _id(self, key: int) -> int:
        w = 2 * self._n  # the sign mask, then the 2n images of w bits
        if not isinstance(key, int) or key >> w * (w + 1) or (
                key & (1 << w) - 1) >= self._signs:
            raise KeyError(key)
        rank = _rank([key >> w * (i + 1) & (1 << w) - 1 for i in range(w)])
        if rank < 0:
            raise KeyError(key)
        return int(rank) * self._signs + (key & (1 << w) - 1)

    def __getitem__(self, key: int) -> Tuple[GateSequence, Tuple[int, int]]:
        node = self._id(key)
        cost, w = self._cost.item(node), self._cost_bits
        seq = []
        while move := self._move.item(node):
            seq.append(self._gates[move - 1])
            node = self._parent.item(node)
        return (GateSequence(self._n, tuple(reversed(seq))),
                (cost >> w, cost & (1 << w) - 1))

    def __contains__(self, key) -> bool:
        try:
            self._id(key)
        except KeyError:
            return False
        return True  # the search reached every element

    def __iter__(self) -> Iterator[int]:
        w = 2 * self._n
        for lo in range(0, len(self._order), 4096):  # bounded Python lists
            keys = self._order[lo:lo + 4096].astype(np.int64) % self._signs
            for i, col in enumerate(self._rows[lo:lo + 4096].T):
                keys |= col.astype(np.int64) << w * (i + 1)
            yield from keys.tolist()

    def __len__(self) -> int:
        return len(self._order)

    def primary_counts(self) -> Dict[int, int]:
        """Primary-gate count -> number of elements."""
        counts = np.bincount(self._cost >> self._cost_bits)
        return {k: int(v) for k, v in enumerate(counts) if v}


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
        return self.entries.primary_counts()


_CHUNK = 4096  # parents expanded at once: bounds the (parents, moves) arrays


def cayley_search(gs: GateSet, n: int, quotient: bool = False,
                  primary_gates: Tuple[str, ...] = ("CX",)) -> DecompositionTable:
    """Dijkstra over the Cayley graph; first settlement is optimal under the
    lexicographic (primary-gate count, total gates) weight.

    Nodes are integer ids and the tree is three arrays over them
    (`_SearchTree`'s).  The queue is a bucket of (ids, sign-free rows)
    chunks per packed cost, drained lowest first; a drained id is live when
    its cost is the bucket's.  Composing gate g on the left maps a live
    node's rows through g's Pauli-label table (one `_label_tables` call
    builds those of all the embedded gates) and its sign mask through g's
    flips; the children, taken parent-major, are ranked at once.  A push
    stands when it is cheaper than its id's cost, the cheaper (non-primary)
    moves first, and of one id's pushes in one class the first wins, so
    ties settle in push order."""
    if n >= (4 if quotient else 3):
        raise ValueError(
            f"group too large to search (n={n}, quotient={quotient})")
    width = 2 * n
    gates = [(name, idxs) for name, idxs, _w in gs.moves(n)]
    # with no gate only the identity is reached: CoverageError
    images, flips = _label_tables([
        embed_tableau(get_gate(name).tableau, idxs, n) for name, idxs in gates
    ]) if gates else np.zeros((2, 0, 1 << width), np.uint8)
    table = images if quotient else images | flips << width  # [g, row]
    classes = [np.flatnonzero([(name in primary_gates) == cls
                               for name, _ in gates]) for cls in (0, 1)]
    shifts = np.arange(width, dtype=np.uint8)[:, None]
    expected = group_order(n, quotient)
    signs = 1 if quotient else 1 << width
    # a cost field holds less than the group order, so no cost reaches
    # `cost`'s initial value
    cost_bits = expected.bit_length()
    cost = np.full(expected, 1 << 2 * cost_bits, np.int64)
    parent = np.zeros(expected, np.int32)
    move = np.zeros(expected, np.int16)
    free = np.iinfo(np.intp).max
    claim = np.full(expected, free)  # an id's first push in a class
    start = np.array([[1 << i for i in range(width)]], np.uint8)
    root = _rank(start.T) * signs
    cost[root] = 0
    buckets = {0: [(root, start)]}
    settled = []  # (ids, rows) of each drained bucket's live entries
    # every move adds 1 to the total, so no push lands in the bucket being
    # drained or below it
    while buckets:
        b = min(buckets)
        ids, rows = map(np.concatenate, zip(*buckets.pop(b)))
        live = cost[ids] == b
        ids, rows = ids[live], rows[live]
        settled.append((ids, rows))
        for lo in range(0, len(ids), _CHUNK):
            pid = ids[lo:lo + _CHUNK]
            # kids[g, i, p]: row i of parent p's child by move g
            kids = np.take(table, rows[lo:lo + _CHUNK].T, axis=1)
            sign = 0
            if not quotient:  # each child's sign mask, through the flips
                sign = pid % signs ^ np.bitwise_or.reduce(
                    kids >> width << shifts, axis=1)
                kids &= (1 << width) - 1
            child = _rank(kids.transpose(1, 0, 2)) * signs + sign
            for js, c in zip(classes, (b + 1, b + (1 << cost_bits) + 1)):
                pos = np.flatnonzero((c < cost[child[js]]).T)  # parent-major
                f, g = np.divmod(pos, len(js))
                new = child[js[g], f]
                np.minimum.at(claim, new, pos)
                won = claim[new] == pos
                new, f, g = new[won], f[won], js[g[won]]
                claim[new] = free
                cost[new], parent[new], move[new] = c, pid[f], g + 1
                if len(new):
                    buckets.setdefault(c, []).append((new, kids[g, :, f]))
    order, settled = map(np.concatenate, zip(*settled))
    if len(order) != expected:
        raise CoverageError(
            f"gate set {gs.name!r} reached {len(order)} of {expected} elements")
    return DecompositionTable(gs.name, n, quotient, _SearchTree(
        n, gates, (cost, parent, move), (order, settled), cost_bits))


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
