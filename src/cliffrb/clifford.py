"""Clifford operators as symplectic tableaux.

A tableau stores the conjugation images C(X_i) and C(Z_i) as sign-bit Paulis
(the signed right half of the Choi-state stabilizer matrix).  Images are kept
as packed 2n-bit GF(2) vectors ``x_mask | (z_mask << n)`` plus one sign bit
each; phases beyond the sign never survive because tableaux act on the Pauli
group modulo scalars.

The group operations run on one integer-only kernel, `_image`, which
multiplies images in the X^x Z^z form and by the product phase rule that
`pauli` defines for the packed layout; a signed image with sign s starts
from ``e = 2s + popcount(x & z)``.  `_image_sign` is the one signed
conjugation: `clifford_apply` and `clifford_compose` map through it, and
`clifford_inverse` takes its sign fix from it.

Inversion needs no elimination: a Clifford's sign-free part M is symplectic,
so M⁻¹ = Ω Mᵀ Ω with Ω the x/z swap (Aaronson & Gottesman,
quant-ph/0406196).  `_pull_back` reads U†QU off that transpose, one
symplectic product per output bit, and `clifford_inverse` is its value on the
basis vectors plus a sign fix.

Conjugating packed rows by a named one- or two-qubit gate does not need a
full tableau product (Aaronson & Gottesman, quant-ph/0406196): the gate only
rewrites the 2 or 4 bits of each row on its qubits and flips the row's sign.
That rewrite is the gate's signed Pauli-label table: for every local
label x | z << m, its image label and sign flip.  `_label_tables` is the
one builder of such tables; it takes a whole list of small tableaux at
once and returns two uint8 arrays of image labels and sign flips, by
running `_image`'s recurrence across the list.  The Cayley search moves its
rows by the rows of the embedded gates, and the dense twirls, the twirl-set
check and the quotient record read the rows of their whole sets.

Long gate sequences apply a gate to every row at once, bit-sliced (Stim,
arXiv:2103.02202): the rows are held as bit columns, one int per bit
position with bit r for row r.  `_sliced_form` turns a gate's table row
into the XOR sources of each output column and the AND-monomials of its
sign flip, and `_sliced_update` applies that to the gate's 2 or 4 columns
with a few big-int XORs and ANDs, however many rows there are.
`gates.sequence_tableau` and the block decomposition's Choi matrix both
use it; `_transpose_bits` turns columns back into rows.

The uniform sampler (Koenig & Smolin, arXiv:1406.2170) picks each image
from the solutions of a GF(2) system of the earlier images.  It carries the
system's fully reduced rows from step to step: `_reduce` adds one row and
`_pick` reads solution number d off the rows, so it never eliminates a
system afresh.  A sign-free element's rank is the mixed-radix number of its
one sequence of valid draws.  A step's draws are its images' bits at the
free columns of the span of the earlier images' flips, so one walk over
every span's draws (`_rank_tables`, built on first use) gives per step the
draw digit and next span of each (span, X image, Z image) and each span's
images in digit order: `_rank` is n gathers, and `_unrank` lists every
element in rank order.  The rank is the group layer's one element index.
`_solve_affine`, the fold of `_reduce` that also returns a null basis,
serves the stabilizer and subgroup code.

A whole group is held as arrays, not as tableau objects: `enumerate_group`
returns a read-only sequence over one (Q, 2n) uint8 array of the sign-free
images, from `_unrank`, and a count of sign patterns.  An element is built
as a tableau only when it is read, and `_label_tables` reads the array
itself.  At n <= 2 the Pauli quotient of the group (6 or 720 elements) has
one record: `quotient_group(n)` builds, on first use, its elements (the
same kind of sequence), every element's Pauli-label images and the RB table
path's draw index, all in rank order.  The RB table path reads the images
and the draw index.  No product table is kept: `QuotientGroup.products`
gathers the images of the products of some elements with every element
and ranks them with one `_rank` call, for `bounds`.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .pauli import (PauliDimensionError, PauliOperator, _flip, _pack,
                    _symplectic, _to_factor_phase, _unpack)


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_0..X_{n-1}, Z_0..Z_{n-1} under conjugation.

    `vecs[i]` (i < n) is the packed image of X_i, `vecs[n+i]` of Z_i; bit i of
    `signs` is 1 when the image carries a minus sign.
    """

    n_qubits: int
    vecs: Tuple[int, ...]
    signs: int = 0

    def __post_init__(self):
        if len(self.vecs) != 2 * self.n_qubits:
            raise ValueError("tableau needs 2n images")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(n, tuple(1 << i for i in range(2 * n)), 0)

    @classmethod
    def from_images(
        cls,
        image_x: Sequence[PauliOperator],
        image_z: Sequence[PauliOperator],
    ) -> "CliffordTableau":
        n = image_x[0].n_qubits
        if len(image_x) != n or len(image_z) != n:
            raise ValueError("need n X-images and n Z-images")
        vecs = []
        signs = 0
        for i, p in enumerate(list(image_x) + list(image_z)):
            if p.n_qubits != n:
                raise PauliDimensionError("image size mismatch")
            vecs.append(_pack(p))
            signs |= p.sign_bit << i
        t = cls(n, tuple(vecs), signs)
        t.validate()
        return t

    @classmethod
    def from_image_strings(cls, image_x: Sequence[str], image_z: Sequence[str]) -> "CliffordTableau":
        return cls.from_images(
            [PauliOperator.from_string(s) for s in image_x],
            [PauliOperator.from_string(s) for s in image_z],
        )

    # -- accessors ---------------------------------------------------------

    def image_x(self, i: int) -> PauliOperator:
        return _unpack(self.vecs[i], self.n_qubits, (self.signs >> i) & 1)

    def image_z(self, i: int) -> PauliOperator:
        j = self.n_qubits + i
        return _unpack(self.vecs[j], self.n_qubits, (self.signs >> j) & 1)

    def images(self) -> List[PauliOperator]:
        return [
            _unpack(v, self.n_qubits, (self.signs >> i) & 1)
            for i, v in enumerate(self.vecs)
        ]

    def validate(self) -> None:
        """Check the symplectic commutation pattern (which implies full rank)."""
        n = self.n_qubits
        for i in range(2 * n):
            for j in range(i + 1, 2 * n):
                want = 1 if j == i + n else 0
                if _symplectic(self.vecs[i], self.vecs[j], n) != want:
                    raise ValueError(
                        f"images {i} and {j} violate the commutation pattern")

    def encode(self) -> int:
        """Canonical 4n²+2n-bit encoding (images then sign list)."""
        n = self.n_qubits
        out = self.signs
        shift = 2 * n
        for v in self.vecs:
            out |= v << shift
            shift += 2 * n
        return out

    def strip_signs(self) -> "CliffordTableau":
        """Pauli-coset representative (all signs +)."""
        return CliffordTableau(self.n_qubits, self.vecs, 0) if self.signs else self

    def is_identity(self) -> bool:
        return self.signs == 0 and all(
            v == 1 << i for i, v in enumerate(self.vecs))

    def __str__(self) -> str:
        n = self.n_qubits
        lines = [f"X_{i} -> {self.image_x(i)}" for i in range(n)]
        lines += [f"Z_{i} -> {self.image_z(i)}" for i in range(n)]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "image_x": [str(self.image_x(i)) for i in range(self.n_qubits)],
            "image_z": [str(self.image_z(i)) for i in range(self.n_qubits)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CliffordTableau":
        return cls.from_image_strings(obj["image_x"], obj["image_z"])


@dataclass(frozen=True)
class GateSequence:
    """An ordered list of (gate name, qubit indices) on n_qubits qubits."""

    n_qubits: int
    gates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self):
        # checked inline (embed_tableau has its own check): reading a whole
        # cayley_search table builds one per group element, where a helper
        # call per tuple costs; each index tuple is checked once
        for idxs in set(map(operator.itemgetter(1), self.gates)):
            if len(set(idxs)) != len(idxs) or idxs and (
                    min(idxs) < 0 or max(idxs) >= self.n_qubits):
                name = next(g for g, i in self.gates if i == idxs)
                raise ValueError(
                    f"repeated or out-of-range index in gate {name}{idxs}")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "gates": [[name, list(idxs)] for name, idxs in self.gates],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GateSequence":
        return cls(obj["n_qubits"],
                   tuple((g, tuple(q)) for g, q in obj["gates"]))


# ---------------------------------------------------------------------------
# group operations


def _image(vecs: Sequence[int], signs: int, n: int, w: int, e: int
           ) -> Tuple[int, int]:
    """Image of ``i**e * X^x Z^z`` (w = x | z << n) under the tableau given
    by its packed images and sign mask, as (packed vec, e) in X^x Z^z form.

    The X^x Z^z product takes the images in packed-bit order (all X's, then
    all Z's), so each factor costs one XOR and one popcount for its own Y's
    plus two for moving the accumulated Z part past its X part."""
    e += 2 * (signs & w).bit_count()
    acc = 0
    while w:
        low = w & -w
        v = vecs[low.bit_length() - 1]
        e += (v & (v >> n)).bit_count() + 2 * ((acc >> n) & v).bit_count()
        acc ^= v
        w ^= low
    return acc, e


def _image_sign(c: CliffordTableau, vec: int, sign: int) -> Tuple[int, int]:
    """Image of the signed factor-form Pauli (vec, sign) as (vec, sign)."""
    n = c.n_qubits
    out, e = _image(c.vecs, c.signs, n, vec,
                    2 * sign + (vec & (vec >> n)).bit_count())
    e = _to_factor_phase(out, e, n)
    if e & 1:
        raise ValueError("invalid tableau: image has imaginary phase")
    return out, e >> 1


def clifford_apply(c: CliffordTableau, p: PauliOperator) -> PauliOperator:
    """Conjugation image ±P' of p under c (exact sign, global phase fixed by
    the Y = i·X·Z convention).  Raises `PauliDimensionError` when p acts on
    another number of qubits, and `ValueError` when p has an imaginary
    phase or c maps it to one."""
    if c.n_qubits != p.n_qubits:
        raise PauliDimensionError("tableau / operator size mismatch")
    if p.phase % 2:
        raise ValueError(f"cannot conjugate {p}: imaginary phase")
    vec, sign = _image_sign(c, _pack(p), p.phase >> 1)
    return _unpack(vec, c.n_qubits, sign)


def clifford_compose(c: CliffordTableau, d: CliffordTableau) -> CliffordTableau:
    """Tableau of C∘D (apply d first): each signed image of d mapped
    through c by `_image_sign`."""
    n = c.n_qubits
    if n != d.n_qubits:
        raise PauliDimensionError("tableau size mismatch")
    vecs = []
    signs = 0
    for i, v in enumerate(d.vecs):
        out, sign = _image_sign(c, v, (d.signs >> i) & 1)
        vecs.append(out)
        signs |= sign << i
    return CliffordTableau(n, tuple(vecs), signs)


def _pull_back(tab: CliffordTableau, vecs: List[int]) -> List[int]:
    """Sign-free U†QU for each packed Q, with U given by its tableau.  Since
    U preserves the symplectic form, the X_i bit of U†QU is <Q, U Z_i U†> and
    its Z_i bit is <Q, U X_i U†>."""
    n = tab.n_qubits
    partners = [_flip(w, n) for w in tab.vecs[n:] + tab.vecs[:n]]
    return [sum(((q & w).bit_count() & 1) << i for i, w in enumerate(partners))
            for q in vecs]


def clifford_inverse(c: CliffordTableau) -> CliffordTableau:
    """Inverse tableau via the symplectic transpose plus sign fix, O(n²)
    popcounts."""
    n = c.n_qubits
    inv_rows = _pull_back(c, [1 << i for i in range(2 * n)])
    signs = 0
    for i, v in enumerate(inv_rows):
        # c(v) = ±(X_i or Z_i); absorbing that sign makes c(image_i) exact.
        signs |= _image_sign(c, v, 0)[1] << i
    return CliffordTableau(n, tuple(inv_rows), signs)


def pauli_tableau(p: PauliOperator) -> CliffordTableau:
    """Clifford tableau of conjugation by the Pauli p (a pure sign pattern):
    X_i or Z_i flips sign exactly when it anticommutes with p, so sign bit
    i is <e_i, p>, bit i of the flipped packed p."""
    n = p.n_qubits
    return CliffordTableau(n, CliffordTableau.identity(n).vecs,
                           _flip(_pack(p), n))


def group_order(n: int, quotient: bool = False) -> int:
    """|C_n| = 2^{n²+2n} ∏_{k=1..n} (4^{n−k+1} − 1); quotient divides by 4ⁿ."""
    if n < 1:
        raise ValueError("n must be positive")
    order = 2 ** (n * n + 2 * n)
    for k in range(1, n + 1):
        order *= 4 ** (n - k + 1) - 1
    return order // 4 ** n if quotient else order


# ---------------------------------------------------------------------------
# GF(2) linear solving for sampling / enumeration


def _reduce(pivots: List[Tuple[int, int, int]], w: int, b: int
            ) -> List[Tuple[int, int, int]]:
    """The fully reduced pivot rows (col, w, b) of a system, in order, with
    parity(w & v) = b added, as a new list (the same one when the row adds
    nothing): w is reduced by the rows, then clears its top bit from them."""
    for col, pw, pb in pivots:
        if (w >> col) & 1:
            w ^= pw
            b ^= pb
    if w == 0:
        if b:
            raise ValueError("inconsistent linear system")
        return pivots
    col = w.bit_length() - 1
    return [(c, pw ^ w, pb ^ b) if (pw >> col) & 1 else (c, pw, pb)
            for c, pw, pb in pivots] + [(col, w, b)]


def _pick(pivots: Sequence[Tuple[int, int, int]], index: int) -> int:
    """Solution number `index` of the reduced system: the particular
    solution XOR the null-basis vectors (one per free column, ascending)
    that index's bits name, built without the basis.  index's bits go to
    the free columns in ascending order, by opening a zero bit at each
    pivot column from the lowest up (pivot columns are mostly high, so
    this stops early), and each pivot bit is then b ^ parity(w & v)."""
    taken = 0
    for c, _, _ in pivots:
        taken |= 1 << c
    v = index
    while taken:
        low = taken & -taken
        if low > v:
            break
        v = (v & (low - 1)) | (v & -low) << 1
        taken ^= low
    out = v
    for c, w, b in pivots:
        if b ^ (w & v).bit_count() & 1:
            out |= 1 << c
    return out


def _solve_affine(constraints: Sequence[Tuple[int, int]], nbits: int
                  ) -> Tuple[int, List[int]]:
    """Solve parity(w & v) = b for all (w, b); return (particular, null basis)."""
    pivots: List[Tuple[int, int, int]] = []
    for w, b in constraints:
        pivots = _reduce(pivots, w, b)
    particular = _pick(pivots, 0)
    return particular, [_pick(pivots, 1 << i) ^ particular
                        for i in range(nbits - len(pivots))]


def _rand_bits(rng, nbits: int) -> int:
    """Uniform nbits-bit integer from the generator (any width), drawn as
    32-bit chunks, low chunk first."""
    if nbits <= 32:
        return int(rng.integers(0, 1 << nbits))
    out = 0
    shift = 0
    while shift < nbits:
        take = min(32, nbits - shift)
        out |= (int(rng.integers(0, 1 << take)) << shift)
        shift += take
    return out


def _draw_widths(n: int) -> List[Tuple[int, int]]:
    """Bit widths of the sampler's (X, Z) image draws, step by step: step k
    meets 2k independent constraints, whatever was drawn before, so only the
    all-zero X draw gives no image (it is the one draw the sampler repeats)."""
    return [(2 * k, 2 * k - 1) for k in range(n, 0, -1)]


def _sample_images(n: int, draw) -> Tuple[int, ...]:
    """The 2n packed images of `sample_uniform`, with every random index
    taken from ``draw(nbits)``, a uniform nbits-bit integer.  The reduced
    constraint rows carry from step to step: each image adds one or two."""
    pivots, xi, zi = [], [], []
    for wx, wz in _draw_widths(n):
        dx = draw(wx)
        while not dx:
            dx = draw(wx)
        vx = _pick(pivots, dx)
        fx = _flip(vx, n)
        vz = _pick(_reduce(pivots, fx, 1), draw(wz))
        xi.append(vx)
        zi.append(vz)
        if wz > 1:  # the last step leaves no constraints to carry
            pivots = _reduce(_reduce(pivots, fx, 0), _flip(vz, n), 0)
    return tuple(xi + zi)


def sample_uniform(n: int, rng) -> CliffordTableau:
    """Exactly uniform Clifford tableau from O(n²) operations on 2n-bit rows.

    Step k picks C(X_k) uniformly from the 2(4^{n−k}−1) signed Paulis
    commuting with all earlier images (k counted from 0), then C(Z_k)
    uniformly from the 4·4^{n−k−1} signed Paulis that additionally
    anticommute with C(X_k); the per-step choice-set sizes multiply to the
    exact group order, so the result is uniform.  The images come first,
    the 2n sign bits last.
    """
    vecs = _sample_images(n, partial(_rand_bits, rng))
    return CliffordTableau(n, vecs, _rand_bits(rng, 2 * n))


@lru_cache(maxsize=4)
def _rank_tables(n: int) -> List[Tuple[int, np.ndarray, Optional[np.ndarray],
                                       np.ndarray]]:
    """The one walk over the sampler's draws.  Per step, its radix and three
    int32 tables; two are indexed by (span id, X image, Z image): the digit
    ``(Gray⁻¹(dx) − 1)·2^wz + Gray⁻¹(dz)`` of the draws `_pick` reads the
    images off (−1 for no valid pair), and the next span id (None at the
    last step).  The third, (spans, radix), is each span's flat indices
    into those in digit order.  A span, of the earlier images' flips, is
    keyed by its sorted fully reduced rows; each step's last id is a dead
    span, all of whose digits are −1."""
    if n > 3:  # at n = 4 each table of step 1 would take 1.4 GB
        raise ValueError(f"rank tables serve n <= 3 (n={n})")
    size, spans, tables = 1 << 2 * n, [[]], []
    for k, (wx, wz) in enumerate(_draw_widths(n)):
        radix, cells, nexts, ids = (1 << wx) - 1 << wz, [], [], {}
        for s, pivots in enumerate(spans):
            for i in range(1, 1 << wx):
                vx = _pick(pivots, i ^ i >> 1)
                fx = _flip(vx, n)
                space, ext = _reduce(pivots, fx, 1), _reduce(pivots, fx, 0)
                for j in range(1 << wz):
                    vz = _pick(space, j ^ j >> 1)
                    cells.append((s * size + vx) * size + vz)
                    if k + 1 < n:
                        span = tuple(sorted(_reduce(ext, _flip(vz, n), 0)))
                        nexts.append(ids.setdefault(span, len(ids)))
        cells = np.array(cells, np.int32).reshape(len(spans), radix)
        digit = np.full((len(spans) + 1, size, size), -1, np.int32)
        digit.reshape(-1)[cells] = np.arange(radix)
        nxt = None
        if k + 1 < n:
            nxt = np.full_like(digit, len(ids))  # the next step's dead span
            nxt.flat[cells] = nexts
        tables.append((radix, digit, nxt, cells))
        spans = list(ids)
    return tables


def _rank(vecs: Sequence) -> np.ndarray:
    """Rank of the elements whose 2n sign-free images are vecs[0], ...,
    vecs[2n - 1] (ints, or uint8 arrays of one shape): the mixed-radix
    number of their sampler draws, first step highest, or -1 where they
    are no element.  One gather per sampler step from `_rank_tables`."""
    n = len(vecs) // 2
    span, rank = np.intp(0), 0  # an intp span widens uint8 images
    for k, (radix, digit, nxt, _) in enumerate(_rank_tables(n)):
        cell = (span << 2 * n | vecs[k]) << 2 * n | vecs[n + k]
        rank = rank * radix + (d := digit.take(cell))
        span = span if nxt is None else nxt.take(cell)
    return rank | d >> 31  # a failed step leads to the dead span's -1 digits


def _unrank(n: int) -> np.ndarray:
    """The (Q, 2n) uint8 sign-free images of the quotient's elements in rank
    order, a step at a time: each draw prefix's span reads its row of cells,
    and the step's two images repeat once per element below the prefix."""
    mask = (1 << 2 * n) - 1
    out = np.empty((group_order(n, quotient=True), 2 * n), np.uint8)
    span = np.zeros(1, np.intp)
    for k, (_, _, nxt, cells) in enumerate(_rank_tables(n)):
        cell = cells[span].ravel()
        below = len(out) // len(cell)  # uint8 keeps 8 bits; mask takes 2n
        out[:, k] = np.repeat((cell >> 2 * n).astype(np.uint8) & mask, below)
        out[:, n + k] = np.repeat(cell.astype(np.uint8) & mask, below)
        if nxt is not None:
            span = nxt.take(cell)
    return out


class _GroupElements(abc.Sequence):
    """Read-only sequence of the elements of a Clifford group, held as one
    (Q, 2n) uint8 array of sign-free images and a count S of sign patterns:
    element i is images ``vecs[i // S]`` with sign mask ``i % S``.  An
    element is built as a `CliffordTableau` only when it is read;
    `_label_tables` reads the arrays."""

    __slots__ = ("n_qubits", "vecs", "n_signs")
    __hash__ = None

    def __init__(self, n: int, vecs: np.ndarray, n_signs: int):
        vecs.setflags(write=False)
        self.n_qubits, self.vecs, self.n_signs = n, vecs, n_signs

    def __len__(self) -> int:
        return len(self.vecs) * self.n_signs

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)  # a numpy index would make a numpy sign mask
        if not -len(self) <= i < len(self):
            raise IndexError("group element index out of range")
        row, signs = divmod(i % len(self), self.n_signs)
        return CliffordTableau(self.n_qubits, tuple(self.vecs[row].tolist()),
                               signs)

    def __iter__(self) -> Iterator[CliffordTableau]:
        n, signs = self.n_qubits, range(self.n_signs)
        for lo in range(0, len(self.vecs), 4096):  # bounded Python lists
            for vecs in map(tuple, self.vecs[lo:lo + 4096].tolist()):
                for s in signs:
                    yield CliffordTableau(n, vecs, s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def enumerate_group(n: int, quotient: bool = False
                    ) -> Sequence[CliffordTableau]:
    """Complete deduplicated C_n (or its Pauli quotient), as a read-only
    sequence of tableaux.

    Every sign-free element in rank order (`_unrank`), times every sign
    pattern; far faster than generator closure at the largest size.  The
    images are held as one array and each element is built when read.
    """
    if (quotient and n > 3) or (not quotient and n > 2):
        raise ValueError(f"group too large to enumerate (n={n}, quotient={quotient})")
    return _GroupElements(n, _unrank(n), 1 if quotient else 1 << (2 * n))


# ---------------------------------------------------------------------------
# the quotient group as one table record

# at n = 3 `images` would take 93 MB and `draws` would have 2²¹ slots
QUOTIENT_TABLE_MAX_QUBITS = 2


class QuotientGroup(NamedTuple):
    elements: Sequence[CliffordTableau]  # built on read, see _GroupElements
    images: np.ndarray  # [i, v]: image label of Pauli label v under element i
    draws: List[int]    # draw key -> element index, or len(elements)

    def products(self, idx) -> np.ndarray:
        """[i, j]: index of element idx[i] applied after element j.  The
        product's images are element idx[i]'s label images of element j's
        images, and one `_rank` call ranks them."""
        images = self.images[idx]
        return _rank([images[:, col] for col in self.elements.vecs.T])

    def index_of(self, tab: CliffordTableau) -> int:
        """Index, the rank, of the element that tab is a signed form of.
        Raises `ValueError` when tab is no element of the group."""
        n = self.elements.n_qubits
        # an image past 2n bits would read another element's table cell
        fits = len(tab.vecs) == 2 * n and all(
            0 <= v < 1 << 2 * n for v in tab.vecs)
        if not fits or (rank := _rank(tab.vecs)) < 0:
            raise ValueError(f"no {n}-qubit Clifford element: {tab.vecs}")
        return int(rank)


@lru_cache(maxsize=4)
def quotient_group(n: int) -> QuotientGroup:
    """The Pauli quotient of C_n as arrays, in rank order: its elements,
    every element's Pauli-label images and the draw index; callers keep
    n <= QUOTIENT_TABLE_MAX_QUBITS."""
    elements = _GroupElements(n, _unrank(n), 1)
    keys = [0]  # every rank's draw key, in rank order
    for wx, wz in _draw_widths(n):
        keys = [key << wx + wz | (i ^ i >> 1) << wz | j ^ j >> 1
                for key in keys for i in range(1, 1 << wx)
                for j in range(1 << wz)]
    draws = [len(elements)] * (1 << sum(map(sum, _draw_widths(n))))
    for i, key in enumerate(keys):
        draws[key] = i
    images, _ = _label_tables(elements)
    return QuotientGroup(elements, images, draws)


# ---------------------------------------------------------------------------
# embedding and local gate updates


def embed_tableau(t: CliffordTableau, positions: Sequence[int], n: int) -> CliffordTableau:
    """Embed a small tableau at the given qubit positions of an n-qubit
    system.  Raises `ValueError` unless the positions name t.n_qubits
    distinct qubits, and `IndexError` when one lies outside 0..n-1."""
    m = t.n_qubits
    if len(positions) != m or len(set(positions)) != m:
        raise ValueError(f"positions {tuple(positions)} for a {m}-qubit tableau")
    if any(not 0 <= q < n for q in positions):
        raise IndexError(f"positions {tuple(positions)} outside {n} qubits")
    vecs = [1 << i for i in range(2 * n)]
    signs = 0
    for i in range(2 * m):
        v = t.vecs[i]
        big = 0
        for j, pos in enumerate(positions):
            big |= ((v >> j) & 1) << pos
            big |= ((v >> (m + j)) & 1) << (n + pos)
        slot = positions[i % m] + (0 if i < m else n)
        vecs[slot] = big
        signs |= ((t.signs >> i) & 1) << slot
    return CliffordTableau(n, tuple(vecs), signs)


def _label_tables(tabs: Sequence[CliffordTableau]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Signed Pauli-label tables of every tableau in tabs, as two uint8
    arrays of shape (len(tabs), 4^n): entry [g, k] is the image label and
    the sign flip of the phase-0 factor-form Pauli k = x | z << n under
    tableau g.

    Each label v is one step of `_image`'s recurrence, run across all
    tableaux at once: label v is the label without its highest bit times
    the image of that bit, and the X^x Z^z exponent, held mod 4 (uint8 wraps mod 256), adds
    the row's Y count, two for each Z of the product so far met by an X of
    the row, and two for the row's sign bit."""
    # rows[b, g] is the packed image of bit b under tableau g; the arrays
    # are built label-major, so each step reads and writes contiguous rows
    if isinstance(tabs, _GroupElements):  # its arrays, no tableau built
        n, count = tabs.n_qubits, tabs.n_signs
        rows = np.repeat(tabs.vecs, count, axis=0).T
        signs = np.tile(np.arange(count), len(tabs.vecs))
    else:
        n = tabs[0].n_qubits
        if any(t.n_qubits != n for t in tabs):
            raise ValueError("tableaux act on different numbers of qubits")
        rows = np.array([t.vecs for t in tabs], dtype=np.uint8).T
        signs = np.array([t.signs for t in tabs])
    if n > 4:
        raise ValueError(f"label tables hold 2n <= 8 bits (n={n})")
    row_exps = (np.bitwise_count(rows & rows >> n) + 2 * (
        signs >> np.arange(2 * n)[:, None] & 1)).astype(np.uint8)
    images = np.zeros((4 ** n, len(tabs)), dtype=np.uint8)
    exps = np.zeros_like(images)
    flips = np.zeros_like(images)
    for v in range(1, 4 ** n):
        bit = v.bit_length() - 1
        acc, row = images[v ^ 1 << bit], rows[bit]
        exps[v] = (exps[v ^ 1 << bit] + row_exps[bit]
                   + 2 * np.bitwise_count(acc >> n & row))
        images[v] = acc ^ row
        # the phase-0 factor-form Pauli v starts at e = popcount(y(v)); the
        # factor-form phase of the image drops its popcount(y)
        flips[v] = (exps[v] + (v & v >> n).bit_count()
                    - np.bitwise_count(images[v] & images[v] >> n))
    if np.any(flips & 1):
        raise ValueError("invalid tableau: image has imaginary phase")
    return np.ascontiguousarray(images.T), np.ascontiguousarray(
        (flips >> 1 & 1).T)


# (sources, monomials): tuples of label-bit indices, see `_sliced_form`
SlicedForm = Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]


def _sliced_form(images: Sequence[int], flips: Sequence[int]) -> SlicedForm:
    """Bit-sliced form of one signed Pauli-label table (a `_label_tables`
    row pair) on 2m label bits: (sources, monomials).

    Images are linear in the label, so output bit i is the XOR of the input
    bits j in sources[i], those whose basis label 1 << j has bit i in its
    image.  The sign flip is a Boolean function of the label; its algebraic
    normal form (a Möbius transform over GF(2)) is the XOR of the ANDs of the
    input bits in each of `monomials`.  Label 0 never flips, so no monomial
    is empty."""
    width = len(images).bit_length() - 1
    sources = tuple(tuple(j for j in range(width) if images[1 << j] >> i & 1)
                    for i in range(width))
    anf = list(flips)
    for j in range(width):
        for k in range(len(anf)):
            if k >> j & 1:
                anf[k] ^= anf[k ^ 1 << j]
    monomials = tuple(tuple(j for j in range(width) if k >> j & 1)
                      for k, a in enumerate(anf) if a)
    return sources, monomials


def _sliced_update(sliced: SlicedForm, ins: Sequence[int]
                   ) -> Tuple[List[int], int]:
    """Apply a gate's `_sliced_form` to bit columns: ins[j] holds label bit j
    of every row (bit r for row r).  Returns the new columns in the same
    order and the mask of rows whose sign flips: a few big-int XORs and
    ANDs, however many rows there are."""
    sources, monomials = sliced
    outs = []
    for src in sources:
        out = 0
        for j in src:
            out ^= ins[j]
        outs.append(out)
    flip = 0
    for mono in monomials:
        term = ins[mono[0]]
        for j in mono[1:]:
            term &= ins[j]
        flip ^= term
    return outs, flip


def _transpose_bits(words: Sequence[int], width: int) -> List[int]:
    """Bit-matrix transpose: bit r of out[c] is bit c of words[r], for the
    `width` columns c."""
    nbytes = (width + 7) // 8
    rows = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words),
                         dtype=np.uint8).reshape(len(words), nbytes)
    bits = np.unpackbits(rows, axis=1, count=width, bitorder="little")
    cols = np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(c.tobytes(), "little") for c in cols]
