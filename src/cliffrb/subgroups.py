"""GF(2^n) arithmetic and the small twirl subgroups.

Paulis on n qubits are encoded as pairs of field elements (a, c): the X part
is expanded over a basis b_1..b_n (b_1 = 1) and the Z part over the dual
basis, chosen so that the first expansion coordinate of b_i * dual_j is the
Kronecker delta.  In that encoding the 2^n(4^n - 1)-element twirl subgroup
Q_n becomes a one-line formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .clifford import CliffordTableau, _label_tables, _solve_affine, clifford_compose
from .gates import get_gate
from .pauli import PauliOperator, _pack

# fixed irreducible polynomials over GF(2), bit k = coefficient of x^k
_IRREDUCIBLE = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


@dataclass(frozen=True)
class FieldContext:
    n: int
    poly: int
    basis: Tuple[int, ...]
    dual: Tuple[int, ...]
    first: int  # parity(y & first) is the coefficient of basis[0] in y


def _poly_mul_mod(a: int, b: int, poly: int, n: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= poly
    return out


def field_mul(ctx: FieldContext, a: int, b: int) -> int:
    return _poly_mul_mod(a, b, ctx.poly, ctx.n)


def field_inv(ctx: FieldContext, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    # a^(2^n - 2) by square-and-multiply
    out, base, e = 1, a, (1 << ctx.n) - 2
    while e:
        if e & 1:
            out = field_mul(ctx, out, base)
        base = field_mul(ctx, base, base)
        e >>= 1
    return out


def _first_coord_mask(n: int, basis: Sequence[int]) -> int:
    """The mask m with parity(y & m) = coefficient of basis[0] in y: the
    first coordinate is linear in y, and m is fixed by parity(m & b_i) =
    [i == 0]."""
    # checked apart: a dependent basis can make the system below inconsistent
    assert not _solve_affine([(b, 0) for b in basis], n)[1], \
        "basis is not independent"
    return _solve_affine([(b, int(i == 0)) for i, b in enumerate(basis)], n)[0]


def first_coord(ctx: FieldContext, y: int) -> int:
    """Coefficient of b_1 in the basis expansion of y."""
    return (y & ctx.first).bit_count() & 1


def dual_basis(n: int, poly: int, basis: Sequence[int]) -> Tuple[int, ...]:
    """The basis dual to the given one under (a, b) -> first coordinate of a*b."""
    first = _first_coord_mask(n, basis)
    # first_coord(b_i * e) is linear in e; solve for each dual vector
    rows = [sum(((_poly_mul_mod(b, 1 << t, poly, n) & first).bit_count() & 1)
                << t for t in range(n)) for b in basis]
    dual = []
    for j in range(n):
        particular, null = _solve_affine(
            [(w, int(i == j)) for i, w in enumerate(rows)], n)
        assert not null, "dual system is singular"
        dual.append(particular)
    return tuple(dual)


def field_context(n: int) -> FieldContext:
    """The field GF(2^n) with the monomial basis 1, x, ..., x^(n-1)."""
    if n not in _IRREDUCIBLE:
        raise ValueError(f"no built-in irreducible polynomial for n={n}")
    poly = _IRREDUCIBLE[n]
    basis = tuple(1 << i for i in range(n))
    return FieldContext(n, poly, basis, dual_basis(n, poly, basis),
                        _first_coord_mask(n, basis))


# -- field-pair -> Pauli decoding ------------------------------------------------


def field_to_pauli(ctx: FieldContext, a: int, c: int) -> PauliOperator:
    x = z = 0
    for i in range(ctx.n):
        if first_coord(ctx, field_mul(ctx, a, ctx.dual[i])):
            x |= 1 << i
        if first_coord(ctx, field_mul(ctx, c, ctx.basis[i])):
            z |= 1 << i
    return PauliOperator(ctx.n, x, z, 0)


# -- twirl subgroups -------------------------------------------------------------


def t_subgroup() -> List[CliffordTableau]:
    """{I, T, T^2} with T the XYZ 3-cycle taking X to Y and Z to X."""
    t = get_gate("T").tableau
    return [CliffordTableau.identity(1), t, clifford_compose(t, t)]


def _scaled_images(ctx: FieldContext, s: int) -> List[int]:
    """[a | c << n]: the packed `field_to_pauli(a * s, c * s)`.  The map is
    GF(2)-linear in (a, c), so each value's image is its low bit's image
    XOR the image of the rest."""
    n, mask = ctx.n, (1 << ctx.n) - 1
    units = [_pack(field_to_pauli(ctx, field_mul(ctx, u & mask, s),
                                  field_mul(ctx, u >> n, s)))
             for u in (1 << t for t in range(2 * n))]
    out = [0] * (1 << 2 * n)
    for v in range(1, len(out)):
        low = v & -v
        out[v] = out[v ^ low] ^ units[low.bit_length() - 1]
    return out


def q_subgroup(n: int) -> List[CliffordTableau]:
    """The 2^n(4^n-1) sign-free coset representatives whose images satisfy
    [C](X_1) = X^a Z^c, [C](Z_1) = X^d Z^e with c*d + a*e = 1, extended to the
    other qubits by vectorial powers: [C](X_i) decodes (a b_i, c b_i) and
    [C](Z_i) decodes (d dual_i, e dual_i)."""
    if n > 4:
        raise ValueError("subgroup enumeration limited to n <= 4")
    ctx = field_context(n)
    xs = [_scaled_images(ctx, b) for b in ctx.basis]
    zs = [_scaled_images(ctx, b) for b in ctx.dual]
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
        head = tuple(images[ac] for images in xs)
        out.extend(CliffordTableau(n, head + tuple(images[d | e << n]
                                                  for images in zs))
                   for d, e in solutions)
    return out


def verify_twirl_set(k_set: Sequence[CliffordTableau]) -> bool:
    """True iff the number of set elements mapping P_i onto +-P_j is the same
    for every pair of non-identity Paulis (the sufficient condition for the
    Pauli twirl followed by a K-twirl to equal the full Clifford twirl)."""
    k_set = list(k_set)
    if not k_set:
        return False
    n = k_set[0].n_qubits
    if n > 2:
        raise ValueError("verification limited to n <= 2")
    size = (1 << (2 * n)) - 1
    images, _ = _label_tables(k_set)
    # pair (m, image of m) of non-identity labels counts in bin
    # (m - 1) size + image - 1
    pairs = images[:, 1:] + np.arange(size) * size - 1
    counts = np.bincount(pairs.ravel(), minlength=size * size)
    return bool(np.all(counts == counts[0]))
