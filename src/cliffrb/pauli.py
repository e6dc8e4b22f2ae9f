"""Exact n-qubit Pauli algebra over GF(2) bit masks with phase tracking.

A Pauli operator is stored as a pair of bit masks (x_mask, z_mask) plus a
phase exponent zeta, meaning ``i**zeta * (tensor of single-qubit factors)``
where the factor on qubit j is I, X, Z or Y according to the (x, z) bits
(1,1) -> Y.  The fixed convention ``Y = i * X * Z`` resolves all phases, so
products agree exactly (including phase) with dense matrix multiplication.

Masks are plain Python integers, i.e. arbitrarily many qubits packed 64 per
machine word under the hood.

The module owns the packed layout the package computes on, one int
``x | z << n`` per Pauli plus a sign bit (`_pack`, `_unpack`), and its
product phase rule.  A product is taken in X^x Z^z form, ``i**e * X^x Z^z``
with every X before every Z, where a phase-0 factor-form Pauli has
``e = popcount(x & z)`` (each Y = i·X·Z gives one i): XOR the vecs, add
``2·popcount(z_1 & x_2)`` (Z_1 moved past X_2) to the summed exponents, and
convert back with `_to_factor_phase`.  `_product` is that rule for
`pauli_multiply` and the signed-row product `_pauli_product`;
`clifford._image` runs it across a tableau's images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Set, Tuple


_FACTOR = "IXZY"  # the one letter table, indexed by x | z << 1
_CHAR_TO_BITS = {c: (k & 1, k >> 1) for k, c in enumerate(_FACTOR)}
_PHASE_PREFIX = {0: "+", 1: "i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"+": 0, "": 0, "i": 1, "-": 2, "-i": 3}
DEPOLARIZING_MAX_QUBITS = 10  # its channel holds 4^n Paulis, 10^6 at n = 10


class PauliDimensionError(ValueError):
    """Raised when operands act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli operator ``i**phase * P``."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n_qubits) - 1
        if (self.x_mask & ~mask) or (self.z_mask & ~mask):
            raise ValueError("mask bits beyond n_qubits must be zero")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, kind: str) -> "PauliOperator":
        """One non-identity factor `kind` in {X,Y,Z} at `qubit`, identity elsewhere."""
        x, z = _CHAR_TO_BITS[kind]
        return cls(n_qubits, x << qubit, z << qubit)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse the textual format: optional +/-/i/-i prefix, then {I,X,Y,Z}
        characters little-endian by qubit index (first char is qubit 0)."""
        s = text.strip()
        prefix = ""
        for cand in ("-i", "+", "-", "i"):
            if s.startswith(cand):
                prefix = cand
                s = s[len(cand):]
                break
        if not s or any(c not in _CHAR_TO_BITS for c in s):
            raise ValueError(f"bad pauli string: {text!r}")
        x = z = 0
        for j, c in enumerate(s):
            xb, zb = _CHAR_TO_BITS[c]
            x |= xb << j
            z |= zb << j
        return cls(len(s), x, z, _PREFIX_PHASE[prefix])

    # -- queries -----------------------------------------------------------

    def factor(self, qubit: int) -> str:
        return _FACTOR[(self.x_mask >> qubit) & 1 | ((self.z_mask >> qubit) & 1) << 1]

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def representative(self) -> "PauliOperator":
        """Phase-0 canonical group representative."""
        if self.phase == 0:
            return self
        return PauliOperator(self.n_qubits, self.x_mask, self.z_mask, 0)

    @property
    def sign_bit(self) -> int:
        """0 for +P, 1 for -P; phase must be real."""
        if self.phase % 2:
            raise ValueError("operator has imaginary phase")
        return self.phase // 2

    def __str__(self) -> str:
        body = "".join(self.factor(j) for j in range(self.n_qubits))
        return _PHASE_PREFIX[self.phase] + body

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return pauli_multiply(self, other)


def _check_dims(p: PauliOperator, q: PauliOperator) -> None:
    if p.n_qubits != q.n_qubits:
        raise PauliDimensionError(
            f"operand sizes differ: {p.n_qubits} vs {q.n_qubits}")


# ---------------------------------------------------------------------------
# packed symplectic vectors


def _pack(p: PauliOperator) -> int:
    return p.x_mask | (p.z_mask << p.n_qubits)


def _unpack(vec: int, n: int, sign: int = 0) -> PauliOperator:
    mask = (1 << n) - 1
    return PauliOperator(n, vec & mask, (vec >> n) & mask, 2 * (sign & 1))


def _flip(v: int, n: int) -> int:
    """Swap the x/z halves of a packed vector (constraint form of ⟨v,·⟩)."""
    mask = (1 << n) - 1
    return ((v & mask) << n) | ((v >> n) & mask)


def _symplectic(u: int, v: int, n: int) -> int:
    """Symplectic product of two packed vectors: 0 commute, 1 anticommute."""
    return (u & _flip(v, n)).bit_count() & 1


def _to_factor_phase(vec: int, e: int, n: int) -> int:
    """Phase of ``i**e * X^x Z^z`` in I/X/Y/Z factor form, mod 4."""
    return (e - (vec & (vec >> n)).bit_count()) & 3


def _product(u: int, v: int, n: int) -> Tuple[int, int]:
    """Product of the phase-0 factor-form Paulis u·v as (vec, phase mod 4)."""
    e = ((u & (u >> n)).bit_count() + (v & (v >> n)).bit_count()
         + 2 * ((u >> n) & v).bit_count())
    return u ^ v, _to_factor_phase(u ^ v, e, n)


def _pauli_product(u: int, su: int, v: int, sv: int, n: int
                   ) -> Tuple[int, int]:
    """Product of the commuting signed factor-form Paulis (u, su)·(v, sv)
    as (vec, sign); anticommuting rows raise `ValueError`."""
    w, phase = _product(u, v, n)
    if phase & 1:
        raise ValueError("rows do not commute")
    return w, su ^ sv ^ phase >> 1


def pauli_multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact matrix product p·q with phase mod 4."""
    _check_dims(p, q)
    n = p.n_qubits
    w, phase = _product(_pack(p), _pack(q), n)
    return PauliOperator(n, w & ((1 << n) - 1), w >> n,
                         p.phase + q.phase + phase)


def pauli_commutes(p: PauliOperator, q: PauliOperator) -> bool:
    """True iff the symplectic form x_p·z_q + z_p·x_q vanishes mod 2."""
    _check_dims(p, q)
    return not _symplectic(_pack(p), _pack(q), p.n_qubits)


def pauli_support(p: PauliOperator) -> Set[int]:
    """Indices of non-identity tensor factors."""
    m = p.x_mask | p.z_mask
    out = set()
    j = 0
    while m:
        if m & 1:
            out.add(j)
        m >>= 1
        j += 1
    return out


def enumerate_paulis(n_qubits: int) -> Iterable[PauliOperator]:
    """All 4**n phase-0 representatives in (x, z) lexicographic order."""
    for x in range(1 << n_qubits):
        for z in range(1 << n_qubits):
            yield PauliOperator(n_qubits, x, z, 0)


@dataclass(frozen=True)
class PauliChannel:
    """Stochastic Pauli channel: probability weights over phase-0 Paulis."""

    n_qubits: int
    weights: Mapping[PauliOperator, float] = field(default_factory=dict)
    # λ(v) by packed v, filled by `eigenvalue`; a scaled channel is a new
    # object with its own memo
    _eigenvalues: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for op, w in self.weights.items():
            if op.phase != 0:
                raise ValueError("channel keys must be phase-0 representatives")
            if op.n_qubits != self.n_qubits:
                raise PauliDimensionError("channel key size mismatch")
            if not (0.0 <= w <= 1.0 + 1e-12):
                raise ValueError(f"weight out of range: {w}")
        # exactly rounded: a naive sum of the 4^8 depolarizing weights
        # already drifts 2e-12 from 1
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "weights", dict(self.weights))

    def eigenvalue(self, v: int) -> float:
        """Pauli eigenvalue λ(v) = Σ_E w_E (-1)^<E,v> at the packed
        ``x | z << n`` vector v, summed in weight order."""
        lam = self._eigenvalues.get(v)
        if lam is None:
            n = self.n_qubits
            lam = self._eigenvalues[v] = sum(
                -w if ((op.x_mask & (v >> n)) ^ (op.z_mask & v)).bit_count() & 1
                else w for op, w in self.weights.items())
        return lam

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliChannel":
        return cls(n_qubits, {PauliOperator.identity(n_qubits): 1.0})

    @classmethod
    def depolarizing(cls, n_qubits: int, p: float) -> "PauliChannel":
        """Depolarizing channel of strength p as a uniform Pauli channel:
        identity weight 1 - p(4^n - 1)/4^n, each non-identity weight p/4^n."""
        if n_qubits > DEPOLARIZING_MAX_QUBITS:
            raise ValueError(f"a depolarizing channel on {n_qubits} qubits "
                             f"has 4^{n_qubits} weights; the limit is "
                             f"{DEPOLARIZING_MAX_QUBITS} qubits")
        d4 = 4 ** n_qubits
        w: Dict[PauliOperator, float] = {}
        for op in enumerate_paulis(n_qubits):
            w[op] = 1.0 - p * (d4 - 1) / d4 if op.is_identity() else p / d4
        return cls(n_qubits, w)

    def scaled(self, factor: float) -> "PauliChannel":
        """Multiply every non-identity weight by `factor` (time ramping)."""
        w: Dict[PauliOperator, float] = {}
        ident = PauliOperator.identity(self.n_qubits)
        non_ident = 0.0
        for op, p in self.weights.items():
            if not op.is_identity():
                w[op] = p * factor
                non_ident += p * factor
        w[ident] = 1.0 - non_ident
        return PauliChannel(self.n_qubits, w)
