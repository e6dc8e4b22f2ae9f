"""Twirl-quality diagnostics for approximately randomized benchmarks.

Three related tools: (1) Markov-chain convolution of a step distribution over
the sign-free Clifford group with its total-variation distance from uniform,
(2) a linear-program bound on how far an error-per-step estimate taken with a
non-uniform step distribution can sit from the uniform-twirl value, and (3)
first-order bounds on the mis-estimation of a Pauli channel's depolarizing
strength when the steps separating the error from the measurement do not twirl
it completely.

Everything here works on the quotient group (Cliffords modulo Pauli factors),
which is enumerable for n <= 2.  It reads the group as arrays from the one
cached record per n, `clifford.quotient_group`: Pauli-label images, the
product table's rows, which the record fills on first use, so a
distribution of small support pays only for its own rows, and `index_of`,
which indexes an element by its rank.  Sums run in element order, bit for
bit as the loops in `tests/oracles.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .clifford import (
    QUOTIENT_TABLE_MAX_QUBITS,
    CliffordTableau,
    QuotientGroup,
    quotient_group,
)
from .pauli import PauliOperator, _pack, _symplectic, _unpack

MAX_QUBITS = QUOTIENT_TABLE_MAX_QUBITS
# l·error above which kappa_bounds flags its first-order expansion as unsafe
FIRST_ORDER_LIMIT = 0.2


class EnumerationUnavailableError(ValueError):
    pass


class InfeasibleBoundError(ValueError):
    pass


def _group(n: int) -> QuotientGroup:
    if n > MAX_QUBITS:
        raise EnumerationUnavailableError(
            f"quotient-group enumeration is limited to n <= {MAX_QUBITS}")
    return quotient_group(n)


@dataclass(frozen=True)
class GroupDistribution:
    """Probability distribution over the sign-free Clifford group."""
    n_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(_group(self.n_qubits).elements),):
            raise ValueError("probability vector has wrong length")
        if not np.all(p >= -1e-12) or abs(p.sum() - 1) > 1e-9:
            raise ValueError("not a probability distribution")
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n_qubits: int) -> "GroupDistribution":
        size = len(_group(n_qubits).elements)
        return cls(n_qubits, np.full(size, 1 / size))

    @classmethod
    def delta(cls, tab: CliffordTableau) -> "GroupDistribution":
        return cls.from_weights(tab.n_qubits, [(tab, 1.0)])

    @classmethod
    def from_weights(cls, n_qubits: int,
                     weights: Sequence[Tuple[CliffordTableau, float]]
                     ) -> "GroupDistribution":
        group = _group(n_qubits)
        p = np.zeros(len(group.elements))
        for tab, w in weights:
            if tab.n_qubits != n_qubits:
                raise ValueError(f"tableau acts on {tab.n_qubits} qubits, "
                                 f"the distribution on {n_qubits}")
            p[group.index_of(tab)] += w
        return cls(n_qubits, p)

    def support(self) -> np.ndarray:
        return np.nonzero(self.probs > 0)[0]


def convolve(a: GroupDistribution, b: GroupDistribution) -> GroupDistribution:
    """Distribution of the composition (a-element applied after b-element)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("size mismatch")
    # whole rows of a's support, with b's weight 0.0 off its support: each
    # bin adds its terms in (i, j) order, and a +0.0 term leaves a
    # nonnegative sum bit for bit as it was
    sa = a.support()
    products = _group(a.n_qubits).rows(sa)
    weights = np.outer(a.probs[sa], np.where(b.probs > 0, b.probs, 0.0))
    out = np.bincount(products.ravel(), weights.ravel(),
                      minlength=a.probs.size)
    return GroupDistribution(a.n_qubits, out)


def step_aggregates(d: GroupDistribution, j_max: int
                    ) -> List[GroupDistribution]:
    """Distributions of the aggregate of 1..j_max consecutive i.i.d. steps."""
    out: List[GroupDistribution] = []
    for _ in range(j_max):
        out.append(convolve(d, out[-1]) if out else d)
    return out


def convolve_steps(d: GroupDistribution, j: int) -> GroupDistribution:
    """Distribution of the aggregate of j consecutive i.i.d. steps."""
    if j < 1:
        raise ValueError("need at least one step")
    return step_aggregates(d, j)[-1]


def total_variation(d: GroupDistribution) -> float:
    return float(0.5 * np.abs(d.probs - 1 / len(d.probs)).sum())


def tv_series(d: GroupDistribution, j_max: int) -> List[float]:
    """Total variation from uniform of the aggregate after 1..j_max steps."""
    return [total_variation(acc) for acc in step_aggregates(d, j_max)]


def _tv_csv(series: Sequence[float]) -> str:
    rows = [f"{j},{v!r}" for j, v in enumerate(series, start=1)]
    return "\n".join(["steps,total_variation"] + rows) + "\n"


# -- LP bound on the error-per-step comparison --------------------------------


def _knapsack_max(c: np.ndarray, a: np.ndarray, budget: float,
                  upper: float) -> float:
    """Maximize c·s subject to a·s = budget, 0 <= s <= upper, a >= 0.

    Single equality plus box constraints: the optimum sits at a vertex found
    by allocating budget greedily in decreasing order of c/a, with the
    zero-coefficient variables set directly from the sign of c.
    """
    total = 0.0
    free = a <= 0
    total += upper * np.clip(c[free], 0.0, None).sum()
    idx = np.nonzero(~free)[0]
    if not -1e-12 <= budget <= a[idx].sum() * upper + 1e-12:
        raise InfeasibleBoundError("error rate is outside the feasible range "
                                   "of the step-distribution constraint")
    order = idx[np.argsort(-(c[idx] / a[idx]))]
    remaining = budget
    for g in order:
        s = min(upper, remaining / a[g])
        total += c[g] * s
        remaining -= a[g] * s
        if remaining <= 1e-15 * max(budget, 1.0):
            break
    return total


def step_comparison_bound(p_a: GroupDistribution, eps_a: float, alpha: float,
                          k: int = 1) -> Tuple[float, float]:
    """Bounds on the estimate shift between a p_a-stepped experiment and a
    uniform-twirl one.

    Per-element depolarizing strengths s_g are constrained by the observed
    error per step and by 0 <= s_g <= D^2/(D^2-1); the returned pair
    (delta_max, delta_min) brackets the weighted-mean difference between the
    uniform and the k-step-aggregate distributions.
    """
    n = p_a.n_qubits
    d2 = 4 ** n
    upper = d2 / (d2 - 1)
    p_k = convolve_steps(p_a, k).probs
    budget = (1 - (1 - alpha * eps_a) ** k) / alpha ** 2
    coeff = alpha * (1 / len(p_k) - p_k)
    delta_max = _knapsack_max(coeff, p_k, budget, upper)
    delta_min = -_knapsack_max(-coeff, p_k, budget, upper)
    return float(delta_max), float(delta_min)


# -- imperfect-depolarization bounds ------------------------------------------


def default_measurement(n: int) -> PauliOperator:
    """Single-qubit Z on the first qubit, the usual binary readout."""
    return PauliOperator(n, 0, 1, 0)


def _hidden(n: int, measured: Optional[PauliOperator]) -> np.ndarray:
    """[i, v]: whether element i's image of Pauli label v commutes with the
    measured operator."""
    m = _pack(default_measurement(n) if measured is None else measured)
    commutes = np.array([not _symplectic(u, m, n) for u in range(4 ** n)])
    return commutes[_group(n).images]


def _undetected(p_prime: GroupDistribution, hidden: np.ndarray) -> np.ndarray:
    """undetected_probability of every Pauli label, in element order."""
    s = p_prime.support()
    return np.cumsum(hidden[s] * p_prime.probs[s, None], axis=0)[-1]


def undetected_probability(p_prime: GroupDistribution, r: PauliOperator,
                           measured: Optional[PauliOperator] = None) -> float:
    """Probability that Pauli error r, pushed through an aggregate Clifford
    drawn from p_prime, commutes with the measured operator (goes unseen)."""
    hidden = _hidden(p_prime.n_qubits, measured)
    return float(_undetected(p_prime, hidden)[_pack(r)])


@dataclass(frozen=True)
class KappaReport:
    kappa_max: float
    kappa_min: float
    q_max: Tuple[float, ...]          # per step index k, extremal over Paulis
    q_min: Tuple[float, ...]
    r_max: Tuple[PauliOperator, ...]
    r_min: Tuple[PauliOperator, ...]
    first_order_warning: bool

    def to_json(self) -> str:
        return json.dumps({
            "kappa_max": self.kappa_max,
            "kappa_min": self.kappa_min,
            "q_max": list(self.q_max),
            "q_min": list(self.q_min),
            "r_max": [str(r) for r in self.r_max],
            "r_min": [str(r) for r in self.r_min],
            "first_order_warning": self.first_order_warning,
        }, indent=2)


def kappa_bounds(p_prime_k: Sequence[GroupDistribution], error: float,
                 measured: Optional[PauliOperator] = None) -> KappaReport:
    """First-order bounds on depolarizing-strength mis-estimation.

    p_prime_k[k-1] is the distribution of the aggregate Clifford separating an
    error in step k (counted from the measurement) from the readout; `error`
    is the observed total sequence error.  Returns the extremal difference
    between the true per-step strength of a Pauli error channel and the
    strength a standard analysis would infer (2 x observed error per step).
    """
    if not p_prime_k:
        raise ValueError("need at least one step distribution")
    n = p_prime_k[0].n_qubits
    if any(d.n_qubits != n for d in p_prime_k):
        raise ValueError("size mismatch among step distributions")
    if not error >= 0:
        raise ValueError("error must be nonnegative")
    l = len(p_prime_k)
    # q of every non-identity Pauli label, one row per step
    hidden = _hidden(n, measured)
    qs = np.array([_undetected(dist, hidden)[1:] for dist in p_prime_k])
    q_max, q_min = qs.max(axis=1).tolist(), qs.min(axis=1).tolist()
    r_max = [_unpack(int(v) + 1, n) for v in qs.argmax(axis=1)]
    r_min = [_unpack(int(v) + 1, n) for v in qs.argmin(axis=1)]
    # sum of detection probabilities for the stealthiest / loudest Pauli:
    # these bracket the channel strength consistent with the observed error
    miss_hi = sum(1 - q for q in q_max)
    miss_lo = sum(1 - q for q in q_min)
    upper = 4 ** n / (4 ** n - 1)
    gamma_hi = min(1.0, error / miss_hi) if miss_hi > 0 else 1.0
    gamma_lo = error / miss_lo if miss_lo > 0 else 0.0
    k_max = gamma_hi * upper - 2 * error / l
    k_min = gamma_lo * upper - 2 * error / l
    return KappaReport(float(k_max), float(k_min), tuple(q_max), tuple(q_min),
                       tuple(r_max), tuple(r_min),
                       first_order_warning=bool(l * error > FIRST_ORDER_LIMIT))
