"""Randomized-benchmarking sequence generation and experiment orchestration.

Three sequence families:

* exact twirl -- l uniformly random Cliffords followed by an inversion step
  that undoes their product up to a fresh uniformly random Pauli (the
  measurement randomization);
* interleaved -- the same with a fixed gate of interest inserted after every
  random Clifford;
* approximate twirl -- steps drawn i.i.d. from a cheap step distribution
  (e.g. uniform Pauli times a 90-degree rotation), closed out by a *partial*
  inversion: rotate one random stabilizer of the final state onto a tensor of
  Z operators and measure its (deterministic) parity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .clifford import (
    CliffordTableau,
    _ONE_QUBIT_MAP,
    _rand_bits,
    clifford_compose,
    clifford_inverse,
    embed_tableau,
    pauli_tableau,
    sample_uniform,
)
from .errors import ErrorModel, expected_sequence_fidelity
from .gates import get_gate
from .pauli import PauliOperator
from .stabilizer import (
    apply_clifford,
    random_stabilizer_element,
    stabilizer_decomposition,
    zero_state,
)


@dataclass(frozen=True)
class RBSequence:
    protocol: str
    n_qubits: int
    length: int
    core_steps: Tuple[Tuple[str, CliffordTableau], ...]
    inversion: CliffordTableau
    final_pauli: PauliOperator
    measured_qubits: Tuple[int, ...]
    ideal_outcomes: Tuple[int, ...]
    parity_mode: bool = False

    @property
    def steps(self) -> Tuple[Tuple[str, CliffordTableau], ...]:
        return self.core_steps + (("inversion", self.inversion),)

    @property
    def measured_paulis(self) -> Tuple[PauliOperator, ...]:
        n = self.n_qubits
        if self.parity_mode:
            z = sum(1 << j for j in self.measured_qubits)
            return (PauliOperator(n, 0, z, 0),)
        return tuple(PauliOperator.single(n, j, "Z") for j in self.measured_qubits)

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "n_qubits": self.n_qubits,
            "length": self.length,
            "steps": [[label, tab.to_json()] for label, tab in self.core_steps],
            "inversion": self.inversion.to_json(),
            "final_pauli": str(self.final_pauli),
            "measured_qubits": list(self.measured_qubits),
            "ideal_outcomes": list(self.ideal_outcomes),
            "parity_mode": self.parity_mode,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RBSequence":
        return cls(
            protocol=obj["protocol"],
            n_qubits=obj["n_qubits"],
            length=obj["length"],
            core_steps=tuple((label, CliffordTableau.from_json(t))
                             for label, t in obj["steps"]),
            inversion=CliffordTableau.from_json(obj["inversion"]),
            final_pauli=PauliOperator.from_string(obj["final_pauli"]),
            measured_qubits=tuple(obj["measured_qubits"]),
            ideal_outcomes=tuple(obj["ideal_outcomes"]),
            parity_mode=obj["parity_mode"],
        )


@dataclass(frozen=True)
class StepDistribution:
    elements: Tuple[Tuple[CliffordTableau, float], ...]

    def __post_init__(self):
        probs = [p for _, p in self.elements]
        if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
            raise ValueError("probabilities must be a distribution")
        codes = [tab.encode() for tab, _ in self.elements]
        if len(set(codes)) != len(codes):
            raise ValueError("tableaux must be distinct")

    def sample(self, rng) -> CliffordTableau:
        i = rng.choice(len(self.elements), p=[p for _, p in self.elements])
        return self.elements[int(i)][0]


def _random_pauli(n: int, rng) -> PauliOperator:
    return PauliOperator(n, _rand_bits(rng, n), _rand_bits(rng, n), 0)


def _pauli_outcomes(pauli: PauliOperator) -> Tuple[int, ...]:
    """Z outcomes after a sequence whose product is `pauli`: P|0...0> is
    |x> up to phase, x the X bits of P."""
    return tuple((pauli.x_mask >> j) & 1 for j in range(pauli.n_qubits))


def gen_exact_sequence(n: int, l: int, rng) -> RBSequence:
    if l < 1:
        raise ValueError("sequence length must be positive")
    steps = tuple(("clifford", sample_uniform(n, rng)) for _ in range(l))
    total = CliffordTableau.identity(n)
    for _, tab in steps:
        total = clifford_compose(tab, total)
    pauli = _random_pauli(n, rng)
    inversion = clifford_compose(pauli_tableau(pauli), clifford_inverse(total))
    return RBSequence(
        protocol="exact", n_qubits=n, length=l, core_steps=steps,
        inversion=inversion, final_pauli=pauli,
        measured_qubits=tuple(range(n)),
        ideal_outcomes=_pauli_outcomes(pauli))


def gen_interleaved_sequence(n: int, l: int, g: CliffordTableau, rng) -> RBSequence:
    if l < 1:
        raise ValueError("sequence length must be positive")
    steps: List[Tuple[str, CliffordTableau]] = []
    total = CliffordTableau.identity(n)
    for _ in range(l):
        c = sample_uniform(n, rng)
        steps.append(("clifford", c))
        steps.append(("gate", g))
        total = clifford_compose(g, clifford_compose(c, total))
    pauli = _random_pauli(n, rng)
    inversion = clifford_compose(pauli_tableau(pauli), clifford_inverse(total))
    steps = tuple(steps)
    return RBSequence(
        protocol="interleaved", n_qubits=n, length=l, core_steps=steps,
        inversion=inversion, final_pauli=pauli,
        measured_qubits=tuple(range(n)),
        ideal_outcomes=_pauli_outcomes(pauli))


def gen_approximate_sequence(dist: Tuple[Optional[StepDistribution], StepDistribution],
                             l: int, rng) -> RBSequence:
    """Steps drawn i.i.d. from (pauli part) x (computational part), closed by
    a partial inversion onto a random stabilizer."""
    pauli_part, comp_part = dist
    if l < 1:
        raise ValueError("sequence length must be positive")
    n = comp_part.elements[0][0].n_qubits
    steps = []
    for _ in range(l):
        step = comp_part.sample(rng)
        if pauli_part is not None:
            step = clifford_compose(step, pauli_part.sample(rng))
        steps.append(("step", step))
    steps = tuple(steps)

    state = zero_state(n)
    for _, tab in steps:
        apply_clifford(state, tab)
    stab = random_stabilizer_element(state, rng)
    inversion = CliffordTableau.identity(n)
    measured = []
    for j in range(n):
        f = stab.factor(j)
        if f == "I":
            continue
        measured.append(j)
        gate = _ONE_QUBIT_MAP[(f, "Z")]
        if gate != "I":
            inversion = clifford_compose(
                embed_tableau(get_gate(gate).tableau, (j,), n), inversion)
    apply_clifford(state, inversion)
    z_mask = sum(1 << j for j in measured)
    dec = stabilizer_decomposition(state, PauliOperator(n, 0, z_mask, 0))
    assert dec is not None, "rotated stabilizer must be a Z tensor"
    return RBSequence(
        protocol="approximate", n_qubits=n, length=l, core_steps=steps,
        inversion=inversion, final_pauli=PauliOperator.identity(n),
        measured_qubits=tuple(measured), ideal_outcomes=(dec[1],),
        parity_mode=True)


def knill_1q_distribution() -> Tuple[StepDistribution, StepDistribution]:
    """Uniform single-qubit Pauli times a uniform 90-degree rotation."""
    pauli_part = StepDistribution(tuple(
        (pauli_tableau(PauliOperator(1, m & 1, m >> 1, 0)), 0.25)
        for m in range(4)))
    comp = tuple((get_gate(name).tableau, 0.25)
                 for name in ("X90", "X90m", "Y90", "Y90m"))
    return pauli_part, StepDistribution(comp)


# -- experiment orchestration ----------------------------------------------------


@dataclass(frozen=True)
class ExperimentDesign:
    lengths: Tuple[int, ...]
    n_sequences: Union[int, Tuple[int, ...]]
    n_shots: int
    master_seed: int

    def __post_init__(self):
        if not self.lengths or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if list(self.lengths) != sorted(self.lengths):
            raise ValueError("lengths must be sorted")
        if self.n_shots < 1:
            raise ValueError("shot count must be positive")
        counts = self.counts()
        if len(counts) != len(self.lengths) or any(c < 1 for c in counts):
            raise ValueError("sequence counts must be positive, one per length")

    def counts(self) -> Tuple[int, ...]:
        if isinstance(self.n_sequences, int):
            return tuple(self.n_sequences for _ in self.lengths)
        return tuple(self.n_sequences)


@dataclass
class RBDataset:
    rows: List[Tuple[str, int, int, int, int]] = field(default_factory=list)
    # row = (protocol, length, seq_index, n_shots, n_correct)

    def to_csv(self) -> str:
        lines = ["protocol,length,seq_index,n_shots,n_correct"]
        for row in self.rows:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "RBDataset":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if lines[0] != "protocol,length,seq_index,n_shots,n_correct":
            raise ValueError("unrecognized dataset header")
        rows = []
        for ln in lines[1:]:
            tag, l, s, ns, nc = ln.split(",")
            rows.append((tag, int(l), int(s), int(ns), int(nc)))
        return cls(rows)

    def lengths(self) -> List[int]:
        return sorted({l for _, l, _, _, _ in self.rows})

    def fidelities(self, length: int) -> np.ndarray:
        return np.array([nc / ns for _, l, _, ns, nc in self.rows if l == length])


def sequence_seed(master_seed: int, tag: str, length: int, index: int) -> int:
    """Stable 64-bit per-sequence seed; any sequence is reproducible alone."""
    text = f"{master_seed}:{tag}:{length}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


SequenceFactory = Callable[[int, np.random.Generator], RBSequence]


def sequence_factory(protocol: str, n: int,
                     gate: Optional[CliffordTableau] = None) -> SequenceFactory:
    if protocol == "exact":
        return lambda l, rng: gen_exact_sequence(n, l, rng)
    if protocol == "interleaved":
        if gate is None:
            raise ValueError("interleaved protocol needs a gate")
        return lambda l, rng: gen_interleaved_sequence(n, l, gate, rng)
    if protocol == "knill-1q":
        if n != 1:
            raise ValueError("knill-1q is a single-qubit protocol")
        dist = knill_1q_distribution()
        return lambda l, rng: gen_approximate_sequence(dist, l, rng)
    raise ValueError(f"unknown protocol {protocol!r}")


def run_experiment(design: ExperimentDesign, protocol: str, model: ErrorModel,
                   n_qubits: int, gate: Optional[CliffordTableau] = None) -> RBDataset:
    """Exact per-sequence success probabilities with binomial shot noise."""
    factory = sequence_factory(protocol, n_qubits, gate)
    data = RBDataset()
    for length, count in zip(design.lengths, design.counts()):
        for s in range(count):
            rng = np.random.default_rng(
                sequence_seed(design.master_seed, protocol, length, s))
            seq = factory(length, rng)
            fid = expected_sequence_fidelity(seq, model)
            n_correct = int(rng.binomial(design.n_shots, fid))
            data.rows.append((protocol, length, s, design.n_shots, n_correct))
    return data


def max_useful_length(eps_est: float, n: int, n_e: int, n_l: int,
                      cap: int = 10 ** 6) -> int:
    """Largest length whose expected decay amplitude still clears the binomial
    noise floor of the averaged survival estimate."""
    alpha = (2 ** n - 1) / 2 ** n
    if not 0 < eps_est < alpha:
        raise ValueError("error estimate must lie in (0, alpha_n)")
    best = 0
    for l in range(1, cap):
        amp = alpha * (1 - eps_est / alpha) ** l
        f = (1 - alpha) + amp
        noise = np.sqrt(f * (1 - f) / (n_e * n_l))
        if noise < amp:
            best = l
        else:
            break
    return best
