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
from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .clifford import (
    QUOTIENT_TABLE_MAX_QUBITS,
    CliffordTableau,
    GateSequence,
    _draw_widths,
    _rand_bits,
    clifford_compose,
    clifford_inverse,
    pauli_tableau,
    quotient_group,
    sample_uniform,
)
from .errors import ErrorModel, _subset_products, expected_sequence_fidelity
from .gates import _ONE_QUBIT_MAP, get_gate, sequence_tableau
from .pauli import PauliDimensionError, PauliOperator
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
        if abs(sum(probs) - 1.0) > 1e-12 or any(not p >= 0 for p in probs):
            raise ValueError("probabilities must be a distribution")
        codes = [tab.encode() for tab, _ in self.elements]
        if len(set(codes)) != len(codes):
            raise ValueError("tableaux must be distinct")

    def sample(self, rng) -> CliffordTableau:
        i = rng.choice(len(self.elements), p=[p for _, p in self.elements])
        return self.elements[int(i)][0]


def _random_pauli(n: int, draw) -> PauliOperator:
    """Uniform Pauli from two n-bit ``draw(nbits)`` calls, X bits first."""
    return PauliOperator(n, draw(n), draw(n), 0)


def _pauli_outcomes(pauli: PauliOperator) -> Tuple[int, ...]:
    """Z outcomes after a sequence whose product is `pauli`: P|0...0> is
    |x> up to phase, x the X bits of P."""
    return tuple((pauli.x_mask >> j) & 1 for j in range(pauli.n_qubits))


def _twirled_sequence(protocol: str, n: int, l: int,
                      gate: Optional[CliffordTableau], rng) -> RBSequence:
    """l uniform Cliffords, each followed by `gate` when one is given, then
    the inversion step times a uniformly random Pauli."""
    if l < 1:
        raise ValueError("sequence length must be positive")
    steps: List[Tuple[str, CliffordTableau]] = []
    for _ in range(l):
        steps.append(("clifford", sample_uniform(n, rng)))
        if gate is not None:
            steps.append(("gate", gate))
    total = CliffordTableau.identity(n)
    for _, tab in steps:
        total = clifford_compose(tab, total)
    pauli = _random_pauli(n, partial(_rand_bits, rng))
    inversion = clifford_compose(pauli_tableau(pauli), clifford_inverse(total))
    return RBSequence(
        protocol=protocol, n_qubits=n, length=l, core_steps=tuple(steps),
        inversion=inversion, final_pauli=pauli,
        measured_qubits=tuple(range(n)),
        ideal_outcomes=_pauli_outcomes(pauli))


def gen_exact_sequence(n: int, l: int, rng) -> RBSequence:
    return _twirled_sequence("exact", n, l, None, rng)


def gen_interleaved_sequence(n: int, l: int, g: CliffordTableau, rng) -> RBSequence:
    return _twirled_sequence("interleaved", n, l, g, rng)


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
    measured = [j for j in range(n) if stab.factor(j) != "I"]
    inversion = sequence_tableau(GateSequence(n, tuple(
        (_ONE_QUBIT_MAP[(stab.factor(j), "Z")], (j,)) for j in measured)))
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
        if any(a >= b for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly ascending")
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
        """Parse `to_csv` text.  A malformed row, length < 1, n_shots < 1 or
        n_correct outside [0, n_shots] is a ValueError naming its line."""
        lines = [(no, ln.strip()) for no, ln in
                 enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty dataset")
        if lines[0][1] != "protocol,length,seq_index,n_shots,n_correct":
            raise ValueError("unrecognized dataset header")
        rows = []
        for no, ln in lines[1:]:
            tag, *fields = ln.split(",")
            try:
                l, s, ns, nc = map(int, fields)
            except ValueError:
                raise ValueError(f"line {no}: expected a protocol and four "
                                 f"integers, got {ln!r}") from None
            if l < 1:
                raise ValueError(f"line {no}: length must be at least 1")
            if ns < 1:
                raise ValueError(f"line {no}: n_shots must be positive")
            if not 0 <= nc <= ns:
                raise ValueError(f"line {no}: n_correct must lie in "
                                 f"[0, n_shots]")
            rows.append((tag, l, s, ns, nc))
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


# -- the table path at n <= 2 -------------------------------------------------
#
# At n <= 2 a step's sign-free part is one of the 6 or 720 elements of the
# quotient group, and a sequence's fidelity depends on nothing else.  The
# sampler's image draws have fixed widths (`clifford._draw_widths`), so a
# step's valid draws pack into one key, which `group.draws` maps to its
# element.  The running product is a product-table lookup: the path asks the
# record for every row of the table once, which fills the rows not yet
# filled, and then reads the table in place.  The measured operators
# carried back to each stage are Pauli-label images.  The path
# makes the same draws, λ lookups and float products in the same order as
# the general path, so its fidelities and generator states are bit for bit
# the general path's.


_Simulator = Callable[[int, np.random.Generator], float]


def _general_simulator(protocol: str, n: int, model: ErrorModel,
                       gate: Optional[CliffordTableau]) -> _Simulator:
    factory = sequence_factory(protocol, n, gate)
    return lambda l, rng: expected_sequence_fidelity(factory(l, rng), model)


def _table_simulator(protocol: str, n: int, model: ErrorModel,
                     gate: Optional[CliffordTableau]) -> Optional[_Simulator]:
    """`_general_simulator` by table lookups, or None where it does not
    apply: n > 2, protocols other than exact and interleaved, and time-ramped
    models (a new channel at every step)."""
    if (n > QUOTIENT_TABLE_MAX_QUBITS or model.time_ramp
            or protocol not in ("exact", "interleaved")):
        return None
    group = quotient_group(n)
    rows = group.images.tolist()
    product = group.rows(slice(None)).item
    draw_index = group.draws
    # (X width, X shift, Z width, Z shift) of each step's draws: a k-bit
    # draw is its word shifted right by 32 - k
    reads = [(wx, 32 - wx, wz, 32 - wz) for wx, wz in _draw_widths(n)]

    def lam(ch) -> List[float]:  # λ of every Pauli label
        return [ch.eigenvalue(v) for v in range(4 ** n)]

    # without a ramp a label's channel does not depend on t
    lam_clifford = lam(model.channel_for("clifford", 1))
    head = [lam(model.channel_for("inversion", 1))]  # after the last step
    if model.spam_channel is not None:
        head.insert(0, lam(model.spam_channel))
    if protocol == "interleaved":
        if gate.n_qubits != n:
            raise PauliDimensionError("gate size mismatch")
        lam_gate = lam(model.channel_for("gate", 1))
        gate_index = group.index_of(gate)
    measured = _subset_products([1 << (n + j) for j in range(n)])  # Z_j
    identity = group.index_of(CliffordTableau.identity(n))

    def simulate(l: int, rng: np.random.Generator) -> float:
        # each k-bit draw is the top k bits of the next word of a uint32
        # block (numpy's power-of-two draws never reject, and no draw here
        # has width 0); blocks of 2n + 2 words a step are drawn ahead as
        # needed, then rewound to the words used
        bits = rng.bit_generator
        state = bits.state
        block = (2 * n + 2) * (l + 1)
        words = rng.integers(0, 1 << 32, size=block, dtype=np.uint32).tolist()
        used = 0

        def draw(nbits: int) -> int:  # leaves a step's 2n image words ahead
            nonlocal used
            used += 1
            if len(words) - used < 2 * n:
                words.extend(rng.integers(0, 1 << 32, size=block,
                                          dtype=np.uint32).tolist())
            return words[used - 1] >> (32 - nbits)

        stages = []  # (λ list, images under the running product) per step
        total = identity
        for _ in range(l):
            key = 0
            for wx, sx, wz, sz in reads:
                while not words[used] >> sx:  # a zero X draw is drawn again
                    draw(wx)
                x = words[used] >> sx
                key = (key << wx | x) << wz | words[used + 1] >> sz
                used += 2
            draw(2 * n)  # the step's signs leave its element unchanged
            total = product(draw_index[key], total)
            stages.append((lam_clifford, rows[total]))
            if protocol == "interleaved":
                total = product(gate_index, total)
                stages.append((lam_gate, rows[total]))
        _random_pauli(n, draw)  # the inversion's Pauli: its draws only
        bits.state = state
        rng.integers(0, 1 << 32, size=used, dtype=np.uint32)
        # each subset's product in the general path's stage order: SPAM,
        # inversion, steps last to first; the measured Z_j carried back to
        # step t's channel are their images under the product of steps 1..t
        acc = []
        for m in measured:
            a = 1.0
            for lams in head:
                a *= lams[m]
            for lams, row in reversed(stages):
                a *= lams[row[m]]
            acc.append(a)
        return sum(acc) / len(acc)

    return simulate


def run_experiment(design: ExperimentDesign, protocol: str, model: ErrorModel,
                   n_qubits: int, gate: Optional[CliffordTableau] = None) -> RBDataset:
    """Exact per-sequence success probabilities with binomial shot noise.

    Runs that `_table_simulator` covers take it; the dataset is the same on
    either path."""
    general = _general_simulator(protocol, n_qubits, model, gate)
    simulate = _table_simulator(protocol, n_qubits, model, gate) or general
    data = RBDataset()
    for length, count in zip(design.lengths, design.counts()):
        for s in range(count):
            rng = np.random.default_rng(
                sequence_seed(design.master_seed, protocol, length, s))
            fid = simulate(length, rng)
            n_correct = int(rng.binomial(design.n_shots, fid))
            data.rows.append((protocol, length, s, design.n_shots, n_correct))
    return data
