"""Exact stochastic-Pauli error propagation in the Heisenberg picture.

A sequence applies steps U_1 ... U_L to |0...0>, each step t followed by its
Pauli channel Λ_t (weights w_E), then an optional SPAM channel, then measures
commuting Paulis M_1 ... M_k.  A Pauli error E after step t flips the outcome
of M_j exactly when E anticommutes with B_t^j, the operator M_j carried back
through steps L, ..., t+1.  Averaging the indicator "no outcome flipped" over
independent errors gives

    F = 2^-k · Σ_{s ∈ {0,1}^k} λ_spam(B_L^s) · Π_t λ_t(B_t^s),

where B_t^s is the product of the B_t^j that s selects and
λ(v) = Σ_E w_E (-1)^<E,v> is the channel's Pauli eigenvalue at v, read from
`PauliChannel.eigenvalue`, which memoises it on the channel object (a
time-ramped step gets a fresh channel and so a fresh memo).  Signs never
enter, so every operator is a sign-free packed vector.  Carried back through
all steps, M_j becomes R_j = U†M_jU with U = U_L ... U_1; the outcome of M_j is
deterministic in the noise-free run exactly when R_j is Z-type (no X bits),
and anything else is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .clifford import _pull_back
from .pauli import PauliChannel, PauliOperator, _pack

DEFAULT_QUBIT_CAP = 20  # most measured Paulis: the sum runs over 2^k terms
# the step labels of the exact and interleaved protocols
STEP_LABELS = ("clifford", "gate", "inversion")


class ResourceLimitError(RuntimeError):
    pass


@dataclass
class ErrorModel:
    """Per-step stochastic error description.

    `default_channel` follows every step; `per_gate` overrides by step label;
    `time_ramp` multiplies non-identity weights by (1 + gamma*t) at step t
    (t = 1, 2, ... from sequence start); `spam_channel` is applied once
    before the final measurement.
    """

    default_channel: PauliChannel
    per_gate: Dict[str, PauliChannel] = field(default_factory=dict)
    time_ramp: Optional[float] = None
    spam_channel: Optional[PauliChannel] = None

    def channel_for(self, label: str, t: int) -> PauliChannel:
        ch = self.per_gate.get(label, self.default_channel)
        if self.time_ramp:
            ch = ch.scaled(1.0 + self.time_ramp * t)
        return ch

    # -- JSON ----------------------------------------------------------------

    @staticmethod
    def _channel_from_json(obj: dict, n: int) -> PauliChannel:
        if obj["type"] == "depolarizing":
            return PauliChannel.depolarizing(n, float(obj["p"]))
        if obj["type"] == "pauli":
            weights = {PauliOperator.from_string(k): float(v)
                       for k, v in obj["weights"].items()}
            ident = PauliOperator.identity(n)
            weights[ident] = 1.0 - sum(v for k, v in weights.items()
                                       if not k.is_identity())
            return PauliChannel(n, weights)
        raise ValueError(f"unknown channel type {obj['type']!r}")

    def check_ramp(self, last_step: int) -> None:
        """ValueError unless every step label's channel is a channel at every
        step up to last_step.  The weights are affine in t and valid at
        t = 0, so checking t = last_step covers every step."""
        if self.time_ramp:
            for label in STEP_LABELS:
                self.channel_for(label, last_step)

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "ErrorModel":
        unknown = sorted(set(obj.get("per_gate", {})) - set(STEP_LABELS))
        if unknown:
            raise ValueError(f"per_gate labels {unknown} name no step; "
                             f"steps are {', '.join(STEP_LABELS)}")
        ramp = obj.get("time_ramp")
        if ramp is not None and (isinstance(ramp, bool)
                                 or not isinstance(ramp, (int, float))
                                 or not math.isfinite(ramp)):
            raise ValueError(f"time_ramp {ramp!r} is not a finite number")
        return cls(
            default_channel=cls._channel_from_json(obj["default"], n),
            per_gate={k: cls._channel_from_json(v, n)
                      for k, v in obj.get("per_gate", {}).items()},
            time_ramp=ramp,
            spam_channel=(cls._channel_from_json(obj["spam"], n)
                          if obj.get("spam") else None),
        )


def _subset_products(vecs: List[int]) -> List[int]:
    """Packed product of every subset s of vecs; bit j of s selects vecs[j]."""
    out = [0]
    for v in vecs:
        out += [u ^ v for u in out]
    return out


def expected_sequence_fidelity(sequence, model: ErrorModel) -> float:
    """Exact probability that the sequence ends in its ideal outcome.

    `sequence` provides n_qubits, steps (label, tableau) and measured_paulis;
    every step is followed by its error channel, SPAM error precedes the
    final measurement, and all measured operators must be deterministic in
    the noise-free run (which they are for the generated RB protocols).
    """
    measured = sequence.measured_paulis
    if len(measured) > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(
            f"fidelity sum capped at {DEFAULT_QUBIT_CAP} measured Paulis")
    # (channel, the step it follows)
    stages = [(model.channel_for(label, t), tab)
              for t, (label, tab) in enumerate(sequence.steps, start=1)]
    if model.spam_channel is not None:
        stages.append((model.spam_channel, None))
    back = [_pack(p) for p in measured]  # B_L^j = M_j
    acc = [1.0] * (1 << len(back))
    for ch, tab in reversed(stages):
        acc = [a * ch.eigenvalue(v)
               for a, v in zip(acc, _subset_products(back))]
        if tab is not None:
            back = _pull_back(tab, back)  # B_{t-1}^j
    mask = (1 << sequence.n_qubits) - 1
    for p, r in zip(measured, back):  # back[j] is now R_j = U†M_jU
        if r & mask:
            raise ValueError(f"measured operator {p} is not deterministic")
    return sum(acc) / len(acc)
