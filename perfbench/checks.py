"""Correctness checks on job outputs, written independently of cliffrb.

Each check returns a `(name, ok, detail)` triple; a job with any failing
check counts as failed.  Only the standard library is used here, so the
checks share no code with the library they judge.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

Check = Tuple[str, bool, str]

# -- Paulis as (k, x, z) = i^k * prod_j X_j^{x_j} * prod_j Z_j^{z_j} ----------

_PREFIX = {"+": 0, "i": 1, "-": 2, "-i": 3}


def parse_pauli(text: str) -> Tuple[int, int, int]:
    """'-XYZ' -> (k, x, z), qubit j being character j; Y = i X Z."""
    body = text.lstrip("+-i")
    k = _PREFIX[text[:len(text) - len(body)] or "+"]
    x = z = 0
    for j, ch in enumerate(body):
        if ch in "XY":
            x |= 1 << j
        if ch in "ZY":
            z |= 1 << j
        if ch == "Y":
            k += 1
    return k % 4, x, z


def pauli_product(a, b):
    """(i^a X^x1 Z^z1)(i^b X^x2 Z^z2): moving Z^z1 past X^x2 costs
    (-1)^|z1 & x2|."""
    k1, x1, z1 = a
    k2, x2, z2 = b
    return (k1 + k2 + 2 * bin(z1 & x2).count("1")) % 4, x1 ^ x2, z1 ^ z2


def conjugate(p, gate_images, qubits: Sequence[int]):
    """G p G^dagger for a gate whose local images of X_i / Z_i are given."""
    k, x, z = p
    img_x, img_z = gate_images
    local = 0
    for q in qubits:
        local |= 1 << q
    out = (k, x & ~local, z & ~local)

    def embed(img):
        ki, xi, zi = img
        xb = zb = 0
        for i, q in enumerate(qubits):
            xb |= ((xi >> i) & 1) << q
            zb |= ((zi >> i) & 1) << q
        return ki, xb, zb

    for i, q in enumerate(qubits):
        if (x >> q) & 1:
            out = pauli_product(out, embed(img_x[i]))
    for i, q in enumerate(qubits):
        if (z >> q) & 1:
            out = pauli_product(out, embed(img_z[i]))
    return out


def check_decomposition(report: dict,
                        gate_images: Dict[str, tuple]) -> List[Check]:
    """Propagate the 2n generators, signs included, through the emitted gate
    list and compare with the decomposed tableau.  `gate_images` holds the
    local (X images, Z images) of every gate of the target set."""
    gates = report["sequence"]["gates"]
    bad = sorted({g for g, _ in gates if g not in gate_images})
    out = [("gate_set", not bad, f"gates outside target: {bad}"),
           ("verified_flag", report["verified"] is True,
            "report says not verified")]
    if bad:
        return out
    wrong = []
    for kind in ("image_x", "image_z"):
        for i, want in enumerate(report["tableau"][kind]):
            p = (0, 1 << i, 0) if kind == "image_x" else (0, 0, 1 << i)
            for name, qubits in gates:
                p = conjugate(p, gate_images[name], qubits)
            if p != parse_pauli(want):
                wrong.append(f"{kind}[{i}]")
    out.append(("propagation", not wrong, f"images differ: {wrong[:4]}"))
    return out


# -- numbers --------------------------------------------------------------------


def compare_numbers(got, want, rel: float = 1e-9, path: str = "") -> List[str]:
    """Paths where two JSON-like values differ (floats within `rel`)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [d for k in want
                for d in compare_numbers(got[k], want[k], rel, f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path or "/"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare_numbers(g, w, rel, f"{path}/{i}")]
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [path]
        if math.isnan(want) and math.isnan(got):
            return []
        ok = abs(got - want) <= rel * max(abs(got), abs(want)) or got == want
        return [] if ok else [path]
    return [] if got == want else [path]


def parse_dataset(text: str) -> List[Tuple[str, int, int, int, int]]:
    lines = text.strip().splitlines()
    if lines[0] != "protocol,length,seq_index,n_shots,n_correct":
        raise ValueError("unexpected dataset header")
    rows = []
    for ln in lines[1:]:
        tag, l, s, ns, nc = ln.split(",")
        rows.append((tag, int(l), int(s), int(ns), int(nc)))
    return rows


def check_dataset(text: str, protocol: str, lengths: Sequence[int],
                  n_seq: int, shots: int) -> Check:
    rows = parse_dataset(text)
    want = [(protocol, l, s, shots) for l in lengths for s in range(n_seq)]
    ok = ([r[:4] for r in rows] == want
          and all(0 <= r[4] <= shots for r in rows))
    return ("dataset_shape", ok, f"{len(rows)} rows, want {len(want)}")


def check_survival(text: str, expected: Dict[int, float],
                   z_max: float = 6.0) -> Check:
    """Mean survival per length within z_max binomial standard errors of a
    sequence-independent expected survival."""
    rows = parse_dataset(text)
    worst = 0.0
    for l, p in expected.items():
        sel = [(ns, nc) for _, ll, _, ns, nc in rows if ll == l]
        shots = sum(ns for ns, _ in sel)
        mean = sum(nc for _, nc in sel) / shots
        se = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        worst = max(worst, abs(mean - p) / se)
    return ("survival_vs_theory", worst <= z_max, f"worst z = {worst:.2f}")


def check_close(name: str, got: float, want: float, se: float,
                z_max: float = 6.0) -> Check:
    z = abs(got - want) / se if se > 0 else math.inf
    return (name, z <= z_max, f"got {got:.6g}, want {want:.6g}, z = {z:.2f}")


def check_bootstrap(boot: dict, fit_params: dict) -> List[Check]:
    original = dict(zip(boot["param_names"], boot["original"]))
    diffs = compare_numbers(original, fit_params)
    ok_ratio = 1 - boot["n_failures"] / boot["n_resamples"]
    ses = boot["standard_errors"]
    return [("bootstrap_original_is_fit", not diffs, f"differ at {diffs}"),
            ("bootstrap_failures", ok_ratio >= 0.9, f"ok ratio {ok_ratio}"),
            ("bootstrap_errors_positive",
             all(math.isfinite(s) and s > 0 for s in ses), f"SEs {ses}")]
