"""The benchmark's workloads: the jobs each one runs, and their checks.

Driver side (`WORKLOADS`): a workload turns the run seed into a fixed list
of job specs (CLI arguments, API parameters and input files), plus warm-up
jobs at `REF_SEED` whose outputs are compared with the references in
`perfbench/refs/`.  This side imports nothing from cliffrb.

Job side (`JOB_KINDS`): each job kind has `prepare` (turn the spec into
ready inputs, before the setup clock stops), `run` (the timed work: CLI
commands through `cliffrb.cli.main`, or public API calls where the CLI
cannot express the task), `check` (correctness of the outputs, after the
timed work), and `summary` (what the driver aggregates: an output digest
and work counts).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import time
from typing import Callable, Dict, List, Optional

from perfbench import checks

REF_SEED = 1811
REFS_DIR = os.path.join("perfbench", "refs")


def sub_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def _digest(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        h.update(obj if isinstance(obj, bytes)
                 else json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()


def _read(jobdir: str, name: str) -> str:
    with open(os.path.join(jobdir, name)) as f:
        return f.read()


def _read_json(jobdir: str, name: str) -> dict:
    return json.loads(_read(jobdir, name))


def _steps(lengths, n_seq: int, per_length: Callable[[int], int]) -> int:
    return sum(n_seq * per_length(l) for l in lengths)


# =============================================================================
# driver side
# =============================================================================


class Workload:
    def __init__(self, name: str, kinds: List[str],
                 params: Callable[[str, int, int], dict]) -> None:
        self.name = name
        self.kinds = kinds        # job kinds of one round, in order
        self._params = params     # (kind, seed, index) -> spec

    def jobs(self, seed: int) -> List[dict]:
        return [self._params(kind, seed, i)
                for i, kind in enumerate(self.kinds)]

    def warmups(self) -> List[dict]:
        """A job at `REF_SEED`, checked against its stored reference, for
        each kind with a reference whose round jobs carry none themselves."""
        specs = [self._params(kind, REF_SEED, 0)
                 for kind in dict.fromkeys(self.kinds)]
        return [dict(spec, ref=ref_path(spec["kind"])) for spec in specs
                if JOB_KINDS[spec["kind"]].reference is not None
                and "ref" not in spec]


def ref_path(name: str) -> str:
    return os.path.join(REFS_DIR, f"{name}.json")


RB1_LENGTHS = [1, 3, 8, 21, 55, 144]
RB2_LENGTHS = [1, 2, 4, 8, 16, 32]
TWO_QUBIT_PAULIS = [a + b for a in "IXYZ" for b in "IXYZ"][1:]


def _rb_1q(kind: str, seed: int, index: int) -> dict:
    rng = random.Random(sub_seed("rb_1q", seed, index))
    return {"kind": kind, "params": {
        "lengths": RB1_LENGTHS, "n_seq": 50, "shots": 200, "resamples": 400,
        "p": round(rng.uniform(0.004, 0.010), 6),
        "spam": round(rng.uniform(0.01, 0.04), 6),
        "sim_seed": rng.getrandbits(32), "boot_seed": rng.getrandbits(32)}}


def _rb_2q(kind: str, seed: int, index: int) -> dict:
    rng = random.Random(sub_seed("rb_2q_interleaved", seed, index))
    p = round(rng.uniform(0.008, 0.015), 6)
    spam = round(rng.uniform(0.01, 0.03), 6)
    gate_weights = {q: round(rng.uniform(0.001, 0.005), 6)
                    for q in rng.sample(TWO_QUBIT_PAULIS, 3)}
    model = {"default": {"type": "depolarizing", "p": p},
             "per_gate": {"gate": {"type": "pauli", "weights": gate_weights}},
             "spam": {"type": "depolarizing", "p": spam}}
    return {"kind": kind, "files": {"model.json": json.dumps(model)},
            "params": {
                "lengths": RB2_LENGTHS, "n_seq": 8, "shots": 200,
                "resamples": 1000, "p": p, "spam": spam,
                "gate_weights": gate_weights,
                "seeds": [rng.getrandbits(32) for _ in range(4)]}}


COMPILE_SIZES = [16, 16, 8, 8, 8, 8]


def _compile(kind: str, seed: int, index: int) -> dict:
    return {"kind": kind, "params": {"circuits": [
        [n, sub_seed("compile", seed, index, i)]
        for i, n in enumerate(COMPILE_SIZES)]}}


def _gauss(rng: random.Random, rows: int, cols: int) -> list:
    """Complex Gaussian matrix as [real rows, imaginary rows]."""
    return [[[rng.gauss(0, 1) for _ in range(cols)] for _ in range(rows)]
            for _ in range(2)]


BOUNDS_SUPPORT = ["I", "H:0", "H:1", "S:0", "S:1", "X90:0", "X90:1", "CX"]


def _group_small(kind: str, seed: int, index: int) -> dict:
    rng = random.Random(sub_seed("group_small", seed, index))
    if kind == "group_cayley":
        # seed-independent: every run compares it with the reference
        return {"kind": kind, "params": {}, "ref": ref_path("group_small")}
    elif kind == "group_dense":
        params = {"channel2": _gauss(rng, 16, 4),
                  "channel3": [_gauss(rng, 32, 8), _gauss(rng, 32, 8)],
                  "rho3": _gauss(rng, 8, 8)}
    else:
        raw = [rng.uniform(0.5, 1.5) for _ in BOUNDS_SUPPORT]
        params = {"support": BOUNDS_SUPPORT,
                  "weights": [w / sum(raw) for w in raw],
                  "eps": round(rng.uniform(0.005, 0.02), 6),
                  "error": round(rng.uniform(0.01, 0.05), 6),
                  "tv_steps": 40, "k": 6, "kappa_length": 18}
    return {"kind": kind, "params": params}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("rb_1q", ["rb_1q"] * 3, _rb_1q),
    Workload("rb_2q_interleaved", ["rb_2q_interleaved"] * 3, _rb_2q),
    Workload("compile", ["compile"] * 3, _compile),
    Workload("group_small", ["group_cayley", "group_dense", "group_bounds"],
             _group_small),
)}


# =============================================================================
# job side
# =============================================================================


class JobContext:
    """Runs the timed work of one job; times stages and, when traced, spans
    each CLI command as `cli.<command>`."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.stages: Dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        span = (self.tracer.span(name) if self.tracer
                else contextlib.nullcontext())
        t = time.perf_counter()
        with span:
            yield
        self.stages[name] = self.stages.get(name, 0.0) + (
            time.perf_counter() - t)

    def cli(self, *args) -> None:
        from cliffrb.cli import main

        args = [str(a) for a in args]
        with self.stage("cli." + args[0]):
            main(args, standalone_mode=False)


def load_ref(spec: dict) -> Optional[dict]:
    if not spec.get("ref"):
        return None
    with open(spec["ref"]) as f:
        return json.load(f)


# -- rb_1q ----------------------------------------------------------------------


def _rb1_run(p, d, ctx, _inputs):
    data = os.path.join(d, "data.csv")
    ctx.cli("simulate", "--n", 1, "--lengths", ",".join(map(str, p["lengths"])),
            "--n-seq", p["n_seq"], "--shots", p["shots"],
            "--depolarizing", repr(p["p"]), "--spam", repr(p["spam"]),
            "--seed", p["sim_seed"], "-o", data)
    ctx.cli("fit", "--data", data, "--n", 1, "-o", os.path.join(d, "fit.json"))
    ctx.cli("bootstrap", "--data", data, "--n", 1,
            "--resamples", p["resamples"], "--seed", p["boot_seed"],
            "-o", os.path.join(d, "boot.json"))


def _rb1_outputs(d) -> dict:
    return {"csv": _read(d, "data.csv"),
            "fit": _read_json(d, "fit.json")["fit"],
            "bootstrap": _read_json(d, "boot.json")["bootstrap"]}


def _rb1_check(p, d, _outputs, _inputs):
    out = _rb1_outputs(d)
    fit = out["fit"]
    # depolarizing strength p scales every Pauli by (1 - p): survival is
    # 1/2 + 1/2 (1-p)^(l+1) (1-spam) for every sequence, i.e. eps_s = p/2
    expected = {l: 0.5 + 0.5 * (1 - p["p"]) ** (l + 1) * (1 - p["spam"])
                for l in p["lengths"]}
    got = [checks.check_dataset(out["csv"], "exact", p["lengths"],
                                p["n_seq"], p["shots"]),
           checks.check_survival(out["csv"], expected),
           checks.check_close("fit_eps_s", fit["params"]["eps_s"], p["p"] / 2,
                              math.sqrt(fit["covariance"][0][0]))]
    return got + checks.check_bootstrap(out["bootstrap"], fit["params"])


def ref_checks(out: dict, ref: dict) -> list:
    """Compare reference outputs: text exactly, numbers within 1e-9."""
    got = []
    for key, want in ref.items():
        if isinstance(want, str):
            got.append((f"ref_{key}", out[key] == want, "text differs"))
        else:
            diffs = checks.compare_numbers(out[key], want)
            got.append((f"ref_{key}", not diffs, f"differ at {diffs[:4]}"))
    return got


def _rb1_summary(p, d, _outputs):
    out = _rb1_outputs(d)
    return {"digest": _digest(out),
            "sim_steps": _steps(p["lengths"], p["n_seq"], lambda l: l + 1),
            "boot_fits": p["resamples"]}


# -- rb_2q_interleaved ----------------------------------------------------------


def _rb2_run(p, d, ctx, _inputs):
    model = os.path.join(d, "model.json")
    ref, inter = os.path.join(d, "ref.csv"), os.path.join(d, "int.csv")
    common = ["--n", 2, "--lengths", ",".join(map(str, p["lengths"])),
              "--n-seq", p["n_seq"], "--shots", p["shots"],
              "--error-model", model]
    s = p["seeds"]
    ctx.cli("simulate", *common, "--seed", s[0], "-o", ref)
    ctx.cli("simulate", "--protocol", "interleaved", "--gate", "CX", *common,
            "--seed", s[1], "-o", inter)
    ctx.cli("interleaved", "--reference", ref, "--interleaved", inter,
            "--n", 2, "-o", os.path.join(d, "interleaved.json"))
    for data, seed, name in ((ref, s[2], "boot_ref.json"),
                             (inter, s[3], "boot_int.json")):
        ctx.cli("bootstrap", "--data", data, "--n", 2,
                "--resamples", p["resamples"], "--seed", seed,
                "-o", os.path.join(d, name))


def _rb2_outputs(d) -> dict:
    il = _read_json(d, "interleaved.json")
    il.pop("manifest")
    return {"reference_csv": _read(d, "ref.csv"),
            "interleaved_csv": _read(d, "int.csv"),
            "interleaved": il,
            "bootstrap_reference": _read_json(d, "boot_ref.json")["bootstrap"],
            "bootstrap_interleaved":
                _read_json(d, "boot_int.json")["bootstrap"]}


def _rb2_check(p, d, _outputs, _inputs):
    out = _rb2_outputs(d)
    il = out["interleaved"]
    # a Pauli channel of total weight e has average infidelity (d/(d+1)) e;
    # the reference decay is pure depolarizing, as in _rb1_check
    e_gate = sum(p["gate_weights"].values())
    expected = {l: 0.25 + 0.75 * (1 - p["p"]) ** (l + 1) * (1 - p["spam"])
                for l in p["lengths"]}
    got = [checks.check_dataset(out["reference_csv"], "exact", p["lengths"],
                                p["n_seq"], p["shots"]),
           checks.check_dataset(out["interleaved_csv"], "interleaved",
                                p["lengths"], p["n_seq"], p["shots"]),
           checks.check_survival(out["reference_csv"], expected),
           checks.check_close("gate_error", il["gate_error"], 0.8 * e_gate,
                              il["gate_error_se"])]
    got += checks.check_bootstrap(out["bootstrap_reference"],
                                  il["reference_fit"]["params"])
    return got + checks.check_bootstrap(out["bootstrap_interleaved"],
                                        il["interleaved_fit"]["params"])


def _rb2_summary(p, d, _outputs):
    n_seq, lengths = p["n_seq"], p["lengths"]
    return {"digest": _digest(_rb2_outputs(d)),
            "sim_steps": (_steps(lengths, n_seq, lambda l: l + 1)
                          + _steps(lengths, n_seq, lambda l: 2 * l + 1)),
            "boot_fits": 2 * p["resamples"]}


# -- compile --------------------------------------------------------------------

CZ_TARGET = ("H", "S", "Sdg", "X90", "X90m", "X", "Y", "Z", "T", "T2", "CZ")


def _compile_run(p, d, ctx, _inputs):
    for i, (n, seed) in enumerate(p["circuits"]):
        ctx.cli("decompose", "--random", "--n", n, "--seed", seed,
                "--target", "cz", "-o", os.path.join(d, f"circuit{i}.json"))


def _compile_reports(p, d) -> list:
    return [_read_json(d, f"circuit{i}.json")
            for i in range(len(p["circuits"]))]


def gate_images(names=CZ_TARGET) -> Dict[str, tuple]:
    """Local (X images, Z images) of each named gate, from its tableau."""
    from cliffrb.gates import get_gate

    out = {}
    for name in names:
        tab = get_gate(name).tableau
        m = tab.n_qubits
        out[name] = tuple(
            [checks.parse_pauli(str(img(i))) for i in range(m)]
            for img in (tab.image_x, tab.image_z))
    return out


def _compile_check(p, d, _outputs, _inputs):
    images = gate_images()
    got = []
    for (n, seed), rep in zip(p["circuits"], _compile_reports(p, d)):
        got.append(("input", rep["manifest"]["seed"] == seed
                    and rep["tableau"]["n_qubits"] == n, "wrong input"))
        got += checks.check_decomposition(rep, images)
    return got


def _compile_summary(p, d, _outputs):
    reps = _compile_reports(p, d)
    return {"digest": _digest([[r["tableau"], r["sequence"]] for r in reps]),
            "twoq_gates": [sum(1 for g, _ in r["sequence"]["gates"]
                               if g == "CZ") for r in reps]}


# -- group_small: whole-group work at n <= 2 through the API ---------------------


def group_order(n: int, quotient: bool = False) -> int:
    order = 2 ** (n * n + 2 * n)
    for j in range(1, n + 1):
        order *= 4 ** j - 1
    return order // 4 ** n if quotient else order


def _cayley_run(_p, _d, _ctx, _inputs):
    from cliffrb.decomp import cayley_search
    from cliffrb.gates import GateSet

    def each(*names):
        return tuple((g, "each", 1.0) for g in names)

    full = cayley_search(
        GateSet("hs-cx01", each("H", "S") + (("CX", ((0, 1),), 1.0),)),
        2, quotient=False, primary_gates=("CX",))
    quotient = cayley_search(
        GateSet("clifford-cx", each("H", "S", "Sdg", "X90", "X90m")
                + (("CX", "all-pairs", 1.0),)),
        2, quotient=True, primary_gates=("CX",))
    return {name: {"size": len(t.entries),
                   "histogram": {str(k): v for k, v in
                                 sorted(t.cost_histogram().items())}}
            for name, t in (("full", full), ("quotient", quotient))}


def _cayley_check(_p, _d, outputs, _inputs):
    return [("group_size_full", outputs["full"]["size"] == group_order(2),
             f"{outputs['full']['size']}"),
            ("group_size_quotient",
             outputs["quotient"]["size"] == group_order(2, quotient=True),
             f"{outputs['quotient']['size']}")]


def _complex(mat):
    import numpy as np

    return np.array(mat[0]) + 1j * np.array(mat[1])


def _kraus(gauss, n: int) -> list:
    """Kraus operators of a random channel: blocks of an isometry."""
    import numpy as np

    d = 2 ** n
    q, _ = np.linalg.qr(_complex(gauss))
    return [q[i * d:(i + 1) * d, :] for i in range(q.shape[0] // d)]


def _dense_prepare(p):
    g = _complex(p["rho3"])
    rho = g @ g.conj().T
    return {"kraus2": _kraus(p["channel2"], 2),
            "kraus3": [_kraus(g3, 3) for g3 in p["channel3"]],
            "rho3": rho / rho.trace().real}


def _dense_run(_p, _d, _ctx, inputs):
    from cliffrb.clifford import enumerate_group
    from cliffrb.dense import (DenseSuperoperator, depolarization_strength,
                               group_twirl)
    from cliffrb.subgroups import q_subgroup

    ch = DenseSuperoperator.from_kraus(2, inputs["kraus2"])
    group = enumerate_group(2)
    twirled = group_twirl(ch, group)
    q_twirled = group_twirl(group_twirl(ch, "pauli"), q_subgroup(2))
    a, b = (DenseSuperoperator.from_kraus(3, k) for k in inputs["kraus3"])
    return {"group_size": len(group), "twirled": twirled,
            "strength": depolarization_strength(ch), "q_twirled": q_twirled,
            "a": a, "b": b, "ab": a.compose(b)}


def _dense_check(_p, _d, out, inputs):
    import numpy as np
    from cliffrb.dense import DenseSuperoperator

    want = DenseSuperoperator.depolarizing(2, out["strength"])
    rho = inputs["rho3"]
    err = np.max(np.abs(out["ab"].apply(rho)
                        - out["a"].apply(out["b"].apply(rho))))
    return [("group_size", out["group_size"] == group_order(2),
             f"{out['group_size']}"),
            ("twirl_is_depolarizing", out["twirled"].distance(want) < 1e-9,
             f"distance {out['twirled'].distance(want):.3g}"),
            ("q_twirl_is_full_twirl",
             out["q_twirled"].distance(out["twirled"]) < 1e-9,
             f"distance {out['q_twirled'].distance(out['twirled']):.3g}"),
            ("compose_is_sequential", err < 1e-9, f"max error {err:.3g}")]


def _dense_summary(_p, _d, out):
    return {"digest": _digest(out["twirled"].chi.tobytes(),
                              out["ab"].chi.tobytes(), out["strength"])}


def _bounds_run(p, _d, _ctx, _inputs):
    from cliffrb import analysis, bounds
    from cliffrb.clifford import CliffordTableau, embed_tableau
    from cliffrb.gates import get_gate

    tabs = []
    for item in p["support"]:
        name, _, qubit = item.partition(":")
        tab = (CliffordTableau.identity(2) if name == "I"
               else get_gate(name).tableau)
        tabs.append(embed_tableau(tab, (int(qubit),), 2) if qubit else tab)
    d = bounds.GroupDistribution.from_weights(2, list(zip(tabs, p["weights"])))
    tv = bounds.tv_series(d, p["tv_steps"])
    delta = bounds.step_comparison_bound(d, p["eps"], analysis.alpha_n(2),
                                         k=p["k"])
    kappa = bounds.kappa_bounds(
        [bounds.convolve_steps(d, j) for j in range(1, p["kappa_length"] + 1)],
        p["error"])
    return {"tv": tv, "delta": list(delta), "kappa": json.loads(kappa.to_json())}


def _bounds_check(p, _d, out, _inputs):
    size = group_order(2, quotient=True)
    tv0 = 0.5 * (sum(abs(w - 1 / size) for w in p["weights"])
                 + (size - len(p["weights"])) / size)
    tv, kappa = out["tv"], out["kappa"]
    return [("tv_first_step", abs(tv[0] - tv0) < 1e-12,
             f"{tv[0]!r} vs {tv0!r}"),
            ("tv_decreasing", all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))
             and 0 <= tv[-1] < tv[0] <= 1, f"{tv[0]:.4f} -> {tv[-1]:.4f}"),
            ("step_comparison_ordered", out["delta"][0] >= out["delta"][1],
             f"{out['delta']}"),
            ("kappa_ordered", kappa["kappa_max"] >= kappa["kappa_min"]
             and all(-1e-12 <= lo <= hi <= 1 + 1e-12
                     for lo, hi in zip(kappa["q_min"], kappa["q_max"])),
             f"{kappa['kappa_min']:.4g} .. {kappa['kappa_max']:.4g}")]


def _json_summary(_p, _d, out):
    return {"digest": _digest(out)}


class JobKind:
    """`reference(params, jobdir, outputs)` gives the outputs that a spec's
    `ref` file pins; kinds without it have no stored reference."""

    def __init__(self, run, check, summary, prepare=None,
                 reference=None) -> None:
        self.run, self.check, self.summary = run, check, summary
        self.prepare = prepare or (lambda p: None)
        self.reference = reference


JOB_KINDS: Dict[str, JobKind] = {
    "rb_1q": JobKind(_rb1_run, _rb1_check, _rb1_summary,
                     reference=lambda p, d, out: _rb1_outputs(d)),
    "rb_2q_interleaved": JobKind(_rb2_run, _rb2_check, _rb2_summary,
                                 reference=lambda p, d, out: _rb2_outputs(d)),
    "compile": JobKind(_compile_run, _compile_check, _compile_summary),
    "group_cayley": JobKind(_cayley_run, _cayley_check, _json_summary,
                            reference=lambda p, d, out: {"cayley": out}),
    "group_dense": JobKind(_dense_run, _dense_check, _dense_summary,
                           prepare=_dense_prepare),
    "group_bounds": JobKind(_bounds_run, _bounds_check, _json_summary),
}

