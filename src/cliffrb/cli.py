"""Batch command-line front end.

Every subcommand emits a JSON report (or a CSV dataset) plus a run manifest
recording the exact inputs, seed, and library versions, so any artifact can be
regenerated from its manifest.  Reports are machine-readable first; --pretty
renders the same data as an indented table.
"""

from __future__ import annotations

import json
import secrets
import sys
from importlib import metadata
from pathlib import Path
from typing import Dict, Optional, Tuple

import click
import numpy as np
import scipy

from . import analysis, bounds
from .clifford import (
    CliffordTableau,
    clifford_compose,
    enumerate_group,
    group_order,
    sample_uniform,
)
from .decomp import block_decompose, cayley_search, translate_sequence
from .errors import ErrorModel
from .gates import GateSet, get_gate, sequence_tableau
from .pauli import PauliChannel
from .protocol import (
    ExperimentDesign,
    RBDataset,
    run_experiment,
    sequence_factory,
    sequence_seed,
)

SCHEMA_VERSION = 1


def _versions() -> Dict[str, str]:
    try:
        pkg = metadata.version("artifact")
    except metadata.PackageNotFoundError:
        pkg = "unknown"
    return {"artifact": pkg, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is None:
        seed = secrets.randbits(32)
        click.echo(f"seed: {seed}", err=True)
    return seed


def _manifest(command: str, params: dict, seed: Optional[int] = None) -> dict:
    man = {"schema_version": SCHEMA_VERSION, "command": command,
           "parameters": params, "versions": _versions()}
    if seed is not None:
        man["seed"] = seed
    return man


def _pretty_lines(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from _pretty_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                yield from _pretty_lines(v, indent + 1)
            else:
                yield f"{pad}- {v}"
    else:
        yield f"{pad}{obj}"


def _emit(report: dict, output: Optional[str], pretty: bool) -> None:
    text = json.dumps(report, indent=2)
    if output:
        Path(output).write_text(text + "\n")
        click.echo(f"wrote {output}", err=True)
    if pretty:
        click.echo("\n".join(_pretty_lines(report)))
    elif not output:
        click.echo(text)


def _write_csv(text: str, output: str, manifest: dict) -> None:
    Path(output).write_text(text)
    Path(output + ".manifest.json").write_text(json.dumps(manifest, indent=2)
                                               + "\n")
    click.echo(f"wrote {output}", err=True)


def _parse_lengths(text: str) -> Tuple[int, ...]:
    """'1,3,8' -> (1, 3, 8): positive and ascending, else a usage error."""
    try:
        lengths = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        lengths = ()
    if not lengths or lengths[0] < 1 or list(lengths) != sorted(lengths):
        raise click.BadParameter(
            f"{text!r} is not an ascending list of positive integers",
            param_hint="'--lengths'")
    return lengths


def _parse_distribution(n: int, text: str) -> bounds.GroupDistribution:
    """'X90:0.4,Y90:0.4,I:0.2' -> distribution over the quotient group."""
    weights = []
    for tok in text.split(","):
        name, _, w = tok.partition(":")
        try:
            tab = (CliffordTableau.identity(n) if name == "I"
                   else get_gate(name).tableau)
            weight = float(w) if w else 1.0
            if not 0 <= weight < float("inf"):
                raise ValueError(w)
        except KeyError:
            raise click.BadParameter(f"unknown gate {name!r}",
                                     param_hint="'--dist'") from None
        except ValueError:
            raise click.BadParameter(f"bad weight {w!r} for {name}",
                                     param_hint="'--dist'") from None
        if tab.n_qubits != n:
            raise click.BadParameter(f"{name} is not an {n}-qubit gate")
        weights.append((tab, weight))
    total = sum(w for _, w in weights)
    if total <= 0:
        raise click.BadParameter("weights sum to zero", param_hint="'--dist'")
    weights = [(t, w / total) for t, w in weights]
    return bounds.GroupDistribution.from_weights(n, weights)


def _load_dataset(path: str) -> RBDataset:
    return RBDataset.from_csv(Path(path).read_text())


def _fit_report_dict(rep: analysis.FitReport) -> dict:
    return json.loads(rep.to_json())


_output = click.option("--output", "-o", default=None,
                       help="Write the JSON report to this file.")
_pretty = click.option("--pretty", is_flag=True,
                       help="Also print a human-readable rendering.")
_positive = click.IntRange(min=1)
_seed_opt = click.option("--seed", type=int, default=None,
                         help="Master seed (generated and printed if omitted).")


@click.group()
def main():
    """Clifford-group and randomized-benchmarking toolbox."""


@main.command("enumerate")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--quotient", is_flag=True, help="Count modulo Pauli factors.")
@click.option("--elements", "list_elements", is_flag=True,
              help="Include the elements themselves (small groups only).")
@_output
@_pretty
def enumerate_cmd(n, quotient, list_elements, output, pretty):
    """Count (and optionally list) the Clifford group."""
    report = {"manifest": _manifest("enumerate", {
        "n": n, "quotient": quotient, "elements": list_elements})}
    report["count"] = group_order(n, quotient=quotient)
    if list_elements:
        report["elements"] = [t.to_json()
                              for t in enumerate_group(n, quotient=quotient)]
    click.echo(f"count: {report['count']}", err=True)
    _emit(report, output, pretty)


@main.command("search-decomp")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--gates", default="H,S,Sdg,X90,X90m,CX,CZ",
              help="Comma-separated gate vocabulary.")
@click.option("--primary", default="CX",
              help="Gate whose count is minimized first.")
@click.option("--quotient", is_flag=True)
@_output
@_pretty
def search_decomp_cmd(n, gates, primary, quotient, output, pretty):
    """Optimal-cost table over a gate set; reports the cost histogram."""
    entries = []
    for name in gates.split(","):
        arity = get_gate(name).arity
        entries.append((name, "each" if arity == 1 else "all-pairs", 1.0))
    table = cayley_search(GateSet("cli", tuple(entries)), n,
                          quotient=quotient,
                          primary_gates=(primary,))
    hist = table.cost_histogram()
    size = sum(hist.values())
    mean = sum(k * v for k, v in hist.items()) / size
    report = {"manifest": _manifest("search-decomp", {
        "n": n, "gates": gates, "primary": primary, "quotient": quotient}),
        "group_size": size,
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "mean_primary_count": mean}
    _emit(report, output, pretty)


@main.command("decompose")
@click.option("--input", "input_path", default=None,
              help="JSON file with a tableau (image_x/image_z strings).")
@click.option("--n", "n", type=_positive, default=None,
              help="With --random: number of qubits.")
@click.option("--random", "randomize", is_flag=True,
              help="Decompose a uniformly random tableau instead.")
@click.option("--target", type=click.Choice(["native", "cz", "cx"]),
              default="native", help="Two-qubit gate to rewrite onto.")
@_seed_opt
@_output
@_pretty
def decompose_cmd(input_path, n, randomize, target, seed, output, pretty):
    """Block-decompose a Clifford into 1q / CZ / CX layers."""
    if randomize:
        if n is None:
            raise click.BadParameter("--random needs --n")
        seed = _resolve_seed(seed)
        tab = sample_uniform(n, np.random.default_rng(seed))
    elif input_path:
        tab = CliffordTableau.from_json(
            json.loads(Path(input_path).read_text()))
    else:
        raise click.BadParameter("provide --input or --random")
    seq = block_decompose(tab)
    if target != "native":
        two_q = "CZ" if target == "cz" else "CX"
        gs = GateSet("target", (("H", "each", 1.0), ("S", "each", 1.0),
                                ("Sdg", "each", 1.0), ("X90", "each", 1.0),
                                ("X90m", "each", 1.0), ("X", "each", 1.0),
                                ("Y", "each", 1.0), ("Z", "each", 1.0),
                                ("T", "each", 1.0), ("T2", "each", 1.0),
                                (two_q, "all-pairs", 1.0)))
        seq = translate_sequence(seq, gs)
    ok = sequence_tableau(seq) == tab
    report = {"manifest": _manifest("decompose", {
        "input": input_path, "n": n, "random": randomize, "target": target},
        seed=seed),
        "tableau": tab.to_json(), "sequence": seq.to_json(),
        "gate_count": len(seq.gates), "verified": ok}
    _emit(report, output, pretty)


@main.command("sample-clifford")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--count", type=int, default=1)
@_seed_opt
@_output
@_pretty
def sample_clifford_cmd(n, count, seed, output, pretty):
    """Draw uniformly random Clifford tableaux."""
    seed = _resolve_seed(seed)
    rng = np.random.default_rng(seed)
    report = {"manifest": _manifest("sample-clifford",
                                    {"n": n, "count": count}, seed=seed),
              "samples": [sample_uniform(n, rng).to_json()
                          for _ in range(count)]}
    _emit(report, output, pretty)


@main.command("gen-sequences")
@click.option("--protocol", type=click.Choice(["exact", "interleaved"]),
              default="exact")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--lengths", required=True, help="Comma-separated lengths.")
@click.option("--n-seq", type=int, default=1, help="Sequences per length.")
@click.option("--gate", default=None, help="Interleaved gate name.")
@_seed_opt
@_output
@_pretty
def gen_sequences_cmd(protocol, n, lengths, n_seq, gate, seed, output, pretty):
    """Generate benchmarking sequences with per-sequence derived seeds."""
    parsed_lengths = _parse_lengths(lengths)
    gate_tab = get_gate(gate).tableau if gate else None
    if protocol == "interleaved" and gate_tab is None:
        raise click.BadParameter("interleaved protocol needs --gate")
    seed = _resolve_seed(seed)
    factory = sequence_factory(protocol, n, gate_tab)
    seqs = [factory(l, np.random.default_rng(sequence_seed(seed, protocol, l, i)))
            for l in parsed_lengths for i in range(n_seq)]
    report = {"manifest": _manifest("gen-sequences", {
        "protocol": protocol, "n": n, "lengths": lengths, "n_seq": n_seq,
        "gate": gate}, seed=seed),
        "sequences": [s.to_json() for s in seqs]}
    _emit(report, output, pretty)


def _depolarizing(n: int, p: float, option: str) -> PauliChannel:
    try:
        return PauliChannel.depolarizing(n, p)
    except ValueError:
        raise click.BadParameter(
            f"{p} is not a valid {n}-qubit depolarizing strength "
            f"(0 <= p <= {4 ** n}/{4 ** n - 1})", param_hint=option) from None


@main.command("simulate")
@click.option("--protocol", type=click.Choice(["exact", "interleaved"]),
              default="exact")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--lengths", required=True)
@click.option("--n-seq", type=_positive, default=10)
@click.option("--shots", type=_positive, default=100)
@click.option("--gate", default=None)
@click.option("--error-model", "model_path", default=None,
              help="JSON error-model file.")
@click.option("--depolarizing", type=float, default=None,
              help="Shortcut: uniform per-step depolarizing strength.")
@click.option("--spam", type=float, default=None,
              help="With --depolarizing: SPAM depolarizing strength.")
@_seed_opt
@click.option("--output", "-o", required=True,
              help="Dataset CSV path (manifest written alongside).")
def simulate_cmd(protocol, n, lengths, n_seq, shots, gate, model_path,
                 depolarizing, spam, seed, output):
    """Simulate an experiment and write the shot-count dataset."""
    if model_path:
        model = ErrorModel.from_json(json.loads(Path(model_path).read_text()),
                                     n)
    elif depolarizing is not None:
        model = ErrorModel(
            _depolarizing(n, depolarizing, "'--depolarizing'"),
            spam_channel=(_depolarizing(n, spam, "'--spam'")
                          if spam else None))
    else:
        raise click.BadParameter("provide --error-model or --depolarizing")
    parsed_lengths = _parse_lengths(lengths)
    seed = _resolve_seed(seed)
    design = ExperimentDesign(parsed_lengths, n_seq, shots, master_seed=seed)
    gate_tab = get_gate(gate).tableau if gate else None
    data = run_experiment(design, protocol, model, n, gate=gate_tab)
    man = _manifest("simulate", {
        "protocol": protocol, "n": n, "lengths": lengths, "n_seq": n_seq,
        "shots": shots, "gate": gate, "error_model": model_path,
        "depolarizing": depolarizing, "spam": spam}, seed=seed)
    _write_csv(data.to_csv(), output, man)


@main.command("fit")
@click.option("--data", required=True, help="Dataset CSV.")
@click.option("--model", type=click.Choice(sorted(analysis.MODELS)),
              default="main")
@click.option("--n", "n", type=_positive, required=True)
@_output
@_pretty
def fit_cmd(data, model, n, output, pretty):
    """Weighted nonlinear fit of a decay model to a dataset."""
    rep = analysis.fit(_load_dataset(data), model, analysis.alpha_n(n))
    report = {"manifest": _manifest("fit", {"data": data, "model": model,
                                            "n": n}),
              "fit": _fit_report_dict(rep)}
    _emit(report, output, pretty)


@main.command("bootstrap")
@click.option("--data", required=True)
@click.option("--model", type=click.Choice(sorted(analysis.MODELS)),
              default="main")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--resamples", type=int, default=1000)
@_seed_opt
@_output
@_pretty
def bootstrap_cmd(data, model, n, resamples, seed, output, pretty):
    """Semi-parametric bootstrap of a decay fit."""
    seed = _resolve_seed(seed)
    rep = analysis.bootstrap(_load_dataset(data), model, analysis.alpha_n(n),
                             n_resamples=resamples,
                             rng=np.random.default_rng(seed))
    body = json.loads(rep.to_json())
    report = {"manifest": _manifest("bootstrap", {
        "data": data, "model": model, "n": n, "resamples": resamples},
        seed=seed), "bootstrap": body}
    _emit(report, output, pretty)


@main.command("interleaved")
@click.option("--reference", required=True, help="Reference dataset CSV.")
@click.option("--interleaved", "interleaved_data", required=True,
              help="Interleaved dataset CSV.")
@click.option("--model", type=click.Choice(sorted(analysis.MODELS)),
              default="main")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--printed-form", is_flag=True,
              help="Use the reciprocal prefactor variant.")
@_output
@_pretty
def interleaved_cmd(reference, interleaved_data, model, n, printed_form,
                    output, pretty):
    """Per-gate error from a reference / interleaved benchmark pair."""
    alpha = analysis.alpha_n(n)
    ref = analysis.fit(_load_dataset(reference), model, alpha)
    inter = analysis.fit(_load_dataset(interleaved_data), model, alpha)
    eps_g, se = analysis.interleaved_gate_error(ref, inter,
                                                printed_form=printed_form)
    report = {"manifest": _manifest("interleaved", {
        "reference": reference, "interleaved": interleaved_data,
        "model": model, "n": n, "printed_form": printed_form}),
        "reference_fit": _fit_report_dict(ref),
        "interleaved_fit": _fit_report_dict(inter),
        "gate_error": eps_g, "gate_error_se": se}
    _emit(report, output, pretty)


@main.command("tv-decay")
@click.option("--n", "n", type=_positive, default=1)
@click.option("--dist", required=True,
              help="Step distribution, e.g. 'X90:0.4,Y90:0.4,I:0.2'.")
@click.option("--steps", type=int, default=20)
@click.option("--csv", "csv_path", default=None,
              help="Also write the series as CSV.")
@_output
@_pretty
def tv_decay_cmd(n, dist, steps, csv_path, output, pretty):
    """Total-variation distance from uniform of the aggregate-step chain."""
    d = _parse_distribution(n, dist)
    series = bounds.tv_series(d, steps)
    man = _manifest("tv-decay", {"n": n, "dist": dist, "steps": steps})
    if csv_path:
        _write_csv(bounds.tv_series_csv(d, steps), csv_path, man)
    report = {"manifest": man,
              "total_variation": series}
    _emit(report, output, pretty)


@main.command("bounds")
@click.option("--n", "n", type=_positive, default=1)
@click.option("--dist", required=True, help="Step distribution.")
@click.option("--eps", type=float, required=True,
              help="Observed error per step (LP) / total error (kappa).")
@click.option("--k", "k_steps", type=int, default=1,
              help="Aggregate-step size for the LP bound.")
@click.option("--length", type=int, default=1,
              help="Sequence length for the kappa bound.")
@_output
@_pretty
def bounds_cmd(n, dist, eps, k_steps, length, output, pretty):
    """LP step-comparison and imperfect-depolarization bounds."""
    d = _parse_distribution(n, dist)
    alpha = analysis.alpha_n(n)
    delta_max, delta_min = bounds.step_comparison_bound(d, eps, alpha,
                                                        k=k_steps)
    dists = [bounds.convolve_steps(d, k) for k in range(1, length + 1)]
    kappa = bounds.kappa_bounds(dists, eps)
    report = {"manifest": _manifest("bounds", {
        "n": n, "dist": dist, "eps": eps, "k": k_steps, "length": length}),
        "step_comparison": {"delta_max": delta_max, "delta_min": delta_min},
        "kappa": json.loads(kappa.to_json())}
    _emit(report, output, pretty)


if __name__ == "__main__":
    main()
