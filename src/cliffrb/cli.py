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
from contextlib import contextmanager
from functools import cache
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import click
import numpy as np
import scipy

from . import analysis, bounds
from .clifford import (
    CliffordTableau,
    enumerate_group,
    group_order,
    sample_uniform,
)
from .decomp import (
    CoverageError,
    block_decompose,
    cayley_search,
    translate_sequence,
)
from .errors import DEFAULT_QUBIT_CAP, ErrorModel
from .gates import GateSet, get_gate, sequence_tableau
from .pauli import DEPOLARIZING_MAX_QUBITS, PauliChannel
from .protocol import (
    ExperimentDesign,
    RBDataset,
    run_experiment,
    sequence_factory,
    sequence_seed,
)

SCHEMA_VERSION = 1


@cache
def _versions() -> Dict[str, str]:
    """Library versions for manifests, looked up once a process: the
    package lookup scans every `sys.path` entry."""
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


# options that say where or how a report is written, and the seed, which
# the manifest records apart (resolved when it was omitted)
_UNRECORDED = {"output", "pretty", "seed", "csv_path"}


def _manifest(seed: Optional[int] = None) -> dict:
    """Manifest of the running command: its name and the value of each of
    its other options, keyed by the long option name with "_" for "-"."""
    ctx = click.get_current_context()
    params = {}
    for p in ctx.command.params:  # declaration order
        if p.name not in _UNRECORDED:
            long = next(o for o in p.opts if o.startswith("--"))
            params[long[2:].replace("-", "_")] = ctx.params[p.name]
    man = {"schema_version": SCHEMA_VERSION, "command": ctx.info_name,
           "parameters": params, "versions": dict(_versions())}
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


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, at the speed of the C
    encoder: `json` drops to its pure-Python encoder whenever `indent` is
    set, so encode compactly and re-indent the text in a few array passes.
    Bad input raises what `json.dumps` raises."""
    text = json.dumps(obj, separators=(",", ": "))
    # a quote ends a string unless escaped: blank each "\\" pair (taken
    # left to right, as a parser reads them), then each escaped quote; the
    # blanks keep every other byte where it was
    scan = (text.replace("\\\\", "__").replace('\\"', "__")
            if "\\" in text else text)
    b = np.frombuffer(scan.encode(), np.uint8)
    # default-int arrays: the process runs those loops already, while int32
    # ones fault in about 0.2 MB more of numpy's code
    outside = (np.cumsum(b == ord('"')) & 1) == 0
    opener = ((b == ord("[")) | (b == ord("{"))) & outside
    closer = ((b == ord("]")) | (b == ord("}"))) & outside
    depth = np.cumsum(opener) - np.cumsum(closer)
    empty = opener[:-1] & closer[1:]  # "[]" and "{}" stay on one line
    after = opener | ((b == ord(",")) & outside)
    after[:-1] &= ~empty
    closer[1:] &= ~empty
    # "\n" and two spaces per level go in front of the byte after an opener
    # or comma (indented to the depth there) and in front of a closer
    # (indented to the depth after it)
    line = 1 + 2 * depth
    width = np.where(closer, line, 0)
    width[1:] += np.where(after[:-1], line[:-1], 0)
    pos = np.arange(len(b)) + np.cumsum(width)
    out = np.full(len(b) + int(width.sum()), ord(" "), np.uint8)
    out[pos] = np.frombuffer(text.encode(), np.uint8)
    out[(pos - width)[width > 0]] = ord("\n")
    return out.tobytes().decode()


def _emit(report: dict, output: Optional[str], pretty: bool) -> None:
    text = _dumps(report)
    if output:
        Path(output).write_text(text + "\n")
        click.echo(f"wrote {output}", err=True)
    if pretty:
        click.echo("\n".join(_pretty_lines(report)))
    elif not output:
        click.echo(text)


def _write_csv(text: str, output: str, manifest: dict) -> None:
    Path(output).write_text(text)
    Path(output + ".manifest.json").write_text(_dumps(manifest) + "\n")
    click.echo(f"wrote {output}", err=True)


def _parse_lengths(text: str) -> Tuple[int, ...]:
    """'1,3,8' -> (1, 3, 8): positive and strictly ascending, else a usage
    error."""
    try:
        lengths = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        lengths = ()
    if (not lengths or lengths[0] < 1
            or any(a >= b for a, b in zip(lengths, lengths[1:]))):
        raise click.BadParameter(
            f"{text!r} is not an ascending list of positive integers",
            param_hint="'--lengths'")
    return lengths


def _resolve_gate(name: str, option: str, n: Optional[int] = None):
    """Registered gate by name (acting on n qubits when n is given), else a
    usage error."""
    try:
        gate = get_gate(name)
    except KeyError:
        raise click.BadParameter(f"unknown gate {name!r}",
                                 param_hint=option) from None
    if n is not None and gate.arity != n:
        raise click.BadParameter(
            f"{name} acts on {gate.arity} qubit(s), not {n}",
            param_hint=option)
    return gate


def _interleaved_gate(protocol: str, gate: Optional[str], n: int):
    """Tableau of --gate; the interleaved protocol needs one, and no other
    protocol takes one."""
    if protocol != "interleaved":
        if gate is not None:
            raise click.BadParameter(
                f"--gate needs --protocol interleaved, not {protocol}",
                param_hint="'--gate'")
        return None
    if gate is None:
        raise click.BadParameter("interleaved protocol needs --gate",
                                 param_hint="'--gate'")
    return _resolve_gate(gate, "'--gate'", n).tableau


def _parse_distribution(n: int, text: str) -> bounds.GroupDistribution:
    """'X90:0.4,Y90:0.4,I:0.2' -> distribution over the quotient group."""
    weights = []
    for tok in text.split(","):
        name, _, w = tok.partition(":")
        tab = (CliffordTableau.identity(n) if name == "I"
               else _resolve_gate(name, "'--dist'", n).tableau)
        try:
            weight = float(w) if w else 1.0
            if not 0 <= weight < float("inf"):
                raise ValueError(w)
        except ValueError:
            raise click.BadParameter(f"bad weight {w!r} for {name}",
                                     param_hint="'--dist'") from None
        weights.append((tab, weight))
    total = sum(w for _, w in weights)
    if total <= 0:
        raise click.BadParameter("weights sum to zero", param_hint="'--dist'")
    weights = [(t, w / total) for t, w in weights]
    return bounds.GroupDistribution.from_weights(n, weights)


def _load(path: str, option: str, parse):
    """parse(text of the file at path); bad contents are a usage error."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, KeyError, TypeError, IndexError,
            AttributeError) as err:  # the last: JSON of the wrong shape
        raise click.BadParameter(f"{path}: {err}", param_hint=option) from None


def _load_dataset(path: str, option: str) -> RBDataset:
    return _load(path, option, RBDataset.from_csv)


@contextmanager
def _fit_errors(option: str):
    """A dataset that cannot be fitted is a usage error on option; a fit
    that fails to converge is a one-line error with its last objective."""
    try:
        yield
    except analysis.FitError as err:
        last = f" (last objective {err.trace[-1]:.6g})" if err.trace else ""
        raise click.ClickException(f"{err}{last}") from None
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint=option) from None


def _fit_report_dict(rep: analysis.FitReport) -> dict:
    return json.loads(rep.to_json())


def _unphysical(params, alpha: float, label: str = "") -> List[str]:
    """One message per fitted eps_s / eps_m outside [0, alpha_n]."""
    return [f"{label}{name} = {value:.6g} lies outside [0, {alpha:g}]"
            for name, value in zip(("eps_s", "eps_m"), params[:2])
            if not 0 <= value <= alpha]


def _warn(manifest: dict, warnings: List[str]) -> None:
    """Record warnings in the manifest and print them as one stderr line."""
    if warnings:
        manifest["warnings"] = warnings
        click.echo("warning: unphysical fit: " + "; ".join(warnings),
                   err=True)


_output = click.option("--output", "-o", default=None,
                       help="Write the JSON report to this file.")
_pretty = click.option("--pretty", is_flag=True,
                       help="Also print a human-readable rendering.")
_positive = click.IntRange(min=1)
_group_size = click.IntRange(1, bounds.MAX_QUBITS)
_measured = click.IntRange(1, DEFAULT_QUBIT_CAP)  # simulate measures them all
_input_file = click.Path(exists=True, dir_okay=False)
_seed_opt = click.option("--seed", type=int, default=None,
                         help="Master seed (generated and printed if omitted).")
# commands that hand the seed to np.random.default_rng, which wants it >= 0
_rng_seed_opt = click.option(
    "--seed", type=click.IntRange(min=0), default=None,
    help="Master seed, non-negative (generated and printed if omitted).")


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
    report = {"manifest": _manifest()}
    report["count"] = group_order(n, quotient=quotient)
    if list_elements:
        try:
            elements = enumerate_group(n, quotient=quotient)
        except ValueError as err:
            raise click.BadParameter(str(err),
                                     param_hint="'--elements'") from None
        report["elements"] = [t.to_json() for t in elements]
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
        gate = _resolve_gate(name, "'--gates'")  # aliases -> registry names
        entries.append((gate.name, "each" if gate.arity == 1 else "all-pairs",
                        1.0))
    primary_name = _resolve_gate(primary, "'--primary'").name
    try:
        table = cayley_search(GateSet("cli", tuple(entries)), n,
                              quotient=quotient, primary_gates=(primary_name,))
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="'--n'") from None
    except CoverageError as err:
        raise click.BadParameter(str(err), param_hint="'--gates'") from None
    hist = table.cost_histogram()
    size = sum(hist.values())
    mean = sum(k * v for k, v in hist.items()) / size
    report = {"manifest": _manifest(), "group_size": size,
              "histogram": {str(k): v for k, v in sorted(hist.items())},
              "mean_primary_count": mean}
    _emit(report, output, pretty)


@main.command("decompose")
@click.option("--input", "input_path", type=_input_file, default=None,
              help="JSON file with a tableau (image_x/image_z strings).")
@click.option("--n", "n", type=_positive, default=None,
              help="With --random: number of qubits.")
@click.option("--random", "randomize", is_flag=True,
              help="Decompose a uniformly random tableau instead.")
@click.option("--target", type=click.Choice(["native", "cz", "cx"]),
              default="native", help="Two-qubit gate to rewrite onto.")
@_rng_seed_opt
@_output
@_pretty
def decompose_cmd(input_path, n, randomize, target, seed, output, pretty):
    """Block-decompose a Clifford into 1q / CZ / CX layers."""
    if randomize and input_path:
        raise click.UsageError("--random and --input exclude each other")
    if n is not None and not randomize:
        raise click.BadParameter("--n needs --random", param_hint="'--n'")
    if randomize:
        if n is None:
            raise click.BadParameter("--random needs --n")
        seed = _resolve_seed(seed)
        tab = sample_uniform(n, np.random.default_rng(seed))
    elif input_path:
        tab = _load(input_path, "'--input'",
                    lambda t: CliffordTableau.from_json(json.loads(t)))
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
    report = {"manifest": _manifest(seed=seed),
              "tableau": tab.to_json(), "sequence": seq.to_json(),
              "gate_count": len(seq.gates), "verified": ok}
    _emit(report, output, pretty)


@main.command("sample-clifford")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--count", type=_positive, default=1)
@_rng_seed_opt
@_output
@_pretty
def sample_clifford_cmd(n, count, seed, output, pretty):
    """Draw uniformly random Clifford tableaux."""
    seed = _resolve_seed(seed)
    rng = np.random.default_rng(seed)
    report = {"manifest": _manifest(seed=seed),
              "samples": [sample_uniform(n, rng).to_json()
                          for _ in range(count)]}
    _emit(report, output, pretty)


@main.command("gen-sequences")
@click.option("--protocol", type=click.Choice(["exact", "interleaved"]),
              default="exact")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--lengths", required=True, help="Comma-separated lengths.")
@click.option("--n-seq", type=_positive, default=1,
              help="Sequences per length.")
@click.option("--gate", default=None, help="Interleaved gate name.")
@_seed_opt
@_output
@_pretty
def gen_sequences_cmd(protocol, n, lengths, n_seq, gate, seed, output, pretty):
    """Generate benchmarking sequences with per-sequence derived seeds."""
    parsed_lengths = _parse_lengths(lengths)
    gate_tab = _interleaved_gate(protocol, gate, n)
    seed = _resolve_seed(seed)
    factory = sequence_factory(protocol, n, gate_tab)
    seqs = [factory(l, np.random.default_rng(sequence_seed(seed, protocol, l, i)))
            for l in parsed_lengths for i in range(n_seq)]
    report = {"manifest": _manifest(seed=seed),
              "sequences": [s.to_json() for s in seqs]}
    _emit(report, output, pretty)


def _depolarizing(n: int, p: float, option: str) -> PauliChannel:
    try:
        return PauliChannel.depolarizing(n, p)
    except ValueError as err:
        raise click.BadParameter(
            str(err) if n > DEPOLARIZING_MAX_QUBITS else
            f"{p} is not a valid {n}-qubit depolarizing strength "
            f"(0 <= p <= {4 ** n}/{4 ** n - 1})", param_hint=option) from None


@main.command("simulate")
@click.option("--protocol", type=click.Choice(["exact", "interleaved"]),
              default="exact")
@click.option("--n", "n", type=_measured, required=True)
@click.option("--lengths", required=True)
@click.option("--n-seq", type=_positive, default=10)
@click.option("--shots", type=_positive, default=100)
@click.option("--gate", default=None)
@click.option("--error-model", "model_path", type=_input_file, default=None,
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
    if model_path and (depolarizing is not None or spam is not None):
        raise click.UsageError(
            "--error-model excludes --depolarizing and --spam")
    if model_path:
        model = _load(model_path, "'--error-model'",
                      lambda t: ErrorModel.from_json(json.loads(t), n))
    elif depolarizing is not None:
        model = ErrorModel(
            _depolarizing(n, depolarizing, "'--depolarizing'"),
            spam_channel=(_depolarizing(n, spam, "'--spam'")
                          if spam else None))
    else:
        raise click.BadParameter("provide --error-model or --depolarizing")
    parsed_lengths = _parse_lengths(lengths)
    gate_tab = _interleaved_gate(protocol, gate, n)
    # the inversion is the last step: after l steps, or 2l when interleaved
    steps_per_length = 2 if protocol == "interleaved" else 1
    last_step = parsed_lengths[-1] * steps_per_length + 1
    try:
        model.check_ramp(last_step)
    except ValueError as err:
        raise click.BadParameter(
            f"{model_path}: time_ramp {model.time_ramp} at step {last_step}: "
            f"{err}", param_hint="'--error-model'") from None
    seed = _resolve_seed(seed)
    design = ExperimentDesign(parsed_lengths, n_seq, shots, master_seed=seed)
    data = run_experiment(design, protocol, model, n, gate=gate_tab)
    _write_csv(data.to_csv(), output, _manifest(seed=seed))


@main.command("fit")
@click.option("--data", type=_input_file, required=True, help="Dataset CSV.")
@click.option("--model", type=click.Choice(sorted(analysis.MODELS)),
              default="main")
@click.option("--n", "n", type=_positive, required=True)
@_output
@_pretty
def fit_cmd(data, model, n, output, pretty):
    """Weighted nonlinear fit of a decay model to a dataset."""
    with _fit_errors("'--data'"):
        rep = analysis.fit(_load_dataset(data, "'--data'"), model,
                           analysis.alpha_n(n))
    man = _manifest()
    man.update(n_iterations=rep.n_iterations,
               objective_trace=rep.objective_trace, converged=rep.converged)
    _warn(man, _unphysical(rep.params, rep.alpha))
    _emit({"manifest": man, "fit": _fit_report_dict(rep)}, output, pretty)


@main.command("bootstrap")
@click.option("--data", type=_input_file, required=True)
@click.option("--model", type=click.Choice(sorted(analysis.MODELS)),
              default="main")
@click.option("--n", "n", type=_positive, required=True)
@click.option("--resamples", type=click.IntRange(min=2), default=1000)
@_rng_seed_opt
@_output
@_pretty
def bootstrap_cmd(data, model, n, resamples, seed, output, pretty):
    """Semi-parametric bootstrap of a decay fit."""
    seed = _resolve_seed(seed)
    with _fit_errors("'--data'"):
        rep = analysis.bootstrap(_load_dataset(data, "'--data'"), model,
                                 analysis.alpha_n(n), n_resamples=resamples,
                                 rng=np.random.default_rng(seed))
    man = _manifest(seed=seed)
    man["lm_iterations"] = rep.lm_iterations
    _warn(man, _unphysical(rep.original, analysis.alpha_n(n)))
    _emit({"manifest": man, "bootstrap": json.loads(rep.to_json())}, output,
          pretty)


@main.command("interleaved")
@click.option("--reference", type=_input_file, required=True,
              help="Reference dataset CSV.")
@click.option("--interleaved", "interleaved_data", type=_input_file,
              required=True, help="Interleaved dataset CSV.")
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
    ref_data = _load_dataset(reference, "'--reference'")
    inter_data = _load_dataset(interleaved_data, "'--interleaved'")
    with _fit_errors("'--reference'"):
        ref = analysis.fit(ref_data, model, alpha)
    with _fit_errors("'--interleaved'"):
        inter = analysis.fit(inter_data, model, alpha)
    with _fit_errors("'--reference'"):
        eps_g, se = analysis.interleaved_gate_error(
            ref, inter, printed_form=printed_form)
    man = _manifest()
    _warn(man, _unphysical(ref.params, alpha, "reference ")
          + _unphysical(inter.params, alpha, "interleaved "))
    report = {"manifest": man, "reference_fit": _fit_report_dict(ref),
              "interleaved_fit": _fit_report_dict(inter),
              "gate_error": eps_g, "gate_error_se": se}
    _emit(report, output, pretty)


@main.command("tv-decay")
@click.option("--n", "n", type=_group_size, default=1)
@click.option("--dist", required=True,
              help="Step distribution, e.g. 'X90:0.4,Y90:0.4,I:0.2'.")
@click.option("--steps", type=_positive, default=20)
@click.option("--csv", "csv_path", default=None,
              help="Also write the series as CSV.")
@_output
@_pretty
def tv_decay_cmd(n, dist, steps, csv_path, output, pretty):
    """Total-variation distance from uniform of the aggregate-step chain."""
    d = _parse_distribution(n, dist)
    series = bounds.tv_series(d, steps)
    man = _manifest()
    if csv_path:
        _write_csv(bounds._tv_csv(series), csv_path, man)
    report = {"manifest": man,
              "total_variation": series}
    _emit(report, output, pretty)


@main.command("bounds")
@click.option("--n", "n", type=_group_size, default=1)
@click.option("--dist", required=True, help="Step distribution.")
@click.option("--eps", type=float, required=True,
              help="Observed error per step (LP) / total error (kappa).")
@click.option("--k", "k_steps", type=_positive, default=1,
              help="Aggregate-step size for the LP bound.")
@click.option("--length", type=_positive, default=1,
              help="Sequence length for the kappa bound.")
@_output
@_pretty
def bounds_cmd(n, dist, eps, k_steps, length, output, pretty):
    """LP step-comparison and imperfect-depolarization bounds."""
    d = _parse_distribution(n, dist)
    alpha = analysis.alpha_n(n)
    try:
        delta_max, delta_min = bounds.step_comparison_bound(d, eps, alpha,
                                                            k=k_steps)
        kappa = bounds.kappa_bounds(bounds.step_aggregates(d, length), eps)
    except ValueError as err:  # InfeasibleBoundError or a negative eps
        raise click.BadParameter(str(err), param_hint="'--eps'") from None
    report = {"manifest": _manifest(),
              "step_comparison": {"delta_max": delta_max,
                                  "delta_min": delta_min},
              "kappa": json.loads(kappa.to_json())}
    _emit(report, output, pretty)


if __name__ == "__main__":
    main()
