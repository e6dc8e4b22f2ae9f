"""Tracing of the cliffrb library from outside it, by patching.

`Tracer.install()` replaces every public module-level function of every
`cliffrb` module with a wrapper that records a span (name, start, end,
parent span).  The wrapper is bound under every name that referred to the
original function, in every `cliffrb` module, because modules import each
other's functions by name (`protocol` binds `clifford_compose` itself).  A
few hot leaf calls are only counted, not spanned (`COUNTED`), and a few
return values feed counters (`_RESULT_HOOKS`).  The library's source is
untouched, and `uninstall()` puts every original back.

Spans stay in memory in flat arrays and are written out once, with the job
id, by `Tracer.save()` when the job process ends.  `aggregate()` turns them into
per-function calls and self time (span duration minus the time its child
spans cover).
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

import numpy as np

# Leaf calls too hot to span: counted under these names instead.
COUNTED = {
    ("pauli", "pauli_multiply"): "pauli.pauli_multiply.calls",
    ("pauli", "pauli_commutes"): "pauli.pauli_commutes.calls",
}
# Methods spanned in addition to the module-level functions.
SPANNED_METHODS = (("dense", "DenseSuperoperator", "compose"),)

ROOT = "bench.job"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _count_sequence(counts: Counter, seq) -> None:
    counts["protocol.sequences"] += 1
    counts["protocol.steps"] += len(seq.steps)


def _count_fit(counts: Counter, rep) -> None:
    counts["analysis.fit.iterations"] += rep.n_iterations


def _count_bootstrap(counts: Counter, rep) -> None:
    counts["analysis.bootstrap.failures"] += rep.n_failures
    counts["analysis.bootstrap.resamples"] += rep.n_resamples


def _count_decomposition(counts: Counter, seq) -> None:
    counts["decomp.gates_emitted"] += len(seq.gates)


_RESULT_HOOKS: Dict[str, Callable] = {
    "protocol.gen_exact_sequence": _count_sequence,
    "protocol.gen_interleaved_sequence": _count_sequence,
    "protocol.gen_approximate_sequence": _count_sequence,
    "analysis.fit": _count_fit,
    "analysis.bootstrap": _count_bootstrap,
    "decomp.block_decompose": _count_decomposition,
}


def _cayley_quotient(args, kwargs) -> bool:
    return bool(kwargs["quotient"] if "quotient" in kwargs
                else (args[2] if len(args) > 2 else False))


class Tracer:
    """Span recorder for one job process."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (used for the root and CLI)."""
        return _Span(self, self._id(name))

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap_span(self, fn, name: str):
        name_id = self._id(name)
        hook = _RESULT_HOOKS.get(name)
        counts = self.counts
        open_, close = self._open, self._close
        if name == "decomp.cayley_search":
            ids = (self._id(name + ".full"), self._id(name + ".quotient"))

            def pick(args, kwargs):
                return ids[_cayley_quotient(args, kwargs)]
        else:
            def pick(args, kwargs):
                return name_id

        def traced(*args, **kwargs):
            i = open_(pick(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import cliffrb

        modules = [cliffrb] + [
            importlib.import_module(f"cliffrb.{info.name}")
            for info in pkgutil.iter_modules(cliffrb.__path__)]
        wrappers: Dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("cliffrb.")
                        or obj.__name__.startswith("_")):
                    continue
                key = id(obj)
                if key not in wrappers:
                    where = (_short(obj.__module__), obj.__name__)
                    wrappers[key] = (
                        self._wrap_count(obj, COUNTED[where])
                        if where in COUNTED
                        else self._wrap_span(obj, ".".join(where)))
                self._set(mod, attr, wrappers[key])
        for mod_name, cls_name, meth in SPANNED_METHODS:
            cls = getattr(importlib.import_module(f"cliffrb.{mod_name}"),
                          cls_name)
            self._set(cls, meth, self._wrap_span(
                getattr(cls, meth), f"{mod_name}.{cls_name}.{meth}"))
        pauli_cls = importlib.import_module("cliffrb.pauli").PauliOperator
        self._set(pauli_cls, "__post_init__",
                  self._wrap_count(pauli_cls.__post_init__, "pauli.objects"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 job=np.array(self.job_id),
                 names=np.array(json.dumps(self.names)),
                 counts=np.array(json.dumps(dict(self.counts))))


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer, self._name_id = tracer, name_id

    def __enter__(self):
        self._i = self._tracer._open(self._name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._i)


def load(path: str) -> dict:
    with np.load(path) as f:
        return {"name": f["name"], "parent": f["parent"], "start": f["start"],
                "end": f["end"], "names": json.loads(str(f["names"])),
                "counts": json.loads(str(f["counts"]))}


def aggregate(spans: dict) -> Dict[str, dict]:
    """Per span name: calls, self_s, and entry_s (inclusive time of library
    calls made straight from the root or from a CLI command span)."""
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    names = spans["names"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_t, minlength=k)
    harness = np.array([n == ROOT or n.startswith("cli.") for n in names],
                       dtype=bool)
    entry = has_parent & ~harness[name]
    entry[entry] = harness[name[parent[entry]]]
    entry_s = np.bincount(name[entry], weights=dur[entry], minlength=k)
    return {n: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                "entry_s": float(entry_s[i])}
            for i, n in enumerate(names) if calls[i]}


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def root_seconds(spans: dict) -> float:
    roots = spans["parent"] < 0
    return float((spans["end"][roots] - spans["start"][roots]).sum())
