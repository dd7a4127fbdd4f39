"""Span recording around calls into hyperoct's public functions.

A traced pass wraps each function in ``TRACED`` with a recorder.  The
wrapper replaces the function everywhere it is bound -- in its own module
and in every hyperoct module that imported it by name (``verify.eigenbasis``,
``markov.operator_matrix``, ...) -- so calls made inside the library are seen
too.  Wrappers never change an argument or a result; ``Tracer.installed``
restores every original binding on exit.  Untraced passes install nothing.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out by the caller when the pass ends.  Counts derived from arguments
and results are accumulated per span name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

NAME, START, END, PARENT, OP = range(5)


def _multinomial(sizes) -> int:
    out = math.factorial(sum(sizes))
    for s in sizes:
        out //= math.factorial(s)
    return out


# Count callbacks: (bound arguments, result) -> {stat: value}.


def _rref_counts(args, result):
    rows, cols = args["A"].shape
    rank = len(result[1])
    return {"cells": rows * cols, "cell_updates": rank * rows * cols}


def _transition_counts(args, result):
    return {"states": result.size, "nnz": int(np.count_nonzero(result.counts))}


def _operator_matrix_counts(args, result):
    return {"nnz": int(np.count_nonzero(result))}


def _apply_counts(args, result):
    x = args["x"]
    in_terms = len(x) if hasattr(x, "terms") else 1
    programs = sum(_multinomial(D.undecorate()) for D in args["T"].terms)
    return {
        "in_terms": in_terms,
        "out_terms": len(result),
        "program_evals": in_terms * programs,
    }


def _compose_counts(args, result):
    return {"matrices": int(sum(result.terms.values()))}


def _eigenbasis_counts(args, result):
    n, N = args["n"], args["N"]
    if args["include_repeats"]:
        words = (2 * N) ** n
    else:
        words = 2**n * math.perm(N, n)
    return {
        "vectors": len(result),
        "terms": sum(len(vec) for _, vec, _ in result),
        "refused": words - len(result),
    }


def _eigenvector_counts(args, result):
    return {"terms": len(result[0])}


def _simulate_counts(args, result):
    return {"card_moves": args["trials"] * args["steps"] * args["spec"].n}


# Traced functions, as "<module>.<function>", with their count callbacks.
TRACED: dict[str, Optional[Callable]] = {
    "exactla.rref_mod": _rref_counts,
    "exactla.independent_certificate": None,
    "exactla.nullity_upper_bound": None,
    "exactla.annihilates": None,
    "exactla.charpoly_matches": None,
    "verify.chain_spectrum_certificate": None,
    "markov.transition_matrix": _transition_counts,
    "markov.stationary_is_unique": None,
    "markov.verify_subdominant": None,
    "markov.exact_stat_expectation": None,
    "markov.simulate": _simulate_counts,
    "descent.operator_matrix": _operator_matrix_counts,
    "descent.apply_operator": _apply_counts,
    "descent.compose_law": _compose_counts,
    "lyndon.eigenbasis": _eigenbasis_counts,
    "lyndon.build_eigenvector": _eigenvector_counts,
}

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER: dict[str, str] = {
    "exactla.rref_mod.calls": "count",
    "exactla.rref_mod.s": "s",
    "exactla.rref_mod.cells": "count",
    "exactla.rref_mod.cell_updates": "count",
    "exactla.independent_certificate.calls": "count",
    "exactla.independent_certificate.s": "s",
    "exactla.nullity_upper_bound.calls": "count",
    "exactla.nullity_upper_bound.s": "s",
    "exactla.annihilates.calls": "count",
    "exactla.annihilates.s": "s",
    "exactla.charpoly_matches.calls": "count",
    "exactla.charpoly_matches.s": "s",
    "exactla.rref_per_certificate": "ratio",
    "verify.chain_spectrum_certificate.calls": "count",
    "verify.chain_spectrum_certificate.s": "s",
    "verify.chain_spectrum_certificate.self_s": "s",
    "markov.transition_matrix.calls": "count",
    "markov.transition_matrix.s": "s",
    "markov.transition_matrix.states": "count",
    "markov.transition_matrix.nnz": "count",
    "markov.stationary_is_unique.calls": "count",
    "markov.stationary_is_unique.s": "s",
    "markov.verify_subdominant.calls": "count",
    "markov.verify_subdominant.s": "s",
    "markov.verify_subdominant.self_s": "s",
    "markov.exact_stat_expectation.calls": "count",
    "markov.exact_stat_expectation.s": "s",
    "markov.simulate.calls": "count",
    "markov.simulate.s": "s",
    "markov.simulate.card_moves": "count",
    "markov.simulate.card_moves_per_s": "1/s",
    "descent.operator_matrix.calls": "count",
    "descent.operator_matrix.shuffle_s": "s",
    "descent.operator_matrix.concat_s": "s",
    "descent.operator_matrix.nnz": "count",
    "descent.apply_operator.calls": "count",
    "descent.apply_operator.s": "s",
    "descent.apply_operator.in_terms": "count",
    "descent.apply_operator.out_terms": "count",
    "descent.apply_operator.program_evals": "count",
    "descent.apply_operator.edge_probes": "count",
    "descent.apply_operator.edge_failed": "count",
    "descent.compose_law.calls": "count",
    "descent.compose_law.s": "s",
    "descent.compose_law.matrices": "count",
    "descent.programs_compiled": "count",
    "lyndon.eigenbasis.calls": "count",
    "lyndon.eigenbasis.s": "s",
    "lyndon.eigenbasis.vectors": "count",
    "lyndon.eigenbasis.terms": "count",
    "lyndon.eigenbasis.refused": "count",
    "lyndon.build_eigenvector.calls": "count",
    "lyndon.build_eigenvector.s": "s",
    "lyndon.build_eigenvector.terms": "count",
    "trace.overhead_s": "s",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one parent run one after another in a single thread, but
    the union of their intervals is taken anyway, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s[START]), min(b, s[END])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[END] - s[START]) - covered)
    return out


class Tracer:
    """Records spans and per-name counts for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self.paused = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span, child of the innermost open span."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block (oracle work) are not recorded."""
        self.paused, old = True, self.paused
        try:
            yield
        finally:
            self.paused = old

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            label = name
            if name == "descent.operator_matrix":  # its time is split by algebra
                label = f"{name}.{sig.bind(*args, **kwargs).arguments['algebra']}"
            with self.span(label):
                result = fn(*args, **kwargs)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for stat, v in counts(bound.arguments, result).items():
                    self.counts[f"{name}.{stat}"] += v
            return result

        wrapper.bench_traced = name
        return wrapper

    @contextlib.contextmanager
    def installed(self, package: str = "hyperoct"):
        """Install a wrapper for every TRACED function in every loaded module
        of the package that binds it; restore the originals on exit."""
        origs = {
            qual: getattr(importlib.import_module(f"{package}.{qual.split('.')[0]}"), qual.split(".")[1])
            for qual in TRACED
        }
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        patched: list[tuple[object, str, object]] = []
        try:
            for qual, orig in origs.items():
                wrapped = self.wrap(qual, orig, TRACED[qual])
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            patched.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        self_s[s[NAME]] += own
    om = "descent.operator_matrix"
    calls[om] = calls[f"{om}.shuffle"] + calls[f"{om}.concat"]

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[base]
        elif stat == "s":
            out[metric] = total[base]
        elif stat == "self_s":
            out[metric] = self_s[base]
        elif stat in ("shuffle_s", "concat_s"):
            out[metric] = total[f"{base}.{stat[:-2]}"]
        else:
            out[metric] = counts.get(metric, 0)
    proofs = calls["exactla.independent_certificate"] + calls["exactla.nullity_upper_bound"]
    out["exactla.rref_per_certificate"] = calls["exactla.rref_mod"] / proofs if proofs else 0.0
    sim_s = total["markov.simulate"]
    out["markov.simulate.card_moves_per_s"] = (
        counts.get("markov.simulate.card_moves", 0) / sim_s if sim_s else 0.0
    )
    return out
