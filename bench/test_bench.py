"""Tests of the benchmark's own code: percentiles, span arithmetic, wrapper
installation, failure classification, count self-check and metric names."""

import json
import random
import re
from pathlib import Path

import pytest

import run
import spans as sp
import workloads as wl

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def hy():
    return wl.Hyperoct()


# --- the >= 100-ops rule behind op_p90_ms ------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(99)), 0.9)
    assert run.tail_percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert run.tail_percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(19)), 0.5)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_workload_has_at_least_100_ops(hy, workload):
    ops = list(wl.WORKLOADS[workload](hy, random.Random(0), {}))
    assert len(ops) >= 100


# --- self time on nested spans ------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.x", 5.0, 7.0, 3, 0],
        ["b.y", 6.0, 8.0, 3, 0],  # overlaps b.x: the union 5..8 counts once
        ["b.z", 8.5, 12.0, 3, 0],  # runs past b's end: clipped to 8.5..9
    ]
    assert sp.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 3.5])


def test_layer_metrics_from_spans():
    spans = [
        ["verify.chain_spectrum_certificate", 0.0, 4.0, None, 0],
        ["descent.operator_matrix.concat", 0.5, 1.5, 0, 0],
        ["exactla.independent_certificate", 2.0, 3.0, 0, 0],
        ["exactla.rref_mod", 2.1, 2.6, 2, 0],
        ["exactla.rref_mod", 2.6, 2.9, 2, 0],
        ["descent.operator_matrix.shuffle", 5.0, 5.25, None, 1],
    ]
    m = sp.layer_metrics(spans, {"exactla.rref_mod.cells": 12})
    assert m["verify.chain_spectrum_certificate.self_s"] == pytest.approx(2.0)
    assert m["exactla.rref_mod.calls"] == 2
    assert m["exactla.rref_mod.s"] == pytest.approx(0.8)
    assert m["exactla.rref_mod.cells"] == 12
    assert m["exactla.rref_per_certificate"] == 2.0
    assert m["descent.operator_matrix.calls"] == 2
    assert m["descent.operator_matrix.concat_s"] == pytest.approx(1.0)
    assert m["descent.operator_matrix.shuffle_s"] == pytest.approx(0.25)
    assert set(m) == set(sp.PER_LAYER)


# --- wrappers: absent untraced, present everywhere traced, restored after ----


BINDINGS = [
    ("verify", "eigenbasis"),
    ("verify", "operator_matrix"),
    ("markov", "operator_matrix"),
    ("markov", "transition_matrix"),
    ("exactla", "rref_mod"),
    ("lyndon", "build_eigenvector"),
]


def _bindings(hy):
    return [getattr(getattr(hy, m), f) for m, f in BINDINGS] + [hy.package.transition_matrix]


def test_untraced_op_sees_the_original_functions(hy):
    before = _bindings(hy)
    seen = []
    op = wl.Op("probe", "probe", lambda: seen.append(_bindings(hy)), lambda _: None)
    assert wl.execute(op, None, hy.errors.HyperoctError)[1] is None
    assert seen[0] == before
    assert not any(hasattr(f, "bench_traced") for f in before)


def test_wrappers_cover_every_binding_and_are_restored(hy):
    before = _bindings(hy)
    tracer = sp.Tracer()
    with tracer.installed():
        inside = _bindings(hy)
        assert all(getattr(f, "bench_traced", None) for f in inside)
        assert hy.verify.operator_matrix is hy.markov.operator_matrix is hy.descent.operator_matrix
        tracer.op = 7
        spec = hy.markov.ShuffleSpec(2, 2, "+", "flip")
        tm = hy.markov.transition_matrix(spec)
        assert hy.markov.stationary_is_unique(tm) is True
    assert _bindings(hy) == before
    names = [s[sp.NAME] for s in tracer.spans]
    assert names[:2] == ["markov.transition_matrix", "descent.operator_matrix.shuffle"]
    assert tracer.spans[1][sp.PARENT] == 0 and all(s[sp.OP] == 7 for s in tracer.spans)
    assert "exactla.rref_mod" in names
    assert tracer.counts["markov.transition_matrix.states"] == 8
    assert tm.size == 8


def test_wrapper_returns_the_result_unchanged(hy):
    import numpy as np

    A = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    want = hy.exactla.rref_mod(A.copy(), 7)
    with sp.Tracer().installed() as tracer:
        got = hy.exactla.rref_mod(A.copy(), 7)
    assert (got[0] == want[0]).all() and got[1] == want[1]
    assert tracer.counts["exactla.rref_mod.cells"] == 9
    assert tracer.counts["exactla.rref_mod.cell_updates"] == 2 * 9


# --- failure classification -----------------------------------------------------


class _Refusal(Exception):
    pass


class _Other(_Refusal):
    pass


def _kind(run_fn, check=lambda r: None, refusal=None):
    return wl.execute(wl.Op("c", "l", run_fn, check, refusal=refusal), None, _Refusal)[1]


def _raise(e):
    def f():
        raise e

    return f


def test_failure_kinds():
    assert _kind(lambda: 1) is None
    assert _kind(lambda: 1, lambda r: wl.expect(r == 2, "want 2")) == "wrong_value"
    assert _kind(_raise(ValueError("x"))) == "untyped_exception"
    assert _kind(_raise(_Other("no"))) == "unexpected_refusal"
    assert _kind(_raise(_Other("no")), refusal=_Other) is None
    assert _kind(_raise(_Refusal("no")), refusal=_Other) == "unexpected_refusal"
    assert _kind(lambda: 1, refusal=_Other) == "wrong_value"
    assert _kind(lambda: wl.need({}, "tm")) == "upstream_failure"
    assert _kind(lambda: 1, lambda r: {}["missing"]) == "oracle_error"


def test_a_failure_does_not_abort_the_pass():
    ops = [
        wl.Op("x", "bad", _raise(ValueError("boom")), lambda r: None),
        wl.Op("x", "good", lambda: 1, lambda r: wl.expect(r == 1, "")),
        wl.Op("y", "wrong", lambda: 1, lambda r: wl.expect(r == 2, "want 2")),
    ]
    out = wl.run_ops(ops, None, _Refusal)
    assert out["attempted"] == {"x": 2, "y": 1}
    assert [(f["class"], f["kind"]) for f in out["failures"]] == [
        ("x", "untyped_exception"),
        ("y", "wrong_value"),
    ]


def test_rotation_refusal_oracle_matches_the_program(hy):
    rng = random.Random(3)
    for _ in range(200):
        w = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 5)))
        assert wl.lyndon_factors(w) == [tuple(f) for f in hy.lyndon.lyndon_factorize(w)]
        try:
            hy.lyndon.build_eigenvector(w, 2, "+", hy.descent.Decoration.BAR)
            refused = False
        except hy.errors.OutsideBasis:
            refused = True
        assert refused == wl.rotation_refuses(w, 2, "rotation")


# --- count self-check ----------------------------------------------------------


def _pass(counts, traced=False):
    return {"counts": counts, "traced": traced}


def test_counts_must_repeat():
    c = {"ops": 3, "nnz": 10}
    assert run.check_counts([_pass(c), _pass(dict(c))], None) == []
    assert run.check_counts([_pass(c), _pass({**c, "program_evals": 5}, True)], None) == []
    assert run.check_counts([_pass(c), _pass({"ops": 3, "nnz": 11})], None)
    assert run.check_counts([_pass(c), _pass({"ops": 3, "nnz": 11, "rref_cells": 1}, True)], None)
    assert run.check_counts([_pass(c)], {"path": "p", "counts": {"ops": 4, "nnz": 10}})


# --- metric names and the benchmark definition ---------------------------------


def test_metric_names_and_units_match_the_definition():
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert {k: m["unit"] for k, m in per_layer.items()} == sp.PER_LAYER
    for name in list(e2e) + list(per_layer):
        assert NAME.fullmatch(name), name
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)
