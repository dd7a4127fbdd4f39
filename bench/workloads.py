"""Workloads of the hyperoct benchmark: seeded inputs, timed ops, oracles.

Run as a script, this module executes one pass of one workload in a fresh
interpreter and prints one JSON object on its last stdout line:

    python3 bench/workloads.py --workload certify --seed 1 --trace 0

``run.py`` starts one such process per pass, so every pass pays the cold
program cache that a CLI call pays.  Only each op's ``run`` is timed; its
``prepare`` (input set-up) and ``check`` (the oracle) are not, and a traced
pass pauses recording while they execute.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import random
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

import spans as sp

ROOT = Path(__file__).resolve().parent.parent

SPECS = tuple(
    (a, sign, flavor) for a in (2, 3) for sign in "+-" for flavor in ("rotation", "flip")
)
# One n = 4 spec per certificate route (partial eigenbasis + annihilation,
# full eigenbasis on rotation, full eigenbasis on flip for a = 2 and a = 3).
CERTIFY_N4 = ((2, "+", "rotation"), (3, "-", "rotation"), (2, "-", "flip"), (3, "+", "flip"))
EIGEN_WORDS = {2: {5: 4, 6: 4, 7: 4}, 3: {5: 4, 6: 2}}  # words per spec, by a and degree
CHAIN_STARTS = 5  # extra one-step expectations per n = 5 chain
COMPOSE_PAIRS, COMPOSE_TERMS = 16, 4  # pairs per (flavor, algebra); terms per element
MC_ROUNDS, MC_DECK, MC_STEPS, MC_TRIALS = 13, 52, 7, 500
MC_Z = 5.0

class Wrong(Exception):
    """An oracle found a wrong value."""


class Upstream(Exception):
    """The op's input was to come from an earlier op that failed."""


@dataclass
class Op:
    cls: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    prepare: Optional[Callable[[], None]] = None
    refusal: Optional[type] = None  # the typed refusal the oracle expects


def execute(op: Op, tracer: Optional[sp.Tracer], error_base: type) -> tuple[float, Optional[str], str]:
    """Run one op; return (seconds, failure kind or None, detail).

    A failure never raises: it is classified as a wrong value, an untyped
    exception, an unexpected typed refusal (``error_base``), a failed
    upstream op, or an error of the oracle itself.
    """
    if op.prepare is not None:
        with _quiet(tracer):
            op.prepare()
    span = tracer.span(f"op.{op.cls}") if tracer else contextlib.nullcontext()
    kind, detail, result = None, "", None
    t0 = time.perf_counter()
    try:
        with span:
            result = op.run()
    except Upstream as e:
        kind, detail = "upstream_failure", str(e)
    except error_base as e:
        if op.refusal is None or not isinstance(e, op.refusal):
            kind, detail = "unexpected_refusal", f"{type(e).__name__}: {e}"
    except Exception as e:
        kind, detail = "untyped_exception", f"{type(e).__name__}: {e}"
    else:
        if op.refusal is not None:
            kind, detail = "wrong_value", f"expected {op.refusal.__name__}, got a result"
    seconds = time.perf_counter() - t0
    if kind is None and op.refusal is None:
        try:
            with _quiet(tracer):
                op.check(result)
        except Wrong as e:
            kind, detail = "wrong_value", str(e)
        except Exception as e:
            kind, detail = "oracle_error", f"{type(e).__name__}: {e}"
    return seconds, kind, detail


def _quiet(tracer: Optional[sp.Tracer]):
    return tracer.pause() if tracer else contextlib.nullcontext()


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def need(box: dict, key: str):
    if key not in box:
        raise Upstream(f"no {key}: the op producing it failed")
    return box[key]


# ---------------------------------------------------------------------------
# oracles independent of the program


def des(w) -> int:
    return sum(1 for u, v in zip(w, w[1:]) if u > v)


def expected_des(n: int, a: int, t: int, w0) -> Fraction:
    """(1 − a^−t)(n−1)/2 + a^−t·des(w0): expected descents after t flip shuffles."""
    at = Fraction(1, a**t)
    return (1 - at) * Fraction(n - 1, 2) + at * des(w0)


def signed_perms(n: int) -> set[tuple[int, ...]]:
    return {
        tuple(s * v for s, v in zip(signs, perm))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((-1, 1), repeat=n)
    }


def lyndon_factors(w) -> list[tuple[int, ...]]:
    """Duval's factorization under the order 1̄ ≺ 1 ≺ 2̄ ≺ 2 ≺ ..."""
    k = [(abs(c), c > 0) for c in w]
    out, start, n = [], 0, len(w)
    while start < n:
        i, j = start, start + 1
        while j < n and k[i] <= k[j]:
            i = start if k[i] < k[j] else i + 1
            j += 1
        while start <= i:
            out.append(tuple(w[start : start + j - i]))
            start += j - i
    return out


def rotation_refuses(w, a: int, flavor: str) -> bool:
    """Even-a rotation has no eigenvector for a word with a factor holding
    an odd number of barred letters (a rotation-negating factor)."""
    return (
        a % 2 == 0
        and flavor == "rotation"
        and any(sum(c < 0 for c in f) % 2 for f in lyndon_factors(w))
    )


def random_signed_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(v if rng.random() < 0.5 else -v for v in perm)


# ---------------------------------------------------------------------------
# workloads: the chain workloads yield ops lazily, so a finished spec's
# matrices are freed before the next spec's are built


def _matrix_op(hy, box: dict, spec, perms: set, counts: dict) -> Op:
    def build():
        box["tm"] = hy.markov.transition_matrix(spec)
        return box["tm"]

    def check(tm):
        expect(set(map(tuple, tm.states)) == perms, "states are not the signed permutations")
        expect(bool((tm.counts.sum(axis=1) == tm.scale).all()), "a row does not sum to a^n")
        counts["states"] = counts.get("states", 0) + tm.size
        counts["nnz"] = counts.get("nnz", 0) + int(np.count_nonzero(tm.counts))

    return Op("matrix", f"transition_matrix {spec}", build, check)


def _expectation_ops(hy, box: dict, spec, w0, ts, stat: str) -> Iterator[Op]:
    def prepare():
        if "stat" not in box and "tm" in box:
            states = box["tm"].states
            box["stat"] = [des(s) for s in states] if stat == "des" else [1] * len(states)

    for t in ts:
        want = expected_des(spec.n, spec.a, t, w0) if stat == "des" else Fraction(1)
        yield Op(
            "expectation",
            f"exact_stat_expectation {spec} w0={w0} t={t} stat={stat}",
            lambda t=t: hy.markov.exact_stat_expectation(need(box, "tm"), w0, t, need(box, "stat")),
            lambda got, want=want: expect(got == want, f"expectation {got} != {want}"),
            prepare,
        )


def _certify_spec(hy, spec, w0, perms: set, counts: dict) -> Iterator[Op]:
    box: dict = {}
    yield _matrix_op(hy, box, spec, perms, counts)
    yield Op(
        "certificate",
        f"chain_spectrum_certificate {spec}",
        lambda: hy.verify.chain_spectrum_certificate(spec, need(box, "tm")),
        lambda rep: expect(rep["ok"] is True, f"certificate not ok: {rep.get('method')}"),
    )
    yield Op(
        "stationary",
        f"stationary_is_unique {spec}",
        lambda: hy.markov.stationary_is_unique(need(box, "tm")),
        lambda ok: expect(ok is True, "stationary law not certified unique"),
    )
    yield _subdominant_op(hy, box, spec)
    if spec.flavor == "flip":
        yield from _expectation_ops(hy, box, spec, w0, (1, 2, 3, 4), "des")


def _subdominant_op(hy, box: dict, spec) -> Op:
    return Op(
        "subdominant",
        f"verify_subdominant {spec}",
        lambda: hy.markov.verify_subdominant(spec, need(box, "tm")),
        lambda rep: expect(rep["ok"] is True, "subdominant eigenfunctions not verified"),
    )


def certify(hy, rng: random.Random, counts: dict) -> Iterator[Op]:
    """Each n = 4 chain is preceded by a block of all 8 chains at n = 3.

    The four blocks spread the ops that set op_p50_ms and op_p90_ms over the
    whole pass, so that a slow spell of a shared machine does not fall on
    all of them.  Chains with n < 3 are left out: their ops take well under
    a millisecond, where timing noise swamps the program's cost.
    """
    perms = {n: signed_perms(n) for n in (3, 4)}
    block = [(3, s) for s in SPECS]
    random.Random("certify-order").shuffle(block)
    for big in CERTIFY_N4:
        for n, (a, sign, flavor) in block + [(4, big)]:
            spec = hy.markov.ShuffleSpec(n, a, sign, flavor)
            yield from _certify_spec(hy, spec, random_signed_perm(rng, n), perms[n], counts)


def _chain_n5_spec(hy, spec, w0, starts, perms: set, counts: dict) -> Iterator[Op]:
    box: dict = {}
    yield _matrix_op(hy, box, spec, perms, counts)
    yield Op(
        "row_sums",
        f"row_sums_exact {spec}",
        lambda: need(box, "tm").row_sums_exact(),
        lambda ok: expect(ok is True, "row sums are not a^n"),
    )
    yield Op(
        "col_sums",
        f"column sums {spec}",
        lambda: bool((need(box, "tm").counts.sum(axis=0) == spec.scale).all()),
        lambda ok: expect(ok is True, "column sums are not a^n"),
    )
    yield _subdominant_op(hy, box, spec)
    stat = "des" if spec.flavor == "flip" else "mass"
    yield from _expectation_ops(hy, box, spec, w0, (1, 2, 3, 4), stat)
    for x in starts:
        yield from _expectation_ops(hy, box, spec, x, (1,), stat)


def chain_n5(hy, rng: random.Random, counts: dict) -> Iterator[Op]:
    perms = signed_perms(5)
    for a, sign, flavor in SPECS:
        spec = hy.markov.ShuffleSpec(5, a, sign, flavor)
        w0 = random_signed_perm(rng, 5)
        starts = [random_signed_perm(rng, 5) for _ in range(CHAIN_STARTS)]
        yield from _chain_n5_spec(hy, spec, w0, starts, perms, counts)


def _compositions(n: int) -> list[tuple[int, ...]]:
    """The 2^(n−1) compositions of n into positive parts."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes = [1]
        for cut in cuts:
            if cut:
                sizes.append(1)
            else:
                sizes[-1] += 1
        out.append(tuple(sizes))
    return out


def _relabel(rng: random.Random, w, top: int) -> tuple[int, ...]:
    """w under a random increasing map of its labels into 1..top; signs kept."""
    used = sorted({abs(c) for c in w})
    image = dict(zip(used, sorted(rng.sample(range(1, top + 1), len(used)))))
    return tuple(image[c] if c > 0 else -image[-c] for c in w)


def operators(hy, rng: random.Random, counts: dict) -> list[Op]:
    """Eigenvector and composition-law ops on algebra elements.

    Op cost depends on the shape of a word (its Lyndon factorization and
    letter repeats) and of a composition pair, not on label values.  So
    the shapes are drawn once from a fixed stream, and the seed relabels
    the words (an increasing map into labels <= 6 keeps every factorization
    and every refusal), picks decorations, element words and coefficients.
    Every seed then does the same work on different inputs, in one fixed
    interleaved order of the ops.
    """
    d, alg = hy.descent, hy.algebra
    decoration = {"rotation": d.Decoration.BAR, "flip": d.Decoration.TBAR}
    shapes = random.Random("operators-shapes")
    ops: list[Op] = []

    def terms(k: int) -> None:
        counts["terms"] = counts.get("terms", 0) + k

    for a, sign, flavor in SPECS:
        dec = decoration[flavor]
        for deg, k in EIGEN_WORDS[a].items():
            for _ in range(k):
                shape = tuple(shapes.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg))
                w = _relabel(rng, shape, 6)

                def run(w=w, deg=deg, a=a, sign=sign, dec=dec):
                    vec, mu = hy.lyndon.build_eigenvector(w, a, sign, dec)
                    return vec, mu, d.apply_operator(d.riffle_operator(a, sign, dec, deg), vec, alg.CONCAT)

                def check(res):
                    vec, mu, img = res
                    expect(bool(vec), "zero eigenvector")
                    expect(img == mu * vec, f"T·v != {mu}·v")
                    terms(len(vec))

                refusal = hy.errors.OutsideBasis if rotation_refuses(w, a, flavor) else None
                ops.append(Op("eigen", f"eigen {w} a={a} {sign} {flavor}", run, check, refusal=refusal))

    sizes = _compositions(4)
    labels = (-4, -3, -2, -1, 1, 2, 3, 4)
    for dec in (d.Decoration.BAR, d.Decoration.TBAR):
        for algebra, kind in ((alg.SHUFFLE, "commutative"), (alg.CONCAT, "cocommutative")):
            for _ in range(COMPOSE_PAIRS):
                D, Dp = (
                    d.DecoratedComposition.from_sizes(
                        c, [i for i in range(len(c)) if rng.random() < 0.5], dec
                    )
                    for c in (shapes.choice(sizes), shapes.choice(sizes))
                )
                words: set = set()
                while len(words) < COMPOSE_TERMS:
                    words.add(tuple(rng.choice(labels) for _ in range(4)))
                x = hy.words.AlgebraElement((w, rng.choice((-3, -2, -1, 1, 2, 3))) for w in sorted(words))

                def run(D=D, Dp=Dp, x=x, algebra=algebra, kind=kind):
                    return d.apply_operator(d.compose_law(D, Dp, kind), x, algebra)

                def check(rhs, D=D, Dp=Dp, x=x, algebra=algebra):
                    el = d.DescentOperator.elementary
                    lhs = d.apply_operator(el(D), d.apply_operator(el(Dp), x, algebra), algebra)
                    expect(rhs == lhs, f"composition law fails for D={D} D'={Dp} on {algebra}")
                    terms(len(rhs))

                ops.append(Op("compose", f"compose {D} ∘ {Dp} {kind}", run, check))
    shapes.shuffle(ops)
    return ops


def edge_probes(hy, rng: random.Random) -> Iterator[Op]:
    """Elements of more than 128 terms at the int64 edge of apply_operator.

    Known to fail at the time these probes were written (ROADMAP F2): the
    2^53-scaled element gets a silently wrong coefficient, and wide labels
    raise an untyped ValueError.  They run once per operators run, in a
    process of their own outside the timed passes, and are reported as
    ``known_defects``.
    """
    d, alg, W = hy.descent, hy.algebra, hy.words
    T8 = d.riffle_operator(3, "+", d.Decoration.BAR, 8)
    words8 = list(itertools.product((-1, 1), repeat=8))
    scale = 2**53

    def check_scaled(got):
        want = d.apply_operator(T8, W.AlgebraElement((w, 1) for w in words8), alg.CONCAT) * scale
        bad = [w for w in want.words() if got.coeff(w) != want.coeff(w)]
        expect(got == want, f"{len(bad)} wrong coefficients, e.g. {bad[:1]}")

    yield Op(
        "edge",
        "apply_operator 256 words x 2^53 (a=3 rotation +, degree 8)",
        lambda: d.apply_operator(T8, W.AlgebraElement((w, scale) for w in words8), alg.CONCAT),
        check_scaled,
    )

    shift = 2**20
    letters = (-3, -2, -1, 1, 2, 3)
    small = W.AlgebraElement((w, rng.choice((1, 2, 3, -1, -2))) for w in itertools.product(letters, repeat=3))

    def relabel(w):
        return tuple(c + shift if c > 0 else c - shift for c in w)

    T3 = d.riffle_operator(2, "-", d.Decoration.TBAR, 3)
    yield Op(
        "edge",
        f"apply_operator {len(small)} words with labels >= 2^20",
        lambda: d.apply_operator(T3, small.map_words(relabel), alg.CONCAT),
        lambda got: expect(
            got == d.apply_operator(T3, small, alg.CONCAT).map_words(relabel), "relabelled image differs"
        ),
    )


def monte_carlo(hy, rng: random.Random, counts: dict) -> Iterator[Op]:
    n, steps, trials = MC_DECK, MC_STEPS, MC_TRIALS
    for _ in range(MC_ROUNDS):
        for a, sign, flavor in SPECS:
            spec = hy.markov.ShuffleSpec(n, a, sign, flavor)
            start = random_signed_perm(rng, n)
            seed = rng.randrange(2**32)

            def check(res, spec=spec, start=start, seed=seed):
                g = np.random.default_rng(seed)
                decks = np.tile(np.array(start, dtype=np.int64), (trials, 1))
                for t in range(1, steps + 1):
                    decks = hy.markov.batch_step(spec, decks, g)
                    expect(
                        bool((np.sort(np.abs(decks), axis=1) == np.arange(1, n + 1)).all()),
                        f"step {t}: a deck is not a signed permutation",
                    )
                    d = (decks[:, :-1] > decks[:, 1:]).sum(axis=1)
                    expect(float(d.mean()) == res["means"][t - 1], f"step {t}: replayed mean differs")
                    if spec.flavor == "flip":
                        want = float(expected_des(n, spec.a, t, start))
                        tol = MC_Z * float(d.std(ddof=1)) / math.sqrt(trials) + 1e-12
                        expect(abs(res["means"][t - 1] - want) <= tol, f"step {t}: mean off by > {MC_Z} s.e.")
                counts["card_moves"] = counts.get("card_moves", 0) + trials * steps * n

            yield Op(
                "simulate",
                f"simulate {spec} seed={seed}",
                lambda spec=spec, start=start, seed=seed: hy.markov.simulate(spec, start, steps, trials, seed=seed),
                check,
            )


WORKLOADS = {"certify": certify, "chain_n5": chain_n5, "operators": operators, "monte_carlo": monte_carlo}


# ---------------------------------------------------------------------------
# one pass


class Hyperoct:
    """The program's modules, looked up at call time so wrappers apply."""

    def __init__(self):
        import hyperoct
        import hyperoct.verify

        src = (ROOT / "src").resolve()
        if src not in Path(hyperoct.__file__).resolve().parents:
            raise SystemExit(f"hyperoct was imported from {hyperoct.__file__}, not from {src}")
        self.package = hyperoct
        for name in ("algebra", "descent", "errors", "exactla", "lyndon", "markov", "verify", "words"):
            setattr(self, name, sys.modules[f"hyperoct.{name}"])


def run_ops(ops, tracer, error_base) -> dict:
    attempted: dict[str, int] = {}
    failures, op_s, op_cls = [], [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        seconds, kind, detail = execute(op, tracer, error_base)
        attempted[op.cls] = attempted.get(op.cls, 0) + 1
        op_s.append(seconds)
        op_cls.append(op.cls)
        if kind:
            failures.append({"op": i, "class": op.cls, "kind": kind, "label": op.label, "detail": detail})
    return {"attempted": attempted, "failures": failures, "op_s": op_s, "op_class": op_cls}


def run_pass(workload: str, seed: int, traced: bool, spans_out: Optional[Path]) -> dict:
    hy = Hyperoct()
    rng = random.Random(f"{workload}:{seed}")
    counts: dict[str, int] = {}
    ops = WORKLOADS[workload](hy, rng, counts)
    error_base = hy.errors.HyperoctError
    programs = getattr(getattr(hy.descent, "_programs", None), "cache_info", None)
    compiled0 = programs().misses if programs else 0
    if traced:
        tracer = sp.Tracer()
        with tracer.installed():
            out = run_ops(ops, tracer, error_base)
        tracer.counts["descent.programs_compiled"] = (programs().misses - compiled0) if programs else 0
        out["layers"] = sp.layer_metrics(tracer.spans, tracer.counts)
        counts["program_evals"] = int(tracer.counts["descent.apply_operator.program_evals"])
        counts["rref_cells"] = int(tracer.counts["exactla.rref_mod.cells"])
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    else:
        out = run_ops(ops, None, error_base)
    out["wall_s"] = sum(out["op_s"])
    out["counts"] = {"ops": len(out["op_s"]), **counts}
    out["numpy"] = np.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one pass of one benchmark workload.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--edge", action="store_true", help="run only the operators edge probes")
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)
    if args.edge:
        hy = Hyperoct()
        out = run_ops(edge_probes(hy, random.Random(f"edge:{args.seed}")), None, hy.errors.HyperoctError)
    else:
        out = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
