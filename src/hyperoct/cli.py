"""Command-line interface: spectra, eigenvectors, matrices, simulation, and
the verification suite, with deterministic JSON output."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import algebra as alg
from .descent import (
    DecoratedComposition,
    DescentOperator,
    apply_operator,
    compose_law,
    operator_matrix,
    riffle_operator,
)
from .errors import HyperoctError, OutsideBasis
from .lyndon import build_eigenvector, eigenbasis, lyndon_factorize
from .markov import (
    _FLAVOR_DECORATION as _FLAVORS,
    _SIGNS,
    ShuffleSpec,
    des,
    expected_descents,
    simulate,
    stationary_distribution,
    stationary_is_unique,
    transition_matrix,
)
from .spectral import (
    double_partitions,
    operator_eigenvalues,
    shuffle_multiplicities,
)
from .verify import run_checks
from .words import SignedWord, signed_permutations


def _dump(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed(args_seed):
    if args_seed is not None:
        return args_seed
    env = os.environ.get("HYPEROCT_SEED")
    return int(env) if env else None


def _add_chain_flags(p: argparse.ArgumentParser, sign_default="plus") -> None:
    p.add_argument("--n", type=int, required=True, help="deck size")
    p.add_argument("--a", type=int, required=True, help="number of piles/hands")
    p.add_argument("--sign", choices=["plus", "minus"], default=sign_default)
    p.add_argument("--flavor", choices=["rotation", "flip"], required=True)


def cmd_spectrum(args) -> int:
    if args.op:
        D = DecoratedComposition.parse(args.op)
        n = D.total
        if args.n and args.n != n:
            raise HyperoctError(f"--op has total {n} but --n is {args.n}")
        ev = operator_eigenvalues(DescentOperator.elementary(D))
        rows = [
            {
                "double_partition": [list(lam), list(lbar)],
                "eigenvalue": str(v),
            }
            for (lam, lbar), v in sorted(ev.items())
        ]
        _dump({"operator": str(D), "n": n, "eigenvalues": rows}, args.out)
        return 0
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    rows = [
        {"eigenvalue": str(v), "multiplicity": m}
        for v, m in shuffle_multiplicities(args.a, spec.sign, spec.decoration, args.n)
    ]
    _dump(
        {
            "n": args.n,
            "a": args.a,
            "sign": spec.sign,
            "flavor": args.flavor,
            "total_states": sum(r["multiplicity"] for r in rows),
            "spectrum": rows,
        },
        args.out,
    )
    return 0


def cmd_eigenvector(args) -> int:
    w = SignedWord.parse(args.word)
    if args.permutation and sorted(abs(c) for c in w) != list(range(1, len(w) + 1)):
        raise HyperoctError("--permutation requires each label 1..n exactly once")
    flavor = _FLAVORS[args.flavor]
    try:
        vec, value = build_eigenvector(w, args.a, _SIGNS[args.sign], flavor)
    except OutsideBasis as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: even-a rotation operators only assign eigenvectors to words "
            "whose Lyndon factors all have an even number of barred letters",
            file=sys.stderr,
        )
        return 2
    payload = {
        "word": list(w),
        "lyndon_factors": [list(u) for u in lyndon_factorize(w)],
        "eigenvalue": str(Fraction(value)),
        "scaled_eigenvalue": str(Fraction(value, args.a ** len(w))),
        "terms": len(vec),
    }
    if args.vector:
        payload["vector"] = vec.to_json()
    if args.verify:
        T = riffle_operator(args.a, _SIGNS[args.sign], flavor, len(w))
        payload["verified"] = apply_operator(T, vec, alg.CONCAT) == value * vec
    _dump(payload, args.out)
    return 0 if not args.verify or payload["verified"] else 1


def cmd_eigenbasis(args) -> int:
    flavor = _FLAVORS[args.flavor]
    N = args.N or args.n
    rows = []
    for w, vec, value in eigenbasis(
        args.n, N, args.a, _SIGNS[args.sign], flavor, include_repeats=args.full_words
    ):
        row = {
            "word": list(w),
            "eigenvalue": str(Fraction(value)),
            "terms": len(vec),
        }
        if args.vectors:
            row["vector"] = vec.to_json()
        rows.append(row)
    _dump(
        {
            "n": args.n,
            "N": N,
            "a": args.a,
            "sign": _SIGNS[args.sign],
            "flavor": args.flavor,
            "count": len(rows),
            "eigenvectors": rows,
        },
        args.out,
    )
    return 0


def cmd_matrix(args) -> int:
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    tm = transition_matrix(spec, cap=args.cap)
    _dump(tm.to_json(), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(tm.to_csv())
    return 0


def cmd_simulate(args) -> int:
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    start = SignedWord.parse(args.start) if args.start else SignedWord(range(1, args.n + 1))
    if len(start) != args.n:
        raise HyperoctError("--start length must equal --n")
    seed = _default_seed(args.seed)
    out = simulate(spec, start, args.steps, args.trials, seed, args.stat)
    if spec.flavor == "flip" and args.stat == "descents":
        out["expected"] = [
            str(expected_descents(spec, start, t)) for t in range(1, args.steps + 1)
        ]
    _dump(out, args.out)
    return 0


def cmd_compose(args) -> int:
    D = DecoratedComposition.parse(args.left)
    Dp = DecoratedComposition.parse(args.right)
    result = compose_law(D, Dp, args.algebra)
    payload = {
        "left": str(D),
        "right": str(Dp),
        "algebra": args.algebra,
        "operator": result.to_json(),
    }
    if args.verify:
        states = signed_permutations(D.total)
        algebra = alg.SHUFFLE if args.algebra == "commutative" else alg.CONCAT
        lhs = operator_matrix(DescentOperator.elementary(Dp), states, algebra) @ operator_matrix(
            DescentOperator.elementary(D), states, algebra
        )
        rhs = operator_matrix(result, states, algebra)
        payload["verified"] = bool((lhs == rhs).all())
    _dump(payload, args.out)
    return 0 if payload.get("verified", True) else 1


def cmd_stationary(args) -> int:
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    pi = stationary_distribution(spec)
    tm = transition_matrix(spec, cap=args.cap)
    unique = stationary_is_unique(tm)
    fixed = bool((tm.counts.sum(axis=0) == tm.scale).all())
    _dump(
        {
            "n": args.n,
            "a": args.a,
            "sign": spec.sign,
            "flavor": args.flavor,
            "stationary": str(pi[0]),
            "states": tm.size,
            "uniform_is_fixed": fixed,
            "unique": unique,
        },
        args.out,
    )
    return 0 if fixed and unique else 1


def cmd_verify(args) -> int:
    results = run_checks(args.suite, args.n_max, args.seed, args.jobs)
    rows = [r.to_json() for r in results]
    failed = [r for r in results if r.status == "fail"]
    width = max(len(r.name) for r in results)
    for r in results:
        line = f"{r.name:<{width}}  {r.status:<11}  {r.detail}"
        print(line)
    print(f"\n{len(results)} checks, {len(failed)} failed")
    if args.out:
        _dump({"suite": args.suite, "n_max": args.n_max, "checks": rows}, args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperoct",
        description="Hyperoctahedral descent operators, spectra, eigenvectors, "
        "and signed riffle-shuffle chains (exact arithmetic).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues and multiplicities")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--sign", choices=["plus", "minus"], default="plus")
    sp.add_argument("--flavor", choices=["rotation", "flip"], default="flip")
    sp.add_argument("--op", help="decorated composition, e.g. '1b,2' or '2t,5'")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_spectrum)

    ev = sub.add_parser("eigenvector", help="eigenvector attached to a word")
    ev.add_argument("--word", required=True, help="e.g. '-4 3 5 -1 6 -7 -2'")
    ev.add_argument("--a", type=int, required=True)
    ev.add_argument("--sign", choices=["plus", "minus"], default="plus")
    ev.add_argument("--flavor", choices=["rotation", "flip"], required=True)
    ev.add_argument("--vector", action="store_true", help="emit the full vector")
    ev.add_argument("--verify", action="store_true", help="check the eigen-equation exactly")
    ev.add_argument("--permutation", action="store_true", help="require distinct labels 1..n")
    ev.add_argument("--out")
    ev.set_defaults(fn=cmd_eigenvector)

    eb = sub.add_parser("eigenbasis", help="eigenvectors for all words of a degree")
    _add_chain_flags(eb)
    eb.add_argument("--N", type=int, default=None, help="max label (default n)")
    eb.add_argument("--full-words", action="store_true", help="include repeated letters")
    eb.add_argument("--vectors", action="store_true")
    eb.add_argument("--out")
    eb.set_defaults(fn=cmd_eigenbasis)

    mx = sub.add_parser("matrix", help="exact transition matrix")
    _add_chain_flags(mx)
    mx.add_argument("--cap", type=int, default=5, help="max n (2^n n! states)")
    mx.add_argument("--out")
    mx.add_argument("--csv", help="also write lossy float CSV here")
    mx.set_defaults(fn=cmd_matrix)

    sim = sub.add_parser("simulate", help="Monte Carlo shuffle trajectories")
    _add_chain_flags(sim)
    sim.add_argument("--steps", type=int, default=1)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=None, help="default: HYPEROCT_SEED")
    sim.add_argument("--stat", choices=["descents"], default="descents")
    sim.add_argument("--start", help="starting deck, e.g. '3 2 1'")
    sim.add_argument("--out")
    sim.set_defaults(fn=cmd_simulate)

    co = sub.add_parser("compose", help="Mantaci-Reutenauer composition law")
    co.add_argument("--left", required=True, help="outer composition (applied second)")
    co.add_argument("--right", required=True, help="inner composition (applied first)")
    co.add_argument(
        "--algebra", choices=["commutative", "cocommutative"], default="commutative"
    )
    co.add_argument("--verify", action="store_true", help="check against exact matrices")
    co.add_argument("--out")
    co.set_defaults(fn=cmd_compose)

    st = sub.add_parser("stationary", help="stationary distribution of a chain")
    _add_chain_flags(st)
    st.add_argument("--cap", type=int, default=5)
    st.add_argument("--out")
    st.set_defaults(fn=cmd_stationary)

    vf = sub.add_parser("verify", help="run invariant suites")
    vf.add_argument(
        "--suite",
        default="all",
        choices=["all", "algebra", "descent", "composition", "spectral", "stirling", "lyndon", "markov"],
    )
    vf.add_argument("--n-max", dest="n_max", type=int, default=3)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--jobs", type=int, default=1)
    vf.add_argument("--out")
    vf.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HyperoctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
