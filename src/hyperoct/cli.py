"""Command-line interface: spectra, eigenvectors, matrices, simulation, and
the verification suite, with deterministic JSON output."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra as alg
from .descent import (
    DecoratedComposition,
    DescentOperator,
    apply_operator,
    compose_law,
    riffle_operator,
)
from .errors import HyperoctError
from .lyndon import build_eigenvector, eigenbasis, lyndon_factorize
from .markov import (
    _FLAVOR_DECORATION as _FLAVORS,
    _SIGNS,
    ShuffleSpec,
    expected_descents,
    simulate,
    stationary_distribution,
    stationary_is_unique,
    transition_matrix,
)
from .spectral import (
    operator_eigenvalues,
    shuffle_multiplicities,
)
from .verify import SUITES, _composes_to, chain_spectrum_certificate, run_checks
from .words import SignedWord


def _dump(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_chain_flags(p: argparse.ArgumentParser, sign_default="plus") -> None:
    p.add_argument("--n", type=int, required=True, help="deck size")
    p.add_argument("--a", type=int, required=True, help="number of piles/hands")
    p.add_argument("--sign", choices=["plus", "minus"], default=sign_default)
    p.add_argument("--flavor", choices=["rotation", "flip"], required=True)


def _certificate_json(rep: dict, scale: int) -> dict:
    """The facts of a chain certificate, eigenvalues as fractions of the
    chain: no arrays, no timings."""
    out = {k: rep[k] for k in ("method", "ok", "size", "annihilation_power", "zero_rank") if k in rep}
    out["blocks"] = [
        {
            **{k: b[k] for k in ("k", "weight", "rows", "route", "annihilation_power", "zero_rank") if k in b},
            "multiplicities": {str(Fraction(lam, scale)): m for lam, m in b["multiplicities"].items()},
        }
        for b in rep["blocks"]
    ]
    return out


def cmd_spectrum(args) -> int:
    if args.certify and args.op:
        raise HyperoctError("--certify proves the spectrum of a chain (--n, --a), not of --op")
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
    if args.n is None or args.a is None:
        raise HyperoctError("spectrum needs --op, or both --n and --a")
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    rows = [
        {"eigenvalue": str(v), "multiplicity": m}
        for v, m in shuffle_multiplicities(args.a, spec.sign, args.n)
    ]
    payload = {
        "n": args.n,
        "a": args.a,
        "sign": spec.sign,
        "flavor": args.flavor,
        "total_states": sum(r["multiplicity"] for r in rows),
        "spectrum": rows,
    }
    if args.certify:
        payload["certificate"] = _certificate_json(chain_spectrum_certificate(spec), spec.scale)
    _dump(payload, args.out)
    return 0 if not args.certify or payload["certificate"]["ok"] else 1


def cmd_eigenvector(args) -> int:
    w = SignedWord.parse(args.word)
    if args.permutation and sorted(abs(c) for c in w) != list(range(1, len(w) + 1)):
        raise HyperoctError("--permutation requires each label 1..n exactly once")
    flavor = _FLAVORS[args.flavor]
    vec, value = build_eigenvector(w, args.a, _SIGNS[args.sign], flavor)
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
    N = args.n if args.N is None else args.N
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
    tm = transition_matrix(spec)
    _dump(tm.to_json(), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(tm.to_csv())
    return 0


def cmd_simulate(args) -> int:
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    start = SignedWord.parse(args.start) if args.start else SignedWord(range(1, args.n + 1))
    out = simulate(spec, start, args.steps, args.trials, args.seed)
    if spec.flavor == "flip":
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
        algebra = alg.SHUFFLE if args.algebra == "commutative" else alg.CONCAT
        factors = [DescentOperator.elementary(D), DescentOperator.elementary(Dp)]
        payload["verified"] = _composes_to(result, factors, algebra)
    _dump(payload, args.out)
    return 0 if payload.get("verified", True) else 1


def cmd_stationary(args) -> int:
    spec = ShuffleSpec(args.n, args.a, _SIGNS[args.sign], args.flavor)
    tm = transition_matrix(spec)  # refuses n > 5 before the law lists its 2^n·n! entries
    pi = stationary_distribution(spec)
    unique = stationary_is_unique(tm)
    fixed = tm.col_sums_exact()
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
    results = run_checks(args.suite, args.n_max, args.seed)
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
        "and signed riffle-shuffle chains (exact arithmetic).  Certificates "
        "(spectrum --certify, verify) run many small BLAS products: on a "
        "machine with few cores that other work keeps busy, "
        "OPENBLAS_NUM_THREADS=1 can make them about twice as fast.  hyperoct "
        "sets no thread count itself.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues and multiplicities")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--a", type=int, default=None)
    sp.add_argument("--sign", choices=["plus", "minus"], default="plus")
    sp.add_argument("--flavor", choices=["rotation", "flip"], default="flip")
    sp.add_argument("--op", help="decorated composition, e.g. '1b,2' or '2t,5'")
    sp.add_argument(
        "--certify", action="store_true", help="prove the chain's spectrum exactly, on its sign-character blocks"
    )
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
    mx.add_argument("--out")
    mx.add_argument("--csv", help="also write lossy float CSV here")
    mx.set_defaults(fn=cmd_matrix)

    sim = sub.add_parser("simulate", help="Monte Carlo shuffle trajectories")
    _add_chain_flags(sim)
    sim.add_argument("--steps", type=int, default=1)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=None, help="default: fresh entropy")
    sim.add_argument("--start", help="starting deck, e.g. '3 2 1'")
    sim.add_argument("--out")
    sim.set_defaults(fn=cmd_simulate)

    co = sub.add_parser("compose", help="Mantaci-Reutenauer composition law")
    co.add_argument("--left", required=True, help="outer composition (applied second)")
    co.add_argument("--right", required=True, help="inner composition (applied first)")
    co.add_argument(
        "--algebra", choices=["commutative", "cocommutative"], default="commutative"
    )
    co.add_argument("--verify", action="store_true", help="check the composite exactly on the word 1 2 ... n")
    co.add_argument("--out")
    co.set_defaults(fn=cmd_compose)

    st = sub.add_parser("stationary", help="stationary distribution of a chain")
    _add_chain_flags(st)
    st.add_argument("--out")
    st.set_defaults(fn=cmd_stationary)

    vf = sub.add_parser("verify", help="run invariant suites")
    vf.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
    )
    vf.add_argument("--n-max", dest="n_max", type=int, default=3)
    vf.add_argument("--seed", type=int, default=0)
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
