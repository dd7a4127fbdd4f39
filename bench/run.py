"""Benchmark of hyperoct, run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a fresh single-threaded interpreter
(``workloads.py``), one at a time.  An untraced run repeats passes while the
next one is expected to end within ``--seconds`` (at least one pass) and
reports the end-to-end metrics.  A traced run makes one untraced and one
traced pass and reports the per-layer metrics, with ``trace.overhead_s``
as the difference of their wall times.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run record
with every result goes to ``.bench_out/records/``, traced spans to
``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "chain_n5", "operators", "monte_carlo")
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MiB"}
# Counts that only a traced pass produces.
TRACED_COUNTS = ("program_evals", "rref_cells")

# Single-threaded BLAS/OpenMP for this process and every pass it starts;
# set before numpy is imported (through spans).
os.environ.update({v: "1" for v in THREAD_VARS})
sys.path.insert(0, str(BENCH))
import spans as sp  # noqa: E402


def tail_percentile(samples, q: float) -> float:
    """The q-quantile of samples (linear interpolation), refused unless at
    least ten samples lie beyond it."""
    n = len(samples)
    if round(n * (1 - q), 9) < 10:
        raise ValueError(f"{n} samples leave fewer than 10 beyond the {q:.0%} quantile")
    xs = sorted(samples)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to `import hyperoct` returning."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import hyperoct"], env=env, check=True)
        out.append(time.perf_counter() - t0)
    return out


def run_worker(workload: str, seed: int, env: dict, *flags: str) -> dict:
    """Run workloads.py in a fresh interpreter; return its last output line."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, traced: bool, spans_path, env: dict) -> dict:
    flags = ["--trace", str(int(traced))] + (["--spans", str(spans_path)] if spans_path else [])
    return dict(run_worker(workload, seed, env, *flags), traced=traced)


def code_digest() -> str:
    """Digest of the benchmark and program sources: counts are compared only
    between runs of identical code."""
    h = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")) + sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def check_counts(passes: list[dict], previous: dict | None) -> list[str]:
    """Counts must repeat exactly: between the passes of this run (all use
    one seed) and against the last run of the same code, workload, seed and
    tracing."""
    problems = []
    plain = [p["counts"] for p in passes if not p["traced"]]
    traced = [p["counts"] for p in passes if p["traced"]]
    for c in plain[1:]:
        if c != plain[0]:
            problems.append(f"untraced passes disagree: {plain[0]} vs {c}")
    for c in traced:
        shared = {k: v for k, v in c.items() if k not in TRACED_COUNTS}
        if plain and shared != plain[0]:
            problems.append(f"traced pass disagrees with untraced: {shared} vs {plain[0]}")
    if previous is not None and previous["counts"] != passes[-1]["counts"]:
        problems.append(f"counts differ from {previous['path']}: {previous['counts']} vs {passes[-1]['counts']}")
    return problems


def previous_record(workload: str, seed: int, trace: int, digest: str) -> dict | None:
    records = sorted((OUT / "records").glob(f"{workload}-seed{seed}-trace{trace}-*.json"))
    for path in reversed(records):
        rec = json.loads(path.read_text())
        if rec["code_sha256"] == digest:
            return {"path": path.name, "counts": rec["counts"]}
    return None


def summarize(passes: list[dict], setup: list[float], edge: dict | None, trace: int) -> dict:
    plain = [p for p in passes if not p["traced"]]
    op_ms = [s * 1e3 for p in plain for s in p["op_s"]]
    if trace:
        tp = next(p for p in passes if p["traced"])
        metrics = dict(tp["layers"])
        metrics["trace.overhead_s"] = tp["wall_s"] - plain[0]["wall_s"]
        metrics["descent.apply_operator.edge_probes"] = sum(edge["attempted"].values()) if edge else 0
        metrics["descent.apply_operator.edge_failed"] = len(edge["failures"]) if edge else 0
        units = sp.PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setup),
            "op_p50_ms": tail_percentile(op_ms, 0.5),
            "op_p90_ms": tail_percentile(op_ms, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload of hyperoct.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hyperoct" / "__init__.py").is_file():
        print(f"no hyperoct sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    digest = code_digest()
    stamp = time.time_ns()
    setup = measure_setup(env)

    passes: list[dict] = []
    if args.trace:
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}-{stamp}.json"
        passes.append(run_pass(args.workload, args.seed, False, None, env))
        passes.append(run_pass(args.workload, args.seed, True, spans_path, env))
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, False, None, env))
            if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
                break

    # The F2 probes run in a process of their own, so that their memory does
    # not count in a pass's peak_rss_mb.
    edge = run_worker(args.workload, args.seed, env, "--edge") if args.workload == "operators" else None
    problems = check_counts(passes, previous_record(args.workload, args.seed, args.trace, digest))
    metrics = summarize(passes, setup, edge, args.trace)
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [dict(f, pass_index=i) for i, p in enumerate(passes) for f in p["failures"]]
    by_kind: dict[str, dict[str, int]] = {}
    for f in failures:
        by_kind.setdefault(f["class"], {}).setdefault(f["kind"], 0)
        by_kind[f["class"]][f["kind"]] += 1
    correct = not failures and not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "commit": commit(),
        "code_sha256": digest,
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {v: env[v] for v in THREAD_VARS},
        "load": "one pass process at a time, single-threaded; set-up probes run before the passes",
        "setup_s_samples": setup,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "peak_rss_mb", "attempted", "counts")} for p in passes
        ],
        "op_samples": sum(len(p["op_s"]) for p in passes if not p["traced"]),
        "counts": passes[-1]["counts"],
        "self_check": problems or "counts repeat",
        "attempted": attempted,
        "failed": len(failures),
        "failures_by_class": by_kind,
        "failures": failures,
        "known_defects": edge and {"attempted": edge["attempted"], "failures": edge["failures"]},
        "correct": correct,
        "metrics": metrics,
    }
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    path = OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    for i, p in enumerate(passes):
        print(f"pass {i}: traced={p['traced']} wall_s={p['wall_s']:.3f} ops={len(p['op_s'])} "
              f"failed={len(p['failures'])} peak_rss_mb={p['peak_rss_mb']:.1f}", file=sys.stderr)
    for f in failures:
        print(f"FAILED [{f['class']}/{f['kind']}] {f['label']}: {f['detail']}", file=sys.stderr)
    for f in edge["failures"] if edge else ():
        print(f"known defect [{f['kind']}] {f['label']}: {f['detail']}", file=sys.stderr)
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
