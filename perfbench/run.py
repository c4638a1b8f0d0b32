"""Benchmark entry point: run one heatback workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout; heatback is imported from ``src/``.
Each workload runs in a fresh interpreter with BLAS and OpenMP pinned to one
thread (so ``sweep-threads`` uses 2 compute threads on a 2-core machine).
``setup_s`` is the median over several fresh interpreters of importing
heatback plus the workload's one-time construction.  Timings are scaled to a
nominal machine speed by a reference kernel timed between ops and after each
set-up (see ``bench.Reference``).  With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced replay.  The
exit code is non-zero when any check fails.  Details (latencies, checks,
environment, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep", "sweep-threads", "global", "oracle")
SETUP_PROBES = 5  # fresh interpreters timed for setup_s, besides the workload's own
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), *args]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    probes = [] if trace else [_child(["--workload", workload, "--setup-only"])
                               for _ in range(SETUP_PROBES)]
    result = _child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--out-dir", str(OUT)])
    detail = result.pop("detail")
    if not trace:
        samples = [p["setup_s"] for p in probes] + [result["metrics"]["setup_s"]["value"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        detail["setup_samples_s"] = samples
        detail["raw_setup_samples_s"] = [p["raw_setup_s"] for p in probes] + [
            detail["raw_setup_s"]]
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    result["detail"] = detail
    return result


def _summary(workload: str, result: dict) -> str:
    d = result["detail"]
    parts = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    head = (f"[{workload}] correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} ops={d.get('ops')}")
    if "tail_percentile" in d:
        head += f" tail=p{d['tail_percentile']}"
    lines = [head, *("    " + p for p in parts)]
    lines += [f"    check {k}: {v}" for k, v in d["checks"].items()]
    lines += [f"    FAILED {f}" for f in d["failures"]]
    lines += [f"    absent {a}" for a in d.get("absent", [])]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "heatback" / "__init__.py").is_file():
        print(f"error: no heatback sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
            print(_summary(name, results[name]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(r["correct"] for r in results.values())
    if "sweep" in results and "sweep-threads" in results:
        # op i has the same inputs in both workloads, so the CSV bytes must agree
        serial = results["sweep"]["detail"]["digests"]
        threaded = results["sweep-threads"]["detail"]["digests"]
        common = min(len(serial), len(threaded))
        same = serial[:common] == threaded[:common]
        print(f"[all] sweep vs sweep-threads CSV identical over {common} ops: {same}")
        correct = correct and same
    print(json.dumps({"env": results[names[0]]["detail"]["env"]}))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
