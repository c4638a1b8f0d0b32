"""One heatback benchmark workload, measured in this process.

``perfbench/run.py`` starts this file in a fresh interpreter with BLAS pinned
to one thread.  The process times its own set-up (importing heatback and the
workload's one-time construction), generates its inputs from ``--seed``, runs
a closed loop with one client for ``--seconds`` and checks every output.  Op
times are reported at a nominal machine speed (see ``Reference``).  Its last
line of output is one JSON object.

With ``--trace 1`` the first half of the time runs untraced and the second
half replays the same ops with spans installed (see ``tracing.py``): the
replayed outputs must be byte-identical, and the spans' call counts must
equal an independent profiler count of the same functions on one op.

Nothing heavy is imported at module level, so that the set-up time includes
importing numpy and scipy through heatback.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

T = 0.25
LEVELS = (1e-4, 1e-6, 1e-8)  # relative noise levels, cycled op by op
SEED_STRIDE = 100_000  # op seeds of one run never meet those of another seed

# the README demo.cfg geometry; the benchmark sizes are FULL
FULL = {
    "modes": 256, "bank": 32, "trials": 2,
    "global_modes": 512, "global_pool": 240,
    "fd_modes": 64, "fd_interior": 2000, "fd_steps": 2000,
}
DEMO_CFG = """\
length = 1.0
T = 0.25
delta_list = 1e-4
omega_a = 0.3
omega_b = 0.7
constants_mode = empirical
modes = {modes}
bank = {bank}
trials = {trials}
"""

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "bound_use_max": "ratio",
}


class CheckFailed(Exception):
    """An op's output failed a certified or finiteness check."""


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _finite(label, *values):
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"{label} is not finite: {v}")


class Sweep:
    """``run_sweep(cfg, parallel=1)`` then ``rows_to_csv``: one noise level, two trials."""

    workers = 1

    def __init__(self, sizes):
        from heatback import harness

        self.harness = harness
        self.cfg = harness.parse_config_text(DEMO_CFG.format(**sizes))

    def prepare(self, seed):
        self.seed = seed

    def make_input(self, i):
        from dataclasses import replace

        return replace(
            self.cfg,
            delta_list=(LEVELS[i % len(LEVELS)],),
            seed=SEED_STRIDE * self.seed + self.cfg.trials * i,
        )

    def run(self, cfg, workers=None):
        rows = self.harness.run_sweep(cfg, parallel=workers or self.workers)
        return rows, self.harness.rows_to_csv(rows)

    def check(self, cfg, out):
        rows, csv = out
        use = 0.0
        for row in rows:
            label = f"{row['method']} row"
            _finite(label, *(row[k] for k in ("delta", "epsilon", "alpha", "bound", "error")
                             if row[k] is not None))
            if row["bound_ok"] is not True:
                raise CheckFailed(f"{label} failed its certified check: {row}")
            if row["bound"] is not None:
                use = max(use, row["error"] / row["bound"])
        return _digest(csv.encode()), use

    def expected_counts(self):
        """Calls per op the code implies: per cell, 4 sine matrices plus one per
        bank mode in ``h_values``, and one Cholesky factorization per bank mode."""
        cells = self.cfg.trials
        return {"spectral.eigmat": cells * (self.cfg.bank + 4),
                "control.factor": cells * self.cfg.bank}


class SweepThreads(Sweep):
    """The ``sweep`` inputs with ``parallel=2``; CSV bytes must equal the serial run's."""

    workers = 2


class Global:
    """``global_backward`` on full-domain samples, sinusoidal p, cycled noise levels."""

    workers = 1

    def __init__(self, sizes):
        from heatback import filtering, spectral

        n = sizes["global_modes"]
        self.filtering = filtering
        self.spectral = spectral
        self.basis = spectral.EigenBasis(spectral.DomainSpec.unit(), n)
        self.profile = spectral.DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 3.0 * T)
        self.xs = spectral.uniform_grid(0.0, 1.0, 16 * n)
        self.pool_size = sizes["global_pool"]

    def prepare(self, seed):
        """Generate every sample set before timing starts; ops cycle through them."""
        from heatback import harness

        sp = self.spectral
        w = sp.simpson_weights(self.xs.size, self.xs[1] - self.xs[0])
        sines = self.basis.eigenfunction_matrix(self.xs)  # what evaluate() builds, once
        self.pool = []
        for j in range(self.pool_size):
            u0 = sp.synthesize_initial(self.basis, 3.0, SEED_STRIDE * seed + j)
            l2, h01 = u0.l2(), u0.h01()
            delta = LEVELS[j % len(LEVELS)] * l2
            clean = sines @ sp.evolve(u0, 0.0, T, self.profile).coeffs
            values = harness.inject_noise(clean, delta, [seed, j], w)
            self.pool.append((u0, values, delta, l2, h01))

    def make_input(self, i):
        return self.pool[i % len(self.pool)]

    def run(self, inp):
        u0, values, delta, l2, h01 = inp
        return self.filtering.global_backward(
            self.xs, values, self.basis, T, self.profile, delta, l2, h01
        )

    def check(self, inp, out):
        g, sel = out
        err = (inp[0] - g).l2()
        _finite("global error and bound", err, sel.bound)
        if err > sel.bound:
            raise CheckFailed(f"global error {err} exceeds bound {sel.bound}")
        return _digest(g.coeffs.tobytes(), repr(sel.bound).encode()), err / sel.bound

    def expected_counts(self):
        return {"spectral.eigmat": 1}


class Oracle:
    """``fd_evolve`` plus ``oracle_gap`` on the oracle-check grid, cycling p and t."""

    workers = 1

    def __init__(self, sizes):
        from heatback import fd, spectral

        dom = spectral.DomainSpec.unit()
        self.fd = fd
        self.spectral = spectral
        self.basis = spectral.EigenBasis(dom, sizes["fd_modes"])
        self.grid = fd.FDGrid(dom, sizes["fd_interior"])
        self.steps = sizes["fd_steps"]
        P = spectral.DiffusionProfile
        self.profiles = (P.constant(1.0, 3.0 * T), P.affine(1.0, 0.1, 3.0 * T),
                         P.sinusoidal(1.0, 0.2, 1.0, 3.0 * T))

    def prepare(self, seed):
        self.seed = seed

    def make_input(self, i):
        u0 = self.spectral.synthesize_initial(self.basis, 3.0, SEED_STRIDE * self.seed + i)
        profile = self.profiles[i % 3]
        t = (T / 5.0, T)[(i // 3) % 2]
        return u0, self.grid.sample(u0), profile, t

    def run(self, inp):
        u0, initial, profile, t = inp
        values = self.fd.fd_evolve(self.grid, initial, profile, t, self.steps)
        exact = self.spectral.evolve(u0, 0.0, t, profile)
        return values, self.fd.oracle_gap(self.grid, exact, values)

    def check(self, inp, out):
        values, gap = out
        tol = 1e-4 * inp[0].l2()
        _finite("oracle gap", gap)
        if not all(math.isfinite(v) for v in values.tolist()):
            raise CheckFailed("finite-difference values are not finite")
        if gap > tol:
            raise CheckFailed(f"oracle gap {gap} exceeds {tol}")
        return _digest(values.tobytes(), repr(gap).encode()), gap / tol

    def expected_counts(self):
        return {"fd.banded_solve": self.steps}


WORKLOADS = {"sweep": Sweep, "sweep-threads": SweepThreads, "global": Global, "oracle": Oracle}


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest quantile with at least 10 samples beyond it (the median below 20)."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


REF_NOMINAL_MS = 10.0  # the reference kernel's time at the nominal machine speed


class Reference:
    """A fixed kernel, independent of heatback, that tracks the machine's speed.

    On a shared 2-core host the speed of one core drifts by up to 2x over
    seconds.  The kernel mixes the three kinds of work heatback's ops do:
    vectorised ``sin`` over an outer product, a Python loop, and small
    tridiagonal LAPACK solves.  It runs before every op, and op times are
    reported at the nominal speed: ``op_ms * REF_NOMINAL_MS / ref_ms``, with
    ``ref_ms`` the mean of the kernel's runs just before and just after the op.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self.np = np
        self.solve_banded = solve_banded
        self.xs = np.linspace(0.0, 1.0, 257)
        self.k = np.arange(1.0, 257.0)
        self.u = np.ones(2000)
        self.ab = np.zeros((3, 2000))
        self.ab[0, 1:] = self.ab[2, :-1] = -0.1
        self.ab[1] = 1.2

    def run_ms(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(4):
            np.sin(np.outer(self.xs, self.k))
        acc = 0
        for i in range(30000):
            acc += i * i
        u = self.u
        for _ in range(25):
            rhs = 0.8 * u
            rhs[:-1] += 0.1 * u[1:]
            rhs[1:] += 0.1 * u[:-1]
            u = self.solve_banded((1, 1), self.ab, rhs)
        return (time.perf_counter() - t0) * 1e3


class Phase:
    """Per-op latencies, reference times, digests and certified-ratio uses."""

    def __init__(self):
        self.raw_ms: list[float] = []  # every attempted op
        self.ref_ms: list[float] = []  # one more than ops: before each op, after the last
        self.ok: list[bool] = []
        self.digests: list[str | None] = []
        self.uses: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.digests)

    def normalized_ms(self) -> list[float]:
        """Op latencies at the nominal machine speed; every attempted op."""
        return [raw * 2.0 * REF_NOMINAL_MS / (self.ref_ms[i] + self.ref_ms[i + 1])
                for i, raw in enumerate(self.raw_ms)]

    def lat_ms(self) -> list[float]:
        """Normalized latencies of the ops that passed their checks."""
        return [ms for ms, ok in zip(self.normalized_ms(), self.ok) if ok]


def run_ops(wl, ref, input_for, budget_s=None, count=None, max_ops=None, tracer=None) -> Phase:
    """Closed loop with one client: the next op starts when the previous returns."""
    phase = Phase()
    perf = time.perf_counter
    start = perf()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif perf() - start >= budget_s or (max_ops is not None and i >= max_ops):
            break
        inp = input_for(i)
        phase.ref_ms.append(ref.run_ms())
        handle = tracer.begin_op(i) if tracer else None
        t0 = perf()
        try:
            out, reason = wl.run(inp), None
        except Exception as exc:  # a failed op is counted; the loop goes on
            out, reason = None, f"op {i} raised {type(exc).__name__}: {exc}"
        dt = perf() - t0
        if tracer:
            tracer.end_op(handle)
        phase.raw_ms.append(dt * 1e3)
        digest = None
        if out is not None:
            try:
                digest, use = wl.check(inp, out)
                phase.uses.append(use)
            except Exception as exc:  # CheckFailed, or an output of an unexpected shape
                reason = f"op {i}: {type(exc).__name__}: {exc}"
        if reason:
            phase.failures.append(reason)
        phase.ok.append(reason is None)
        phase.digests.append(digest)
        i += 1
    phase.ref_ms.append(ref.run_ms())
    return phase


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    lat = phase.lat_ms()
    n = len(lat)
    q = tail_quantile(n)
    busy = sum(phase.normalized_ms())
    values = {
        "setup_s": setup_s,
        "ops_per_s": 1e3 * n / busy if busy else 0.0,
        "op_ms_p50": statistics.median(lat) if n else 0.0,
        "op_ms_tail": quantile(lat, q) if n else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "bound_use_max": max(phase.uses, default=0.0),
    }
    ok_raw = [ms for ms, ok in zip(phase.raw_ms, phase.ok) if ok]
    detail = {
        "ops": n,
        "tail_percentile": round(100.0 * q, 2),
        "raw_op_ms_p50": statistics.median(ok_raw) if n else 0.0,
        "raw_op_ms_tail": quantile(ok_raw, q) if n else 0.0,
        "ref_ms_p50": statistics.median(phase.ref_ms),
    }
    return values, detail


def _check_counts(tracer, wl, inp) -> tuple[bool, dict, dict]:
    """On one op, every call of a wrapped function must have passed a wrapper.

    Returns (ok, spans per name, {function: [calls through wrappers, calls
    seen by a profiler]}).
    """
    functions = tracer.wrapped_functions()
    tracer.reset()
    handle = tracer.begin_op(-1)
    profiled = tracing.count_calls(functions, lambda: wl.run(inp))
    tracer.end_op(handle)
    spans = Counter(name for _, name, *_ in tracer.spans if name != "op")
    table = {label: [tracer.calls.get(code, 0), profiled.get(code, 0)]
             for code, label in functions.items()}
    tracer.reset()
    return all(a == b for a, b in table.values()), dict(spans), table


def setup(name, sizes=FULL):
    """Import heatback and build the workload.

    Returns (workload, reference kernel, set-up seconds at nominal speed, raw
    set-up seconds).
    """
    t0 = time.perf_counter()
    wl = WORKLOADS[name](sizes)
    raw_s = time.perf_counter() - t0
    ref = Reference()
    ref.run_ms()  # the first run pays one-time costs
    return wl, ref, raw_s * REF_NOMINAL_MS / ref.run_ms(), raw_s


def run_workload(name, seed, seconds, trace, sizes=FULL, max_ops=None, out_dir=None) -> dict:
    """Measure one workload; returns the result object with a ``detail`` entry."""
    wl, ref, setup_s, raw_setup_s = setup(name, sizes)
    wl.prepare(seed)
    inputs: list = []

    def input_for(i):
        while len(inputs) <= i:
            inputs.append(wl.make_input(len(inputs)))
        return inputs[i]

    checks = {}
    # warm-up: lazy imports and first allocations are not what a steady op costs
    warm = run_ops(wl, ref, input_for, count=1)
    gc.collect()
    untraced = run_ops(wl, ref, input_for, budget_s=seconds / 2 if trace else seconds,
                       max_ops=max_ops)
    failures = warm.failures + untraced.failures
    attempted = warm.attempted + untraced.attempted
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "raw_setup_s": raw_setup_s, "digests": untraced.digests,
              "raw_ms": untraced.raw_ms, "ref_ms": untraced.ref_ms}

    if wl.workers > 1:
        # the same ops in one thread must give the same CSV bytes
        picks = sorted({0, untraced.attempted - 1})
        try:
            serial = {i: _digest(wl.run(input_for(i), workers=1)[1].encode()) for i in picks}
            checks["serial_csv_identical"] = all(serial[i] == untraced.digests[i] for i in picks)
        except Exception as exc:  # reported as a failed check
            failures.append(f"serial rerun raised {type(exc).__name__}: {exc}")
            checks["serial_csv_identical"] = False

    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, more = end_to_end(untraced, setup_s, rss)
        units = END_TO_END_UNITS
        detail.update(more)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ok, spans, table = _check_counts(tracer, wl, input_for(0))
            checks["span_counts_match_profiler"] = ok
            detail["one_op_spans"] = spans
            detail["one_op_calls"] = table
            gc.collect()
            traced = run_ops(wl, ref, input_for, count=untraced.attempted, tracer=tracer)
        except Exception as exc:  # the count check's op raised: reported, not fatal
            failures.append(f"profiled op raised {type(exc).__name__}: {exc}")
            checks["span_counts_match_profiler"] = False
            traced = Phase()
        finally:
            tracer.uninstall()
        failures += traced.failures
        attempted += traced.attempted
        checks["traced_outputs_identical"] = traced.digests == untraced.digests
        metrics = tracing.per_layer_metrics(
            tracer, traced.attempted, wl.workers, untraced.lat_ms(), traced.lat_ms()
        )
        units = tracing.PER_LAYER_UNITS
        detail["absent"] = tracer.absent
        detail["note_errors"] = dict(tracer.note_errors)
        detail["ops"] = traced.attempted
        detail["traced_raw_ms"] = traced.raw_ms
        detail["traced_ref_ms"] = traced.ref_ms
        if out_dir is not None:
            tracer.dump(Path(out_dir) / f"{name}-seed{seed}.spans.jsonl")

    detail["checks"] = checks
    detail["failures"] = failures[:20]
    correct = not failures and all(checks.values())
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
    }


def environment(root: Path) -> dict:
    """Versions, BLAS and its thread pin, cores, cache sizes and the source commit."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the import and one-time construction, then exit")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)

    if args.setup_only:
        wl, ref, setup_s, raw_s = setup(args.workload)
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_s}))
        return 0
    root = Path(__file__).resolve().parent.parent
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          out_dir=args.out_dir)
    result["detail"]["env"] = environment(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
