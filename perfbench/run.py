"""Benchmark of the spectral-walks library and CLI.

Run one workload:

    python3 perfbench/run.py --workload walk_sparse --seed 1 --seconds 30 --trace 0

or every workload, untraced and then traced, with one table row each:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own process as a closed loop: one client starts
its next session only after the previous one has finished.  Set-up is the
package import plus three rounds of input generation and a warm-up
session; ``setup_s`` is the import time plus the median round.  The timed
loop then runs sessions for ``--seconds`` (and at least MIN_SESSIONS).
Times are reported in reference seconds: each operation's (or set-up
round's) seconds divided by the time of a fixed reference kernel run just
before and after it, times the kernel's nominal time (see reference.py).
The raw seconds on a shared host drift by up to 1.8x from minute to
minute; they are in the detail line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` sessions alternate between traced (spans.Tracer
installed) and untraced, session 0 is replayed with the simulation
thread count flipped between 1 and 2 to check the output digests, and
the last line carries the per-layer metrics; the spans are written to
``.perfbench_runs/`` at the checkout root.  The line before the last,
``detail {...}``, holds sample counts, the tail percentile used, the
failed check verdicts by kind and the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"

WORKLOAD_NAMES = ("walk_sparse", "solenoid_fir", "exact_forms")
SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_SESSIONS = TAIL_BEYOND + 1
BLAS_THREADS = "1"  # pinned on every commit; the simulation pool is the only extra threads
MASK62 = (1 << 62) - 1

END_TO_END = {
    "session_s_p50": "s",
    "session_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rng.step_uniforms.draws": "count",
    "rng.step_uniforms.s": "s",
    "walks.simulate.self_s": "s",
    "walks.simulate.path_steps_per_s": "1/s",
    "walks.martingale_check.s": "s",
    "walks.markov_check.s": "s",
    "walks.martingale_check.tested_ratio": "ratio",
    "walks.stationary_measure.s": "s",
    "walks.harmonic_solve.s": "s",
    "spectra.eigh.calls": "count",
    "spectra.eigh.max_n": "count",
    "spectra.eigh.s": "s",
    "spectra.gram_matrix.s": "s",
    "spectra.dipole_combination.calls": "count",
    "spectra.dipole_combination.s": "s",
    "spectra.reciprocity_spectrum.s": "s",
    "tree.common_prefix_length.calls": "count",
    "tree.dipole_function.s": "s",
    "tree.dipole_defect.s": "s",
    "graphs.energy_inner.calls": "count",
    "graphs.energy_inner.s": "s",
    "graphs.laplacian_apply.calls": "count",
    "graphs.laplacian_apply.s": "s",
    "graphs.load_graph.s": "s",
    "circle.TrigPoly.call.calls": "count",
    "circle.TrigPoly.call.points": "count",
    "circle.TrigPoly.call.s": "s",
    "circle.solenoid_walk.self_s": "s",
    "circle.solenoid_walk.scaling_eff_2t": "ratio",
    "cli._emit.s": "s",
    "cli._emit.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "session.path_steps_per_s": "1/s",
    "session.check_fail_ratio": "ratio",
}


def tail_percentile(samples) -> tuple:
    """(value, percentile): the highest order statistic with TAIL_BEYOND samples above it.

    With n sorted samples the k-th smallest (1-based) has n - k samples
    beyond it, so k = n - TAIL_BEYOND, reported as percentile 100 k / n.
    """
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"need at least {TAIL_BEYOND + 1} samples, got {len(xs)}")
    return xs[k - 1], 100.0 * k / len(xs)


def session_seed(seed: int, index) -> int:
    """The --seed of one session, derived from the workload seed."""
    blob = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(blob[:8], "little") & MASK62


def environment(threads: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "SPECTRAL_WALKS_THREADS": threads,
        "blas_threads": blas_threads,
    }


def import_program() -> float:
    """Import spectral_walks from the checkout's src/; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "spectral_walks" / "__init__.py").is_file():
        raise SystemExit(f"error: no spectral_walks package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import spectral_walks
    import workloads  # noqa: F401  (the benchmark's own module, which imports the layers)

    elapsed = time.perf_counter() - start
    if Path(spectral_walks.__file__).resolve().parent != (src / "spectral_walks").resolve():
        raise SystemExit(f"error: spectral_walks imported from {spectral_walks.__file__}, not {src}")
    return elapsed


class Run:
    """Accumulates operations, verdicts and digests over one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.verdict_fails = {}
        self.notes = []

    def add(self, ops) -> list:
        for op in ops:
            self.attempted += 1
            self.verdicts += op.verdicts
            for kind in op.verdict_fails:
                self.verdict_fails[kind] = self.verdict_fails.get(kind, 0) + 1
            if op.failed:
                self.failed += 1
            if (op.failed or op.verdict_fails) and len(self.notes) < 20:
                self.notes.append(f"{op.label}: {op.note.strip()}")
        return [op.digest for op in ops]

    def mismatch(self, label, want, got) -> None:
        """Count ops whose digest differs from the reference run of the same session."""
        for i, (a, b) in enumerate(zip(want, got)):
            if a != b:
                self.failed += 1
                self.notes.append(f"{label}: op {i} digest differs")

    def check_fail_ratio(self) -> float:
        return sum(self.verdict_fails.values()) / max(1, self.verdicts)


def set_threads(n: int) -> None:
    os.environ["SPECTRAL_WALKS_THREADS"] = str(n)


def timed_session(wl, seed: int, run: Run, ref) -> tuple:
    """One session: (seconds, reference units, output digests).

    The reference kernel runs before the session and after each
    operation, outside the timed spans; each operation's seconds are
    divided by the mean of the kernel times just before and after it.
    """
    gc.collect()
    ops, seconds, units = [], 0.0, 0.0
    before = ref.time()
    start = time.perf_counter()
    for op in wl.session(seed):
        elapsed = time.perf_counter() - start
        after = ref.time()
        ops.append(op)
        seconds += elapsed
        units += 2.0 * elapsed / (before + after)
        before = after
        start = time.perf_counter()
    return seconds, units, run.add(ops)


def setup(cls, seed: int, tmp: str, run: Run, ref, import_s: float) -> tuple:
    """SETUP_ROUNDS rounds of input generation plus a warm-up session.

    Every round runs the same warm-up session, so the rounds double as a
    determinism check.  Returns the last round's workload, the set-up time
    in reference seconds (the import plus the median round, each divided
    by the reference kernel's time around it) and in raw seconds.
    """
    seconds, units, first = [], [], None
    kernel = [ref.time()]
    for r in range(SETUP_ROUNDS):
        start = time.perf_counter()
        wl = cls(seed, tmp)
        ops = list(wl.session(session_seed(seed, "warm-up")))
        seconds.append(time.perf_counter() - start)
        kernel.append(ref.time())
        units.append(2.0 * seconds[-1] / (kernel[-2] + kernel[-1]))
        digests = run.add(ops)
        if first is None:
            first = digests
        else:
            run.mismatch(f"setup round {r}", first, digests)
    # the import ran before the kernel could: scale it by the kernel's median
    import_units = import_s / statistics.median(kernel)
    setup_ref_s = ref.nominal_s * (import_units + statistics.median(units))
    return wl, setup_ref_s, import_s + statistics.median(seconds)


def measure(args, wl, run: Run, ref, tracer=None) -> dict:
    """The closed loop; with a tracer, even sessions are traced and odd ones not."""
    times = {True: [], False: []}
    units = {True: [], False: []}
    digests0 = None
    deadline = time.perf_counter() + args.seconds
    # a traced run needs only medians, so three untraced sessions suffice there
    least = MIN_SESSIONS if tracer is None else 3
    i = 0
    while time.perf_counter() < deadline or len(times[False]) < least:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.session = i
            tracer.install()
        try:
            seconds, ref_units, digests = timed_session(wl, session_seed(args.seed, i), run, ref)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(seconds)
        units[traced].append(ref_units)
        if i == 0:
            digests0 = digests
        i += 1
    return {"times": times, "units": units, "digests0": digests0}


def end_to_end(args, wl, run: Run, ref, setup_s: float) -> tuple:
    loop = measure(args, wl, run, ref)
    times, units = loop["times"][False], loop["units"][False]
    tail, pct = tail_percentile(units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "session_s_p50": ref.nominal_s * statistics.median(units),
        "session_s_tail": ref.nominal_s * tail,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "sessions": len(times),
        "tail_percentile": pct,
        "setup_rounds": SETUP_ROUNDS,
        "session_raw_s_p50": statistics.median(times),
        "session_raw_s_tail": tail_percentile(times)[0],
        "path_steps_per_s": wl.path_steps * len(times) / sum(times),
        "session_times": times,
    }
    return values, detail


def per_layer(args, wl, run: Run, ref, threads: int) -> tuple:
    from spans import Tracer, self_times

    tracer = Tracer()
    loop = measure(args, wl, run, ref, tracer)
    traced_ids = set(range(0, len(loop["times"][True]) * 2, 2))
    n = len(traced_ids)

    # determinism replay of session 0 with the thread count flipped, traced
    flipped = 2 if threads == 1 else 1
    set_threads(flipped)
    tracer.session = "replay"
    tracer.install()
    try:
        replay = run.add(list(wl.session(session_seed(args.seed, 0))))
    finally:
        tracer.uninstall()
        set_threads(threads)
    run.mismatch("replay", loop["digests0"], replay)

    spans = [s for s in tracer.spans if s[5] in traced_ids]
    selfs = self_times([(s[0], s[2], s[3], s[4]) for s in tracer.spans])
    by = {}
    for sid, name, start, end, parent, session, items in spans:
        agg = by.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_n": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += selfs[sid]
        for key, value in items.items():
            if key == "n":
                agg["max_n"] = max(agg["max_n"], value)
            else:
                agg[key] = agg.get(key, 0) + value

    def get(name, key):
        return by.get(name, {}).get(key, 0)

    def per(name, key):
        return get(name, key) / n

    def ratio(num, den):
        return num / den if den else 0.0

    def solenoid_s(session):
        return sum(s[3] - s[2] for s in tracer.spans if s[1] == "circle.solenoid_walk" and s[5] == session)

    one, two = (solenoid_s(0), solenoid_s("replay")) if threads == 1 else (solenoid_s("replay"), solenoid_s(0))
    untraced = loop["times"][False]
    cpl = sum(c for (name, session), c in tracer.counts.items() if session in traced_ids)
    values = {
        "rng.step_uniforms.draws": per("rng.step_uniforms", "draws"),
        "rng.step_uniforms.s": per("rng.step_uniforms", "s"),
        "walks.simulate.self_s": per("walks.simulate", "self_s"),
        "walks.simulate.path_steps_per_s": ratio(get("walks.simulate", "path_steps"), get("walks.simulate", "s")),
        "walks.martingale_check.s": per("walks.martingale_check", "s"),
        "walks.markov_check.s": per("walks.markov_check", "s"),
        "walks.martingale_check.tested_ratio": ratio(get("walks.martingale_check", "tested"), get("walks.martingale_check", "states")),
        "walks.stationary_measure.s": per("walks.stationary_measure", "s"),
        "walks.harmonic_solve.s": per("walks.harmonic_solve", "s"),
        "spectra.eigh.calls": per("spectra.eigh", "calls"),
        "spectra.eigh.max_n": get("spectra.eigh", "max_n"),
        "spectra.eigh.s": per("spectra.eigh", "s"),
        "spectra.gram_matrix.s": per("spectra.gram_matrix", "s"),
        "spectra.dipole_combination.calls": per("spectra.dipole_combination", "calls"),
        "spectra.dipole_combination.s": per("spectra.dipole_combination", "s"),
        "spectra.reciprocity_spectrum.s": per("spectra.reciprocity_spectrum", "s"),
        "tree.common_prefix_length.calls": cpl / n,
        "tree.dipole_function.s": per("tree.dipole_function", "s"),
        "tree.dipole_defect.s": per("tree.dipole_defect", "s"),
        "graphs.energy_inner.calls": per("graphs.energy_inner", "calls"),
        "graphs.energy_inner.s": per("graphs.energy_inner", "s"),
        "graphs.laplacian_apply.calls": per("graphs.laplacian_apply", "calls"),
        "graphs.laplacian_apply.s": per("graphs.laplacian_apply", "s"),
        "graphs.load_graph.s": per("graphs.load_graph", "s"),
        "circle.TrigPoly.call.calls": per("circle.TrigPoly.call", "calls"),
        "circle.TrigPoly.call.points": per("circle.TrigPoly.call", "points"),
        "circle.TrigPoly.call.s": per("circle.TrigPoly.call", "s"),
        "circle.solenoid_walk.self_s": per("circle.solenoid_walk", "self_s"),
        "circle.solenoid_walk.scaling_eff_2t": ratio(one, 2.0 * two),
        "cli._emit.s": per("cli._emit", "s"),
        "cli._emit.bytes": per("cli._emit", "bytes"),
        "trace.overhead_ratio": statistics.median(loop["units"][True]) / statistics.median(loop["units"][False]),
        "session.path_steps_per_s": wl.path_steps * len(untraced) / sum(untraced),
        "session.check_fail_ratio": run.check_fail_ratio(),
    }
    RUNS.mkdir(exist_ok=True)
    trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    detail = {
        "traced_sessions": n,
        "untraced_sessions": len(untraced),
        "replay_threads": flipped,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return values, detail


def run_workload(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    start = time.perf_counter()
    import_s = import_program()
    from reference import Reference
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    threads = min(cls.threads, len(os.sched_getaffinity(0)))
    set_threads(threads)
    run = Run()
    RUNS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    ref = Reference()
    try:
        wl, setup_s, setup_raw_s = setup(cls, args.seed, tmp, run, ref, import_s)
        if args.trace:
            values, detail = per_layer(args, wl, run, ref, threads)
        else:
            values, detail = end_to_end(args, wl, run, ref, setup_s)
            detail["setup_raw_s"] = setup_raw_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "check_verdicts": run.verdicts,
        "check_fail_ratio": run.check_fail_ratio(),
        "check_fails": run.verdict_fails,
        "notes": run.notes,
        "wall_s": time.perf_counter() - start,
        "env": environment(threads),
    })
    units = PER_LAYER if args.trace else END_TO_END
    if set(values) != set(units) or not all(math.isfinite(v) for v in values.values()):
        raise SystemExit(f"error: metrics do not match the declared set: {values}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, one row each."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import FALSE_FAILURES

    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace} failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
                return 1
            results[name, trace] = (json.loads(lines[-2][len("detail "):]), json.loads(lines[-1]))
    print("end to end (untraced runs):")
    for name in WORKLOAD_NAMES:
        detail, out = results[name, 0]
        m = out["metrics"]
        n = detail["sessions"]
        cells = [
            f"session_s_p50={m['session_s_p50']['value']:.4f} s (n={n}; raw {detail['session_raw_s_p50']:.4f})",
            f"session_s_tail={m['session_s_tail']['value']:.4f} s (p{detail['tail_percentile']:.0f}, n={n}; "
            f"raw {detail['session_raw_s_tail']:.4f})",
            f"setup_s={m['setup_s']['value']:.3f} s (median of {detail['setup_rounds']} rounds; "
            f"raw {detail['setup_raw_s']:.3f})",
            f"peak_rss_mb={m['peak_rss_mb']['value']:.1f} MB (n=1)",
            f"fail_ratio={detail['failed']}/{detail['attempted']}",
            f"check_fail_ratio={detail['check_fail_ratio']:.4f} of {detail['check_verdicts']} verdicts",
        ]
        if detail["path_steps_per_s"]:
            cells.insert(2, f"path_steps_per_s={detail['path_steps_per_s']:.4g} 1/s (n={n})")
        print(f"  {name:<15} " + "  ".join(cells))
        for kind, count in sorted(detail["check_fails"].items()):
            rows = set(kind.split(".", 1)[1].split("+"))
            known = "recorded false failure" if rows <= set(FALSE_FAILURES) else "not one of the recorded kinds"
            print(f"  {'':<15} {count} failed verdicts {kind}: {known}")
    print("recorded false failures:")
    for kind, why in FALSE_FAILURES.items():
        print(f"  {kind}: {why}")
    print("per layer (traced runs):")
    for name in WORKLOAD_NAMES:
        detail, out = results[name, 1]
        print(f"  {name} ({detail['traced_sessions']} traced sessions, fail_ratio={detail['failed']}/{detail['attempted']}):")
        for key, metric in out["metrics"].items():
            print(f"    {key:<40} {metric['value']:.6g} {metric['unit']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
