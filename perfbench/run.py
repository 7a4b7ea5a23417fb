"""intraport benchmark: one closed-loop caller drives one workload.

Run from the repository root:

    python3 perfbench/run.py --workload eve-mc --seed 1 --seconds 30 --trace 0

Workloads: eve-mc, decoder-search, cli-conformance (see workloads.py).
With --trace 0 the run is untraced and reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced units of the same inputs
and reports per-layer metrics (layers.py).  Every operation's output is
checked; the report lines come first and the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Timings are rescaled
to a fixed machine speed (reference.py), each operation by the reference
loops timed around it; the raw values are printed beside them.  A full
record with reproducibility metadata, raw values and the output digest
goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# The BLAS thread count is pinned before numpy loads: the search's matrix
# products change speed with it, so both sides of a comparison must match.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides the measuring one
SETUP_SPEED_SAMPLES = 31  # reference loops timed right after each set-up
OUT_DIR = ".perfbench_out"
_TIME_UNITS = {"s", "ms", "us"}

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("op_ms_p50", "ms"), ("n3_op_ms_p50", "ms"),
    ("work_per_s", "1/s"), ("pass_s", "s"),
)
# What each generic end-to-end metric measures on each workload.
ALIASES = {
    "eve-mc": {"op_ms_p50": "experiment_ms_p50",
               "n3_op_ms_p50": "n=3 experiment_ms_p50", "work_per_s": "trials_per_s",
               "pass_s": "s per cycle over n=3..6 and five strategies"},
    "decoder-search": {"op_ms_p50": "solve_ms_p50",
                       "n3_op_ms_p50": "shallow_solve_ms_p50", "work_per_s": "solves per s",
                       "pass_s": "search_wall_s"},
    "cli-conformance": {"op_ms_p50": "cli_ms_p50",
                        "n3_op_ms_p50": "cli_ms_p50 at 3 channels", "work_per_s": "checks_per_s",
                        "pass_s": "s per pass over the call list"},
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("eve-mc", "decoder-search", "cli-conformance"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this fresh process and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up


def timed_setup(name: str, seed: int, out_dir: str, tracer=None):
    """Import intraport and warm up every entry point the workload calls."""
    t0 = time.perf_counter()
    import intraport  # noqa: F401  (the import is part of what is timed)
    import workloads

    wl = workloads.WORKLOADS[name]()
    if tracer is None:
        ctx = wl.setup(seed, out_dir)
    else:
        with tracer.attached():
            ctx = tracer.op("setup", lambda: wl.setup(seed, out_dir))
    return wl, ctx, time.perf_counter() - t0


def setup_speed() -> float:
    """Speed scale measured right after a set-up (the loop imports numpy,
    so it must not run before the timed import)."""
    from reference import Speedometer

    speed = Speedometer()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return speed.scale()


def _probe_setup(args) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return doc["raw_s"], doc["scale"]


def rescale(values: dict, units: dict, scale: float) -> dict:
    """Times read as at the reference speed; rates inversely; others as is."""
    def one(name, value):
        if units[name] in _TIME_UNITS:
            return value * scale
        return value / scale if units[name] == "1/s" else value
    return {name: one(name, value) for name, value in values.items()}


# ---------------------------------------------------------------------------
# Measuring


def run_op(op, speed, tracer=None, op_id=None):
    """Time the reference loop, then call one operation; returns
    (seconds, output, Failure or None)."""
    import workloads  # imports intraport, which only timed_setup may load first

    speed.sample()
    t0 = time.perf_counter()
    try:
        out = op.call() if tracer is None else tracer.op(op_id, op.call)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return time.perf_counter() - t0, None, workloads.Failure(f"{op.key}: raised {exc!r}")
    dt = time.perf_counter() - t0
    return dt, out, op.check(out)


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True, default=repr).encode()).hexdigest()


def measure(wl, ctx, seconds, speed):
    """Whole passes until `seconds` have gone by; records (op, s, failure),
    the i-th preceded by the i-th reference loop of `speed`."""
    records, first_pass = [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for op in wl.pass_ops(ctx, index):
            dt, out, fail = run_op(op, speed)
            records.append((op, dt, fail))
            if index == 0:
                first_pass.append([op.key, None if out is None else op.digest(out)])
        index += 1
    return records, _digest(first_pass), index


def _ms(x):
    return x * 1e3


def weighted_rank(pairs, q: float) -> float:
    """Nearest-rank quantile of (value, weight) pairs, without interpolation."""
    ordered = sorted(pairs)
    target = q * sum(w for _, w in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def typical_pass(rows, passes):
    """(median seconds, occurrences per pass, op) for each operation key.

    Each key's median over the passes stands for that operation.  Percentiles
    and pass time taken over this typical pass do not depend on how many
    passes fit in the run, and a slow moment of the machine moves one
    sample, not the key's median."""
    by_key = {}
    for op, dt in rows:
        by_key.setdefault(op.key, (op, []))[1].append(dt)
    return [(statistics.median(v), len(v) / passes, op) for op, v in by_key.values()]


def end_to_end(records, passes, setup_samples):
    typical = typical_pass([(op, dt) for op, dt, _ in records], passes)
    worked = [(op.work * w, t * w) for t, w, op in typical if op.work]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": _ms(weighted_rank([(t, w) for t, w, _ in typical], 0.5)),
        "n3_op_ms_p50": _ms(weighted_rank([(t, w) for t, w, op in typical if op.n == 3], 0.5)),
        "work_per_s": sum(w for w, _ in worked) / sum(t for _, t in worked),
        "pass_s": sum(t * w for t, w, _ in typical),
    }


def trace_run(wl, ctx, setup_tracer, seconds, speed):
    """Untraced unit, two traced units, then alternate until `seconds` pass.
    A unit is pass 0's operations, so every unit has the same inputs."""
    import layers
    from intraport import gate_alphabet
    from intraport.qsim import gates_commute
    from tracer import Tracer

    ops = wl.pass_ops(ctx, 0)
    untraced, traced, kept, failures = [], [], [], []
    start = time.perf_counter()
    plan = ["u", "t", "t"]
    kind = "t"
    while plan or time.perf_counter() - start < seconds:
        kind = plan.pop(0) if plan else ("u" if kind == "t" else "t")
        tracer = Tracer() if kind == "t" else None
        with tracer.attached() if tracer else contextlib.nullcontext():
            rows = [(op, *run_op(op, speed, tracer, i)) for i, op in enumerate(ops)]
        failures += [r[3] for r in rows]
        total = sum(r[1] for r in rows)
        if tracer is None:
            untraced.append((total, rows))
        else:
            traced.append(total)
            if len(kept) < 2:
                kept.append((tracer, rows))

    word_counts = {n: layers.canonical_words(gate_alphabet(n), gates_commute,
                                             layers.SEARCH_HORIZON[n])
                   for n in layers.SIZES}
    counts = [layers.unit_counts(t.spans, word_counts) for t, _ in kept]

    search_s = sum(dt for op, dt, _, _ in untraced[0][1]
                   if op.kind == "solve" or op.key == "solve-bob")
    cli_bytes = [len(out[1].encode()) for op, _, out, _ in kept[0][1]
                 if op.kind == "cli" and out]
    typical = typical_pass([(op, dt) for _, rows in untraced for op, dt, _, _ in rows],
                           len(untraced))
    extra = {
        "op_ms_p90": _ms(weighted_rank([(t, w) for t, w, _ in typical], 0.9)),
        "words_per_s": counts[0]["search.words_covered"] / search_s if search_s else 0.0,
        "depth_s": depth_sweep() if wl.name == "decoder-search" else {},
        "json_bytes": statistics.fmean(cli_bytes) if cli_bytes else 0.0,
        "overhead_frac": statistics.median(traced) / statistics.median(
            [u[0] for u in untraced]) - 1.0,
    }
    values, idle = layers.layer_metrics(setup_tracer.spans, [t.spans for t, _ in kept],
                                        counts[0], extra)
    absent = sorted(set(setup_tracer.absent) | {a for t, _ in kept for a in t.absent})
    info = {"units": {"untraced": len(untraced), "traced": len(traced)},
            "counts_repeat": counts[0] == counts[1], "counts": counts, "absent": absent,
            "not_exercised": idle, "wait": "none: closed loop, one caller, no queue or lock"}
    return values, failures, info, kept[0][0].spans


def depth_sweep() -> dict:
    """T(d) - T(d-1) for solve_bob_program(6, aux 1, max_gates=d): the time
    spent at each search depth, measured untraced from outside.  Shallow
    depths cost about a millisecond, so their difference can read slightly
    negative; more repeats there keep the medians close."""
    from intraport import AuxValue, search

    totals = {}
    for d in (0, 1, 2, 3, 4):
        reps = []
        for _ in range((9, 9, 9, 3, 1)[d]):
            t0 = time.perf_counter()
            search.solve_bob_program(6, 1, AuxValue.PLUS, d)
            reps.append(time.perf_counter() - t0)
        totals[d] = statistics.median(reps)
    return {d: totals[d] - totals.get(d - 1, 0.0) for d in totals}


# ---------------------------------------------------------------------------
# Reporting


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = os.path.join(root, ".git", ref[5:])
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, root: str) -> dict:
    import intraport
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "intraport": getattr(intraport, "__version__", "unknown"),
        "commit": _git_commit(root),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "intraport", "__init__.py")):
        print("perfbench: src/intraport not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    if args.setup_probe:
        _, _, seconds = timed_setup(args.workload, args.seed, out_dir)
        print(json.dumps({"raw_s": seconds, "scale": setup_speed()}))
        return 0

    if args.trace:
        import layers
        from reference import Speedometer
        from tracer import Tracer

        setup_tracer = Tracer()
        wl, ctx, _ = timed_setup(args.workload, args.seed, out_dir, setup_tracer)
        speed = Speedometer()
        raw, failures, info, spans = trace_run(wl, ctx, setup_tracer, args.seconds, speed)
        digest = None
        units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
        values = rescale(raw, units, speed.scale())
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in setup_tracer.spans + spans:
                fh.write(json.dumps(s) + "\n")
        info["spans_file"] = os.path.relpath(spans_path, root)
    else:
        _probe_setup(args)  # writes bytecode caches so every timed probe is alike
        setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        wl, ctx, seconds = timed_setup(args.workload, args.seed, out_dir)
        setups.append((seconds, setup_speed()))
        from reference import Speedometer

        speed = Speedometer()
        records, digest, passes = measure(wl, ctx, args.seconds, speed)
        info = {"passes": passes, "setup_samples": setups}
        units = dict(END_TO_END)
        raw = end_to_end(records, passes, [s for s, _ in setups])
        scaled = [(op, dt * speed.local_scale(i), fail) for i, (op, dt, fail) in enumerate(records)]
        values = end_to_end(scaled, passes, [s * k for s, k in setups])
        failures = [fail for _, _, fail in records]
    info["speed"] = {"scale": speed.scale(), "reference_loops": len(speed.samples)}

    bad = [f for f in failures if f is not None]
    correct = not bad and info.get("counts_repeat", True)
    result = {
        "correct": correct, "attempted": len(failures), "failed": len(bad),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {"meta": metadata(args, root), "result": result, "raw": raw, "digest": digest,
              "fail_frac": len(bad) / len(failures),
              "failures": [f.detail for f in bad[:50]], **info}
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=repr)

    meta = record["meta"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta: " + ", ".join(f"{k}={v}" for k, v in meta.items()
                               if k not in ("workload", "seed", "seconds", "trace")))
    print(f"checks: {len(failures)} operations, {len(bad)} failed "
          f"(fail_frac {record['fail_frac']:.6f}), correct={correct}")
    for detail in record["failures"][:10]:
        print(f"  failed: {detail}")
    if args.trace:
        notes = {m["name"]: f"  -> {', '.join(m['targets']) or 'none'} on {m['workload']}"
                 for m in layers.PER_LAYER}
    else:
        notes = {k: f"  ({v})" for k, v in ALIASES[args.workload].items()}
    print(f"speed: {info['speed']['reference_loops']} reference loops, run scale "
          f"{info['speed']['scale']:.4f} (end-to-end timings use the loops around each call)")
    for k, v in values.items():
        print(f"  {k:<38} {v:>14.6g} {units[k]:<6} (raw {raw[k]:.6g}){notes.get(k, '')}")
    if args.trace:
        print(f"trace: counts repeat exactly: {info['counts_repeat']}; units {info['units']}; "
              f"wait: {info['wait']}")
        print(f"trace: absent entry points: {info['absent'] or 'none'}")
        print(f"trace: layers not exercised (reported 0): {', '.join(info['not_exercised'])}")
    else:
        print(f"digest of pass 0 outputs: {digest}")
    print(f"record: {os.path.relpath(path, root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
