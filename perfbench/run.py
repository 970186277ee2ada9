"""kinescan benchmark: one workload, one run.

    python3 perfbench/run.py --workload {offline-uks,stream-fks,train-micro}
                             --seed N --seconds S --trace {0,1}

Run from the root of a kinescan checkout; the package is imported from
its ``src/`` directory. With ``--trace 0`` the run measures the
end-to-end metrics with nothing wrapped; with ``--trace 1`` it alternates
untraced and traced ops and reports per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything else the run measured, and the spans of the traced run, go to
``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from launcher import Launcher

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

N_PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
SELF_TIME_TOL = 0.02  # span self times must sum to the op's wall within 2%

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_ms_p50": "ms",
    "infer_fps": "frames/s",
    "peak_rss_mb": "MB",
}
# per-layer metrics every workload reports (the traced run's JSON line);
# the workload-specific ones (io, eval, training) are in the result file
PER_LAYER = [
    "ssd.scan.skfm.ms", "ssd.scan.tfm.ms", "ssd.scan.calls", "ssd.decay_builds",
    "ssd.mixed_len",
    "model.ssd_block.skfm.self_ms", "model.ssd_block.tfm.self_ms",
    "model.skfm.self_ms", "model.tfm.self_ms", "model.embed.ms", "model.lma.ms",
    "model.gma.tfm.ms", "model.gma.skfm.ms", "model.head.self_ms",
    "model.forward_calls",
    "kinematics.gather.ms", "kinematics.scatter.ms",
    "setup.import_ms", "setup.init_weights_ms",
    "trace.overhead_frac",
] + [f"ssd.kernel.{row}.{what}" for row in ("T96xP256", "T2112xP64", "T3072xP64", "T528xP4")
     for what in ("ms", "gflop", "bytes")]
# which end-to-end metric each per-layer family should move, and where
LAYER_MAP = {
    "ssd.scan.*, ssd.decay_builds, ssd.mixed_len, ssd.scan.calls, ssd.kernel.*":
        "window_ms_p50 on stream-fks (most); infer_fps on offline-uks; "
        "spsa_iters_per_s on train-micro",
    "model.ssd_block.*.self_ms, model.{tfm,skfm}.self_ms, model.embed/lma/gma.*, model.head.self_ms":
        "window_ms_p50 on stream-fks; infer_fps on offline-uks",
    "model.forward_calls": "infer_fps on offline-uks only",
    "kinematics.gather.ms, kinematics.scatter.ms":
        "infer_fps on offline-uks; window_ms_p50 on stream-fks",
    "kinematics.fk.ms, io.load_sequence.pose.ms, metrics.report.self_ms, rotations.ms":
        "eval_fps on offline-uks",
    "io.load_sequence.sparse.ms, io.save_sequence.pose.ms, io.load_checkpoint.ms":
        "infer_fps on offline-uks",
    "setup.import_ms, setup.init_weights_ms": "setup_s; infer_fps on offline-uks",
    "training.*": "spsa_iters_per_s on train-micro",
}


COUNTS_PER_OP = ("model.forward_calls", "ssd.mixed_len", "training.evals",
                 "training.forward_failed")
COUNTS = ("ssd.scan.calls", "ssd.decay_builds") + COUNTS_PER_OP
# per forward pass; the other layers are per workload unit (1k frames,
# window, SPSA iteration)
PER_FORWARD = ("model.", "ssd.", "kinematics.gather", "kinematics.scatter")
NOT_PER_FORWARD = ("model.infer_windowed.self_ms", "model.init_weights.ms")


def _normaliser(key, forwards, units):
    if key in COUNTS_PER_OP:
        return 1
    if key.startswith(PER_FORWARD) and key not in NOT_PER_FORWARD:
        return forwards
    return units


def describe(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or sha
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
    }


def setup_probes(workload, env):
    """Median wall of N_PROBES fresh set-ups, and the median split."""
    walls, splits = [], []
    for _ in range(N_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload.checkpoint],
                              env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if done.returncode:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        splits.append(json.loads(done.stdout.strip().splitlines()[-1]))
    split = {f"setup.{k}": statistics.median(s[k] for s in splits) for k in splits[0]}
    return statistics.median(walls), split


def run_loop(seconds, step):
    """Call step(i) until ``seconds`` have passed (at least once)."""
    stop = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < stop:
        step(i)
        i += 1


def guarded(fn, i):
    from workloads import OpResult

    t0 = time.perf_counter()
    try:
        return fn(i)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return OpResult(time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")


def pin_blas_threads():
    """One BLAS thread; must run before numpy is imported, and children
    inherit it. The model's matrices are small: on the 2-core reference box
    a second thread made no op faster, burned 1.75x the wall in CPU time
    and tied each op to the slower of two shared cores, which the control
    (see workloads.Workload) then tracked less well."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def untraced_run(workload, seconds, result):
    """Ops with a control burst before the first and after each; op i is
    scaled by the median of the bursts on either side of it (see Workload)."""
    from workloads import scaled

    if workload.control_reps:
        workload.control()  # warm
    gaps, ops = [workload.time_control()], []

    def step(i):
        ops.append(guarded(workload.op, i))
        gaps.append(workload.time_control())

    run_loop(seconds, step)
    ok = [i for i, o in enumerate(ops) if o.fail is None]
    if not ok:
        raise RuntimeError(f"every op failed; the first: {ops[0].fail}")
    def speed(i):
        around = gaps[i] + gaps[i + 1]
        return workload.control_nominal_ms / (statistics.median(around) * 1e3) if around else 1.0

    metrics = workload.e2e([scaled(ops[i], speed(i)) for i in ok])
    metrics["peak_rss_mb"] = workload.peak_rss_mb([ops[i] for i in ok])
    control = [c for gap in gaps for c in gap]
    result.update(ops=ops, raw=workload.e2e([ops[i] for i in ok]),
                  raw_ops=[dict(o.extra, wall_s=o.wall_s) for o in ops],
                  control_bursts_ms=[[c * 1e3 for c in gap] for gap in gaps])
    if control:
        result["control_ms"] = {"median": statistics.median(control) * 1e3,
                                "samples": len(control), "nominal": workload.control_nominal_ms}
    return metrics


def traced_run(workload, seconds, result):
    from spans import Tracer, op_summaries

    tracer = Tracer()
    untraced, traced = [], []

    def checked(result, i):
        if result.fail is None:
            try:
                result.fail = workload.check(i, result)
            except Exception as exc:
                result.fail = f"check raised {type(exc).__name__}: {exc}"
        return result

    def step(i):
        plain = checked(guarded(workload.run, i), i)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.op(i):
                with_spans = guarded(workload.run, i)
            with_spans.extra["outer_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        with_spans = checked(with_spans, i)
        if with_spans.fail is None and plain.fail is None and with_spans.output != plain.output:
            with_spans.fail = "traced output differs from untraced output"
        untraced.append(plain)
        traced.append(with_spans)

    run_loop(seconds, step)
    summaries = op_summaries(tracer)
    first = summaries[0]
    per_op = []
    for i, op in enumerate(traced):
        s = summaries[i]
        total, wall = sum(s["self_ms"].values()), op.extra["outer_s"] * 1e3
        if op.fail is None and abs(total - wall) > SELF_TIME_TOL * wall:
            op.fail = f"span self times sum to {total:.1f} ms of a {wall:.1f} ms op"
        if op.fail is None and s["counts"] != first["counts"]:
            op.fail = f"counts {s['counts']} differ from the first op's {first['counts']}"
        per_op.append(s)
    result["ops"] = untraced + traced
    result["spans_file"] = os.path.join(WORK, f"{workload.name}-spans.json")
    tracer.write(result["spans_file"])
    result["counts"] = first["counts"]
    counts_file = os.path.join(WORK, f"{workload.name}-counts.json")
    if os.path.exists(counts_file):
        with open(counts_file, encoding="utf-8") as fh:
            result["counts_match_previous_run"] = json.load(fh) == first["counts"]
    with open(counts_file, "w", encoding="utf-8") as fh:
        json.dump(first["counts"], fh)

    def med(values):
        return statistics.median(values) if values else 0.0

    forwards = med([s["counts"].get("model.forward_calls", 0) for s in per_op]) or 1
    keys = sorted({k for s in per_op for k in (*s["self_ms"], *s["train_ms"], *s["counts"])})
    layer = {}
    for key in keys:
        if key in COUNTS:
            values = [s["counts"].get(key, 0) for s in per_op]
        else:
            values = [s["self_ms"].get(key, 0.0) + s["train_ms"].get(key, 0.0) for s in per_op]
        layer[key] = med(values) / _normaliser(key, forwards, workload.units_per_op)
    layer["trace.overhead_frac"] = (med([o.wall_s for o in traced])
                                    / med([o.wall_s for o in untraced]) - 1.0)
    layer["trace.self_time_sum_frac"] = med(
        [sum(s["self_ms"].values()) / (o.extra["outer_s"] * 1e3) for s, o in zip(per_op, traced)])
    return layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("offline-uks", "stream-fks", "train-micro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kinescan", "__init__.py")):
        print(f"run.py: no kinescan sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    env = dict(os.environ, PYTHONPATH=SRC)
    launcher = Launcher(env)  # before this process grows; see launcher.py
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    t_start = time.perf_counter()
    try:
        sys.path.insert(0, SRC)
        import kinescan
        from workloads import WORKLOADS

        if os.path.dirname(os.path.dirname(os.path.abspath(kinescan.__file__))) != SRC:
            raise ImportError(f"kinescan imported from {kinescan.__file__}, not {SRC}")
        workload = WORKLOADS[args.workload](args.seed, scratch, launcher)
        workload.setup()
        setup_s, split = setup_probes(workload, env)
        result = {"describe": describe(args.seed), "workload": args.workload,
                  "why": workload.why, "seconds": args.seconds, "trace": args.trace}
        failures = []
        if args.trace:
            import kernels

            measured = traced_run(workload, args.seconds, result)
            measured.update(split)
            rows, failures = kernels.kernel_rows(args.seed)
            measured.update(rows)
            result["ops"] += [None] * len(kernels.SHAPES)
            wanted = PER_LAYER
        else:
            measured = untraced_run(workload, args.seconds, result)
            measured["setup_s"] = setup_s
            wanted = list(END_TO_END)
    finally:
        launcher.close()
        shutil.rmtree(scratch, ignore_errors=True)

    units = {k: _unit(k) for k in measured}
    ops = result.pop("ops")
    failures = [f"op {i}: {o.fail}" for i, o in enumerate(ops) if o and o.fail] + failures
    result.update(attempted=len(ops), failed=len(failures), failures=failures[:20],
                  run_s=time.perf_counter() - t_start, layer_map=LAYER_MAP,
                  metrics={k: {"value": v, "unit": units[k]} for k, v in sorted(measured.items())})
    out_file = os.path.join(WORK, f"{args.workload}-trace{args.trace}.json")
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    d = result["describe"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} git={d['git_sha']}")
    print(f"# machine: nproc={d['nproc']} {d['blas']} threads={d['blas_threads']} "
          f"python={d['python']} numpy={d['numpy']} scipy={d['scipy']}")
    print(f"# why: {workload.why}")
    if args.trace:
        match = {True: "counts identical to the previous traced run",
                 False: "counts DIFFER from the previous traced run"}.get(
            result.get("counts_match_previous_run"), "no earlier traced run to compare counts")
        print(f"# per-layer: times per forward pass for model/ssd/gather/scatter, per "
              f"{workload.unit} otherwise; {match}")
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    if "control_ms" in result:
        c = result["control_ms"]
        print(f"# times above scaled by control {c['nominal']:g} ms nominal / "
              f"{c['median']:.4g} ms measured (n={c['samples']}); unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(result["raw"].items())))
    print(f"ops = {len(ops)}, ops_failed = {len(failures)}")
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(f"# full result: {os.path.relpath(out_file, ROOT)}")
    missing = [k for k in wanted if k not in measured]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": measured[k], "unit": units[k]} for k in wanted},
    }))
    return 0


def _unit(key):
    if key in END_TO_END:
        return END_TO_END[key]
    if key.endswith(("_ms", ".ms")) or "_ms_p" in key:
        return "ms"
    if key.endswith(".gflop"):
        return "GFLOP"
    if key.endswith(".bytes"):
        return "B"
    if key.endswith("_frac"):
        return "ratio"
    if key.endswith("_fps"):
        return "frames/s"
    if key.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
