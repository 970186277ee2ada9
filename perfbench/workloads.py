"""The three workloads. Each is a closed loop: one client in one process
sends its next op only after the previous one completes.

A workload builds its inputs from the seed before any timing (``setup``).
``op(i)`` runs op ``i`` as the end-to-end run times it and checks its
output. ``run(i)`` runs the same op in-process, unchecked, which is what
the traced run wraps; ``check(i, result)`` then returns None when the
output passes every check, or the reason it fails. Checks are never
inside a timed interval.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import resource
import sys
import time

import numpy as np

import reference as ref

WINDOW = 96
FPS = 60.0
CONTROL_SEED = 0  # the control's input and weights do not change with --seed


@dataclasses.dataclass
class OpResult:
    wall_s: float
    fail: str = None
    output: bytes = b""  # compared bit for bit between traced and untraced ops
    value: object = None  # what check() inspects
    extra: dict = dataclasses.field(default_factory=dict)


def scaled(op, speed):
    """``op`` with its times multiplied by ``speed`` (see Workload)."""
    extra = {k: v * speed if k.endswith("_s") else v for k, v in op.extra.items()}
    return dataclasses.replace(op, wall_s=op.wall_s * speed, extra=extra)


def median(values):
    return float(np.median(values))


def tail(values):
    """(percentile, value): the highest of p90/p50 with >= 10 samples beyond it."""
    for pct in (90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50, median(values)


def recording(seed, frames):
    """A smooth synthetic pose and the (frames, 36) tracking signal a
    headset rig would record for it."""
    from kinescan.kinematics import default_tree
    from kinescan.synthetic import gen_synthetic, sparse_from_pose

    gt = gen_synthetic(seed, frames, "pose", fps=FPS)
    pose = gt.data.reshape(frames, 22, 6).astype(np.float64)
    return gt, sparse_from_pose(pose, default_tree(), fps=FPS)


def read_pose_file(path):
    """A pose sequence file, parsed here rather than by kinescan.io."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = dict(line[1:].split(" ", 1) for line in lines[1:5])
    frames, columns = int(header["frames"]), int(header["columns"])
    values = np.array(" ".join(lines[5:]).split(), dtype=np.float64).astype(np.float32)
    if values.size != frames * columns:
        raise ValueError(f"{path}: {values.size} values for {frames}x{columns}")
    return values.reshape(frames, columns)[:, :132].reshape(frames, 22, 6)


def parse_report(text):
    report = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        report[key] = float("nan") if value == "n/a" else float(value)
    return report


class Workload:
    """Timings of the end-to-end run are scaled by a control timed before
    the first op and after each op: the frozen forward pass of
    ``reference.py`` (chunked scan, as the program ran when the benchmark
    was defined) on a fixed window at the workload's scale. On a shared
    box whose speed drifts by tens of percent within a minute, the control
    drifts with the program, so

        scaled time = raw time * control_nominal_ms
                      / median of the control bursts either side of the op

    is the time the op takes when the box runs at the speed at which the
    control takes ``control_nominal_ms`` (about its median on the 2-core
    reference box). Raw times are kept in the result file.
    """

    name = ""
    why = ""
    unit = ""  # per-layer numbers outside the model are per this unit of work
    units_per_op = 1.0
    control_nominal_ms = 1.0
    control_reps = 1  # control calls in each burst; 0 leaves the workload unscaled

    def __init__(self, seed, work, launcher=None):
        self.seed, self.work, self.launcher = seed, work, launcher

    def op(self, i):
        result = self.run(i)
        result.fail = result.fail or self.check(i, result)
        return result

    def setup_control(self, **config):
        from kinescan.model import ModelConfig, init_weights

        config = ModelConfig(seed=CONTROL_SEED, **config)
        self.control_args = (recording(CONTROL_SEED, config.seq_len)[1], init_weights(config),
                             config.scan_strategy, config.gma_heads)

    def control(self):
        ref.forward(*self.control_args, scan="chunked")

    def time_control(self):
        samples = []
        for _ in range(self.control_reps):
            t0 = time.perf_counter()
            self.control()
            samples.append(time.perf_counter() - t0)
        return samples

    def e2e(self, ops):
        raise NotImplementedError

    def peak_rss_mb(self, ops):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class OfflineUks(Workload):
    name = "offline-uks"
    why = ("The full user path: a fresh `kinescan infer` process over a 1,920-frame "
           "recording (20 windows, UKS), then a fresh `kinescan eval` process.")
    unit = "1k frames"
    # 20 windows keep an op near 3 s, so a 30 s run has ~8 ops to take the
    # median of and the controls either side of an op track its speed;
    # 100-window ops (12 s, 3 per run) spread 0.25 run to run
    frames = 1920
    sampled = (0, 10, 19)
    control_reps = 3
    control_nominal_ms = 100.0

    def setup(self):
        from kinescan import io as kio
        from kinescan.model import ModelConfig, init_weights

        gt, x = recording(self.seed, self.frames)
        self.paths = {k: os.path.join(self.work, k) for k in
                      ("in.txt", "gt.txt", "w.ckpt", "pred.txt", "stdout.txt")}
        kio.save_sequence(self.paths["gt.txt"], gt)
        kio.save_sequence(self.paths["in.txt"], kio.Sequence("sparse_input", x, fps=FPS))
        weights = init_weights(ModelConfig(seed=self.seed))
        kio.save_checkpoint(self.paths["w.ckpt"], weights)
        self.checkpoint = self.paths["w.ckpt"]
        self.units_per_op = self.frames / 1000.0
        self.gt = gt.data.reshape(self.frames, 22, 6)
        self.ref_windows = {k: ref.forward(x[k * WINDOW:(k + 1) * WINDOW], weights, "uks")
                            for k in self.sampled}
        self.ref_reports = {}
        self.setup_control(scan_strategy="uks")

    def _argv(self):
        p = self.paths
        return (["infer", p["in.txt"], "--weights", p["w.ckpt"], "--out", p["pred.txt"]],
                ["eval", p["pred.txt"], p["gt.txt"]])

    def _child(self, argv):
        """(wall s, exit code, max RSS MB, stdout) of a fresh CLI process."""
        done = self.launcher.run([sys.executable, "-m", "kinescan.cli", *argv],
                                 self.paths["stdout.txt"])
        with open(self.paths["stdout.txt"], "r", encoding="utf-8") as fh:
            return done["wall_s"], done["rc"], done["maxrss_mb"], fh.read()

    def op(self, i):
        infer, evaluate = self._argv()
        t_inf, rc_inf, rss_inf, _ = self._child(infer)
        t_ev, rc_ev, rss_ev, report = self._child(evaluate) if rc_inf == 0 else (0, -1, 0, "")
        result = OpResult(t_inf + t_ev, value=report,
                          extra={"infer_s": t_inf, "eval_s": t_ev, "rss_mb": max(rss_inf, rss_ev)})
        if rc_inf or rc_ev:
            result.fail = f"exit codes infer={rc_inf} eval={rc_ev}"
        result.fail = result.fail or self.check(i, result)
        return result

    def run(self, i):
        from kinescan import cli

        infer, evaluate = self._argv()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc_inf = cli.main(infer)
            mark = len(buf.getvalue())
            rc_ev = cli.main(evaluate) if rc_inf == 0 else -1
        wall = time.perf_counter() - t0
        result = OpResult(wall, value=buf.getvalue()[mark:])
        if rc_inf or rc_ev:
            result.fail = f"exit codes infer={rc_inf} eval={rc_ev}"
        return result

    def check(self, i, result):
        """Checks the prediction file and the eval report (``result.value``)
        the op left behind; records both as the op's output."""
        with open(self.paths["pred.txt"], "rb") as fh:
            blob = fh.read()
        result.output = blob + result.value.encode()
        pose = read_pose_file(self.paths["pred.txt"])
        fail = ref.check_pose(pose, self.frames)
        for k in self.sampled:
            fail = fail or ref.check_window(
                pose[k * WINDOW:(k + 1) * WINDOW], self.ref_windows[k], f"window {k}")
        if fail is None:
            digest = hashlib.sha256(blob).hexdigest()
            if digest not in self.ref_reports:
                self.ref_reports[digest] = ref.eval_report(pose, self.gt, FPS)
            fail = ref.check_report(parse_report(result.value), self.ref_reports[digest])
        return fail

    def e2e(self, ops):
        infer_s = [o.extra["infer_s"] for o in ops]
        eval_s = [o.extra["eval_s"] for o in ops]
        return {
            "op_ms_p50": median([o.wall_s for o in ops]) * 1e3,
            "infer_fps": self.frames / median(infer_s),
            "eval_fps": self.frames / median(eval_s),
        }

    def peak_rss_mb(self, ops):
        # the eval child's peak moves by ~10 MB between identical runs
        return median([o.extra["rss_mb"] for o in ops])


class StreamFks(Workload):
    name = "stream-fks"
    why = ("A warm full-scale FKS model in-process: successive 96-frame windows of a "
           "long recording go one at a time to kinest_forward; no I/O, no set-up.")
    unit = "window"
    windows = 128  # the recording; the loop wraps around it
    sampled = (0, 64, 127)
    control_reps = 1
    control_nominal_ms = 100.0

    def setup(self):
        from kinescan import io as kio
        from kinescan.model import ModelConfig, init_weights, kinest_forward

        self.config = ModelConfig(scan_strategy="fks", seed=self.seed)
        self.weights = init_weights(self.config)
        self.checkpoint = os.path.join(self.work, "w.ckpt")
        kio.save_checkpoint(self.checkpoint, self.weights)
        _, self.x = recording(self.seed, self.windows * WINDOW)
        self.ref_windows = {k: ref.forward(self._window(k), self.weights, "fks")
                            for k in self.sampled}
        self.setup_control(scan_strategy="fks")
        for k in range(2):  # warm the model before the first timed window
            kinest_forward(self._window(k), self.config, self.weights)

    def _window(self, i):
        k = i % self.windows
        return self.x[k * WINDOW:(k + 1) * WINDOW]

    def run(self, i):
        from kinescan import model

        window = self._window(i)
        t0 = time.perf_counter()
        y = model.kinest_forward(window, self.config, self.weights)
        return OpResult(time.perf_counter() - t0, output=y.tobytes(), value=y)

    def check(self, i, result):
        k = i % self.windows
        fail = ref.check_pose(result.value, WINDOW)
        if fail is None and k in self.sampled:
            fail = ref.check_window(result.value, self.ref_windows[k], f"window {k}")
        return fail

    def e2e(self, ops):
        ms = [o.wall_s * 1e3 for o in ops]
        pct, value = tail(ms)
        return {
            "op_ms_p50": median(ms),
            "infer_fps": WINDOW / median(ms) * 1e3,
            "window_ms_p50": median(ms),
            f"window_ms_p{pct}": value,
        }


class TrainMicro(Workload):
    name = "train-micro"
    why = ("train_micro at MICRO_CONFIG_KWARGS on a 24-frame synthetic pose target: "
           "the same model and SSD code at tiny widths, where per-call overhead dominates.")
    unit = "SPSA iteration"
    iters = 10  # SPSA iterations per op
    control_reps = 20
    control_nominal_ms = 4.0

    def setup(self):
        from kinescan import io as kio
        from kinescan.kinematics import default_tree
        from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights
        from kinescan.synthetic import gen_synthetic, sparse_from_pose

        self.config = ModelConfig(seed=self.seed, **MICRO_CONFIG_KWARGS)
        seq = gen_synthetic(self.seed, self.config.seq_len, "pose", fps=FPS)
        self.z = seq.data.reshape(-1, 22, 6).astype(np.float64)
        self.x = sparse_from_pose(self.z, default_tree(), fps=FPS)
        self.units_per_op = float(self.iters)
        self.setup_control(**MICRO_CONFIG_KWARGS)
        # the set-up probe loads a full-scale checkpoint on every workload
        self.checkpoint = os.path.join(self.work, "w.ckpt")
        kio.save_checkpoint(self.checkpoint, init_weights(ModelConfig(seed=self.seed)))

    def run(self, i):
        from kinescan import training

        t0 = time.perf_counter()
        try:
            r = training.train_micro(self.config, self.x, self.z, iters=self.iters,
                                     seed=self.seed)
        except RuntimeError as exc:  # the divergence guard
            return OpResult(time.perf_counter() - t0, f"train_micro raised: {exc}")
        wall = time.perf_counter() - t0
        output = b"".join(w.tobytes() for w in r.weights.values()) + r.trace.tobytes()
        return OpResult(wall, output=output, value=r)

    def check(self, i, result):
        r = result.value
        if not (np.isfinite(r.final_loss) and r.final_loss < r.initial_loss):
            return f"loss did not fall: {r.initial_loss:.6g} -> {r.final_loss:.6g}"
        return None

    def e2e(self, ops):
        walls = [o.wall_s for o in ops]
        return {
            "op_ms_p50": median(walls) * 1e3,
            # each iteration evaluates theta +- c_k delta; one more before and after
            "infer_fps": self.config.seq_len * (2 * self.iters + 2) / median(walls),
            "spsa_iters_per_s": self.iters / median(walls),
        }


WORKLOADS = {w.name: w for w in (OfflineUks, StreamFks, TrainMicro)}
