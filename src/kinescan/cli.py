"""Command-line surface.

Commands: orders | gen-synthetic | infer | eval | verify | train-micro |
bench. Exit codes: 0 success, 1 validation failure, 2 property-suite
failure. The commands that use synthetic, verify, training or bench
import them when they run, so ``infer`` and ``eval`` load none of them.
"""

import argparse
import sys

from . import io as kio
from .kinematics import POSE_WIDTH, SCAN_ORDERS, default_tree, sixd_blocks
from .metrics import check_fps, metrics
from .model import (
    MICRO_CONFIG_KWARGS,
    SEED_LIMIT,
    ModelConfig,
    check_weights,
    infer_windowed,
    init_weights,
)
from .rotations import DegenerateRotationError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for property failures
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_ORDER_LABELS = {
    "index": "index (0..21)",
    "fks": "fks (32 entries, 5 branches)",
    "uks": "uks (22 entries, root central)",
}


def cmd_orders(args) -> int:
    for name, order in SCAN_ORDERS.items():
        print(f"{_ORDER_LABELS[name]}: {','.join(str(j) for j in order)}")
    return 0


def cmd_gen_synthetic(args) -> int:
    from .synthetic import gen_synthetic

    seq = gen_synthetic(args.seed, args.frames, args.kind, fps=args.fps)
    kio.save_sequence(args.out, seq)
    print(f"wrote {args.kind} sequence: {seq.frames} frames -> {args.out}")
    return 0


def cmd_infer(args) -> int:
    config = kio.load_run_config(args.config) if args.config else ModelConfig()
    seq = kio.load_sequence(args.input, "sparse_input")
    if args.weights is None:
        weights = init_weights(config)
    else:
        weights = kio.load_checkpoint(args.weights)
        check_weights(config, weights, args.weights)
    try:
        pose = infer_windowed(seq.data, config, weights)
    except FloatingPointError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    kio.save_sequence(args.out, kio.sequence_from_pose(pose, fps=seq.fps))
    print(f"inferred {pose.shape[0]} frames -> {args.out}")
    return 0


def _degenerate_in(path, exc):
    """``exc`` from ``path``'s poses as a ValueError naming file, frame and joint."""
    return ValueError(f"{path}: frame {exc.index[0]}, joint {exc.index[1]}: {exc}")


def cmd_eval(args) -> int:
    pred_seq = kio.load_sequence(args.pred, "pose")
    gt_seq = kio.load_sequence(args.gt, "pose")
    # velocity and jitter scale with the frame rate, velocity needs two
    # frames, and a root-less file would score against a zero root
    if ((pred_seq.data.shape, pred_seq.fps) != (gt_seq.data.shape, gt_seq.fps)
            or gt_seq.frames < 2):
        raise ValueError(
            "frame count, rate or column mismatch, or fewer than two frames: "
            f"{args.pred} has {pred_seq.frames} frames "
            f"at {kio.format_fps(pred_seq.fps)} fps, {args.gt} has {gt_seq.frames} "
            f"frames at {kio.format_fps(gt_seq.fps)} fps, with "
            f"{pred_seq.data.shape[1]} and {gt_seq.data.shape[1]} columns"
        )
    pose_y, root_y = kio.pose_from_sequence(pred_seq)
    pose_z, root_z = kio.pose_from_sequence(gt_seq)
    try:
        report = metrics(pose_y, pose_z, default_tree(), fps=gt_seq.fps,
                         root_y=root_y, root_z=root_z)
    except DegenerateRotationError:
        # the error does not say which input it came from; convert each alone
        for path, pose in ((args.pred, pose_y), (args.gt, pose_z)):
            try:
                for _ in sixd_blocks(pose):
                    pass
            except DegenerateRotationError as exc:
                raise _degenerate_in(path, exc) from None
        raise
    except ValueError as exc:
        raise ValueError(f"evaluating {args.pred} against {args.gt}: {exc}") from None
    text = kio.format_metric_report(report)
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 2


def cmd_train_micro(args) -> int:
    from .synthetic import gen_synthetic, sparse_from_pose
    from .training import smoothed_trace, train_micro

    if args.config is None:
        config = ModelConfig(seed=args.seed, **MICRO_CONFIG_KWARGS)
    else:
        config = kio.load_run_config(args.config)
    if args.data:
        seq = kio.load_sequence(args.data, "pose")
        # a root would be dropped: the rig signal is derived from local poses
        if seq.data.shape != (config.seq_len, POSE_WIDTH):
            raise ValueError(
                f"{args.data}: {seq.frames} frames of {seq.data.shape[1]} columns, "
                f"config expects {config.seq_len} frames of root-less poses "
                f"({POSE_WIDTH} columns)"
            )
    else:
        seq = gen_synthetic(args.seed, config.seq_len, "pose")
    z, _ = kio.pose_from_sequence(seq)
    try:
        x = sparse_from_pose(z, default_tree(), fps=seq.fps)
    except DegenerateRotationError as exc:  # only a --data pose can be degenerate
        raise _degenerate_in(args.data, exc) from None
    except ValueError as exc:  # or have a rate at which a velocity overflows
        raise ValueError(f"{args.data}: {exc}") from None

    try:
        result = train_micro(config, x, z, iters=args.iters, seed=args.seed)
    except ValueError as exc:
        # the one ValueError train_micro raises is its parameter cap, which
        # only a config file can exceed
        raise ValueError(f"{args.config}: {exc}") from None
    if args.out:
        kio.save_checkpoint(args.out, result.weights)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v:.9g}\n" for v in result.trace)
    if len(result.trace):
        smoothed = smoothed_trace(result.trace)
        reduction = 1.0 - smoothed[-1] / result.initial_loss
        print(
            f"initial loss {result.initial_loss:.6f}, smoothed final "
            f"{smoothed[-1]:.6f} ({reduction:.1%} reduction over {args.iters} iters)"
        )
    else:
        print(f"initial loss {result.initial_loss:.6f}, no iterations run")
    return 0


def cmd_bench(args) -> int:
    from .bench import format_bench_table, run_benchmark

    print(format_bench_table(run_benchmark()), end="")
    return 0


def _int_at_least(low, below=None):
    """argparse type: an int of at least ``low`` (and below ``below``). argparse
    reports a refused value as an error naming the flag (exit 1)."""
    def parse(text):
        try:
            value = kio._decimal(text, int)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value
    return parse


def _fps(text):
    """argparse type: a frame rate, an ASCII decimal by the rule every fps in
    the package follows."""
    try:
        return check_fps(kio._decimal(text, float))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = _Parser(prog="kinescan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seed = _int_at_least(0, SEED_LIMIT)  # every --seed: the seeds ModelConfig takes

    p = sub.add_parser("orders", help="print the three joint scan orders")
    p.set_defaults(fn=cmd_orders)

    p = sub.add_parser("gen-synthetic", help="write a smooth synthetic sequence")
    p.add_argument("--kind", choices=("sparse_input", "pose"), default="sparse_input")
    p.add_argument("--frames", type=_int_at_least(1), default=96)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--fps", type=_fps, default=60.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser("infer", help="run the network over a sparse-input file")
    p.add_argument("input")
    p.add_argument("--config", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="evaluate predicted poses against ground truth")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the cross-module property suite")
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train-micro", help="derivative-free training at micro scale")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--iters", type=_int_at_least(0), default=500)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(fn=cmd_train_micro)

    p = sub.add_parser("bench", help="time the quadratic vs chunked realizations")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError, AssertionError) as exc:
        print(f"kinescan: error: {exc}", file=sys.stderr)
        return 1


def _set_heap_policy() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 16 MiB,
    and keep one malloc arena.

    Left dynamic, glibc raises both thresholds only after the process frees
    a large mapped block. A process that never does keeps the 128 KiB
    default, so each window's multi-MB temporaries are mapped, page-faulted
    in and unmapped anew. The model's worker thread would otherwise get an
    arena of its own, which keeps its freed temporaries apart from the main
    one's. Called once at process entry, not by ``main`` or at import, so
    in-process callers keep their own heap. Does nothing where the C library
    is not glibc.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
    except (OSError, TypeError, AttributeError):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD, from malloc.h
    libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    libc.mallopt(-8, 1)  # M_ARENA_MAX


def run() -> int:
    """Process entry of ``python -m kinescan.cli`` and the ``kinescan``
    script: the heap policy, then ``main``."""
    _set_heap_policy()
    return main()


if __name__ == "__main__":
    sys.exit(run())
