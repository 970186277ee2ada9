"""Spans around the calls into kinescan, recorded from outside the package.

``Tracer.install`` replaces every binding of the wrapped public functions
in the loaded ``kinescan.*`` modules with a timing wrapper (so calls made
through ``from .x import f`` names are seen too) and ``uninstall`` puts
the originals back. Wrappers pass arguments, results and exceptions
through unchanged. A span records (op id, span id, parent id, name, start,
end, ok, info); spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import importlib
import json
import re
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


def _kind(kind):
    return {"sparse_input": "sparse", "pose": "pose"}.get(kind, kind)


def _prefix(args, kwargs, pos=2):
    return kwargs["prefix"] if "prefix" in kwargs else args[pos]


def _load_sequence_name(args, kwargs, result):
    # named again from the result once the file is read
    return "io.load_sequence." + (_kind(result.kind) if result else "unread")


# (module, function) -> span name from (args, kwargs, result); result is
# None before the call returns. A namer of None means "count calls only".
_WRAPPED = {
    ("cli", "main"): lambda a, k, r: "cli.main",
    ("cli", "cmd_infer"): lambda a, k, r: "cli.infer",
    ("cli", "cmd_eval"): lambda a, k, r: "cli.eval",
    ("io", "load_sequence"): _load_sequence_name,
    ("io", "save_sequence"): lambda a, k, r: "io.save_sequence." + _kind(a[1].kind),
    ("io", "load_checkpoint"): lambda a, k, r: "io.load_checkpoint",
    ("io", "sequence_from_pose"): lambda a, k, r: "io.sequence_from_pose",
    ("io", "pose_from_sequence"): lambda a, k, r: "io.pose_from_sequence",
    ("io", "format_metric_report"): lambda a, k, r: "io.format_metric_report",
    ("model", "init_weights"): lambda a, k, r: "model.init_weights",
    ("model", "infer_windowed"): lambda a, k, r: "model.infer_windowed",
    ("model", "kinest_forward"): lambda a, k, r: "model.forward",
    ("model", "embed"): lambda a, k, r: "model.embed",
    ("model", "tfm_forward"): lambda a, k, r: f"model.tfm[{_prefix(a, k)}]",
    ("model", "stmm_forward"): lambda a, k, r: f"model.skfm[{_prefix(a, k)}]",
    ("model", "bi_ssd"): lambda a, k, r: f"model.bi_ssd[{_prefix(a, k)}]",
    ("model", "ssd_block"): lambda a, k, r: f"model.ssd_block[{_prefix(a, k)}]",
    ("model", "lma"): lambda a, k, r: f"model.lma[{_prefix(a, k)}]",
    ("model", "gma"): lambda a, k, r: f"model.gma[{_prefix(a, k)}]",
    ("ssd", "chunked_scan"): lambda a, k, r: "ssd.scan",  # caller prefix added below
    ("ssd", "build_decay_matrix"): None,
    ("kinematics", "reorder_joint_features"): lambda a, k, r: "kinematics.gather",
    ("kinematics", "inverse_reorder_joint_features"): lambda a, k, r: "kinematics.scatter",
    ("kinematics", "forward_kinematics"): lambda a, k, r: "kinematics.fk",
    ("rotations", "sixd_to_matrix"): lambda a, k, r: "rotations.sixd_to_matrix",
    ("rotations", "relative_rotation"): lambda a, k, r: "rotations.relative_rotation",
    ("rotations", "geodesic_angle"): lambda a, k, r: "rotations.geodesic_angle",
    ("metrics", "metrics"): lambda a, k, r: "metrics.report",
    ("metrics", "jitter"): lambda a, k, r: "metrics.jitter",
    ("training", "train_micro"): lambda a, k, r: "training.train_micro",
    ("losses", "total_loss"): lambda a, k, r: "losses.total_loss",
}

_COUNT_NAMES = {("ssd", "build_decay_matrix"): "ssd.decay_builds"}


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end, ok, info]
        self.op_counts = {}  # op id -> Counter of count-only calls
        self._stack = []
        self._counts = Counter()
        self._op = None
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _call(self, namer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [self._op, len(self.spans), parent, namer(args, kwargs, None),
                  0.0, 0.0, False, None]
        if record[3] == "ssd.scan":
            # split by the calling block's prefix (tfm0.fwd., skfm1.bwd., ...)
            caller = self.spans[parent][3] if parent is not None else ""
            record[3] += caller[caller.find("["):] if "[" in caller else "[]"
            record[7] = int(args[0].a.shape[0])
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = _clock()
        try:
            result = fn(*args, **kwargs)
            record[6] = True
            return result
        finally:
            record[5] = _clock()
            self._stack.pop()
            if record[6] and namer is _load_sequence_name:
                record[3] = namer(args, kwargs, result)

    @contextlib.contextmanager
    def op(self, op_id):
        """One op's root span; the spans made inside it share ``op_id``."""
        self._op, self._counts = op_id, Counter()
        root = [op_id, len(self.spans), None, "op", _clock(), 0.0, False, None]
        self.spans.append(root)
        self._stack.append(root[1])
        try:
            yield
            root[6] = True
        finally:
            root[5] = _clock()
            self._stack.pop()
            self.op_counts[op_id] = self._counts
            self._op = None

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kinescan" or n.startswith("kinescan.")]
        for (mod, fname), namer in _WRAPPED.items():
            original = getattr(importlib.import_module("kinescan." + mod), fname)
            if namer is None:
                wrapper = self._counter(original, _COUNT_NAMES[(mod, fname)])
            else:
                wrapper = self._spanner(original, namer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _spanner(self, fn, namer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(namer, fn, args, kwargs)
        return wrapper

    def _counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end", "ok", "info"],
                       "spans": self.spans,
                       "counts": {str(k): dict(v) for k, v in self.op_counts.items()}}, fh)


# ---------------------------------------------------------------------------
# aggregation


def _group(name):
    """'model.gma[skfm1.gma.]' -> ('model.gma', 'skfm')."""
    base, _, prefix = name.partition("[")
    match = re.match(r"[a-z]+", prefix)
    return base, match.group() if match else ""


def metric_key(name):
    """Per-layer metric a span's self time counts toward."""
    base, group = _group(name)
    if base in ("model.tfm", "model.skfm", "model.bi_ssd"):
        return f"model.{group}.self_ms"
    if base == "model.ssd_block":
        return f"model.ssd_block.{group}.self_ms"
    if base == "ssd.scan":
        return f"ssd.scan.{group}.ms"
    if base == "model.gma":
        return f"model.gma.{group}.ms"
    if base.startswith("rotations."):
        return "rotations.ms"
    return {
        "op": "op.self_ms",
        "model.forward": "model.head.self_ms",
        "model.infer_windowed": "model.infer_windowed.self_ms",
        "metrics.report": "metrics.report.self_ms",
        "training.train_micro": "training.self_ms",
        "losses.total_loss": "losses.total_loss.self_ms",
        "cli.main": "cli.main.self_ms",
        "cli.infer": "cli.infer.self_ms",
        "cli.eval": "cli.eval.self_ms",
    }.get(base, base + ".ms")


def op_summaries(tracer):
    """{op id: summary} over every op the tracer recorded."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s[0]].append(s)
    return {op: _summary(spans, tracer.op_counts.get(op, {})) for op, spans in by_op.items()}


def _summary(spans, op_counts):
    """Self times (ms) by metric key, and counts, of one op."""
    child_time = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]
    by_id = {s[1]: s for s in spans}
    self_ms = defaultdict(float)
    counts = Counter(op_counts)
    train_ms = Counter()
    mixed_len = 0
    for s in spans:
        own = (s[5] - s[4] - child_time[s[1]]) * 1e3
        if own < -1e-6:
            raise AssertionError(f"span {s[3]} has negative self time {own:.3g} ms")
        self_ms[metric_key(s[3])] += own
        base, group = _group(s[3])
        if base == "ssd.scan":
            counts["ssd.scan.calls"] += 1
            if group == "skfm":
                mixed_len = max(mixed_len, s[7])
        if base == "model.forward":
            counts["model.forward_calls"] += 1
        parent = by_id.get(s[2])
        if parent is not None and parent[3] == "training.train_micro":
            if base == "model.forward":
                counts["training.evals"] += 1
                counts["training.forward_failed"] += 0 if s[6] else 1
                train_ms["training.forward.ms"] += (s[5] - s[4]) * 1e3
            elif base == "losses.total_loss":
                train_ms["training.loss.ms"] += (s[5] - s[4]) * 1e3
    if mixed_len:
        counts["ssd.mixed_len"] = mixed_len
    return {"self_ms": dict(self_ms), "counts": dict(counts), "train_ms": dict(train_ms)}
