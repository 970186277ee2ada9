"""The benchmark in ``perfbench/`` drives the package through fixed names: it
wraps public functions by (module, name) and reads ``prefix`` as their third
positional argument, re-derives the forward pass from the weight names, and
builds its workloads through ``ModelConfig`` and ``train_micro``. These tests
import perfbench's modules as its runner does and change nothing there, so a
renamed function or weight, or an output drift, fails here instead of failing
a benchmark run."""

import importlib
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

from kinescan import model, training
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("spans", "reference", "workloads", "launcher", "run")


@pytest.fixture(scope="module")
def bench():
    """perfbench's spans, reference, workloads and run modules, imported with
    their directory first on sys.path as ``perfbench/run.py`` has it, and
    without writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield {name: importlib.import_module(name) for name in _MODULES}
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
        for name in _MODULES:
            sys.modules.pop(name, None)


def _window(bench, config):
    return bench["workloads"].recording(1, config.seq_len)[1]


def test_wrapped_functions_resolve(bench):
    for module, name in bench["spans"]._WRAPPED:
        fn = getattr(importlib.import_module("kinescan." + module), name, None)
        assert callable(fn), f"kinescan.{module}.{name} is gone"


@pytest.mark.parametrize("scan", ["index", "fks", "uks"])
def test_traced_forward_yields_every_span_metric(bench, scan):
    # a per-layer metric no span measures makes ``run.py --trace 1`` exit 1;
    # the setup, kernel and overhead rows are measured outside the spans
    config = ModelConfig(scan_strategy=scan, seed=0, **MICRO_CONFIG_KWARGS)
    weights = init_weights(config)
    x = _window(bench, config)
    tracer = bench["spans"].Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            model.kinest_forward(x, config, weights)
    finally:
        tracer.uninstall()
    summary = bench["spans"].op_summaries(tracer)[0]
    measured = {*summary["self_ms"], *summary["counts"], *summary["train_ms"]}
    wanted = {key for key in bench["run"].PER_LAYER
              if not key.startswith(("setup.", "ssd.kernel.", "trace."))}
    assert "kinematics.gather.ms" in wanted and "kinematics.scatter.ms" in wanted
    assert wanted <= measured, sorted(wanted - measured)


def test_full_scale_trace_stays_on_the_calling_thread(bench, monkeypatch):
    # the micro configs above never reach the split blocks, which run the
    # long mixed axis, the GMAs and the SKFM lift and projection on two
    # threads; the one span stack stays whole only while every wrapped call
    # runs on the calling thread
    threads = []

    class ThreadTracer(bench["spans"].Tracer):
        def _call(self, namer, fn, args, kwargs):
            threads.append(threading.get_ident())
            return super()._call(namer, fn, args, kwargs)

        def _counter(self, fn, name):
            count = super()._counter(fn, name)

            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return count(*args, **kwargs)
            return wrapper

    monkeypatch.setattr(model, "_cpu_count", lambda: 2)
    wanted = {key for key in bench["run"].PER_LAYER
              if not key.startswith(("setup.", "ssd.kernel.", "trace."))}
    # scan calls, decay builds and mixed-axis length per strategy
    for scan, counts in (("fks", (8, 8, 3072)), ("uks", (8, 8, 2112))):
        threads.clear()
        config = ModelConfig(scan_strategy=scan, seed=0)
        weights = init_weights(config)
        x = _window(bench, config)
        tracer = ThreadTracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.op(0):
                model.kinest_forward(x, config, weights)
            wall_ms = (time.perf_counter() - t0) * 1e3
        finally:
            tracer.uninstall()
        assert len(threads) > 0 and set(threads) == {threading.get_ident()}, scan
        summary = bench["spans"].op_summaries(tracer)[0]  # refuses a negative self time
        measured = {*summary["self_ms"], *summary["counts"], *summary["train_ms"]}
        assert wanted <= measured, sorted(wanted - measured)
        assert min(summary["self_ms"].values()) >= 0.0
        total = sum(summary["self_ms"].values())
        assert abs(total - wall_ms) <= bench["run"].SELF_TIME_TOL * wall_ms, scan
        assert (summary["counts"]["ssd.scan.calls"], summary["counts"]["ssd.decay_builds"],
                summary["counts"]["ssd.mixed_len"]) == counts


def test_traced_forward_names_each_layer(bench):
    config = ModelConfig(seed=0, **MICRO_CONFIG_KWARGS)
    weights = init_weights(config)
    x = _window(bench, config)
    plain = model.kinest_forward(x, config, weights)
    tracer = bench["spans"].Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            traced = model.kinest_forward(x, config, weights)
    finally:
        tracer.uninstall()
    assert np.array_equal(traced, plain)
    names = {span[3] for span in tracer.spans}
    assert {"model.forward", "model.embed", "model.tfm[tfm0.]", "model.skfm[skfm0.]",
            "model.ssd_block[skfm0.bwd.]", "ssd.scan[skfm0.bwd.]",
            "kinematics.gather", "kinematics.scatter"} <= names
    assert all(span[6] for span in tracer.spans)  # every span returned


@pytest.mark.parametrize("scan, kwargs", [
    ("fks", {}),
    ("uks", {}),
    ("uks", MICRO_CONFIG_KWARGS),
], ids=["full-fks", "full-uks", "micro-uks"])
def test_reference_forward_agrees(bench, scan, kwargs):
    ref = bench["reference"]
    config = ModelConfig(scan_strategy=scan, seed=1, **kwargs)
    weights = init_weights(config)
    x = _window(bench, config)
    got = model.kinest_forward(x, config, weights)
    assert ref.check_pose(got, config.seq_len) is None
    want = ref.forward(x, weights, scan, heads=config.gma_heads)
    assert ref.check_window(got, want, scan) is None


def test_workload_calls_construct_and_run(bench, tmp_path):
    workloads = bench["workloads"]
    train = workloads.TrainMicro(1, str(tmp_path))
    train.setup()
    result = train.op(0)
    assert result.fail is None
    assert result.value.trace.shape == (train.iters,)
    # the full-scale workloads' configs, through their timing controls
    for cls, scan in ((workloads.StreamFks, "fks"), (workloads.OfflineUks, "uks")):
        workload = cls(1, str(tmp_path))
        workload.setup_control(scan_strategy=scan)
        workload.control()


@pytest.mark.parametrize("seed", [1, 11])
def test_cli_sparse_input_is_the_benchmark_recording(bench, seed):
    # gen-synthetic's two kinds at one seed are the pair a benchmark op runs
    from kinescan.synthetic import gen_synthetic

    gt, x = bench["workloads"].recording(seed, 1920)
    assert np.array_equal(gen_synthetic(seed, 1920, "pose").data, gt.data)
    assert gen_synthetic(seed, 1920, "sparse_input").data.tobytes() == x.tobytes()


def test_traced_training_times_the_loss(bench):
    # a train_micro that stops calling the public total_loss drops
    # training.loss.ms from the benchmark's train-micro trace
    config = ModelConfig(seed=0, **MICRO_CONFIG_KWARGS)
    gt, x = bench["workloads"].recording(1, config.seq_len)
    z = gt.data.reshape(-1, 22, 6).astype(np.float64)
    tracer = bench["spans"].Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            training.train_micro(config, x, z, iters=2, seed=0)
    finally:
        tracer.uninstall()
    by_id = {span[1]: span for span in tracer.spans}
    loss_parents = [by_id[span[2]][3] for span in tracer.spans
                    if span[3] == "losses.total_loss"]
    # one unbatched call at each end, one batched call per iteration
    assert loss_parents == ["training.train_micro"] * 4
    summary = bench["spans"].op_summaries(tracer)[0]
    assert summary["train_ms"]["training.loss.ms"] > 0.0
    assert summary["counts"]["training.evals"] == 4
