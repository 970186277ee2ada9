"""Shows that every per-op correctness check passes on real output and
trips when its reference is perturbed.

    python3 perfbench/selfcheck.py [--seed N]

Runs one op of each workload in-process through the same ``check`` the
benchmark uses, then perturbs the reference (or the output) and checks
again. Exits 0 when every unperturbed check passes and every perturbed
one fails.
"""

import argparse
import copy
import os
import shutil
import sys
import tempfile

from run import SRC, WORK

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import kernels  # noqa: E402
import reference as ref  # noqa: E402
from workloads import OfflineUks, StreamFks, TrainMicro  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK)
    cases = []

    def case(label, workload, result, expect_pass, i=0):
        fail = workload.check(i, result)
        ok = (fail is None) == expect_pass
        cases.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} {label}: {'passes' if fail is None else fail}")

    try:
        off = OfflineUks(args.seed, work)
        off.setup()
        result = off.run(0)
        case("offline-uks output", off, result, True)
        saved = copy.deepcopy(off.ref_windows)
        for k in off.sampled:
            off.ref_windows[k] = saved[k] * np.float32(1.001)
            case(f"offline-uks, reference window {k} scaled by 1.001", off, result, False)
            off.ref_windows[k] = saved[k]
        digest, report = next(iter(off.ref_reports.items()))
        for key in ("mpjre_deg", "mpjpe_cm", "jitter_pred"):
            off.ref_reports[digest] = dict(report, **{key: report[key] * (1 + 1e-5)})
            case(f"offline-uks, reference report {key} scaled by 1+1e-5", off, result, False)
        off.ref_reports[digest] = report

        stream = StreamFks(args.seed, work)
        stream.setup()
        result = stream.run(0)
        case("stream-fks window 0", stream, result, True)
        good = stream.ref_windows[0]
        stream.ref_windows[0] = good + np.float32(2 * ref.WINDOW_ATOL)
        case(f"stream-fks, reference window 0 shifted by {2 * ref.WINDOW_ATOL:g}",
             stream, result, False)
        stream.ref_windows[0] = good
        bad = result.value.copy()
        bad[5, 3] = np.nan
        case("stream-fks, one output NaN", stream, type(result)(0.0, value=bad), False)
        bad = result.value.copy()
        bad[7, 2, 0:3] = 0.0
        case("stream-fks, one degenerate 6D output", stream, type(result)(0.0, value=bad), False)
        case("stream-fks, a frame missing", stream, type(result)(0.0, value=result.value[1:]),
             False)

        train = TrainMicro(args.seed, work)
        train.setup()
        result = train.run(0)
        case("train-micro op", train, result, True)
        r = result.value
        flat = type(result)(0.0, value=type(r)(r.weights, r.trace, r.initial_loss, r.initial_loss))
        case("train-micro, final loss equal to initial", train, flat, False)

        from kinescan import ssd

        rows, fails = kernels.kernel_rows(args.seed, budget_s=0.0, min_reps=1)
        ok = not fails and len(rows) == 3 * len(kernels.SHAPES)
        cases.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} kernel rows against ssm_recurrence: "
              f"{'pass' if not fails else fails}")
        chunked_scan = ssd.chunked_scan
        ssd.chunked_scan = lambda params, chunk: chunked_scan(params, chunk) * (1 + 2e-5)
        try:
            _, fails = kernels.kernel_rows(args.seed, budget_s=0.0, min_reps=1)
        finally:
            ssd.chunked_scan = chunked_scan
        ok = len(fails) == len(kernels.SHAPES)
        cases.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} kernel rows, scan output scaled by 1+2e-5: "
              f"{len(fails)} of {len(kernels.SHAPES)} rows fail")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(cases)}/{len(cases)} cases as expected")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
