"""Timing comparison of the quadratic matrix realization against the
chunked scan, with a correctness gate before every timing run."""

import time
from dataclasses import dataclass

import numpy as np

from .ssd import SsdParams, chunked_scan, ssd_matrix_form

__all__ = ["BenchRow", "BenchResult", "run_benchmark", "format_bench_table"]

@dataclass(frozen=True)
class BenchRow:
    seq_len: int
    matrix_s: float
    chunked_s: float

    @property
    def speedup(self) -> float:
        return self.matrix_s / self.chunked_s


@dataclass(frozen=True)
class BenchResult:
    rows: list

    def loglog_slope(self, which: str) -> float:
        """Least-squares slope of log(time) vs log(T); ~2 for the matrix
        form, ~1 for the chunked scan."""
        t = np.log([r.seq_len for r in self.rows])
        y = np.log([getattr(r, which) for r in self.rows])
        return float(np.polyfit(t, y, 1)[0])


def _median_time(fn):
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def run_benchmark() -> BenchResult:
    """Median of 3 timings of both realizations at T = 256, 512, 1024, 2048
    and 4096, on instances with state size N = 8 and P = 4 channels drawn
    from seed 0, with the chunked scan at its own default chunk.

    Outputs are compared within 1e-5 relative before any timing; a
    disagreement raises instead of producing a table.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    rows = []
    for seq_len in (256, 512, 1024, 2048, 4096):
        params = SsdParams(a=rng.uniform(0.7, 1.0, size=seq_len),
                           b=rng.standard_normal((seq_len, 8)),
                           c=rng.standard_normal((seq_len, 8)),
                           x=rng.standard_normal((seq_len, 4)))
        y_mat = ssd_matrix_form(params)
        y_chunk = chunked_scan(params)
        err = np.abs(y_mat - y_chunk).max() / max(np.abs(y_mat).max(), 1e-30)
        if err > 1e-5:
            raise AssertionError(
                f"realizations disagree at T={seq_len}: relative error {err:.3g}"
            )
        rows.append(BenchRow(seq_len, _median_time(lambda: ssd_matrix_form(params)),
                             _median_time(lambda: chunked_scan(params))))
    return BenchResult(rows=rows)


def format_bench_table(result: BenchResult) -> str:
    lines = [f"{'T':>6}  {'matrix [ms]':>12}  {'chunked [ms]':>12}  {'speedup':>8}"]
    for r in result.rows:
        lines.append(
            f"{r.seq_len:>6}  {r.matrix_s * 1e3:>12.3f}  "
            f"{r.chunked_s * 1e3:>12.3f}  {r.speedup:>8.1f}"
        )
    lines.append(
        f"log-log slopes: matrix {result.loglog_slope('matrix_s'):.2f}, "
        f"chunked {result.loglog_slope('chunked_s'):.2f}"
    )
    return "\n".join(lines) + "\n"
