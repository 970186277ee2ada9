import numpy as np
import pytest

from kinescan.bench import BenchResult, BenchRow, format_bench_table, run_benchmark


class TestRows:
    def test_speedup_ratio(self):
        row = BenchRow(seq_len=256, matrix_s=0.02, chunked_s=0.005)
        assert row.speedup == pytest.approx(4.0)

    def test_loglog_slope_recovers_power_law(self):
        rows = [BenchRow(seq_len=t, matrix_s=1e-8 * t ** 2, chunked_s=1e-7 * t)
                for t in (256, 512, 1024)]
        result = BenchResult(rows=rows)
        assert result.loglog_slope("matrix_s") == pytest.approx(2.0, abs=1e-9)
        assert result.loglog_slope("chunked_s") == pytest.approx(1.0, abs=1e-9)


class TestRunBenchmark:
    def test_deterministic_instances(self):
        # the correctness gate runs on instances drawn from seed 0 at the
        # acceptance gate's five lengths; no raise
        result = run_benchmark()
        assert [r.seq_len for r in result.rows] == [256, 512, 1024, 2048, 4096]
        for r in result.rows:
            assert r.matrix_s > 0.0 and r.chunked_s > 0.0


class TestTable:
    def test_format_contains_rows_and_slopes(self):
        rows = [BenchRow(seq_len=256, matrix_s=0.01, chunked_s=0.002),
                BenchRow(seq_len=512, matrix_s=0.04, chunked_s=0.004)]
        text = format_bench_table(BenchResult(rows=rows))
        assert "256" in text and "512" in text
        assert "log-log slopes" in text
