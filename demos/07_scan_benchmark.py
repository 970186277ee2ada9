"""
Why the chunked scan exists
===========================

The semiseparable matrix form costs O(T^2); the chunked scan costs
O(T * chunk) plus a carried state per chunk. Both are checked against each
other (1e-5 relative) before timing, so the table below is a comparison of
two provably identical operators.
"""

from kinescan.bench import format_bench_table, run_benchmark

result = run_benchmark()
print(format_bench_table(result), end="")

last = result.rows[-1]
print("\nat T = %d the chunked scan is %.1fx faster" % (last.seq_len, last.speedup))
