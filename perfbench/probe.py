"""Set-up probe, run as a fresh interpreter: import the CLI, build the
default full-scale weights and load a checkpoint, as every ``kinescan
infer`` does before its first frame. Prints the split as one JSON line.

Usage: python3 perfbench/probe.py CHECKPOINT
"""

import json
import sys
import time

t0 = time.perf_counter()
import kinescan.cli  # noqa: E402,F401
from kinescan.io import load_checkpoint  # noqa: E402
from kinescan.model import ModelConfig, init_weights  # noqa: E402

t1 = time.perf_counter()
init_weights(ModelConfig())
t2 = time.perf_counter()
load_checkpoint(sys.argv[1])
t3 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "init_weights_ms": (t2 - t1) * 1e3,
                  "load_checkpoint_ms": (t3 - t2) * 1e3}))
