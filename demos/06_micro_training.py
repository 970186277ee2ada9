"""
Derivative-free training at micro scale
=======================================

Two perturbed weight vectors per iteration, evaluated in one batched
forward pass, estimate a descent direction (simultaneous perturbation); no
backpropagation through the network is needed. At the ~16k-parameter micro
scale this fits one synthetic sequence in a few seconds.
"""

import numpy as np

from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig
from kinescan.synthetic import sparse_from_pose, synthetic_pose
from kinescan.training import smoothed_trace, train_micro

config = ModelConfig(seed=0, **MICRO_CONFIG_KWARGS)
tree = default_tree()

# target motion and the tracking signal derived from it
z = synthetic_pose(seed=0, frames=config.seq_len)
x = sparse_from_pose(z, tree)

result = train_micro(config, x, z, iters=300, seed=0)
smoothed = smoothed_trace(result.trace)

print("initial loss      : %.4f" % result.initial_loss)
print("final loss        : %.4f" % result.final_loss)
print("smoothed final    : %.4f" % smoothed[-1])
print("reduction         : %.1f%%" % (100 * (1 - smoothed[-1] / result.initial_loss)))

# a coarse view of the trace, 10 buckets of 30 iterations
print("\ntrace (bucket means):")
for k, bucket in enumerate(np.split(result.trace, 10)):
    print("  iters %3d-%3d  %.4f" % (30 * k, 30 * k + 29, bucket.mean()))
