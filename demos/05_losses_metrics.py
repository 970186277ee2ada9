"""
Losses with an analytic gradient, and the evaluation metrics
============================================================

Training minimizes a fixed weighted sum of a raw rotation term, a root
orientation term, and a geometric angular-velocity term, weighted
1 : 0.02 : 1. The gradient of
that sum is derived analytically through Gram-Schmidt and the SO(3) log
map; here we confirm it against central finite differences on one
component. Evaluation reports rotation error in degrees and positional
errors in centimeters.
"""

import numpy as np

from kinescan.kinematics import default_tree
from kinescan.losses import (
    grad_total_loss,
    loss_angvel_geo,
    loss_ori,
    loss_rot,
    total_loss,
)
from kinescan.metrics import metrics
from kinescan.io import format_metric_report
from kinescan.synthetic import synthetic_pose

tree = default_tree()
z = synthetic_pose(seed=0, frames=12)
y = synthetic_pose(seed=1, frames=12)

print("loss_rot        :", loss_rot(y, z))
print("loss_ori        :", loss_ori(y, z))
print("loss_angvel_geo :", loss_angvel_geo(y, z))
total = total_loss(y, z)
recomposed = (1.0 * loss_rot(y, z) + 0.02 * loss_ori(y, z)
              + 1.0 * loss_angvel_geo(y, z))
print("total           :", total, " (recomposition gap %.1e)"
      % abs(total - recomposed))

# check one gradient component against a central difference
g = grad_total_loss(y, z)
h = 1e-5
yp, ym = y.copy(), y.copy()
yp[5, 3, 2] += h
ym[5, 3, 2] -= h
fd = (total_loss(yp, z) - total_loss(ym, z)) / (2 * h)
print("\nanalytic grad[5,3,2] = %.8f   finite difference = %.8f" % (g[5, 3, 2], fd))

# the metric report on the same pair
print("\n" + format_metric_report(metrics(y, z, tree, fps=60.0)))
