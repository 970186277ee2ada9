"""Kinematic-tree-guided state-space sequence kernels for sparse-input
full-body pose estimation: SSD scan realizations, SO(3)/6D rotation tools,
the SMPL-22 skeleton with its scan orders, the full network forward pass,
training losses with analytic gradients, and motion metrics.

Import what you use from its submodule (``from kinescan.model import
kinest_forward``); the package itself imports none of them, so a process
loads only the modules it uses."""

__version__ = "0.1.0"
