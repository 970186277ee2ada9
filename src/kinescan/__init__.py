"""Kinematic-tree-guided state-space sequence kernels for sparse-input
full-body pose estimation: SSD scan realizations, SO(3)/6D rotation tools,
the SMPL-22 skeleton with its scan orders, the full network forward pass,
training losses with analytic gradients, and motion metrics."""

from .bench import run_benchmark
from .io import (
    Sequence,
    load_checkpoint,
    load_run_config,
    load_sequence,
    save_checkpoint,
    save_sequence,
)
from .kinematics import (
    SCAN_ORDERS,
    KinematicTree,
    default_tree,
    forward_kinematics,
    reorder_joint_features,
)
from .losses import (
    angular_velocity,
    grad_total_loss,
    loss_angvel_geo,
    loss_ori,
    loss_rot,
    total_loss,
)
from .metrics import MetricReport, jitter, metrics
from .model import (
    ModelConfig,
    bi_ssd,
    embed,
    gma,
    infer_windowed,
    init_weights,
    kinest_forward,
    lma,
    parameter_count,
    ssd_block,
    stmm_forward,
    tfm_forward,
)
from .rotations import (
    DegenerateRotationError,
    exp_map,
    geodesic_angle,
    matrix_to_log,
    matrix_to_sixd,
    relative_rotation,
    sixd_to_matrix,
)
from .ssd import (
    SsdParams,
    build_decay_matrix,
    chunked_scan,
    ssd_matrix_form,
    ssm_recurrence,
)
from .synthetic import gen_synthetic, sparse_from_pose, synthetic_pose
from .training import train_micro
from .verify import run_all

__version__ = "0.1.0"
