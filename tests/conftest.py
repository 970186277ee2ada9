import numpy as np
import pytest

from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def rng():
    return make_rng(0)


@pytest.fixture(scope="session")
def tree():
    return default_tree()


@pytest.fixture
def micro_config():
    return ModelConfig(seed=0, **MICRO_CONFIG_KWARGS)


# the micro configuration as run-config text: one line per ModelConfig field
MICRO_CONFIG_TEXT = """\
n_tfm=1
m_skfm=1
embed_dim=16
joint_dim=4
seq_len=24
gma_hidden=32
gma_heads=2
ssd_state=4
conv_width=2
scan_strategy=uks
seed=0
"""
