import ctypes
import glob
import os

import numpy as np
import pytest

from kinescan import model
from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig


def openblas():
    """(build, kernel family, thread count) of the OpenBLAS numpy loaded,
    e.g. ("OpenBLAS 0.3.31 ... SkylakeX MAX_THREADS=64", "SkylakeX", 2);
    None where its symbols are absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the library numpy already loaded
            get_config = lib.scipy_openblas_get_config64_
            get_corename = lib.scipy_openblas_get_corename64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_config.restype = get_corename.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        return get_config().decode().strip(), get_corename().decode(), get_threads()
    return None


def pytest_report_header(config):
    """The OpenBLAS build, kernel family and thread count numpy loaded, so
    that a golden failure can be read against the kernels that produced
    it, and whether the model may split its blocks across two threads."""
    found = openblas()
    blas = (f"openblas: {found[0]}; kernels: {found[1]}; threads: {found[2]}" if found
            else "openblas: unknown")
    return f"{blas}; model split: {'yes' if model._cpu_count() > 1 else 'no'}"


class ByThreads(dict):
    """A kernel family's golden values keyed by the OpenBLAS thread count:
    on that family the bits also follow the thread count."""


def golden(table):
    """``table[family]`` for the OpenBLAS kernel family numpy loaded, taken
    at its thread count where that is a ``ByThreads``: golden values hold
    bit for bit on the family (and thread count) they were measured on.
    Fails, naming the family and the measured ones, where none were
    measured."""
    found = openblas() or ("", "unknown")
    family = found[1]
    if family not in table:
        pytest.fail(f"no golden values measured for OpenBLAS kernels {family!r}; "
                    f"measured: {', '.join(table)}")
    values = table[family]
    if isinstance(values, ByThreads):
        if found[2] not in values:
            pytest.fail(f"no golden values measured for OpenBLAS kernels {family!r} "
                        f"at {found[2]} threads; measured: {', '.join(map(str, values))}")
        values = values[found[2]]
    return values


def sgemm_rows_independent():
    """Whether the BLAS numpy loaded gives each row of a float32 matmul the
    same bits whatever other rows share the call. The SkylakeX kernels do;
    the Haswell ones do not: there a row's last bits move with the call's
    row count and BLAS thread count, at the parent of the row split too."""
    rng = make_rng(0)
    z = rng.standard_normal((3072, 64)).astype(np.float32)
    w = rng.standard_normal((64, 96)).astype(np.float32)
    full = z @ w
    return all(np.array_equal(z[lo:hi] @ w, full[lo:hi])
               for lo, hi in ((0, 512), (512, 1024), (1024, 2049), (1536, 3072)))


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
