"""
One scan, three realizations
============================

A diagonal linear state-space layer can be evaluated three ways: as a
step-by-step recurrence, as one multiplication by a lower-triangular
semiseparable matrix, or chunk by chunk with a carried state. They are the
same operator, so the outputs must agree to float precision.
"""

import numpy as np

from kinescan.ssd import (
    SsdParams,
    build_decay_matrix,
    chunked_scan,
    ssd_matrix_form,
    ssm_recurrence,
)

rng = np.random.Generator(np.random.PCG64(0))

# a small instance: 48 steps, 6-dim state, 3 output channels
T, N, P = 48, 6, 3
params = SsdParams(
    a=rng.uniform(0.0, 1.0, size=T),
    b=rng.standard_normal((T, N)),
    c=rng.standard_normal((T, N)),
    x=rng.standard_normal((T, P)),
)

y_rec = ssm_recurrence(params)
y_mat = ssd_matrix_form(params)
y_chunk = chunked_scan(params, chunk=7)

print("recurrence vs matrix form :", np.abs(y_rec - y_mat).max())
print("recurrence vs chunked scan:", np.abs(y_rec - y_chunk).max())

# the decay matrix makes the duality visible: entry (j, i) is the product
# of the decays a_{i+1} ... a_j that an input at step i picks up by step j
f = build_decay_matrix(np.array([0.9, 0.7, 0.4]))
print("\ndecay matrix for a = [0.9, 0.7, 0.4]:")
print(f)

# the model's decay is a zero-order hold with A = -1 and step
# dt = softplus(raw): a_t = exp(-dt) lies in (0, 1) for any raw input
raw = np.array([-4.0, 0.0, 4.0])
print("\ndecays for raw = [-4, 0, 4]:", np.exp(-np.logaddexp(0.0, raw)))
