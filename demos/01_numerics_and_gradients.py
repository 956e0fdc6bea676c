"""Tour of the numerics core: layers, pooling, Huber, Adam, gradient checks.

Run from the repository root:

    python3 demos/01_numerics_and_gradients.py
"""

import numpy as np

from sevreg.gradcheck import finite_diff_check
from sevreg.nn import (
    LayerParams,
    Stack,
    backward_batch,
    build_net,
    forward_batch,
    huber_loss,
    huber_loss_batch,
    linear_forward,
    stats_pool,
)
from sevreg.optim import init_optimizer, optimizer_step

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# Forward passes on a toy sequence
# ---------------------------------------------------------------------------
print("== layers ==")
x = rng.standard_normal((4, 3))
layer = LayerParams(rng.standard_normal((2, 3)), np.zeros(2))
print("linear output shape:", linear_forward(layer, x).shape)

pooled = stats_pool(x)
print("stats_pool doubles the dimension:", x.shape[1], "->", pooled.shape[0])
print("  mean half:", np.round(pooled[:3], 3))
print("  std  half:", np.round(pooled[3:], 3))

for error in (0.0, 0.25, 2.0):
    value, grad = huber_loss(error, 0.0, 0.5)
    print(f"huber(e={error:4}): value={value:.5f} grad={grad:+.2f}")

# ---------------------------------------------------------------------------
# The adaptor network: two linear layers, ReLU/dropout, pooling, linear head
# ---------------------------------------------------------------------------
print("\n== adaptor network ==")
net = build_net(feat_dim=3, seed_or_rng=1, hidden_dim=16, out_dim=1)
# A batch is one Stack: every sequence's rows stacked, split at its offsets.
lengths = (5, 9, 7)
seqs = Stack(rng.standard_normal((sum(lengths), 3)), np.cumsum([0, *lengths]))
cache = forward_batch(net, seqs)
print("three sequences of different lengths -> predictions", cache.out.ravel())

# ---------------------------------------------------------------------------
# Train the toy net against random targets with AdamW
# ---------------------------------------------------------------------------
print("\n== optimizing ==")
targets = np.array([2.0, 5.0, 3.5])
# All parameters of a net live in one flat array, and backward_batch returns
# the gradient in the same layout, so the optimizer steps a single array.
params = {"net": net.flat}
opt = init_optimizer(params, lr=0.01, weight_decay=0.01, decoupled=True)
for step in range(200):
    cache = forward_batch(net, seqs)
    loss, dpred = huber_loss_batch(cache.out[:, 0], targets, 0.5)
    optimizer_step(params, {"net": backward_batch(net, cache, dpred[:, None])}, opt)
    if step % 50 == 0 or step == 199:
        print(f"step {step:3d}: huber loss {loss:.6f}")

# ---------------------------------------------------------------------------
# Check the analytic gradients with central finite differences
# ---------------------------------------------------------------------------
print("\n== gradient check ==")


def loss_fn(flat):
    net.flat[...] = flat
    cache = forward_batch(net, seqs)
    value, dpred = huber_loss_batch(cache.out[:, 0], targets, 0.5)
    return value, backward_batch(net, cache, dpred[:, None])


report = finite_diff_check(loss_fn, net.flat.copy(), eps=1e-5)
print(f"max relative error over {report.n_params} parameters: {report.max_rel_err:.2e}")
print("passed at rtol 1e-4:", report.passed)
