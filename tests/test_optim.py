"""Optimizer semantics: descent, convergence, decay variants, divergence."""

import numpy as np
import pytest

from sevreg.errors import TrainingDivergedError
from sevreg.optim import init_optimizer, optimizer_step


def quad_grads(params):
    w = params["w"]
    return {"w": np.array([w[0], 4.0 * w[1]])}


def test_zero_gradient_no_decay_leaves_params():
    params = {"w": np.array([1.0, -2.0])}
    opt = init_optimizer(params, lr=0.1, weight_decay=0.0)
    optimizer_step(params, {"w": np.zeros(2)}, opt)
    assert np.array_equal(params["w"], [1.0, -2.0])


def test_single_step_descends():
    params = {"w": np.array([1.0])}
    opt = init_optimizer(params, lr=0.1, weight_decay=0.0)
    optimizer_step(params, {"w": np.array([1.0])}, opt)  # grad of 0.5 w^2 at w=1
    assert abs(params["w"][0]) < 1.0


def test_quadratic_converges_in_200_steps():
    params = {"w": np.array([1.0, 1.0])}
    opt = init_optimizer(params, lr=0.1, weight_decay=0.0)
    for _ in range(200):
        optimizer_step(params, quad_grads(params), opt)
    w = params["w"]
    assert 0.5 * (w[0] ** 2 + 4.0 * w[1] ** 2) < 1e-4


def test_nan_gradient_raises():
    params = {"w": np.array([1.0])}
    opt = init_optimizer(params, lr=0.1)
    with pytest.raises(TrainingDivergedError):
        optimizer_step(params, {"w": np.array([np.nan])}, opt)


def test_decoupled_decay_shrinks_without_gradient():
    params = {"w": np.array([1.0])}
    opt = init_optimizer(params, lr=0.1, weight_decay=0.5, decoupled=True)
    optimizer_step(params, {"w": np.zeros(1)}, opt)
    # pure decay: w <- w - lr * wd * w, moments stay zero
    assert abs(params["w"][0] - 0.95) < 1e-12


def test_coupled_decay_goes_through_moments():
    params = {"w": np.array([1.0])}
    opt = init_optimizer(params, lr=0.1, weight_decay=0.5, decoupled=False)
    optimizer_step(params, {"w": np.zeros(1)}, opt)
    # effective gradient is wd * w = 0.5; adam's first step has unit magnitude
    expected = 1.0 - 0.1 * 0.5 / (0.5 + opt.eps)
    assert abs(params["w"][0] - expected) < 1e-9


def test_step_counter_increases():
    params = {"w": np.zeros(3)}
    opt = init_optimizer(params, lr=0.01)
    for i in range(5):
        optimizer_step(params, {"w": np.ones(3)}, opt)
        assert opt.step == i + 1


def expression_form_step(params, grads, m, v, t, lr, wd, decoupled,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """The bias-corrected update written as plain expressions, one temporary
    per term: the reference optimizer_step must match bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        if not decoupled and wd != 0.0:
            g = g + wd * p
        mn, vn = m[name], v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * np.square(g)
        if decoupled and wd != 0.0:
            p -= lr * wd * p
        p -= lr * (mn / bc1) / (np.sqrt(vn / bc2) + eps)


@pytest.mark.parametrize("wd", [0.0, 0.01])
@pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "coupled"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matches_expression_form_bit_for_bit(dtype, decoupled, wd):
    rng = np.random.default_rng(17)
    shapes = {"layer.weight": (12, 5), "layer.bias": (12,)}
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    live = dict(params)
    opt = init_optimizer(params, lr=1e-2, weight_decay=wd, decoupled=decoupled)
    for t in range(1, 21):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        optimizer_step(params, grads, opt)
        expression_form_step(ref, grads, ref_m, ref_v, t, 1e-2, wd, decoupled)
    for k in shapes:
        assert params[k] is live[k]  # updated in place
        assert params[k].dtype == dtype and opt.m[k].dtype == dtype
        assert np.array_equal(params[k], ref[k])
        assert np.array_equal(opt.m[k], ref_m[k])
        assert np.array_equal(opt.v[k], ref_v[k])
