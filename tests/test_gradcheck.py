"""Analytic gradients vs central finite differences, case by case."""

import numpy as np
import pytest

import gradcheck_cases as cases
from sevreg.gradcheck import finite_diff_check


@pytest.mark.parametrize("name,builder,rtol", cases.GRADIENT_SUITE, ids=[c[0] for c in cases.GRADIENT_SUITE])
def test_case_passes(name, builder, rtol):
    rng = np.random.default_rng(42)
    for _ in range(3):
        loss_fn, params = builder(rng)
        report = finite_diff_check(loss_fn, params, eps=1e-5, rtol=rtol)
        assert report.passed, f"{name}: max rel err {report.max_rel_err:.3e}"


def test_linear_huber_tight():
    rng = np.random.default_rng(0)
    loss_fn, params = cases.linear_huber_case(rng)
    report = finite_diff_check(loss_fn, params, eps=1e-5, rtol=1e-4)
    assert report.max_rel_err < 1e-4


def test_stats_pool_plus_sum_tight():
    rng = np.random.default_rng(1)
    loss_fn, params = cases.stats_pool_case(rng)
    report = finite_diff_check(loss_fn, params, eps=1e-5, rtol=1e-4)
    assert report.max_rel_err < 1e-4


def test_full_stage2_loss_batch_of_4():
    rng = np.random.default_rng(2)
    loss_fn, params = cases.stage2_full_case(rng)
    report = finite_diff_check(loss_fn, params, eps=1e-5, rtol=1e-3)
    assert report.max_rel_err < 1e-3


def test_detects_wrong_gradient():
    def loss_fn(flat):
        return float(flat[0] ** 2), np.array([3.0 * flat[0]])  # wrong slope

    report = finite_diff_check(loss_fn, np.array([1.0]), eps=1e-5, rtol=1e-4)
    assert not report.passed

