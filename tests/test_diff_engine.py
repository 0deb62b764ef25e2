"""Derivative engine certificates: hand oracles, calculus laws, FD agreement.

The chain/product-rule tests are the "engine certificate": second-order
propagation through composites must agree exactly with the assembled
calculus, not just to truncation error.
"""

import dataclasses
import importlib
from functools import partial
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equichk
from equichk import diff_engine as de
from equichk.diff_engine import fd_oracle, jacobian, second_derivative
from equichk import identity_checker as ic
from equichk.errors import IndexOutOfRange, InvalidParams
from equichk.identity_checker import default_suite
from equichk.models import ModelSpec, build_model, forward, make_loss
from equichk.tensor_core import compose

EXACT = "exact"
FD = "finite_difference"


# ---------------------------------------------------------------------------
# hand-derived oracles
# ---------------------------------------------------------------------------

def _scalar_map(theta):
    # f(a, b, c) = exp(a) * b + tanh(c); gradient and Hessian by hand below
    a = de.take_last(theta, slice(0, 1))
    b = de.take_last(theta, slice(1, 2))
    c = de.take_last(theta, slice(2, 3))
    return de.exp(a) * b + de.tanh(c)


def test_jacobian_hand_oracle():
    point = np.array([0.3, -1.2, 0.5])
    jac = jacobian(_scalar_map, point, EXACT)
    a, b, c = point
    expect = np.array([np.exp(a) * b, np.exp(a), 1.0 / np.cosh(c) ** 2])
    np.testing.assert_allclose(jac.reshape(-1), expect, rtol=1e-15, atol=0)


def test_second_derivative_hand_oracle():
    point = np.array([0.3, -1.2, 0.5])
    hess = second_derivative(_scalar_map, point, EXACT)
    a, b, c = point
    t = np.tanh(c)
    expect = np.zeros((3, 3))
    expect[0, 0] = np.exp(a) * b
    expect[0, 1] = expect[1, 0] = np.exp(a)
    expect[2, 2] = -2.0 * t * (1.0 - t * t)
    np.testing.assert_allclose(hess.reshape(3, 3), expect, rtol=1e-14, atol=1e-16)


def test_vector_map_jacobian_shape_and_values():
    w = np.array([[1.0, 2.0], [-0.5, 0.25], [3.0, -1.0]])
    jac = jacobian(lambda th: de.matvec(w, th), np.array([0.7, -0.3]), EXACT)
    # stored layout: (input axis, output axis) = w^T
    np.testing.assert_allclose(jac, w.T, atol=1e-15)


# ---------------------------------------------------------------------------
# calculus laws (engine certificate)
# ---------------------------------------------------------------------------

def _poly(theta):
    a = de.take_last(theta, slice(0, 1))
    b = de.take_last(theta, slice(1, 2))
    return a * a * b + b


def _smooth(theta):
    a = de.take_last(theta, slice(0, 1))
    b = de.take_last(theta, slice(1, 2))
    return de.exp(a * b) + de.log(a * a + b * b + de.expand_last(de.dot(theta, np.zeros(2))) + 2.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_product_rule_first_and_second_order(seed):
    rng = np.random.default_rng(seed)
    point = rng.uniform(-1.0, 1.0, size=2)

    prod = lambda th: _poly(th) * _smooth(th)
    jac = jacobian(prod, point, EXACT).reshape(-1)
    f = np.asarray(_poly(point)).reshape(())
    g = np.asarray(_smooth(point)).reshape(())
    jf = jacobian(_poly, point, EXACT).reshape(-1)
    jg = jacobian(_smooth, point, EXACT).reshape(-1)
    np.testing.assert_allclose(jac, jf * g + f * jg, rtol=1e-13, atol=1e-14)

    hess = second_derivative(prod, point, EXACT).reshape(2, 2)
    hf = second_derivative(_poly, point, EXACT).reshape(2, 2)
    hg = second_derivative(_smooth, point, EXACT).reshape(2, 2)
    assembled = hf * g + np.outer(jf, jg) + np.outer(jg, jf) + f * hg
    np.testing.assert_allclose(hess, assembled, rtol=1e-12, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_chain_rule_through_model_and_loss(seed):
    """jac(loss o f) must equal compose(loss', jac f) exactly."""
    rng = np.random.default_rng(seed)
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=1))
    loss = make_loss("square", target=np.array([0.1, -0.2]))
    theta = rng.uniform(-1.0, 1.0, size=model.d)

    composite = lambda th: loss.apply(model.func(th))
    jac_full = jacobian(composite, theta, EXACT).reshape(-1)
    jac_f = jacobian(model.func, theta, EXACT)             # (d, c)
    y = np.asarray(model.func(theta), dtype=float)
    gl = loss.grad(y)                                      # (c,)
    assembled = jac_f @ gl
    np.testing.assert_allclose(jac_full, assembled, rtol=1e-13, atol=1e-15)


def test_second_derivative_symmetry():
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=9))
    theta = np.random.default_rng(4).uniform(-1.0, 1.0, size=model.d)
    hess = second_derivative(model.func, theta, EXACT)
    np.testing.assert_allclose(hess, np.swapaxes(hess, 0, 1), atol=0)


# ---------------------------------------------------------------------------
# every generic helper on plain arrays and on hyper-duals
# ---------------------------------------------------------------------------

_M = np.array([[0.5, -1.0, 2.0, 0.25], [1.5, 0.0, -0.75, 1.0]])
_W = np.array([0.5, -2.0, 1.25, 3.0])


def _linear(v, u, w):
    return 0.0


def _reshape_tail(x):
    """The last axis of ``x`` as (2, 2), mapped over the value and every slot
    (the way ``models._unpack`` shapes a matrix block)."""
    return de._each(x, lambda c: np.asarray(c).reshape(np.shape(c)[:-1] + (2, 2)))


# name: (map, its numpy expression, Df(v)[u], D^2 f(v)[u, w])
HELPERS = {
    "exp": (de.exp, np.exp, lambda v, u: np.exp(v) * u, lambda v, u, w: np.exp(v) * u * w),
    "log": (de.log, np.log, lambda v, u: u / v, lambda v, u, w: -u * w / v ** 2),
    "log1p": (de.log1p, np.log1p, lambda v, u: u / (1.0 + v),
              lambda v, u, w: -u * w / (1.0 + v) ** 2),
    "tanh": (de.tanh, np.tanh, lambda v, u: u / np.cosh(v) ** 2,
             lambda v, u, w: -2.0 * np.tanh(v) / np.cosh(v) ** 2 * u * w),
    "relu": (lambda x: de.relu(x - 1.0), lambda v: np.maximum(v - 1.0, 0.0),
             lambda v, u: (v > 1.0) * u, _linear),
    "matvec": (lambda x: de.matvec(_M, x), lambda v: _M @ v, lambda v, u: _M @ u, _linear),
    "dot": (lambda x: de.dot(x, x), lambda v: v @ v, lambda v, u: 2.0 * v @ u,
            lambda v, u, w: 2.0 * u @ w),
    "sum_last": (de.sum_last, lambda v: v.sum(axis=-1), lambda v, u: u.sum(axis=-1), _linear),
    "expand_last": (de.expand_last, lambda v: v[:, None], lambda v, u: u[:, None], _linear),
    "take_last": (lambda x: de.take_last(x, slice(1, 3)), lambda v: v[1:3],
                  lambda v, u: u[1:3], _linear),
    "reshape_tail": (_reshape_tail, lambda v: v.reshape(2, 2),
                     lambda v, u: u.reshape(2, 2), _linear),
    "add": (lambda x: x + x + 0.5, lambda v: v + v + 0.5, lambda v, u: 2.0 * u, _linear),
    "sub": (lambda x: x - x * x - 0.5, lambda v: v - v * v - 0.5,
            lambda v, u: u - 2.0 * v * u, lambda v, u, w: -2.0 * u * w),
    "neg": (lambda x: -x, lambda v: -v, lambda v, u: -u, _linear),
    "mul": (lambda x: 3.0 * x * x, lambda v: 3.0 * v * v, lambda v, u: 6.0 * v * u,
            lambda v, u, w: 6.0 * u * w),
    "mul_plain_array": (lambda x: x * _W, lambda v: v * _W, lambda v, u: u * _W, _linear),
    "matvec_weights": (lambda x: de.matvec(_reshape_tail(x), _W[:2]),
                       lambda v: v.reshape(2, 2) @ _W[:2], lambda v, u: u.reshape(2, 2) @ _W[:2],
                       _linear),
    "getitem": (lambda x: x[1:3], lambda v: v[1:3], lambda v, u: u[1:3], _linear),
}


def _is_absent(slot):
    return slot is None


@pytest.mark.parametrize("name", HELPERS)
def test_generic_helpers_on_arrays_and_hyper_duals(name):
    fn, numpy_expr, first, second = HELPERS[name]
    v = np.array([0.3, 0.7, 1.4, 1.9])
    u = np.array([1.0, -0.5, 0.25, 2.0])
    w = np.array([-1.5, 0.75, 1.0, 0.5])
    c = np.array([0.2, 0.4, -0.6, 1.2])
    assert np.array_equal(fn(v), numpy_expr(v))

    # gradient sweeps seed only d1: no second-order slot may be built
    grad_only = fn(de.HyperDual(v, d1=u))
    assert np.array_equal(grad_only.value, numpy_expr(v))
    np.testing.assert_allclose(grad_only.d1, first(v, u), rtol=1e-14, atol=1e-15)
    assert _is_absent(grad_only.d2) and _is_absent(grad_only.d12)

    full = fn(de.HyperDual(v, u, w, c))
    assert np.array_equal(full.value, numpy_expr(v))
    np.testing.assert_allclose(full.d1, first(v, u), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(full.d2, first(v, w), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(full.d12, second(v, u, w) + first(v, c), rtol=1e-14, atol=1e-15)


def test_hyper_dual_slots_default_to_absent():
    hd = de.HyperDual(np.array([0.3, 0.7]))
    assert hd.d1 is None and hd.d2 is None and hd.d12 is None


def _probe_scalar():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, -2.0, 0.5]}, seed=3))
    return probe, lambda th: de.sum_last(probe.func(th))


def test_linear_map_second_derivatives_are_exact_zeros():
    # a linear map never fills d12: the sweeps read the absent slot as zeros
    probe, scalar = _probe_scalar()
    hess = second_derivative(probe.func, probe.init_params, EXACT)
    assert hess.shape == (3, 3, 1)
    np.testing.assert_array_equal(hess, np.zeros((3, 3, 1)))
    pts = probe.init_params + np.random.default_rng(5).standard_normal((5, 3))
    np.testing.assert_array_equal(de.hessians_at_points(scalar, pts)[2], np.zeros((5, 3, 3)))
    np.testing.assert_array_equal(de._sweep(scalar, pts, True, pts[::-1].copy())[2],
                                  np.zeros((5, 3)))


def test_gradient_at_points_broadcasts_a_batch_constant_tangent():
    probe, scalar = _probe_scalar()
    pts = probe.init_params + np.random.default_rng(6).standard_normal((5, 3))
    # the probe's tangent is the same at every point, so d1 has shape (d, 1)
    assert np.shape(scalar(de.HyperDual(pts, d1=np.eye(3)[:, None, :])).d1) == (3, 1)
    values, grads = de.gradient_at_points(scalar, pts)
    assert grads.shape == (5, 3)
    for p, v, g in zip(pts, values, grads):
        assert v == float(scalar(p))
        np.testing.assert_array_equal(g, jacobian(scalar, p, EXACT))


_MODULES = [importlib.import_module(f"equichk.{m.name}")
            for m in pkgutil.iter_modules(equichk.__path__)]


@pytest.mark.parametrize("module", [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


# ---------------------------------------------------------------------------
# exact vs finite differences on every catalog map
# ---------------------------------------------------------------------------

CATALOG_SPECS = [
    ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=3),
    ModelSpec("homogeneous_relu_mlp", {"widths": [2, 4, 3, 1]}, seed=4),
    ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5),
    ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=6),
    ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=7),
]


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.name)
def test_exact_vs_fd_on_catalog_maps(spec):
    model = build_model(spec)
    rng = np.random.default_rng(hash(spec.name) % 2 ** 32)
    theta = model.init_params + 0.05 * rng.standard_normal(model.d)
    exact_jac = jacobian(model.func, theta, EXACT)
    fd_jac = jacobian(model.func, theta, FD)
    scale = max(1.0, float(np.abs(exact_jac).max()))
    assert np.abs(exact_jac - fd_jac).max() <= 1e-6 * scale

    exact_h = second_derivative(model.func, theta, EXACT)
    fd_h = second_derivative(model.func, theta, FD)
    scale_h = max(1.0, float(np.abs(exact_h).max()))
    assert np.abs(exact_h - fd_h).max() <= 1e-5 * scale_h


@pytest.mark.parametrize("call", [
    lambda ev: jacobian(_scalar_map, np.zeros(3), "fd"),
    lambda ev: second_derivative(_scalar_map, np.zeros(3), "fd"),
    lambda ev: ic.evaluate_landscape(ev[0], ev[1], ev[2], "fd"),
    # a check refuses the mode before it compares the landscape it was handed
    lambda ev: ic.check_homogeneity_specialization(*ev, mode="fd",
                                                   landscape=ic.evaluate_landscape(*ev)),
], ids=["jacobian", "second_derivative", "evaluate_landscape", "check"])
def test_unknown_mode_is_refused(probe_model, probe_loss, call):
    with pytest.raises(InvalidParams, match=re.escape(
            "unknown diff mode 'fd' (known: exact, finite_difference)")):
        call((probe_model, probe_loss, np.array([3.0, -1.0])))


def test_fd_oracle_rejects_high_order():
    with pytest.raises(IndexOutOfRange):
        fd_oracle(lambda th: th, np.zeros(2), 3)


# ---------------------------------------------------------------------------
# loss gradient/Hessian assembly
# ---------------------------------------------------------------------------

def test_grad_and_hessian_of_loss_probe_oracle(probe_model, probe_loss):
    theta = np.array([3.0, -1.0])
    value, grad, hess = de.grad_and_hessian_of_loss(probe_model, probe_loss, theta, EXACT)
    # y = 1, l = 0.5 (1-2)^2 = 0.5, grad = (y-t) x = -(1,2), hess = x x^T
    assert value == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(grad, [-1.0, -2.0], atol=1e-14)
    np.testing.assert_allclose(hess, np.outer([1, 2], [1, 2]), atol=1e-13)


def test_gradient_at_points_matches_jacobian(relu_mlp):
    loss = make_loss("square", target=0.25)
    mp = lambda th: loss.apply(relu_mlp.func(th))
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1.0, 1.0, size=(5, relu_mlp.d))
    _, batch = de.gradient_at_points(mp, pts)
    for i in range(5):
        one = jacobian(mp, pts[i], EXACT).reshape(-1)
        np.testing.assert_allclose(batch[i], one, atol=1e-14)


def test_hessians_at_points_matches_second_derivative(uv_model):
    loss = make_loss("square", target=0.4)
    mp = lambda th: loss.apply(uv_model.func(th))
    pts = np.array([[1.2, 0.6], [0.4, -0.8]])
    batch = de.hessians_at_points(mp, pts)[2]
    for i in range(2):
        one = second_derivative(mp, pts[i], EXACT).reshape(uv_model.d, uv_model.d)
        np.testing.assert_allclose(batch[i], one, atol=1e-13)


def test_relu_second_derivative_vanishes_off_kink():
    def f(theta):
        return de.relu(theta)

    h = second_derivative(f, np.array([0.5, -0.5]), EXACT)
    np.testing.assert_array_equal(h, np.zeros_like(h))


# ---------------------------------------------------------------------------
# batched sweeps against point-by-point references
# ---------------------------------------------------------------------------

SWEEP_CASES = [
    (ModelSpec("homogeneous_relu_mlp", {"widths": [2, 4, 3, 1]}, seed=12), ("exponential", {"label": 1.0})),
    (ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=13), ("logistic", {"label": -1.0})),
    (ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=16), ("square", {"target": [0.1, 0.5]})),
    (ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19),
     ("softmax_xent", {"n_classes": 3, "label": 1})),
    (ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21), ("square", {"target": 2.0})),
]


def _sweep_maps(spec, loss_spec):
    """(map, point) for the model, its composite loss, and the loss alone."""
    model = build_model(spec)
    loss = make_loss(loss_spec[0], **loss_spec[1])
    rng = np.random.default_rng(model.d)
    theta = model.init_params + 0.1 * rng.standard_normal(model.d)
    return [
        (model.func, theta),
        (lambda th: loss.apply(model.func(th)), theta),
        (loss.apply, rng.standard_normal(model.c)),
    ]


def _second_derivative_by_direction(map_fn, x):
    """One hyper-dual evaluation per second-slot direction."""
    d = x.size
    eye = np.eye(d)
    rows = []
    for j in range(d):
        out = map_fn(de.HyperDual(x, d1=eye, d2=eye[j]))
        d12 = 0.0 if out.d12 is None else out.d12   # an absent slot reads as zeros
        rows.append(np.broadcast_to(np.asarray(d12, dtype=float), (d,) + np.shape(out.value)))
    return np.stack(rows, axis=0)


def _hessians_by_direction(map_fn, points):
    """One batched hyper-dual evaluation per second-slot direction."""
    m, d = points.shape
    eye = np.eye(d)
    out = np.zeros((m, d, d))
    for j in range(d):
        res = map_fn(de.HyperDual(points, d1=eye[:, None, :], d2=eye[j]))
        d12 = 0.0 if res.d12 is None else res.d12   # an absent slot reads as zeros
        out[:, :, j] = np.broadcast_to(np.asarray(d12, dtype=float), (d, m)).T
    return out


def _fd_by_point(map_fn, x, order):
    """Central differences with one map evaluation per stencil point."""
    d = x.size
    h = np.maximum(1.0, np.abs(x)) * np.finfo(float).eps ** (1.0 / 3.0 if order == 1 else 0.25)

    def ev(p):
        return np.asarray(map_fn(p), dtype=float)

    if order == 1:
        cols = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = h[i]
            cols.append((ev(x + e) - ev(x - e)) / (2.0 * h[i]))
        return np.stack(cols, axis=0)
    f0 = ev(x)
    out = np.zeros((d, d) + f0.shape)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        out[i, i] = (ev(x + ei) - 2.0 * f0 + ev(x - ei)) / (h[i] * h[i])
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            out[i, j] = out[j, i] = (
                ev(x + ei + ej) - ev(x + ei - ej) - ev(x - ei + ej) + ev(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return out


@pytest.mark.parametrize("spec, loss_spec", SWEEP_CASES, ids=lambda c: getattr(c, "name", None))
def test_batched_sweeps_equal_pointwise_references(spec, loss_spec):
    for map_fn, x in _sweep_maps(spec, loss_spec):
        np.testing.assert_array_equal(second_derivative(map_fn, x, EXACT),
                                      _second_derivative_by_direction(map_fn, x))
        for order in (1, 2):
            np.testing.assert_array_equal(fd_oracle(map_fn, x, order),
                                          _fd_by_point(map_fn, x, order))
        if np.ndim(map_fn(x)) == 0:  # scalar maps: a batch of Hessians
            points = x + 0.05 * np.random.default_rng(x.size).standard_normal((4, x.size))
            np.testing.assert_array_equal(de.hessians_at_points(map_fn, points)[2],
                                          _hessians_by_direction(map_fn, points))


SUITE_ENTRIES = default_suite().entries


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_first_order_sweep_equals_full_product_rule(entry):
    # a d1-only seed takes the first-order branch of the product rule; a
    # zero d2 array forces the full rule, whose extra terms are all zero
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    pts = model.init_params + np.random.default_rng(entry.seed).standard_normal((50, model.d))
    eye = np.eye(model.d)[:, None, :]
    for map_fn in (model.func, lambda th: loss.apply(model.func(th))):
        fast = map_fn(de.HyperDual(pts, d1=eye))
        full = map_fn(de.HyperDual(pts, d1=eye, d2=np.zeros(model.d)))
        assert fast.d2 is None and fast.d12 is None
        np.testing.assert_array_equal(fast.value, full.value)
        np.testing.assert_array_equal(np.broadcast_to(fast.d1, np.shape(full.d1)), full.d1)


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_hessian_sweep_values_and_grads_equal_gradient_sweep(monkeypatch, entry):
    # the values and gradients a Hessian sweep returns are the gradient
    # sweep's, bit for bit, at one point, at a batch, and block by block
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    calls = []

    def map_fn(th):
        calls.append(1)
        return loss.apply(model.func(th))

    pts = model.init_params + np.random.default_rng(entry.seed).standard_normal((7, model.d))
    whole = {}
    for n in (1, 7):
        values, grads = de.gradient_at_points(map_fn, pts[:n])
        calls.clear()
        whole[n] = de.hessians_at_points(map_fn, pts[:n])
        assert len(calls) == 1
        np.testing.assert_array_equal(whole[n][0], values)
        np.testing.assert_array_equal(whole[n][1], grads)
    # room for the d^3 seed entries of three points: blocks of 3, 3 and 1
    monkeypatch.setattr(de, "_BLOCK_BYTES", 3 * 8 * model.d ** 3)
    calls.clear()
    blocked = de.hessians_at_points(map_fn, pts)
    assert len(calls) == 3
    for got, want in zip(blocked, whole[7]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_hessian_vector_sweep_equals_hessian_times_direction(monkeypatch, entry):
    # a direction field in the second slot: values and gradients are the
    # gradient sweep's bit for bit, the products are the Hessians times the
    # directions to rounding, and blocks of points do not change bits
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    calls = []

    def map_fn(th):
        calls.append(1)
        return loss.apply(model.func(th))

    rng = np.random.default_rng(entry.seed)
    pts = model.init_params + rng.standard_normal((7, model.d))
    u = rng.standard_normal((7, model.d))
    values, grads = de.gradient_at_points(map_fn, pts)
    hess = de.hessians_at_points(map_fn, pts)[2]
    calls.clear()
    whole = de._sweep(map_fn, pts, True, u)
    assert len(calls) == 1
    np.testing.assert_array_equal(whole[0], values)
    np.testing.assert_array_equal(whole[1], grads)
    want = np.einsum("mij,mj->mi", hess, u)
    assert np.max(np.abs(whole[2] - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)
    assert whole[2].shape == (7, model.d) and whole[2].flags.c_contiguous
    # room for the d^2 seed entries of three points: blocks of 3, 3 and 1
    monkeypatch.setattr(de, "_BLOCK_BYTES", 3 * 8 * model.d ** 2)
    calls.clear()
    blocked = de._sweep(map_fn, pts, True, u)
    assert len(calls) == 3
    for got, want in zip(blocked, whole):
        np.testing.assert_array_equal(got, want)


def _parent_sweeps(map_fn, x):
    """Value, first and second derivative of ``map_fn`` at ``x`` from a plain
    call and two unbatched seeds, ``d1 = I`` and ``d1 = I[None], d2 = I[:, None]``
    (second derivatives as ``[j, i, ...]``); absent slots read as zeros."""
    eye = np.eye(x.size)
    value = np.asarray(map_fn(x), dtype=float)
    lead = (x.size,)
    first = map_fn(de.HyperDual(x, d1=eye)).d1
    second = map_fn(de.HyperDual(x, d1=eye[None], d2=eye[:, None])).d12
    return (value,
            np.broadcast_to(0.0 if first is None else first, lead + value.shape),
            np.broadcast_to(0.0 if second is None else second, 2 * lead + value.shape))


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_exact_landscape_is_two_map_evaluations(entry):
    # one sweep of the model with the composite appended as a last column
    # carries every landscape tensor, bit for bit what a plain forward and
    # separate first- and second-order seeds of the model and of the
    # composite give
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    theta = model.init_params + 0.1 * np.random.default_rng(entry.seed).standard_normal(model.d)
    calls = []

    def counting(th):
        calls.append(1)
        return model.func(th)

    ev = ic.evaluate_landscape(dataclasses.replace(model, func=counting), loss, theta)
    assert len(calls) == 1
    y, jac_f, hess_f = _parent_sweeps(model.func, theta)
    value, grad, hess = _parent_sweeps(lambda th: loss.apply(model.func(th)), theta)
    np.testing.assert_array_equal(ev.y, forward(model, theta))
    np.testing.assert_array_equal(ev.y, y)
    assert ev.value == float(value)
    for got, want in ((ev.grad, grad), (ev.hess, hess), (ev.jac_f, jac_f), (ev.hess_f, hess_f)):
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_fd_landscape_is_two_map_evaluations(monkeypatch, entry):
    # one FD sweep of the model with the composite appended as a last column
    # carries every landscape tensor at all positions, bit for bit what a
    # plain call and point-by-point stencils of the model and of the
    # composite give, whether or not the stencils split
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    rng = np.random.default_rng(entry.seed)
    thetas = model.init_params + 0.1 * rng.standard_normal((3, model.d))
    calls = []

    def counting(th):
        calls.append(1)
        return model.func(th)

    counted = dataclasses.replace(model, func=counting)
    whole = ic.evaluate_landscapes(counted, loss, thetas, FD)
    assert len(calls) == 1
    composite = de._loss_map(model, loss)
    for ev, theta in zip(whole, thetas):
        np.testing.assert_array_equal(ev.y, model.func(theta))
        assert ev.value == float(composite(theta))
        for got, map_fn, order in ((ev.jac_f, model.func, 1), (ev.hess_f, model.func, 2),
                                   (ev.grad, composite, 1), (ev.hess, composite, 2)):
            np.testing.assert_array_equal(got, _fd_by_point(map_fn, theta, order))
    # room for 7 stencil points per block: blocks straddle positions
    monkeypatch.setattr(de, "_BLOCK_BYTES", 7 * 8 * model.d)
    calls.clear()
    blocked = ic.evaluate_landscapes(counted, loss, thetas, FD)
    assert len(calls) > 2
    for ev, want in zip(blocked, whole):
        for field in ("y", "value", "jac_f", "hess_f", "grad", "hess"):
            np.testing.assert_array_equal(getattr(ev, field), getattr(want, field))


def test_fd_stencil_tables_are_built_once_per_dimension_and_read_only():
    # the tables depend only on (d, second): every later sweep, at any point
    # count, reuses the one read-only build
    de._stencil.cache_clear()
    rng = np.random.default_rng(4)

    def quartic(th):
        return de.sum_last(th * th * th * th)

    for d in (3, 5):
        for second in (False, True):
            for m in (1, 4):
                de._fd_sweep(quartic, rng.standard_normal((m, d)), second)
    assert de._stencil.cache_info().misses == 4
    assert de._stencil.cache_info().hits == 4
    for second in (False, True):
        tables = de._stencil(3, second)
        assert de._stencil(3, second) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0


@pytest.mark.parametrize("spec, loss_spec", [c for c in SWEEP_CASES if build_model(c[0]).c > 1],
                         ids=lambda c: getattr(c, "name", None))
def test_batched_vector_sweep_equals_pointwise_second_derivative(monkeypatch, spec, loss_spec):
    # point blocks (whole points per evaluation) and direction blocks (one
    # point's second-slot directions split) give the unblocked bits
    model = build_model(spec)
    d, c = model.d, model.c
    pts = model.init_params + 0.1 * np.random.default_rng(d).standard_normal((5, d))
    want = np.stack([second_derivative(model.func, p, EXACT) for p in pts])
    calls = []

    def counting(th):
        calls.append(1)
        return model.func(th)

    for block_bytes, n_calls in ((None, 1), (2 * 8 * d ** 3, 3), (8 * d * d, 5 * d)):
        if block_bytes:
            monkeypatch.setattr(de, "_BLOCK_BYTES", block_bytes)
        calls.clear()
        values, first, second = de._sweep(counting, pts, True)
        assert len(calls) == n_calls
        assert values.shape == (5, c) and first.shape == (5, d, c)
        np.testing.assert_array_equal(second, want)
        np.testing.assert_array_equal(values, [forward(model, p) for p in pts])


def test_hessian_sweep_of_a_constant_map():
    pts = np.random.default_rng(2).standard_normal((4, 3))
    values, grads, hess = de.hessians_at_points(lambda th: 2.5, pts)
    np.testing.assert_array_equal(values, np.full(4, 2.5))
    np.testing.assert_array_equal(grads, np.zeros((4, 3)))
    np.testing.assert_array_equal(hess, np.zeros((4, 3, 3)))
    # a direction field in the second slot reads the absent slots as zeros too
    values, grads, hvps = de._sweep(lambda th: 2.5, pts, True, pts[::-1].copy())
    np.testing.assert_array_equal(values, np.full(4, 2.5))
    np.testing.assert_array_equal(grads, np.zeros((4, 3)))
    np.testing.assert_array_equal(hvps, np.zeros((4, 3)))


def test_sweeps_are_one_map_call_and_blocks_do_not_change_bits(monkeypatch):
    spec, loss_spec = SWEEP_CASES[3]  # factored_last_layer, d = 18
    calls = []

    def counting(map_fn):
        return lambda th: calls.append(1) or map_fn(th)

    for map_fn, x in _sweep_maps(spec, loss_spec)[:2]:
        calls.clear()
        one = [second_derivative(counting(map_fn), x, EXACT),
               fd_oracle(counting(map_fn), x, 1),
               fd_oracle(counting(map_fn), x, 2)]
        assert len(calls) == 3

        # 5000 bytes hold one 18 x 18 seed product and 34 stencil points
        monkeypatch.setattr(de, "_BLOCK_BYTES", 5000)
        calls.clear()
        blocked = [second_derivative(counting(map_fn), x, EXACT),
                   fd_oracle(counting(map_fn), x, 1),
                   fd_oracle(counting(map_fn), x, 2)]
        assert len(calls) == 18 + 2 + 21  # 18 directions; 37 and 685 points
        monkeypatch.undo()
        for a, b in zip(one, blocked):
            np.testing.assert_array_equal(a, b)


def test_hessians_at_points_one_map_call_and_blocks_do_not_change_bits(monkeypatch):
    spec, loss_spec = SWEEP_CASES[3]  # factored_last_layer, d = 18
    map_fn, x = _sweep_maps(spec, loss_spec)[1]
    points = x + 0.05 * np.random.default_rng(5).standard_normal((5, x.size))
    calls = []

    def counting(th):
        calls.append(1)
        return map_fn(th)

    one = de.hessians_at_points(counting, points)[2]
    assert len(calls) == 1
    # room for the 18^3 seed entries of two points per block
    monkeypatch.setattr(de, "_BLOCK_BYTES", 2 * 8 * 18 ** 3)
    calls.clear()
    blocked = de.hessians_at_points(counting, points)[2]
    assert len(calls) == 3
    np.testing.assert_array_equal(one, blocked)


# ---------------------------------------------------------------------------
# matvec, dot and sum_last call numpy's C kernels without its dispatch
# ---------------------------------------------------------------------------

# the numpy functions the helpers' kernels stand in for
_NP_MATVEC = partial(np.einsum, "...ij,...j->...i")
_NP_DOT = partial(np.einsum, "...i,...i->...")


def _np_sum_last(x):
    return de._each(x, lambda c: np.asarray(c).sum(axis=-1))


def _assert_same_bytes(got, want):
    """Equal type, dtype, shape and bytes (so -0.0 and 0.0 differ), slot by
    slot for hyper-duals, with absent slots absent on both sides."""
    if isinstance(want, de.HyperDual):
        assert isinstance(got, de.HyperDual)
        for slot in ("value", "d1", "d2", "d12"):
            _assert_same_bytes(getattr(got, slot), getattr(want, slot))
        return
    if want is None:
        assert got is None
        return
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _seeded(points, order):
    """``points`` (M, d) seeded as :func:`de._sweep` seeds them (direction
    axes first, a batch axis broadcast over them), and, at order 2, squared
    once so that the product rule fills the e1e2 slot."""
    d = points.shape[1]
    first_seed, d1_seed, d2_seed = de._seeds(d)
    if order == 0:
        return points
    if order == 1:
        return de.HyperDual(points, d1=first_seed)
    x = de.HyperDual(points, d1=d1_seed, d2=d2_seed)
    return x * x


@pytest.mark.parametrize("order", [0, 1, 2], ids=["plain", "first_order", "second_order"])
@pytest.mark.parametrize("m", [1, 4])
def test_helpers_equal_numpy_dispatch_byte_for_byte(order, m):
    # theta holds a (3, 4) block and a 4-vector; take_last and the reshape of
    # models._unpack hand the helpers non-contiguous views of every slot
    rng = np.random.default_rng(33 + m)
    points = rng.standard_normal((m, 16))
    theta = _seeded(points, order)
    w = de._each(de.take_last(theta, slice(0, 12)), lambda c: c.reshape(c.shape[:-1] + (3, 4)))
    z = de.take_last(theta, slice(12, 16))
    x = de.take_last(theta, slice(1, 13, 3))   # strided: every third entry
    plain_w = rng.standard_normal((3, 4))      # a weight or input that is not seeded
    plain_z = rng.standard_normal(4)[::-1]     # a reversed view
    plain_wt = rng.standard_normal((4, 3)).T   # a transposed view
    assert not np.asarray(x if order == 0 else x.d1).flags.c_contiguous
    cases = [
        (de.matvec, _NP_MATVEC, (w, z)),
        (de.matvec, _NP_MATVEC, (w, plain_z)),
        (de.matvec, _NP_MATVEC, (plain_w, z)),
        (de.matvec, _NP_MATVEC, (plain_wt, z)),
        (de.dot, _NP_DOT, (z, z)),
        (de.dot, _NP_DOT, (x, z)),
        (de.dot, _NP_DOT, (plain_z, x)),
    ]
    for helper, np_op, (a, b) in cases:
        _assert_same_bytes(helper(a, b), de._bilinear(np_op, a, b))
    for c in (z, x, w, de.matvec(w, z)):
        _assert_same_bytes(de.sum_last(c), _np_sum_last(c))
    if order == 0:  # plain operands: the numpy calls themselves
        _assert_same_bytes(de.matvec(w, z), np.einsum("...ij,...j->...i", w, z))
        _assert_same_bytes(de.dot(x, z), np.einsum("...i,...i->...", x, z))
        _assert_same_bytes(de.sum_last(x), x.sum(axis=-1))
        _assert_same_bytes(de.sum_last(x[0]), x[0].sum(axis=-1))   # a 0-d result


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_sweeps_equal_numpy_dispatch_byte_for_byte(monkeypatch, entry):
    # every sweep of a catalog loss map, at batch 1 and at batch 4, in each
    # mode, is the same bytes with the helpers on numpy's dispatching calls
    model = build_model(entry.model)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    map_fn = de._loss_map(model, loss)
    pts = model.init_params + 0.1 * np.random.default_rng(entry.seed).standard_normal((4, model.d))
    sweeps = [(de._sweep, False), (de._sweep, True), (de._fd_sweep, False), (de._fd_sweep, True)]

    def run_all():
        return [sweep(map_fn, pts[:n], second) for n in (1, 4) for sweep, second in sweeps]

    fast = run_all()
    monkeypatch.setattr(de, "_MATVEC", _NP_MATVEC)
    monkeypatch.setattr(de, "_DOT", _NP_DOT)
    monkeypatch.setattr(de, "sum_last", _np_sum_last)
    for got, want in zip(fast, run_all()):
        for a, b in zip(got, want):
            _assert_same_bytes(a, b)
