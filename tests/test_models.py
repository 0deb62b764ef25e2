"""Model zoo and loss catalog: layouts, homogeneity, loss derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichk import diff_engine as de
from equichk.errors import InvalidParams, SizeMismatch, UnknownSpec
from equichk.models import (
    Dataset,
    ModelSpec,
    build_model,
    expected_loss,
    forward,
    loss_family,
    make_loss,
    per_sample_losses,
    random_params,
)

EXACT = de.DiffConfig(mode="exact")


# ---------------------------------------------------------------------------
# construction and layout
# ---------------------------------------------------------------------------

def test_block_layout_contiguous(relu_mlp):
    offsets = [b.start for b in relu_mlp.blocks]
    stops = [b.stop for b in relu_mlp.blocks]
    assert offsets[0] == 0
    assert all(stops[i] == offsets[i + 1] for i in range(len(offsets) - 1))
    assert stops[-1] == relu_mlp.d
    assert relu_mlp.block("W1").shape == (3, 2)
    assert relu_mlp.block("W2").shape == (1, 3)


def test_unknown_model_name():
    with pytest.raises(UnknownSpec):
        build_model(ModelSpec("perceptron_9000", {}, seed=0))


def test_init_deterministic():
    s = ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=42)
    a = build_model(s).init_params
    b = build_model(s).init_params
    np.testing.assert_array_equal(a, b)


def test_forward_shape_and_with_input(relu_mlp):
    y = forward(relu_mlp, relu_mlp.init_params)
    assert y.shape == (1,)
    other = relu_mlp.with_input(np.array([0.3, -0.9]))
    y2 = forward(other, relu_mlp.init_params)
    assert y2.shape == (1,)
    assert not np.array_equal(y, y2)
    with pytest.raises(SizeMismatch):
        relu_mlp.with_input(np.array([1.0, 2.0, 3.0]))


def test_random_params_deterministic(relu_mlp):
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    np.testing.assert_array_equal(random_params(relu_mlp, rng1), random_params(relu_mlp, rng2))


# ---------------------------------------------------------------------------
# homogeneity f(lam * theta) = lam^m f(theta), lam > 0
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 4.0), st.integers(0, 2 ** 31 - 1))
def test_relu_mlp_positively_homogeneous(lam, seed):
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=8))
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=model.d)
    m = model.homogeneity_degree
    lhs = forward(model, lam * theta)
    rhs = lam ** m * forward(model, theta)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0), st.integers(0, 2 ** 31 - 1))
def test_deep_linear_homogeneous_all_signs(lam, seed):
    # linear chains are homogeneous for every real lam
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=9))
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=model.d)
    m = model.homogeneity_degree
    lhs = forward(model, lam * theta)
    rhs = lam ** m * forward(model, theta)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


def test_factored_model_structure():
    model = build_model(ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=10))
    assert model.last_layer_block == "W"
    assert model.block("W").shape == (3, 2)
    theta = model.init_params
    W = theta[model.block("W").sl].reshape(3, 2)
    h = model.feature_fn(theta)
    np.testing.assert_allclose(forward(model, theta), W @ h, atol=1e-14)


def test_kink_margin_positive_away_from_kinks(relu_mlp):
    rng = np.random.default_rng(0)
    theta = random_params(relu_mlp, rng)
    margin = relu_mlp.kink_margin(theta)
    assert np.isfinite(margin)
    # the margin is the smallest |preactivation|; near-kink point drives it to ~0
    assert relu_mlp.kink_margin(np.zeros(relu_mlp.d)) == pytest.approx(0.0, abs=1e-300)


# ---------------------------------------------------------------------------
# losses: values, derivatives vs the engine, stability
# ---------------------------------------------------------------------------

LOSS_CASES = [
    ("square", {"target": 0.7}, 1),
    ("square", {"target": [0.1, -0.2, 0.4]}, 3),
    ("exponential", {"label": 1.0}, 1),
    ("exponential", {"label": -1.0}, 1),
    ("logistic", {"label": 1.0}, 1),
    ("logistic", {"label": -1.0}, 1),
    ("softmax_xent", {"n_classes": 4, "label": 2}, 4),
]


@pytest.mark.parametrize("name,params,c", LOSS_CASES, ids=lambda v: str(v)[:24])
def test_loss_grad_hess_match_engine(name, params, c):
    loss = make_loss(name, **params)
    rng = np.random.default_rng(17)
    y = rng.uniform(-2.0, 2.0, size=c)
    grad = np.asarray(loss.grad(y), dtype=float)
    hess = np.asarray(loss.hess(y), dtype=float)
    jac = de.jacobian(loss.apply, y, EXACT).reshape(-1)
    sd = de.second_derivative(loss.apply, y, EXACT).reshape(c, c)
    np.testing.assert_allclose(grad, jac, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(hess, sd, rtol=1e-12, atol=1e-14)
    assert loss.value(y) == pytest.approx(float(np.asarray(loss.apply(y)).reshape(())), abs=1e-14)


def test_softmax_stable_at_large_logits():
    loss = make_loss("softmax_xent", n_classes=3, label=0)
    y = np.array([900.0, -900.0, 0.0])
    v = loss.value(y)
    g = loss.grad(y)
    assert np.isfinite(v) and np.all(np.isfinite(g))
    assert v == pytest.approx(0.0, abs=1e-12)  # the true class dominates


def test_softmax_gradient_is_probability_gap():
    loss = make_loss("softmax_xent", n_classes=3, label=1)
    y = np.array([0.2, -0.4, 1.1])
    z = y - y.max()
    p = np.exp(z) / np.exp(z).sum()
    e1 = np.eye(3)[1]
    np.testing.assert_allclose(loss.grad(y), p - e1, atol=1e-14)
    np.testing.assert_allclose(loss.hess(y), np.diag(p) - np.outer(p, p), atol=1e-14)


def test_loss_label_validation():
    from equichk.errors import IndexOutOfRange
    with pytest.raises(InvalidParams):
        make_loss("exponential", label=0.5)
    with pytest.raises(IndexOutOfRange):
        make_loss("softmax_xent", n_classes=3, label=5)
    with pytest.raises(UnknownSpec):
        make_loss("hinge", margin=1.0)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_dataset_weights_validation():
    s = ((np.array([1.0]), 0.5),)
    with pytest.raises(InvalidParams):
        Dataset(samples=s, weights=(0.7,))        # does not sum to 1
    with pytest.raises(InvalidParams):
        Dataset(samples=s + s, weights=(1.5, -0.5))
    with pytest.raises(InvalidParams):
        Dataset(samples=s + s, weights=(float("nan"), float("nan")))
    with pytest.raises(SizeMismatch):
        Dataset(samples=s, weights=(0.5, 0.5))


def test_equal_weight_and_expected_loss(uv_model, two_sample_dataset, square_family):
    theta = np.array([1.2, 0.6])
    value = expected_loss(uv_model, square_family, two_sample_dataset, theta)
    # residuals 0.22 and -0.11 with weights 1/2 each
    manual = 0.5 * (0.5 * 0.22 ** 2) + 0.5 * (0.5 * 0.11 ** 2)
    assert value == pytest.approx(manual, abs=1e-15)


def test_per_sample_losses_bind_targets(uv_model, two_sample_dataset, square_family):
    parts = per_sample_losses(uv_model, square_family, two_sample_dataset)
    assert len(parts) == 2
    for (w, m, l), (x, t) in zip(parts, two_sample_dataset.samples):
        assert w == pytest.approx(0.5)
        np.testing.assert_array_equal(m.input_point, x)
        y = forward(m, np.array([1.2, 0.6]))
        assert l.value(y) == pytest.approx(0.5 * float(np.sum((y - t) ** 2)), abs=1e-15)


def test_family_binding_dispatch():
    fam = loss_family("exponential")
    bound = fam.bind(1.0)
    assert bound.name == "exponential"
    fam2 = loss_family("softmax_xent", n_classes=3)
    bound2 = fam2.bind(2)
    assert bound2.c == 3
