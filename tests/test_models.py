"""Model zoo and loss catalog: layouts, homogeneity, loss derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichk import diff_engine as de
from equichk import dynamics as dyn
from equichk import identity_checker as ic
from equichk import models
from equichk import transforms as tr
from equichk import spectral
from equichk.errors import (InvalidParams, NonFiniteEntry, NonFiniteResult, SizeMismatch,
                            UnknownSpec)
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

EXACT = "exact"


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


def test_forward_refuses_an_output_that_overflows():
    # every entry of theta is finite, but the product of two 1e200 weights is not
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 1, 1]}, seed=0))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteResult, match="model output"):
        forward(model, np.full(model.d, 1e200))


@pytest.mark.parametrize("spec, key", [
    (ModelSpec("factored_last_layer", {"c": 2, "s": 3, "hidden": [2]}, seed=5), "input"),
    (ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21), "x"),
], ids=["factored_last_layer", "linear_probe"])
def test_with_input_gives_the_model_built_on_that_input(spec, key):
    model = build_model(spec)
    x = np.linspace(-0.7, 0.4, model.input_point.size)
    rebound = model.with_input(x)
    want = build_model(ModelSpec(spec.name, dict(spec.params, **{key: x.tolist()}), spec.seed))
    th = model.init_params
    np.testing.assert_array_equal(rebound.input_point, x)
    np.testing.assert_array_equal(rebound.init_params, th)
    np.testing.assert_array_equal(forward(rebound, th), forward(want, th))
    assert not np.array_equal(forward(rebound, th), forward(model, th))
    with pytest.raises(SizeMismatch):
        model.with_input(np.zeros(model.input_point.size + 1))


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


#: each loss in closed form, on plain floats
CLOSED_FORMS = {
    "square": lambda y, p: 0.5 * float(np.sum((y - np.asarray(p["target"])) ** 2)),
    "exponential": lambda y, p: float(np.exp(-p["label"] * y[0])),
    "logistic": lambda y, p: float(np.log1p(np.exp(-p["label"] * y[0]))),
    "softmax_xent": lambda y, p: float(np.log(np.sum(np.exp(y - np.max(y)))) + np.max(y)
                                       - y[p["label"]]),
}


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
    assert float(np.asarray(loss.apply(y)).reshape(())) == pytest.approx(
        CLOSED_FORMS[name](y, params), abs=1e-14)


def test_softmax_stable_at_large_logits():
    loss = make_loss("softmax_xent", n_classes=3, label=0)
    y = np.array([900.0, -900.0, 0.0])
    v = float(np.asarray(loss.apply(y)))
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
        assert float(np.asarray(l.apply(y))) == pytest.approx(0.5 * float(np.sum((y - t) ** 2)),
                                                       abs=1e-15)


def test_family_binding_dispatch():
    fam = loss_family("exponential")
    bound = fam.bind(1.0)
    assert bound.name == "exponential"
    fam2 = loss_family("softmax_xent", n_classes=3)
    bound2 = fam2.bind(2)
    assert bound2.c == 3


# ---------------------------------------------------------------------------
# the one number rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, real, integer", [
    (3, True, True), (np.int64(-2), True, True), (np.uint8(7), True, True),
    (0.5, True, False), (np.float32(1.5), True, False),
    (True, False, False), (np.bool_(True), False, False), ("1", False, False),
    (None, False, False), ([1.0], False, False), (float("nan"), False, False),
    (float("inf"), False, False), (np.float64("-inf"), False, False),
    (10 ** 400, False, True),  # an int no float holds
])
def test_is_real_and_is_integer(value, real, integer):
    assert models._is_real(value) == real
    assert models._is_integer(value) == integer


@pytest.mark.parametrize("value", [
    True, "0.5", None, float("nan"), [1.0, float("inf")], [[1.0], [2.0, 3.0]],
    [1.0, [True]], np.array([True, False]), np.array(["1.0"]), np.array([1.0, np.nan]),
    (1.0, "2"), {"x": 1.0}, 10 ** 400,
], ids=lambda v: type(v).__name__ + repr(v)[:16])
def test_reals_refuses_what_is_no_finite_real(value):
    with pytest.raises(InvalidParams, match="^what: "):
        models._reals(value, "what")


@pytest.mark.parametrize("value, expected", [
    (2, [2.0]), (np.float32(0.5), [0.5]), ([1, 2.5], [1.0, 2.5]),
    ((3, np.int64(4)), [3.0, 4.0]), ([[1, 0], [0, 1]], [[1.0, 0.0], [0.0, 1.0]]),
    (np.arange(3), [0.0, 1.0, 2.0]), ([np.array([1.0]), np.array([2.0])], [[1.0], [2.0]]),
])
def test_reals_gives_a_float_array(value, expected):
    out = models._reals(value, "what")
    assert out.dtype == np.float64
    np.testing.assert_array_equal(np.atleast_1d(out), expected)


_DL222 = ModelSpec("deep_linear", {"widths": [2, 2, 2]}, 18)
_PROBE = ModelSpec("linear_probe", {"x": [1.0, 2.0]}, 21)


def _first_order(tolerance):
    model = build_model(_PROBE)
    t = tr.build_transform("homogeneity_scaling", {}, model)
    return ic.check_first_order(model, make_loss("square", target=2.0), t, [3.0, -1.0],
                                np.zeros(1), tolerance=tolerance)


def _null_count(**tolerances):
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 1]}, 6))
    t = tr.build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model)
    return ic.stationary_null_count(model, make_loss("square", target=0.3), [t],
                                    model.init_params, **tolerances)


def _suite(master_seed):
    entry = ic.PlanEntry(_PROBE, "square", {"target": 2.0}, "homogeneity_scaling",
                         checks=("first_order",), positions=1)
    return ic.run_suite(ic.SuiteSpec((entry,), master_seed=master_seed))


def _flow_args():
    model = build_model(_PROBE)
    return model, make_loss("square", target=0.3), model.init_params


def _alignment(**kwargs):
    model = build_model(ModelSpec("factored_last_layer", {"c": 2, "s": 3, "hidden": [2]}, 5))
    return ic.check_last_layer_alignment(model, make_loss("square", target=[0.1, 0.2]),
                                         model.init_params, **kwargs)


_PROBE_DATA = Dataset.equal_weight(((np.array([1.0, 2.0]), 0.3), (np.array([0.5, -1.0]), 0.1)))

#: every public reader of a point of two entries: theta of the d = 2 probe,
#: or y of a loss on two outputs
POINT_READERS = {
    "forward": lambda p: forward(build_model(_PROBE), p),
    "expected_loss": lambda p: expected_loss(build_model(_PROBE), loss_family("square"),
                                             _PROBE_DATA, p),
    "loss_grad": lambda p: make_loss("square", target=[0.3, 0.1]).grad(p),
    "loss_hess": lambda p: make_loss("square", target=[0.3, 0.1]).hess(p),
    "jacobian": lambda p: de.jacobian(build_model(_PROBE).func, p),
    "second_derivative": lambda p: de.second_derivative(build_model(_PROBE).func, p),
    "fd_oracle": lambda p: de.fd_oracle(build_model(_PROBE).func, p, 1),
    "grad_and_hessian_of_loss": lambda p: de.grad_and_hessian_of_loss(
        build_model(_PROBE), make_loss("square", target=0.3), p),
}


# Each input was accepted -- coerced, truncated or run -- or failed with a
# TypeError, ValueError, OverflowError, NotConverged or NonFiniteResult mid-run,
# before the number rule and the one point reader had their homes.
NOT_NUMBERS = {
    "square_target_true": lambda: make_loss("square", target=True),
    "square_target_list_true": lambda: make_loss("square", target=[True]),
    "square_target_str": lambda: make_loss("square", target="0.5"),
    "exponential_label_str": lambda: make_loss("exponential", label="1"),
    "logistic_label_true": lambda: make_loss("logistic", label=True),
    "family_target_true": lambda: loss_family("square").bind(True),
    "probe_x_bool_and_str": lambda: build_model(
        ModelSpec("linear_probe", {"x": [True, "2"]}, 0)),
    "mirror_columns_true": lambda: tr.build_transform(
        "mirror", {"columns": [[True, 0.0]]}, build_model(_PROBE)),
    "mirror_columns_nan": lambda: tr.build_transform(
        "mirror", {"columns": [[float("nan"), 0.0]]}, build_model(_PROBE)),
    "check_mirror_O_true": lambda: ic.check_mirror(
        build_model(_PROBE), make_loss("square", target=0.3), [[True], [False]], [0.0, 1.0]),
    "reparam_A_str": lambda: tr.build_transform(
        "linear_reparam", {"A": [["0.1", 0.0], [0.0, 0.0]], "blocks": ["W1", "W2"]},
        build_model(_DL222)),
    "model_seed_float": lambda: build_model(ModelSpec("linear_probe", {"x": [1.0]}, 2.7)),
    "model_seed_str": lambda: build_model(ModelSpec("linear_probe", {"x": [1.0]}, "3")),
    "model_seed_true": lambda: build_model(ModelSpec("linear_probe", {"x": [1.0]}, True)),
    "dataset_weight_true": lambda: Dataset(((np.ones(1), 0.0),), (True,)),
    "dataset_x_true": lambda: Dataset.equal_weight((([True], 0.0),)),
    "with_input_str": lambda: build_model(_PROBE).with_input(["1", 2.0]),
    "theta0_str": lambda: dyn.gradient_flow(*_flow_args()[:2], ["0.1", 0.2], T=1.0, dt=0.1),
    "stationary_flow_T_inf": lambda: dyn.stationary_flow(*_flow_args(), T=float("inf"), dt=0.1),
    "stationary_flow_T_nan": lambda: dyn.stationary_flow(*_flow_args(), T=float("nan"), dt=0.1),
    "gradient_flow_dt_nan": lambda: dyn.gradient_flow(*_flow_args(), T=1.0, dt=float("nan")),
    "gradient_flow_T_inf": lambda: dyn.gradient_flow(*_flow_args(), T=float("inf"), dt=0.1),
    "gradient_flow_T_past_float": lambda: dyn.gradient_flow(*_flow_args(), T=10 ** 400, dt=0.1),
    "descent_eta_nan": lambda: dyn.gradient_descent(*_flow_args(), eta=float("nan"), steps=2),
    "descent_steps_float": lambda: dyn.gradient_descent(*_flow_args(), eta=0.1, steps=2.5),
    "check_tolerance_str": lambda: _first_order("1e-3"),
    "check_tolerance_true": lambda: _first_order(True),
    "check_tolerance_nan": lambda: _first_order(float("nan")),
    "null_count_eps_stat_nan": lambda: _null_count(eps_stat=float("nan")),
    "null_count_rank_tol_str": lambda: _null_count(rank_tol="1e-8"),
    "suite_master_seed_true": lambda: _suite(True),
    "suite_master_seed_float": lambda: _suite(2.5),
    **{f"{name}_point_str_and_bool": (lambda read=read: read(["0.5", True]))
       for name, read in POINT_READERS.items()},
    "alignment_trials_true": lambda: _alignment(trials=True),
    "alignment_trials_float": lambda: _alignment(trials=2.5),
    "alignment_trials_str": lambda: _alignment(trials="3"),
    "alignment_seed_true": lambda: _alignment(seed=True),
    "alignment_seed_negative": lambda: _alignment(seed=-1),
    "power_eigs_k_float": lambda: spectral.power_eigs(np.eye(3), k=2.5),
    "power_eigs_k_true": lambda: spectral.power_eigs(np.eye(3), k=True),
    "power_eigs_k_str": lambda: spectral.power_eigs(np.eye(3), k="3"),
}


@pytest.mark.parametrize("name", sorted(NOT_NUMBERS))
def test_a_non_number_is_refused_with_invalid_params(name):
    with pytest.raises(InvalidParams):
        NOT_NUMBERS[name]()


def test_expected_loss_holds_theta_to_the_model_dimension():
    # three entries on d = 2 used to reach numpy's einsum and fail there
    with pytest.raises(SizeMismatch, match="theta"):
        expected_loss(build_model(_PROBE), loss_family("square"), _PROBE_DATA, [0.1, 0.2, 0.3])


def _charged():
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 1]}, 6))
    return model, tr.build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model)


#: readers of theta, lam and y beyond the probe's, each given one float array
#: point with a NaN among finite entries
_NAN_READERS = {
    **POINT_READERS,
    "evaluate_landscape": lambda p: ic.evaluate_landscape(
        build_model(_PROBE), make_loss("square", target=0.3), p),
    "check_first_order_theta": lambda p: ic.check_first_order(
        build_model(_PROBE), make_loss("square", target=2.0),
        tr.build_transform("homogeneity_scaling", {}, build_model(_PROBE)), p, np.zeros(1)),
    "transform_h_theta": lambda p: tr.build_transform(
        "homogeneity_scaling", {}, build_model(_PROBE)).h(np.zeros(1), p),
    "characteristic_direction_lam": lambda p: tr.characteristic_direction(
        _charged()[1], np.ones(4), p[1:]),
    "characteristic_output_y": lambda p: tr.characteristic_output(
        tr.build_transform("homogeneity_scaling", {}, build_model(_PROBE)), p[1:]),
    "good_position_theta": lambda p: tr.good_position(_charged()[1], np.r_[p, p]),
    "gradient_flow_theta0": lambda p: dyn.gradient_flow(*_flow_args()[:2], p, T=1.0, dt=0.1),
    "noise_covariance_theta": lambda p: dyn.noise_covariance(
        build_model(_PROBE), loss_family("square"), _PROBE_DATA, p),
    "stationary_null_count_theta": lambda p: ic.stationary_null_count(
        _charged()[0], make_loss("square", target=0.3), [_charged()[1]], np.r_[p, p]),
}


@pytest.mark.parametrize("name", sorted(_NAN_READERS))
def test_a_nan_in_a_float_array_point_raises_non_finite_entry(name):
    # a float64 array is taken as it is, and then checked finite, at every reader
    with pytest.raises(NonFiniteEntry):
        _NAN_READERS[name](np.array([0.5, np.nan]))
