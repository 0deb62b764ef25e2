"""Transformation catalog: the defining relation f(H(theta,lam)) = G(lam, f(theta)),
characteristic quantities against finite differences, fixed points, charges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichk.errors import (
    InvalidParams,
    NotConservative,
    NotGoodPosition,
    UnknownSpec,
)
from equichk.models import ModelSpec, build_model, forward, random_params
from equichk.transforms import (
    TRANSFORM_NAMES,
    build_transform,
    characteristic_direction,
    characteristic_output,
    equivariance_residual,
    fixed_point_project,
    good_position,
    mutate,
    noether_charge,
)


def _cases():
    relu = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=3))
    dl = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5))
    fac = build_model(ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=4))
    dl121 = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=6))
    relu221 = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=7))
    return [
        ("homogeneity_scaling", {"degree": relu.homogeneity_degree}, relu),
        ("layer_rescaling", {"blocks": ["W1", "W2"]}, dl),
        ("linear_reparam",
         {"A": [[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.0, 0.4, 0.1]], "blocks": ["W1", "W2"]},
         dl),
        ("last_layer_left_action", {}, fac),
        ("mirror", {"columns": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}, dl121),
        ("sign_flip", {"indices": [0, 2]}, dl121),
        # swap the two hidden neurons: W1 rows and W2 entries together
        ("permutation", {"perm": [2, 3, 0, 1, 5, 4]}, relu221),
    ]


CASES = _cases()
_IDS = [c[0] for c in CASES]


# ---------------------------------------------------------------------------
# the defining relation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params,model", CASES, ids=_IDS)
def test_equivariance_relation_holds(name, params, model):
    t = build_transform(name, params, model)
    rng = np.random.default_rng(101)
    for _ in range(5):
        theta = random_params(model, rng)
        lam = None if t.kind == "discrete" else rng.uniform(-0.4, 0.4, size=t.p)
        res = equivariance_residual(t, model, theta, lam)
        assert res <= 1e-12, f"{name}: residual {res:.3e}"


def test_catalog_names_cover_cases():
    assert {name for name, _, _ in CASES} == set(TRANSFORM_NAMES)


def test_unknown_transform_name(relu_mlp):
    with pytest.raises(UnknownSpec):
        build_transform("gauge_boost", {}, relu_mlp)


def test_missing_parameter_is_invalid(relu_mlp):
    with pytest.raises(InvalidParams):
        build_transform("layer_rescaling", {}, relu_mlp)


# ---------------------------------------------------------------------------
# characteristic quantities vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,params,model",
    [c for c in CASES if c[0] not in ("mirror", "sign_flip", "permutation")],
    ids=[i for i in _IDS if i not in ("mirror", "sign_flip", "permutation")],
)
def test_characteristic_direction_matches_fd(name, params, model):
    # X satisfies (dH/dtheta) X_a = dH/dlam_a by construction, so checking
    # it against a central difference of H in lam exercises both callbacks.
    t = build_transform(name, params, model)
    rng = np.random.default_rng(7)
    theta = random_params(model, rng)
    lam = rng.uniform(-0.3, 0.3, size=t.p)
    X = characteristic_direction(t, theta, lam)        # stored (p, d)
    S = t.dh_dtheta(lam, theta)                              # stored [j, i]
    h = 1e-6
    for a in range(t.p):
        e = np.zeros(t.p)
        e[a] = h
        dH = (t.h(lam + e, theta) - t.h(lam - e, theta)) / (2 * h)
        np.testing.assert_allclose(S.T @ X[a], dH, rtol=1e-6, atol=1e-8)


def test_symmetry_characteristic_output_is_zero(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    assert t.is_symmetry
    y = forward(relu_mlp, relu_mlp.init_params)
    Y = characteristic_output(t, y, np.array([0.2]))
    np.testing.assert_array_equal(Y, np.zeros_like(Y))


def test_homogeneity_characteristic_oracle(relu_mlp):
    # exponential chart: X = theta and Y = m*y, at lam = 0
    t = build_transform(
        "homogeneity_scaling", {"degree": relu_mlp.homogeneity_degree}, relu_mlp)
    theta = relu_mlp.init_params
    y = forward(relu_mlp, theta)
    X = characteristic_direction(t, theta, np.zeros(1))
    Y = characteristic_output(t, y, np.zeros(1))
    np.testing.assert_allclose(X.reshape(-1), theta, atol=1e-13)
    np.testing.assert_allclose(Y.reshape(-1), relu_mlp.homogeneity_degree * y, atol=1e-13)


def test_discrete_has_no_characteristic_direction(deep_linear_121):
    t = build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)
    with pytest.raises(NotGoodPosition):
        characteristic_direction(t, deep_linear_121.init_params)


def test_good_position_report(relu_mlp):
    t = build_transform(
        "homogeneity_scaling", {"degree": relu_mlp.homogeneity_degree}, relu_mlp)
    y = forward(relu_mlp, relu_mlp.init_params)
    rep = good_position(t, relu_mlp.init_params, y, np.zeros(1))
    assert rep.ok
    assert rep.rcond_h > 1e-6 and rep.rcond_g > 1e-6

    td = build_transform("sign_flip", {"indices": [0]}, relu_mlp)
    rep_d = good_position(td, relu_mlp.init_params, y)
    assert not rep_d.ok
    assert rep_d.reason == "discrete"


# ---------------------------------------------------------------------------
# fixed points and involutions
# ---------------------------------------------------------------------------

def test_fixed_point_project_zeroes_flipped_coords(deep_linear_121):
    t = build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)
    theta = np.array([0.5, -0.3, 0.2, 0.9])
    proj = fixed_point_project(t, theta)
    np.testing.assert_allclose(proj, [0.0, -0.3, 0.0, 0.9], atol=1e-15)
    # projected point actually is a fixed point
    np.testing.assert_allclose(t.h(None, proj), proj, atol=1e-15)


def test_fixed_point_project_continuous_rejected(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    with pytest.raises(InvalidParams):
        fixed_point_project(t, relu_mlp.init_params)


def test_permutation_projection_ties_weights():
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=7))
    t = build_transform("permutation", {"perm": [2, 3, 0, 1, 5, 4]}, model)
    proj = fixed_point_project(t, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    np.testing.assert_allclose(proj, [2.0, 3.0, 2.0, 3.0, 5.5, 5.5], atol=1e-15)


def test_mirror_directions_must_be_orthonormal(deep_linear_121):
    with pytest.raises(InvalidParams):
        build_transform("mirror", {"columns": [[1.0, 1.0, 0.0, 0.0]]}, deep_linear_121)


def test_sign_flip_index_validation(deep_linear_121):
    with pytest.raises(InvalidParams):
        build_transform("sign_flip", {"indices": [0, 0]}, deep_linear_121)
    with pytest.raises(InvalidParams):
        build_transform("sign_flip", {"indices": [7]}, deep_linear_121)


def test_permutation_validation(deep_linear_121):
    with pytest.raises(InvalidParams):
        build_transform("permutation", {"perm": [0, 1, 1, 3]}, deep_linear_121)


# ---------------------------------------------------------------------------
# charges
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rescaling_charge_gradient_is_characteristic_direction(seed):
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5))
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model)
    charge = noether_charge(t)
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=model.d)
    X = characteristic_direction(t, theta, np.zeros(1)).reshape(-1)
    np.testing.assert_allclose(np.asarray(charge.grad(theta)), X, atol=1e-12)


def test_antisymmetric_reparam_has_no_charge():
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 2, 2]}, seed=8))
    t = build_transform(
        "linear_reparam", {"A": [[0.0, 0.7], [-0.7, 0.0]], "blocks": ["W1", "W2"]}, model)
    assert t.charge is None and t.charge_reason
    with pytest.raises(NotConservative):
        noether_charge(t)


def test_charge_value_is_half_norm_gap(deep_linear_121):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, deep_linear_121)
    charge = noether_charge(t)
    theta = np.array([1.0, 2.0, 3.0, 4.0])
    up = theta[deep_linear_121.block("W1").sl]
    down = theta[deep_linear_121.block("W2").sl]
    assert charge.c_eval(theta) == pytest.approx(0.5 * (up @ up - down @ down), abs=1e-15)


_CHARGE_CASES = [c for c in CASES if c[0] in ("layer_rescaling", "linear_reparam")] + [
    # blocks of 20 and 15 entries: sums past numpy's 8-way unrolled reduction
    ("layer_rescaling", {"blocks": ["W1", "W2"]},
     build_model(ModelSpec("deep_linear", {"widths": [4, 5, 3]}, seed=9))),
]


@pytest.mark.parametrize("name,params,model", _CHARGE_CASES,
                         ids=[c[0] for c in _CHARGE_CASES[:-1]] + ["layer_rescaling_wide"])
def test_batched_charge_equals_per_row(name, params, model):
    charge = noether_charge(build_transform(name, params, model))
    rng = np.random.default_rng(17)
    for lead in ((6,), (3, 5)):
        states = rng.uniform(-1.0, 1.0, size=lead + (model.d,))
        rows = states.reshape(-1, model.d)
        for fn, tail in ((charge.c_eval, ()), (charge.grad, (model.d,)),
                         (charge.hess, (model.d, model.d))):
            batched = np.asarray(fn(states))
            assert batched.shape == lead + tail
            per_row = np.stack([np.asarray(fn(row)) for row in rows])
            np.testing.assert_array_equal(batched.reshape(per_row.shape), per_row)


def test_discrete_transform_has_no_charge(deep_linear_121):
    t = build_transform("mirror", {"columns": [[0.0, 1.0, 0.0, 0.0]]}, deep_linear_121)
    with pytest.raises(NotConservative):
        noether_charge(t)


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

def test_mutate_scales_one_callback(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    bad = mutate(t, "dh_dlambda", 1.01)
    lam = np.array([0.1])
    theta = relu_mlp.init_params
    np.testing.assert_allclose(
        bad.dh_dlambda(lam, theta), 1.01 * t.dh_dlambda(lam, theta), atol=1e-15)
    np.testing.assert_array_equal(bad.dh_dtheta(lam, theta), t.dh_dtheta(lam, theta))
    assert "dh_dlambda" in bad.name and "1.01" in bad.name


def test_mutate_unknown_callback(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    with pytest.raises(UnknownSpec):
        mutate(t, "dh_dtime", 1.01)
