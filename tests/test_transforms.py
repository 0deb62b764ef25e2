"""Transformation catalog: the defining relation f(H(theta,lam)) = G(lam, f(theta)),
characteristic quantities against finite differences, fixed points, charges."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichk import diff_engine as de
from equichk import tensor_core as tc
from equichk import transforms as tr
from equichk.errors import (
    InvalidParams,
    NotConservative,
    NotGoodPosition,
    Singular,
    UnknownSpec,
)
from equichk.models import ModelSpec, build_model, forward, random_params
from equichk.transforms import (
    MUTABLE_CALLBACKS,
    TRANSFORM_NAMES,
    Transformation,
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
        ("homogeneity_scaling", {}, relu),
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


_OPTIONAL_CALLBACKS = ("d2h_dtheta2", "d2h_dlambda_dtheta", "d2h_dlambda2", "dg_dlambda",
                       "d2g_dy2", "d2g_dlambda_dy", "d2g_dlambda2")


@pytest.mark.parametrize("name,params,model", CASES, ids=_IDS)
def test_optional_callbacks_are_declared_zero_or_nonzero(name, params, model):
    # a derivative that vanishes is declared None, never returned as a dense zero
    optional = {f.name for f in dataclasses.fields(Transformation) if f.default is None}
    assert optional - {"charge"} == set(_OPTIONAL_CALLBACKS)
    t = build_transform(name, params, model)
    rng = np.random.default_rng(29)
    theta = random_params(model, rng)
    y = forward(model, theta)
    lam = rng.uniform(-0.3, 0.3, size=t.p)
    for cb in _OPTIONAL_CALLBACKS:
        fn = getattr(t, cb)
        if fn is not None:
            out = np.asarray(fn(lam, theta if cb.startswith("d2h") else y))
            assert np.any(out != 0.0), f"{name}.{cb} returns a dense zero"


# callback -> (map, block of the map's derivatives over the joint (lam, v))
_CALLBACK_BLOCKS = {
    "dh_dlambda": ("h", "l"), "dh_dtheta": ("h", "v"), "d2h_dlambda2": ("h", "ll"),
    "d2h_dlambda_dtheta": ("h", "lv"), "d2h_dtheta2": ("h", "vv"),
    "dg_dlambda": ("g", "l"), "dg_dy": ("g", "v"), "d2g_dlambda2": ("g", "ll"),
    "d2g_dlambda_dy": ("g", "lv"), "d2g_dy2": ("g", "vv"),
}
# the CASES generator is symmetric, so a dropped transpose would not show there
_ANTISYMMETRIC_REPARAM = (
    "linear_reparam", {"A": [[0.0, 0.7], [-0.7, 0.0]], "blocks": ["W1", "W2"]},
    build_model(ModelSpec("deep_linear", {"widths": [2, 2, 2]}, seed=8)))


def _joint_fd(fn, p, lam, v):
    """fd_oracle's first and second derivatives of ``fn(lam, v)`` over the
    joint point (lam, v), split into their lam and v blocks."""
    def per_point(z):  # catalog maps take one point at a time
        return np.stack([np.asarray(fn(row[:p], row[p:]), dtype=float) for row in z])

    z = np.concatenate([lam, v])
    J, H = de.fd_oracle(per_point, z, 1), de.fd_oracle(per_point, z, 2)
    return {"l": J[:p], "v": J[p:], "ll": H[:p, :p], "lv": H[:p, p:], "vv": H[p:, p:]}


@pytest.mark.parametrize("name,params,model", CASES + [_ANTISYMMETRIC_REPARAM],
                         ids=_IDS + ["linear_reparam_antisymmetric"])
def test_callbacks_match_fd_of_own_maps(name, params, model):
    # every callback, a declared zero included, against central differences
    # of h_eval over (lam, theta) or g_eval over (lam, y)
    assert set(_CALLBACK_BLOCKS) == set(MUTABLE_CALLBACKS)
    t = build_transform(name, params, model)
    rng = np.random.default_rng(43)
    for _ in range(2):
        theta = random_params(model, rng)
        y = forward(model, theta)
        lam = rng.uniform(-0.3, 0.3, size=t.p)
        ref = {"h": _joint_fd(t.h_eval, t.p, lam, theta), "g": _joint_fd(t.g_eval, t.p, lam, y)}
        for cb, (side, block) in _CALLBACK_BLOCKS.items():
            want = ref[side][block]
            fn = getattr(t, cb)
            got = np.zeros_like(want) if fn is None else fn(lam, theta if side == "h" else y)
            assert np.shape(got) == want.shape, cb
            gap = np.max(np.abs(got - want), initial=0.0)
            assert gap <= 1e-6 * max(1.0, np.max(np.abs(want), initial=0.0)), f"{cb}: {gap:.3e}"


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


@pytest.mark.parametrize(
    "name,params,model",
    [c for c in CASES if c[0] not in ("mirror", "sign_flip", "permutation")],
    ids=[i for i in _IDS if i not in ("mirror", "sign_flip", "permutation")],
)
def test_characteristic_direction_at_lam_zero_is_dh_dlambda(name, params, model):
    # every catalog chart is exactly I at lam = 0, so X there is dH/dlambda
    # bit for bit and gradient descent's orthogonality test reads the same bits
    t = build_transform(name, params, model)
    theta = random_params(model, np.random.default_rng(8))
    np.testing.assert_array_equal(t.dh_dtheta(np.zeros(t.p), theta), np.eye(t.d))
    np.testing.assert_array_equal(characteristic_direction(t, theta),
                                  t.dh_dlambda(np.zeros(t.p), theta))


def test_symmetry_characteristic_output_is_zero(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    assert t.is_symmetry
    y = forward(relu_mlp, relu_mlp.init_params)
    Y = characteristic_output(t, y, np.array([0.2]))
    np.testing.assert_array_equal(Y, np.zeros_like(Y))


def test_homogeneity_characteristic_oracle(relu_mlp):
    # exponential chart: X = theta and Y = m*y, at lam = 0
    t = build_transform("homogeneity_scaling", {}, relu_mlp)
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
    t = build_transform("homogeneity_scaling", {}, relu_mlp)
    y = forward(relu_mlp, relu_mlp.init_params)
    rep = good_position(t, relu_mlp.init_params, y, np.zeros(1))
    assert rep.ok
    assert rep.rcond_h > 1e-6 and rep.rcond_g > 1e-6

    td = build_transform("sign_flip", {"indices": [0]}, relu_mlp)
    rep_d = good_position(td, relu_mlp.init_params, y)
    assert not rep_d.ok
    assert rep_d.reason == "discrete"


@pytest.mark.parametrize("above, ok", [(0, True), (1, False)],
                         ids=["at_threshold", "just_below"])
def test_one_singularity_rule_at_the_threshold(monkeypatch, relu_mlp, above, ok):
    # RCOND_THRESHOLD set to dH/dtheta's own estimate, then to the next float
    # above it: invert_square, good_position, the chart data and
    # characteristic_direction all take the rule from _inverse_rcond, so they
    # agree on both sides of the threshold
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    theta, lam = relu_mlp.init_params, np.array([0.3])
    y = forward(relu_mlp, theta)
    jac = t.dh_dtheta(lam, theta)
    rcond_h, rcond_g = tc._inverse_rcond(jac)[1], tc._inverse_rcond(t.dg_dy(lam, y))[1]
    assert rcond_h < rcond_g == 1.0  # the rule is decided by dH/dtheta alone
    threshold = np.nextafter(rcond_h, np.inf) if above else rcond_h
    monkeypatch.setattr(tc, "RCOND_THRESHOLD", threshold)
    charts = tr._chart_inverses(t, theta, y, lam)
    assert charts.report == good_position(t, theta, y, lam)
    assert charts.report.ok is ok and charts.report.rcond_h == rcond_h
    if ok:
        np.testing.assert_array_equal(charts.hinv, tc.invert_square(jac))
        np.testing.assert_array_equal(charts.X, characteristic_direction(t, theta, lam))
        np.testing.assert_array_equal(charts.Y, characteristic_output(t, y, lam))
    else:
        assert charts.hinv is charts.X is charts.Y is None
        with pytest.raises(Singular):
            tc.invert_square(jac)
        with pytest.raises(NotGoodPosition):
            characteristic_direction(t, theta, lam)


def test_linear_reparam_takes_one_expm_per_lam(monkeypatch):
    # exp(lam G) of the block-diagonal generator serves every callback at one lam
    calls = []
    expm = tr._expm
    monkeypatch.setattr(tr, "_expm", lambda a: calls.append(1) or expm(a))
    name, params, model = CASES[2]
    t = build_transform(name, params, model)
    theta = random_params(model, np.random.default_rng(3))
    y = forward(model, theta)
    sides = {"h_eval": "h", "g_eval": "g", **{cb: side for cb, (side, _) in _CALLBACK_BLOCKS.items()}}

    def all_callbacks(lam):
        return [fn(lam, theta if side == "h" else y) for cb, side in sides.items()
                if (fn := getattr(t, cb)) is not None]

    first = all_callbacks(np.array([0.2]))
    assert len(calls) == 1
    all_callbacks(np.array([-0.1]))
    assert len(calls) == 2
    for got, want in zip(all_callbacks(np.array([0.2])), first):
        np.testing.assert_array_equal(got, want)
    assert len(calls) == 2


def test_expm_of_a_diagonal_is_math_exp_entry_by_entry():
    w = np.array([0.7, -1.3, 0.0, 2.5, -0.25])
    np.testing.assert_array_equal(tr._expm(np.diag(w)), np.diag([math.exp(x) for x in w]))


def test_expm_of_a_symmetric_generator_matches_its_eigendecomposition():
    rng = np.random.default_rng(5)
    B = rng.uniform(-1.0, 1.0, size=(6, 6))
    for lam in (0.3, -1.7):
        w, V = np.linalg.eigh(lam * (B + B.T))
        np.testing.assert_allclose(tr._expm(lam * (B + B.T)), (V * np.exp(w)) @ V.T,
                                   rtol=0, atol=1e-14 * np.exp(w).max())


def test_cached_group_matrices_are_read_only():
    mats = tr._exp_and_derivatives(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for F in mats:
        with pytest.raises(ValueError, match="read-only"):
            F(np.array([0.3]))[..., 0, 0] = 1.0


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


@pytest.mark.parametrize("name,params", [
    ("layer_rescaling", {"blocks": ["W1", "W1"]}),
    # a square block passes every shape check, so only the distinct-block check stops it
    ("linear_reparam", {"A": [[0.0, 0.7], [-0.7, 0.0]], "blocks": ["W1", "W1"]}),
], ids=["layer_rescaling", "linear_reparam"])
def test_block_pair_must_be_distinct(name, params):
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 2, 2]}, seed=18))
    with pytest.raises(InvalidParams, match="distinct"):
        build_transform(name, params, model)


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


def test_charge_value_is_inner_width_moment():
    name, params, model = CASES[2]
    charge = noether_charge(build_transform(name, params, model))
    theta = random_params(model, np.random.default_rng(13))
    W1, W2 = (theta[model.block(b).sl].reshape(model.block(b).shape) for b in ("W1", "W2"))
    A = np.array(params["A"])
    want = 0.5 * np.trace(A @ (W1 @ W1.T - W2.T @ W2))
    assert charge.c_eval(theta) == pytest.approx(want, rel=1e-14)


_OUTPUT_ACTION = "output action is nontrivial, so the loss is not invariant"


@pytest.mark.parametrize("name,params,model,reason", [
    (*CASES[0], _OUTPUT_ACTION),
    (*CASES[3], _OUTPUT_ACTION),
    (*CASES[4], "discrete transformation carries no conserved charge"),
    (*_ANTISYMMETRIC_REPARAM, "characteristic field is not a gradient (generator not symmetric)"),
], ids=["homogeneity_scaling", "last_layer_left_action", "mirror", "linear_reparam_antisymmetric"])
def test_no_charge_reason(name, params, model, reason):
    t = build_transform(name, params, model)
    assert t.charge is None and t.charge_reason == reason
    with pytest.raises(NotConservative, match=re.escape(reason)):
        noether_charge(t)


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
        # the Hessian of a stack is G itself, viewed read-only at every row
        hess = charge.hess(states)
        assert not hess.flags.writeable and hess.strides[:len(lead)] == (0,) * len(lead)


def test_diagonal_charge_gradient_is_the_entrywise_product():
    # every bundled charge has a diagonal G, where the one contraction G theta
    # gives the bits of g_i * theta_i, as the walk over G's nonzeros did
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=3))
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model)
    g = np.diagonal(t.charge.hess(np.zeros(model.d)))
    states = np.random.default_rng(5).uniform(-1.0, 1.0, size=(7, model.d))
    np.testing.assert_array_equal(t.charge.grad(states), g * states)
    np.testing.assert_array_equal(t.charge.grad(states[0]), g * states[0])


@pytest.mark.parametrize("name,params,model", _CHARGE_CASES,
                         ids=[c[0] for c in _CHARGE_CASES[:-1]] + ["layer_rescaling_wide"])
def test_charge_gradient_is_the_characteristic_direction(name, params, model):
    # grad C = G theta = X at lam = 0, a direction that leaves the model output
    # unchanged, so it is orthogonal to the gradient of every loss
    t = build_transform(name, params, model)
    charge = noether_charge(t)
    rng = np.random.default_rng(31)
    for _ in range(5):
        theta = random_params(model, rng)
        grad = charge.grad(theta)
        X = characteristic_direction(t, theta, np.zeros(1)).reshape(-1)
        np.testing.assert_allclose(grad, X, rtol=0, atol=1e-14 * np.abs(X).max())
        J = de.jacobian(model.func, theta)  # stored (d, c)
        assert np.abs(grad @ J).max() <= 1e-14 * np.linalg.norm(grad) * np.linalg.norm(J)


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


def test_mutated_transform_carries_no_charge(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    bad = mutate(t, "dh_dlambda", 1.01)
    with pytest.raises(NotConservative, match="dh_dlambda is mutated"):
        noether_charge(bad)
    assert noether_charge(t) is t.charge


@pytest.mark.parametrize("theta, lam", [
    (["3", -1.0], [0.1]), ([True, -1.0], [0.1]), ([3.0, -1.0], [True]), ([3.0, -1.0], "0.1"),
    ([3.0, float("inf")], [0.1]),
])
def test_positions_read_through_the_number_rule(probe_model, theta, lam):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    for call in (lambda: t.h(lam, theta), lambda: characteristic_direction(t, theta, lam),
                 lambda: good_position(t, theta, None, lam)):
        with pytest.raises(InvalidParams):
            call()


def test_mutate_unknown_callback(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    with pytest.raises(UnknownSpec):
        mutate(t, "dh_dtime", 1.01)
