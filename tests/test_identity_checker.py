"""Identity checks: hand-derived probe values, both derivative modes, guard
errors, suite determinism, serialization formats."""

import dataclasses
import json
import re
import types
from collections import Counter
from collections.abc import Mapping

import numpy as np
import pytest

import equichk.diff_engine as de
import equichk.identity_checker as ic
import equichk.tensor_core as tc
import equichk.transforms as tr
from equichk.errors import (
    CheckFailure,
    DegenerateLoss,
    InvalidParams,
    NonFiniteEntry,
    NotConverged,
    NotFactoredModel,
    NotFixedPoint,
    NotGoodPosition,
    SizeMismatch,
)
from equichk.identity_checker import (
    CHECK_ANCHORS,
    PlanEntry,
    SuiteSpec,
    check_discrete_first,
    check_discrete_second,
    check_eigen_alignment,
    check_first_order,
    check_homogeneity_specialization,
    check_last_layer_alignment,
    check_mirror,
    check_second_action,
    check_second_quadratic,
    default_suite,
    entry_misfits,
    evaluate_landscape,
    run_suite,
    sample_positions,
    sharpness_bound,
    stationary_null_count,
    write_reports_jsonl,
    write_summary_csv,
)
from equichk.models import ModelSpec, build_model, forward, make_loss
from equichk.transforms import (
    MUTABLE_CALLBACKS,
    _chart_inverses,
    build_transform,
    characteristic_direction,
    characteristic_output,
    fixed_point_project,
    mutate,
)

PROBE_THETA = np.array([3.0, -1.0])  # x^T theta = 1, |theta|^2 = 10


# ---------------------------------------------------------------------------
# the hand probe: every number below is pencil-and-paper
# ---------------------------------------------------------------------------

def test_probe_landscape_values(probe_model, probe_loss):
    # y = 1, l' = y - 2 = -1, l'' = 1, gradL = l' x, hessL = x x^T
    ev = evaluate_landscape(probe_model, probe_loss, PROBE_THETA)
    assert ev.value == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(ev.grad, [-1.0, -2.0], atol=1e-14)
    np.testing.assert_allclose(ev.hess, [[1.0, 2.0], [2.0, 4.0]], atol=1e-14)


def test_landscape_holds_the_hessian_against_its_assembly(probe_model, probe_loss):
    # a loss whose analytic Hessian is 1% off breaks hess(L) = hl o J o_2 J + gl o hess(f)
    off = dataclasses.replace(probe_loss, _hess=lambda y: 1.01 * probe_loss._hess(y))
    with pytest.raises(CheckFailure, match="hessian assembly self-check"):
        evaluate_landscape(probe_model, off, PROBE_THETA, "exact")
    evaluate_landscape(probe_model, probe_loss, PROBE_THETA, "exact")


# a factor past each mode's assembly tolerance (1e-10 exact, 1e-4 FD)
@pytest.mark.parametrize("mode, factor", [("exact", 1.0 + 1e-6), ("finite_difference", 1.01)])
@pytest.mark.parametrize("side", ["composite", "assembled"])
def test_one_shared_forward_keeps_the_two_routes_independent(relu_mlp, mode, factor, side):
    # the model and the composite loss come from one sweep, yet loss.apply
    # scaled on the composite route alone, or the analytic loss Hessian
    # scaled on the assembled route alone, still fails the assembly check
    loss = make_loss("square", target=0.7)
    thetas = [th for th, _ in sample_positions(relu_mlp, loss, count=2, seed=3, margin=1e-3)]
    ic.evaluate_landscapes(relu_mlp, loss, thetas, mode)
    if side == "composite":
        off = dataclasses.replace(loss, apply=lambda y: loss.apply(y) * factor)
    else:
        off = dataclasses.replace(loss, _hess=lambda y: factor * loss._hess(y))
    with pytest.raises(CheckFailure, match="hessian assembly self-check"):
        ic.evaluate_landscapes(relu_mlp, off, thetas, mode)


_SUITE_ENTRIES = default_suite().entries


@pytest.mark.parametrize("mode", ["exact", "finite_difference"])
@pytest.mark.parametrize("entry", _SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}" for i, e in enumerate(_SUITE_ENTRIES)])
def test_batched_landscapes_equal_one_position_landscapes(entry, mode):
    # every field at every position is bit for bit the one-position landscape;
    # in exact mode the whole batch is one sweep of the model with the
    # composite appended, i.e. one map evaluation
    built = ic._build_entry(entry)
    model, loss = built.model, built.loss
    thetas = [th for th, _ in sample_positions(model, loss, count=4, seed=entry.seed, margin=1e-3)]
    calls = []

    def counting(th):
        calls.append(1)
        return model.func(th)

    batch = ic.evaluate_landscapes(dataclasses.replace(model, func=counting), loss, thetas, mode)
    if mode == "exact":
        assert len(calls) == 1
    assert len(batch) == len(thetas)
    for th, got in zip(thetas, batch):
        want = evaluate_landscape(model, loss, th, mode)
        for f in dataclasses.fields(ic.LandscapeEval):
            if f.compare:
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.shape(a) == np.shape(b), f.name
                np.testing.assert_array_equal(a, b, err_msg=f.name)


def test_evaluate_landscapes_takes_any_number_of_positions(probe_model, probe_loss):
    # none gives none; one mis-sized theta fails the whole batch
    assert ic.evaluate_landscapes(probe_model, probe_loss, []) == []
    with pytest.raises(SizeMismatch):
        ic.evaluate_landscapes(probe_model, probe_loss, [PROBE_THETA, np.zeros(3)])


def test_probe_first_order_is_euler_relation(probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    rep = check_first_order(probe_model, probe_loss, t, PROBE_THETA)
    assert rep.passed
    assert rep.paper_anchor == "Thm 1 (i)"
    # <gradL, theta> = m y l' = -1 on both sides
    assert rep.rel_residual <= 1e-14


def test_probe_homogeneity_pair(probe_model, probe_loss):
    rep6, rep7 = check_homogeneity_specialization(probe_model, probe_loss, PROBE_THETA)
    assert rep6.passed and rep7.passed
    assert rep6.paper_anchor == "Eq. (6)" and rep7.paper_anchor == "Eq. (7)"
    # hessL theta = x (x^T theta) = (1, 2); coefficient = m y l''/l' + m-1 = -1
    assert rep6.context["coefficient"] == pytest.approx(-1.0, abs=1e-14)
    assert rep6.context["euler_gap"] <= 1e-14


def test_probe_eigen_alignment_alpha(probe_model, probe_loss):
    rep = check_eigen_alignment(probe_model, probe_loss, PROBE_THETA)
    assert rep.passed
    assert rep.context["alpha"] == pytest.approx(-1.0, abs=1e-14)
    assert rep.context["lambda_max"] == pytest.approx(5.0, abs=1e-12)


def test_probe_sharpness_bound(probe_model, probe_loss):
    bound, lam_max, rep = sharpness_bound(probe_model, probe_loss, PROBE_THETA)
    assert bound == pytest.approx(0.1, abs=1e-14)      # (m/|theta|^2) l'' m y^2
    assert lam_max == pytest.approx(5.0, abs=1e-12)    # |x|^2, rank-one Hessian
    assert rep.passed


def test_scalar_checks_read_loss_derivatives_from_their_landscape(probe_model, probe_loss):
    # handed a landscape, the three scalar-head checks take l'(y) and l''(y)
    # from it and call neither loss.grad nor loss.hess
    calls = Counter()

    def counted(name, fn):
        def wrapped(y):
            calls[name] += 1
            return fn(y)
        return wrapped

    loss = dataclasses.replace(probe_loss, _grad=counted("grad", probe_loss._grad),
                               _hess=counted("hess", probe_loss._hess))
    ev = evaluate_landscape(probe_model, loss, PROBE_THETA)
    assert calls == {"grad": 1, "hess": 1}
    calls.clear()
    check_homogeneity_specialization(probe_model, loss, PROBE_THETA, landscape=ev)
    check_eigen_alignment(probe_model, loss, PROBE_THETA, landscape=ev)
    sharpness_bound(probe_model, loss, PROBE_THETA, landscape=ev)
    assert calls == {}


# ---------------------------------------------------------------------------
# both derivative modes agree on the same statements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,tol", [("exact", 1e-12), ("finite_difference", 1e-5)])
def test_second_order_checks_both_modes(relu_mlp, mode, tol):
    loss = make_loss("square", target=-0.2)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    (th, lam), = sample_positions(relu_mlp, loss, t, count=1, seed=5,
                                  margin=1e-3 if mode == "finite_difference" else 1e-6)
    for fn in (check_first_order, check_second_action, check_second_quadratic):
        rep = fn(relu_mlp, loss, t, th, lam, mode=mode)
        assert rep.passed and rep.rel_residual <= tol, (fn.__name__, rep.rel_residual)
        assert rep.context["mode"] == mode


def test_nonsymmetry_has_nontrivial_output_terms():
    model = build_model(ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19))
    loss = make_loss("softmax_xent", n_classes=3, label=1)
    t = build_transform("last_layer_left_action", {}, model)
    (th, lam), = sample_positions(model, loss, t, count=1, seed=9)
    rep = check_second_action(model, loss, t, th, lam)
    assert rep.passed
    assert rep.context["is_symmetry"] is False


# ---------------------------------------------------------------------------
# guard errors
# ---------------------------------------------------------------------------

def test_discrete_requires_fixed_point(deep_linear_121):
    loss = make_loss("square", target=0.3)
    t = build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)
    theta = np.array([0.5, -0.3, 0.2, 0.9])  # not fixed
    with pytest.raises(NotFixedPoint):
        check_discrete_first(deep_linear_121, loss, t, theta)
    rep = check_discrete_first(deep_linear_121, loss, t, fixed_point_project(t, theta))
    assert rep.passed


def test_degenerate_loss_branch(probe_model):
    # square target exactly y(theta): l' = 0, Eq. (6) has no content
    loss = make_loss("square", target=1.0)
    with pytest.raises(DegenerateLoss):
        check_homogeneity_specialization(probe_model, loss, PROBE_THETA)


def test_last_layer_needs_factored_model(relu_mlp):
    loss = make_loss("square", target=0.1)
    with pytest.raises(NotFactoredModel):
        check_last_layer_alignment(relu_mlp, loss, relu_mlp.init_params)


def test_not_good_position_raised():
    model = build_model(ModelSpec("factored_last_layer", {"c": 2, "s": 3, "hidden": [2]}, seed=20))
    loss = make_loss("square", target=[0.4, 0.0])
    t = build_transform("last_layer_left_action", {}, model)
    lam_bad = (-np.eye(2)).reshape(-1)  # I + Lam = 0: output chart collapses
    with pytest.raises(NotGoodPosition):
        check_first_order(model, loss, t, model.init_params, lam_bad)


def test_stationary_check_requires_convergence(relu_mlp):
    loss = make_loss("square", target=-0.2)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    with pytest.raises(NotConverged):
        stationary_null_count(relu_mlp, loss, [t], relu_mlp.init_params)


def test_stationary_check_rejects_discrete(deep_linear_121):
    loss = make_loss("square", target=0.3)
    t = build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)
    with pytest.raises(InvalidParams):
        stationary_null_count(deep_linear_121, loss, [t], np.zeros(deep_linear_121.d))


def test_stationary_kappa_keeps_same_named_symmetries_apart():
    # two layer rescalings share a name; kappa is keyed by list position,
    # as a flow keys same-named charges, so neither overwrites the other
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 3, 1]}, seed=4))
    loss = make_loss("square", target=0.3)
    ts = [build_transform("layer_rescaling", {"blocks": b}, model)
          for b in (["W1", "W2"], ["W2", "W3"])]
    kappa = stationary_null_count(model, loss, ts, np.zeros(model.d)).context["kappa"]
    assert list(kappa) == ["layer_rescaling[0]", "layer_rescaling[1]"]
    for key, t in zip(kappa, ts):
        assert kappa[key] == stationary_null_count(model, loss, [t], np.zeros(model.d)
                                                   ).context["kappa"]["layer_rescaling"]
    assert kappa["layer_rescaling[0]"] == pytest.approx(2 * np.sqrt(2))
    assert kappa["layer_rescaling[1]"] == pytest.approx(3.0)


def test_stationary_check_reads_second_order_callbacks_from_the_charts(deep_linear_121):
    # d2h_dlambda_dtheta is taken once, with the charts at (lam, theta*), and
    # kappa reads it there instead of calling the callback again
    loss = make_loss("square", target=0.3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, deep_linear_121)
    calls = Counter()

    def counted(lam, v, orig=t.d2h_dlambda_dtheta):
        calls["d2h_dlambda_dtheta"] += 1
        return orig(lam, v)

    counting = dataclasses.replace(t, d2h_dlambda_dtheta=counted)
    zero = np.zeros(deep_linear_121.d)
    rep = stationary_null_count(deep_linear_121, loss, [counting], zero)
    assert calls["d2h_dlambda_dtheta"] == 1
    assert rep.context["kappa"] == stationary_null_count(deep_linear_121, loss, [t], zero
                                                         ).context["kappa"]


def test_mirror_orthonormal_and_fixed_guards(deep_linear_121):
    loss = make_loss("square", target=-0.4)
    O = np.array([[1.0], [1.0], [0.0], [0.0]])  # not unit
    with pytest.raises(InvalidParams):
        check_mirror(deep_linear_121, loss, O, np.zeros(4))
    O = np.array([[1.0], [0.0], [0.0], [0.0]])
    with pytest.raises(NotFixedPoint):
        check_mirror(deep_linear_121, loss, O, np.array([0.5, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("skew, ok", [(8e-11, True), (2e-10, False)])
def test_mirror_builder_and_check_share_one_orthonormality_rule(deep_linear_121, skew, ok):
    # an 8e-11 overlap passes max |O^T O - I| <= 1e-10 though its Frobenius gap is 1.1e-10
    columns = [[1.0, 0.0, 0.0, 0.0], [skew, 0.0, 1.0, 0.0]]
    loss, theta = make_loss("square", target=-0.4), np.array([0.0, 0.5, 0.0, 0.7])
    if ok:
        build_transform("mirror", {"columns": columns}, deep_linear_121)
        assert check_mirror(deep_linear_121, loss, np.array(columns).T, theta).passed
    else:
        with pytest.raises(InvalidParams):
            build_transform("mirror", {"columns": columns}, deep_linear_121)
        with pytest.raises(InvalidParams):
            check_mirror(deep_linear_121, loss, np.array(columns).T, theta)


# ---------------------------------------------------------------------------
# discrete + mirror + last layer at honest positions
# ---------------------------------------------------------------------------

def test_mirror_structure_on_projected_point(deep_linear_121):
    loss = make_loss("square", target=-0.4)
    O = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    rng = np.random.default_rng(2)
    theta = rng.uniform(-1.0, 1.0, 4)
    theta -= O @ (O.T @ theta)
    rep = check_mirror(deep_linear_121, loss, O, theta)
    assert rep.passed and rep.rel_residual <= 1e-12
    assert rep.context["conjugation_agreement_gap"] <= 1e-14


def test_discrete_second_on_relu_neuron_swap():
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=23))
    loss = make_loss("square", target=0.5)
    t = build_transform("permutation", {"perm": [2, 3, 0, 1, 5, 4]}, model)
    (th, _), = sample_positions(model, loss, t, count=1, seed=13)
    rep = check_discrete_second(model, loss, t, th)
    assert rep.passed and rep.rel_residual <= 1e-12
    assert rep.context["blue_correction_norm"] == 0.0  # theta-linear catalog


def _dense_zeros(t):
    """``t`` with each callback it declares zero written out as a dense zero."""
    p, d, c = t.p, t.d, t.c
    shapes = {"d2h_dtheta2": (d, d, d), "d2h_dlambda_dtheta": (p, d, d),
              "d2h_dlambda2": (p, p, d), "dg_dlambda": (p, c), "d2g_dy2": (c, c, c),
              "d2g_dlambda_dy": (p, c, c), "d2g_dlambda2": (p, p, c)}
    zeros = {cb: (lambda shape: lambda lam, v: np.zeros(shape))(shape)
             for cb, shape in shapes.items() if getattr(t, cb) is None}
    assert zeros  # every catalog entry declares at least d2h_dtheta2 zero
    return dataclasses.replace(t, **zeros)


def test_declared_zeros_report_the_bits_of_dense_zeros(deep_linear_121):
    cases = [
        (ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11),
         make_loss("square", target=0.7), "homogeneity_scaling", {}),
        (ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=16),
         make_loss("square", target=[0.1, 0.5]), "layer_rescaling", {"blocks": ["W1", "W2"]}),
        (ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19),
         make_loss("softmax_xent", n_classes=3, label=1), "last_layer_left_action", {}),
        (ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=23),
         make_loss("square", target=0.5), "permutation", {"perm": [2, 3, 0, 1, 5, 4]}),
    ]
    for spec, loss, name, params in cases:
        model = build_model(spec)
        t = build_transform(name, params, model)
        (th, lam), = sample_positions(model, loss, t, count=1, seed=13)
        checks = ((check_discrete_second,) if t.kind == "discrete"
                  else (check_second_action, check_second_quadratic))
        for check in checks:
            args = (th,) if t.kind == "discrete" else (th, lam)
            declared = check(model, loss, t, *args).to_json_dict()
            assert check(model, loss, _dense_zeros(t), *args).to_json_dict() == declared, name
    # theta = 0 is stationary for a deep linear chain, so kappa is computed there
    loss = make_loss("square", target=0.3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, deep_linear_121)
    reps = [stationary_null_count(deep_linear_121, loss, [s], np.zeros(deep_linear_121.d))
            for s in (t, _dense_zeros(t))]
    assert reps[0].to_json_dict() == reps[1].to_json_dict()


def test_last_layer_alignment_softmax():
    model = build_model(ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19))
    loss = make_loss("softmax_xent", n_classes=3, label=1)
    rep = check_last_layer_alignment(model, loss, model.init_params, trials=20, seed=4)
    assert rep.passed
    assert rep.context["softmax_variance_gap"] <= 1e-12


# ---------------------------------------------------------------------------
# sampling and suites
# ---------------------------------------------------------------------------

def test_sample_positions_deterministic(relu_mlp):
    loss = make_loss("square", target=0.7)
    t = build_transform("homogeneity_scaling", {}, relu_mlp)
    a = sample_positions(relu_mlp, loss, t, count=3, seed=17)
    b = sample_positions(relu_mlp, loss, t, count=3, seed=17)
    for (tha, lama), (thb, lamb) in zip(a, b):
        np.testing.assert_array_equal(tha, thb)
        np.testing.assert_array_equal(lama, lamb)


@pytest.mark.parametrize("count", [2.5, True, 0, -1, "2"])
def test_sample_positions_refuses_a_count_that_is_not_a_positive_integer(probe_model, count):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    with pytest.raises(InvalidParams, match="count"):
        sample_positions(probe_model, make_loss("square", target=2.0), t, count=count)


@pytest.mark.parametrize("theta, lam", [
    (["3", -1.0], [True]), (["3", -1.0], [0.1]), ([3.0, -1.0], [True]),
    ([3.0, float("nan")], [0.1]), ([3.0, -1.0], ["0.1"]),
], ids=["both", "theta_string", "lam_bool", "theta_nan", "lam_string"])
def test_checks_refuse_positions_that_are_not_numbers(probe_model, theta, lam):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    with pytest.raises(InvalidParams):
        check_first_order(probe_model, make_loss("square", target=2.0), t, theta, lam)


def test_checks_take_float_array_positions_as_they_are(probe_model):
    # a float array is not re-read, and its landscape refuses a NaN
    t = build_transform("homogeneity_scaling", {}, probe_model)
    loss = make_loss("square", target=2.0)
    assert check_first_order(probe_model, loss, t, np.array([3.0, -1.0]), np.array([0.1])).passed
    with pytest.raises(NonFiniteEntry):
        check_first_order(probe_model, loss, t, np.array([3.0, np.nan]), np.array([0.1]))


def test_sample_positions_projects_discrete(deep_linear_121):
    loss = make_loss("square", target=0.3)
    t = build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)
    for th, lam in sample_positions(deep_linear_121, loss, t, count=4, seed=3):
        assert lam is None
        np.testing.assert_allclose(t.h(None, th), th, atol=1e-14)


def test_default_suite_all_pass_and_deterministic(tmp_path):
    plan = default_suite(master_seed=0, positions=2)
    reports = run_suite(plan)
    assert reports and all(r.passed for r in reports)

    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_reports_jsonl(reports, p1)
    write_reports_jsonl(run_suite(plan), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_suite_rejects_misfit_entry_before_sampling(monkeypatch):
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    good = default_suite(positions=1).entries
    assert all(entry_misfits(ic._build_entry(e)) == [] for e in good)
    misfit = PlanEntry(
        model=ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=22),
        loss="square", loss_params={"target": 0.3},
        transform="sign_flip", transform_params={"indices": [0, 2]},
        checks=("discrete_first", "first_order"),
    )
    with pytest.raises(InvalidParams, match=r"plan entry 14: checks\[1\]: first_order needs"):
        run_suite(SuiteSpec(entries=good + (misfit,)))
    assert sampled == []


def test_run_suite_rejects_a_loss_that_does_not_fit_before_sampling(monkeypatch):
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    entry = PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11),
                      loss="square", loss_params={"target": [0.1, 0.2]},
                      transform="homogeneity_scaling", checks=("first_order",))
    with pytest.raises(InvalidParams, match="plan entry 0: loss: a square loss on 2 outputs "
                                            "does not fit homogeneous_relu_mlp, which has 1"):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []


_PROBE_ENTRY = PlanEntry(model=ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21),
                        loss="square", loss_params={"target": 2.0},
                        transform="homogeneity_scaling",
                        checks=("first_order", "second_action"), positions=2, seed=11)


@pytest.mark.parametrize("setting, where", [
    ({"positions": 0}, "positions"),
    ({"checks": ()}, "checks"),
    ({"positions": True}, "positions"),
    ({"tolerances": {"first_order": -1.0}}, "tolerances.first_order"),
    ({"tolerances": {"first_order": float("nan")}}, "tolerances.first_order"),
    ({"mutation": {"callback": "bogus", "scale": 1.01}}, "mutation.callback"),
    ({"mutation": {"callback": "dh_dlambda"}}, "mutation"),
    ({"positions": 2.5}, "positions"),
    ({"seed": -1}, "seed"),
    ({"mutation": {"callback": "dh_dlambda", "scale": float("inf")}}, "mutation.scale"),
], ids=["positions_zero", "checks_empty", "positions_bool", "tolerance_negative",
        "tolerance_nan", "mutation_callback_unknown", "mutation_without_scale",
        "positions_float", "seed_negative", "mutation_scale_infinite"])
def test_run_suite_rejects_an_unrunnable_setting_before_sampling(monkeypatch, setting, where):
    # each setting the CLI refuses is refused by the library itself, so a
    # plan built in Python cannot run it either
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    assert entry_misfits(ic._build_entry(_PROBE_ENTRY)) == []
    entry = dataclasses.replace(_PROBE_ENTRY, **setting)
    assert [path for path, _ in entry_misfits(ic._build_entry(entry))] == [where]
    with pytest.raises(InvalidParams, match=rf"plan entry 0: {re.escape(where)}: "):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []


def test_run_suite_rejects_a_fixed_set_on_a_kink_before_sampling(monkeypatch):
    # every draw is projected onto the fixed set, where flipping two of W2's
    # rows zeroes their hidden units at every draw: the sampler would give
    # up after 100 draws, so the entry is refused at validation
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    entry = PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [1, 1, 3, 1]}, seed=0),
                      loss="square", loss_params={"target": 0.3},
                      transform="sign_flip", transform_params={"indices": [3, 2]},
                      checks=("discrete_first", "discrete_second"))
    assert [path for path, _ in entry_misfits(ic._build_entry(entry))] == ["transform.params"]
    with pytest.raises(InvalidParams, match=r"plan entry 0: transform.params: the fixed set of "
                                            r"sign_flip puts a ReLU unit .* on its kink"):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []
    # one flipped row of the output layer leaves every hidden unit free
    free = dataclasses.replace(entry, transform_params={"indices": [5]})
    assert entry_misfits(ic._build_entry(free)) == []


def test_a_kink_the_fixed_set_does_not_force_is_not_refused():
    # at seed 0 the one layer-2 unit of [1, 1, 1, 2, 1] is dead at
    # init_params, so both layer-3 units sit on the kink there, projected or
    # not; swapping the layer-3 units leaves W1 and W2 free, so other draws
    # clear the kink and the entry samples its positions
    entry = PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [1, 1, 1, 2, 1]}, seed=0),
                      loss="square", loss_params={"target": 0.3},
                      transform="permutation", transform_params={"perm": [0, 1, 3, 2, 5, 4]},
                      checks=("discrete_first", "discrete_second"))
    built = ic._build_entry(entry)
    assert built.model.kink_margin(fixed_point_project(built.transform,
                                                       built.model.init_params)) == 0.0
    assert entry_misfits(built) == []
    assert len(ic.sample_positions(built.model, built.loss, built.transform, count=3)) == 3
    # an input of zero puts every unit on its kink whatever the transform
    # does: the model, not the fixed set, holds it there, so the fixed set
    # is not blamed
    zero = dataclasses.replace(entry, model=ModelSpec(
        "homogeneous_relu_mlp", {"widths": [1, 1, 3, 1], "input": [0.0]}, seed=0),
        transform="sign_flip", transform_params={"indices": [3, 2]})
    assert entry_misfits(ic._build_entry(zero)) == []


def test_run_suite_rejects_a_fixed_set_on_a_degenerate_head_before_sampling(monkeypatch):
    # flipping both inputs' weights of a linear probe fixes theta = 0, where
    # y = 0 puts the degree-1 head on m y l'' + (m-1) l' = 0 at every draw:
    # the sampler would give up after 100 draws, so the entry is refused
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    entry = PlanEntry(model=ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21),
                      loss="square", loss_params={"target": 2.0},
                      transform="sign_flip", transform_params={"indices": [0, 1]},
                      checks=("discrete_first", "homogeneity"))
    assert [path for path, _ in entry_misfits(ic._build_entry(entry))] == ["transform.params"]
    with pytest.raises(InvalidParams, match=r"plan entry 0: transform.params: the fixed set of "
                                            r"sign_flip holds the scalar head of linear_probe"):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []
    # without a scalar-head check nothing needs the head clear, and one
    # flipped weight leaves y free
    for free in (dataclasses.replace(entry, checks=("discrete_first", "discrete_second")),
                 dataclasses.replace(entry, transform_params={"indices": [0]})):
        assert entry_misfits(ic._build_entry(free)) == []


@pytest.mark.parametrize("mode", ["exact", "finite_difference"])
def test_default_suite_entries_are_admitted_without_the_head_rule(monkeypatch, mode):
    # no catalog entry pairs a discrete involution with a scalar-head check,
    # so validation never samples a head for the fixed-set rule
    calls = []
    real = ic._head_clear
    monkeypatch.setattr(ic, "_head_clear", lambda *a: calls.append(a) or real(*a))
    assert all(entry_misfits(ic._build_entry(e)) == []
               for e in default_suite(positions=1, mode=mode).entries)
    assert calls == []


@pytest.mark.parametrize("mode", ["exact", "finite_difference"])
def test_default_suite_discrete_entries_are_not_refused(mode):
    discrete = [e for e in default_suite(positions=1, mode=mode).entries
                if e.transform in ("sign_flip", "permutation", "mirror")]
    assert len(discrete) == 3
    assert any(build_model(e.model).kink_margin is not None for e in discrete)
    assert all(entry_misfits(ic._build_entry(e)) == [] for e in discrete)


def test_run_suite_rejects_a_non_involution_before_sampling(monkeypatch):
    # a 3-cycle of hidden units has no fixed-point projection, so the
    # discrete rows refuse it instead of faulting mid-run
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    entry = PlanEntry(model=ModelSpec("deep_linear", {"widths": [1, 3, 1]}, seed=22),
                      loss="square", loss_params={"target": 0.3},
                      transform="permutation", transform_params={"perm": [1, 2, 0, 4, 5, 3]},
                      checks=("discrete_first", "discrete_second"))
    with pytest.raises(InvalidParams, match=r"plan entry 0: checks\[0\]: discrete_first needs "
                                            r"a discrete involution.*checks\[1\]"):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []


@pytest.mark.parametrize("model, transform, checks", [
    (ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21), None, ("homogeneity",)),
    (ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21), "homogeneity_scaling", ("homogeneity",)),
    # the mirror row reads the transform's columns, never its callbacks
    (ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=24), "mirror", ("mirror",)),
], ids=["no_transform", "no_transform_check", "mirror_only"])
def test_run_suite_rejects_a_mutation_no_check_reads(monkeypatch, model, transform, checks):
    sampled = []
    monkeypatch.setattr(ic, "sample_positions", lambda *a, **k: sampled.append(a) or [])
    params = {"columns": [[1.0, 0.0, 0.0, 0.0]]} if transform == "mirror" else {}
    entry = PlanEntry(model=model, loss="square", loss_params={"target": 2.0},
                      transform=transform, transform_params=params, checks=checks,
                      mutation={"callback": "dh_dlambda", "scale": 100.0})
    with pytest.raises(InvalidParams, match="plan entry 0: mutation: "):
        run_suite(SuiteSpec(entries=(entry,)))
    assert sampled == []


def test_run_suite_evaluates_one_landscape_per_position(monkeypatch):
    # one batched call per entry, holding every sampled position once
    positions, batches = [], []
    real_sample, real_evaluate = ic.sample_positions, ic.evaluate_landscapes

    def sample(*args, **kwargs):
        out = real_sample(*args, **kwargs)
        positions.append([th for th, _ in out])
        return out

    def evaluate(model, loss, thetas, mode="exact"):
        batches.append(list(thetas))
        return real_evaluate(model, loss, thetas, mode)

    monkeypatch.setattr(ic, "sample_positions", sample)
    monkeypatch.setattr(ic, "evaluate_landscapes", evaluate)
    plan = default_suite(positions=2)
    reports = run_suite(plan)
    assert reports and all(r.passed for r in reports)
    assert len(positions) == len(batches) == len(plan.entries)
    for sampled, batch in zip(positions, batches):
        assert len(sampled) == len(batch) == 2
        for th, at in zip(sampled, batch):
            np.testing.assert_array_equal(th, at)


def test_run_suite_shares_transform_data_and_spectrum(monkeypatch):
    """Each position's chart inverses are the sampler's: no check inverts a
    chart Jacobian again.  Each position builds the second-order terms once
    and takes the Hessian spectrum once, however many checks read them."""
    counts, sampling = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name if not sampling else "sampler_" + name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def sample(*args, **kwargs):
        sampling.append(True)
        try:
            return real_sample(*args, **kwargs)
        finally:
            sampling.pop()

    real_sample = ic.sample_positions
    monkeypatch.setattr(ic, "sample_positions", sample)
    monkeypatch.setattr(tr, "_inverse_rcond", counted("inverse", tr._inverse_rcond))
    monkeypatch.setattr(ic, "_chart_inverses", counted("chart_test", ic._chart_inverses))
    monkeypatch.setattr(ic, "spectral_summary", counted("spectrum", ic.spectral_summary))
    monkeypatch.setattr(ic, "_second_order", counted("second_order", ic._second_order))
    positions = 2
    plan = default_suite(positions=positions)
    reports = run_suite(plan)
    assert reports and all(r.passed for r in reports)

    continuous = sum(ic._build_entry(e).transform.kind == "continuous"
                     for e in plan.entries if e.transform is not None)
    scalar = sum("eigen_alignment" in e.checks for e in plan.entries)
    assert (continuous, scalar) == (11, 4)
    assert counts["sampler_chart_test"] >= continuous * positions
    assert counts == {"sampler_inverse": 2 * counts["sampler_chart_test"],
                      "sampler_chart_test": counts["sampler_chart_test"],
                      "second_order": continuous * positions,
                      "spectrum": scalar * positions}


def test_suite_takes_one_expm_per_generator_and_lam(monkeypatch):
    # criterion 01's trio at 20 positions: the sampler's charts carry the
    # second-order callbacks, so the checks never ask a group for its
    # matrices at a lam again and each (generator, lam) pair is one _expm
    calls = []
    expm = tr._expm
    monkeypatch.setattr(tr, "_expm", lambda a: calls.append(a.tobytes()) or expm(a))
    trio = ("first_order", "second_action", "second_quadratic")
    entries = tuple(dataclasses.replace(e, checks=trio, positions=20)
                    for e in default_suite().entries if "first_order" in e.checks)
    reports = run_suite(SuiteSpec(entries, master_seed=0))
    assert len(reports) == 11 * 20 * 3 and all(r.passed for r in reports)
    assert len(set(calls)) == 280
    assert len(calls) == 280


def test_standalone_checks_match_the_suite(monkeypatch):
    """Every registry row, called without ``landscape=`` at the suite's
    (theta, lam), reports exactly what the suite reported, a mutated
    transform included; the suite still fails the mutated one."""
    points = []

    def recording(row):
        def run(point):
            out = row.run(point)
            points.append((row, point, out))
            return out
        return dataclasses.replace(row, run=run)

    for name, row in list(ic.CHECK_REGISTRY.items()):
        monkeypatch.setitem(ic.CHECK_REGISTRY, name, recording(row))
    mutated = PlanEntry(
        model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=15),
        loss="square", loss_params={"target": -0.2},
        transform="layer_rescaling", transform_params={"blocks": ["W1", "W2"]},
        checks=("first_order", "second_action", "second_quadratic"),
        positions=1, seed=5, mutation={"callback": "dh_dlambda", "scale": 1.01},
    )
    plan = default_suite(positions=1)
    reports = run_suite(SuiteSpec(entries=plan.entries + (mutated,)))
    assert not all(r.passed for r in reports[-3:])
    assert all(r.passed for r in reports[:-3])

    assert {row.name for row, _, _ in points} == set(ic.CHECK_REGISTRY)
    for row, point, out in points:
        assert "landscape" in point.kw
        kw = {k: v for k, v in point.kw.items() if k != "landscape"}
        alone = row.run(dataclasses.replace(point, kw=kw))
        suite_reports = out if row.n_reports > 1 else (out,)
        alone_reports = alone if row.n_reports > 1 else (alone,)
        for a, b in zip(suite_reports, alone_reports):
            assert a.to_json_dict() == b.to_json_dict(), row.name


def test_mutated_transform_never_reuses_the_clean_entry(relu_mlp):
    loss = make_loss("square", target=-0.2)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    bad = mutate(t, "dh_dlambda", 1.01)
    (th, lam), = sample_positions(relu_mlp, loss, t, count=1, seed=5)
    ev = evaluate_landscape(relu_mlp, loss, th)
    assert check_second_action(relu_mlp, loss, t, th, lam, landscape=ev).passed
    shared = check_second_action(relu_mlp, loss, bad, th, lam, landscape=ev)
    assert not shared.passed
    assert shared == check_second_action(relu_mlp, loss, bad, th, lam)


@pytest.mark.parametrize("other, mode", [("theta", "exact"), ("mode", "finite_difference")])
def test_checks_reject_a_landscape_from_elsewhere(monkeypatch, other, mode):
    """Every registry row, handed a landscape at another theta or in the
    other derivative mode, refuses it."""
    real_evaluate = ic.evaluate_landscapes

    def foreign(model, loss, thetas, mode="exact"):
        if other == "theta":
            return real_evaluate(model, loss, [np.asarray(th) + 0.01 for th in thetas], mode)
        return real_evaluate(model, loss, thetas, "exact")

    monkeypatch.setattr(ic, "evaluate_landscapes", foreign)
    tried = set()
    for entry in default_suite(positions=1, mode=mode).entries:
        for name in entry.checks:
            single = SuiteSpec(entries=(dataclasses.replace(entry, checks=(name,)),))
            with pytest.raises(InvalidParams, match="landscape was evaluated"):
                run_suite(single)
            tried.add(name)
    assert tried == set(ic.CHECK_REGISTRY)


def test_mutated_entry_fails(relu_mlp):
    entry = PlanEntry(
        model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=15),
        loss="square", loss_params={"target": -0.2},
        transform="layer_rescaling", transform_params={"blocks": ["W1", "W2"]},
        checks=("first_order", "second_action", "second_quadratic"),
        positions=3, seed=5,
        mutation={"callback": "dh_dlambda", "scale": 1.01},
    )
    reports = run_suite(SuiteSpec(entries=(entry,), master_seed=0))
    assert any(not r.passed for r in reports)


# ---------------------------------------------------------------------------
# every layer passes plain float64 arrays; non-finite callback outputs raise
# ---------------------------------------------------------------------------

def test_every_layer_returns_float64_arrays(relu_mlp):
    loss = make_loss("square", target=0.7)
    t = build_transform("homogeneity_scaling", {}, relu_mlp)
    (th, lam), = sample_positions(relu_mlp, loss, t, count=1, seed=3)
    y = forward(relu_mlp, th)
    charts = _chart_inverses(t, th, y, lam)
    X = characteristic_direction(t, th, lam)
    _, grad, hess = de.grad_and_hessian_of_loss(relu_mlp, loss, th)
    ev = evaluate_landscape(relu_mlp, loss, th)
    fd = "finite_difference"
    outputs = {
        "jacobian": de.jacobian(relu_mlp.func, th),
        "second_derivative": de.second_derivative(relu_mlp.func, th),
        "jacobian_fd": de.jacobian(relu_mlp.func, th, fd),
        "fd_oracle": de.fd_oracle(relu_mlp.func, th, 2),
        "loss_grad": grad, "loss_hess": hess,
        "forward": y,
        "characteristic_direction": X,
        "characteristic_output": characteristic_output(t, y, lam),
        "chart_hinv": charts.hinv, "chart_ginv": charts.ginv,
        "compose": tc.compose(grad, X),
        "compose_scalar": tc.compose(np.array(2.0), np.array(3.0)),
        "compose_k": tc.compose_k(hess, X, 2),
        "invert_square": tc.invert_square(2.0 * np.eye(3)),
        **{f"landscape.{f.name}": getattr(ev, f.name) for f in dataclasses.fields(ev)
           if f.name not in ("value", "mode", "_memo")},
    }
    for name, out in outputs.items():
        assert type(out) is np.ndarray and out.dtype == np.float64, name


_NON_FINITE = ("NonFiniteEntry",) * 3
_SECOND_ORDER_ONLY = ("pass", "NonFiniteEntry", "NonFiniteEntry")  # first order never reads it
# the callbacks each transform declares identically zero (None): mutate keeps
# them None, so no check reads the NaN and every outcome is a pass
_DECLARED_ZERO = {
    "homogeneity_scaling": ("d2h_dtheta2", "d2g_dy2"),
    "layer_rescaling": ("d2h_dtheta2", "dg_dlambda", "d2g_dy2", "d2g_dlambda_dy", "d2g_dlambda2"),
}


@pytest.mark.parametrize("name, params, dg_dlambda", [
    ("homogeneity_scaling", {}, _NON_FINITE),
    # a symmetry's Y is zero without reading dG/dlambda
    ("layer_rescaling", {"blocks": ["W1", "W2"]}, ("pass",) * 3),
])
def test_nan_callback_outcomes(name, params, dg_dlambda):
    """Each derivative callback made to return NaN: any callback a check
    reads, a chart Jacobian included, raises NonFiniteEntry."""
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11))
    loss = make_loss("square", target=0.7)
    t = build_transform(name, params, model)
    (th, lam), = sample_positions(model, loss, t, count=1, seed=3)
    expected = {cb: _SECOND_ORDER_ONLY for cb in MUTABLE_CALLBACKS}
    expected.update({cb: ("pass",) * 3 for cb in _DECLARED_ZERO[name]})
    expected.update(dh_dtheta=_NON_FINITE, dg_dy=_NON_FINITE, dh_dlambda=_NON_FINITE,
                    dg_dlambda=dg_dlambda)
    for cb in MUTABLE_CALLBACKS:
        bad = mutate(t, cb, float("nan"))
        outcomes = []
        for check in (check_first_order, check_second_action, check_second_quadratic):
            try:
                outcomes.append("pass" if check(model, loss, bad, th, lam).passed else "fail")
            except Exception as exc:  # noqa: BLE001 -- the outcome is the exception type
                outcomes.append(type(exc).__name__)
        assert tuple(outcomes) == expected[cb], cb


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("caller", ["good_position", "check_first_order", "sample_positions"])
@pytest.mark.parametrize("callback", ["dh_dtheta", "dg_dy"])
def test_a_non_finite_chart_jacobian_raises_non_finite_entry(callback, caller):
    # the chart Jacobians are checked finite like every other callback, so
    # the sampler and every check give characteristic_direction's verdict
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11))
    loss = make_loss("square", target=0.7)
    t = build_transform("homogeneity_scaling", {}, model)
    (th, lam), = sample_positions(model, loss, t, count=1, seed=3)
    bad = mutate(t, callback, float("nan"))
    run = {"good_position": lambda: tr.good_position(bad, th, forward(model, th), lam),
           "check_first_order": lambda: check_first_order(model, loss, bad, th, lam),
           "sample_positions": lambda: sample_positions(model, loss, bad, count=1, seed=3)}
    with pytest.raises(NonFiniteEntry):
        run[caller]()


def test_a_symmetry_whose_g_side_terms_do_not_vanish_fails_the_term_check(relu_mlp):
    loss = make_loss("square", target=0.7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    (th, lam), = sample_positions(relu_mlp, loss, t, count=1, seed=3)
    bad = dataclasses.replace(t, d2g_dlambda_dy=lambda lam, y: np.ones((1, 1, 1)))
    with pytest.raises(CheckFailure, match="term-dropping inconsistency"):
        check_second_action(relu_mlp, loss, bad, th, lam)


def _first_call_returns(value, real):
    """``real``, except that its first call returns ``value``."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        return value if len(calls) == 1 else real(*args)
    return wrapped


def test_sampler_redraws_a_position_whose_chart_is_singular(relu_mlp):
    # the first draw's dH/dtheta is singular, so the one position kept is the
    # clean sampler's second
    loss = make_loss("square", target=0.7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    clean = sample_positions(relu_mlp, loss, t, count=2, seed=5)
    bad = dataclasses.replace(
        t, dh_dtheta=_first_call_returns(np.zeros((relu_mlp.d, relu_mlp.d)), t.dh_dtheta))
    (th, lam), = sample_positions(relu_mlp, loss, bad, count=1, seed=5)
    np.testing.assert_array_equal(th, clean[1][0])
    np.testing.assert_array_equal(lam, clean[1][1])


def test_sampler_redraws_a_degenerate_head(monkeypatch, deep_linear_121):
    loss = make_loss("square", target=0.3)
    clean = sample_positions(deep_linear_121, loss, None, count=2, seed=5,
                             require_nondegenerate=True)
    monkeypatch.setattr(ic, "_head_margins", _first_call_returns((0.0, 0.0), ic._head_margins))
    (th, lam), = sample_positions(deep_linear_121, loss, None, count=1, seed=5,
                                  require_nondegenerate=True)
    np.testing.assert_array_equal(th, clean[1][0])
    assert lam is None


def test_sampler_gives_up_when_no_draw_is_good(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    bad = dataclasses.replace(t, dh_dtheta=lambda lam, th: np.zeros((relu_mlp.d, relu_mlp.d)))
    with pytest.raises(NotGoodPosition, match=f"in {ic._MAX_TRIES} tries"):
        sample_positions(relu_mlp, None, bad, count=1, seed=5)


def test_report_json_uses_pass_key(probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    rep = check_first_order(probe_model, probe_loss, t, PROBE_THETA)
    d = rep.to_json_dict()
    assert d["pass"] is True and "passed" not in d
    json.dumps(d)  # everything is plain-JSON serializable


def _jsonable_reference(v):
    """The recursive walk that made a report context plain JSON before json's
    encoder wrote it through ``models._json_value``: the reference for the
    bytes of ``reports.jsonl``."""
    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable_reference(x) for x in v.tolist()]
    if isinstance(v, Mapping):
        return {str(k): _jsonable_reference(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable_reference(x) for x in v]
    return str(v)


def _report_with(context) -> ic.IdentityReport:
    return ic.IdentityReport("check_first_order", "Thm 1 (i)", 2.0, 2.0, 1e-16, 5e-17, 1e-10,
                             True, context)


def _written_line(tmp_path, context) -> str:
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl([_report_with(context)], path)
    (line,) = path.read_text().splitlines()
    return line


_CONTEXT_VALUES = {
    "np_float64": np.float64(0.1),
    "np_float32": np.float32(0.1),
    "np_int64": np.int64(-7),
    "vector": np.array([1.5, -2.0, 1e-300]),
    "int_vector": np.arange(3),
    "float32_vector": np.array([0.1, 3e38], dtype=np.float32),
    "matrix": np.arange(6.0).reshape(2, 3) / 7.0,
    "tuple": (1, np.float64(2.5), "relu", (np.int64(4),)),
    "nested": {"a": {"b": [np.int64(1), None, (np.float32(0.25),)]}, "c": np.array([3.0])},
    "mapping_proxy": types.MappingProxyType({"k": np.int64(2), "v": np.array([0.5])}),
    "none": None,
    "nan": float("nan"),
    "np_nan": np.float64("nan"),
    "inf": np.inf,
    "minus_inf": -np.inf,
    "nan_vector": np.array([np.nan, np.inf, -np.inf]),
    "plain": [0.5, 1.25, True, "name", 3],
    "other_object": range(3),
}


@pytest.mark.parametrize("key", ["all"] + sorted(_CONTEXT_VALUES))
def test_reports_jsonl_bytes_equal_the_reference_walk(tmp_path, key):
    context = dict(_CONTEXT_VALUES) if key == "all" else {key: _CONTEXT_VALUES[key]}
    rep = _report_with(context)
    want = json.dumps({**rep.to_json_dict(), "context": _jsonable_reference(context)},
                      sort_keys=True)
    assert _written_line(tmp_path, context) == want


def test_reports_jsonl_writes_numpy_bools_and_0d_arrays_as_json_values(tmp_path):
    # the two places the encoder's hook departs from the reference walk
    assert _jsonable_reference(np.bool_(True)) == "True"
    with pytest.raises(TypeError):
        _jsonable_reference(np.array(2.5))
    line = _written_line(tmp_path, {"on": np.bool_(True), "off": np.bool_(False),
                                    "bools": np.array([True, False]),
                                    "zero_d": np.array(2.5), "zero_d_int": np.array(3, dtype=np.int32)})
    assert '"on": true' in line and '"off": false' in line and '"bools": [true, false]' in line
    assert json.loads(line)["context"] == {"on": True, "off": False, "bools": [True, False],
                                           "zero_d": 2.5, "zero_d_int": 3}


def test_summary_csv_header(tmp_path, probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    rep = check_first_order(probe_model, probe_loss, t, PROBE_THETA)
    path = tmp_path / "summary.csv"
    write_summary_csv([rep], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "check_name,paper_anchor,rel_residual,tolerance,pass"
    assert lines[1].startswith("check_first_order,Thm 1 (i),")
    assert lines[1].endswith(",true")


def test_anchor_table_is_complete():
    assert set(CHECK_ANCHORS) == {
        "check_first_order", "check_second_action", "check_second_quadratic",
        "check_homogeneity_specialization", "check_eigen_alignment",
        "sharpness_bound", "check_discrete_first", "check_discrete_second",
        "check_mirror", "check_last_layer_alignment", "stationary_null_count",
        "gf_charge_conservation", "norm_growth", "noether_drift",
    }
