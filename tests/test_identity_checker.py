"""Identity checks: hand-derived probe values, both derivative modes, guard
errors, suite determinism, serialization formats."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import equichk.diff_engine as de
import equichk.identity_checker as ic
import equichk.tensor_core as tc
from equichk.errors import (
    DegenerateLoss,
    InvalidParams,
    NotConverged,
    NotFactoredModel,
    NotFixedPoint,
    NotGoodPosition,
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


def test_probe_first_order_is_euler_relation(probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {"degree": 1}, probe_model)
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


# ---------------------------------------------------------------------------
# both derivative modes agree on the same statements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,tol", [("exact", 1e-12), ("finite_difference", 1e-5)])
def test_second_order_checks_both_modes(relu_mlp, mode, tol):
    loss = make_loss("square", target=-0.2)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    cfg = de.DiffConfig(mode=mode)
    (th, lam), = sample_positions(relu_mlp, loss, t, count=1, seed=5,
                                  margin=1e-3 if mode == "finite_difference" else 1e-6)
    for fn in (check_first_order, check_second_action, check_second_quadratic):
        rep = fn(relu_mlp, loss, t, th, lam, config=cfg)
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


def test_mirror_orthonormal_and_fixed_guards(deep_linear_121):
    loss = make_loss("square", target=-0.4)
    O = np.array([[1.0], [1.0], [0.0], [0.0]])  # not unit
    with pytest.raises(InvalidParams):
        check_mirror(deep_linear_121, loss, O, np.zeros(4))
    O = np.array([[1.0], [0.0], [0.0], [0.0]])
    with pytest.raises(NotFixedPoint):
        check_mirror(deep_linear_121, loss, O, np.array([0.5, 1.0, 1.0, 1.0]))


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
    t = build_transform("homogeneity_scaling", {"degree": 2}, relu_mlp)
    a = sample_positions(relu_mlp, loss, t, count=3, seed=17)
    b = sample_positions(relu_mlp, loss, t, count=3, seed=17)
    for (tha, lama), (thb, lamb) in zip(a, b):
        np.testing.assert_array_equal(tha, thb)
        np.testing.assert_array_equal(lama, lamb)


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
    assert all(entry_misfits(e) == [] for e in good)
    misfit = PlanEntry(
        model=ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=22),
        loss="square", loss_params={"target": 0.3},
        transform="sign_flip", transform_params={"indices": [0, 2]},
        checks=("discrete_first", "first_order"),
    )
    with pytest.raises(InvalidParams, match=r"plan entry 14: checks\[1\]: first_order needs"):
        run_suite(SuiteSpec(entries=good + (misfit,)))
    assert sampled == []


def test_run_suite_evaluates_one_landscape_per_position(monkeypatch):
    positions, landscapes = [], []
    real_sample, real_evaluate = ic.sample_positions, ic.evaluate_landscape

    def sample(*args, **kwargs):
        out = real_sample(*args, **kwargs)
        positions.extend(th for th, _ in out)
        return out

    def evaluate(model, loss, theta, config=None):
        landscapes.append(theta)
        return real_evaluate(model, loss, theta, config)

    monkeypatch.setattr(ic, "sample_positions", sample)
    monkeypatch.setattr(ic, "evaluate_landscape", evaluate)
    plan = default_suite(positions=2)
    reports = run_suite(plan)
    assert reports and all(r.passed for r in reports)
    assert len(positions) == 2 * len(plan.entries)
    assert len(landscapes) == len(positions)
    for th, at in zip(positions, landscapes):
        np.testing.assert_array_equal(th, at)


def test_run_suite_shares_transform_data_and_spectrum(monkeypatch):
    """Once sampling is done, each position inverts each chart Jacobian of
    its transform once, builds the second-order terms once and takes the
    Hessian spectrum once, however many checks read them."""
    counts, sampling = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not sampling:
                counts[name] += 1
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
    monkeypatch.setattr(tc, "_gauss_jordan_inverse", counted("inverse", tc._gauss_jordan_inverse))
    monkeypatch.setattr(ic, "spectral_summary", counted("spectrum", ic.spectral_summary))
    monkeypatch.setattr(ic, "_second_order", counted("second_order", ic._second_order))
    positions = 2
    plan = default_suite(positions=positions)
    reports = run_suite(plan)
    assert reports and all(r.passed for r in reports)

    continuous = sum(ic._build_entry(e)[1].kind == "continuous"
                     for e in plan.entries if e.transform is not None)
    scalar = sum("eigen_alignment" in e.checks for e in plan.entries)
    assert (continuous, scalar) == (11, 4)
    assert counts == {"inverse": 2 * continuous * positions,
                      "second_order": continuous * positions,
                      "spectrum": scalar * positions}


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
    real_evaluate = ic.evaluate_landscape

    def foreign(model, loss, theta, config=None):
        if other == "theta":
            return real_evaluate(model, loss, np.asarray(theta) + 0.01, config)
        return real_evaluate(model, loss, theta, de.DiffConfig(mode="exact"))

    monkeypatch.setattr(ic, "evaluate_landscape", foreign)
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
    fd = de.DiffConfig(mode="finite_difference")
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


_NOT_GOOD = ("NotGoodPosition",) * 3
_NON_FINITE = ("NonFiniteEntry",) * 3
_SECOND_ORDER_ONLY = ("pass", "NonFiniteEntry", "NonFiniteEntry")  # first order never reads it


@pytest.mark.parametrize("name, params, dg_dlambda", [
    ("homogeneity_scaling", {}, _NON_FINITE),
    # a symmetry's Y is zero without reading dG/dlambda
    ("layer_rescaling", {"blocks": ["W1", "W2"]}, ("pass",) * 3),
])
def test_nan_callback_outcomes(name, params, dg_dlambda):
    """Each derivative callback made to return NaN: a chart Jacobian voids
    the position, any other callback a check reads raises NonFiniteEntry."""
    model = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11))
    loss = make_loss("square", target=0.7)
    t = build_transform(name, params, model)
    (th, lam), = sample_positions(model, loss, t, count=1, seed=3)
    expected = {cb: _SECOND_ORDER_ONLY for cb in MUTABLE_CALLBACKS}
    expected.update(dh_dtheta=_NOT_GOOD, dg_dy=_NOT_GOOD, dh_dlambda=_NON_FINITE,
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

def test_report_json_uses_pass_key(probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {"degree": 1}, probe_model)
    rep = check_first_order(probe_model, probe_loss, t, PROBE_THETA)
    d = rep.to_json_dict()
    assert d["pass"] is True and "passed" not in d
    json.dumps(d)  # everything is plain-JSON serializable


def test_summary_csv_header(tmp_path, probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {"degree": 1}, probe_model)
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
    }
