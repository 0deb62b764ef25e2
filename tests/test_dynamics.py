"""Training dynamics: integrator order, charge conservation, descent
orthogonality, noise covariance, stochastic flow and its drift law."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from equichk import diff_engine as de
from equichk import dynamics as dyn
from equichk import tensor_core as tc
from equichk.errors import (
    CheckFailure,
    InsufficientEnsemble,
    InvalidNoiseModel,
    InvalidParams,
    NonFiniteEntry,
    NonFiniteResult,
    SizeMismatch,
    StepFailure,
)
from equichk.identity_checker import IdentityReport, default_suite, write_reports_jsonl
from equichk.models import (
    Block,
    Dataset,
    Model,
    ModelSpec,
    _head_scalars,
    _rayleigh_bound,
    _scalar_homogeneous,
    build_model,
    expected_loss,
    forward,
    loss_family,
    make_loss,
    per_sample_losses,
)
from equichk.transforms import Charge, _list_keys, build_transform, mutate


def _identity_model():
    blocks = (Block("theta", (2,), 0, 2),)
    return Model(name="identity", d=2, c=2, blocks=blocks, func=lambda th: th,
                 init_params=np.array([1.0, 0.0]), input_point=np.zeros(2))


# ---------------------------------------------------------------------------
# gradient flow
# ---------------------------------------------------------------------------

def test_quadratic_flow_closed_form():
    # L = 0.5 |theta|^2 flows to theta(t) = e^-t theta(0)
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.gradient_flow(model, loss, np.array([1.0, 0.0]), T=1.0, dt=0.025)
    np.testing.assert_allclose(trj.states[-1], [math.exp(-1.0), 0.0], atol=2e-9)
    assert trj.times[0] == 0.0 and trj.times[-1] == pytest.approx(1.0)
    # losses monotonically non-increasing up to the acceptance slack
    assert np.all(np.diff(trj.losses) <= 1e-12)


def test_flow_error_scales_like_fourth_order():
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    target = np.array([math.exp(-1.0), 0.0])
    errs = []
    for dt in (0.1, 0.05):
        trj = dyn.gradient_flow(model, loss, np.array([1.0, 0.0]), T=1.0, dt=dt)
        errs.append(np.linalg.norm(trj.states[-1] - target))
    assert 12.0 <= errs[0] / errs[1] <= 20.0  # ~2^4 for a 4th-order step


def test_flow_conserves_rescaling_charge(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(relu_mlp, loss, relu_mlp.init_params, T=10.0, dt=0.01,
                            chargelist=[t])
    (cs,) = trj.charges.values()
    assert np.max(np.abs(cs - cs[0])) <= 1e-8 * (1.0 + abs(cs[0]))


def test_flow_conserves_reparam_charge():
    dl = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5))
    A = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.0, 0.4, 0.1]])
    t = build_transform("linear_reparam", {"A": A, "blocks": ["W1", "W2"]}, dl)
    loss = make_loss("square", target=np.array([0.3, -0.4]))
    trj = dyn.gradient_flow(dl, loss, dl.init_params, T=10.0, dt=0.01, chargelist=[t])
    (cs,) = trj.charges.values()
    assert np.max(np.abs(cs - cs[0])) <= 1e-8 * (1.0 + abs(cs[0]))


def test_flow_accepts_dataset_objective(uv_model, square_family, two_sample_dataset):
    trj = dyn.gradient_flow(uv_model, (square_family, two_sample_dataset),
                            np.array([1.0, 0.9]), T=0.5, dt=0.01)
    assert trj.losses[-1] < trj.losses[0]


# ---------------------------------------------------------------------------
# error-controlled flow to a stationary point (DOP853)
# ---------------------------------------------------------------------------

def _bundled_stationary():
    """Model, loss, transform, T and dt of configs/stationary_spectrum.json."""
    with open(Path(__file__).parents[1] / "configs" / "stationary_spectrum.json",
              encoding="utf-8") as fh:
        cfg = json.load(fh)
    m = cfg["model"]
    model = build_model(ModelSpec(m["name"], m["params"], m["seed"]))
    loss = make_loss(cfg["loss"]["name"], **cfg["loss"]["params"])
    (t,) = cfg["transforms"]
    return (model, loss, build_transform(t["name"], t["params"], model),
            cfg["dynamics"]["T"], cfg["dynamics"]["dt"])


@pytest.fixture(scope="module")
def bundled_stationary_run():
    model, loss, t, T, dt = _bundled_stationary()
    calls, value_and_grad = [], dyn._Objective.value_and_grad

    def counting_value_and_grad(self, theta):
        calls.append(1)
        return value_and_grad(self, theta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dyn._Objective, "value_and_grad", counting_value_and_grad)
        trj = dyn.stationary_flow(model, loss, model.init_params, T=T, dt=dt, chargelist=[t])
    return model, loss, trj, len(calls)


def test_stationary_flow_matches_quadratic_closed_form():
    # L = 0.5 |theta - c|^2 flows to theta(t) = c + e^-t (theta(0) - c)
    model = _identity_model()
    c, th0 = np.array([0.3, -0.4]), np.array([1.0, 0.5])
    loss = make_loss("square", target=c)
    for T in (0.7, 5.0, 30.0):
        trj = dyn.stationary_flow(model, loss, th0, T=T, dt=0.05)
        exact = c + math.exp(-T) * (th0 - c)
        assert np.linalg.norm(trj.states[-1] - exact) <= 1e-10 * np.linalg.norm(exact)
        assert trj.times[0] == 0.0 and trj.times[-1] == pytest.approx(T, rel=1e-12)


@pytest.mark.parametrize("A,b,order", [(dyn._DP_A, dyn._DP_B, 8), (dyn._RK4_A, dyn._RK4_B, 4)],
                         ids=["dop853", "rk4"])
def test_rk_tableau_meets_its_order_conditions(A, b, order):
    # a mistyped coefficient only lowers the order, which DOP853's error
    # control absorbs; the order conditions catch one (for RK4, sum b = 1,
    # b.c = 1/2, b.c^2 = 1/3 and b.Ac = 1/6 among them).  Rows 1..4 of
    # DOP853's A enter only through the stage-order conditions of stages 2..11
    assert A.shape == (b.size, b.size) and not np.triu(A).any()
    c = A.sum(axis=1)
    for k in range(order):
        assert abs(b @ c ** k - 1.0 / (k + 1)) <= 1e-14
    for k in range(order - 1):
        assert abs(b @ (A @ c ** k) - 1.0 / ((k + 1) * (k + 2))) <= 1e-14
    if order == 8:
        for k in (1, 2):
            assert np.max(np.abs((A @ c ** k - c ** (k + 1) / (k + 1))[2:])) <= 1e-14
        assert abs(dyn._DP_E5.sum()) <= 1e-14 and abs(dyn._DP_E3.sum()) <= 1e-14


def test_rk_step_on_the_rk4_tableau_is_the_textbook_chain(relu_mlp):
    # stages k2..k4 are the textbook ones bit for bit (their weights are 0,
    # 1/2 and 1), and the candidate differs from th + h/6 (k1 + 2 k2 + 2 k3
    # + k4) only by the order in which b K is summed
    obj = dyn._Objective(relu_mlp, make_loss("exponential", label=1))
    th, h = relu_mlp.init_params, 0.3
    k1 = -obj.value_and_grad(th)[1]
    k2 = -obj.value_and_grad(th + 0.5 * h * k1)[1]
    k3 = -obj.value_and_grad(th + 0.5 * h * k2)[1]
    k4 = -obj.value_and_grad(th + h * k3)[1]
    want = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    K = np.empty((4, th.size))
    K[0] = k1
    cand, cand_loss, cand_g = dyn._rk_step(obj, th, h, dyn._RK4_A, dyn._RK4_B, K)
    np.testing.assert_array_equal(K, [k1, k2, k3, k4])
    np.testing.assert_allclose(cand, want, rtol=0, atol=4 * np.spacing(np.abs(want).max()))
    loss, g = obj.value_and_grad(cand)
    assert cand_loss == loss and np.array_equal(cand_g, g)


@pytest.mark.parametrize("flow", [dyn.gradient_flow, dyn.stationary_flow], ids=["rk4", "dop853"])
def test_a_non_finite_candidate_raises(monkeypatch, flow):
    # every sweep gives a finite loss and gradient, but a step of 1e160
    # along a gradient of 1e150 overflows the candidate
    monkeypatch.setattr(dyn._Objective, "value_and_grad",
                        lambda self, theta: (0.0, np.full(self.d, 1e150)))
    loss = make_loss("square", target=np.zeros(2))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteResult, match="Runge-Kutta step"):
        flow(_identity_model(), loss, np.array([1.0, 0.0]), T=1e160, dt=1e160)


def test_stationary_flow_reaches_the_bundled_stationary_point(bundled_stationary_run):
    # pinned counts: one start sweep plus twelve per attempted step
    model, loss, trj, calls = bundled_stationary_run
    meta = trj.meta
    assert meta["integrator"] == "dormand_prince_8_5_3"
    assert (meta["accepted_steps"], meta["rejected_steps"], meta["gradient_sweeps"]) \
        == (56, 5, 733)
    assert calls == meta["gradient_sweeps"]
    assert trj.diagnostics["grad_norm"][-1] <= 1e-12
    assert trj.times[-1] == pytest.approx(800.0, rel=1e-12)
    (cs,) = trj.charges.values()
    assert np.max(np.abs(cs - cs[0])) <= 1e-12 * (1.0 + abs(cs[0]))


def test_stationary_flow_losses_are_monotone(bundled_stationary_run):
    losses = bundled_stationary_run[2].losses
    slack = dyn._LOSS_SLACK * np.maximum(1.0, np.abs(losses[:-1]))
    assert np.all(np.diff(losses) <= slack)
    assert losses[-1] < losses[0]


def test_stationary_flow_counts_a_rejected_step(monkeypatch):
    # a first trial step of 10 on theta' = -theta misses the tolerance and
    # is retried; every attempt costs twelve sweeps
    sweeps = _count_sweeps(monkeypatch)
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.stationary_flow(model, loss, np.array([1.0, 0.5]), T=20.0, dt=10.0)
    meta = trj.meta
    assert meta["rejected_steps"] >= 1
    assert meta["gradient_sweeps"] == 1 + 12 * (meta["accepted_steps"] + meta["rejected_steps"])
    assert len(sweeps) == meta["gradient_sweeps"]
    # |theta(20)| ~ 2e-9 sits near the absolute tolerance of 1e-12
    np.testing.assert_allclose(trj.states[-1], math.exp(-20.0) * np.array([1.0, 0.5]),
                               rtol=0, atol=1e-11)


def test_stationary_flow_does_not_grow_the_step_right_after_a_rejection():
    # as in Hairer's dop853: the trial step of 10 is rejected until it fits,
    # and the step after the first accepted one is no longer than it
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.stationary_flow(model, loss, np.array([1.0, 0.5]), T=20.0, dt=10.0)
    assert trj.meta["rejected_steps"] >= 1
    steps = np.diff(trj.times)  # every accepted step is recorded at this T
    assert len(steps) == trj.meta["accepted_steps"]
    assert steps[1] <= steps[0] * (1.0 + 1e-12)
    assert steps[2] > steps[1]


def test_stationary_flow_gives_up_after_consecutive_rejections(monkeypatch):
    # a negative slack refuses every candidate as a loss increase
    monkeypatch.setattr(dyn, "_LOSS_SLACK", -1.0)
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    with pytest.raises(StepFailure, match="consecutive rejected steps"):
        dyn.stationary_flow(model, loss, np.array([1.0, 0.5]), T=1.0, dt=0.1)


def test_stationary_flow_clips_the_first_step_to_T():
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.stationary_flow(model, loss, np.array([1.0, 0.0]), T=0.01, dt=0.05)
    assert trj.times.tolist() == [0.0, 0.01] and trj.meta["accepted_steps"] == 1
    np.testing.assert_allclose(trj.states[-1], [math.exp(-0.01), 0.0], rtol=1e-12)


def test_stationary_flow_records_stay_within_budget(monkeypatch, tmp_path):
    # a budget of 40 records against ~100 accepted steps: rows thin to a
    # grid of T / 40, and the start and the end are kept
    monkeypatch.setattr(dyn, "_RECORD_BUDGET", 40)
    model = _identity_model()
    loss = make_loss("square", target=np.array([0.3, -0.4]))
    trj = dyn.stationary_flow(model, loss, np.array([1.0, 0.5]), T=300.0, dt=0.05)
    assert trj.meta["accepted_steps"] > 2 * 40
    path = tmp_path / "flow.csv"
    dyn.write_trajectory_csv(trj, path)
    rows = path.read_text().splitlines()[1:]
    assert 0.5 * 40 <= len(rows) <= 40 + 1
    assert trj.times[0] == 0.0 and trj.times[-1] == pytest.approx(300.0, rel=1e-12)
    # one record per grid cell at most, but for the end
    assert np.all(np.diff(np.floor(trj.times[:-1] / (300.0 / 40))) >= 1)


def _stiff_model():
    """f(theta) = theta * (1, 8): with a square loss on 0 the Hessian is
    diag(1, 64), past RK4's stability bound at dt = 0.1."""
    blocks = (Block("theta", (2,), 0, 2),)
    return Model(name="stiff", d=2, c=2, blocks=blocks, func=lambda th: th * np.array([1.0, 8.0]),
                 init_params=np.array([1.0, 1.0]), input_point=np.zeros(2))


def test_rk4_halves_a_step_that_raises_the_loss():
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.gradient_flow(_stiff_model(), loss, np.array([1.0, 1.0]), T=0.5, dt=0.1)
    assert trj.meta["rejected_steps"] > 0
    assert np.all(np.diff(trj.losses) <= 0.0)


def test_rk4_gives_up_when_every_halving_raises_the_loss(monkeypatch):
    monkeypatch.setattr(dyn, "_descends", lambda cand_loss, cur_loss: False)
    loss = make_loss("square", target=np.zeros(2))
    with pytest.raises(StepFailure, match="halvings"):
        dyn.gradient_flow(_identity_model(), loss, np.array([1.0, 0.0]), T=0.5, dt=0.1)


def test_trajectory_validation():
    good = dict(states=np.zeros((3, 2)), losses=np.zeros(3),
                charges={}, diagnostics={})
    with pytest.raises(InvalidParams):
        dyn.Trajectory(times=np.array([0.0, 0.0, 1.0]), **good)
    with pytest.raises(SizeMismatch):
        dyn.Trajectory(times=np.array([0.0, 1.0]), **good)


def test_trajectory_keeps_l_prime_of_each_record_on_the_record_grid():
    # output_grads is l'(y) at each recorded output, as loss.grad gives it,
    # and is held to the record grid like grads
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=0.1, dt=0.01)
    want = np.array([loss.grad(forward(probe, th)) for th in trj.states])
    np.testing.assert_array_equal(trj.output_grads, want)
    with pytest.raises(SizeMismatch, match="output_grads"):
        dataclasses.replace(trj, output_grads=want[1:])


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_descent_moves_orthogonally_to_symmetry(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05,
                               steps=200, chargelist=[t], symmetries=[t])
    assert np.max(trj.diagnostics["sym_ortho_max"]) <= 1e-10


def _count_inversions(monkeypatch):
    """Count ``tensor_core._inverse_rcond`` calls: returns the list the
    wrapper appends to."""
    calls = []
    inverse_rcond = tc._inverse_rcond
    monkeypatch.setattr(tc, "_inverse_rcond", lambda a: calls.append(1) or inverse_rcond(a))
    return calls


def test_descent_takes_a_charged_symmetry_direction_from_its_charge(monkeypatch, relu_mlp):
    # X = grad C = G theta: 2000 steps invert no chart Jacobian
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss = make_loss("exponential", label=1)
    calls = _count_inversions(monkeypatch)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05,
                               steps=2000, symmetries=[t])
    assert len(calls) == 0
    assert np.max(trj.diagnostics["sym_ortho_max"]) <= 1e-10


def test_descent_inverts_the_chart_of_a_symmetry_without_charge(monkeypatch):
    # a non-symmetric generator has no charge: X still comes from
    # characteristic_direction, one inversion per step
    model = build_model(ModelSpec("deep_linear", {"widths": [2, 2, 2]}, seed=1))
    t = build_transform("linear_reparam", {"A": [[0.0, 1.0], [0.0, 0.0]],
                                           "blocks": ["W1", "W2"]}, model)
    assert t.charge is None
    loss = make_loss("square", target=np.array([0.3, -0.4]))
    calls = _count_inversions(monkeypatch)
    trj = dyn.gradient_descent(model, loss, model.init_params, eta=0.05, steps=20,
                               symmetries=[t])
    assert len(calls) == 20
    assert np.max(trj.diagnostics["sym_ortho_max"]) <= 1e-10


def test_descent_refuses_a_non_finite_symmetry_direction(relu_mlp):
    # X comes from characteristic_direction, which checks dH/dlambda finite;
    # a NaN direction would otherwise pass every orthogonality test
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    bad = mutate(t, "dh_dlambda", float("nan"))
    loss = make_loss("exponential", label=1)
    with pytest.raises(NonFiniteEntry):
        dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05, steps=3,
                             symmetries=[bad])


def test_descent_refuses_an_update_along_a_symmetry_direction(probe_model, probe_loss):
    # homogeneity scaling is no symmetry of this loss: declared one, the GD
    # update has a component along its direction theta at the first step
    t = build_transform("homogeneity_scaling", {}, probe_model)
    with pytest.raises(CheckFailure, match="at step 1:"):
        dyn.gradient_descent(probe_model, probe_loss, np.array([3.0, -1.0]), eta=0.01, steps=2,
                             symmetries=[dataclasses.replace(t, is_symmetry=True)])


def test_descent_zero_eta_is_constant(relu_mlp):
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.0, steps=5)
    assert np.max(np.abs(trj.states - trj.states[0])) == 0.0


def test_descent_at_stability_edge_completes():
    # quadratic with lambda_max = 1: eta = 2/lambda oscillates but never blows up
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.gradient_descent(model, loss, np.array([1.0, 0.5]), eta=2.0, steps=50)
    assert np.all(np.isfinite(trj.states))
    np.testing.assert_allclose(np.abs(trj.states[:, 0]), 1.0, atol=1e-12)


def test_descent_rejects_nonsymmetry(probe_model, probe_loss):
    t = build_transform("homogeneity_scaling", {}, probe_model)
    with pytest.raises(InvalidParams):
        dyn.gradient_descent(probe_model, probe_loss, np.array([3.0, -1.0]),
                             eta=0.01, steps=2, symmetries=[t])


def _count_sweeps(monkeypatch):
    """Count ``gradient_at_points`` sweeps: returns the list the wrapper
    appends to."""
    sweeps, sweep = [], de.gradient_at_points

    def counting_sweep(map_fn, points):
        sweeps.append(1)
        out = sweep(map_fn, points)
        assert isinstance(out, tuple) and len(out) == 2   # (values, grads)
        return out

    monkeypatch.setattr(de, "gradient_at_points", counting_sweep)
    return sweeps


def _plain_loss(obj, theta):
    """The loss at ``theta`` from plain forwards: each map's value weighted
    and summed in map order, as the sweeps sum them."""
    return float(sum(w * float(np.asarray(mp(theta))) for w, mp in obj.maps))


def test_descent_computes_one_gradient_per_state(monkeypatch, relu_mlp):
    # the gradient taken after each update serves both the record and the
    # next step: 10 steps at stride 1 sweep 11 states
    sweeps = _count_sweeps(monkeypatch)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05, steps=10)
    assert trj.meta["stride"] == 1 and len(trj.times) == 11
    assert len(sweeps) == 11


def test_flow_one_sweep_per_stage(monkeypatch, relu_mlp):
    # one sweep at the start state, then per step one at each of the stages
    # k2, k3, k4 and one at the candidate, which also gives the acceptance
    # loss and the next k1, so no plain loss is evaluated: 1 + 10 x 4 sweeps,
    # every one through value_and_grad
    sweeps = _count_sweeps(monkeypatch)
    calls, value_and_grad = [], dyn._Objective.value_and_grad

    def counting_value_and_grad(self, theta):
        calls.append(1)
        return value_and_grad(self, theta)

    monkeypatch.setattr(dyn._Objective, "value_and_grad", counting_value_and_grad)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(relu_mlp, loss, relu_mlp.init_params, T=0.1, dt=0.01)
    assert trj.meta["stride"] == 1 and len(trj.times) == 11
    assert len(sweeps) == 41 and len(calls) == 41
    assert trj.meta["gradient_sweeps"] == 41
    assert (trj.meta["integrator"], trj.meta["accepted_steps"], trj.meta["rejected_steps"]) \
        == ("rk4", 10, 0)
    for gone in ("value", "grad", "grad_batch"):
        assert not hasattr(dyn._Objective, gone)


def _plain_calls(model):
    """``model`` with a ``func`` that logs the shape of every call on a plain
    array (the sweeps call it on hyper-dual numbers), and that log."""
    shapes = []

    def counting(th):
        if isinstance(th, np.ndarray):
            shapes.append(th.shape)
        return model.func(th)

    return dataclasses.replace(model, func=counting), shapes


def test_descent_record_makes_no_plain_forward(monkeypatch, relu_mlp):
    # the records make no plain forward: the f diagnostic comes from one
    # model.func call on the (11, d) state stack when the trajectory is
    # built; the recorded loss is the sweep's, bit for bit the plain loss
    forwards = []
    monkeypatch.setattr(dyn, "forward", lambda *a: forwards.append(1), raising=False)
    model, shapes = _plain_calls(relu_mlp)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(model, loss, relu_mlp.init_params, eta=0.05, steps=10)
    assert len(trj.times) == 11 and forwards == []
    assert shapes == [(11, relu_mlp.d)]
    obj = dyn._Objective(relu_mlp, loss)
    assert [_plain_loss(obj, th) for th in trj.states] == trj.losses.tolist()


class _PerRowRecorder(dyn._Recorder):
    """The per-row record design the batched build replaced: one plain
    forward, one head-scalar row and one scalar charge call per record."""

    def __init__(self, model, charges, single_loss):
        super().__init__(model, charges, single_loss)
        self.charge_vals = [[] for _ in charges]
        self.diag = {"grad_norm": [], "theta_sq": []}
        if model.c == 1:
            self.diag["f"] = []
        self._sharp = single_loss is not None and _scalar_homogeneous(model)
        if self._sharp:
            self.diag["sharpness_bound"] = []

    def record(self, t, theta, grad, loss):
        super().record(t, theta, grad, loss)
        self.diag["grad_norm"].append(float(np.linalg.norm(grad)))
        self.diag["theta_sq"].append(float(theta @ theta))
        if self.model.c == 1:
            y = forward(self.model, theta)
            self.diag["f"].append(float(y[0]))
            if self._sharp:
                m, yv, lp, lpp = _head_scalars(self.model, y, self._loss.grad(y),
                                               self._loss.hess(y))
                nth2 = max(float(theta @ theta), 1e-300)
                self.diag["sharpness_bound"].append(_rayleigh_bound(m, yv, lp, lpp, nth2))
        for vals, c in zip(self.charge_vals, self.charges):
            vals.append(float(c.c_eval(theta)))

    def build(self, meta):
        trj = super().build(meta)
        diag = {k: np.asarray(v) for k, v in self.diag.items()}
        diag.update((k, np.asarray(v)) for k, v in self.extras.items())
        keys = _list_keys([c.name for c in self.charges])
        return dataclasses.replace(trj, diagnostics=diag, charges={
            k: np.asarray(v) for k, v in zip(keys, self.charge_vals)})


def _recorder_cases():
    relu = build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=3))
    rescale = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu)
    exp_loss = make_loss("exponential", label=1)
    dl = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5))
    A = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.0, 0.4, 0.1]])
    reparam = build_transform("linear_reparam", {"A": A, "blocks": ["W1", "W2"]}, dl)
    uv = build_model(ModelSpec("deep_linear", {"widths": [1, 1, 1]}, seed=0))
    uv_rescale = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv)
    data = Dataset.equal_weight(((np.array([1.0]), np.array([0.5])),
                                 (np.array([2.0]), np.array([1.55]))))
    flh = build_model(ModelSpec("factored_last_layer", {"c": 2, "s": 3, "hidden": [2]}, seed=20))
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    uv0 = np.array([1.2, 0.6])
    return {
        "rk4-relu": lambda: dyn.gradient_flow(relu, exp_loss, relu.init_params, T=0.5, dt=0.01,
                                              chargelist=[rescale]),
        "dp-relu": lambda: dyn.stationary_flow(relu, exp_loss, relu.init_params, T=0.5, dt=0.01,
                                               chargelist=[rescale]),
        "gd-symmetries": lambda: dyn.gradient_descent(relu, exp_loss, relu.init_params, eta=0.05,
                                                      steps=30, chargelist=[rescale],
                                                      symmetries=[rescale]),
        "dp-reparam": lambda: dyn.stationary_flow(dl, make_loss("square", target=[0.3, -0.4]),
                                                  dl.init_params, T=0.5, dt=0.01,
                                                  chargelist=[reparam]),
        "dp-same-named": lambda: dyn.stationary_flow(uv, make_loss("square", target=0.3), uv0,
                                                     T=0.5, dt=0.01,
                                                     chargelist=[uv_rescale, uv_rescale]),
        "rk4-dataset": lambda: dyn.gradient_flow(uv, (loss_family("square"), data), uv0,
                                                 T=0.5, dt=0.01, chargelist=[uv_rescale]),
        "dp-factored": lambda: dyn.stationary_flow(flh, make_loss("square", target=[0.4, 0.0]),
                                                   flh.init_params, T=0.5, dt=0.01),
        "gd-probe": lambda: dyn.gradient_descent(probe, make_loss("square", target=2.0),
                                                 probe.init_params, eta=0.05, steps=20),
    }


RECORDER_CASES = _recorder_cases()


@pytest.mark.parametrize("case", list(RECORDER_CASES))
def test_batched_record_build_equals_per_row_records(monkeypatch, case):
    # every series the build evaluates on the state stack is bit for bit the
    # per-row record's, and the diagnostics keep their column order
    trj = RECORDER_CASES[case]()
    monkeypatch.setattr(dyn, "_Recorder", _PerRowRecorder)
    ref = RECORDER_CASES[case]()
    for name in ("times", "states", "losses"):
        np.testing.assert_array_equal(getattr(trj, name), getattr(ref, name))
    for got, want in ((trj.diagnostics, ref.diagnostics), (trj.charges, ref.charges)):
        assert list(got) == list(want)
        for k in want:
            assert got[k].dtype == want[k].dtype
            np.testing.assert_array_equal(got[k], want[k])
    assert dict(trj.meta) == dict(ref.meta)


def test_flow_evaluates_each_charge_once(monkeypatch):
    # two charges over a whole flow: one c_eval call each, on the state
    # stack, and no plain forward
    assert "forward" not in vars(dyn)
    forwards = []
    monkeypatch.setattr(dyn, "forward", lambda *a: forwards.append(1), raising=False)
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 3, 1]}, seed=4))
    calls = []

    def counted(blocks):
        c = build_transform("layer_rescaling", {"blocks": blocks}, model).charge

        def c_eval(th):
            calls.append((blocks[0], np.shape(th)))
            return c.c_eval(th)

        return dataclasses.replace(c, c_eval=c_eval)

    charges = [counted(["W1", "W2"]), counted(["W2", "W3"])]
    trj = dyn.stationary_flow(model, make_loss("square", target=0.3), model.init_params,
                              T=0.5, dt=0.01, chargelist=charges)
    n = trj.n_records
    assert n > 2 and forwards == []
    assert calls == [("W1", (n, model.d)), ("W2", (n, model.d))]


def test_record_takes_an_overflowing_gradient_norm_without_a_warning(deep_linear_121):
    # the sum of squares of 1e300 overflows, the norm 2e300 does not
    rec = dyn._Recorder(deep_linear_121, [], None)
    grad = np.random.default_rng(2).standard_normal(deep_linear_121.d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec.record(0.0, np.zeros(deep_linear_121.d), grad=np.full(deep_linear_121.d, 1e300), loss=0.0)
        rec.record(1.0, grad, grad=grad, loss=0.0)
    assert rec.rows[0][4:] == (2e300, 0.0)
    # an ordinary record keeps the plain arithmetic, bit for bit
    assert rec.rows[1][4:] == (float(np.linalg.norm(grad)), float(grad @ grad))


def test_record_writes_theta_sq_past_the_float_range_as_inf(deep_linear_121):
    rec = dyn._Recorder(deep_linear_121, [], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec.record(0.0, np.full(deep_linear_121.d, 1e200), grad=np.ones(deep_linear_121.d), loss=0.0)
    assert rec.rows[0][4:] == (2.0, math.inf)


SUITE_ENTRIES = default_suite().entries


@pytest.mark.parametrize("entry", SUITE_ENTRIES,
                         ids=[f"{i}-{e.model.name}-{e.loss}" for i, e in enumerate(SUITE_ENTRIES)])
def test_sweep_value_is_the_plain_loss(entry):
    # the flow's recorded losses come from the sweep's value; they must be
    # the plain forward's bits, at batch 1 as the flow sweeps and batched
    model = build_model(entry.model)
    obj = dyn._Objective(model, make_loss(entry.loss, **dict(entry.loss_params)))
    (_, mp), = obj.maps
    pts = model.init_params + np.random.default_rng(entry.seed).standard_normal((50, model.d))
    plain = [_plain_loss(obj, p) for p in pts]
    assert [float(de.gradient_at_points(mp, p[None, :])[0][0]) for p in pts] == plain
    assert de.gradient_at_points(mp, pts)[0].tolist() == plain


def test_value_and_grad_equals_value_and_grad_bitwise(uv_model, square_family, two_sample_dataset):
    # a dataset sums two maps; a single loss is one map, summed without the
    # accumulator, to the same bits
    for obj in (dyn._Objective(uv_model, (square_family, two_sample_dataset)),
                dyn._Objective(uv_model, make_loss("exponential", label=1))):
        for th in np.random.default_rng(4).normal(size=(20, 2)):
            value, grad = obj.value_and_grad(th)
            assert value == _plain_loss(obj, th)
            expected = np.zeros(2)
            for w, mp in obj.maps:   # one batch-1 sweep per map, summed in map order
                expected += w * de.gradient_at_points(mp, th[None, :])[1][0]
            assert grad.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# norm growth (separable one-homogeneous head)
# ---------------------------------------------------------------------------

def test_norm_growth_after_first_correct_classification():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=6.0, dt=0.01)
    rep = dyn.norm_growth_check(probe, loss, trj)
    assert rep.context["status"] == "ok"
    assert rep.passed and rep.context["monotone"]
    assert rep.context["t0"] is not None and 0.0 < rep.context["t0"] < 6.0
    assert rep.rel_residual <= 1e-7  # the Euler gap, as the run is monotone


def test_norm_growth_t0_follows_the_last_misclassified_record():
    # t0 starts the correctly classified tail the loop over every tail finds:
    # a record misclassified again after the first correct one moves t0 past
    # it, and a misclassified last record leaves no tail at all
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)  # l' < 0, so f > 0 is correct
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=0.2, dt=0.01)
    n, rng = trj.n_records, np.random.default_rng(5)
    settles = np.arange(n) >= 3
    patterns = [settles, settles & (np.arange(n) != 10), settles & (np.arange(n) != n - 1),
                np.ones(n, bool)] + [rng.random(n) < rng.random() for _ in range(200)]
    for correct in patterns:
        f = np.where(correct, 1.0, -1.0) * (0.5 + rng.random(n))
        rep = dyn.norm_growth_check(
            probe, loss, dataclasses.replace(trj, diagnostics=dict(trj.diagnostics, f=f)))
        want = next((i for i in range(n) if np.all(correct[i:])), None)
        assert rep.context["t0"] == (None if want is None else trj.times[want])
        assert rep.context["status"] == ("never_correctly_classified" if want is None else "ok")


def test_norm_growth_reads_the_run_and_sweeps_nothing(monkeypatch):
    # the outputs and gradients come from the run's own record, so the check
    # makes no model call and no sweep, and a run without gradients is refused
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.stationary_flow(probe, loss, np.array([-0.15, -0.1]), T=6.0, dt=0.01)

    def refuse(*args, **kwargs):
        raise AssertionError("norm_growth_check evaluated the model")

    monkeypatch.setattr(de, "gradient_at_points", refuse)
    rep = dyn.norm_growth_check(dataclasses.replace(probe, func=refuse), loss, trj)
    assert rep.context["status"] == "ok" and rep.passed
    with pytest.raises(InvalidParams, match="recorded outputs and gradients"):
        dyn.norm_growth_check(probe, loss, dataclasses.replace(trj, grads=None))


def test_norm_growth_short_run_never_classifies():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=0.05, dt=0.01)
    rep = dyn.norm_growth_check(probe, loss, trj)
    assert rep.context["status"] == "never_correctly_classified"
    assert rep.passed  # Euler relation still holds everywhere


def _euler_gap(model, trj):
    """The largest relative gap of <theta, gradL> = m l'(y) y over the records of ``trj``."""
    inner = np.einsum("kd,kd->k", trj.states, trj.grads)
    rhs = float(model.homogeneity_degree) * trj.output_grads[:, 0] * trj.diagnostics["f"]
    scale = np.maximum(np.maximum(np.abs(inner), np.abs(rhs)), 1e-12)
    return float(np.max(np.abs(inner - rhs) / scale))


def test_norm_growth_residual_is_the_euler_gap_or_infinite_once_a_settled_norm_shrinks():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    for T in (0.05, 6.0):  # never classified, then settled and growing
        trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=T, dt=0.01)
        rep = dyn.norm_growth_check(probe, loss, trj)
        assert rep.rel_residual == _euler_gap(probe, trj)
        assert rep.passed == (rep.rel_residual <= dyn._EULER_TOL)
    sq = trj.diagnostics["theta_sq"].copy()
    sq[-1] = 0.5 * sq[-2]
    shrunk = dataclasses.replace(trj, diagnostics=dict(trj.diagnostics, theta_sq=sq))
    rep = dyn.norm_growth_check(probe, loss, shrunk)
    assert rep.context["status"] == "ok" and not rep.context["monotone"]
    assert rep.rel_residual == math.inf and not rep.passed


def test_norm_growth_requires_scalar_output():
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.gradient_flow(model, loss, np.array([1.0, 0.0]), T=0.1, dt=0.05)
    with pytest.raises(InvalidParams):
        dyn.norm_growth_check(model, loss, trj)


# ---------------------------------------------------------------------------
# charge conservation, and the tolerance rule of the flow verdicts
# ---------------------------------------------------------------------------

def test_charge_conservation_reports_each_charge_of_the_run(uv_model):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    trj = dyn.stationary_flow(uv_model, make_loss("square", target=0.3), np.array([1.2, 0.6]),
                              T=2.0, dt=0.01, chargelist=[t, t])
    reports = dyn.charge_conservation_check(trj)
    assert [r.context["charge"] for r in reports] == list(trj.charges)
    for rep, series in zip(reports, trj.charges.values()):
        c0 = float(series[0])
        assert isinstance(rep, IdentityReport)
        assert (rep.check_name, rep.paper_anchor, rep.tolerance) == ("gf_charge_conservation",
                                                                     "Cor. 2", 1e-8)
        assert rep.context == {"charge": rep.context["charge"], "C0": c0, "T": 2.0, "dt": 0.01}
        assert rep.rel_residual == float(np.max(np.abs(series - c0))) / (1.0 + abs(c0))
        assert rep.passed
    assert all(r.tolerance == 2e-9 for r in dyn.charge_conservation_check(trj, tolerance=2e-9))
    assert dyn.charge_conservation_check(dataclasses.replace(trj, charges={})) == []


def test_charge_conservation_is_checked_along_a_flow_only(uv_model, square_family,
                                                           two_sample_dataset):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7), T=0.01, dt=1e-3,
                  ensemble=2, chargelist=[t])
    with pytest.raises(InvalidParams, match="along a gradient flow, not a 'sgf' run"):
        dyn.charge_conservation_check(ens[0])


@pytest.mark.parametrize("tolerance", [True, float("nan"), float("inf"), 0.0, -1e-8, "1e-8"])
def test_flow_verdicts_refuse_a_tolerance_that_is_no_positive_number(tolerance):
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=0.05, dt=0.01)
    with pytest.raises(InvalidParams, match="tolerance must be a finite positive number"):
        dyn.norm_growth_check(probe, loss, trj, tolerance=tolerance)
    with pytest.raises(InvalidParams, match="tolerance must be a finite positive number"):
        dyn.charge_conservation_check(trj, tolerance=tolerance)
    assert dyn.norm_growth_check(probe, loss, trj, tolerance=3).tolerance == 3.0


# ---------------------------------------------------------------------------
# noise covariance
# ---------------------------------------------------------------------------

def test_covariance_two_sample_oracle(uv_model, square_family, two_sample_dataset):
    # per-sample gradients g and -g: Sigma = (1/4)(g1-g2)(g1-g2)^T by hand
    theta = np.array([1.2, 0.6])
    cov = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, theta)
    g1 = np.array([0.22 * 0.6, 0.22 * 1.2])
    oracle = 0.25 * np.outer(2 * g1, 2 * g1)
    np.testing.assert_allclose(cov.Sigma, oracle, atol=1e-15)
    assert cov.Sigma[0, 0] - cov.Sigma[1, 1] == pytest.approx(-0.052272, abs=1e-12)


def test_covariance_trace_gradient_matches_fd(uv_model, square_family, two_sample_dataset):
    theta = np.array([1.2, 0.6])
    cov = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, theta)
    eps = 1e-6
    fd = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        up = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, theta + e)
        dn = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, theta - e)
        fd[i] = (up.trace - dn.trace) / (2 * eps)
    np.testing.assert_allclose(cov.grad_trace, fd, atol=1e-8)


def test_covariance_that_is_not_psd_fails(monkeypatch, uv_model, square_family,
                                          two_sample_dataset):
    # Sigma = sum_k w_k g_k g_k^T - m m^T is PSD only when m is the gradients'
    # own mean: a moment pass that returns another mean must not go unseen
    moments = dyn._moments

    def off_mean(obj, points, directions):
        gbar, G, dtrace = moments(obj, points, directions)
        return gbar + 2.0, G, dtrace
    monkeypatch.setattr(dyn, "_moments", off_mean)
    with pytest.raises(CheckFailure, match="not PSD"):
        dyn.noise_covariance(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]))


@pytest.mark.parametrize("theta, error", [
    ([True, 0.6], InvalidParams),
    (["1.2", 0.6], InvalidParams),
    ([1.2, 0.6, 0.1], SizeMismatch),  # no entry dropped: the model has d = 2
])
def test_covariance_reads_theta_by_the_number_and_size_rule(uv_model, square_family,
                                                             two_sample_dataset, theta, error):
    with pytest.raises(error, match="theta"):
        dyn.noise_covariance(uv_model, square_family, two_sample_dataset, theta)


def test_covariance_single_sample_vanishes(uv_model, square_family):
    single = Dataset.equal_weight(((np.array([1.0]), np.array([0.5])),))
    cov = dyn.noise_covariance(uv_model, square_family, single, np.array([1.2, 0.6]))
    assert np.max(np.abs(cov.Sigma)) == 0.0


# ---------------------------------------------------------------------------
# stochastic flow
# ---------------------------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(InvalidNoiseModel):
        dyn.NoiseModel(mode="langevin", sigma=0.1)
    with pytest.raises(InvalidNoiseModel):
        dyn.NoiseModel(mode="exact_sde", sigma=-0.5)
    # each error names its field; the seed is a stream key's uint64 word
    bad = [({"mode": "langevin", "sigma": 0.1}, "mode")]
    bad += [({"mode": "minibatch", "sigma": sigma}, "sigma")
            for sigma in (float("nan"), float("inf"), -1e-300, "0.1", None, True)]
    bad += [({"mode": "exact_sde", "sigma": 0.1, "seed": seed}, "seed")
            for seed in (1.5, True, -1, 2 ** 64, "7", None)]
    for kwargs, field in bad:
        with pytest.raises(InvalidNoiseModel) as err:
            dyn.NoiseModel(**kwargs)
        assert err.value.field == field
    for seed in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(3)):
        assert dyn.NoiseModel(mode="minibatch", sigma=0.0, seed=seed).seed == seed


def _three_sample_dataset():
    return Dataset(((np.array([1.0]), np.array([0.5])), (np.array([2.0]), np.array([1.55])),
                    (np.array([-1.5]), np.array([0.2]))), (0.5, 0.3, 0.2))


def _sgf_reference(model, family, dataset, th0, noise, T, dt, ensemble,
                   key=lambda seed, i: (seed, i)):
    """SGF with one Generator(Philox(key=(seed, i))) per member and the
    three-operand kick einsum: (record states, record losses)."""
    obj = dyn._Objective(model, (family, dataset))
    w = obj.weights()
    n_steps, stride, _ = dyn._sgf_grid(T, dt)
    h = T / n_steps
    if noise.mode == "exact_sde":
        draws = np.empty((ensemble, n_steps, w.size))
    else:
        draws = np.empty((ensemble, n_steps), dtype=np.int64)
    for i in range(ensemble):
        g = np.random.Generator(np.random.Philox(key=key(noise.seed, i)))
        if noise.mode == "exact_sde":
            g.standard_normal(out=draws[i])
        else:
            draws[i] = g.choice(w.size, size=n_steps, p=w)
    states = np.tile(th0, (ensemble, 1))
    stack, losses = [states], []
    for step in range(n_steps):
        values, per_sample = obj.sample_sweeps(states)
        if step % stride == 0:
            losses.append(obj.weighted_loss(values))
        mean_grad = np.einsum("k,kmd->md", w, per_sample)
        if noise.mode == "exact_sde":
            states = states - mean_grad * h
            states = states + noise.sigma * math.sqrt(2.0 * h) * np.einsum(
                "k,kmd,mk->md", np.sqrt(w), per_sample - mean_grad, draws[:, step])
        else:
            states = states - per_sample[draws[:, step], np.arange(ensemble)] * h
        if (step + 1) % stride == 0 or step + 1 == n_steps:
            stack.append(states)
    losses.append(obj.weighted_loss(obj.sample_sweeps(states)[0]))
    return np.stack(stack), np.stack(losses)


@pytest.mark.parametrize("seed", [3, 2 ** 63 - 1])
@pytest.mark.parametrize("mode", ["exact_sde", "minibatch"])
def test_sgf_equals_one_stream_per_member_reference(monkeypatch, mode, seed, deep_linear_121,
                                                    square_family):
    dataset, th0 = _three_sample_dataset(), deep_linear_121.init_params
    noise = dyn.NoiseModel(mode=mode, sigma=0.1, seed=seed)
    kw = dict(T=0.02, dt=1e-3, ensemble=50)
    states, losses = _sgf_reference(deep_linear_121, square_family, dataset, th0, noise, **kw)
    real, built = np.random.Philox, []
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or real(*a, **k))
    ens = dyn.sgf(deep_linear_121, square_family, dataset, th0, noise, **kw)
    assert len(built) == 1  # one bit generator per call, not one per member
    np.testing.assert_array_equal(ens.states, states)
    np.testing.assert_array_equal(ens.losses, losses)


def test_sgf_keys_streams_with_the_whole_uint64_seed(uv_model, square_family):
    # a seed past 2**63 is the key's first word as it stands: no float64
    # round trip turns 2**64 - 5 into 0
    dataset, th0 = _three_sample_dataset(), np.array([1.2, 0.6])
    kw = dict(T=0.01, dt=1e-3, ensemble=3)
    runs = {}
    for seed in (0, 2 ** 64 - 5):
        noise = dyn.NoiseModel(mode="minibatch", sigma=0.0, seed=seed)
        runs[seed] = dyn.sgf(uv_model, square_family, dataset, th0, noise, **kw).states
        expect, _ = _sgf_reference(uv_model, square_family, dataset, th0, noise, **kw,
                                   key=lambda s, i: np.array([s, i], dtype=np.uint64))
        np.testing.assert_array_equal(runs[seed], expect)
    assert not np.array_equal(runs[0], runs[2 ** 64 - 5])


def _moments_reference(maps, w, points):
    """Mean gradient, gradient stack, covariance and trace gradient from a
    gradient sweep and a Hessian sweep per map, with the three-operand
    covariance and trace-gradient einsums."""
    G = np.stack([de.gradient_at_points(mp, points)[1] for mp in maps])
    H = np.stack([de.hessians_at_points(mp, points)[2] for mp in maps])
    gbar = np.einsum("k,knd->nd", w, G)
    hbar = np.einsum("k,knij->nij", w, H)
    sigma = np.einsum("k,kni,knj->nij", w, G, G) - np.einsum("ni,nj->nij", gbar, gbar)
    grad_trace = 2.0 * (
        np.einsum("k,knij,knj->ni", w, H, G) - np.einsum("nij,nj->ni", hbar, gbar)
    )
    return gbar, G, sigma, grad_trace


def _moments_directional_reference(maps, w, points, directions):
    """Mean gradient, gradient stack and directional trace derivative from a
    gradient sweep and a Hessian-vector sweep per map, the trace derivative
    2 sum_k w_k (g_k - gbar)^T H_k u summed map by map."""
    G = np.stack([de.gradient_at_points(mp, points)[1] for mp in maps])
    HU = [de._sweep(mp, points, True, directions)[2] for mp in maps]
    gbar = np.einsum("k,knd->nd", w, G)
    dtrace = np.zeros(len(points))
    for k in range(len(maps)):
        dtrace += w[k] * np.einsum("ni,ni->n", G[k] - gbar, HU[k])
    return gbar, G, 2.0 * dtrace


def _quadratic_forms_reference(w, G, gbar, hc):
    """Tr(Sigma hess C) as sum_k w_k d_k^T hess C d_k with d_k = g_k - gbar,
    summed map by map, and gbar^T hess C gbar, one row per state."""
    trace = np.zeros(len(gbar))
    for k in range(len(w)):
        dev = G[k] - gbar
        trace += w[k] * np.einsum("ni,ni->n", dev, np.einsum("nij,nj->ni", hc, dev))
    return trace, np.einsum("ni,ni->n", gbar, np.einsum("nij,nj->ni", hc, gbar))


@pytest.mark.parametrize("model_name", ["uv_model", "deep_linear_121"])
def test_drift_terms_equal_two_sweep_reference(request, model_name, square_family):
    # a block of 3 records of 50 states each: every record's terms are the
    # means of its own rows, bit for bit those of a reference swept on that
    # record alone
    model = request.getfixturevalue(model_name)
    obj = dyn._Objective(model, (square_family, _three_sample_dataset()))
    maps, w = [mp for _, mp in obj.maps], obj.weights()
    charge = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model).charge
    points = model.init_params + 0.3 * np.random.default_rng(4).standard_normal((3, 50, model.d))
    sigma_sq = 0.01
    expect = []
    for pts in points:
        gc, hc = charge.grad(pts), charge.hess(pts)
        gbar, G, dtrace = _moments_directional_reference(maps, w, pts, gc)
        for got, want in zip(dyn._moments(obj, pts, gc), (gbar, G, dtrace)):
            np.testing.assert_array_equal(got, want)
        trace, quad = _quadratic_forms_reference(w, G, gbar, hc)
        expect.append((
            float((-(sigma_sq / 2.0) * dtrace).mean()),
            float((sigma_sq * trace).mean()),
            float(quad.mean()),
        ))
    got = dyn._drift_terms(obj, charge, points, sigma_sq)
    assert [g.shape for g in got] == [(3,)] * 3
    assert [tuple(float(g[r]) for g in got) for r in range(3)] == expect


@pytest.mark.parametrize("model_name", ["uv_model", "deep_linear_121", "deep_linear [2,4,1]"])
def test_directional_trace_derivative_matches_full_hessian_formula(request, model_name,
                                                                  square_family):
    # D(Tr Sigma)[grad C] from Hessian-vector products against grad C . grad Tr Sigma
    # from full per-sample Hessians, and Tr(Sigma hess C) from per-sample
    # quadratic forms against the covariance stack, up to d = 12
    if model_name == "deep_linear [2,4,1]":
        model = build_model(ModelSpec("deep_linear", {"widths": [2, 4, 1]}, seed=2))
        data = Dataset(((np.array([1.0, -0.5]), np.array([0.5])),
                        (np.array([2.0, 0.3]), np.array([1.55])),
                        (np.array([-1.5, 0.8]), np.array([0.2]))), (0.5, 0.3, 0.2))
    else:
        model, data = request.getfixturevalue(model_name), _three_sample_dataset()
    obj = dyn._Objective(model, (square_family, data))
    charge = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model).charge
    points = model.init_params + 0.3 * np.random.default_rng(5).standard_normal((40, model.d))
    gc = charge.grad(points)
    gbar, G, sigma, grad_trace = _moments_reference([mp for _, mp in obj.maps], obj.weights(),
                                                    points)
    got_gbar, got_G, dtrace = dyn._moments(obj, points, gc)
    np.testing.assert_array_equal(got_gbar, gbar)
    np.testing.assert_array_equal(got_G, G)
    want = np.einsum("ni,ni->n", gc, grad_trace)
    assert np.max(np.abs(dtrace - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(want)) > 0.0
    # one member per record, so each record's term is its one row's
    t_trace = dyn._drift_terms(obj, charge, points[:, None, :], 1.0)[1]
    want = np.einsum("nij,nij->n", sigma, charge.hess(points))
    assert np.max(np.abs(t_trace - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(want)) > 0.0


def test_sgf_bit_reproducible(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    kw = dict(T=0.05, dt=1e-3, ensemble=1)
    e1 = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]), noise, **kw)
    e2 = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]), noise, **kw)
    np.testing.assert_array_equal(e1[0].states, e2[0].states)


def test_sgf_lockstep_streams(uv_model, square_family, two_sample_dataset):
    # member k's noise stream depends only on (seed, k), not ensemble size
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    theta0 = np.array([1.2, 0.6])
    e1 = dyn.sgf(uv_model, square_family, two_sample_dataset, theta0, noise,
                 T=0.05, dt=1e-3, ensemble=1)
    e3 = dyn.sgf(uv_model, square_family, two_sample_dataset, theta0, noise,
                 T=0.05, dt=1e-3, ensemble=3)
    np.testing.assert_array_equal(e1[0].states, e3[0].states)


def test_sgf_zero_noise_tracks_deterministic_flow(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.0, seed=1)
    theta0 = np.array([1.0, 0.9])
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, theta0, noise,
                  T=0.5, dt=1e-4, ensemble=2)
    np.testing.assert_array_equal(ens[0].states, ens[1].states)
    ref = dyn.gradient_flow(uv_model, (square_family, two_sample_dataset), theta0,
                            T=0.5, dt=1e-3)
    # Euler vs RK4 integrator-order gap only
    assert np.linalg.norm(ens[0].states[-1] - ref.states[-1]) <= 1e-4


def test_sgf_refuses_a_state_that_overflows(uv_model, square_family, two_sample_dataset):
    # the per-sample gradients at theta0 are finite (about 1e12 apart), but a
    # kick of sigma = 1e300 along their spread overflows the first state
    noise = dyn.NoiseModel(mode="exact_sde", sigma=1e300, seed=7)
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(NonFiniteResult, match="SGF step 1 produced NaN or Inf")):
        dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1e4, 1e4]), noise,
                T=0.002, dt=0.001, ensemble=4)


def test_sgf_zero_noise_draws_nothing_and_is_euler(monkeypatch, uv_model, square_family,
                                                   two_sample_dataset):
    def no_stream(*args, **kwargs):
        raise AssertionError("a noise stream was created")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.0, seed=1)
    theta0 = np.array([1.0, 0.9])
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, theta0, noise,
                  T=0.05, dt=1e-3, ensemble=3)
    obj = dyn._Objective(uv_model, (square_family, two_sample_dataset))
    th, path = theta0, [theta0]
    for _ in range(50):
        gbar = np.einsum("k,kd->d", obj.weights(), obj.sample_sweeps(th[None, :])[1][:, 0])
        th = th - gbar * 1e-3
        path.append(th)
    for member in ens:
        np.testing.assert_array_equal(member.states, np.array(path))


def test_drift_check_exact_sde(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.2, dt=1e-3, ensemble=400, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    ctx = rep.context
    assert rep.passed
    assert abs(ctx["empirical"] - ctx["theory_trace"]) <= 3 * ctx["std_error"] + ctx["bias_budget"]
    # the charge leaks, and at this sigma the theory says it leaks downward
    assert ctx["theory_trace"] < 0


def test_drift_residual_is_the_gap_over_the_allowance(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.05, dt=1e-3, ensemble=100, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    ctx = rep.context
    allowance = 3.0 * ctx["std_error"] + ctx["bias_budget"]
    assert rep.rel_residual == abs(ctx["empirical"] - ctx["theory_trace"]) / allowance
    assert rep.passed == (rep.rel_residual <= 1.0)


def test_drift_check_minibatch(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="minibatch", sigma=0.0, seed=11)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.2, dt=1e-3, ensemble=300, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    assert rep.passed
    assert rep.context["mode"] == "minibatch"


def test_drift_check_fails_when_its_two_formulations_disagree(monkeypatch, uv_model,
                                                              square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=100, chargelist=[t])
    monkeypatch.setattr(dyn, "_drift_terms", lambda obj, charge, points, sigma_sq: (1.0, 2.0, 0.0))
    with pytest.raises(CheckFailure, match="drift formulations disagree at record 0"):
        dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)


def test_drift_check_fails_on_a_charge_hessian_off_by_a_millionth(uv_model, square_family,
                                                                  two_sample_dataset):
    # theory_trace reads the charge's Hessian and theory_grad does not, so a
    # hess callback 1e-6 off its grad shows as a disagreement at the first
    # record; sigma = 1 puts theory_trace near -0.06, so the 1e-6 slip
    # (about 6e-8) clears the check's 1e-8 floor
    noise = dyn.NoiseModel(mode="exact_sde", sigma=1.0, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=100, chargelist=[t])
    args = (ens, t.charge, uv_model, square_family, two_sample_dataset, noise)
    assert dyn.noether_drift_check(*args).context["theory_trace"] != 0.0
    off = dataclasses.replace(t.charge, hess=lambda th: (1.0 + 1e-6) * t.charge.hess(th))
    with pytest.raises(CheckFailure, match="drift formulations disagree at record 0:"):
        dyn.noether_drift_check(ens, off, *args[2:])


def test_drift_check_needs_ensemble(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=5, chargelist=[t])
    with pytest.raises(InsufficientEnsemble):
        dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)


def _expected_losses(model, family, dataset, states):
    return [expected_loss(model, family, dataset, s) for s in states]


def test_same_named_charges_keep_a_series_each(uv_model, square_family, two_sample_dataset):
    # charges are keyed by their place in the chargelist once a name repeats
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    keys = ["half_norm_gap[0]", "half_norm_gap[1]"]
    trj = dyn.gradient_flow(uv_model, make_loss("square", target=0.3), np.array([1.2, 0.6]),
                            T=0.05, dt=0.01, chargelist=[t, t])
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=2, chargelist=[t, t])
    for charges in (trj.charges, ens.charges):
        assert list(charges) == keys
        np.testing.assert_array_equal(charges[keys[0]], charges[keys[1]])


def test_sgf_returns_array_ensemble(monkeypatch, uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.02, dt=1e-3, ensemble=3, chargelist=[t])
    assert isinstance(ens, dyn.Ensemble) and len(ens) == 3
    n = 21  # the start and 20 steps
    assert ens.times.shape == (n,) and ens.states.shape == (n, 3, 2)
    assert ens.losses.shape == (n, 3)
    assert list(ens.charges) == ["half_norm_gap"]
    assert ens.charges["half_norm_gap"].shape == (n, 3)
    for i in range(3):
        tr = ens[i]
        assert isinstance(tr, dyn.Trajectory) and tr.meta["index"] == i
        np.testing.assert_array_equal(tr.times, ens.times)
        np.testing.assert_array_equal(tr.states, ens.states[:, i])
        np.testing.assert_array_equal(tr.losses, ens.losses[:, i])
        np.testing.assert_array_equal(tr.charges["half_norm_gap"],
                                      [t.charge.c_eval(s) for s in tr.states])
        np.testing.assert_allclose(tr.diagnostics["theta_sq"], np.sum(tr.states ** 2, axis=1),
                                   rtol=1e-15)
        # each record's loss comes from the sweep at its state: bitwise the plain loss
        np.testing.assert_array_equal(
            tr.losses, _expected_losses(uv_model, square_family, two_sample_dataset, tr.states))
    assert [tr.meta["index"] for tr in ens[1:]] == [1, 2]
    assert [tr.meta["index"] for tr in ens] == [0, 1, 2]
    with pytest.raises(IndexError):
        ens[3]
    # a record every 3 steps, the last one after step 20, in both noise modes
    monkeypatch.setattr(dyn, "_RECORD_BUDGET", 7)
    for mode in ("exact_sde", "minibatch"):
        ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                      dyn.NoiseModel(mode=mode, sigma=0.1, seed=7), T=0.02, dt=1e-3, ensemble=3)
        assert ens.meta["stride"] == 3 and ens.states.shape == (8, 3, 2)
        for i in range(3):
            np.testing.assert_array_equal(ens.losses[:, i], _expected_losses(
                uv_model, square_family, two_sample_dataset, ens.states[:, i]))


def _drift_by_member(ens, charge, model, family, dataset, noise):
    """Drift statistics as a loop over member trajectories, one scalar charge
    call per member and state: the reference the array version must equal."""
    members = list(ens)
    times = members[0].times
    span = float(times[-1] - times[0])
    dt = float(members[0].meta["dt"])
    sigma_sq = noise.sigma ** 2 if noise.mode == "exact_sde" else dt / 2.0
    deltas = np.array([
        (float(charge.c_eval(tr.states[-1])) - float(charge.c_eval(tr.states[0]))) / span
        for tr in members
    ])
    parts = per_sample_losses(model, family, dataset)
    w = np.array([p[0] for p in parts])
    maps = [lambda th, m=m, l=l: l.apply(m.func(th)) for _, m, l in parts]
    rec_idx = np.unique(np.linspace(0, times.size - 1, min(times.size, 65)).astype(int))
    member_states = np.stack([tr.states for tr in members])  # (N, n_rec, d)
    terms = []
    for k in rec_idx:
        pts = member_states[:, k, :]
        gc = np.stack([np.asarray(charge.grad(p), dtype=float) for p in pts])
        hc = np.stack([np.asarray(charge.hess(p), dtype=float) for p in pts])
        gbar, G, dtrace = _moments_directional_reference(maps, w, pts, gc)
        trace, quad = _quadratic_forms_reference(w, G, gbar, hc)
        terms.append((
            float((-(sigma_sq / 2.0) * dtrace).mean()),
            float((sigma_sq * trace).mean()),
            float(quad.mean()),
        ))
    t_grad, t_trace, quad = (np.array(col) for col in zip(*terms))
    grid = times[rec_idx]
    weights = np.gradient(grid) if grid.size > 2 else np.full(grid.size, span / grid.size)
    theory_trace = float(np.sum(t_trace * weights) / np.sum(weights))
    em_bias = 0.5 * dt * float(np.sum(quad * weights) / np.sum(weights))
    slop = 4.0 * dt * dt * max(abs(theory_trace) / max(dt, 1e-300), 1.0)
    return {
        "empirical": float(deltas.mean()),
        "std_error": float(deltas.std(ddof=1) / math.sqrt(len(deltas))),
        "theory_grad": float(np.sum(t_grad * weights) / np.sum(weights)),
        "theory_trace": theory_trace,
        "bias_budget": float(abs(em_bias) + slop),
    }


@pytest.mark.parametrize("mode, sigma", [("exact_sde", 0.1), ("minibatch", 0.0)])
def test_drift_check_equals_per_member_reference(monkeypatch, mode, sigma, uv_model,
                                                 square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode=mode, sigma=sigma, seed=3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.05, dt=1e-3, ensemble=150, chargelist=[t])
    ref = _drift_by_member(ens, t.charge, uv_model, square_family, two_sample_dataset, noise)
    sizes, real = [], dyn._drift_terms

    def counted(obj, charge, points, sigma_sq):
        sizes.append(points.shape[0])
        return real(obj, charge, points, sigma_sq)
    monkeypatch.setattr(dyn, "_drift_terms", counted)
    # the default budget holds all 51 records of 150 members at d = 2; one
    # of 4 such records walks 12 full blocks and a short last one
    for budget, blocks in ((dyn._DRIFT_BLOCK_BYTES, [51]), (4 * 150 * 2 * 8, [4] * 12 + [3])):
        monkeypatch.setattr(dyn, "_DRIFT_BLOCK_BYTES", budget)
        sizes.clear()
        rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
        assert sizes == blocks
        assert {k: rep.context[k] for k in ref} == ref
        assert rep.context["n_trajectories"] == 150


def test_drift_check_names_the_disagreeing_record_of_a_later_block(monkeypatch, uv_model,
                                                                   square_family,
                                                                   two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.05, dt=1e-3, ensemble=150, chargelist=[t])
    monkeypatch.setattr(dyn, "_DRIFT_BLOCK_BYTES", 4 * 150 * 2 * 8)
    calls, real = [], dyn._drift_terms

    def off_in_block_3(obj, charge, points, sigma_sq):
        t_grad, t_trace, quad = real(obj, charge, points, sigma_sq)
        if len(calls) == 3:  # records 12..15: only the second (record 13) disagrees
            t_trace = t_trace.copy()
            t_trace[1] += 1.0
        calls.append(points.shape[0])
        return t_grad, t_trace, quad
    monkeypatch.setattr(dyn, "_drift_terms", off_in_block_3)
    with pytest.raises(CheckFailure, match="drift formulations disagree at record 13:"):
        dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    assert calls == [4] * 12 + [3]


def test_drift_check_takes_only_the_runs_noise(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.02, dt=1e-3, ensemble=100, chargelist=[t])
    args = (ens, t, uv_model, square_family, two_sample_dataset)
    own = dyn.noether_drift_check(*args, noise)
    # the seed sets the draws, not the law the theory reads
    assert dyn.noether_drift_check(*args, dataclasses.replace(noise, seed=8)) == own
    with pytest.raises(InvalidParams, match="noise sigma 0.3 differs from the run's 0.1"):
        dyn.noether_drift_check(*args, dataclasses.replace(noise, sigma=0.3))
    with pytest.raises(InvalidParams, match="noise mode 'minibatch' differs"):
        dyn.noether_drift_check(*args, dyn.NoiseModel(mode="minibatch", sigma=0.1, seed=7))
    # a minibatch run's sigma is implied by dt, so only its mode must match
    mb = dyn.NoiseModel(mode="minibatch", sigma=0.0, seed=7)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  mb, T=0.02, dt=1e-3, ensemble=100, chargelist=[t])
    args = (ens, t, uv_model, square_family, two_sample_dataset)
    assert (dyn.noether_drift_check(*args, dataclasses.replace(mb, sigma=0.5))
            == dyn.noether_drift_check(*args, mb))
    with pytest.raises(InvalidParams, match="noise mode 'exact_sde' differs"):
        dyn.noether_drift_check(*args, noise)


def test_drift_theory_and_noise_covariance_sweep_no_hessian(monkeypatch, uv_model, square_family,
                                                           two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=100, chargelist=[t])
    monkeypatch.setattr(de, "hessians_at_points", lambda *args: pytest.fail("Hessian sweep"))
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    assert rep.context["n_trajectories"] == 100
    cov = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]))
    assert cov.grad_trace.shape == (2,)


def test_sgf_byte_guard_raises_before_any_stream(monkeypatch, uv_model, square_family,
                                                 two_sample_dataset):
    def no_stream(*args, **kwargs):
        raise AssertionError("a noise stream was created")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    # one step, two records: the recorded states outweigh the noise draws,
    # and minibatch runs are bounded too
    for mode in ("exact_sde", "minibatch"):
        noise = dyn.NoiseModel(mode=mode, sigma=0.1, seed=7)
        with pytest.raises(InvalidParams, match="GiB"):
            dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                    noise, T=1e-3, dt=1e-3, ensemble=20_000_000)
    # 8 bytes x M x (1 index + 2 records x (d + loss + charges))
    dyn._check_sgf_bytes(2, 2, 1e-3, 1e-3, 16_000_000, "minibatch", 0.1, n_charges=0)
    with pytest.raises(InvalidParams):
        dyn._check_sgf_bytes(2, 2, 1e-3, 1e-3, 16_000_000, "minibatch", 0.1, n_charges=2)
    # exact_sde draws one normal per sample per step: 15e6 members fit 1 GiB
    # with d = 2 draws (0.96e9 bytes) but not with K = 4 (1.2e9 bytes)
    dyn._check_sgf_bytes(2, 2, 1e-3, 1e-3, 15_000_000, "exact_sde", 0.1, n_charges=0)
    # and none at sigma = 0: 20e6 members need 1.28e9 bytes with K = 2 draws
    # but only the 0.96e9 bytes of their records without them
    with pytest.raises(InvalidParams, match="GiB"):
        dyn._check_sgf_bytes(2, 2, 1e-3, 1e-3, 20_000_000, "exact_sde", 0.1, n_charges=0)
    dyn._check_sgf_bytes(2, 2, 1e-3, 1e-3, 20_000_000, "exact_sde", 0.0, n_charges=0)
    four = Dataset.equal_weight([(np.array([x]), np.array([0.5 * x]))
                                 for x in (1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(InvalidParams, match="GiB"):
        dyn.sgf(uv_model, square_family, four, np.array([1.2, 0.6]),
                dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7),
                T=1e-3, dt=1e-3, ensemble=15_000_000)


def _centered_factor(model, family, dataset, points):
    """F = [sqrt(w_k) (g_k - gbar)]_k at each row of ``points``: (n, d, K)."""
    parts = per_sample_losses(model, family, dataset)
    w = np.array([p[0] for p in parts])
    G = np.stack([de.gradient_at_points(lambda th, m=m, l=l: l.apply(m.func(th)), points)[1]
                  for _, m, l in parts], axis=-1)           # (n, d, K)
    gbar = G @ w
    return np.sqrt(w) * (G - gbar[..., None]), gbar


def test_sgf_kick_is_the_centered_gradient_factor(uv_model, square_family, two_sample_dataset):
    points = np.random.default_rng(11).normal(size=(20, 2))
    th0, h, sigma, seed = np.array([1.2, 0.6]), 1e-3, 0.1, 5
    for dataset in (two_sample_dataset, _three_sample_dataset()):
        # (a) F F^T is the covariance the theory side computes
        F, _ = _centered_factor(uv_model, square_family, dataset, points)
        for p, f in zip(points, F):
            cov = dyn.noise_covariance(uv_model, square_family, dataset, p).Sigma
            assert np.max(np.abs(f @ f.T - cov)) <= 1e-14 * np.max(np.abs(cov))
        # (b) one member, one step: the kick is sigma sqrt(2h) F xi with xi in R^K
        ens = dyn.sgf(uv_model, square_family, dataset, th0,
                      dyn.NoiseModel(mode="exact_sde", sigma=sigma, seed=seed),
                      T=h, dt=h, ensemble=1)
        F, gbar = _centered_factor(uv_model, square_family, dataset, th0[None, :])
        xi = np.random.Generator(np.random.Philox(key=(seed, 0))).standard_normal(
            len(dataset.samples))
        expect = th0 - gbar[0] * h + sigma * math.sqrt(2.0 * h) * (F[0] @ xi)
        np.testing.assert_allclose(ens.states[-1, 0], expect, rtol=1e-14, atol=0)


def _constant_charge(name, value):
    return Charge(name, c_eval=lambda th: np.full(np.shape(th)[:-1], value),
                  grad=lambda th: np.zeros(np.shape(th)),
                  hess=lambda th: np.zeros(np.shape(th) + np.shape(th)[-1:]))


@pytest.mark.parametrize("order", [("small", "big"), ("big", "small")])
def test_sgf_charge_scale_warning_checks_every_charge(order, uv_model, square_family,
                                                      two_sample_dataset):
    # at sigma = 30 the noise budget swamps a zero charge but not a 1e6 one,
    # whichever comes first in the list
    values = {"big": 1e6, "small": 0.0}
    noise = dyn.NoiseModel(mode="exact_sde", sigma=30.0, seed=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]), noise,
                T=4e-3, dt=2e-3, ensemble=2,
                chargelist=[_constant_charge(n, values[n]) for n in order])
    messages = [str(w.message) for w in caught if "not small against charge" in str(w.message)]
    assert len(messages) == 1 and "charge small;" in messages[0]


def test_sgf_charge_scale_warning_reads_the_trace_from_one_gradient_sweep(
        monkeypatch, uv_model, square_family, two_sample_dataset):
    # the budget is sigma^2 Tr Sigma dt with noise_covariance's trace, to
    # rounding, and the run sweeps no Hessian for it
    th0, h = np.array([1.2, 0.6]), 2e-3
    trace = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, th0).trace
    monkeypatch.setattr(de, "hessians_at_points", lambda *args: pytest.fail("Hessian sweep"))
    noise = dyn.NoiseModel(mode="exact_sde", sigma=30.0, seed=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dyn.sgf(uv_model, square_family, two_sample_dataset, th0, noise, T=2 * h, dt=h,
                ensemble=2, chargelist=[_constant_charge("zero", 0.0)])
    budgets = [float(str(w.message).split()[5]) for w in caught
               if "not small against charge zero" in str(w.message)]
    assert len(budgets) == 1
    assert budgets[0] == pytest.approx(30.0 ** 2 * trace * h, rel=1e-3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_trajectory_csv_layout(tmp_path, relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(relu_mlp, loss, relu_mlp.init_params, T=0.5, dt=0.01,
                            chargelist=[t])
    path = tmp_path / "flow.csv"
    dyn.write_trajectory_csv(trj, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time" and header[1] == "loss"
    assert any(h.startswith("charge_") for h in header)
    assert len(lines) - 1 == trj.n_records
    # values round-trip at full precision
    row = lines[1].split(",")
    assert float(row[0]) == trj.times[0] and float(row[1]) == trj.losses[0]


def test_ensemble_manifest(tmp_path, uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.02, dt=1e-3, ensemble=3)
    man = dyn.write_ensemble(ens, tmp_path / "ens")
    assert man["count"] == 3
    files = [e["file"] for e in man["trajectories"]]
    assert files == ["trajectory_0000.csv", "trajectory_0001.csv", "trajectory_0002.csv"]
    for f in files:
        assert (tmp_path / "ens" / f).exists()
    on_disk = json.loads((tmp_path / "ens" / "ensemble.json").read_text())
    assert on_disk == man


def test_ensemble_manifest_writes_numpy_meta_as_reports_do(tmp_path):
    meta = {"converged": np.bool_(True), "sigma": np.float32(0.1), "lam": np.array([0.5, 2.0]),
            "members": np.int64(3), "grid": np.arange(4.0).reshape(2, 2)}
    trj = dyn.Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((2, 2)), losses=np.zeros(2),
                         charges={}, diagnostics={}, meta=meta)
    dyn.write_ensemble([trj], tmp_path / "ens")
    on_disk = json.loads((tmp_path / "ens" / "ensemble.json").read_text())
    write_reports_jsonl([IdentityReport("check_first_order", "Thm 1 (i)", 1.0, 1.0, 0.0, 0.0,
                                        1e-10, True, meta)], tmp_path / "reports.jsonl")
    reported = json.loads((tmp_path / "reports.jsonl").read_text())["context"]
    assert on_disk["trajectories"][0]["meta"] == reported == {
        "converged": True, "sigma": float(np.float32(0.1)), "lam": [0.5, 2.0], "members": 3,
        "grid": [[0.0, 1.0], [2.0, 3.0]]}
