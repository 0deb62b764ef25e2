"""Training dynamics: integrator order, charge conservation, descent
orthogonality, noise covariance, stochastic flow and its drift law."""

import json
import math
import warnings

import numpy as np
import pytest

from equichk import diff_engine as de
from equichk import dynamics as dyn
from equichk.errors import (
    InsufficientEnsemble,
    InvalidNoiseModel,
    InvalidParams,
    SizeMismatch,
)
from equichk.identity_checker import default_suite
from equichk.models import (
    Block,
    Dataset,
    Model,
    ModelSpec,
    build_model,
    expected_loss,
    loss_family,
    make_loss,
    per_sample_losses,
)
from equichk.transforms import Charge, build_transform


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


def test_trajectory_validation():
    good = dict(states=np.zeros((3, 2)), losses=np.zeros(3),
                charges={}, diagnostics={})
    with pytest.raises(InvalidParams):
        dyn.Trajectory(times=np.array([0.0, 0.0, 1.0]), **good)
    with pytest.raises(SizeMismatch):
        dyn.Trajectory(times=np.array([0.0, 1.0]), **good)


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_descent_moves_orthogonally_to_symmetry(relu_mlp):
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05,
                               steps=200, chargelist=[t], symmetries=[t])
    assert np.max(trj.diagnostics["sym_ortho_max"]) <= 1e-10


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
    t = build_transform("homogeneity_scaling", {"degree": 1}, probe_model)
    with pytest.raises(InvalidParams):
        dyn.gradient_descent(probe_model, probe_loss, np.array([3.0, -1.0]),
                             eta=0.01, steps=2, symmetries=[t])


def _count_sweeps_and_values(monkeypatch):
    """Count ``gradient_at_points`` sweeps and plain ``_Objective.value``
    calls: returns the two lists the wrappers append to."""
    sweeps, values = [], []
    sweep, value = de.gradient_at_points, dyn._Objective.value

    def counting_sweep(map_fn, points):
        sweeps.append(1)
        out = sweep(map_fn, points)
        assert isinstance(out, tuple) and len(out) == 2   # (values, grads)
        return out

    def counting_value(self, theta):
        values.append(1)
        return value(self, theta)

    monkeypatch.setattr(de, "gradient_at_points", counting_sweep)
    monkeypatch.setattr(dyn._Objective, "value", counting_value)
    return sweeps, values


def test_descent_computes_one_gradient_per_state(monkeypatch, relu_mlp):
    # the gradient taken after each update serves both the record and the
    # next step: 10 steps at stride 1 sweep 11 states
    sweeps, values = _count_sweeps_and_values(monkeypatch)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05, steps=10)
    assert trj.meta["stride"] == 1 and len(trj.times) == 11
    assert len(sweeps) == 11 and values == []


def test_flow_one_sweep_per_stage(monkeypatch, relu_mlp):
    # one sweep at the start state, then per step one at each of the stages
    # k2, k3, k4 and one at the candidate, which also gives the acceptance
    # loss and the next k1, so no plain loss is evaluated: 1 + 10 x 4 sweeps
    sweeps, values = _count_sweeps_and_values(monkeypatch)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(relu_mlp, loss, relu_mlp.init_params, T=0.1, dt=0.01)
    assert trj.meta["stride"] == 1 and len(trj.times) == 11
    assert len(sweeps) == 41 and values == []


def test_descent_record_makes_one_plain_forward(monkeypatch, relu_mlp):
    # a single loss on a scalar head takes the recorded loss from the
    # forward pass of the f diagnostic, bit for bit what value() gives
    values, forwards = [], []
    value, forward = dyn._Objective.value, dyn.forward

    def counting_value(self, theta):
        values.append(1)
        return value(self, theta)

    def counting_forward(model, theta):
        forwards.append(1)
        return forward(model, theta)

    monkeypatch.setattr(dyn._Objective, "value", counting_value)
    monkeypatch.setattr(dyn, "forward", counting_forward)
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_descent(relu_mlp, loss, relu_mlp.init_params, eta=0.05, steps=10)
    assert len(trj.times) == 11
    assert values == [] and len(forwards) == 11
    obj = dyn._Objective(relu_mlp, loss)
    assert [obj.value(th) for th in trj.states] == trj.losses.tolist()


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
    plain = [obj.value(p) for p in pts]
    assert [float(de.gradient_at_points(mp, p[None, :])[0][0]) for p in pts] == plain
    assert de.gradient_at_points(mp, pts)[0].tolist() == plain


def test_value_and_grad_equals_value_and_grad_bitwise(uv_model, square_family, two_sample_dataset):
    obj = dyn._Objective(uv_model, two_sample_dataset, square_family)
    for th in np.random.default_rng(4).normal(size=(20, 2)):
        value, grad = obj.value_and_grad(th)
        assert value == obj.value(th)
        np.testing.assert_array_equal(grad, obj.grad(th))


# ---------------------------------------------------------------------------
# norm growth (separable one-homogeneous head)
# ---------------------------------------------------------------------------

def test_norm_growth_after_first_correct_classification():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=6.0, dt=0.01)
    rep = dyn.norm_growth_check(probe, loss, trj)
    assert rep.status == "ok"
    assert rep.passed and rep.monotone
    assert rep.t0 is not None and 0.0 < rep.t0 < 6.0
    assert rep.euler_max_rel_gap <= 1e-7


def test_norm_growth_short_run_never_classifies():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=0.05, dt=0.01)
    rep = dyn.norm_growth_check(probe, loss, trj)
    assert rep.status == "never_correctly_classified"
    assert rep.passed  # Euler relation still holds everywhere


def test_norm_growth_requires_scalar_output():
    model = _identity_model()
    loss = make_loss("square", target=np.zeros(2))
    trj = dyn.gradient_flow(model, loss, np.array([1.0, 0.0]), T=0.1, dt=0.05)
    with pytest.raises(InvalidParams):
        dyn.norm_growth_check(model, loss, trj)


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


def test_sgf_zero_noise_draws_nothing_and_is_euler(monkeypatch, uv_model, square_family,
                                                   two_sample_dataset):
    def no_stream(*args, **kwargs):
        raise AssertionError("a noise stream was created")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.0, seed=1)
    theta0 = np.array([1.0, 0.9])
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, theta0, noise,
                  T=0.05, dt=1e-3, ensemble=3)
    obj = dyn._Objective(uv_model, two_sample_dataset, square_family)
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
    assert rep.passed
    assert abs(rep.empirical - rep.theory_trace) <= 3 * rep.std_error + rep.bias_budget
    # the charge leaks, and at this sigma the theory says it leaks downward
    assert rep.theory_trace < 0


def test_drift_check_minibatch(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="minibatch", sigma=0.0, seed=11)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.2, dt=1e-3, ensemble=300, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    assert rep.passed
    assert rep.context["mode"] == "minibatch"


def test_drift_check_needs_ensemble(uv_model, square_family, two_sample_dataset):
    noise = dyn.NoiseModel(mode="exact_sde", sigma=0.1, seed=7)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.01, dt=1e-3, ensemble=5, chargelist=[t])
    with pytest.raises(InsufficientEnsemble):
        dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)


def _expected_losses(model, family, dataset, states):
    return [expected_loss(model, family, dataset, s) for s in states]


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
        G = np.stack([de.gradient_at_points(mp, pts)[1] for mp in maps])
        H = np.stack([de.hessians_at_points(mp, pts) for mp in maps])
        gbar = np.einsum("k,knd->nd", w, G)
        hbar = np.einsum("k,knij->nij", w, H)
        sigma = np.einsum("k,kni,knj->nij", w, G, G) - np.einsum("ni,nj->nij", gbar, gbar)
        grad_trace = 2.0 * (
            np.einsum("k,knij,knj->ni", w, H, G) - np.einsum("nij,nj->ni", hbar, gbar)
        )
        gc = np.stack([np.asarray(charge.grad(p), dtype=float) for p in pts])
        hc = np.stack([np.asarray(charge.hess(p), dtype=float) for p in pts])
        terms.append((
            float((-(sigma_sq / 2.0) * np.einsum("ni,ni->n", gc, grad_trace)).mean()),
            float((sigma_sq * np.einsum("nij,nij->n", sigma, hc)).mean()),
            float(np.einsum("ni,nij,nj->n", gbar, hc, gbar).mean()),
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
def test_drift_check_equals_per_member_reference(mode, sigma, uv_model, square_family,
                                                 two_sample_dataset):
    noise = dyn.NoiseModel(mode=mode, sigma=sigma, seed=3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.05, dt=1e-3, ensemble=150, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    ref = _drift_by_member(ens, t.charge, uv_model, square_family, two_sample_dataset, noise)
    assert {k: getattr(rep, k) for k in ref} == ref
    assert rep.n_trajectories == 150


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
    three = Dataset(((np.array([1.0]), np.array([0.5])), (np.array([2.0]), np.array([1.55])),
                     (np.array([-1.5]), np.array([0.2]))), (0.5, 0.3, 0.2))
    for dataset in (two_sample_dataset, three):
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
