"""Acceptance gate: ten criteria, one test (= one pass/fail line) each.

Every tolerance below is pinned to the number the criterion states, never to
what the implementation happens to achieve.
"""

import dataclasses
import time

import numpy as np
import pytest

import equichk.diff_engine as de
from equichk import dynamics as dyn
from equichk.identity_checker import (
    SuiteSpec,
    check_discrete_first,
    check_discrete_second,
    check_eigen_alignment,
    check_last_layer_alignment,
    check_mirror,
    default_suite,
    evaluate_landscape,
    run_suite,
    sample_positions,
    sharpness_bound,
    stationary_null_count,
)
from equichk.models import (
    Block,
    Model,
    ModelSpec,
    build_model,
    loss_family,
    make_loss,
    per_sample_losses,
)
from equichk.transforms import build_transform, mutate, noether_charge

_TRIO = ("first_order", "second_action", "second_quadratic")


# ---------------------------------------------------------------------------
# 1. identity suite over every compatible catalog triple
# ---------------------------------------------------------------------------

def test_criterion_01_identity_suite_all_triples():
    base = default_suite(master_seed=0).entries
    continuous = [e for e in base if "first_order" in e.checks]
    assert len(continuous) == 11  # the full continuous catalog
    start = time.monotonic()
    for mode, tol in (("exact", 1e-7), ("finite_difference", 1e-4)):
        entries = tuple(
            dataclasses.replace(e, checks=_TRIO, positions=20, mode=mode)
            for e in continuous
        )
        reports = run_suite(SuiteSpec(entries, master_seed=0))
        assert len(reports) == 11 * 20 * 3
        worst = max(r.rel_residual for r in reports)
        assert worst <= tol, f"{mode}: worst residual {worst:.3e} > {tol}"
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. hand fixture, every value to 1e-12 absolute
# ---------------------------------------------------------------------------

def test_criterion_02_hand_fixture_values(probe_model, probe_loss):
    theta = np.array([3.0, -1.0])
    ev = evaluate_landscape(probe_model, probe_loss, theta)

    euler = float(ev.grad @ theta)
    assert abs(euler - (-1.0)) <= 1e-12

    action = ev.hess @ theta
    assert np.max(np.abs(action - np.array([1.0, 2.0]))) <= 1e-12

    quad = float(theta @ action)
    assert abs(quad - 1.0) <= 1e-12

    align = check_eigen_alignment(probe_model, probe_loss, theta)
    assert abs(align.context["alpha"] - (-1.0)) <= 1e-12
    assert align.passed

    bound, lam_max, rep = sharpness_bound(probe_model, probe_loss, theta)
    assert abs(bound - 0.1) <= 1e-12
    assert abs(lam_max - 5.0) <= 1e-12
    assert bound <= lam_max and rep.passed


# ---------------------------------------------------------------------------
# 3. conservation under GF; per-step orthogonality under GD
# ---------------------------------------------------------------------------

def test_criterion_03_conservation_and_orthogonality(relu_mlp):
    resc = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, relu_mlp)
    loss_e = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(relu_mlp, loss_e, relu_mlp.init_params, T=10.0, dt=0.01,
                            chargelist=[resc])
    (cs,) = trj.charges.values()
    assert np.max(np.abs(cs - cs[0])) / (1.0 + abs(cs[0])) <= 1e-8

    dl = build_model(ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5))
    A = [[0.3, 0.1, 0.0], [0.1, -0.2, 0.4], [0.0, 0.4, 0.1]]  # symmetric generator
    rep = build_transform("linear_reparam", {"A": A, "blocks": ["W1", "W2"]}, dl)
    loss_v = make_loss("square", target=np.array([0.3, -0.4]))
    trj2 = dyn.gradient_flow(dl, loss_v, dl.init_params, T=10.0, dt=0.01, chargelist=[rep])
    (cs2,) = trj2.charges.values()
    assert np.max(np.abs(cs2 - cs2[0])) / (1.0 + abs(cs2[0])) <= 1e-8

    # gradient_descent itself raises if any step's normalized <dtheta, X>
    # exceeds 1e-10; the recorded diagnostic re-verifies the bound
    gd = dyn.gradient_descent(relu_mlp, loss_e, relu_mlp.init_params, eta=0.05,
                              steps=200, symmetries=[resc])
    assert np.max(gd.diagnostics["sym_ortho_max"]) <= 1e-10


# ---------------------------------------------------------------------------
# 4. norm growth on a separating exponential-loss run
# ---------------------------------------------------------------------------

def test_criterion_04_norm_growth():
    probe = build_model(ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0))
    loss = make_loss("exponential", label=1)
    trj = dyn.gradient_flow(probe, loss, np.array([-0.15, -0.1]), T=6.0, dt=0.01)
    rep = dyn.norm_growth_check(probe, loss, trj)
    assert rep.status == "ok"
    assert rep.euler_max_rel_gap <= 1e-7   # 0.5 d|theta|^2/dt vs -m l'(y) y
    assert rep.t0 is not None
    assert rep.monotone                    # |theta| non-decreasing past t0
    assert rep.passed


# ---------------------------------------------------------------------------
# 5. Noether drift: two theory forms agree; Monte Carlo matches theory
# ---------------------------------------------------------------------------

def test_criterion_05_noether_drift(uv_model, square_family, two_sample_dataset):
    start = time.monotonic()
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, uv_model)
    charge = noether_charge(t)
    sigma = 0.1
    sig2 = sigma * sigma

    # theory-1 (inner-product form) vs theory-2 (trace form) at 50 states
    rng = np.random.default_rng(2025)
    for _ in range(50):
        th = rng.uniform(0.3, 1.7, size=2)
        cov = dyn.noise_covariance(uv_model, square_family, two_sample_dataset, th)
        t1 = -(sig2 / 2.0) * float(np.asarray(charge.grad(th)) @ cov.grad_trace)
        t2 = sig2 * float(np.sum(cov.Sigma * np.asarray(charge.hess(th))))
        assert abs(t1 - t2) <= 1e-8 * max(abs(t1), abs(t2), 1e-12)

    # Monte Carlo at the pinned scale
    noise = dyn.NoiseModel(mode="exact_sde", sigma=sigma, seed=7)
    ens = dyn.sgf(uv_model, square_family, two_sample_dataset, np.array([1.2, 0.6]),
                  noise, T=0.5, dt=1e-3, ensemble=2000, chargelist=[t])
    rep = dyn.noether_drift_check(ens, t, uv_model, square_family, two_sample_dataset, noise)
    assert rep.n_trajectories >= 2000
    assert abs(rep.empirical - rep.theory_trace) <= 3.0 * rep.std_error
    assert rep.passed
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# 6. discrete fixed-point identities, mirror blocks, exact parity case
# ---------------------------------------------------------------------------

def _parity_model():
    # f(theta) = theta_0^2 + theta_1 on R^2: even in theta_0
    def func(th):
        a = de.take_last(th, slice(0, 1))
        return a * a + de.take_last(th, slice(1, 2))

    return Model(
        name="parity_probe", d=2, c=1, blocks=(Block("theta", (2,), 0, 2),),
        func=func, init_params=np.array([0.0, 0.5]), input_point=np.zeros(0),
    )


def test_criterion_06_discrete_symmetry(deep_linear_121):
    cases = [
        (deep_linear_121, make_loss("square", target=0.3),
         build_transform("sign_flip", {"indices": [0, 2]}, deep_linear_121)),
        (build_model(ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=23)),
         make_loss("square", target=0.5), None),
    ]
    cases[1] = (cases[1][0], cases[1][1],
                build_transform("permutation", {"perm": [2, 3, 0, 1, 5, 4]}, cases[1][0]))
    for model, loss, t in cases:
        for th, _ in sample_positions(model, loss, t, count=5, seed=31):
            r1 = check_discrete_first(model, loss, t, th)
            r2 = check_discrete_second(model, loss, t, th)
            assert r1.rel_residual <= 1e-10 and r1.passed
            assert r2.rel_residual <= 1e-10 and r2.passed

    # mirror block structure on the fixed set
    loss_m = make_loss("square", target=-0.4)
    O = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    t_m = build_transform(
        "mirror", {"columns": [O[:, 0].tolist(), O[:, 1].tolist()]}, deep_linear_121)
    for th, _ in sample_positions(deep_linear_121, loss_m, t_m, count=5, seed=32):
        rep = check_mirror(deep_linear_121, loss_m, O, th)
        assert rep.rel_residual <= 1e-10 and rep.passed

    # the plane parity case is exact
    parity = _parity_model()
    loss_p = make_loss("square", target=0.3)
    flip = build_transform("sign_flip", {"indices": [0]}, parity)
    for t_val in (0.5, -1.3, 2.0):
        th = np.array([0.0, t_val])
        assert check_discrete_first(parity, loss_p, flip, th).rel_residual <= 1e-14
        assert check_discrete_second(parity, loss_p, flip, th).rel_residual <= 1e-14


# ---------------------------------------------------------------------------
# 7. last-layer alignment on the softmax factored head
# ---------------------------------------------------------------------------

def test_criterion_07_last_layer_alignment():
    model = build_model(ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19))
    loss = make_loss("softmax_xent", n_classes=3, label=1)
    thetas = [model.init_params] + [
        th for th, _ in sample_positions(model, loss, None, count=2, seed=77)
    ]
    for i, th in enumerate(thetas):
        rep = check_last_layer_alignment(model, loss, th, trials=20, seed=100 + i)
        assert rep.context["trials"] == 20
        assert rep.rel_residual <= 1e-8
        assert rep.context["softmax_variance_gap"] <= 1e-10


# ---------------------------------------------------------------------------
# 8. stationary null directions
# ---------------------------------------------------------------------------

def test_criterion_08_stationary_null_space():
    model = build_model(ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=6))
    loss = make_loss("square", target=0.3)
    t = build_transform("layer_rescaling", {"blocks": ["W1", "W2"]}, model)
    trj = dyn.gradient_flow(model, loss, model.init_params, T=800.0, dt=0.05)
    theta_star = trj.states[-1]
    ev = evaluate_landscape(model, loss, theta_star)
    assert float(np.linalg.norm(ev.grad)) <= 1e-10

    rep = stationary_null_count(model, loss, [t], theta_star,
                                eps_stat=1e-10, null_tol=1e-7)
    assert rep.passed
    assert rep.context["rank_characteristic"] >= 1
    assert rep.context["null_count"] >= rep.context["rank_characteristic"]
    eigs = np.array(rep.context["eigenvalues"])
    assert np.sum(np.abs(eigs) <= 1e-7) >= rep.context["rank_characteristic"]


# ---------------------------------------------------------------------------
# 9. engine certificates on all catalog maps
# ---------------------------------------------------------------------------

_CATALOG = [
    (ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=3), ("square", {"target": 0.7})),
    (ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=5), ("square", {"target": [0.3, -0.4]})),
    (ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=4),
     ("softmax_xent", {"n_classes": 3, "label": 1})),
    (ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=0), ("square", {"target": 2.0})),
]


def test_criterion_09_engine_certificates():
    for spec, (lname, lparams) in _CATALOG:
        model = build_model(spec)
        loss = make_loss(lname, **lparams)
        (th, _), = sample_positions(model, loss, None, count=1, seed=9, margin=1e-3)
        y = model.func(th)
        jac = de.jacobian(model.func, th)
        hess = de.second_derivative(model.func, th)
        scale_j = max(1.0, float(np.max(np.abs(jac))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))

        # chain rule: derivatives of l(f(theta)) from the pieces
        comp = lambda t_, m=model, l=loss: l.apply(m.func(t_))  # noqa: E731
        g_direct = de.jacobian(comp, th)
        h_direct = de.second_derivative(comp, th)
        gl = np.asarray(loss.grad(y))
        hl = np.asarray(loss.hess(y))
        g_chain = jac @ gl
        h_chain = jac @ hl @ jac.T + np.einsum("ijk,k->ij", hess, gl)
        assert np.max(np.abs(g_direct - g_chain)) <= 1e-12 * scale_j
        assert np.max(np.abs(h_direct - h_chain)) <= 1e-12 * scale_h

        # product rule via <f, f>: gradient 2 J^T f, Hessian 2(J^T J + sum f_k H_k)
        sq = lambda t_, m=model: de.dot(m.func(t_), m.func(t_))  # noqa: E731
        g_sq = de.jacobian(sq, th)
        h_sq = de.second_derivative(sq, th)
        g_prod = 2.0 * jac @ y
        h_prod = 2.0 * (jac @ jac.T + np.einsum("ijk,k->ij", hess, y))
        assert np.max(np.abs(g_sq - g_prod)) <= 1e-12 * scale_j ** 2
        assert np.max(np.abs(h_sq - h_prod)) <= 1e-12 * max(scale_h, scale_j ** 2)

        # independent stencil agreement
        fd = de.DiffConfig(mode="finite_difference")
        jac_fd = de.jacobian(model.func, th, fd)
        hess_fd = de.second_derivative(model.func, th, fd)
        assert np.max(np.abs(jac - jac_fd)) <= 1e-6 * scale_j
        assert np.max(np.abs(hess - hess_fd)) <= 1e-5 * scale_h

    # integrator order on the closed-form flow theta' = -theta
    ident = Model(name="identity", d=2, c=2, blocks=(Block("theta", (2,), 0, 2),),
                  func=lambda t_: t_, init_params=np.array([1.0, 0.0]),
                  input_point=np.zeros(2))
    loss0 = make_loss("square", target=np.zeros(2))
    target = np.array([np.exp(-1.0), 0.0])
    errs = [
        np.linalg.norm(
            dyn.gradient_flow(ident, loss0, np.array([1.0, 0.0]), T=1.0, dt=dt).states[-1]
            - target)
        for dt in (0.1, 0.05)
    ]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


# ---------------------------------------------------------------------------
# 10. mutation sensitivity: every observable derivative has teeth
# ---------------------------------------------------------------------------

# transform derivative callbacks whose 1% perturbation is observable for the
# given transform; the remaining callbacks on each row are identically zero
# there (scaling changes nothing) or are multiplied by an exact zero in every
# identity the transform participates in (the G-side of symmetries, whose
# characteristic output vanishes by definition)
_MUTATION_CASES = (
    (
        dict(model=ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=13),
             loss="square", loss_params={"target": 0.7},
             transform="homogeneity_scaling", transform_params={}),
        ("dh_dtheta", "dh_dlambda", "d2h_dlambda_dtheta", "d2h_dlambda2",
         "dg_dy", "dg_dlambda", "d2g_dlambda_dy", "d2g_dlambda2"),
    ),
    (
        dict(model=ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=16),
             loss="square", loss_params={"target": [0.1, 0.5]},
             transform="layer_rescaling", transform_params={"blocks": ["W1", "W2"]}),
        ("dh_dtheta", "dh_dlambda", "d2h_dlambda_dtheta", "d2h_dlambda2"),
    ),
    (
        dict(model=ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=17),
             loss="exponential", loss_params={"label": -1.0},
             transform="linear_reparam",
             transform_params={"A": [[0.4, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.5]],
                               "blocks": ["W1", "W2"]}),
        ("dh_dtheta", "dh_dlambda", "d2h_dlambda_dtheta", "d2h_dlambda2"),
    ),
    (
        dict(model=ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19),
             loss="softmax_xent", loss_params={"n_classes": 3, "label": 1},
             transform="last_layer_left_action", transform_params={}),
        ("dh_dtheta", "dh_dlambda", "d2h_dlambda_dtheta",
         "dg_dy", "dg_dlambda", "d2g_dlambda_dy"),
    ),
)


def _plan_entry(base: dict, mutation):
    from equichk.identity_checker import PlanEntry
    return PlanEntry(
        model=base["model"], loss=base["loss"], loss_params=base["loss_params"],
        transform=base["transform"], transform_params=base["transform_params"],
        checks=_TRIO, positions=3, seed=41, mutation=mutation,
    )


def test_criterion_10_mutation_sensitivity(deep_linear_121):
    for base, callbacks in _MUTATION_CASES:
        # control: an identity-scale mutation must not trip anything
        clean = run_suite(SuiteSpec(
            (_plan_entry(base, {"callback": callbacks[0], "scale": 1.0}),), master_seed=3))
        assert all(r.passed for r in clean), base["transform"]
        for cb in callbacks:
            reports = run_suite(SuiteSpec(
                (_plan_entry(base, {"callback": cb, "scale": 1.01}),), master_seed=3))
            assert any(not r.passed for r in reports), (base["transform"], cb)

    # discrete realizations expose their single nonzero callback
    loss = make_loss("square", target=0.3)
    for t_name, t_params in (
        ("sign_flip", {"indices": [0, 2]}),
        ("mirror", {"columns": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]}),
    ):
        t = build_transform(t_name, t_params, deep_linear_121)
        bad = mutate(t, "dh_dtheta", 1.01)
        hits = 0
        for th, _ in sample_positions(deep_linear_121, loss, t, count=3, seed=51):
            r1 = check_discrete_first(deep_linear_121, loss, bad, th)
            r2 = check_discrete_second(deep_linear_121, loss, bad, th)
            hits += int(not r1.passed or not r2.passed)
            assert check_discrete_first(deep_linear_121, loss, t, th).passed
        assert hits == 3, t_name
