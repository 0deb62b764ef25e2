"""Residual checks for the gradient/Hessian transformation identities.

Every check evaluates the two sides of one displayed identity at a single
parameter point, then reports scales, the absolute residual, and a pass
verdict against a relative tolerance.  The relative residual is

    rel_residual = abs_residual / max(lhs_norm, rhs_norm, 1e-12)

where ``lhs_norm``/``rhs_norm`` are *expression scales*: products of the
norms of the tensor factors that make up each side (summed over additive
terms).  By submultiplicativity these dominate the computed side norms, so
the ratio stays a meaningful backward-style error even when an identity's
right-hand side vanishes identically (symmetries have Y = 0, mirrors kill
whole blocks); a literal computed-norm denominator would degenerate to the
1e-12 floor there and report rounding noise as O(1e-3).

Landscape quantities (gradient, Hessian, loss derivatives) are always taken
at the base point; transformation tensors are taken at (theta, lam).  The
identities hold at every good position, so lam defaults to 0 but any vector
within the good region is accepted.  A check handed ``landscape=`` (one
:func:`evaluate_landscape` result at the same theta and mode) uses it instead
of evaluating its own; ``run_suite`` evaluates one landscape per position and
shares it among that position's checks.  What the checks derive from a
landscape -- its Hessian spectrum, and per (transform, lam) the chart
inverses, X, Y and the second-order right-hand-side terms -- is computed on
first use and kept with the landscape, so the checks at one position share it
too.  Every precondition still runs inside each check.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import diff_engine as de
from .errors import (
    CheckFailure,
    DegenerateLoss,
    InvalidParams,
    NotConverged,
    NotFactoredModel,
    NotFixedPoint,
    NotGoodPosition,
    SizeMismatch,
)
from .models import Loss, Model, ModelSpec, build_model, forward, make_loss, random_params
from .spectral import SpectralSummary, spectral_summary
from .tensor_core import _finite, compose, compose_k
from .transforms import (
    Transformation,
    _chart_inverses,
    _Charts,
    build_transform,
    fixed_point_project,
    good_position,
    mutate,
)

__all__ = [
    "DEFAULT_TOL_EXACT",
    "DEFAULT_TOL_FD",
    "CHECK_ANCHORS",
    "CHECK_REGISTRY",
    "PlanCheck",
    "IdentityReport",
    "LandscapeEval",
    "evaluate_landscape",
    "check_first_order",
    "check_second_action",
    "check_second_quadratic",
    "check_homogeneity_specialization",
    "check_eigen_alignment",
    "sharpness_bound",
    "check_discrete_first",
    "check_discrete_second",
    "check_mirror",
    "check_last_layer_alignment",
    "stationary_null_count",
    "sample_positions",
    "PlanEntry",
    "SuiteSpec",
    "entry_misfits",
    "run_suite",
    "default_suite",
    "write_reports_jsonl",
    "write_summary_csv",
    "SpectralSummary",
]

DEFAULT_TOL_EXACT = 1e-7
DEFAULT_TOL_FD = 1e-4
_FLOOR = 1e-12
_AGREE_TOL = 1e-12  # internal dual-formulation agreement (term dropping, mirror)


# ---------------------------------------------------------------------------
# the check registry: one row per check a plan entry can list
# ---------------------------------------------------------------------------

#: what a row needs from its entry, keyed by the phrase a misfit reports
_REQUIREMENTS: Dict[str, Callable[["PlanEntry", Model, Optional[Transformation]], bool]] = {
    "continuous transform": lambda e, m, t: t is not None and t.kind == "continuous",
    "discrete transform": lambda e, m, t: t is not None and t.kind == "discrete",
    "mirror transform": lambda e, m, t: e.transform == "mirror",
    # the scalar specializations also need positions clear of l' = 0
    "scalar homogeneous head": lambda e, m, t: m.c == 1 and m.homogeneity_degree is not None,
    "factored last layer": lambda e, m, t: m.last_layer_block is not None and m.feature_fn is not None,
}


@dataclass(frozen=True)
class _Point:
    """One sampled position of a built plan entry; ``kw`` is for the check."""

    entry: "PlanEntry"
    model: Model
    loss: Loss
    transform: Optional[Transformation]
    theta: np.ndarray
    lam: Optional[np.ndarray]
    seed: int
    kw: dict


@dataclass(frozen=True)
class PlanCheck:
    """One check a plan entry can name.  ``run`` calls the public check by its
    module-level name, so whatever rebinds that name sees every call; it
    returns one report, or a tuple of ``n_reports`` reports."""

    name: str          # what a plan entry lists under "checks"
    function: str      # the public check, and the check_name of its reports
    anchor: str
    requires: str      # a key of _REQUIREMENTS
    run: Callable[[_Point], object] = field(repr=False)
    n_reports: int = 1


CHECK_REGISTRY: Dict[str, PlanCheck] = {row.name: row for row in (
    PlanCheck("first_order", "check_first_order", "Thm 1 (i)", "continuous transform",
              lambda p: check_first_order(p.model, p.loss, p.transform, p.theta, p.lam, **p.kw)),
    PlanCheck("second_action", "check_second_action", "Thm 1 (ii)", "continuous transform",
              lambda p: check_second_action(p.model, p.loss, p.transform, p.theta, p.lam, **p.kw)),
    PlanCheck("second_quadratic", "check_second_quadratic", "Thm 1 (iii)", "continuous transform",
              lambda p: check_second_quadratic(p.model, p.loss, p.transform, p.theta, p.lam, **p.kw)),
    PlanCheck("homogeneity", "check_homogeneity_specialization", "Eq. (6)/(7)", "scalar homogeneous head",
              lambda p: check_homogeneity_specialization(p.model, p.loss, p.theta, **p.kw),
              n_reports=2),
    PlanCheck("eigen_alignment", "check_eigen_alignment", "Cor. 1", "scalar homogeneous head",
              lambda p: check_eigen_alignment(p.model, p.loss, p.theta, **p.kw)),
    PlanCheck("sharpness", "sharpness_bound", "§5.1", "scalar homogeneous head",
              lambda p: sharpness_bound(p.model, p.loss, p.theta, **p.kw)[2]),
    PlanCheck("discrete_first", "check_discrete_first", "Thm 2 (i')", "discrete transform",
              lambda p: check_discrete_first(p.model, p.loss, p.transform, p.theta, **p.kw)),
    PlanCheck("discrete_second", "check_discrete_second", "Thm 2 (ii')", "discrete transform",
              lambda p: check_discrete_second(p.model, p.loss, p.transform, p.theta, **p.kw)),
    PlanCheck("mirror", "check_mirror", "Cor. 4", "mirror transform",
              lambda p: check_mirror(p.model, p.loss, np.stack(p.entry.transform_params["columns"], axis=1),
                                     p.theta, **p.kw)),
    PlanCheck("last_layer", "check_last_layer_alignment", "Cor. 3", "factored last layer",
              lambda p: check_last_layer_alignment(p.model, p.loss, p.theta, p.entry.trials,
                                                   seed=p.seed ^ 0x5DEECE66D, **p.kw)),
)}

#: public check entry points and the statement each one exercises
CHECK_ANCHORS = {row.function: row.anchor for row in CHECK_REGISTRY.values()}
CHECK_ANCHORS["stationary_null_count"] = "§5.4"  # run by the stationary_spectrum experiment


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, Mapping):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return str(v)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity evaluation at one point.

    ``passed`` is exactly ``rel_residual <= tolerance`` (serialized under the
    key ``"pass"``); ``context`` carries model/transform names, the sampling
    seed, lam, and check-specific diagnostics.
    """

    check_name: str
    paper_anchor: str
    lhs_norm: float
    rhs_norm: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    context: Dict[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "paper_anchor": self.paper_anchor,
            "lhs_norm": float(self.lhs_norm),
            "rhs_norm": float(self.rhs_norm),
            "abs_residual": float(self.abs_residual),
            "rel_residual": float(self.rel_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "context": _jsonable(self.context),
        }


def _norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def _report(check_name, anchor, lhs, rhs, scale_l, scale_r, tol, context,
            abs_override: Optional[float] = None) -> IdentityReport:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    abs_res = _norm(lhs - rhs) if abs_override is None else float(abs_override)
    # scales dominate the computed side norms; keep the max as insurance
    lhs_norm = max(float(scale_l), _norm(lhs))
    rhs_norm = max(float(scale_r), _norm(rhs))
    rel = abs_res / max(lhs_norm, rhs_norm, _FLOOR)
    passed = bool(np.isfinite(rel) and rel <= tol)
    return IdentityReport(
        check_name=check_name,
        paper_anchor=anchor,
        lhs_norm=lhs_norm,
        rhs_norm=rhs_norm,
        abs_residual=abs_res,
        rel_residual=float(rel),
        tolerance=float(tol),
        passed=passed,
        context=dict(context),
    )


def _tol(config: Optional[de.DiffConfig], override: Optional[float]) -> float:
    if override is not None:
        return float(override)
    mode = (config or de.DiffConfig()).mode
    return DEFAULT_TOL_EXACT if mode == "exact" else DEFAULT_TOL_FD


def _base_context(model: Model, transform: Optional[Transformation], lam, extra) -> dict:
    ctx: Dict[str, object] = {
        "model": model.name,
        "transform": transform.name if transform is not None else None,
        "theta_seed": None,
        "lam": None if lam is None else [float(v) for v in np.atleast_1d(lam)],
    }
    if extra:
        ctx.update(extra)
    return ctx


# ---------------------------------------------------------------------------
# landscape evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandscapeEval:
    """All base-point landscape quantities the identity checks need.

    ``grad``/``hess`` come from differentiating the composite loss directly;
    ``jac_f``/``hess_f`` and the analytic loss derivatives feed the
    right-hand sides, so the two sides of every identity travel through
    independent code paths.  The same ``jac_f``/``hess_f`` also feed the
    Hessian assembly self-check.  One evaluation serves every check at a
    position: the checks take it as ``landscape=``.

    ``_memo`` is the per-position memo of what the checks derive from this
    landscape: the Hessian spectrum (:func:`_spectrum`) and, per transform
    object and lam, the chart inverses, good-position report, X, Y and
    second-order terms (:func:`_transform_eval`).  Each fills on first use.
    A memo entry holds its transform, so a ``mutate``d copy never reuses the
    entry of the transform it came from.
    """

    theta: np.ndarray      # (d,)
    y: np.ndarray          # (c,)
    value: float
    jac_f: np.ndarray      # (d, c)
    hess_f: np.ndarray     # (d, d, c)
    gl: np.ndarray         # (c,)    analytic loss gradient
    hl: np.ndarray         # (c, c)  analytic loss Hessian
    grad: np.ndarray       # (d,)
    hess: np.ndarray       # (d, d)
    mode: str
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def evaluate_landscape(model: Model, loss: Loss, theta, config: Optional[de.DiffConfig] = None) -> LandscapeEval:
    cfg = config or de.DiffConfig()
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.size != model.d:
        raise SizeMismatch(f"theta has {th.size} entries, model {model.name} wants {model.d}")
    y = forward(model, th)
    value, grad, hess = de.grad_and_hessian_of_loss(model, loss, th, cfg, check_assembly=False)
    jac_f = de.jacobian(model.func, th, cfg)
    hess_f = de.second_derivative(model.func, th, cfg)
    gl = _finite(loss.grad(y))
    hl = _finite(loss.hess(y))
    de._check_assembly(hess, jac_f, hess_f, gl, hl, cfg.mode)
    return LandscapeEval(
        theta=th, y=y, value=value, jac_f=jac_f, hess_f=hess_f,
        gl=gl, hl=hl, grad=grad, hess=hess, mode=cfg.mode,
    )


def _landscape(model: Model, loss: Loss, theta, cfg: de.DiffConfig,
               landscape: Optional[LandscapeEval]) -> LandscapeEval:
    """``landscape`` if it was evaluated at ``theta`` in ``cfg``'s mode, else
    a fresh evaluation; a landscape from elsewhere raises InvalidParams."""
    if landscape is None:
        return evaluate_landscape(model, loss, theta, cfg)
    th = np.asarray(theta, dtype=float).reshape(-1)
    if landscape.mode != cfg.mode or not np.array_equal(landscape.theta, th):
        raise InvalidParams(
            f"landscape was evaluated in {landscape.mode} mode at another point than "
            f"this {cfg.mode} check's theta"
        )
    return landscape


def _spectrum(ev: LandscapeEval) -> SpectralSummary:
    """The spectral summary of ``ev.hess``, computed once per landscape."""
    summary = ev._memo.get("spectrum")
    if summary is None:
        summary = ev._memo["spectrum"] = spectral_summary(ev.hess)
    return summary


@dataclass
class _TransformEval:
    """One transform's characteristic data at a landscape's position and one
    lam: the chart inverses and their good-position report, X and Y, and --
    once a second-order check asks -- the five-term right-hand sides."""

    transform: Transformation   # held so no other object can take the id that keys it
    charts: _Charts
    X: Optional[np.ndarray]
    Y: Optional[np.ndarray]
    second: Optional["_SecondOrder"] = None


def _transform_eval(ev: LandscapeEval, t: Transformation, lam) -> _TransformEval:
    """``t``'s data at ``ev``'s position and ``lam``, from ``ev``'s memo;
    raises NotGoodPosition when the position is not good."""
    key = (id(t), None if lam is None else np.asarray(lam, dtype=float).tobytes())
    te = ev._memo.get(key)
    if te is None:
        charts = _chart_inverses(t, ev.theta, ev.y, lam)
        X = Y = None
        if charts.report.ok:
            X, Y = charts.direction(t, ev.theta), charts.output(t, ev.y)
        te = ev._memo[key] = _TransformEval(t, charts, X, Y)
    if not te.charts.report.ok:
        raise NotGoodPosition(f"({t.name}) not a good position: {te.charts.report.reason}")
    return te


# ---------------------------------------------------------------------------
# Thm 1 (i): gradient identity
# ---------------------------------------------------------------------------

def check_first_order(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    lam=None,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """grad L along the characteristic direction equals grad l along Y.

    LHS = gradL o X in T(p); RHS = gradl(f(theta)) o Y.  For symmetries Y is
    identically zero and the report reduces to the orthogonality of the
    parameter motion, <gradL, X> = 0.
    """
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    te = _transform_eval(ev, transform, lam)
    X, Y = te.X, te.Y
    lhs = compose(ev.grad, X)
    rhs = compose(ev.gl, Y)
    ctx = _base_context(model, transform, te.charts.lam, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    ctx["mode"] = cfg.mode
    return _report(
        "check_first_order", CHECK_ANCHORS["check_first_order"],
        lhs, rhs,
        _norm(ev.grad) * _norm(X),
        _norm(ev.gl) * _norm(Y),
        _tol(cfg, tolerance), ctx,
    )


# ---------------------------------------------------------------------------
# Thm 1 (ii)/(iii): Hessian identities, five-term right-hand sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SecondOrder:
    """The right-hand-side terms of the second-order identities at (theta, lam).

    ``action``/``quad`` hold the five signed right-hand-side terms of the
    Hessian action and quadratic-form identities (already carrying their
    signs, so each RHS is a plain sum); ``*_scales`` hold per-term expression
    scales for the report denominators.  Terms 1, 4, 5 vanish for symmetries
    (the output map is the identity); term 3 vanishes whenever H is linear in
    theta, which covers the whole built-in catalog.
    """

    action: Tuple[np.ndarray, ...]
    action_scales: Tuple[float, ...]
    quad: Tuple[np.ndarray, ...]
    quad_scales: Tuple[float, ...]


def _second_order(ev: LandscapeEval, te: _TransformEval) -> _SecondOrder:
    t, lamv = te.transform, te.charts.lam
    th, y = ev.theta, ev.y
    hinv, ginv, X, Y = te.charts.hinv, te.charts.ginv, te.X, te.Y

    d2h_tt = _finite(t.d2h_dtheta2(lamv, th))        # (d, d, d)
    d2h_lt = _finite(t.d2h_dlambda_dtheta(lamv, th)) # (p, d, d)
    d2h_ll = _finite(t.d2h_dlambda2(lamv, th))       # (p, p, d)
    d2g_yy = _finite(t.d2g_dy2(lamv, y))             # (c, c, c)
    d2g_ly = _finite(t.d2g_dlambda_dy(lamv, y))      # (p, c, c)
    d2g_ll = _finite(t.d2g_dlambda2(lamv, y))        # (p, p, c)

    nj, ng, ngl, nhl = _norm(ev.jac_f), _norm(ev.grad), _norm(ev.gl), _norm(ev.hl)
    nhi, ngi, nx, ny = _norm(hinv), _norm(ginv), _norm(X), _norm(Y)

    hl_y = compose(ev.hl, Y)                            # (p, c)
    tt_x = compose(d2h_tt, X)                           # (p, d, d)
    yy_y = compose(d2g_yy, Y)                           # (p, c, c)

    t1 = compose_k(hl_y, ev.jac_f, 2)
    t2 = compose(ev.grad, compose(hinv, d2h_lt))
    t3 = compose(ev.grad, compose(hinv, tt_x))
    t4 = compose(ev.gl, compose(ginv, d2g_ly))
    t4 = compose_k(t4, ev.jac_f, 2)
    t5 = compose(ev.gl, compose(ginv, yy_y))
    t5 = compose_k(t5, ev.jac_f, 2)
    action = (t1, -t2, t3, t4, -t5)
    action_scales = (
        nhl * ny * nj,
        ng * nhi * _norm(d2h_lt),
        ng * nhi * _norm(d2h_tt) * nx,
        ngl * ngi * _norm(d2g_ly) * nj,
        ngl * ngi * _norm(d2g_yy) * ny * nj,
    )

    s1 = compose_k(hl_y, Y, 2)
    s2 = compose(ev.grad, compose(hinv, d2h_ll))
    s3 = compose(ev.grad, compose(hinv, compose_k(tt_x, X, 2)))
    s4 = compose(ev.gl, compose(ginv, d2g_ll))
    s5 = compose(ev.gl, compose(ginv, compose_k(yy_y, Y, 2)))
    quad = (s1, -s2, s3, s4, -s5)
    quad_scales = (
        nhl * ny * ny,
        ng * nhi * _norm(d2h_ll),
        ng * nhi * _norm(d2h_tt) * nx * nx,
        ngl * ngi * _norm(d2g_ll),
        ngl * ngi * _norm(d2g_yy) * ny * ny,
    )
    return _SecondOrder(action=action, action_scales=action_scales,
                        quad=quad, quad_scales=quad_scales)


def _second_order_terms(ev: LandscapeEval, t: Transformation, lam) -> Tuple[_TransformEval, _SecondOrder]:
    """``t``'s data at ``ev``'s position with its second-order terms, which
    are built once per memo entry."""
    te = _transform_eval(ev, t, lam)
    if te.second is None:
        te.second = _second_order(ev, te)
    return te, te.second


def _assemble_rhs(terms: Sequence[np.ndarray], scales: Sequence[float], is_symmetry: bool) -> Tuple[np.ndarray, dict]:
    """Sum the five signed terms; for symmetries also evaluate the reduced
    form and insist the dropped G-side terms really vanished."""
    full = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    diag = {
        "term_norms": [float(_norm(t)) for t in terms],
        "blue_term_norm": float(_norm(terms[2])),
    }
    if is_symmetry:
        green_max = max(_norm(terms[0]), _norm(terms[3]), _norm(terms[4]))
        reduced = terms[1] + terms[2]
        gap = _norm(full - reduced)
        zero_tol = _AGREE_TOL * max(1.0, max(scales))
        if green_max > zero_tol or gap > zero_tol:
            raise CheckFailure(
                "term-dropping inconsistency: G-side terms of a symmetry "
                f"did not vanish (max norm {green_max:.3e}, full-vs-reduced gap {gap:.3e})"
            )
        diag["green_terms_max_norm"] = float(green_max)
        diag["full_vs_reduced_gap"] = float(gap)
    return full, diag


def check_second_action(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    lam=None,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Hessian action identity: hessL o X equals the five-term RHS in T(p, d)."""
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    te, so = _second_order_terms(ev, transform, lam)
    lhs = compose(ev.hess, te.X)
    rhs, diag = _assemble_rhs(so.action, so.action_scales, transform.is_symmetry)
    ctx = _base_context(model, transform, te.charts.lam, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    ctx["mode"] = cfg.mode
    ctx.update(diag)
    return _report(
        "check_second_action", CHECK_ANCHORS["check_second_action"],
        lhs, rhs,
        _norm(ev.hess) * _norm(te.X),
        sum(so.action_scales),
        _tol(cfg, tolerance), ctx,
    )


def check_second_quadratic(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    lam=None,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Hessian quadratic-form identity: hessL o X o_2 X in T(p, p)."""
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    te, so = _second_order_terms(ev, transform, lam)
    lhs = compose_k(compose(ev.hess, te.X), te.X, 2)
    rhs, diag = _assemble_rhs(so.quad, so.quad_scales, transform.is_symmetry)
    ctx = _base_context(model, transform, te.charts.lam, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    ctx["mode"] = cfg.mode
    ctx.update(diag)
    nx = _norm(te.X)
    return _report(
        "check_second_quadratic", CHECK_ANCHORS["check_second_quadratic"],
        lhs, rhs,
        _norm(ev.hess) * nx * nx,
        sum(so.quad_scales),
        _tol(cfg, tolerance), ctx,
    )


# ---------------------------------------------------------------------------
# homogeneity specializations (scalar output)
# ---------------------------------------------------------------------------

def _homogeneous_scalars(model: Model, loss: Loss, ev: LandscapeEval) -> Tuple[float, float, float, float]:
    if model.homogeneity_degree is None:
        raise InvalidParams(f"model {model.name} does not declare a homogeneity degree")
    if model.c != 1:
        raise InvalidParams("homogeneity specializations require a scalar-output model")
    m = float(model.homogeneity_degree)
    y = float(ev.y[0])
    lp = float(ev.gl[0])
    lpp = float(ev.hl[0, 0])
    return m, y, lp, lpp


def check_homogeneity_specialization(
    model: Model,
    loss: Loss,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> Tuple[IdentityReport, IdentityReport]:
    """The two scalar-output specializations of the Hessian identities.

    Returns the report pair (Eq. (6), Eq. (7)):

        hessL theta = (m y l''/l' + m - 1) gradL        -- needs l' != 0
        <theta, hessL theta> = l'' m^2 y^2 + l' m (m-1) y

    Raises DegenerateLoss when l'(y) vanishes: Eq. (6) divides by l', and on
    that branch the identity carries no content to measure.
    """
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    m, y, lp, lpp = _homogeneous_scalars(model, loss, ev)
    A = ev.hess
    g = ev.grad
    th = ev.theta
    act = A @ th
    tol = _tol(cfg, tolerance)

    if abs(lp) <= _FLOOR * max(1.0, abs(lpp) * abs(y)):
        raise DegenerateLoss(
            f"l'(y) = {lp:.3e} at y = {y:.6g}: Eq. (6) coefficient is undefined"
        )
    coeff = m * y * lpp / lp + (m - 1.0)
    ctx6 = _base_context(model, None, None, extra_context)
    ctx6.update({"mode": cfg.mode, "m": m, "y": y, "coefficient": coeff,
                 "euler_gap": float(abs(float(th @ g) - m * y * lp))})
    rep6 = _report(
        "check_homogeneity_specialization", "Eq. (6)",
        act, coeff * g,
        _norm(A) * _norm(th),
        abs(coeff) * _norm(g),
        tol, ctx6,
    )

    lhs7 = float(th @ act)
    rhs7 = lpp * (m * y) ** 2 + lp * m * (m - 1.0) * y
    ctx7 = _base_context(model, None, None, extra_context)
    ctx7.update({"mode": cfg.mode, "m": m, "y": y})
    rep7 = _report(
        "check_homogeneity_specialization", "Eq. (7)",
        lhs7, rhs7,
        _norm(A) * float(th @ th),
        abs(lpp) * (m * y) ** 2 + abs(lp * m * (m - 1.0) * y),
        tol, ctx7,
    )
    return rep6, rep7


def check_eigen_alignment(
    model: Model,
    loss: Loss,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    null_tol: float = 1e-8,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Eigenbasis form of Eq. (6): <g, u_k> = lambda_k alpha(theta) <theta, u_k>.

    alpha = l' / (m y l'' + (m-1) l'); also asserts the gradient lies in the
    Hessian column space.  The "gradient concentrates on large |lambda_k|"
    reading is a regime heuristic, so it is surfaced only as the diagnostic
    ``top_energy_fraction``, never asserted.
    """
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    m, y, lp, lpp = _homogeneous_scalars(model, loss, ev)
    denom = m * y * lpp + (m - 1.0) * lp
    if abs(denom) <= _FLOOR * max(1.0, abs(lp), abs(lpp)):
        raise DegenerateLoss(
            f"alignment coefficient degenerate: m y l'' + (m-1) l' = {denom:.3e}"
        )
    alpha = lp / denom

    A = ev.hess
    g = ev.grad
    th = ev.theta
    summary = _spectrum(ev)
    lams = summary.eigenvalues
    U = summary.eigenvectors
    g_u = U.T @ g
    th_u = U.T @ th
    rhs_vec = lams * alpha * th_u
    gaps = np.abs(g_u - rhs_vec)

    abs_lam = np.abs(lams)
    lam_top = float(abs_lam.max()) if lams.size else 0.0
    thresh = null_tol * max(1.0, lam_top)
    keep = abs_lam > thresh
    V = U[:, keep]
    col_res = _norm(g - V @ (V.T @ g))

    g_norm = _norm(g)
    top = abs_lam >= 0.5 * lam_top if lam_top > 0 else np.zeros_like(keep)
    energy = float(np.sum(g_u[top] ** 2) / (g_norm ** 2)) if g_norm > 0 else 0.0

    ctx = _base_context(model, None, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "alpha": float(alpha),
        "lambda_max": float(summary.lambda_max),
        "null_threshold": float(thresh),
        "column_space_residual": float(col_res),
        "n_above_null": int(keep.sum()),
        "top_energy_fraction": energy,
    })
    # the residual is a max over per-eigenpair gaps plus the column-space
    # defect, not a plain vector norm, so it overrides the difference norm
    abs_res = max(float(gaps.max()) if gaps.size else 0.0, float(col_res))
    return _report(
        "check_eigen_alignment", CHECK_ANCHORS["check_eigen_alignment"],
        g_u, rhs_vec,
        g_norm,
        _norm(rhs_vec),
        _tol(cfg, tolerance), ctx,
        abs_override=abs_res,
    )


def sharpness_bound(
    model: Model,
    loss: Loss,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> Tuple[float, float, IdentityReport]:
    """Computable lower bound on the top Hessian eigenvalue.

        lambda_max >= (m / ||theta||^2) (l'' m y^2 + l' (m-1) y)

    The bound is exactly the Rayleigh quotient of theta (by Eq. (7)), which
    is re-asserted here; both facts land in one report.  Returns
    (bound, lambda_max, report).
    """
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    m, y, lp, lpp = _homogeneous_scalars(model, loss, ev)
    th = ev.theta
    nth2 = float(th @ th)
    if nth2 <= 0.0:
        raise InvalidParams("sharpness bound needs theta != 0")
    bound = (m / nth2) * (lpp * m * y * y + lp * (m - 1.0) * y)

    A = ev.hess
    summary = _spectrum(ev)
    lam_max = float(summary.lambda_max)
    rayleigh = float(th @ A @ th) / nth2

    # the bound may sit strictly below lambda_max; only a violation (or a
    # Rayleigh mismatch, which would mean Eq. (7) broke) counts as residual
    violation = max(0.0, bound - lam_max)
    ray_gap = abs(bound - rayleigh)
    abs_res = max(violation, ray_gap)
    tol = tolerance if tolerance is not None else (1e-9 if cfg.mode == "exact" else DEFAULT_TOL_FD)

    ctx = _base_context(model, None, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "m": m,
        "y": y,
        "bound": float(bound),
        "lambda_max": lam_max,
        "rayleigh": rayleigh,
        "spectral_recon_error": float(summary.recon_error),
    })
    report = _report(
        "sharpness_bound", CHECK_ANCHORS["sharpness_bound"],
        lam_max, bound,
        max(1.0, abs(lam_max)),
        max(1.0, abs(bound)),
        tol, ctx,
        abs_override=abs_res,
    )
    return float(bound), lam_max, report


# ---------------------------------------------------------------------------
# discrete realizations (fixed points of a single map)
# ---------------------------------------------------------------------------

_FIXED_POINT_TOL = 1e-12


def _require_fixed_point(t: Transformation, th: np.ndarray) -> float:
    if t.kind != "discrete":
        raise InvalidParams(f"{t.name} is not a discrete transformation")
    res = _norm(t.h(np.zeros(0), th) - th)
    if res > _FIXED_POINT_TOL * max(1.0, _norm(th)):
        raise NotFixedPoint(
            f"theta is not fixed by {t.name} (residual {res:.3e}); "
            "apply fixed_point_project first"
        )
    return res


def check_discrete_first(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """At a fixed point of a discrete realization, P^T gradL = gradL (the
    linear case reads Eq. (12): the gradient is a +1 eigenvector of P^T)."""
    cfg = config or de.DiffConfig()
    th = np.asarray(theta, dtype=float).reshape(-1)
    fp_res = _require_fixed_point(transform, th)
    ev = _landscape(model, loss, th, cfg, landscape)
    S = _finite(transform.dh_dtheta(np.zeros(0), th))
    lhs = compose(ev.grad, S)
    rhs = ev.grad
    ctx = _base_context(model, transform, None, extra_context)
    ctx.update({"mode": cfg.mode, "fixed_point_residual": fp_res, "linear_case": "Eq. (12)"})
    return _report(
        "check_discrete_first", CHECK_ANCHORS["check_discrete_first"],
        lhs, rhs,
        _norm(ev.grad) * _norm(S),
        _norm(ev.grad),
        _tol(cfg, tolerance), ctx,
    )


def check_discrete_second(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Conjugation identity P^T hessL P = hessL - gradL o hess(H); for the
    built-in (theta-linear) catalog the correction term is identically zero
    but it is still assembled from the callback (Eq. (13) is the linear case)."""
    cfg = config or de.DiffConfig()
    th = np.asarray(theta, dtype=float).reshape(-1)
    fp_res = _require_fixed_point(transform, th)
    ev = _landscape(model, loss, th, cfg, landscape)
    S = _finite(transform.dh_dtheta(np.zeros(0), th))
    lhs = compose_k(compose(ev.hess, S), S, 2)
    correction = compose(ev.grad, _finite(transform.d2h_dtheta2(np.zeros(0), th)))
    rhs = ev.hess - correction
    ns = _norm(S)
    ctx = _base_context(model, transform, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "fixed_point_residual": fp_res,
        "blue_correction_norm": float(_norm(correction)),
        "linear_case": "Eq. (13)",
    })
    return _report(
        "check_discrete_second", CHECK_ANCHORS["check_discrete_second"],
        lhs, rhs,
        _norm(ev.hess) * ns * ns,
        _norm(ev.hess) + _norm(correction),
        _tol(cfg, tolerance), ctx,
    )


def check_mirror(
    model: Model,
    loss: Loss,
    O,
    theta,
    *,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Mirror fixed-set structure: for theta orthogonal to col(O),

        O^T gradL = 0,   (I - OO^T) hessL O = 0,   OO^T hessL (I - OO^T) = 0.

    The same content phrased as conjugation by P = I - 2OO^T (the Eq. (13)
    form) is evaluated independently and the two formulations must agree to
    1e-12; the report's residual stacks the three block residuals, each
    normalized by its natural scale (gradient / Hessian norm).
    """
    cfg = config or de.DiffConfig()
    O = np.asarray(O, dtype=float)
    if O.ndim == 1:
        O = O[:, None]
    d = model.d
    if O.shape[0] != d:
        raise InvalidParams(f"O has {O.shape[0]} rows, model has d={d}")
    gram_gap = _norm(O.T @ O - np.eye(O.shape[1]))
    if gram_gap > 1e-10:
        raise InvalidParams(f"O columns are not orthonormal (gap {gram_gap:.3e})")
    th = np.asarray(theta, dtype=float).reshape(-1)
    overlap = _norm(O.T @ th)
    if overlap > _FIXED_POINT_TOL * max(1.0, _norm(th)):
        raise NotFixedPoint(
            f"theta has a component of norm {overlap:.3e} in col(O); project it out first"
        )

    ev = _landscape(model, loss, th, cfg, landscape)
    g = ev.grad
    A = ev.hess
    B = O @ O.T
    Q = np.eye(d) - B

    r_grad = _norm(O.T @ g)
    r_low = _norm(Q @ A @ O)    # col(O)-perp rows hitting col(O)
    r_high = _norm(B @ A @ Q)
    ng = max(_norm(g), _FLOOR)
    na = max(_norm(A), _FLOOR)
    parts = np.array([r_grad / ng, r_low / na, r_high / na])

    P = np.eye(d) - 2.0 * B
    conj = P.T @ A @ P - A
    block_form = -2.0 * (B @ A @ Q + Q @ A @ B)
    agree = _norm(conj - block_form)
    if agree > _AGREE_TOL * max(1.0, na):
        raise CheckFailure(
            f"mirror block structure disagrees with the conjugation identity ({agree:.3e})"
        )

    ctx = _base_context(model, None, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "n_columns": int(O.shape[1]),
        "gradient_residual": float(r_grad),
        "cross_block_residuals": [float(r_low), float(r_high)],
        "conjugation_agreement_gap": float(agree),
        "grad_norm": float(_norm(g)),
        "hessian_norm": float(_norm(A)),
    })
    # parts are pre-normalized by their natural scales, so unit norms make
    # the relative residual the stacked normalized defect itself
    return _report(
        "check_mirror", CHECK_ANCHORS["check_mirror"],
        parts, np.zeros_like(parts),
        1.0, 1.0,
        _tol(cfg, tolerance), ctx,
    )


# ---------------------------------------------------------------------------
# factored last layer
# ---------------------------------------------------------------------------

def check_last_layer_alignment(
    model: Model,
    loss: Loss,
    theta,
    trials: int = 12,
    *,
    seed: int = 0,
    config: Optional[de.DiffConfig] = None,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Last-layer Hessian blocks see only the loss curvature, Eq. (11):

        <vec V, hess_{vec W} L vec V> = <V h, hessl(y) V h>

    for every V whose row space sits inside W's row space; sampled here as
    V = U W with dense random U over ``trials`` draws.  For softmax
    cross-entropy the RHS is additionally confronted with its variance form
    Var_p(V h) = sum_k p_k z_k^2 - (sum_k p_k z_k)^2.
    """
    if model.last_layer_block is None or model.feature_fn is None:
        raise NotFactoredModel(f"model {model.name} has no factored last layer")
    if trials < 1:
        raise InvalidParams("trials must be >= 1")
    cfg = config or de.DiffConfig()
    ev = _landscape(model, loss, theta, cfg, landscape)
    th = ev.theta
    blk = model.block(model.last_layer_block)
    W = th[blk.sl].reshape(blk.shape)          # (c, s)
    h_vec = np.asarray(model.feature_fn(th), dtype=float)
    H_ww = ev.hess[blk.sl, blk.sl]             # (c*s, c*s), vec in row-major W order
    hl = ev.hl
    c = model.c

    rng = np.random.default_rng(seed)
    abs_res = 0.0
    scale_l = 0.0
    scale_r = 0.0
    softmax_gap = 0.0
    probs = None
    if loss.name == "softmax_xent":
        shifted = ev.y - ev.y.max()
        e = np.exp(shifted)
        probs = e / e.sum()
    for _ in range(trials):
        U = rng.standard_normal((c, c))
        V = U @ W
        v = V.reshape(-1)
        lhs_t = float(v @ H_ww @ v)
        z = V @ h_vec
        rhs_t = float(z @ hl @ z)
        abs_res = max(abs_res, abs(lhs_t - rhs_t))
        scale_l = max(scale_l, float(v @ v) * _norm(H_ww))
        scale_r = max(scale_r, float(z @ z) * _norm(hl))
        if probs is not None:
            var_form = float(np.sum(probs * z * z) - np.sum(probs * z) ** 2)
            softmax_gap = max(softmax_gap, abs(rhs_t - var_form))
    if probs is not None:
        abs_res = max(abs_res, softmax_gap)

    ctx = _base_context(model, None, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "trials": int(trials),
        "trial_seed": int(seed),
        "softmax_variance_gap": float(softmax_gap) if probs is not None else None,
    })
    return _report(
        "check_last_layer_alignment", CHECK_ANCHORS["check_last_layer_alignment"],
        0.0, 0.0, scale_l, scale_r, _tol(cfg, tolerance), ctx,
        abs_override=abs_res,
    )


# ---------------------------------------------------------------------------
# stationary-point null space
# ---------------------------------------------------------------------------

def stationary_null_count(
    model: Model,
    loss: Loss,
    symmetry_transforms: Sequence[Transformation],
    theta_star,
    *,
    config: Optional[de.DiffConfig] = None,
    eps_stat: float = 1e-8,
    null_tol: float = 1e-7,
    rank_tol: float = 1e-8,
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
) -> IdentityReport:
    """Null-space content of the Hessian at a (numerically) stationary point.

    Exact statement: hessL o X = 0 at stationary theta*, giving at least
    rank(stacked X rows) zero eigenvalues.  Numerically stationarity is only
    approximate, so the testable surrogate bounds ||hessL o X|| by
    kappa * ||gradL|| with kappa assembled from the explicit RHS tensors of
    the Hessian action identity (every surviving term carries a gradL
    factor for symmetries), and requires
    null_count(null_tol) >= rank(stacked X, rank_tol).
    """
    cfg = config or de.DiffConfig()
    th = np.asarray(theta_star, dtype=float).reshape(-1)
    ev = evaluate_landscape(model, loss, th, cfg)
    g_norm = _norm(ev.grad)
    if g_norm > eps_stat:
        raise NotConverged(
            f"|gradL| = {g_norm:.3e} exceeds eps_stat = {eps_stat:.1e}; "
            "run the flow longer before counting null directions"
        )

    rows: List[np.ndarray] = []
    kappas: Dict[str, float] = {}
    worst_violation = 0.0
    lhs_scale = 0.0
    bound_scale = 0.0
    for t in symmetry_transforms:
        if t.kind != "continuous" or not t.is_symmetry:
            raise InvalidParams(f"{t.name} is not a continuous symmetry")
        lamv = np.zeros(t.p)
        te = _transform_eval(ev, t, lamv)
        X, hinv = te.X, te.charts.hinv
        rows.append(X.reshape(t.p, model.d))
        hx = _norm(compose(ev.hess, X))
        m_lt = compose(hinv, _finite(t.d2h_dlambda_dtheta(lamv, th)))
        m_tt = compose(hinv, compose(_finite(t.d2h_dtheta2(lamv, th)), X))
        kappa = _norm(m_lt) + _norm(m_tt)
        kappas[t.name] = float(kappa)
        bound = kappa * g_norm
        worst_violation = max(worst_violation, max(0.0, hx - bound))
        lhs_scale = max(lhs_scale, hx)
        bound_scale = max(bound_scale, bound)

    if rows:
        stacked = np.vstack(rows)
        gram = stacked @ stacked.T
        from .spectral import jacobi_eigh
        evals, _ = jacobi_eigh(gram)
        sing = np.sqrt(np.clip(evals, 0.0, None))
        smax = float(sing.max()) if sing.size else 0.0
        rank = int(np.sum(sing > rank_tol * max(smax, _FLOOR)))
    else:
        rank = 0

    summary = _spectrum(ev)
    nulls = summary.null_count(null_tol)

    abs_res = worst_violation
    if nulls < rank:
        abs_res = max(abs_res, 1.0)  # forces a failing ratio against tiny scales

    ctx = _base_context(model, None, None, extra_context)
    ctx.update({
        "mode": cfg.mode,
        "grad_norm": float(g_norm),
        "eps_stat": float(eps_stat),
        "null_tol": float(null_tol),
        "null_count": int(nulls),
        "rank_characteristic": int(rank),
        "kappa": kappas,
        "eigenvalues": [float(v) for v in summary.eigenvalues],
    })
    return _report(
        "stationary_null_count", CHECK_ANCHORS["stationary_null_count"],
        0.0, 0.0, lhs_scale, bound_scale,
        _tol(cfg, tolerance), ctx,
        abs_override=abs_res,
    )


# ---------------------------------------------------------------------------
# position sampling
# ---------------------------------------------------------------------------

def sample_positions(
    model: Model,
    loss: Optional[Loss] = None,
    transform: Optional[Transformation] = None,
    count: int = 1,
    seed: int = 0,
    *,
    lam_scale: float = 0.3,
    margin: float = 1e-6,
    require_nondegenerate: bool = False,
    max_tries: int = 100,
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Draw ``count`` acceptable (theta, lam) pairs.

    Acceptable means: off-kink by at least ``margin`` (ReLU models), a good
    position of the transform when one is given (discrete transforms are
    projected onto their fixed set instead, with lam = None), and — when
    ``require_nondegenerate`` — clear of the l' = 0 and
    m y l'' + (m-1) l' = 0 branches that void the scalar specializations.
    """
    rng = np.random.default_rng(seed)
    out: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
    for _ in range(count):
        for _attempt in range(max_tries):
            th = random_params(model, rng)
            lam: Optional[np.ndarray] = None
            if transform is not None and transform.kind == "discrete":
                th = fixed_point_project(transform, th)
            elif transform is not None:
                lam = rng.uniform(-lam_scale, lam_scale, transform.p)
            if model.kink_margin is not None and model.kink_margin(th) < margin:
                continue
            y = forward(model, th)
            if transform is not None and transform.kind == "continuous":
                if not good_position(transform, th, y, lam).ok:
                    continue
            if require_nondegenerate:
                if loss is None:
                    raise InvalidParams("nondegenerate sampling needs the loss")
                if model.c != 1 or model.homogeneity_degree is None:
                    raise InvalidParams("nondegenerate sampling applies to scalar homogeneous models")
                m = float(model.homogeneity_degree)
                yv = float(y[0])
                lp = float(np.asarray(loss.grad(y)).reshape(-1)[0])
                lpp = float(np.asarray(loss.hess(y)).reshape(1, 1)[0, 0])
                scale = max(1.0, abs(lp), abs(lpp))
                if abs(lp) < 1e-6 * scale:
                    continue
                if abs(m * yv * lpp + (m - 1.0) * lp) < 1e-6 * scale:
                    continue
            out.append((th, lam))
            break
        else:
            raise NotGoodPosition(
                f"could not sample an acceptable position for {model.name} "
                f"in {max_tries} tries"
            )
    return out


# ---------------------------------------------------------------------------
# suite plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    """One (model, loss, transform) configuration and the checks to run on it."""

    model: ModelSpec
    loss: str
    loss_params: Mapping = field(default_factory=dict)
    transform: Optional[str] = None
    transform_params: Mapping = field(default_factory=dict)
    checks: Tuple[str, ...] = ("first_order",)
    positions: int = 3
    seed: int = 0
    mode: str = "exact"
    lam_scale: float = 0.3
    margin: float = 1e-6
    tolerances: Mapping = field(default_factory=dict)
    trials: int = 12
    mutation: Optional[Mapping] = None   # {"callback": name, "scale": factor}


@dataclass(frozen=True)
class SuiteSpec:
    entries: Tuple[PlanEntry, ...]
    master_seed: int = 0


def _entry_seed(plan: SuiteSpec, index: int, entry: PlanEntry) -> int:
    ss = np.random.SeedSequence((plan.master_seed, entry.seed, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def _build_entry(entry: PlanEntry) -> Tuple[Model, Optional[Transformation]]:
    model = build_model(entry.model)
    transform: Optional[Transformation] = None
    if entry.transform is not None:
        transform = build_transform(entry.transform, dict(entry.transform_params), model)
        if entry.mutation is not None:
            transform = mutate(transform, entry.mutation["callback"], float(entry.mutation["scale"]))
    return model, transform


def entry_misfits(entry: PlanEntry) -> List[Tuple[str, str]]:
    """Every check or tolerance key of ``entry`` that its model and transform
    cannot serve, as (path inside the entry, reason); empty when all fit."""
    model, transform = _build_entry(entry)
    known = ", ".join(CHECK_REGISTRY)
    out: List[Tuple[str, str]] = []
    for i, name in enumerate(entry.checks):
        row = CHECK_REGISTRY.get(name)
        if row is None:
            out.append((f"checks[{i}]", f"unknown check {name!r} (known: {known})"))
        elif not _REQUIREMENTS[row.requires](entry, model, transform):
            out.append((f"checks[{i}]", f"{name} needs a {row.requires} "
                        f"(model {model.name}, transform {entry.transform})"))
    for key in entry.tolerances:
        if key not in CHECK_REGISTRY:
            out.append((f"tolerances.{key}", f"unknown check {key!r} (known: {known})"))
    return out


def _run_entry(plan: SuiteSpec, index: int, entry: PlanEntry) -> List[IdentityReport]:
    model, transform = _build_entry(entry)
    loss = make_loss(entry.loss, **dict(entry.loss_params))
    rows = [CHECK_REGISTRY[c] for c in entry.checks]
    cfg = de.DiffConfig(mode=entry.mode)
    pos_seed = _entry_seed(plan, index, entry)
    margin = entry.margin
    if entry.mode == "finite_difference" and model.kink_margin is not None:
        margin = max(margin, 1e-3)  # keep FD stencils clear of the kink set
    positions = sample_positions(
        model, loss, transform,
        count=entry.positions, seed=pos_seed,
        lam_scale=entry.lam_scale, margin=margin,
        require_nondegenerate=any(r.requires == "scalar homogeneous head" for r in rows),
    )
    reports: List[IdentityReport] = []
    for pos_idx, (th, lam) in enumerate(positions):
        base = {"theta_seed": pos_seed, "entry": index, "position": pos_idx}
        ev = evaluate_landscape(model, loss, th, cfg)
        for row in rows:
            kw = {"config": cfg, "tolerance": entry.tolerances.get(row.name),
                  "extra_context": base, "landscape": ev}
            out = row.run(_Point(entry, model, loss, transform, th, lam, pos_seed, kw))
            reports.extend(out if row.n_reports > 1 else (out,))
    return reports


def run_suite(plan: SuiteSpec) -> List[IdentityReport]:
    """Run every entry of the plan and merge reports in plan order.

    Every entry is held against the check registry first, so a check that
    does not fit its entry raises InvalidParams before anything is sampled.
    """
    for index, entry in enumerate(plan.entries):
        misfits = entry_misfits(entry)
        if misfits:
            raise InvalidParams(f"plan entry {index}: "
                                + "; ".join(f"{where}: {why}" for where, why in misfits))
    reports: List[IdentityReport] = []
    for index, entry in enumerate(plan.entries):
        reports.extend(_run_entry(plan, index, entry))
    return reports


def default_suite(master_seed: int = 0, positions: int = 3, mode: str = "exact") -> SuiteSpec:
    """The full-catalog plan used by the bundled configuration."""
    second = ("first_order", "second_action", "second_quadratic")
    scalar = second + ("homogeneity", "eigen_alignment", "sharpness")
    entries = (
        # homogeneity charts over scalar heads
        PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=11),
                  loss="square", loss_params={"target": 0.7},
                  transform="homogeneity_scaling", checks=scalar,
                  positions=positions, seed=1, mode=mode),
        PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 4, 3, 1]}, seed=12),
                  loss="exponential", loss_params={"label": 1.0},
                  transform="homogeneity_scaling", checks=scalar,
                  positions=positions, seed=2, mode=mode),
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=13),
                  loss="logistic", loss_params={"label": -1.0},
                  transform="homogeneity_scaling", checks=scalar,
                  positions=positions, seed=3, mode=mode),
        # vector heads keep the general identities only
        PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 2]}, seed=14),
                  loss="square", loss_params={"target": [0.3, -0.4]},
                  transform="homogeneity_scaling", checks=second,
                  positions=positions, seed=4, mode=mode),
        # rescaling symmetry
        PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 3, 1]}, seed=15),
                  loss="square", loss_params={"target": -0.2},
                  transform="layer_rescaling", transform_params={"blocks": ["W1", "W2"]},
                  checks=second, positions=positions, seed=5, mode=mode),
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [2, 3, 2]}, seed=16),
                  loss="square", loss_params={"target": [0.1, 0.5]},
                  transform="layer_rescaling", transform_params={"blocks": ["W1", "W2"]},
                  checks=second, positions=positions, seed=6, mode=mode),
        # inner linear reparametrizations, symmetric and not
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [2, 3, 1]}, seed=17),
                  loss="exponential", loss_params={"label": -1.0},
                  transform="linear_reparam",
                  transform_params={"A": [[0.4, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.5]],
                                    "blocks": ["W1", "W2"]},
                  checks=second, positions=positions, seed=7, mode=mode),
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [2, 2, 2]}, seed=18),
                  loss="square", loss_params={"target": [0.2, -0.1]},
                  transform="linear_reparam",
                  transform_params={"A": [[0.0, 0.7], [-0.7, 0.0]], "blocks": ["W1", "W2"]},
                  checks=second, positions=positions, seed=8, mode=mode),
        # output-side action on the factored head
        PlanEntry(model=ModelSpec("factored_last_layer", {"c": 3, "s": 2, "hidden": [3]}, seed=19),
                  loss="softmax_xent", loss_params={"n_classes": 3, "label": 1},
                  transform="last_layer_left_action",
                  checks=second + ("last_layer",),
                  positions=positions, seed=9, mode=mode),
        PlanEntry(model=ModelSpec("factored_last_layer", {"c": 2, "s": 3, "hidden": [2]}, seed=20),
                  loss="square", loss_params={"target": [0.4, 0.0]},
                  transform="last_layer_left_action",
                  checks=second + ("last_layer",),
                  positions=positions, seed=10, mode=mode),
        # the hand probe
        PlanEntry(model=ModelSpec("linear_probe", {"x": [1.0, 2.0]}, seed=21),
                  loss="square", loss_params={"target": 2.0},
                  transform="homogeneity_scaling", checks=scalar,
                  positions=positions, seed=11, mode=mode),
        # discrete realizations
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=22),
                  loss="square", loss_params={"target": 0.3},
                  transform="sign_flip", transform_params={"indices": [0, 2]},
                  checks=("discrete_first", "discrete_second"),
                  positions=positions, seed=12, mode=mode),
        PlanEntry(model=ModelSpec("homogeneous_relu_mlp", {"widths": [2, 2, 1]}, seed=23),
                  loss="square", loss_params={"target": 0.5},
                  transform="permutation", transform_params={"perm": [2, 3, 0, 1, 5, 4]},
                  checks=("discrete_first", "discrete_second"),
                  positions=positions, seed=13, mode=mode),
        PlanEntry(model=ModelSpec("deep_linear", {"widths": [1, 2, 1]}, seed=24),
                  loss="square", loss_params={"target": -0.4},
                  transform="mirror",
                  transform_params={"columns": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]},
                  checks=("discrete_first", "discrete_second", "mirror"),
                  positions=positions, seed=14, mode=mode),
    )
    return SuiteSpec(entries=entries, master_seed=master_seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_reports_jsonl(reports: Sequence[IdentityReport], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")


def write_summary_csv(reports: Sequence[IdentityReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["check_name", "paper_anchor", "rel_residual", "tolerance", "pass"])
        for rep in reports:
            writer.writerow([
                rep.check_name,
                rep.paper_anchor,
                repr(float(rep.rel_residual)),
                repr(float(rep.tolerance)),
                "true" if rep.passed else "false",
            ])
