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
of evaluating its own; ``run_suite`` evaluates one batched landscape per plan
entry (:func:`evaluate_landscapes`, one map evaluation per block of the
entry's positions: the model with the composite loss appended as a last
output column) and shares each position's landscape among that position's
checks.  What the checks derive from a landscape -- its Hessian spectrum,
and per (transform, lam) the chart data (the chart inverses with X and Y
and the transform's second-order derivatives, one
``transforms._chart_inverses`` result) and the second-order
right-hand-side terms -- is computed on first use and
kept with the landscape, so the checks at one position share it too; in a
suite run the chart data are the ones the sampler took when it accepted the
position.  A check called without ``landscape=`` computes all of it itself,
and every precondition still runs inside each check.
"""

from __future__ import annotations

import csv
import json
import math
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
from .models import (Loss, Model, ModelSpec, _head_margins, _head_scalars, _is_integer,
                     _is_real, _json_value, _rayleigh_bound, _reals, _require_fit,
                     _scalar_homogeneous, build_model, forward, make_loss, random_params)
from .spectral import SpectralSummary, _certified_eigh, spectral_summary
from .tensor_core import _finite, _point, compose, compose_k
from .transforms import (
    MUTABLE_CALLBACKS,
    Transformation,
    _chart_inverses,
    _Charts,
    _is_involution,
    _list_keys,
    _require_continuous_symmetry,
    _require_orthonormal,
    build_transform,
    fixed_point_project,
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
    "evaluate_landscapes",
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
    "BuiltEntry",
    "entry_misfits",
    "run_entries",
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
_EIGEN_NULL_TOL = 1e-8  # relative null threshold of check_eigen_alignment's column space
#: sample_positions' default kink margin, lam half-width and draws per position
_MARGIN = 1e-6
_LAM_SCALE = 0.3
_MAX_TRIES = 100


# ---------------------------------------------------------------------------
# the check registry: one row per check a plan entry can list
# ---------------------------------------------------------------------------

#: what a row needs from its entry's built model and catalog transform,
#: keyed by the phrase a misfit reports
_REQUIREMENTS: Dict[str, Callable[[Model, Optional[Transformation]], bool]] = {
    "continuous transform": lambda m, t: t is not None and t.kind == "continuous",
    # held at the model's init_params: fixed_point_project needs it at every draw
    "discrete involution": lambda m, t: (t is not None and t.kind == "discrete"
                                         and _is_involution(t, m.init_params)),
    "mirror transform": lambda m, t: t is not None and t.name == "mirror",
    # the scalar specializations also need positions clear of l' = 0
    "scalar homogeneous head": lambda m, t: _scalar_homogeneous(m),
    "factored last layer": lambda m, t: m.last_layer_block is not None and m.feature_fn is not None,
}


@dataclass(frozen=True)
class _Point:
    """One sampled position of a built plan entry; ``kw`` is for the check."""

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
    # its two reports carry the halves of this anchor, "Eq. (6)" and "Eq. (7)"
    PlanCheck("homogeneity", "check_homogeneity_specialization", "Eq. (6)/(7)", "scalar homogeneous head",
              lambda p: check_homogeneity_specialization(p.model, p.loss, p.theta, **p.kw),
              n_reports=2),
    PlanCheck("eigen_alignment", "check_eigen_alignment", "Cor. 1", "scalar homogeneous head",
              lambda p: check_eigen_alignment(p.model, p.loss, p.theta, **p.kw)),
    PlanCheck("sharpness", "sharpness_bound", "§5.1", "scalar homogeneous head",
              lambda p: sharpness_bound(p.model, p.loss, p.theta, **p.kw)[2]),
    PlanCheck("discrete_first", "check_discrete_first", "Thm 2 (i')", "discrete involution",
              lambda p: check_discrete_first(p.model, p.loss, p.transform, p.theta, **p.kw)),
    PlanCheck("discrete_second", "check_discrete_second", "Thm 2 (ii')", "discrete involution",
              lambda p: check_discrete_second(p.model, p.loss, p.transform, p.theta, **p.kw)),
    PlanCheck("mirror", "check_mirror", "Cor. 4", "mirror transform",
              lambda p: check_mirror(p.model, p.loss, np.stack(p.transform.params["columns"], axis=1),
                                     p.theta, **p.kw)),
    PlanCheck("last_layer", "check_last_layer_alignment", "Cor. 3", "factored last layer",
              lambda p: check_last_layer_alignment(p.model, p.loss, p.theta,
                                                   seed=p.seed ^ 0x5DEECE66D, **p.kw)),
)}

#: the checks no plan entry lists: each one's anchor and the experiment that runs it
_EXPERIMENT_CHECKS: Dict[str, Tuple[str, str]] = {
    "stationary_null_count": ("§5.4", "stationary_spectrum"),
    "gf_charge_conservation": ("Cor. 2", "flow"),
    "norm_growth": ("§4.2", "flow"),
    "noether_drift": ("Cor. 2", "sgf_drift"),
}

#: every check name a report carries, and the statement each one exercises
CHECK_ANCHORS = {row.function: row.anchor for row in CHECK_REGISTRY.values()}
CHECK_ANCHORS.update((name, anchor) for name, (anchor, _) in _EXPERIMENT_CHECKS.items())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

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
        """The report as a dict for json's encoder, ``passed`` under ``"pass"`` and
        ``context`` as built; pass ``models._json_value`` as ``default=``."""
        return {
            "check_name": self.check_name,
            "paper_anchor": self.paper_anchor,
            "lhs_norm": float(self.lhs_norm),
            "rhs_norm": float(self.rhs_norm),
            "abs_residual": float(self.abs_residual),
            "rel_residual": float(self.rel_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "context": self.context,
        }


def _norm(a) -> float:
    # np.linalg.norm's own Frobenius path, without its dispatch
    x = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


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


def _positive(value, what: str) -> float:
    """A tolerance ``what`` as a float; InvalidParams unless it is a finite
    positive real."""
    if not (_is_real(value) and value > 0):
        raise InvalidParams(f"{what} must be a finite positive number, got {value!r}")
    return float(value)


def _tol(mode: str, override: Optional[float]) -> float:
    if override is not None:
        return _positive(override, "tolerance")
    return DEFAULT_TOL_EXACT if mode == "exact" else DEFAULT_TOL_FD


def _base_context(model: Model, transform: Optional[Transformation], lam, mode: str, extra) -> dict:
    ctx: Dict[str, object] = {
        "model": model.name,
        "transform": transform.name if transform is not None else None,
        "theta_seed": None,
        "lam": None if lam is None else [float(v) for v in np.atleast_1d(lam)],
    }
    if extra:
        ctx.update(extra)
    ctx["mode"] = mode
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
    independent code paths.  Both come from one sweep, which shares only the
    model's forward pass: the composite is ``loss.apply`` differentiated by
    the sweep, the right-hand sides use the analytic ``loss.grad`` and
    ``loss.hess``.  The same ``jac_f``/``hess_f`` also feed the Hessian
    assembly self-check.  One evaluation serves every check at a position:
    the checks take it as ``landscape=``.

    ``_memo`` is the per-position memo of what the checks derive from this
    landscape: the Hessian spectrum (:func:`_spectrum`) and, per transform
    object and lam, the chart data (:func:`_transform_eval`) and the
    second-order terms (:func:`_second_order_terms`).  Each fills on first
    use, except that a suite run starts it with the sampler's chart data.
    A chart entry holds its transform, so a ``mutate``d copy never reuses the
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


def evaluate_landscapes(model: Model, loss: Loss, thetas: Sequence, mode: str = "exact"
                        ) -> List[LandscapeEval]:
    """The landscape at each of ``thetas``, from one sweep of the mode over
    all of them of one map: the model's outputs (..., c) with ``loss.apply``
    of them appended as a last column (``de._landscape_map``), one map
    evaluation per block of positions.  ``y``, ``jac_f`` and ``hess_f`` are
    its first c columns, ``value``, ``grad`` and ``hess`` its last, each a
    copy of what a sweep of the model or of the composite alone gives.  Each
    position keeps its own finiteness checks, analytic loss derivatives and
    Hessian assembly check, which holds the composite column against the
    analytic ``loss.grad``/``loss.hess`` assembly."""
    ths = [_point(theta, model.d, "theta") for theta in thetas]
    de._check_mode(mode)
    joined = de._values_and_derivatives(de._landscape_map(model, loss), ths, mode)
    out = []
    for th, tensors in zip(ths, joined):
        # the model's columns come first, the composite loss's is the last
        y, jac_f, hess_f = (t[..., :-1].copy() for t in tensors)
        value, grad, hess = (t[..., -1].copy() for t in tensors)
        gl = _finite(loss.grad(y))
        hl = _finite(loss.hess(y))
        de._check_assembly(hess, jac_f, hess_f, gl, hl, mode)
        out.append(LandscapeEval(
            theta=th, y=y, value=float(value), jac_f=jac_f, hess_f=hess_f,
            gl=gl, hl=hl, grad=grad, hess=hess, mode=mode,
        ))
    return out


def evaluate_landscape(model: Model, loss: Loss, theta, mode: str = "exact") -> LandscapeEval:
    """The landscape at ``theta``: :func:`evaluate_landscapes` at the one
    position."""
    return evaluate_landscapes(model, loss, [theta], mode)[0]


def _landscape_bytes(model: Model) -> int:
    """Bytes of one position's landscape tensors: ``y``, ``jac_f`` and
    ``hess_f`` of the model and ``value``, ``grad`` and ``hess`` of the
    composite loss."""
    d = model.d
    return 8 * (1 + d + d * d) * (model.c + 1)


def _landscape(model: Model, loss: Loss, theta, mode: str,
               landscape: Optional[LandscapeEval]) -> LandscapeEval:
    """``landscape`` if it was evaluated at ``theta`` in ``mode``, else a
    fresh evaluation; an unknown mode or a landscape from elsewhere raises
    InvalidParams.  ``theta`` is compared with ``landscape.theta`` as it is
    handed in, not read again: ``np.array_equal`` is False for anything
    that is not those very numbers."""
    de._check_mode(mode)
    if landscape is None:
        return evaluate_landscape(model, loss, theta, mode)
    if landscape.mode != mode or not np.array_equal(landscape.theta, theta):
        raise InvalidParams(
            f"landscape was evaluated in {landscape.mode} mode at another point than "
            f"this {mode} check's theta"
        )
    return landscape


def _spectrum(ev: LandscapeEval) -> SpectralSummary:
    """The spectral summary of ``ev.hess``, computed once per landscape."""
    summary = ev._memo.get("spectrum")
    if summary is None:
        summary = ev._memo["spectrum"] = spectral_summary(ev.hess)
    return summary


def _memo_key(t: Transformation, lam) -> tuple:
    return id(t), None if lam is None else _point(lam, None, "lambda").tobytes()


def _transform_eval(ev: LandscapeEval, t: Transformation, lam) -> _Charts:
    """``t``'s chart data at ``ev``'s position and ``lam``, from ``ev``'s
    memo; raises NotGoodPosition when the position is not good."""
    key = _memo_key(t, lam)
    charts = ev._memo.get(key)
    if charts is None:
        charts = ev._memo[key] = _chart_inverses(t, ev.theta, ev.y, lam)
    if not charts.report.ok:
        raise NotGoodPosition(f"({t.name}) not a good position: {charts.report.reason}")
    return charts


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
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """grad L along the characteristic direction equals grad l along Y.

    LHS = gradL o X in T(p); RHS = gradl(f(theta)) o Y.  For symmetries Y is
    identically zero and the report reduces to the orthogonality of the
    parameter motion, <gradL, X> = 0.
    """
    ev = _landscape(model, loss, theta, mode, landscape)
    ch = _transform_eval(ev, transform, lam)
    X, Y = ch.X, ch.Y
    lhs = compose(ev.grad, X)
    rhs = compose(ev.gl, Y)
    ctx = _base_context(model, transform, ch.lam, mode, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    return _report(
        "check_first_order", CHECK_ANCHORS["check_first_order"],
        lhs, rhs,
        _norm(ev.grad) * _norm(X),
        _norm(ev.gl) * _norm(Y),
        _tol(mode, tolerance), ctx,
    )


# ---------------------------------------------------------------------------
# Thm 1 (ii)/(iii): Hessian identities, five-term right-hand sides
# ---------------------------------------------------------------------------

def _callback(t: Transformation, name: str, lam: np.ndarray, v: np.ndarray) -> Optional[np.ndarray]:
    """``t``'s derivative callback ``name`` at (lam, v), checked finite; None
    where ``t`` declares that derivative identically zero."""
    cb = getattr(t, name)
    return None if cb is None else _finite(cb(lam, v))


@dataclass(frozen=True)
class _SecondOrder:
    """The right-hand-side terms of the second-order identities at (theta, lam).

    ``action``/``quad`` hold the five signed right-hand-side terms of the
    Hessian action and quadratic-form identities (already carrying their
    signs, so each RHS is a plain sum); ``*_scales`` hold per-term expression
    scales for the report denominators.  Terms 1, 4, 5 vanish for symmetries
    (the output map is the identity); term 3 vanishes whenever H is linear in
    theta, which covers the whole built-in catalog.  A term fed by a callback
    the transform declares zero (``None``) is an exact ``0.0`` of scale
    ``0.0``; term 1 is always an array, so each sum keeps its shape.
    """

    action: Tuple[np.ndarray, ...]
    action_scales: Tuple[float, ...]
    quad: Tuple[np.ndarray, ...]
    quad_scales: Tuple[float, ...]


def _second_order(ev: LandscapeEval, ch: _Charts) -> _SecondOrder:
    hinv, ginv, X, Y = ch.hinv, ch.ginv, ch.X, ch.Y
    # the transform's second-order callbacks at the charts' position, as the
    # charts carry them: d2h_dtheta2 (d, d, d), d2h_dlambda_dtheta (p, d, d),
    # d2h_dlambda2 (p, p, d), d2g_dy2 (c, c, c), d2g_dlambda_dy (p, c, c),
    # d2g_dlambda2 (p, p, c)
    d2h_tt, d2h_lt, d2h_ll, d2g_yy, d2g_ly, d2g_ll = (
        None if v is None else _finite(v) for v in ch.second)

    nj, ng, ngl, nhl = _norm(ev.jac_f), _norm(ev.grad), _norm(ev.gl), _norm(ev.hl)
    nhi, ngi, nx, ny = _norm(hinv), _norm(ginv), _norm(X), _norm(Y)

    def h_side(m):  # gradL o (dH/dtheta)^-1 o m
        return compose(ev.grad, compose(hinv, m))

    def g_side(m):  # gradl o (dG/dy)^-1 o m
        return compose(ev.gl, compose(ginv, m))

    # (term, scale) per slot; the declared zeros keep (0.0, 0.0)
    hl_y = compose(ev.hl, Y)                            # (p, c)
    action = [(compose_k(hl_y, ev.jac_f, 2), nhl * ny * nj)] + [(0.0, 0.0)] * 4
    quad = [(compose_k(hl_y, Y, 2), nhl * ny * ny)] + [(0.0, 0.0)] * 4
    if d2h_lt is not None:
        action[1] = (-h_side(d2h_lt), ng * nhi * _norm(d2h_lt))
    if d2h_ll is not None:
        quad[1] = (-h_side(d2h_ll), ng * nhi * _norm(d2h_ll))
    if d2h_tt is not None:
        tt_x = compose(d2h_tt, X)                       # (p, d, d)
        action[2] = (h_side(tt_x), ng * nhi * _norm(d2h_tt) * nx)
        quad[2] = (h_side(compose_k(tt_x, X, 2)), ng * nhi * _norm(d2h_tt) * nx * nx)
    if d2g_ly is not None:
        action[3] = (compose_k(g_side(d2g_ly), ev.jac_f, 2), ngl * ngi * _norm(d2g_ly) * nj)
    if d2g_ll is not None:
        quad[3] = (g_side(d2g_ll), ngl * ngi * _norm(d2g_ll))
    if d2g_yy is not None:
        yy_y = compose(d2g_yy, Y)                       # (p, c, c)
        action[4] = (-compose_k(g_side(yy_y), ev.jac_f, 2), ngl * ngi * _norm(d2g_yy) * ny * nj)
        quad[4] = (-g_side(compose_k(yy_y, Y, 2)), ngl * ngi * _norm(d2g_yy) * ny * ny)
    (a_terms, a_scales), (q_terms, q_scales) = zip(*action), zip(*quad)
    return _SecondOrder(action=a_terms, action_scales=a_scales,
                        quad=q_terms, quad_scales=q_scales)


def _second_order_terms(ev: LandscapeEval, t: Transformation, lam) -> Tuple[_Charts, _SecondOrder]:
    """``t``'s chart data at ``ev``'s position with its second-order terms,
    which are built once per position and kept beside the charts they were
    built from (the memo holds those charts, so their id stays theirs)."""
    ch = _transform_eval(ev, t, lam)
    key = ("second", id(ch))
    so = ev._memo.get(key)
    if so is None:
        so = ev._memo[key] = _second_order(ev, ch)
    return ch, so


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
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Hessian action identity: hessL o X equals the five-term RHS in T(p, d)."""
    ev = _landscape(model, loss, theta, mode, landscape)
    ch, so = _second_order_terms(ev, transform, lam)
    lhs = compose(ev.hess, ch.X)
    rhs, diag = _assemble_rhs(so.action, so.action_scales, transform.is_symmetry)
    ctx = _base_context(model, transform, ch.lam, mode, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    ctx.update(diag)
    return _report(
        "check_second_action", CHECK_ANCHORS["check_second_action"],
        lhs, rhs,
        _norm(ev.hess) * _norm(ch.X),
        sum(so.action_scales),
        _tol(mode, tolerance), ctx,
    )


def check_second_quadratic(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    lam=None,
    *,
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Hessian quadratic-form identity: hessL o X o_2 X in T(p, p)."""
    ev = _landscape(model, loss, theta, mode, landscape)
    ch, so = _second_order_terms(ev, transform, lam)
    lhs = compose_k(compose(ev.hess, ch.X), ch.X, 2)
    rhs, diag = _assemble_rhs(so.quad, so.quad_scales, transform.is_symmetry)
    ctx = _base_context(model, transform, ch.lam, mode, extra_context)
    ctx["is_symmetry"] = transform.is_symmetry
    ctx.update(diag)
    nx = _norm(ch.X)
    return _report(
        "check_second_quadratic", CHECK_ANCHORS["check_second_quadratic"],
        lhs, rhs,
        _norm(ev.hess) * nx * nx,
        sum(so.quad_scales),
        _tol(mode, tolerance), ctx,
    )


# ---------------------------------------------------------------------------
# homogeneity specializations (scalar output)
# ---------------------------------------------------------------------------

def check_homogeneity_specialization(
    model: Model,
    loss: Loss,
    theta,
    *,
    mode: str = "exact",
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
    ev = _landscape(model, loss, theta, mode, landscape)
    m, y, lp, lpp = _head_scalars(model, ev.y, ev.gl, ev.hl)
    A = ev.hess
    g = ev.grad
    th = ev.theta
    act = A @ th
    a_norm = _norm(A)
    tol = _tol(mode, tolerance)

    if _head_margins(m, y, lp, lpp)[0] <= _FLOOR:
        raise DegenerateLoss(
            f"l'(y) = {lp:.3e} at y = {y:.6g}: Eq. (6) coefficient is undefined"
        )
    coeff = m * y * lpp / lp + (m - 1.0)
    ctx6 = _base_context(model, None, None, mode, extra_context)
    ctx6.update({"m": m, "y": y, "coefficient": coeff,
                 "euler_gap": float(abs(float(th @ g) - m * y * lp))})
    rep6 = _report(
        "check_homogeneity_specialization", "Eq. (6)",
        act, coeff * g,
        a_norm * _norm(th),
        abs(coeff) * _norm(g),
        tol, ctx6,
    )

    lhs7 = float(th @ act)
    rhs7 = lpp * (m * y) ** 2 + lp * m * (m - 1.0) * y
    ctx7 = _base_context(model, None, None, mode, extra_context)
    ctx7.update({"m": m, "y": y})
    rep7 = _report(
        "check_homogeneity_specialization", "Eq. (7)",
        lhs7, rhs7,
        a_norm * float(th @ th),
        abs(lpp) * (m * y) ** 2 + abs(lp * m * (m - 1.0) * y),
        tol, ctx7,
    )
    return rep6, rep7


def check_eigen_alignment(
    model: Model,
    loss: Loss,
    theta,
    *,
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Eigenbasis form of Eq. (6): <g, u_k> = lambda_k alpha(theta) <theta, u_k>.

    alpha = l' / (m y l'' + (m-1) l'); also asserts the gradient lies in the
    Hessian column space.  The "gradient concentrates on large |lambda_k|"
    reading is a regime heuristic, so it is surfaced only as the diagnostic
    ``top_energy_fraction``, never asserted.
    """
    ev = _landscape(model, loss, theta, mode, landscape)
    m, y, lp, lpp = _head_scalars(model, ev.y, ev.gl, ev.hl)
    denom = m * y * lpp + (m - 1.0) * lp
    if _head_margins(m, y, lp, lpp)[1] <= _FLOOR:
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
    thresh = _EIGEN_NULL_TOL * max(1.0, lam_top)
    keep = abs_lam > thresh
    V = U[:, keep]
    col_res = _norm(g - V @ (V.T @ g))

    g_norm = _norm(g)
    top = abs_lam >= 0.5 * lam_top if lam_top > 0 else np.zeros_like(keep)
    energy = float(np.sum(g_u[top] ** 2) / (g_norm ** 2)) if g_norm > 0 else 0.0

    ctx = _base_context(model, None, None, mode, extra_context)
    ctx.update({
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
        _tol(mode, tolerance), ctx,
        abs_override=abs_res,
    )


def sharpness_bound(
    model: Model,
    loss: Loss,
    theta,
    *,
    mode: str = "exact",
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
    ev = _landscape(model, loss, theta, mode, landscape)
    m, y, lp, lpp = _head_scalars(model, ev.y, ev.gl, ev.hl)
    th = ev.theta
    nth2 = float(th @ th)
    if nth2 <= 0.0:
        raise InvalidParams("sharpness bound needs theta != 0")
    bound = _rayleigh_bound(m, y, lp, lpp, nth2)

    A = ev.hess
    summary = _spectrum(ev)
    lam_max = float(summary.lambda_max)
    rayleigh = float(th @ A @ th) / nth2

    # the bound may sit strictly below lambda_max; only a violation (or a
    # Rayleigh mismatch, which would mean Eq. (7) broke) counts as residual
    violation = max(0.0, bound - lam_max)
    ray_gap = abs(bound - rayleigh)
    abs_res = max(violation, ray_gap)
    tol = tolerance if tolerance is not None else (1e-9 if mode == "exact" else DEFAULT_TOL_FD)

    ctx = _base_context(model, None, None, mode, extra_context)
    ctx.update({
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
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """At a fixed point of a discrete realization, P^T gradL = gradL (the
    linear case reads Eq. (12): the gradient is a +1 eigenvector of P^T)."""
    th = _point(theta, model.d, "theta")
    fp_res = _require_fixed_point(transform, th)
    ev = _landscape(model, loss, th, mode, landscape)
    S = _finite(transform.dh_dtheta(np.zeros(0), th))
    lhs = compose(ev.grad, S)
    rhs = ev.grad
    ctx = _base_context(model, transform, None, mode, extra_context)
    ctx.update({"fixed_point_residual": fp_res, "linear_case": "Eq. (12)"})
    return _report(
        "check_discrete_first", CHECK_ANCHORS["check_discrete_first"],
        lhs, rhs,
        _norm(ev.grad) * _norm(S),
        _norm(ev.grad),
        _tol(mode, tolerance), ctx,
    )


def check_discrete_second(
    model: Model,
    loss: Loss,
    transform: Transformation,
    theta,
    *,
    mode: str = "exact",
    tolerance: Optional[float] = None,
    extra_context: Optional[Mapping] = None,
    landscape: Optional[LandscapeEval] = None,
) -> IdentityReport:
    """Conjugation identity P^T hessL P = hessL - gradL o hess(H).  The
    built-in (theta-linear) catalog declares hess(H) zero, so the correction
    is an exact 0.0 there (Eq. (13) is the linear case)."""
    th = _point(theta, model.d, "theta")
    fp_res = _require_fixed_point(transform, th)
    ev = _landscape(model, loss, th, mode, landscape)
    S = _finite(transform.dh_dtheta(np.zeros(0), th))
    lhs = compose_k(compose(ev.hess, S), S, 2)
    d2h = _callback(transform, "d2h_dtheta2", np.zeros(0), th)
    correction = 0.0 if d2h is None else compose(ev.grad, d2h)
    rhs = ev.hess - correction
    ns = _norm(S)
    ctx = _base_context(model, transform, None, mode, extra_context)
    ctx.update({
        "fixed_point_residual": fp_res,
        "blue_correction_norm": float(_norm(correction)),
        "linear_case": "Eq. (13)",
    })
    return _report(
        "check_discrete_second", CHECK_ANCHORS["check_discrete_second"],
        lhs, rhs,
        _norm(ev.hess) * ns * ns,
        _norm(ev.hess) + _norm(correction),
        _tol(mode, tolerance), ctx,
    )


def check_mirror(
    model: Model,
    loss: Loss,
    O,
    theta,
    *,
    mode: str = "exact",
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
    O = _reals(O, "O")
    if O.ndim == 1:
        O = O[:, None]
    d = model.d
    if O.shape[0] != d:
        raise InvalidParams(f"O has {O.shape[0]} rows, model has d={d}")
    _require_orthonormal(O)
    th = _point(theta, model.d, "theta")
    overlap = _norm(O.T @ th)
    if overlap > _FIXED_POINT_TOL * max(1.0, _norm(th)):
        raise NotFixedPoint(
            f"theta has a component of norm {overlap:.3e} in col(O); project it out first"
        )

    ev = _landscape(model, loss, th, mode, landscape)
    g = ev.grad
    A = ev.hess
    B = O @ O.T
    Q = np.eye(d) - B

    r_grad = _norm(O.T @ g)
    r_low = _norm(Q @ A @ O)    # col(O)-perp rows hitting col(O)
    r_high = _norm(B @ A @ Q)
    g_norm, a_norm = _norm(g), _norm(A)
    ng, na = max(g_norm, _FLOOR), max(a_norm, _FLOOR)
    parts = np.array([r_grad / ng, r_low / na, r_high / na])

    P = np.eye(d) - 2.0 * B
    conj = P.T @ A @ P - A
    block_form = -2.0 * (B @ A @ Q + Q @ A @ B)
    agree = _norm(conj - block_form)
    if agree > _AGREE_TOL * max(1.0, na):
        raise CheckFailure(
            f"mirror block structure disagrees with the conjugation identity ({agree:.3e})"
        )

    ctx = _base_context(model, None, None, mode, extra_context)
    ctx.update({
        "n_columns": int(O.shape[1]),
        "gradient_residual": float(r_grad),
        "cross_block_residuals": [float(r_low), float(r_high)],
        "conjugation_agreement_gap": float(agree),
        "grad_norm": float(g_norm),
        "hessian_norm": float(a_norm),
    })
    # parts are pre-normalized by their natural scales, so unit norms make
    # the relative residual the stacked normalized defect itself
    return _report(
        "check_mirror", CHECK_ANCHORS["check_mirror"],
        parts, np.zeros_like(parts),
        1.0, 1.0,
        _tol(mode, tolerance), ctx,
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
    mode: str = "exact",
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
    if not (_is_integer(trials) and trials >= 1):
        raise InvalidParams(f"trials must be a positive integer, got {trials!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise InvalidParams(f"seed must be a nonnegative integer, got {seed!r}")
    ev = _landscape(model, loss, theta, mode, landscape)
    th = ev.theta
    blk = model.block(model.last_layer_block)
    W = th[blk.sl].reshape(blk.shape)          # (c, s)
    h_vec = np.asarray(model.feature_fn(th), dtype=float)
    H_ww = ev.hess[blk.sl, blk.sl]             # (c*s, c*s), vec in row-major W order
    h_norm, hl_norm = _norm(H_ww), _norm(ev.hl)
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
        rhs_t = float(z @ ev.hl @ z)
        abs_res = max(abs_res, abs(lhs_t - rhs_t))
        scale_l = max(scale_l, float(v @ v) * h_norm)
        scale_r = max(scale_r, float(z @ z) * hl_norm)
        if probs is not None:
            var_form = float(np.sum(probs * z * z) - np.sum(probs * z) ** 2)
            softmax_gap = max(softmax_gap, abs(rhs_t - var_form))
    if probs is not None:
        abs_res = max(abs_res, softmax_gap)

    ctx = _base_context(model, None, None, mode, extra_context)
    ctx.update({
        "trials": int(trials),
        "trial_seed": int(seed),
        "softmax_variance_gap": float(softmax_gap) if probs is not None else None,
    })
    return _report(
        "check_last_layer_alignment", CHECK_ANCHORS["check_last_layer_alignment"],
        0.0, 0.0, scale_l, scale_r, _tol(mode, tolerance), ctx,
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
    mode: str = "exact",
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
    eps_stat, null_tol, rank_tol = (_positive(v, k) for k, v in (
        ("eps_stat", eps_stat), ("null_tol", null_tol), ("rank_tol", rank_tol)))
    th = _point(theta_star, model.d, "theta_star")
    ev = evaluate_landscape(model, loss, th, mode)
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
    for key, t in zip(_list_keys([t.name for t in symmetry_transforms]), symmetry_transforms):
        _require_continuous_symmetry(t)
        lamv = np.zeros(t.p)
        ch = _transform_eval(ev, t, lamv)
        X, hinv = ch.X, ch.hinv
        rows.append(X.reshape(t.p, model.d))
        hx = _norm(compose(ev.hess, X))
        # the charts' d2h_dtheta2 and d2h_dlambda_dtheta at (lam, theta*)
        d2h_tt, d2h_lt = (None if v is None else _finite(v) for v in ch.second[:2])
        kappa = 0.0 if d2h_lt is None else _norm(compose(hinv, d2h_lt))
        if d2h_tt is not None:
            kappa += _norm(compose(hinv, compose(d2h_tt, X)))
        kappas[key] = float(kappa)
        bound = kappa * g_norm
        worst_violation = max(worst_violation, max(0.0, hx - bound))
        lhs_scale = max(lhs_scale, hx)
        bound_scale = max(bound_scale, bound)

    if rows:
        stacked = np.vstack(rows)
        gram = stacked @ stacked.T
        evals, _ = _certified_eigh(gram)
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

    ctx = _base_context(model, None, None, mode, extra_context)
    ctx.update({
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
        _tol(mode, tolerance), ctx,
        abs_override=abs_res,
    )


# ---------------------------------------------------------------------------
# position sampling
# ---------------------------------------------------------------------------

class _Sample(list):
    """:func:`sample_positions`' list of (theta, lam) and its ``charts``,
    which :func:`_run_entry` hands to each position's landscape memo."""

    def __init__(self, positions, charts):
        super().__init__(positions)
        self.charts = charts


def _head_clear(model: Model, loss: Loss, y: np.ndarray) -> bool:
    """Whether the scalar head at output ``y`` is clear of both degenerate
    branches of the scalar specializations by the sampler's margin 1e-6."""
    return min(_head_margins(*_head_scalars(model, y, loss.grad(y), loss.hess(y)))) >= 1e-6


def sample_positions(
    model: Model,
    loss: Optional[Loss] = None,
    transform: Optional[Transformation] = None,
    count: int = 1,
    seed: int = 0,
    *,
    margin: float = _MARGIN,
    require_nondegenerate: bool = False,
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Draw ``count`` acceptable (theta, lam) pairs, each within
    ``_MAX_TRIES`` draws, with lam uniform in [-0.3, 0.3]^p.

    Acceptable means: off-kink by at least ``margin`` (ReLU models), a good
    position of the transform when one is given (discrete transforms are
    projected onto their fixed set instead, with lam = None), and — when
    ``require_nondegenerate`` — clear of the l' = 0 and
    m y l'' + (m-1) l' = 0 branches that void the scalar specializations.
    The list also carries, as ``charts``, the chart data that accepted each
    position (None without a continuous transform).
    """
    if not (_is_integer(count) and count >= 1):
        raise InvalidParams(f"count must be a positive integer, got {count!r}")
    rng = np.random.default_rng(seed)
    out: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
    charts: List[Optional[_Charts]] = []
    for _ in range(count):
        for _attempt in range(_MAX_TRIES):
            th = random_params(model, rng)
            lam: Optional[np.ndarray] = None
            ch: Optional[_Charts] = None
            if transform is not None and transform.kind == "discrete":
                th = fixed_point_project(transform, th)
            elif transform is not None:
                lam = rng.uniform(-_LAM_SCALE, _LAM_SCALE, transform.p)
            if model.kink_margin is not None and model.kink_margin(th) < margin:
                continue
            y = forward(model, th)
            if transform is not None and transform.kind == "continuous":
                ch = _chart_inverses(transform, th, y, lam)
                if not ch.report.ok:
                    continue
            if require_nondegenerate:
                if loss is None:
                    raise InvalidParams("nondegenerate sampling needs the loss")
                if not _head_clear(model, loss, y):
                    continue
            out.append((th, lam))
            charts.append(ch)
            break
        else:
            raise NotGoodPosition(
                f"could not sample an acceptable position for {model.name} "
                f"in {_MAX_TRIES} tries"
            )
    return _Sample(out, charts)


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
    tolerances: Mapping = field(default_factory=dict)
    mutation: Optional[Mapping] = None   # {"callback": name, "scale": factor}


@dataclass(frozen=True)
class SuiteSpec:
    entries: Tuple[PlanEntry, ...]
    master_seed: int = 0


@dataclass(frozen=True)
class BuiltEntry:
    """A plan entry with its model, loss and catalog transform built once.
    ``entry`` supplies the run settings; its ``mutation``, if any, is applied
    to ``transform`` when the entry runs."""

    entry: PlanEntry
    model: Model
    loss: Loss
    transform: Optional[Transformation]


def _entry_seed(master_seed: int, index: int, entry: PlanEntry) -> int:
    ss = np.random.SeedSequence((master_seed, entry.seed, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def _build_entry(entry: PlanEntry) -> BuiltEntry:
    model = build_model(entry.model)
    transform: Optional[Transformation] = None
    if entry.transform is not None:
        transform = build_transform(entry.transform, dict(entry.transform_params), model)
    return BuiltEntry(entry, model, make_loss(entry.loss, **dict(entry.loss_params)), transform)


def _fixed_set_forces(model: Model, transform: Transformation,
                      clear: Callable[[np.ndarray], bool]) -> bool:
    """Whether the fixed set of ``transform`` forces every position to fail
    the sampler test ``clear``: each of ``_MAX_TRIES`` draws from a fixed
    seed, projected as the sampler projects it, fails it, while some draw off
    the fixed set passes (so the model alone does not force it).  A failure
    that is not forced lands in every draw only as often as the sampler's own
    ``_MAX_TRIES`` draws all miss."""
    rng = np.random.default_rng(0)
    model_free = False
    for _ in range(_MAX_TRIES):
        th = random_params(model, rng)
        if clear(fixed_point_project(transform, th)):
            return False
        model_free = model_free or clear(th)
    return model_free


def entry_misfits(built: BuiltEntry) -> List[Tuple[str, str]]:
    """Every setting of ``built.entry`` that cannot run or that its model and
    transform cannot serve -- the position count, the seed, the loss, the
    check list or a check, a discrete fixed set that puts a ReLU unit on its
    kink or, for a listed scalar-head check, the head on a degenerate branch,
    a tolerance, the diff mode, or a mutation that is malformed, that
    no listed check would see or that scales a declared-zero callback -- as
    (path inside the entry, reason); empty when all fit."""
    entry, model, transform = built.entry, built.model, built.transform
    known = ", ".join(CHECK_REGISTRY)
    out: List[Tuple[str, str]] = []
    if not (_is_integer(entry.positions) and entry.positions >= 1):
        out.append(("positions", f"expected a positive integer, got {entry.positions!r}"))
    if not (_is_integer(entry.seed) and entry.seed >= 0):
        out.append(("seed", f"expected a nonnegative integer, got {entry.seed!r}"))
    fits = True
    try:
        _require_fit(model, built.loss)
    except SizeMismatch as exc:
        out.append(("loss", str(exc)))
        fits = False
    checks = entry.checks if isinstance(entry.checks, (tuple, list)) else ()
    if not checks:
        out.append(("checks", "expected a non-empty list of check names"))
    mutable = False  # whether a fitting check reads the callbacks a mutation scales
    scalar_head = False  # whether a fitting check samples a nondegenerate scalar head
    for i, name in enumerate(checks):
        row = CHECK_REGISTRY.get(name) if isinstance(name, str) else None
        if row is None:
            out.append((f"checks[{i}]", f"unknown check {name!r} (known: {known})"))
        elif not _REQUIREMENTS[row.requires](model, transform):
            out.append((f"checks[{i}]", f"{name} needs a {row.requires} "
                        f"(model {model.name}, transform {entry.transform})"))
        else:  # the mirror row reads the transform's columns, not its callbacks
            mutable = mutable or row.requires in ("continuous transform", "discrete involution")
            scalar_head = scalar_head or row.requires == "scalar homogeneous head"
    # a draw merely close to the kink is the sampler's to refuse; the head
    # rule is the sampler's own test, whose margin does not vary by mode
    if (model.kink_margin is not None and _REQUIREMENTS["discrete involution"](model, transform)
            and _fixed_set_forces(model, transform, lambda th: model.kink_margin(th) > 0.0)):
        out.append(("transform.params", f"the fixed set of {entry.transform} puts a ReLU unit "
                    f"of {model.name} on its kink, so no position is off the kink"))
    if (scalar_head and fits and _REQUIREMENTS["discrete involution"](model, transform)
            and _fixed_set_forces(model, transform,
                                  lambda th: _head_clear(model, built.loss, forward(model, th)))):
        out.append(("transform.params", f"the fixed set of {entry.transform} holds the scalar "
                    f"head of {model.name} where l' = 0 or m y l'' + (m-1) l' = 0, so no "
                    "position is nondegenerate"))
    if not isinstance(entry.tolerances, Mapping):
        out.append(("tolerances", "expected an object"))
    else:
        for key, value in entry.tolerances.items():
            if key not in CHECK_REGISTRY:
                out.append((f"tolerances.{key}", f"unknown check {key!r} (known: {known})"))
            elif not (_is_real(value) and value > 0):
                out.append((f"tolerances.{key}", f"expected a finite positive number, "
                            f"got {value!r}"))
    try:
        de._check_mode(entry.mode)
    except InvalidParams as exc:
        out.append(("mode", str(exc)))
    mutation = entry.mutation
    if mutation is None:
        return out
    if not (isinstance(mutation, Mapping) and set(mutation) == {"callback", "scale"}):
        out.append(("mutation", f'expected {{"callback": name, "scale": number}}, '
                    f"got {mutation!r}"))
        return out
    cb, scale = mutation["callback"], mutation["scale"]
    if not _is_real(scale):
        out.append(("mutation.scale", f"expected a finite number, got {scale!r}"))
    if cb not in MUTABLE_CALLBACKS:
        out.append(("mutation.callback", f"unknown derivative callback {cb!r} "
                    f"(known: {', '.join(MUTABLE_CALLBACKS)})"))
    elif not mutable:
        out.append(("mutation", "no listed check reads the transform's callbacks, "
                    "so the mutation cannot act"))
    elif getattr(transform, cb) is None:
        out.append(("mutation.callback", f"{transform.name} declares {cb} identically "
                    "zero, so the mutation cannot act"))
    return out


def _run_entry(master_seed: int, index: int, built: BuiltEntry) -> List[IdentityReport]:
    entry, model, loss, transform = built.entry, built.model, built.loss, built.transform
    if entry.mutation is not None:
        transform = mutate(transform, entry.mutation["callback"], float(entry.mutation["scale"]))
    rows = [CHECK_REGISTRY[c] for c in entry.checks]
    pos_seed = _entry_seed(master_seed, index, entry)
    # keep FD stencils clear of the kink set
    fd_kinked = entry.mode == "finite_difference" and model.kink_margin is not None
    positions = sample_positions(
        model, loss, transform,
        count=entry.positions, seed=pos_seed, margin=1e-3 if fd_kinked else _MARGIN,
        require_nondegenerate=any(r.requires == "scalar homogeneous head" for r in rows),
    )
    # one batched landscape per block of positions (one block at catalog
    # sizes); each position's memo starts with the chart data the sampler
    # took there, so no check inverts a chart or composes X or Y again
    reports: List[IdentityReport] = []
    for blk in de._blocks(len(positions), _landscape_bytes(model)):
        landscapes = evaluate_landscapes(model, loss, [th for th, _ in positions[blk]], entry.mode)
        for pos_idx, ev in zip(range(blk.start, blk.stop), landscapes):
            th, lam = positions[pos_idx]
            charts = positions.charts[pos_idx]
            if charts is not None:
                ev._memo[_memo_key(transform, lam)] = charts
            base = {"theta_seed": pos_seed, "entry": index, "position": pos_idx}
            for row in rows:
                kw = {"mode": entry.mode, "tolerance": entry.tolerances.get(row.name),
                      "extra_context": base, "landscape": ev}
                out = row.run(_Point(model, loss, transform, th, lam, pos_seed, kw))
                reports.extend(out if row.n_reports > 1 else (out,))
    return reports


def run_entries(entries: Sequence[BuiltEntry], master_seed: int) -> List[IdentityReport]:
    """Run built plan entries and merge their reports in order.

    Every entry is held against the check registry first, so a check that
    does not fit its entry raises InvalidParams before anything is sampled.
    """
    if not (_is_integer(master_seed) and master_seed >= 0):
        raise InvalidParams(f"master_seed must be a nonnegative integer, got {master_seed!r}")
    for index, built in enumerate(entries):
        misfits = entry_misfits(built)
        if misfits:
            raise InvalidParams(f"plan entry {index}: "
                                + "; ".join(f"{where}: {why}" for where, why in misfits))
    return _run_validated(entries, master_seed)


def _run_validated(entries: Sequence[BuiltEntry], master_seed: int) -> List[IdentityReport]:
    """:func:`run_entries` without its validation, for entries that
    :func:`entry_misfits` already found fitting and a checked ``master_seed``
    (the CLI validates each entry as it builds it)."""
    reports: List[IdentityReport] = []
    for index, built in enumerate(entries):
        reports.extend(_run_entry(master_seed, index, built))
    return reports


def run_suite(plan: SuiteSpec) -> List[IdentityReport]:
    """Build each entry of the plan once, then run them (:func:`run_entries`)."""
    return run_entries([_build_entry(e) for e in plan.entries], plan.master_seed)


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
    """One line per report, its :meth:`~IdentityReport.to_json_dict` with keys
    sorted, as json's encoder writes it with ``models._json_value`` as ``default=``."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True, default=_json_value) + "\n")


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
