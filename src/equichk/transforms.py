"""Parameter-space transformation catalog and characteristic data.

A transformation couples a parameter map ``H(lam, theta)`` with an output
map ``G(lam, y)``.  Continuous entries are one- or multi-parameter families
with ``H(0, .) = id`` and ``G(0, .) = id``; discrete entries are a single
map with ``p = 0`` (no ``lam`` derivatives).  ``is_symmetry`` marks the
families whose output map is identically the identity, so the loss is
untouched on the G side.

All derivative callbacks return plain float64 arrays in the stored layout
of :mod:`equichk.tensor_core` — indexed ``[input axes..., output axes...]``
— so a stored Jacobian is the transpose of the textbook matrix and feeds
directly into ``compose``/``compose_k`` chains; the characteristic data
built from them (X, Y, the chart inverses) are plain arrays too.  Callback
outputs are checked finite (NonFiniteEntry) before they enter a composition
or ``invert_square``; the chart Jacobians that ``good_position`` eliminates
are judged by their condition estimate instead.  Shapes:

======================  =============  =========================================
callback                shape          entry
======================  =============  =========================================
``dh_dtheta``           (d, d)         [theta_j; H_i] = dH_i/dtheta_j
``dh_dlambda``          (p, d)         [lam_r; H_i]
``d2h_dtheta2``         (d, d, d)      [theta_j, theta_k; H_i]
``d2h_dlambda_dtheta``  (p, d, d)      [lam_r, theta_j; H_i]
``d2h_dlambda2``        (p, p, d)      [lam_r, lam_s; H_i]
``dg_dy``               (c, c)         [y_b; G_a]
``dg_dlambda``          (p, c)         [lam_r; G_a]
``d2g_dy2``             (c, c, c)      [y_a, y_b; G_k]
``d2g_dlambda_dy``      (p, c, c)      [lam_r, y_b; G_a]
``d2g_dlambda2``        (p, p, c)      [lam_r, lam_s; G_a]
======================  =============  =========================================

Every catalog entry is linear in ``theta`` and in ``y``, so the pure
second derivatives ``d2h_dtheta2`` and ``d2g_dy2`` vanish identically;
they are still exposed (as zero arrays) because the identity checks are
written against the general calculus.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParams,
    NotConservative,
    NotFactoredModel,
    NotGoodPosition,
    NotInvolution,
    Singular,
    SizeMismatch,
    UnknownSpec,
)
from .models import Model, call_builder, forward
from .tensor_core import RCOND_THRESHOLD, _finite, _inverse_rcond, compose, invert_square

__all__ = [
    "Charge",
    "GoodPositionReport",
    "Transformation",
    "TRANSFORM_NAMES",
    "homogeneity_scaling",
    "layer_rescaling",
    "linear_reparam",
    "last_layer_left_action",
    "mirror",
    "sign_flip",
    "permutation",
    "build_transform",
    "characteristic_direction",
    "characteristic_output",
    "good_position",
    "equivariance_residual",
    "fixed_point_project",
    "noether_charge",
    "MUTABLE_CALLBACKS",
    "mutate",
]

_INVOLUTION_TOL = 1e-12
_ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class Charge:
    """Conserved quantity of a one-parameter symmetry: grad C equals the
    characteristic direction at lam = 0.

    The callbacks work on batches: ``c_eval``, ``grad`` and ``hess`` take
    parameters of shape ``(..., d)`` and return ``(...)``, ``(..., d)`` and
    ``(..., d, d)``, so a plain ``(d,)`` vector gives a scalar, a vector and
    a matrix, and a stack of states is evaluated in one call.
    """

    name: str
    c_eval: Callable = field(repr=False)
    grad: Callable = field(repr=False)
    hess: Callable = field(repr=False)


@dataclass(frozen=True)
class GoodPositionReport:
    ok: bool
    rcond_h: float
    rcond_g: float
    reason: str = ""


@dataclass(frozen=True)
class Transformation:
    name: str
    params: dict
    kind: str  # "continuous" | "discrete"
    is_symmetry: bool
    p: int
    d: int
    c: int
    h_eval: Callable = field(repr=False)
    g_eval: Callable = field(repr=False)
    dh_dtheta: Callable = field(repr=False)
    dh_dlambda: Callable = field(repr=False)
    d2h_dtheta2: Callable = field(repr=False)
    d2h_dlambda_dtheta: Callable = field(repr=False)
    d2h_dlambda2: Callable = field(repr=False)
    dg_dy: Callable = field(repr=False)
    dg_dlambda: Callable = field(repr=False)
    d2g_dy2: Callable = field(repr=False)
    d2g_dlambda_dy: Callable = field(repr=False)
    d2g_dlambda2: Callable = field(repr=False)
    charge: Optional[Charge] = None
    charge_reason: str = ""

    # convenience wrappers with input validation

    def h(self, lam, theta) -> np.ndarray:
        return self.h_eval(_lam_vec(self, lam), _vec(theta, self.d, "theta"))

    def g(self, lam, y) -> np.ndarray:
        return self.g_eval(_lam_vec(self, lam), _vec(y, self.c, "y"))


def _vec(v, n: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != n:
        raise SizeMismatch(f"{what} length {arr.size} != expected {n}")
    return arr


def _lam_vec(t: Transformation, lam) -> np.ndarray:
    if lam is None:
        return np.zeros(t.p)
    arr = np.atleast_1d(np.asarray(lam, dtype=float)).reshape(-1)
    if arr.size != t.p:
        raise SizeMismatch(f"lambda length {arr.size} != expected {t.p}")
    return arr


# --- matrix exponential (scaling and squaring, truncated Taylor) ---------------

def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for small dense matrices; deterministic, no external solver."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    nrm = float(np.max(np.sum(np.abs(a), axis=1))) if n else 0.0
    s = 0
    if nrm > 0.5:
        s = int(math.ceil(math.log2(nrm / 0.5)))
    m = a / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 19):  # 0.5**18/18! ~ 6e-22, below double precision
        term = term @ m / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# --- continuous catalog ----------------------------------------------------------

def homogeneity_scaling(model: Model, degree: Optional[int] = None) -> Transformation:
    """H = exp(lam) theta with output action G = exp(m lam) y.

    The exponential chart makes the family a genuine one-parameter group
    through the identity at lam = 0, with characteristic direction theta
    itself at every lam.
    """
    m_deg = model.homogeneity_degree if degree is None else int(degree)
    if m_deg is None:
        raise InvalidParams(f"model {model.name!r} has no homogeneity degree")
    d, c = model.d, model.c

    return Transformation(
        name="homogeneity_scaling",
        params={"degree": m_deg},
        kind="continuous", is_symmetry=False, p=1, d=d, c=c,
        h_eval=lambda lam, th: math.exp(lam[0]) * th,
        g_eval=lambda lam, y: math.exp(m_deg * lam[0]) * y,
        dh_dtheta=lambda lam, th: math.exp(lam[0]) * np.eye(d),
        dh_dlambda=lambda lam, th: (math.exp(lam[0]) * th)[None, :],
        d2h_dtheta2=lambda lam, th: np.zeros((d, d, d)),
        d2h_dlambda_dtheta=lambda lam, th: math.exp(lam[0]) * np.eye(d)[None],
        d2h_dlambda2=lambda lam, th: (math.exp(lam[0]) * th)[None, None, :],
        dg_dy=lambda lam, y: math.exp(m_deg * lam[0]) * np.eye(c),
        dg_dlambda=lambda lam, y: (m_deg * math.exp(m_deg * lam[0]) * y)[None, :],
        d2g_dy2=lambda lam, y: np.zeros((c, c, c)),
        d2g_dlambda_dy=lambda lam, y: m_deg * math.exp(m_deg * lam[0]) * np.eye(c)[None],
        d2g_dlambda2=lambda lam, y: (m_deg ** 2 * math.exp(m_deg * lam[0]) * y)[None, None, :],
        charge_reason="output action is nontrivial, so the loss is not invariant",
    )


def _constant_hessian(hess: np.ndarray) -> Callable:
    """Charge ``hess`` callback of a quadratic charge: ``hess`` at every
    point of a ``(..., d)`` batch."""
    return lambda th: np.broadcast_to(hess, np.shape(th)[:-1] + hess.shape).copy()


def layer_rescaling(model: Model, up: str, down: str) -> Transformation:
    """H scales block ``up`` by exp(lam) and block ``down`` by exp(-lam).

    A loss symmetry whenever the two blocks are consecutive layers of a
    linear or ReLU chain (positive scalings commute with ReLU).  Conserved
    charge: C = (||theta_up||^2 - ||theta_down||^2) / 2.
    """
    b1, b2 = model.block(up), model.block(down)
    if b1.name == b2.name or max(b1.start, b2.start) < min(b1.stop, b2.stop):
        raise InvalidParams(f"blocks {up!r} and {down!r} must be distinct")
    sl1, sl2 = b1.sl, b2.sl
    d, c = model.d, model.c

    def scale(lam):
        s = np.ones(d)
        s[sl1] = math.exp(lam[0])
        s[sl2] = math.exp(-lam[0])
        return s

    def dscale(lam):
        s = np.zeros(d)
        s[sl1] = math.exp(lam[0])
        s[sl2] = -math.exp(-lam[0])
        return s

    def d2scale(lam):
        s = np.zeros(d)
        s[sl1] = math.exp(lam[0])
        s[sl2] = math.exp(-lam[0])
        return s

    def c_eval(th):
        th = np.asarray(th, dtype=float)
        return 0.5 * (np.sum(th[..., sl1] ** 2, axis=-1) - np.sum(th[..., sl2] ** 2, axis=-1))

    def c_grad(th):
        th = np.asarray(th, dtype=float)
        g = np.zeros(th.shape)
        g[..., sl1] = th[..., sl1]
        g[..., sl2] = -th[..., sl2]
        return g

    # C = theta^T diag(+1 on up, -1 on down) theta / 2
    c_hess = _constant_hessian(np.diag(dscale(np.zeros(1))))

    return Transformation(
        name="layer_rescaling",
        params={"up": up, "down": down},
        kind="continuous", is_symmetry=True, p=1, d=d, c=c,
        h_eval=lambda lam, th: scale(lam) * th,
        g_eval=lambda lam, y: y,
        dh_dtheta=lambda lam, th: np.diag(scale(lam)),
        dh_dlambda=lambda lam, th: (dscale(lam) * th)[None, :],
        d2h_dtheta2=lambda lam, th: np.zeros((d, d, d)),
        d2h_dlambda_dtheta=lambda lam, th: np.diag(dscale(lam))[None],
        d2h_dlambda2=lambda lam, th: (d2scale(lam) * th)[None, None, :],
        dg_dy=lambda lam, y: np.eye(c),
        dg_dlambda=lambda lam, y: np.zeros((1, c)),
        d2g_dy2=lambda lam, y: np.zeros((c, c, c)),
        d2g_dlambda_dy=lambda lam, y: np.zeros((1, c, c)),
        d2g_dlambda2=lambda lam, y: np.zeros((1, 1, c)),
        charge=Charge("half_norm_gap", c_eval, c_grad, c_hess),
    )


def linear_reparam(model: Model, a, up: str, down: str) -> Transformation:
    """H maps (W_up, W_down) to (exp(lam A) W_up, W_down exp(-lam A)).

    A loss symmetry of linear chains for any square generator A acting on
    the shared inner width.  The characteristic field is a gradient — hence
    a conserved charge C = Tr(A (W_up W_up^T - W_down^T W_down)) / 2 —
    exactly when A is symmetric.
    """
    A = np.asarray(a, dtype=float)
    b1, b2 = model.block(up), model.block(down)
    if len(b1.shape) != 2 or len(b2.shape) != 2:
        raise InvalidParams("linear_reparam needs two matrix blocks")
    h_, n_ = b1.shape
    c2, h2 = b2.shape
    if A.shape != (h_, h_) or h2 != h_:
        raise SizeMismatch(
            f"generator {A.shape} must match inner width of {b1.shape} and {b2.shape}"
        )
    if not np.isfinite(A).all():
        raise InvalidParams("generator contains NaN or Inf")
    sl1, sl2 = b1.sl, b2.sl
    d, c = model.d, model.c
    eye_n, eye_c2 = np.eye(n_), np.eye(c2)

    def mats(lam):
        return _expm(lam[0] * A), _expm(-lam[0] * A)

    def split(th):
        lead = th.shape[:-1]
        return th[..., sl1].reshape(lead + (h_, n_)), th[..., sl2].reshape(lead + (c2, h_))

    def h_eval(lam, th):
        E, Ep = mats(lam)
        W1, W2 = split(th)
        out = np.array(th, dtype=float, copy=True)
        out[sl1] = (E @ W1).ravel()
        out[sl2] = (W2 @ Ep).ravel()
        return out

    def dh_dtheta(lam, th):
        E, Ep = mats(lam)
        out = np.eye(d)
        out[sl1, sl1.start:sl1.stop] = np.kron(E.T, eye_n)
        out[sl2, sl2.start:sl2.stop] = np.kron(eye_c2, Ep)
        return out

    def dh_dlambda(lam, th):
        E, Ep = mats(lam)
        W1, W2 = split(th)
        out = np.zeros((1, d))
        out[0, sl1] = (A @ E @ W1).ravel()
        out[0, sl2] = -(W2 @ A @ Ep).ravel()
        return out

    def d2h_dlambda_dtheta(lam, th):
        E, Ep = mats(lam)
        out = np.zeros((1, d, d))
        out[0, sl1, sl1.start:sl1.stop] = np.kron((A @ E).T, eye_n)
        out[0, sl2, sl2.start:sl2.stop] = np.kron(eye_c2, -(A @ Ep))
        return out

    def d2h_dlambda2(lam, th):
        E, Ep = mats(lam)
        W1, W2 = split(th)
        out = np.zeros((1, 1, d))
        out[0, 0, sl1] = (A @ A @ E @ W1).ravel()
        out[0, 0, sl2] = (W2 @ A @ A @ Ep).ravel()
        return out

    charge = None
    reason = "characteristic field is not a gradient (generator not symmetric)"
    if np.max(np.abs(A - A.T)) <= 1e-12:
        def c_eval(th):
            W1, W2 = split(np.asarray(th, dtype=float))
            gram = W1 @ np.swapaxes(W1, -1, -2) - np.swapaxes(W2, -1, -2) @ W2
            return 0.5 * np.trace(A @ gram, axis1=-2, axis2=-1)

        def c_grad(th):
            th = np.asarray(th, dtype=float)
            W1, W2 = split(th)
            g = np.zeros(th.shape)
            g[..., sl1] = (A @ W1).reshape(th.shape[:-1] + (-1,))
            g[..., sl2] = -(W2 @ A).reshape(th.shape[:-1] + (-1,))
            return g

        hess = np.zeros((d, d))
        hess[sl1, sl1.start:sl1.stop] = np.kron(A, eye_n)
        hess[sl2, sl2.start:sl2.stop] = -np.kron(eye_c2, A)
        c_hess = _constant_hessian(hess)

        charge = Charge("inner_width_moment", c_eval, c_grad, c_hess)
        reason = ""

    return Transformation(
        name="linear_reparam",
        params={"up": up, "down": down, "A": A.tolist()},
        kind="continuous", is_symmetry=True, p=1, d=d, c=c,
        h_eval=h_eval,
        g_eval=lambda lam, y: y,
        dh_dtheta=dh_dtheta,
        dh_dlambda=dh_dlambda,
        d2h_dtheta2=lambda lam, th: np.zeros((d, d, d)),
        d2h_dlambda_dtheta=d2h_dlambda_dtheta,
        d2h_dlambda2=d2h_dlambda2,
        dg_dy=lambda lam, y: np.eye(c),
        dg_dlambda=lambda lam, y: np.zeros((1, c)),
        d2g_dy2=lambda lam, y: np.zeros((c, c, c)),
        d2g_dlambda_dy=lambda lam, y: np.zeros((1, c, c)),
        d2g_dlambda2=lambda lam, y: np.zeros((1, 1, c)),
        charge=charge,
        charge_reason=reason,
    )


def last_layer_left_action(model: Model) -> Transformation:
    """H = ((I + Lam) W, theta'), G = (I + Lam) y, for factored models f = W h.

    The full GL(c) neighborhood of the identity in the affine chart
    Lam -> I + Lam, with p = c^2 flat generator coordinates (row-major).
    Not a loss symmetry: the output action is nontrivial.
    """
    if model.last_layer_block is None:
        raise NotFactoredModel(f"model {model.name!r} has no designated last-layer block")
    bW = model.block(model.last_layer_block)
    c_, s_ = bW.shape
    if c_ != model.c:
        raise InvalidParams(
            f"last-layer block rows {c_} != model output dim {model.c}"
        )
    slW = bW.sl
    d, p = model.d, c_ * c_
    eye_c, eye_s = np.eye(c_), np.eye(s_)
    # [lam_(a,b), theta_(k,l); H_(i,j)] = delta_ia delta_kb delta_jl
    mixed_block = np.einsum("ia,kb,jl->abklij", eye_c, eye_c, eye_s).reshape(p, c_ * s_, c_ * s_)
    # [lam_(a,b), y_k; G_i] = delta_kb delta_ia
    g_mixed = np.einsum("ia,kb->abki", eye_c, eye_c).reshape(p, c_, c_)

    def lam_mat(lam):
        return lam.reshape(c_, c_)

    def h_eval(lam, th):
        out = np.array(th, dtype=float, copy=True)
        W = th[slW].reshape(c_, s_)
        out[slW] = ((eye_c + lam_mat(lam)) @ W).ravel()
        return out

    def dh_dtheta(lam, th):
        out = np.eye(d)
        out[slW, slW.start:slW.stop] = np.kron((eye_c + lam_mat(lam)).T, eye_s)
        return out

    def dh_dlambda(lam, th):
        W = th[slW].reshape(c_, s_)
        out = np.zeros((p, d))
        out[:, slW] = np.kron(eye_c, W)
        return out

    def d2h_dlambda_dtheta(lam, th):
        out = np.zeros((p, d, d))
        out[:, slW, slW.start:slW.stop] = mixed_block
        return out

    return Transformation(
        name="last_layer_left_action",
        params={"block": model.last_layer_block},
        kind="continuous", is_symmetry=False, p=p, d=d, c=c_,
        h_eval=h_eval,
        g_eval=lambda lam, y: (eye_c + lam_mat(lam)) @ y,
        dh_dtheta=dh_dtheta,
        dh_dlambda=dh_dlambda,
        d2h_dtheta2=lambda lam, th: np.zeros((d, d, d)),
        d2h_dlambda_dtheta=d2h_dlambda_dtheta,
        d2h_dlambda2=lambda lam, th: np.zeros((p, p, d)),
        dg_dy=lambda lam, y: (eye_c + lam_mat(lam)).T,
        dg_dlambda=lambda lam, y: np.kron(eye_c, np.asarray(y, dtype=float)[:, None]),
        d2g_dy2=lambda lam, y: np.zeros((c_, c_, c_)),
        d2g_dlambda_dy=lambda lam, y: g_mixed,
        d2g_dlambda2=lambda lam, y: np.zeros((p, p, c_)),
        charge_reason="output action is nontrivial, so the loss is not invariant",
    )


# --- discrete catalog ------------------------------------------------------------

def _discrete(name: str, params: dict, model: Model, P: np.ndarray) -> Transformation:
    d, c = model.d, model.c
    Pt = np.ascontiguousarray(P.T)

    return Transformation(
        name=name, params=params,
        kind="discrete", is_symmetry=True, p=0, d=d, c=c,
        h_eval=lambda lam, th: P @ th,
        g_eval=lambda lam, y: np.asarray(y, dtype=float),
        dh_dtheta=lambda lam, th: Pt,
        dh_dlambda=lambda lam, th: np.zeros((0, d)),
        d2h_dtheta2=lambda lam, th: np.zeros((d, d, d)),
        d2h_dlambda_dtheta=lambda lam, th: np.zeros((0, d, d)),
        d2h_dlambda2=lambda lam, th: np.zeros((0, 0, d)),
        dg_dy=lambda lam, y: np.eye(c),
        dg_dlambda=lambda lam, y: np.zeros((0, c)),
        d2g_dy2=lambda lam, y: np.zeros((c, c, c)),
        d2g_dlambda_dy=lambda lam, y: np.zeros((0, c, c)),
        d2g_dlambda2=lambda lam, y: np.zeros((0, 0, c)),
        charge_reason="discrete transformation carries no conserved charge",
    )


def mirror(model: Model, columns) -> Transformation:
    """Reflection P = I - 2 O O^T across the span-orthogonal hyperplane,
    where O stacks the given orthonormal direction vectors as columns."""
    O = np.stack([np.asarray(col, dtype=float) for col in columns], axis=1)
    if O.shape[0] != model.d:
        raise SizeMismatch(f"direction length {O.shape[0]} != model dim {model.d}")
    gram = O.T @ O
    if np.max(np.abs(gram - np.eye(O.shape[1]))) > _ORTHONORMAL_TOL:
        raise InvalidParams("mirror directions must be orthonormal")
    P = np.eye(model.d) - 2.0 * O @ O.T
    return _discrete("mirror", {"columns": [c.tolist() for c in O.T]}, model, P)


def sign_flip(model: Model, indices) -> Transformation:
    """Coordinate sign flip on an arbitrary index set."""
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise InvalidParams("sign_flip indices must be distinct")
    if any(i < 0 or i >= model.d for i in idx):
        raise InvalidParams(f"sign_flip indices out of range 0..{model.d - 1}")
    diag = np.ones(model.d)
    diag[idx] = -1.0
    return _discrete("sign_flip", {"indices": sorted(idx)}, model, np.diag(diag))


def permutation(model: Model, perm) -> Transformation:
    """Coordinate permutation H(theta)[i] = theta[perm[i]]."""
    pi = [int(i) for i in perm]
    if sorted(pi) != list(range(model.d)):
        raise InvalidParams(f"perm must be a permutation of 0..{model.d - 1}")
    P = np.zeros((model.d, model.d))
    P[np.arange(model.d), pi] = 1.0
    return _discrete("permutation", {"perm": pi}, model, P)


# --- factory dispatch ------------------------------------------------------------

# name -> builder whose parameters after ``model`` are the config keys; the
# adapters split a ``blocks`` pair into the constructor's two block names
_BUILDERS = {
    "homogeneity_scaling": homogeneity_scaling,
    "layer_rescaling": lambda model, blocks: layer_rescaling(model, *blocks),
    "linear_reparam": lambda model, A, blocks: linear_reparam(model, A, *blocks),
    "last_layer_left_action": last_layer_left_action,
    "mirror": mirror,
    "sign_flip": sign_flip,
    "permutation": permutation,
}
TRANSFORM_NAMES = tuple(_BUILDERS)


def build_transform(name: str, params: dict, model: Model) -> Transformation:
    """Instantiate a catalog transformation against a concrete model."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownSpec(f"unknown transform {name!r}; catalog: {sorted(TRANSFORM_NAMES)}") from None
    return call_builder("transform", name, builder, params or {}, model)


# --- characteristic data ---------------------------------------------------------

def _direction(t: Transformation, hinv: np.ndarray, lam: np.ndarray, th: np.ndarray) -> np.ndarray:
    return compose(hinv, _finite(t.dh_dlambda(lam, th)))


def _output(t: Transformation, ginv: Optional[np.ndarray], lam: np.ndarray,
            y: np.ndarray) -> np.ndarray:
    if t.is_symmetry:
        return np.zeros((t.p, t.c))
    return compose(ginv, _finite(t.dg_dlambda(lam, y)))


def characteristic_direction(t: Transformation, theta, lam=None) -> np.ndarray:
    """X = (dH/dtheta)^(-1) dH/dlambda, stored shape (p, d)."""
    if t.kind != "continuous":
        raise NotGoodPosition("discrete transformations have no characteristic direction")
    lam = _lam_vec(t, lam)
    th = _vec(theta, t.d, "theta")
    try:
        inv = invert_square(_finite(t.dh_dtheta(lam, th)))
    except Singular as err:
        raise NotGoodPosition(f"dH/dtheta is numerically singular: {err}")
    return _direction(t, inv, lam, th)


def characteristic_output(t: Transformation, y, lam=None) -> np.ndarray:
    """Y = (dG/dy)^(-1) dG/dlambda, stored shape (p, c); exactly zero for
    symmetries."""
    if t.kind != "continuous":
        raise NotGoodPosition("discrete transformations have no characteristic output")
    lam = _lam_vec(t, lam)
    yv = _vec(y, t.c, "y")
    inv = None
    if not t.is_symmetry:
        try:
            inv = invert_square(_finite(t.dg_dy(lam, yv)))
        except Singular as err:
            raise NotGoodPosition(f"dG/dy is numerically singular: {err}")
    return _output(t, inv, lam, yv)


@dataclass(frozen=True)
class _Charts:
    """Both chart Jacobian inverses at one position and the good-position
    report their condition estimates give.  Each chart is eliminated once;
    the inverses are None unless the position is good, and are then the
    very arrays ``invert_square`` would return."""

    lam: np.ndarray  # the validated lam the charts were taken at
    report: GoodPositionReport
    hinv: Optional[np.ndarray]
    ginv: Optional[np.ndarray]

    def direction(self, t: Transformation, th: np.ndarray) -> np.ndarray:
        """X here, as :func:`characteristic_direction` gives it."""
        return _direction(t, self.hinv, self.lam, th)

    def output(self, t: Transformation, y: np.ndarray) -> np.ndarray:
        """Y here, as :func:`characteristic_output` gives it."""
        return _output(t, self.ginv, self.lam, y)


def _chart_inverses(t: Transformation, theta, y=None, lam=None) -> _Charts:
    """Invert dH/dtheta and dG/dy at (theta, y, lam).  Discrete
    transformations have no lam chart: theirs are taken at the empty lam and
    never make a good position."""
    th = _vec(theta, t.d, "theta")
    yv = np.zeros(t.c) if y is None else _vec(y, t.c, "y")
    lamv = _lam_vec(t, lam) if t.kind == "continuous" else np.zeros(0)
    hinv, rh = _inverse_rcond(t.dh_dtheta(lamv, th))
    ginv, rg = _inverse_rcond(t.dg_dy(lamv, yv))
    if t.kind != "continuous":
        reason = "discrete"
    elif rh > RCOND_THRESHOLD and rg > RCOND_THRESHOLD:
        return _Charts(lamv, GoodPositionReport(ok=True, rcond_h=rh, rcond_g=rg),
                       hinv, ginv)
    else:
        reason = "chart Jacobian numerically singular"
    return _Charts(lamv, GoodPositionReport(ok=False, rcond_h=rh, rcond_g=rg, reason=reason),
                   None, None)


def good_position(t: Transformation, theta, y=None, lam=None) -> GoodPositionReport:
    """Are both chart Jacobians invertible here?  Always negative for
    discrete transformations, which have no lam chart at all."""
    return _chart_inverses(t, theta, y, lam).report


def equivariance_residual(t: Transformation, model: Model, theta, lam=None) -> float:
    """Relative defect of f(H(lam, theta)) = G(lam, f(theta))."""
    th = _vec(theta, t.d, "theta")
    lhs = forward(model, t.h(lam, th))
    rhs = t.g(lam, forward(model, th))
    denom = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-12)
    return float(np.linalg.norm(lhs - rhs)) / denom


def fixed_point_project(t: Transformation, theta) -> np.ndarray:
    """Project onto the fixed-point set of a discrete involution:
    theta -> (theta + H(theta)) / 2."""
    if t.kind != "discrete":
        raise InvalidParams("fixed-point projection applies to discrete transformations")
    th = _vec(theta, t.d, "theta")
    P = t.dh_dtheta(np.zeros(0), th).T
    if np.max(np.abs(P @ P - np.eye(t.d))) > _INVOLUTION_TOL:
        raise NotInvolution(f"{t.name} does not square to the identity")
    return 0.5 * (th + t.h(None, th))


def noether_charge(t: Transformation) -> Charge:
    """The conserved charge of a one-parameter symmetry, when one exists."""
    if t.charge is None:
        raise NotConservative(t.charge_reason or f"{t.name} has no conserved charge")
    return t.charge


#: the derivative callbacks ``mutate`` can scale
MUTABLE_CALLBACKS = (
    "dh_dtheta", "dh_dlambda", "d2h_dtheta2", "d2h_dlambda_dtheta",
    "d2h_dlambda2", "dg_dy", "dg_dlambda", "d2g_dy2", "d2g_dlambda_dy",
    "d2g_dlambda2",
)


def mutate(t: Transformation, callback_name: str, scale: float) -> Transformation:
    """Return a copy with one derivative callback scaled — a deliberately
    inconsistent transformation used to confirm the checks have teeth."""
    if callback_name not in MUTABLE_CALLBACKS:
        raise UnknownSpec(f"unknown derivative callback {callback_name!r}")
    orig = getattr(t, callback_name)

    def scaled(lam, v):
        return float(scale) * orig(lam, v)

    return dataclasses.replace(
        t,
        name=f"{t.name}[{callback_name}*{scale}]",
        **{callback_name: scaled},
    )
