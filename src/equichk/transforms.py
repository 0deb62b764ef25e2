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
built from them (X, Y, the chart inverses) are plain arrays too.  One
function, ``_chart_inverses``, produces a position's chart data: it inverts
both chart Jacobians, judges the position by tensor_core's one good-inverse
rule (``_inverse_rcond``) and, at a good position, composes X and Y with
``_direction``/``_output``, the only place a chart inverse meets dH/dlam or
dG/dlam, and takes the six second-order callbacks there, so a group's
matrices at lam are computed once for all of a position's checks.  Every
callback output is checked finite (NonFiniteEntry) before it enters a
composition, ``invert_square`` or the condition estimate, so a NaN chart
Jacobian gets that one verdict from ``good_position``, the sampler and every
check alike.
The callbacks marked optional may be ``None``, which declares that
derivative identically zero; the other three, like ``h_eval`` and
``g_eval``, are required.  Shapes:

======================  =============  =========================================
callback                shape          entry
======================  =============  =========================================
``dh_dtheta``           (d, d)         [theta_j; H_i] = dH_i/dtheta_j
``dh_dlambda``          (p, d)         [lam_r; H_i]
``dg_dy``               (c, c)         [y_b; G_a]
``d2h_dtheta2``         (d, d, d)      [theta_j, theta_k; H_i]  (optional)
``d2h_dlambda_dtheta``  (p, d, d)      [lam_r, theta_j; H_i]  (optional)
``d2h_dlambda2``        (p, p, d)      [lam_r, lam_s; H_i]  (optional)
``dg_dlambda``          (p, c)         [lam_r; G_a]  (optional)
``d2g_dy2``             (c, c, c)      [y_a, y_b; G_k]  (optional)
``d2g_dlambda_dy``      (p, c, c)      [lam_r, y_b; G_a]  (optional)
``d2g_dlambda2``        (p, p, c)      [lam_r, lam_s; G_a]  (optional)
======================  =============  =========================================

Every catalog entry acts linearly, H = M(lam) theta and G = N(lam) y, and
``_linear`` writes the callbacks from M, N and their lam derivatives, so
``d2h_dtheta2`` and ``d2g_dy2`` are ``None`` throughout.  So is every other
optional derivative that vanishes for an entry: the G side of a symmetry,
the second lam derivatives of ``last_layer_left_action`` and the lam
derivatives of a discrete entry.  The identity checks read a ``None`` as an
exact zero term and skip the arithmetic it would feed.

Numeric catalog parameters -- a ``linear_reparam`` generator ``A``, the
``mirror`` columns, ``sign_flip`` indices and a ``permutation`` -- are read
with the number rule of :mod:`equichk.tensor_core` (``_reals``, and
``models._integer`` on it), so a bool, a string, NaN or Inf there raises
InvalidParams.  Every theta, lam and y goes through its one point reader,
``_point``, held to the transform's d, p and c entries and checked finite.

The one-parameter groups state only their generators: ``_group`` builds
M = exp(lam G), whose k-th lam derivative is G^k M, and N = exp(lam GN) on
the outputs.  A symmetry's characteristic direction is then X = G theta, and
when G is symmetric X = grad C for C = theta^T G theta / 2, the conserved
Noether charge.  The discrete entries state their one matrix and
``last_layer_left_action`` its affine chart.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from numpy._core.multiarray import c_einsum  # the C einsum np.einsum calls when optimize=False

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
from .models import Model, _integer, _reals, call_builder, forward, signature
from .tensor_core import _finite, _inverse_rcond, _point, compose, invert_square

__all__ = [
    "Charge",
    "GoodPositionReport",
    "Transformation",
    "TRANSFORM_NAMES",
    "catalog",
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
    dg_dy: Callable = field(repr=False)
    # None declares the derivative identically zero
    d2h_dtheta2: Optional[Callable] = field(default=None, repr=False)
    d2h_dlambda_dtheta: Optional[Callable] = field(default=None, repr=False)
    d2h_dlambda2: Optional[Callable] = field(default=None, repr=False)
    dg_dlambda: Optional[Callable] = field(default=None, repr=False)
    d2g_dy2: Optional[Callable] = field(default=None, repr=False)
    d2g_dlambda_dy: Optional[Callable] = field(default=None, repr=False)
    d2g_dlambda2: Optional[Callable] = field(default=None, repr=False)
    charge: Optional[Charge] = None
    charge_reason: str = ""

    # convenience wrappers with input validation

    def h(self, lam, theta) -> np.ndarray:
        return self.h_eval(_lam_vec(self, lam), _point(theta, self.d, "theta"))

    def g(self, lam, y) -> np.ndarray:
        return self.g_eval(_lam_vec(self, lam), _point(y, self.c, "y"))


def _list_keys(names: Sequence[str]) -> List[str]:
    """The key of each name by its position in the list: the name itself, or
    ``name[i]`` when another entry of the list shares it."""
    return [n if names.count(n) == 1 else f"{n}[{i}]" for i, n in enumerate(names)]


def _lam_vec(t: Transformation, lam) -> np.ndarray:
    """``lam`` as ``t``'s p group coordinates (zeros when None)."""
    return np.zeros(t.p) if lam is None else _point(lam, t.p, "lambda")


# --- matrix exponential (scaling and squaring, truncated Taylor) ---------------

def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for small dense matrices; deterministic, no external solver.  A
    diagonal ``a`` is exponentiated entry by entry with ``math.exp``."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag([math.exp(x) for x in diag])
    nrm = float(np.max(np.sum(np.abs(a), axis=1)))
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


# --- catalog ---------------------------------------------------------------------

def _linear(name: str, params: dict, model: Model, p: int, M: Callable,
            dM: Optional[Callable] = None, d2M: Optional[Callable] = None,
            N: Optional[Callable] = None, dN: Optional[Callable] = None,
            d2N: Optional[Callable] = None, charge: Optional[Charge] = None) -> Transformation:
    """H(lam, theta) = M(lam) theta and G(lam, y) = N(lam) y: linear, so
    ``d2h_dtheta2`` and ``d2g_dy2`` are None.  Each matrix function of lam
    returns the textbook layout: M (d, d), dM (p, d, d), d2M (p, p, d, d), and
    N, dN, d2N likewise with c.  A Jacobian callback is a C-contiguous copy of
    its matrix's transpose, a lam-derivative callback the matrix applied to
    theta or y, and a missing matrix function declares its callbacks zero.
    ``N=None`` is a symmetry (G = id); ``p = 0`` a discrete map.  Without a
    ``charge`` the reason follows from the kind: a discrete map, an output
    action, or a symmetry whose generator is not symmetric."""
    d, c = model.d, model.c

    def stored(F):
        return None if F is None else (lambda lam, v: np.swapaxes(F(lam), -1, -2).copy())

    def applied(F):
        return None if F is None else (lambda lam, v: F(lam) @ v)

    if charge is not None:
        reason = ""
    elif not p:
        reason = "discrete transformation carries no conserved charge"
    elif N is not None:
        reason = "output action is nontrivial, so the loss is not invariant"
    else:
        reason = "characteristic field is not a gradient (generator not symmetric)"
    return Transformation(
        name=name, params=params,
        kind="continuous" if p else "discrete", is_symmetry=N is None, p=p, d=d, c=c,
        h_eval=applied(M), dh_dtheta=stored(M),
        dh_dlambda=applied(dM) or (lambda lam, th: np.zeros((p, d))),
        d2h_dlambda_dtheta=stored(dM), d2h_dlambda2=applied(d2M),
        g_eval=(lambda lam, y: y) if N is None else applied(N),
        dg_dy=stored(N or (lambda lam: np.eye(c))),
        dg_dlambda=applied(dN), d2g_dlambda_dy=stored(dN), d2g_dlambda2=applied(d2N),
        charge=charge, charge_reason=reason,
    )


def _exp_and_derivatives(gen: np.ndarray) -> List[Callable]:
    """lam -> gen^k exp(lam gen) for k = 0, 1, 2, shaped (1,) * k + (n, n).
    The three are computed once per float lam and held read-only."""
    gen2 = gen @ gen

    @lru_cache(maxsize=4)
    def at(lam0: float):
        E = _expm(lam0 * gen)
        mats = (E, gen @ E, gen2 @ E)
        for m in mats:
            m.flags.writeable = False
        return mats[0], mats[1][None], mats[2][None, None]

    return [lambda lam, k=k: at(float(lam[0]))[k] for k in range(3)]


def _group(name: str, params: dict, model: Model, G: np.ndarray,
           GN: Optional[np.ndarray] = None, charge_name: str = "") -> Transformation:
    """The one-parameter group of generator G on the parameters and GN on the
    outputs: M = exp(lam G) and N = exp(lam GN), whose k-th lam derivatives
    are G^k M and GN^k N.  ``GN=None`` is a symmetry.  A symmetry with a
    symmetric G has characteristic direction X = G theta = grad C for the
    Noether charge C = theta^T G theta / 2 (Hessian G), named ``charge_name``."""
    M, dM, d2M = _exp_and_derivatives(G)
    N, dN, d2N = (None,) * 3 if GN is None else _exp_and_derivatives(GN)
    charge = None
    if GN is None and np.max(np.abs(G - G.T)) <= 1e-12:
        # C by G's nonzero entries: every row of a batch takes the same
        # elementwise operations, so a batched call equals its per-row calls
        entries = [(i, j, G[i, j]) for i, j in zip(*np.nonzero(G))]

        def c_eval(th):
            th = np.asarray(th, dtype=float)
            return 0.5 * sum((g * th[..., i] * th[..., j] for i, j, g in entries),
                             np.zeros(th.shape[:-1]))

        def c_grad(th):  # G theta, row by row, in one C contraction
            return c_einsum("...j,ij->...i", np.asarray(th, dtype=float), G)

        def c_hess(th):
            return np.broadcast_to(G, np.shape(th)[:-1] + G.shape)

        charge = Charge(charge_name, c_eval, c_grad, c_hess)
    return _linear(name, params, model, 1, M, dM, d2M, N, dN, d2N, charge)


def _distinct_blocks(model: Model, up: str, down: str):
    """The two named blocks; InvalidParams unless they are disjoint."""
    b1, b2 = model.block(up), model.block(down)
    if b1.name == b2.name or max(b1.start, b2.start) < min(b1.stop, b2.stop):
        raise InvalidParams(f"blocks {up!r} and {down!r} must be distinct")
    return b1, b2


def homogeneity_scaling(model: Model) -> Transformation:
    """H = exp(lam) theta with output action G = exp(m lam) y, m the model's
    homogeneity degree: the group of generators (I_d, m I_c).

    The exponential chart makes the family a genuine one-parameter group
    through the identity at lam = 0, with characteristic direction theta
    itself at every lam.
    """
    m_deg = model.homogeneity_degree
    if m_deg is None:
        raise InvalidParams(f"model {model.name!r} has no homogeneity degree")
    return _group("homogeneity_scaling", {"degree": m_deg}, model,
                  np.eye(model.d), GN=m_deg * np.eye(model.c))


def layer_rescaling(model: Model, up: str, down: str) -> Transformation:
    """H scales block ``up`` by exp(lam) and block ``down`` by exp(-lam): the
    group of G = diag(+1 on up, -1 on down).

    A loss symmetry of a model with a declared homogeneity degree, a linear
    or ReLU chain, which is positively homogeneous of degree one in each of
    its layers (positive scalings commute with ReLU).  Conserved charge:
    C = (||theta_up||^2 - ||theta_down||^2) / 2.
    """
    if model.homogeneity_degree is None:
        raise InvalidParams(
            f"layer_rescaling needs a linear or ReLU chain; model {model.name!r} "
            "declares no homogeneity degree")
    b1, b2 = _distinct_blocks(model, up, down)
    g = np.zeros(model.d)
    g[b1.sl] = 1.0
    g[b2.sl] = -1.0
    return _group("layer_rescaling", {"up": up, "down": down}, model, np.diag(g),
                  charge_name="half_norm_gap")


def linear_reparam(model: Model, a, up: str, down: str) -> Transformation:
    """H maps (W_up, W_down) to (exp(lam A) W_up, W_down exp(-lam A)): the
    group of G = blockdiag(kron(A, I_n), -kron(I_c2, A^T)) on the row-major
    blocks W_up (h, n) and W_down (c2, h).

    A loss symmetry of a linear chain whose block ``down`` is the layer
    directly after ``up``, for any square generator A acting on the shared
    inner width.  The characteristic field is a gradient -- hence a conserved
    charge C = Tr(A (W_up W_up^T - W_down^T W_down)) / 2 -- exactly when A is
    symmetric.
    """
    if model.homogeneity_degree is None or model.kink_margin is not None:
        raise InvalidParams(f"linear_reparam needs a linear chain; model {model.name!r} is not one")
    A = _reals(a, "A")
    b1, b2 = _distinct_blocks(model, up, down)
    if model.blocks.index(b2) != model.blocks.index(b1) + 1:
        raise InvalidParams(f"block {down!r} must be the layer directly after {up!r}")
    if len(b1.shape) != 2 or len(b2.shape) != 2:
        raise InvalidParams("linear_reparam needs two matrix blocks")
    h_, n_ = b1.shape
    c2, h2 = b2.shape
    if A.shape != (h_, h_) or h2 != h_:
        raise SizeMismatch(
            f"generator {A.shape} must match inner width of {b1.shape} and {b2.shape}"
        )
    G = np.zeros((model.d, model.d))
    G[b1.sl, b1.sl] = np.kron(A, np.eye(n_))
    G[b2.sl, b2.sl] = -np.kron(np.eye(c2), A.T)
    return _group("linear_reparam", {"up": up, "down": down, "A": A.tolist()}, model, G,
                  charge_name="inner_width_moment")


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
        raise InvalidParams(f"last-layer block rows {c_} != model output dim {model.c}")
    d, p = model.d, c_ * c_
    eye_c, eye_s = np.eye(c_), np.eye(s_)
    # generator (a, b) is the unit matrix E_ab; G and H are affine in lam
    units = np.eye(p).reshape(p, c_, c_)

    def left(rest, a):
        """(d, d): W -> a W, ``rest`` times the identity elsewhere."""
        out = rest * np.eye(d)
        out[bW.sl, bW.sl] = np.kron(a, eye_s)
        return out

    d_left = np.stack([left(0.0, e) for e in units])

    return _linear(
        "last_layer_left_action", {"block": model.last_layer_block}, model, p,
        M=lambda lam: left(1.0, eye_c + lam.reshape(c_, c_)),
        dM=lambda lam: d_left,
        N=lambda lam: eye_c + lam.reshape(c_, c_),
        dN=lambda lam: units,
    )


# --- discrete catalog ------------------------------------------------------------

def _require_orthonormal(O: np.ndarray) -> None:
    """Raise InvalidParams unless the columns of ``O`` are orthonormal."""
    gap = float(np.abs(O.T @ O - np.eye(O.shape[1])).max(initial=0.0))
    if gap > _ORTHONORMAL_TOL:
        raise InvalidParams(f"mirror directions must be orthonormal (max |O^T O - I| = {gap:.3e})")


def mirror(model: Model, columns) -> Transformation:
    """Reflection P = I - 2 O O^T across the span-orthogonal hyperplane,
    where O stacks the given orthonormal direction vectors as columns."""
    O = np.stack([_reals(col, "columns") for col in columns], axis=1)
    if O.shape[0] != model.d:
        raise SizeMismatch(f"direction length {O.shape[0]} != model dim {model.d}")
    _require_orthonormal(O)
    P = np.eye(model.d) - 2.0 * O @ O.T
    return _linear("mirror", {"columns": [c.tolist() for c in O.T]}, model, 0, M=lambda lam: P)


def sign_flip(model: Model, indices) -> Transformation:
    """Coordinate sign flip on an arbitrary index set."""
    idx = [_integer(i, "indices") for i in indices]
    if len(set(idx)) != len(idx):
        raise InvalidParams("sign_flip indices must be distinct")
    if any(i < 0 or i >= model.d for i in idx):
        raise InvalidParams(f"sign_flip indices out of range 0..{model.d - 1}")
    P = np.eye(model.d)
    P[idx, idx] = -1.0
    return _linear("sign_flip", {"indices": sorted(idx)}, model, 0, M=lambda lam: P)


def permutation(model: Model, perm) -> Transformation:
    """Coordinate permutation H(theta)[i] = theta[perm[i]]."""
    pi = [_integer(i, "perm") for i in perm]
    if sorted(pi) != list(range(model.d)):
        raise InvalidParams(f"perm must be a permutation of 0..{model.d - 1}")
    P = np.zeros((model.d, model.d))
    P[np.arange(model.d), pi] = 1.0
    return _linear("permutation", {"perm": pi}, model, 0, M=lambda lam: P)


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


def catalog() -> dict:
    """The transform section of the catalog: each entry's name with the
    config parameters its builder takes after ``model``."""
    return {"transforms": {n: signature(b, skip=("model",)) for n, b in _BUILDERS.items()}}


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
    if t.is_symmetry or t.dg_dlambda is None:
        return np.zeros((t.p, t.c))
    return compose(ginv, _finite(t.dg_dlambda(lam, y)))


def characteristic_direction(t: Transformation, theta, lam=None) -> np.ndarray:
    """X = (dH/dtheta)^(-1) dH/dlambda, stored shape (p, d)."""
    if t.kind != "continuous":
        raise NotGoodPosition("discrete transformations have no characteristic direction")
    lam = _lam_vec(t, lam)
    th = _point(theta, t.d, "theta")
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
    yv = _point(y, t.c, "y")
    inv = None
    if not t.is_symmetry:
        try:
            inv = invert_square(_finite(t.dg_dy(lam, yv)))
        except Singular as err:
            raise NotGoodPosition(f"dG/dy is numerically singular: {err}")
    return _output(t, inv, lam, yv)


#: the second-order derivative callbacks taking (lam, theta) and those taking
#: (lam, y), in the order a chart's ``second`` holds them
_SECOND_ORDER_CALLBACKS = (("d2h_dtheta2", "d2h_dlambda_dtheta", "d2h_dlambda2"),
                           ("d2g_dy2", "d2g_dlambda_dy", "d2g_dlambda2"))


@dataclass(frozen=True)
class _Charts:
    """A transform's chart data at one position: both chart Jacobian
    inverses, the good-position report their condition estimates give, and
    X and Y.  Each chart is eliminated once; the inverses, X and Y are None
    unless the position is good, and are then the very arrays
    ``invert_square``, :func:`characteristic_direction` and
    :func:`characteristic_output` would return.  A good position's charts
    also carry ``second``, the outputs of the ``_SECOND_ORDER_CALLBACKS`` at
    the same (lam, theta) and (lam, y), each None where the transform
    declares it zero: taken beside the first-order callbacks, they reuse the
    group matrices those computed at lam.  They are not checked finite here;
    the check that reads one does that."""

    transform: Transformation
    lam: np.ndarray  # the validated lam the charts were taken at
    report: GoodPositionReport
    hinv: Optional[np.ndarray] = None
    ginv: Optional[np.ndarray] = None
    X: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None
    second: Tuple[Optional[np.ndarray], ...] = ()


def _chart_inverses(t: Transformation, theta, y=None, lam=None) -> _Charts:
    """Invert dH/dtheta and dG/dy at (theta, y, lam) and, where both inverses
    are good, compose X and Y.  Discrete transformations have no lam chart:
    theirs are taken at the empty lam and never make a good position."""
    th = _point(theta, t.d, "theta")
    yv = np.zeros(t.c) if y is None else _point(y, t.c, "y")
    lamv = _lam_vec(t, lam) if t.kind == "continuous" else np.zeros(0)
    hinv, rh = _inverse_rcond(_finite(t.dh_dtheta(lamv, th)))
    ginv, rg = _inverse_rcond(_finite(t.dg_dy(lamv, yv)))
    if t.kind != "continuous":
        reason = "discrete"
    elif hinv is None or ginv is None:
        reason = "chart Jacobian numerically singular"
    else:
        second = tuple(None if (cb := getattr(t, name)) is None else cb(lamv, v)
                       for names, v in zip(_SECOND_ORDER_CALLBACKS, (th, yv)) for name in names)
        return _Charts(t, lamv, GoodPositionReport(ok=True, rcond_h=rh, rcond_g=rg), hinv, ginv,
                       _direction(t, hinv, lamv, th), _output(t, ginv, lamv, yv), second)
    return _Charts(t, lamv, GoodPositionReport(ok=False, rcond_h=rh, rcond_g=rg, reason=reason))


def good_position(t: Transformation, theta, y=None, lam=None) -> GoodPositionReport:
    """Are both chart Jacobians invertible here?  Always negative for
    discrete transformations, which have no lam chart at all."""
    return _chart_inverses(t, theta, y, lam).report


def equivariance_residual(t: Transformation, model: Model, theta, lam=None) -> float:
    """Relative defect of f(H(lam, theta)) = G(lam, f(theta))."""
    th = _point(theta, t.d, "theta")
    lhs = forward(model, t.h(lam, th))
    rhs = t.g(lam, forward(model, th))
    denom = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-12)
    return float(np.linalg.norm(lhs - rhs)) / denom


def fixed_point_project(t: Transformation, theta) -> np.ndarray:
    """Project onto the fixed-point set of a discrete involution:
    theta -> (theta + H(theta)) / 2."""
    if t.kind != "discrete":
        raise InvalidParams("fixed-point projection applies to discrete transformations")
    th = _point(theta, t.d, "theta")
    if not _is_involution(t, th):
        raise NotInvolution(f"{t.name} does not square to the identity")
    return 0.5 * (th + t.h(None, th))


def _is_involution(t: Transformation, theta) -> bool:
    """Whether the discrete map's Jacobian at ``theta`` squares to the
    identity, to within ``_INVOLUTION_TOL`` in every entry."""
    P = t.dh_dtheta(np.zeros(0), _point(theta, t.d, "theta")).T
    return bool(np.max(np.abs(P @ P - np.eye(t.d))) <= _INVOLUTION_TOL)


def _require_continuous_symmetry(t: Transformation) -> None:
    """Raise InvalidParams unless ``t`` is a continuous family with G = id."""
    if t.kind != "continuous" or not t.is_symmetry:
        raise InvalidParams(f"{t.name} is not a continuous symmetry")


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
    inconsistent transformation used to confirm the checks have teeth.  A
    declared-zero (``None``) callback stays ``None``: scaling zero is zero.
    The copy carries no charge: the unmutated group's grad C is no longer
    its characteristic direction."""
    if callback_name not in MUTABLE_CALLBACKS:
        raise UnknownSpec(f"unknown derivative callback {callback_name!r}")
    orig = getattr(t, callback_name)

    def scaled(lam, v):
        return float(scale) * orig(lam, v)

    return dataclasses.replace(
        t,
        name=f"{t.name}[{callback_name}*{scale}]",
        charge=None, charge_reason=f"{callback_name} is mutated, so no charge matches it",
        **{callback_name: None if orig is None else scaled},
    )
