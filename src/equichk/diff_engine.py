"""Exact differentiation via hyper-dual numbers, plus a finite-difference oracle.

A hyper-dual number carries a value and three perturbation components::

    x = v + a*e1 + b*e2 + c*e1*e2,    e1^2 = e2^2 = 0,  e1*e2 != 0

Propagating ``e1 = u``, ``e2 = w`` through a twice-differentiable map f gives

    f(x).d1  = Df(v)[u]          (exact first directional derivative)
    f(x).d12 = D^2 f(v)[u, w]    (exact mixed second derivative)

with no truncation error -- the only inaccuracy is ordinary rounding.  Full
gradients and Hessians are directional sweeps over basis directions, seeded
all at once: a gradient seeds every ``e1`` direction in one leading axis, and
a Hessian additionally seeds every ``e2`` direction in a second leading axis,
so one map evaluation carries all d^2 directional pairs.  Seeds (and
finite-difference stencils) are walked in blocks under a fixed byte budget,
``_BLOCK_BYTES``, fixed before anything is allocated; at catalog sizes every
sweep is a single block, i.e. a single map evaluation.

Evaluation points are plain float arrays, and every sweep returns a fresh
float64 ``np.ndarray`` in the ``[input, output]`` layout that
:mod:`equichk.tensor_core` composes, checked finite before it is returned:
``(d, *s)`` for first derivatives of a map into shape ``s``, ``(d, d, *s)``
for second derivatives.

Components may be scalars or numpy arrays of any broadcast-compatible shape;
an absent perturbation slot is ``None`` and every rule skips it, so unused
slots cost nothing, and a sweep reads an absent slot of its result as zeros.
First-order sweeps (``jacobian``, ``gradient_at_points``) seed no
second-order slot, so their products and sums take a first-order branch that
computes only the value and ``d1`` and skips the second-order product terms.
The arithmetic is three rules, each written once: the product rule
``_bilinear`` (hyper-dual ``*``, ``matvec``, ``dot``), the slot map ``_each``
(a structural op applied to the value and each present slot: ``take_last``,
``sum_last``, ``expand_last``, indexing, negation, and the parameter
unpacking of :mod:`equichk.models`), and the univariate lift
``_unary`` (``exp``, ``log``, ``log1p``, ``tanh``).  Maps must be written against these generic helpers
and ``+``, ``-``, ``*`` and ``relu``, which accept both plain arrays and
hyper-duals -- the same model code is then exercised by the exact engine and
by the finite-difference oracle.

The finite-difference oracle uses central differences with per-coordinate
step ``h_i = max(1, |x_i|) * eps**(1/p)`` (p = 3 for first, p = 4 for second
derivatives), every stencil point stacked into one batched map evaluation.
It exists to cross-check the exact engine and to drive every identity check
in ``finite_difference`` mode.

Convention note: ReLU is differentiated with ``relu'(0) = 0`` and
``relu'' = 0`` everywhere; checks sample points away from the kink.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Tuple

import numpy as np

from . import tensor_core
from .errors import (
    IndexOutOfRange,
    InvalidParams,
    NonFiniteEntry,
    NonFiniteResult,
    CheckFailure,
)

__all__ = [
    "DiffConfig",
    "HyperDual",
    "jacobian",
    "second_derivative",
    "fd_oracle",
    "grad_and_hessian_of_loss",
    "gradient_at_points",
    "hessians_at_points",
    # generic numeric helpers for model code
    "exp", "log", "log1p", "tanh", "relu",
    "matvec", "dot", "sum_last", "expand_last", "take_last",
]

_MODES = ("exact", "finite_difference")

#: bytes one seed or stencil block of a batched sweep may take; sweeps split
#: their directions or points into blocks of this size before allocating
_BLOCK_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class DiffConfig:
    """Differentiation settings shared by every derivative entry point."""

    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidParams(f"unknown diff mode {self.mode!r}")


_DEFAULT = DiffConfig()


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _mul(a, b):
    if a is None or b is None:
        return None
    return a * b


class HyperDual:
    """Second-order truncated perturbation number; components scalar or
    array.  An absent perturbation slot is ``None``."""

    __slots__ = ("value", "d1", "d2", "d12")
    # Keep numpy from absorbing us into its own broadcasting machinery.
    __array_ufunc__ = None

    def __init__(self, value, d1=None, d2=None, d12=None):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    def __add__(self, other):
        if isinstance(other, HyperDual):
            if (self.d2 is None and self.d12 is None
                    and other.d2 is None and other.d12 is None):  # first order
                return HyperDual(self.value + other.value, _add(self.d1, other.d1))
            return HyperDual(
                self.value + other.value,
                _add(self.d1, other.d1),
                _add(self.d2, other.d2),
                _add(self.d12, other.d12),
            )
        return HyperDual(self.value + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __neg__(self):
        return _each(self, operator.neg)

    def __sub__(self, other):
        return self + (-other if isinstance(other, HyperDual) else -np.asarray(other))

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return _bilinear(operator.mul, self, other)
        return HyperDual(self.value * other, _mul(self.d1, other), _mul(self.d2, other),
                         _mul(self.d12, other))

    __rmul__ = __mul__

    def __getitem__(self, key):
        return _each(self, lambda c: np.asarray(c)[key])

    def __repr__(self):
        return f"HyperDual(value={self.value!r})"


# --- the three rules ------------------------------------------------------------

def _term(op: Callable, x, y):
    """One product-rule term ``op(x, y)``; absent if either factor is."""
    if x is None or y is None:
        return None
    return op(x, y)


def _bilinear(op: Callable, a, b):
    """Product rule for a bilinear ``op`` (``*`` or an einsum) whose operands
    may each be plain or hyper-dual; terms with an absent slot are skipped."""
    if not isinstance(a, HyperDual):
        if not isinstance(b, HyperDual):
            return op(a, b)
        return _each(b, lambda c: op(a, c))
    if not isinstance(b, HyperDual):
        return _each(a, lambda c: op(c, b))
    av, a1, a2, a12 = a.value, a.d1, a.d2, a.d12
    bv, b1, b2, b12 = b.value, b.d1, b.d2, b.d12
    d1 = _add(_term(op, a1, bv), _term(op, av, b1))
    if a2 is None and a12 is None and b2 is None and b12 is None:
        # first-order operands: every second-order term below would be absent
        return HyperDual(op(av, bv), d1)
    return HyperDual(
        op(av, bv),
        d1,
        _add(_term(op, a2, bv), _term(op, av, b2)),
        _add(_add(_term(op, a12, bv), _term(op, av, b12)),
             _add(_term(op, a1, b2), _term(op, a2, b1))),
    )


def _each(x, fn: Callable):
    """``fn`` applied to a plain array, or to a hyper-dual's value and to each
    of its present slots (absent ones stay ``None``)."""
    if not isinstance(x, HyperDual):
        return fn(x)
    d1, d2, d12 = x.d1, x.d2, x.d12
    return HyperDual(
        fn(x.value),
        None if d1 is None else fn(d1),
        None if d2 is None else fn(d2),
        None if d12 is None else fn(d12),
    )


def _unary(f: Callable, derivs: Callable) -> Callable:
    """Lift the numpy function ``f`` to hyper-duals; ``derivs(v)`` returns
    ``(f(v), f'(v), f''(v))``."""

    def lifted(x):
        if not isinstance(x, HyperDual):
            return f(x)
        fv, df, d2f = derivs(x.value)
        d1, d2, d12 = x.d1, x.d2, x.d12
        if d2 is None and d12 is None:  # first order
            return HyperDual(fv, _mul(df, d1))
        return HyperDual(fv, _mul(df, d1), _mul(df, d2),
                         _add(_mul(df, d12), _mul(_mul(d2f, d1), d2)))

    lifted.__name__ = lifted.__qualname__ = f.__name__
    return lifted


# --- generic numeric layer ----------------------------------------------------
#
# Model and loss code is written against these helpers so the same forward
# pass runs on plain float arrays (finite differences, trajectory recording)
# and on hyper-duals (exact derivatives).

exp = _unary(np.exp, lambda v: (e := np.exp(v), e, e))
log = _unary(np.log, lambda v: (np.log(v), 1.0 / v, -1.0 / v ** 2))
log1p = _unary(np.log1p, lambda v: (np.log1p(v), 1.0 / (1.0 + v), -1.0 / (1.0 + v) ** 2))
tanh = _unary(np.tanh, lambda v: (t := np.tanh(v), s := 1.0 - t * t, -2.0 * t * s))


def relu(x):
    # relu'(0) = 0 and relu'' = 0 by convention: the sub-gradient slot at
    # the kink is pinned to the "off" branch.
    if isinstance(x, HyperDual):
        return x * (np.asarray(x.value) > 0.0).astype(float)
    x = np.asarray(x, dtype=float)
    return x * (x > 0.0)


_MATVEC = partial(np.einsum, "...ij,...j->...i")
_DOT = partial(np.einsum, "...i,...i->...")


def matvec(w, z):
    """Apply a (..., out, in) matrix block to a (..., in) vector."""
    return _bilinear(_MATVEC, w, z)


def dot(a, b):
    """Inner product over the last axis."""
    return _bilinear(_DOT, a, b)


def sum_last(x):
    return _each(x, lambda c: np.asarray(c).sum(axis=-1))


def expand_last(x):
    return _each(x, lambda c: np.asarray(c)[..., None])


def take_last(x, sl: slice):
    """Slice the last axis (parameter unpacking)."""
    return _each(x, lambda c: np.asarray(c)[..., sl])


# --- derivative sweeps ---------------------------------------------------------

def _as_point(point) -> np.ndarray:
    arr = np.asarray(point, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("evaluation point contains NaN or Inf")
    return arr


def _normalize(component, lead: Tuple[int, ...], out_shape: Tuple[int, ...]) -> np.ndarray:
    target = lead + out_shape
    if component is None:
        return np.zeros(target)
    return np.broadcast_to(np.asarray(component, dtype=float), target).copy()


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteResult(f"{what} produced NaN or Inf")


def jacobian(map_fn: Callable, point, config: Optional[DiffConfig] = None) -> np.ndarray:
    """Gradient tensor of ``map_fn`` at ``point``.

    For f: R^d -> tensors of shape s the result has shape ``(d, *s)`` with
    entry ``[i, ...] = d f[...] / d theta_i`` (parameter axis first, so plain
    composition contracts it).
    """
    cfg = config or _DEFAULT
    x = _as_point(point)
    if cfg.mode == "finite_difference":
        return fd_oracle(map_fn, x, 1, cfg)
    d = x.size
    seed = HyperDual(x, d1=np.eye(d))
    out = map_fn(seed)
    if not isinstance(out, HyperDual):  # constant map
        out_shape = np.shape(np.asarray(out))
        return np.zeros((d,) + out_shape)
    out_shape = np.shape(np.asarray(out.value))
    _check_finite(np.asarray(out.value, dtype=float), "map evaluation")
    jac = _normalize(out.d1, (d,), out_shape)
    _check_finite(jac, "jacobian sweep")
    return jac


def _blocks(n: int, item_bytes: int):
    """Consecutive slices of ``range(n)``, each holding as many items of
    ``item_bytes`` as fit in ``_BLOCK_BYTES`` (at least one)."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def second_derivative(map_fn: Callable, point, config: Optional[DiffConfig] = None) -> np.ndarray:
    """Second-derivative tensor, shape ``(d, d, *s)``, symmetric in the two
    leading axes.

    The seed carries every first-slot direction along axis 1 and every
    second-slot direction along axis 0 (``d1 = I[None]``, ``d2 = I[:, None]``),
    so one map evaluation returns the whole tensor.  Second-slot directions
    are split into blocks of ``_BLOCK_BYTES`` (a d x d seed product each), one
    evaluation per block; at catalog sizes that is a single evaluation.
    """
    cfg = config or _DEFAULT
    x = _as_point(point)
    if cfg.mode == "finite_difference":
        return fd_oracle(map_fn, x, 2, cfg)
    d = x.size
    eye = np.eye(d)
    parts = []
    for blk in _blocks(d, 8 * d * d):
        out = map_fn(HyperDual(x, d1=eye[None, :, :], d2=eye[blk, None, :]))
        lead = (blk.stop - blk.start, d)
        if not isinstance(out, HyperDual):  # constant map
            parts.append(np.zeros(lead + np.shape(np.asarray(out))))
        else:
            parts.append(_normalize(out.d12, lead, np.shape(np.asarray(out.value))))
    hess = np.concatenate(parts, axis=0)
    _check_finite(hess, "second-derivative sweep")
    return hess


def _stencil(order: int, d: int):
    """Central-difference stencil as per-point offsets: coordinate ``a`` moves
    by ``sa * h_a`` and coordinate ``b`` by ``sb * h_b`` (index -1: no move).

    Order 1: ``+e_i`` then ``-e_i`` for every i.  Order 2: the centre, ``+e_i``,
    ``-e_i``, then ``++``, ``+-``, ``-+``, ``--`` over every pair i < j.
    """
    idx = np.arange(d)
    one = np.ones(d)
    if order == 1:
        none = np.full(2 * d, -1)
        return np.concatenate([idx, idx]), np.concatenate([one, -one]), none, np.zeros(2 * d)
    i, j = np.triu_indices(d, 1)
    plus, minus, off = np.ones(i.size), -np.ones(i.size), np.full(2 * d + 1, -1)
    a = np.concatenate([[-1], idx, idx, i, i, i, i])
    sa = np.concatenate([[0.0], one, -one, plus, plus, minus, minus])
    b = np.concatenate([off, j, j, j, j])
    sb = np.concatenate([np.zeros(2 * d + 1), plus, minus, plus, minus])
    return a, sa, b, sb


def fd_oracle(map_fn: Callable, point, order: int, config: Optional[DiffConfig] = None) -> np.ndarray:
    """Central finite differences of order 1 or 2 (the independent oracle).

    Steps follow ``h_i = max(1, |x_i|) * eps**(1/p)`` with p = 3 for first
    and p = 4 for second derivatives — the classical truncation/rounding
    balance for each order (a cube-root step on a second difference lets
    eps/h^2 rounding dominate at ~1e-5).  ``config`` is accepted so that
    every sweep takes the same arguments; none of its settings changes the
    stencil.

    Every stencil point is stacked into one ``(n, d)`` batch and the map is
    evaluated once on it (once per ``_BLOCK_BYTES`` block of points for large
    d), so ``map_fn`` must accept leading batch axes, as the exact sweeps'
    hyper-dual seeds already require.  The differences are then combined in
    the same order of arithmetic as a point-by-point stencil.
    """
    x = _as_point(point)
    d = x.size
    if order not in (1, 2):
        raise IndexOutOfRange(f"fd_oracle order must be 1 or 2, got {order}")
    exponent = 1.0 / 3.0 if order == 1 else 0.25
    h = np.maximum(1.0, np.abs(x)) * np.finfo(float).eps ** exponent

    a, sa, b, sb = _stencil(order, d)
    values = []
    for blk in _blocks(a.size, 8 * d):
        pts = np.tile(x, (blk.stop - blk.start, 1))
        rows = np.arange(pts.shape[0])
        for coord, sign in ((a[blk], sa[blk]), (b[blk], sb[blk])):
            on = coord >= 0
            pts[rows[on], coord[on]] += sign[on] * h[coord[on]]
        values.append(np.asarray(map_fn(pts), dtype=float))
    f = np.concatenate(values, axis=0)
    tail = (slice(None),) + (None,) * (f.ndim - 1)   # broadcast steps over the output

    if order == 1:
        out = (f[:d] - f[d:]) / (2.0 * h)[tail]
    else:
        f0, fp, fm = f[0], f[1:d + 1], f[d + 1:2 * d + 1]
        out = np.zeros((d, d) + f0.shape)
        diag = np.arange(d)
        out[diag, diag] = (fp - 2.0 * f0 + fm) / (h * h)[tail]
        i, j = np.triu_indices(d, 1)
        fpp, fpm, fmp, fmm = np.split(f[2 * d + 1:], 4)
        mixed = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])[tail]
        out[i, j] = mixed
        out[j, i] = mixed
    _check_finite(out, "finite-difference sweep")
    return out


def grad_and_hessian_of_loss(
    model,
    loss,
    point,
    config: Optional[DiffConfig] = None,
    check_assembly: bool = True,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of ``L = loss o model`` at ``point``.

    The gradient/Hessian are obtained by differentiating the composite map
    directly.  When ``check_assembly`` is on, the Hessian is additionally
    assembled from the chain/product rule

        hess(L) = hess(loss) o jac(f) o_2 jac(f) + grad(loss) o hess(f)

    and the two routes must agree (1e-10 relative in exact mode, 1e-4 with
    finite differences); a mismatch raises :class:`CheckFailure`.
    """
    cfg = config or _DEFAULT
    x = _as_point(point)

    def composite(th):
        return loss.apply(model.func(th))

    value = float(np.asarray(composite(x)))
    if not np.isfinite(value):
        raise NonFiniteResult("loss evaluation produced NaN or Inf")
    grad = jacobian(composite, x, cfg)
    hess = second_derivative(composite, x, cfg)

    if check_assembly:
        y = np.asarray(model.func(x), dtype=float)
        _check_assembly(hess, jacobian(model.func, x, cfg), second_derivative(model.func, x, cfg),
                        tensor_core._finite(loss.grad(y)), tensor_core._finite(loss.hess(y)), cfg.mode)
    return value, grad, hess


def _check_assembly(hess: np.ndarray, jac_f: np.ndarray, hess_f: np.ndarray, gl: np.ndarray,
                    hl: np.ndarray, mode: str) -> None:
    """Hold the composite Hessian against its chain/product-rule assembly
    from the model derivatives and the analytic loss derivatives; raises
    :class:`CheckFailure` past 1e-10 relative (exact) or 1e-4 (FD)."""
    gauss_newton = tensor_core.compose_k(tensor_core.compose(hl, jac_f), jac_f, 2)
    assembled = gauss_newton + tensor_core.compose(gl, hess_f)
    scale = max(float(np.linalg.norm(hess.reshape(-1))),
                float(np.linalg.norm(assembled.reshape(-1))), 1e-12)
    tol = 1e-10 if mode == "exact" else 1e-4
    gap = float(np.linalg.norm((hess - assembled).reshape(-1))) / scale
    if gap > tol:
        raise CheckFailure(
            f"hessian assembly self-check failed: relative gap {gap:.3e} > {tol:g}"
        )


# --- batched sweeps for dynamics ------------------------------------------------

@lru_cache(maxsize=32)
def _gradient_seed(d: int) -> np.ndarray:
    """The ``d1`` seed of :func:`gradient_at_points`, ``I[:, None, :]``, built
    once per d (read-only: every sweep shares it)."""
    seed = np.eye(d)[:, None, :]
    seed.flags.writeable = False
    return seed


def gradient_at_points(map_fn: Callable, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and gradients of a scalar map at a batch of points:
    ``(values (M,), grads (M, d))``.

    One hyper-dual evaluation carrying all d directions, vectorized over the
    batch axis of ``points``; the values are that evaluation's ``.value``.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    out = map_fn(HyperDual(pts, d1=_gradient_seed(d)))
    if not isinstance(out, HyperDual):  # constant map
        return np.broadcast_to(np.asarray(out, dtype=float), (m,)).copy(), np.zeros((m, d))
    d1 = out.d1
    if d1 is None:
        grads = np.zeros((m, d))
    elif np.shape(d1) == (d, m):
        grads = d1.T.copy()
    else:  # a tangent constant over the batch, e.g. (d, 1)
        grads = np.broadcast_to(d1, (d, m)).T.copy()
    _check_finite(grads, "batched gradient sweep")
    return np.array(out.value, dtype=float), grads


def hessians_at_points(map_fn: Callable, points: np.ndarray) -> np.ndarray:
    """Hessians of a scalar map at a batch of points, shape (M, d, d).

    Seeded like :func:`second_derivative` (``d1 = I[None]``, ``d2 = I[:, None]``)
    and vectorized over the batch axis of ``points``, so one map evaluation
    gives every Hessian.  Points are walked in blocks of ``_BLOCK_BYTES``
    (d^3 seed entries per point), one evaluation per block.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    eye = np.eye(d)
    out = np.zeros((m, d, d))
    for blk in _blocks(m, 8 * d * d * d):
        res = map_fn(HyperDual(pts[blk], d1=eye[None, :, None, :], d2=eye[:, None, None, :]))
        if isinstance(res, HyperDual):
            hess = _normalize(res.d12, (d, d), np.shape(np.asarray(res.value)))  # (j, i, M)
            out[blk] = np.transpose(hess, (2, 1, 0))
    _check_finite(out, "batched hessian sweep")
    return out
