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
so one map evaluation carries all d^2 directional pairs, and its value and
``e1`` slot carry the map's value and gradient as well.  The second slot can
instead carry one given direction u_m per point, a direction field: the
``e1e2`` slot then holds the Hessian-vector product H(x_m) u_m (d pairs per
point, not d^2), and the value and ``e1`` slot still the value and gradient.
Two private sweeps give values, first and, optionally, second derivatives at
a batch of points: ``_sweep`` (hyper-dual, ``exact`` mode; its second slot
carries the basis or a direction field) and ``_fd_sweep`` (central
differences, ``finite_difference`` mode), picked from ``_SWEEPS``.
``jacobian`` and ``second_derivative`` are the mode's sweep at one point,
``fd_oracle`` the FD sweep at one point, ``gradient_at_points`` and
``hessians_at_points`` the exact sweep over a batch, and
``grad_and_hessian_of_loss`` and ``_values_and_derivatives`` take value,
gradient and Hessian from one second-order sweep; the SGF drift theory of
:mod:`equichk.dynamics` calls ``_sweep`` with a direction field.  A suite
evaluates the landscapes of a plan entry with ``_values_and_derivatives``
of one map, ``_landscape_map``: the model's outputs (..., c) with the
composite loss appended as one more last-axis column (..., c + 1), joined by
the copy-only ``_append_last``, so one map evaluation per block gives the
model's derivatives and the composite's, and the model's forward pass runs
once for both.  Second-order hyper-dual sweeps walk
their points, and FD sweeps their stencil points, in blocks under a fixed
byte budget, ``_BLOCK_BYTES``, fixed before anything is allocated; a point
too large for one block has its second-slot basis directions walked
instead.  At catalog sizes every sweep is a single block, i.e. a single map
evaluation.

Evaluation points are plain float arrays, each read by tensor_core's one
point reader, ``_point`` (a float64 array as it is, anything else by the
number rule, flattened and checked finite), and every sweep returns a fresh
C-contiguous float64 ``np.ndarray`` in the ``[input, output]`` layout that
:mod:`equichk.tensor_core` composes, checked finite before it is returned:
``(d, *s)`` for first derivatives of a map into shape ``s``, ``(d, d, *s)``
for second derivatives, and ``(d, *s)`` for Hessian-vector products.

Components may be scalars or numpy arrays of any broadcast-compatible shape;
an absent perturbation slot is ``None`` and every rule skips it, so unused
slots cost nothing, and a sweep reads an absent slot of its result as zeros.
First-order sweeps seed no second-order slot, so their products and sums
take a first-order branch that computes only the value and ``d1``.
The arithmetic is three rules, each written once: the product rule
``_bilinear`` (hyper-dual ``*``, ``matvec``, ``dot``), the slot map ``_each``
(a structural op applied to the value and each present slot: ``take_last``,
``sum_last``, ``expand_last``, indexing, negation, and the parameter
unpacking of :mod:`equichk.models`), and the univariate lift
``_unary`` (``exp``, ``log``, ``log1p``, ``tanh``).  Maps must be written against these generic helpers
and ``+``, ``-``, ``*`` and ``relu``, which accept both plain arrays and
hyper-duals -- the same model code is then exercised by the exact engine and
by the finite-difference oracle.

A first-order sweep of a single point (``jacobian``, and
``gradient_at_points`` at batch 1, as a gradient flow sweeps once per
Runge-Kutta stage) hands the map a ``_Stacked`` dual instead: the value rides
as row 0 of the ``e1`` slot, one ``(1 + d, 1, ...)`` array, so each slot map,
each product with a plain operand and the relu mask is one numpy call where
a ``HyperDual`` makes two, a product of two duals is ``op(P_a, b_v)`` plus
``op(a_v, P_b[1:])`` on rows 1 onward (d1 = a1 bv + av b1, in that order), and
a lift is ``[f(v); f'(v) d1]``, with the bits ``HyperDual`` gives.  On a
2-core Xeon (numpy 2.4.6) a batch-1 gradient sweep of ``deep_linear
[1, 2, 1]`` with the square loss went 28.0 -> 23.4 us.  ``_sweep`` picks it
from what it sees, first order and one row; every batched sweep and every
second-order sweep keeps ``HyperDual``.  Stacking a batch too kept every
output bit but made the 2000-row SGF ensemble slower (perfbench
``sgf_drift`` ``wall_ref`` 199 -> 206): its seed is a fresh (1 + d, M, d)
array where ``HyperDual`` broadcasts a read-only one, and the first layer
runs on every row where ``HyperDual``'s ``e1`` slot has no batch axis.

The finite-difference sweep steps coordinate i by ``max(1, |x_i|) * eps**(1/p)``
(p = 3 for first, p = 4 for second derivatives); its stencil tables depend
only on (d, second) and are built once each (``_stencil``).  It exists to
cross-check the exact engine and to drive every identity check in
``finite_difference`` mode.

Convention note: ReLU is differentiated with ``relu'(0) = 0`` and
``relu'' = 0`` everywhere; checks sample points away from the kink.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from numpy._core.multiarray import c_einsum  # the C einsum np.einsum calls when optimize=False

from . import tensor_core
from .errors import (
    AxisMismatch,
    IndexOutOfRange,
    InvalidParams,
    NonFiniteResult,
    CheckFailure,
)
from .tensor_core import _point

__all__ = [
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

#: bytes one seed or stencil block of a batched sweep may take; sweeps split
#: their directions or points into blocks of this size before allocating
_BLOCK_BYTES = 64 * 2 ** 20


def _check_mode(mode: str) -> None:
    """Raise InvalidParams unless ``mode`` is one of the ``_SWEEPS`` modes."""
    if mode not in _SWEEPS:
        raise InvalidParams(f"unknown diff mode {mode!r} (known: {', '.join(_SWEEPS)})")


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


class _Stacked(HyperDual):
    """A first-order hyper-dual whose value rides as row 0 of its ``e1``
    slot: ``stack[0]`` is the value and ``stack[1:]`` the ``d1`` rows, one
    per direction, so a slot map or a product with a plain operand is one
    numpy call on ``stack``.  Only :func:`_sweep` builds one, for a
    first-order sweep of a single point, and every rule keeps it stacked."""

    __slots__ = ("stack",)
    value = property(lambda self: self.stack[0])
    d1 = property(lambda self: self.stack[1:])
    d2 = d12 = None

    def __init__(self, stack):
        self.stack = stack

    def __add__(self, other):
        if isinstance(other, _Stacked):
            return _Stacked(self.stack + other.stack)
        value = self.stack[0] + other   # the d1 rows as they are, broadcast
        out = np.empty(self.stack.shape[:1] + value.shape)
        out[0] = value
        out[1:] = self.stack[1:]
        return _Stacked(out)

    __radd__ = __add__

    def __mul__(self, other):
        return _bilinear(operator.mul, self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        # the key indexes the value's axes, in every row
        return _Stacked(self.stack[(slice(None),) + (key if isinstance(key, tuple) else (key,))])


# --- the three rules ------------------------------------------------------------

def _term(op: Callable, x, y):
    """One product-rule term ``op(x, y)``; absent if either factor is."""
    if x is None or y is None:
        return None
    return op(x, y)


def _bilinear(op: Callable, a, b):
    """Product rule for a bilinear ``op`` (``*`` or an einsum) whose operands
    may each be plain or hyper-dual; terms with an absent slot are skipped.
    A stacked operand meets a plain one or another stacked one (the stacked
    path builds no other dual), and each term is one call on its stack."""
    if type(a) is _Stacked:
        if type(b) is not _Stacked:
            return _Stacked(op(a.stack, b))
        out = op(a.stack, b.stack[0])   # [av.bv; a1.bv]
        out[1:] += op(a.stack[0], b.stack[1:])   # d1 = a1.bv + av.b1
        return _Stacked(out)
    if type(b) is _Stacked:
        return _Stacked(op(a, b.stack))
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
    of its present slots (absent ones stay ``None``); to a stacked dual's
    stack in one call (``fn`` acts on trailing axes)."""
    if type(x) is _Stacked:
        return _Stacked(fn(x.stack))
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
        if type(x) is _Stacked:  # [f(v); f'(v) d1]
            stack = x.stack
            fv, df, _ = derivs(stack[0])
            out = np.empty(stack.shape)
            out[0] = fv
            np.multiply(df, stack[1:], out=out[1:])
            return _Stacked(out)
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


# matvec, dot and sum_last call the C kernels that np.einsum (optimize=False)
# and ndarray.sum forward to, without numpy's Python dispatch: in a batch-1
# sweep those layers cost about a sixth of the sweep, and the bits are the same
_MATVEC = partial(c_einsum, "...ij,...j->...i")
_DOT = partial(c_einsum, "...i,...i->...")


def matvec(w, z):
    """Apply a (..., out, in) matrix block to a (..., in) vector."""
    return _bilinear(_MATVEC, w, z)


def dot(a, b):
    """Inner product over the last axis."""
    return _bilinear(_DOT, a, b)


def sum_last(x):
    return _each(x, lambda c: np.add.reduce(c, axis=-1))


def expand_last(x):
    return _each(x, lambda c: np.asarray(c)[..., None])


def take_last(x, sl: slice):
    """Slice the last axis (parameter unpacking)."""
    return _each(x, lambda c: np.asarray(c)[..., sl])


# --- derivative sweeps ---------------------------------------------------------

def _check_finite(arr: np.ndarray, what: str) -> None:
    if not tensor_core._all_finite(arr):
        raise NonFiniteResult(f"{what} produced NaN or Inf")


def _blocks(n: int, item_bytes: int):
    """Consecutive slices of ``range(n)``, each holding as many items of
    ``item_bytes`` as fit in ``_BLOCK_BYTES`` (at least one; one empty
    slice when n = 0)."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


@lru_cache(maxsize=32)
def _seeds(d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeds of :func:`_sweep`, built once per d (read-only: every sweep
    shares them): ``d1 = I[:, None, :]`` alone for first order, and
    ``d1 = I[None, :, None, :]`` with ``d2 = I[:, None, None, :]`` for
    second order."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye[:, None, :], eye[None, :, None, :], eye[:, None, None, :]


def _sweep(map_fn: Callable, points: np.ndarray, second: bool,
           directions: Optional[np.ndarray] = None
           ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Values ``(M, *s)``, first derivatives ``(M, d, *s)`` and, when
    ``second``, second derivatives of ``map_fn`` at each row of ``points``
    (M, d), all from the same hyper-dual evaluations.

    The seed carries every first-slot direction i along one leading axis
    and, when ``second``, the second-slot directions along the axis before
    it, with the batch after them, so one evaluation gives the whole tensor.
    The second slot carries the basis, giving the Hessians ``(M, d, d, *s)``
    as ``[m, j, i, ...]``, or, when ``directions`` (M, d) is given, row m's
    direction u_m alone, giving ``(M, d, *s)`` with ``[m, i, ...] =
    D^2 f(x_m)[e_i, u_m]`` (Hessian-vector products, d directional pairs per
    point instead of d^2).  A first-order sweep is one evaluation, of a
    :class:`_Stacked` dual when it has one point.  A
    second-order one walks its points in blocks of ``_BLOCK_BYTES`` (d^2
    seed entries per point and second-slot direction), and a point over that
    alone has its basis directions walked in blocks of d^2.  A constant map
    and an absent slot read as zeros.  The results are fresh C-contiguous
    arrays, the derivatives checked finite (a caller that reads the values
    as a result checks them).
    """
    m, d = points.shape
    first_seed, d1_seed, d2_seed = _seeds(d)
    if not second and m == 1:
        # one point, first order: the value rides as row 0 of the e1 stack
        res = map_fn(_Stacked(np.concatenate((points[None], first_seed))))
        if not isinstance(res, HyperDual):  # constant map
            values = np.empty((1,) + np.shape(res)[1:])
            values[...] = res
            return values, np.zeros((1, d) + values.shape[1:]), None
        stack = np.ascontiguousarray(res.stack)
        first = stack[1:].reshape((1, d) + stack.shape[2:])
        _check_finite(first, "hyper-dual sweep")
        return stack[0], first, None
    n_dir = d if directions is None else 1  # second-slot directions per point
    values = first = hess = None
    for rows in _blocks(m, 8 * n_dir * d * d) if second else (slice(0, m),):
        for cols in _blocks(n_dir, 8 * d * d) if second else (None,):
            if not second:
                res = map_fn(HyperDual(points[rows], d1=first_seed))
            else:
                d2 = d2_seed[cols] if directions is None else directions[None, None, rows]
                res = map_fn(HyperDual(points[rows], d1=d1_seed, d2=d2))
            if not isinstance(res, HyperDual):  # constant map
                res = HyperDual(res)
            if values is None:
                s = np.shape(res.value)[1:]
                values, first = np.empty((m,) + s), np.empty((m, d) + s)
                hess = np.empty((m, n_dir, d) + s) if second else None
            # each slot is written through a view in its own layout, which
            # broadcasts an absent (0.0) or batch-constant slot
            values[rows] = res.value
            first[rows].swapaxes(0, 1)[...] = 0.0 if res.d1 is None else res.d1
            if second:
                np.moveaxis(hess[rows, cols], 0, 2)[...] = 0.0 if res.d12 is None else res.d12
    _check_finite(first, "hyper-dual sweep")
    if second:
        _check_finite(hess, "hyper-dual sweep")
        if directions is not None:
            hess = hess[:, 0]
    return values, first, hess


#: the finite-difference step per unit of max(1, |x|), at levels 0 and 1
_FD_STEPS = np.finfo(float).eps ** np.array([1.0 / 3.0, 0.25])
_FD_STEPS.flags.writeable = False


@lru_cache(maxsize=32)
def _stencil(d: int, second: bool) -> tuple:
    """The stencil tables of :func:`_fd_sweep`, built once per (d, second)
    and read-only (every sweep shares them): per stencil row k the moved
    coordinates ``a[k]``, ``b[k]`` (-1: none), their signs ``sa[k]``,
    ``sb[k]`` and the step level ``lv[k]``; the pairs ``i < j``; and, per
    move, the rows that make it (``a >= 0``, ``b >= 0``)."""
    idx, one = np.arange(d), np.ones(d)
    i, j = np.triu_indices(d, 1) if second else (idx[:0], idx[:0])
    plus, minus = np.ones(i.size), -np.ones(i.size)
    singles = 1 + (4 if second else 2) * d
    a = np.concatenate([[-1]] + [idx, idx] * (1 + second) + [i, i, i, i])
    sa = np.concatenate([[0.0]] + [one, -one] * (1 + second) + [plus, plus, minus, minus])
    b = np.concatenate([np.full(singles, -1), j, j, j, j])
    sb = np.concatenate([np.zeros(singles), plus, minus, plus, minus])
    lv = (np.arange(a.size) > 2 * d).astype(int)
    tables = (a, sa, b, sb, lv, i, j, a >= 0, b >= 0)
    for t in tables:
        t.flags.writeable = False
    return tables


def _fd_sweep(map_fn: Callable, points: np.ndarray, second: bool
              ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Central finite differences with :func:`_sweep`'s contract: values
    ``(M, *s)``, first derivatives ``(M, d, *s)`` and, when ``second``,
    second derivatives ``(M, d, d, *s)`` at each row of ``points`` (M, d).

    Step level 0 is ``max(1, |x|) * eps**(1/3)``, level 1 ``eps**(1/4)``: the
    classical truncation/rounding balance for each order (a cube-root step on
    a second difference lets eps/h^2 rounding dominate at ~1e-5).  Row k of a
    point's stencil moves coordinate ``a[k]`` by ``sa[k]`` and ``b[k]`` by
    ``sb[k]`` steps of level ``lv[k]`` (index -1: no move): the centre (the
    value), ``+e_i`` and ``-e_i`` at level 0 and, when ``second``, at level 1,
    then ``++``, ``+-``, ``-+``, ``--`` at level 1 over every pair i < j.
    These tables depend only on (d, second) and come from :func:`_stencil`,
    built once each.  All points' stencils are one batch, evaluated once per
    ``_BLOCK_BYTES`` block of stencil points built from these arrays, so
    ``map_fn`` must accept leading batch axes; the differences are combined
    in the order of arithmetic of a point-by-point stencil, and checked
    finite.
    """
    m, d = points.shape
    a, sa, b, sb, lv, i, j, a_moves, b_moves = _stencil(d, second)
    n = a.size   # stencil rows per point
    h1, h2 = h = np.maximum(1.0, np.abs(points)) * _FD_STEPS[:, None, None]   # (level, m, d)
    f = []
    for blk in _blocks(m * n, 8 * d):
        pt, k = np.divmod(np.arange(blk.start, blk.stop), n)
        pts = points[pt]
        for moves, coord, sign in ((a_moves, a, sa), (b_moves, b, sb)):
            on = np.flatnonzero(moves[k])
            kon, c = k[on], coord[k[on]]
            pts[on, c] += sign[kon] * h[lv[kon], pt[on], c]
        f.append(np.asarray(map_fn(pts), dtype=float))
    f = (f[0] if len(f) == 1 else np.concatenate(f)).reshape((m, n) + f[0].shape[1:])
    tail = (...,) + (None,) * (f.ndim - 2)   # broadcast steps over the output

    first = (f[:, 1:d + 1] - f[:, d + 1:2 * d + 1]) / (2.0 * h1)[tail]
    _check_finite(first, "finite-difference sweep")
    hess = None
    if second:
        singles, q = 1 + 4 * d, i.size   # single-move rows, then the four pair blocks
        f0, fp, fm = f[:, :1], f[:, 2 * d + 1:3 * d + 1], f[:, 3 * d + 1:singles]
        hess = np.empty((m, d, d) + f.shape[2:])
        diag = np.arange(d)
        hess[:, diag, diag] = (fp - 2.0 * f0 + fm) / (h2 * h2)[tail]
        fpp, fpm, fmp, fmm = (f[:, singles + r * q:singles + (r + 1) * q] for r in range(4))
        hess[:, i, j] = hess[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h2[:, i] * h2[:, j])[tail]
        _check_finite(hess, "finite-difference sweep")
    return f[:, 0].copy(), first, hess


#: the sweep behind every derivative, by differentiation mode
_SWEEPS = {"exact": _sweep, "finite_difference": _fd_sweep}


def jacobian(map_fn: Callable, point, mode: str = "exact") -> np.ndarray:
    """Gradient tensor of ``map_fn`` at ``point``.

    For f: R^d -> tensors of shape s the result has shape ``(d, *s)`` with
    entry ``[i, ...] = d f[...] / d theta_i`` (parameter axis first, so plain
    composition contracts it).
    """
    _check_mode(mode)
    return _SWEEPS[mode](map_fn, _point(point, None, "point")[None], False)[1][0]


def second_derivative(map_fn: Callable, point, mode: str = "exact") -> np.ndarray:
    """Second-derivative tensor, shape ``(d, d, *s)``, symmetric in the two
    leading axes: the second-slot direction j indexes axis 0 and the
    first-slot direction i axis 1 (the mode's sweep at the one point)."""
    _check_mode(mode)
    return _SWEEPS[mode](map_fn, _point(point, None, "point")[None], True)[2][0]


def fd_oracle(map_fn: Callable, point, order: int) -> np.ndarray:
    """Central finite differences of order 1 or 2 (the independent oracle):
    :func:`_fd_sweep` at the one point, ``(d, *s)`` or ``(d, d, *s)``."""
    x = _point(point, None, "point")
    if order not in (1, 2):
        raise IndexOutOfRange(f"fd_oracle order must be 1 or 2, got {order}")
    return _fd_sweep(map_fn, x[None], order == 2)[order][0]


def _values_and_derivatives(map_fn: Callable, points: Sequence[np.ndarray], mode: str
                            ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Value, first and second derivative of ``map_fn`` at each of the
    checked ``points`` (``_point`` rows), from one sweep of the mode over
    all of them: one map evaluation per block.  Each point's value is checked
    finite.  A suite's landscapes pass ``_landscape_map``, so every column,
    the model's and the composite loss's, is checked."""
    out = list(zip(*_SWEEPS[mode](map_fn, np.stack(points), True))) if points else []
    for value, _, _ in out:
        _check_finite(value, "map evaluation")
    return out


def _loss_map(model, loss) -> Callable:
    """``L = loss o model`` as one map: the composite route."""
    return lambda th: loss.apply(model.func(th))


def _join_slot(y, z, c: int):
    """One slot of :func:`_append_last`: ``y`` (..., c) and ``z`` (...) copied
    into one fresh (..., c + 1) array, each broadcast over the other's leading
    axes; an absent side reads as zeros, and two absent sides stay absent."""
    if y is None and z is None:
        return None
    out = np.empty(np.broadcast_shapes(np.shape(y)[:-1], np.shape(z)) + (c + 1,))
    out[..., :c] = 0.0 if y is None else y
    out[..., c] = 0.0 if z is None else z
    return out


def _append_last(y, z):
    """The map outputs ``y`` (..., c) with ``z`` (...) appended as one more
    last-axis column, (..., c + 1): plain arrays or hyper-duals, the value and
    every slot copied as they are (no arithmetic, so each column keeps the
    bits its own map gave)."""
    c = np.shape(y.value if isinstance(y, HyperDual) else y)[-1]
    if not isinstance(y, HyperDual) and not isinstance(z, HyperDual):
        return _join_slot(y, z, c)
    stacked = isinstance(y, _Stacked) or isinstance(z, _Stacked)
    y, z = (x if isinstance(x, HyperDual) else HyperDual(x) for x in (y, z))
    out = HyperDual(*(_join_slot(u, v, c) for u, v in
                      ((y.value, z.value), (y.d1, z.d1), (y.d2, z.d2), (y.d12, z.d12))))
    return _Stacked(np.concatenate((out.value[None], out.d1))) if stacked else out


def _landscape_map(model, loss) -> Callable:
    """The model's outputs (..., c) with the composite ``L = loss o model``
    appended as one more last-axis column, (..., c + 1): one map evaluation
    carries both, and a sweep of it differentiates each column on its own,
    so its last column is the composite route and the others the model."""

    def joined(th):
        y = model.func(th)
        return _append_last(y, loss.apply(y))

    return joined


def grad_and_hessian_of_loss(
    model,
    loss,
    point,
    mode: str = "exact",
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of ``L = loss o model`` at ``point``,
    obtained by differentiating the composite map directly (the route that
    :func:`equichk.identity_checker.evaluate_landscapes` holds against the
    chain/product-rule assembly), all from one sweep."""
    _check_mode(mode)
    (value, grad, hess), = _values_and_derivatives(_loss_map(model, loss),
                                                   [_point(point, model.d, "theta")], mode)
    return float(value), grad, hess


def _check_assembly(hess: np.ndarray, jac_f: np.ndarray, hess_f: np.ndarray, gl: np.ndarray,
                    hl: np.ndarray, mode: str) -> None:
    """Hold the composite Hessian against its chain/product-rule assembly
    from the model derivatives and the analytic loss derivatives,

        hess(L) = hess(loss) o jac(f) o_2 jac(f) + grad(loss) o hess(f);

    raises :class:`CheckFailure` past 1e-10 relative (exact) or 1e-4 (FD)."""
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

def _batch(points) -> np.ndarray:
    """``points`` as a float (M, d) batch; AxisMismatch for any other rank."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise AxisMismatch(f"expected a batch of points (M, d), got shape {points.shape}")
    return points


def gradient_at_points(map_fn: Callable, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values and gradients of a scalar map at a batch of points:
    ``(values (M,), grads (M, d))``, from one first-order :func:`_sweep`."""
    values, grads, _ = _sweep(map_fn, _batch(points), False)
    return values, grads


def hessians_at_points(map_fn: Callable, points: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and Hessians of a scalar map at a batch of points:
    ``(values (M,), grads (M, d), hessians (M, d, d))``, from one
    second-order :func:`_sweep`; ``hessians[m, i, j]`` takes the first-slot
    direction i before the second-slot direction j."""
    values, grads, hess = _sweep(map_fn, _batch(points), True)
    return values, grads, np.ascontiguousarray(hess.swapaxes(1, 2))
