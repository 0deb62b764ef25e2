"""Curried composition of dense float64 arrays, and square-matrix inversion.

A derivative tensor of shape ``(s1, ..., sk)`` is a ``k``-linear map held as
a plain float64 ``np.ndarray``, stored row-major.  The calculus revolves
around two contractions:

* ``compose(g, f)`` -- plain composition ``g o f``.  It contracts the *last*
  axis of ``f`` against the *first* axis of ``g``::

      (g o f)[t..., s...] = sum_b f[t..., b] * g[b, s...]

* ``compose_k(g, f, k)`` -- composition into the ``k``-th slot of ``g`` (with
  ``k = 1`` recovering plain composition).  It contracts the last axis of
  ``f`` against axis ``k`` of ``g`` and splices the leading axes of ``f``
  into that position, e.g. ``g`` of shape ``(a, b, c)`` with ``f`` of shape
  ``(d, b)`` composed at ``k = 2`` yields shape ``(a, d, c)``.

Storage convention: when a matrix-like array represents a linear map, it is
indexed ``[input, output]``; the *first* axis is the one that plain
composition contracts when the array sits on the left.  With this layout a
map's action on a vector ``x`` is ``compose(A, x)`` and
``compose(compose(A, x), y)`` evaluates the bilinear form ``<y, A x>``.

Scalars are rank-0 arrays and composing a scalar with anything (in either
slot) is scalar multiplication; this lets one-dimensional losses flow through
the same code paths as vector-valued ones.

Matrix inversion is numpy's LAPACK LU inverse (``np.linalg.inv``); a
reciprocal 1-norm condition estimate gates the result.

The package's one number rule lives here, below every layer that reads a
number: ``_is_real`` (a finite int or float, numpy's included, that a float
holds), ``_is_integer`` (an int, numpy's included) and ``_reals`` (a finite
real or a nested list or numeric array of them, as a float array).  Neither
counts a bool, and a string is never parsed, so ``True`` and ``"0.5"`` are
refused where a number is expected, as NaN and Inf are.  Every builder, run,
plan check and the CLI read their numbers through them.  So does the one
point reader, ``_point``, through which every theta, lam and y is read, by
the models, the transforms, the sweeps, the checks and the flows alike: a
float64 array as it is, anything else by ``_reals``, flattened, then held
to its length and checked finite.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

import numpy as np

from .errors import (AxisMismatch, IndexOutOfRange, InvalidParams, NonFiniteEntry, Singular,
                     SizeMismatch)

__all__ = [
    "compose",
    "compose_k",
    "invert_square",
]

# Reciprocal-condition threshold below which a square matrix is treated as
# singular everywhere in the toolbox.
RCOND_THRESHOLD = 1e-12


def _is_integer(v) -> bool:
    """Whether ``v`` is an integer, numpy's included; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """Whether ``v`` is a finite real that a float holds: an integer (see
    :func:`_is_integer`) or a Python or numpy float."""
    return ((_is_integer(v) and abs(v) <= sys.float_info.max)
            or (isinstance(v, (float, np.floating)) and math.isfinite(v)))


def _reals(v, what: str) -> np.ndarray:
    """``v`` -- a finite real (see :func:`_is_real`), or a nested list or
    tuple or an integer or float array of them -- as a float array; anything
    else (a bool, a string, NaN or Inf, a ragged nest) raises InvalidParams."""
    def real(u) -> bool:
        if isinstance(u, np.ndarray):
            return u.dtype.kind in "iuf" and bool(np.isfinite(u).all())
        return all(map(real, u)) if isinstance(u, (list, tuple)) else _is_real(u)

    try:
        if real(v):
            return np.asarray(v, dtype=float)
    except ValueError:  # a ragged nest
        pass
    raise InvalidParams(f"{what}: expected finite numbers, got {v!r}")


def _point(v, n: Optional[int], what: str) -> np.ndarray:
    """A point ``v`` (theta, lam or y) as a flat float64 array: a float64
    array as it is, not copied, anything else through :func:`_reals`.
    SizeMismatch unless it has ``n`` entries (any number when ``n`` is None),
    NonFiniteEntry if an entry is NaN or Inf."""
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64):
        v = _reals(v, what)
    arr = v.reshape(-1)
    if n is not None and arr.size != n:
        raise SizeMismatch(f"{what} has {arr.size} entries, {n} expected")
    # ndarray.all's own reduction, without its dispatch
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteEntry(f"{what} contains NaN or Inf")
    return arr


def _finite(a) -> np.ndarray:
    """``a`` as a float64 array, or NonFiniteEntry when it holds NaN or Inf.
    Guards the outputs of transform derivative callbacks and of analytic loss
    derivatives, which no sweep has checked."""
    arr = np.asarray(a, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("derivative data contains NaN or Inf")
    return arr


def compose(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Plain composition ``g o f``: contract f's last axis with g's first.

    Result shape: ``f.shape[:-1] + g.shape[1:]``.
    """
    if g.ndim == 0 or f.ndim == 0:
        return np.asarray(g * f)
    if f.shape[-1] != g.shape[0]:
        raise AxisMismatch(
            f"compose: f last axis {f.shape[-1]} != g first axis {g.shape[0]}"
        )
    # np.tensordot's own reshape-and-dot, without its axis bookkeeping
    size = g.shape[0]
    out = np.dot(f.reshape(math.prod(f.shape[:-1]), size),
                 g.reshape(size, math.prod(g.shape[1:])))
    return out.reshape(f.shape[:-1] + g.shape[1:])


def compose_k(g: np.ndarray, f: np.ndarray, k: int) -> np.ndarray:
    """Composition into slot ``k`` of ``g`` (1-based); ``k = 1`` is ``compose``.

    Contracts f's last axis against g's axis ``k`` and splices f's leading
    axes into position ``k``.  ``g (a,b,c)``, ``f (d,b)``, ``k=2`` -> ``(a,d,c)``.
    """
    if g.ndim == 0 or f.ndim == 0:
        return np.asarray(g * f)
    if not 1 <= k <= g.ndim:
        raise IndexOutOfRange(f"slot k={k} outside 1..{g.ndim}")
    axis = k - 1
    if f.shape[-1] != g.shape[axis]:
        raise AxisMismatch(
            f"compose_k: f last axis {f.shape[-1]} != g axis {k} length {g.shape[axis]}"
        )
    # np.tensordot's own reshape-and-dot leaves g's remaining axes first,
    # then f's leading axes; the transpose moves those back into slot `axis`
    n_lead, g_rest, size = f.ndim - 1, g.ndim - 1, g.shape[axis]
    rest = g.shape[:axis] + g.shape[k:]
    ga = g.transpose(tuple(range(axis)) + tuple(range(k, g.ndim)) + (axis,))
    fb = f.transpose((n_lead,) + tuple(range(n_lead)))
    out = np.dot(ga.reshape(math.prod(rest), size), fb.reshape(size, math.prod(f.shape[:-1])))
    out = out.reshape(rest + f.shape[:-1])
    return out.transpose(tuple(range(axis)) + tuple(range(g_rest, g_rest + n_lead))
                         + tuple(range(axis, g_rest)))


def _inverse_rcond(a) -> Tuple[Optional[np.ndarray], float]:
    """The inverse of a square matrix (``np.linalg.inv``, an LU solve) and
    its reciprocal 1-norm condition estimate ``1 / (||a||_1 ||inv||_1)``, an
    estimate of 0.0 when the norm product vanishes or is not finite.  The
    inverse is None when the factorization breaks down or the estimate falls
    below ``RCOND_THRESHOLD``: this is the toolbox's one good-inverse rule."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AxisMismatch(f"square matrix required, got shape {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, 0.0
    norm_a, norm_inv = (float(np.abs(m).sum(axis=0).max(initial=0.0)) for m in (a, inv))
    denom = norm_a * norm_inv
    rcond = 1.0 / denom if 0.0 < denom < np.inf else 0.0
    return (inv if rcond >= RCOND_THRESHOLD else None), rcond


def invert_square(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix (stored-layout inverse).

    ``compose(a, invert_square(a))`` is the identity within 1e-10 * n.
    Raises :class:`Singular` when the factorization breaks down or the
    reciprocal condition estimate falls below ``RCOND_THRESHOLD`` (1e-12).
    """
    inv, rcond = _inverse_rcond(a)
    if inv is None:
        raise Singular(f"reciprocal condition estimate {rcond:.3e} below {RCOND_THRESHOLD:g}")
    return inv
