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

Matrix inversion is done in-house with partial-pivot Gaussian elimination --
the sizes in play (a few hundred at most) need neither pivot refinement nor
an external solver.  A reciprocal-condition estimate gates the result.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import AxisMismatch, IndexOutOfRange, NonFiniteEntry, Singular

__all__ = [
    "compose",
    "compose_k",
    "invert_square",
]

# Reciprocal-condition threshold below which a square matrix is treated as
# singular everywhere in the toolbox.
RCOND_THRESHOLD = 1e-12


def _finite(a) -> np.ndarray:
    """``a`` as a float64 array, or NonFiniteEntry when it holds NaN or Inf.
    Guards the outputs of transform derivative callbacks and of analytic loss
    derivatives, which no sweep has checked."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
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
    return np.tensordot(f, g, axes=([f.ndim - 1], [0]))


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
    out = np.tensordot(g, f, axes=([axis], [f.ndim - 1]))
    # tensordot leaves g's remaining axes first, then f's leading axes.
    # Move the f-leading block back into slot position `axis`.
    n_lead = f.ndim - 1
    g_rest = g.ndim - 1
    if n_lead:
        src = list(range(g_rest, g_rest + n_lead))
        dst = list(range(axis, axis + n_lead))
        out = np.moveaxis(out, src, dst)
    return out


def _one_norm(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=0))) if a.size else 0.0


def _gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Gauss--Jordan elimination with partial (row) pivoting.

    Raises :class:`Singular` on an exactly-zero pivot column.
    """
    n = a.shape[0]
    aug = np.concatenate([a.astype(float, copy=True), np.eye(n)], axis=1)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if pivot == 0.0 or not np.isfinite(pivot):
            raise Singular(f"zero pivot in column {col}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        others = np.arange(n) != col
        aug[others] -= np.outer(aug[others, col], aug[col])
    return aug[:, n:]


def _rcond(a: np.ndarray, inv: np.ndarray) -> float:
    """1 / (||a||_1 ||inv||_1) for an inverse already computed; 0.0 when the
    product vanishes or is not finite."""
    denom = _one_norm(a) * _one_norm(inv)
    if denom == 0.0 or not np.isfinite(denom):
        return 0.0
    return 1.0 / denom


def _inverse_rcond(a) -> Tuple[Optional[np.ndarray], float]:
    """The inverse of a square matrix and its reciprocal 1-norm condition
    estimate, from one elimination; ``(None, 0.0)`` when elimination breaks
    down.  The inverse is what :func:`invert_square` returns whenever the
    estimate clears ``RCOND_THRESHOLD``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AxisMismatch(f"square matrix required, got shape {a.shape}")
    try:
        inv = _gauss_jordan_inverse(a)
    except Singular:
        return None, 0.0
    return inv, _rcond(a, inv)


def invert_square(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix (stored-layout inverse).

    ``compose(a, invert_square(a))`` is the identity within 1e-10 * n.
    Raises :class:`Singular` when elimination breaks down or the reciprocal
    condition estimate falls below ``1e-12``.
    """
    inv, rcond = _inverse_rcond(a)
    if rcond < RCOND_THRESHOLD:
        raise Singular(f"reciprocal condition estimate {rcond:.3e} below 1e-12")
    return inv
