"""Dense real tensors with curried composition semantics.

A tensor of shape ``(s1, ..., sk)`` is a ``k``-linear array of float64
entries, stored row-major.  The algebra revolves around two contractions:

* ``compose(g, f)`` -- plain composition ``g o f``.  It contracts the *last*
  axis of ``f`` against the *first* axis of ``g``::

      (g o f)[t..., s...] = sum_b f[t..., b] * g[b, s...]

* ``compose_k(g, f, k)`` -- composition into the ``k``-th slot of ``g`` (with
  ``k = 1`` recovering plain composition).  It contracts the last axis of
  ``f`` against axis ``k`` of ``g`` and splices the leading axes of ``f``
  into that position, e.g. ``g`` of shape ``(a, b, c)`` with ``f`` of shape
  ``(d, b)`` composed at ``k = 2`` yields shape ``(a, d, c)``.

Storage convention: when a matrix-like tensor represents a linear map, the
stored array is indexed ``[input, output]``; the *first* axis is the one that
plain composition contracts when the tensor sits on the left.  With this
layout a map's action on a vector ``x`` is ``compose(A, x)`` and
``compose(compose(A, x), y)`` evaluates the bilinear form ``<y, A x>``.

Scalars are rank-0 tensors and composing a scalar with anything (in either
slot) is scalar multiplication; this lets one-dimensional losses flow through
the same code paths as vector-valued ones.

Matrix inversion is done in-house with partial-pivot Gaussian elimination --
the sizes in play (a few hundred at most) need neither pivot refinement nor
an external solver.  A reciprocal-condition estimate gates the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    AxisMismatch,
    IndexOutOfRange,
    InvalidParams,
    LengthMismatch,
    NonFiniteEntry,
    Singular,
)

__all__ = [
    "Shape",
    "Tensor",
    "make_tensor",
    "from_array",
    "zeros",
    "identity",
    "compose",
    "compose_k",
    "invert_square",
]

#: A tensor shape is an ordered tuple of axis lengths, each >= 1.  Shape
#: concatenation (tuple +) is the monoid used by the composition rules.
Shape = tuple

# Reciprocal-condition threshold below which a square matrix is treated as
# singular everywhere in the toolbox.
RCOND_THRESHOLD = 1e-12


def _validate_shape(axes: Iterable[int]) -> tuple:
    shape = tuple(int(a) for a in axes)
    for a in shape:
        if a < 1:
            raise InvalidParams(f"axis lengths must be >= 1, got {shape}")
    return shape


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor.  Use :func:`make_tensor` / :func:`from_array`."""

    array: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple:
        return self.array.shape

    @property
    def rank(self) -> int:
        return self.array.ndim

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    def item(self) -> float:
        if self.array.size != 1:
            raise LengthMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.array.reshape(-1)[0])

    def norm(self) -> float:
        """Frobenius norm (2-norm of the flattened entries)."""
        return float(np.linalg.norm(self.array.reshape(-1)))

    # Elementwise vector-space operations, used when assembling identities.
    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.array + other.array)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same_shape(other)
        return Tensor(self.array - other.array)

    def __neg__(self) -> "Tensor":
        return Tensor(-self.array)

    def __mul__(self, scalar: float) -> "Tensor":
        return Tensor(self.array * float(scalar))

    __rmul__ = __mul__

    def _check_same_shape(self, other: "Tensor") -> None:
        if self.shape != other.shape:
            raise AxisMismatch(
                f"elementwise op needs equal shapes, got {self.shape} vs {other.shape}"
            )

    def __repr__(self) -> str:  # keep reprs short in test failures
        return f"Tensor(shape={self.shape})"


def make_tensor(shape: Sequence[int], data: Sequence[float]) -> Tensor:
    """Build a tensor from an axis list and a flat row-major data buffer."""
    shp = _validate_shape(shape)
    buf = np.asarray(list(data), dtype=float).reshape(-1)
    expected = int(np.prod(shp)) if shp else 1
    if buf.size != expected:
        raise LengthMismatch(
            f"shape {shp} needs {expected} entries, got {buf.size}"
        )
    if not np.all(np.isfinite(buf)):
        raise NonFiniteEntry("tensor data contains NaN or Inf")
    arr = buf.reshape(shp)
    arr.flags.writeable = False
    return Tensor(arr)


def from_array(array: Union[np.ndarray, float, Sequence]) -> Tensor:
    """Wrap an ndarray (or nested sequence) as a tensor, validating finiteness."""
    arr = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry("tensor data contains NaN or Inf")
    arr = arr.copy()
    arr.flags.writeable = False
    return Tensor(arr)


def zeros(shape: Sequence[int]) -> Tensor:
    return from_array(np.zeros(_validate_shape(shape)))


def identity(n: int) -> Tensor:
    """Identity map on R^n; neutral for composition on either side."""
    if n < 1:
        raise InvalidParams(f"identity needs n >= 1, got {n}")
    return from_array(np.eye(int(n)))


def _scalar_combine(g: Tensor, f: Tensor) -> Tensor:
    # scalar o anything (either slot) is scalar multiplication
    return Tensor(g.array * f.array)


def compose(g: Tensor, f: Tensor) -> Tensor:
    """Plain composition ``g o f``: contract f's last axis with g's first.

    Result shape: ``f.shape[:-1] + g.shape[1:]``.
    """
    if g.rank == 0 or f.rank == 0:
        return _scalar_combine(g, f)
    if f.shape[-1] != g.shape[0]:
        raise AxisMismatch(
            f"compose: f last axis {f.shape[-1]} != g first axis {g.shape[0]}"
        )
    out = np.tensordot(f.array, g.array, axes=([f.rank - 1], [0]))
    return Tensor(out)


def compose_k(g: Tensor, f: Tensor, k: int) -> Tensor:
    """Composition into slot ``k`` of ``g`` (1-based); ``k = 1`` is ``compose``.

    Contracts f's last axis against g's axis ``k`` and splices f's leading
    axes into position ``k``.  ``g (a,b,c)``, ``f (d,b)``, ``k=2`` -> ``(a,d,c)``.
    """
    if g.rank == 0 or f.rank == 0:
        return _scalar_combine(g, f)
    if not 1 <= k <= g.rank:
        raise IndexOutOfRange(f"slot k={k} outside 1..{g.rank}")
    axis = k - 1
    if f.shape[-1] != g.shape[axis]:
        raise AxisMismatch(
            f"compose_k: f last axis {f.shape[-1]} != g axis {k} length {g.shape[axis]}"
        )
    out = np.tensordot(g.array, f.array, axes=([axis], [f.rank - 1]))
    # tensordot leaves g's remaining axes first, then f's leading axes.
    # Move the f-leading block back into slot position `axis`.
    n_lead = f.rank - 1
    g_rest = g.rank - 1
    if n_lead:
        src = list(range(g_rest, g_rest + n_lead))
        dst = list(range(axis, axis + n_lead))
        out = np.moveaxis(out, src, dst)
    return Tensor(out)


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


def invert_square(a: Tensor) -> Tensor:
    """Invert a square rank-2 tensor (stored-layout inverse).

    ``compose(a, invert_square(a))`` is the identity within 1e-10 * n.
    Raises :class:`Singular` when the reciprocal condition estimate falls
    below ``1e-12``.
    """
    if a.rank != 2 or a.shape[0] != a.shape[1]:
        raise AxisMismatch(f"invert_square needs a square matrix, got {a.shape}")
    inv = _gauss_jordan_inverse(a.array)
    if not np.all(np.isfinite(inv)):
        raise Singular("non-finite entries in computed inverse")
    rcond = _rcond(a.array, inv)
    if rcond < RCOND_THRESHOLD:
        raise Singular(f"reciprocal condition estimate {rcond:.3e} below 1e-12")
    return Tensor(inv)
