"""Symmetric eigensolver built from scratch.

The spectral statements checked downstream (top curvature eigenpair
alignment, sharpness lower bounds, stationary null counts) deserve an
oracle that is independent of any library eigensolver, so this module
implements a cyclic-by-rows Jacobi iteration plus a shifted power-method
cross-check.  Both are deterministic: same matrix in, same bits out.

Jacobi is slow but essentially exact for the small dense matrices that
appear here (d up to a few hundred), with quadratic convergence once the
off-diagonal mass is small.  Its cost is Python overhead per rotation, so
each rotation is one column-pair update of the stacked matrix and
eigenvectors ``[A; V]``, with its pivot scalars as Python floats; the
cyclic order stays, since a round-robin (parallel) order measured slower at
the catalog's sizes (n = 2 to 23).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AxisMismatch, CheckFailure, InvalidParams, NotConverged
from .tensor_core import _is_integer

__all__ = ["jacobi_eigh", "power_eigs", "SpectralSummary", "spectral_summary"]

_SYM_TOL = 1e-8
# relative gap between the Jacobi and power-iteration lambda_max that counts
# as a broken eigensolver; on the catalog suites healthy spectra stay below
# 1e-14
_POWER_GAP_TOL = 1e-8
#: jacobi_eigh's sweep limit; power_eigs' relative stopping tolerance and
#: squaring limit per eigenpair
_MAX_SWEEPS = 60
_POWER_TOL = 1e-13
_POWER_ITERS = 5000


def _as_symmetric(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise AxisMismatch(f"expected a square matrix, got shape {arr.shape}")
    scale = max(float(np.max(np.abs(arr))), 1.0)
    if float(np.max(np.abs(arr - arr.T))) > _SYM_TOL * scale:
        raise InvalidParams("matrix is not symmetric")
    return 0.5 * (arr + arr.T)


def jacobi_eigh(a):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, vectors)`` with eigenvalues sorted descending
    and ``vectors[:, k]`` the unit eigenvector for ``eigenvalues[k]``.

    ``A`` and the accumulated rotations ``V`` are stacked as ``W = [A; V]``,
    so one rotation is one column-pair update of ``W`` followed by the two
    mirrored rows of ``A`` and the closed-form 2x2 block.
    """
    A = _as_symmetric(a)
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy(), np.eye(1)

    W = np.concatenate([A, np.eye(n)])
    A, item = W[:n], W.item
    cols, rows = [W[:, j] for j in range(n)], [W[j] for j in range(n)]
    frob = max(float(np.linalg.norm(A)), 1e-300)
    eps = float(np.finfo(float).eps)
    prev_off = np.inf
    for _ in range(_MAX_SWEEPS):
        off = float(np.linalg.norm(A - np.diag(A.diagonal())))
        if off <= 100.0 * eps * frob or off >= prev_off:
            # converged, or stalled at the rounding floor of the updates
            if off > np.sqrt(eps) * frob:
                raise NotConverged(f"Jacobi stalled with off-diagonal mass {off:.3e}")
            break
        prev_off = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = item(p, q), item(p, p), item(q, q)
                if abs(apq) <= eps * (abs(app) + abs(aqq)):
                    W[p, q] = W[q, p] = 0.0
                    continue
                # classic stable rotation angle
                tau = (aqq - app) / (2.0 * apq)
                t = (math.copysign(1.0, tau) / (abs(tau) + float(np.hypot(tau, 1.0)))
                     if tau != 0.0 else 1.0)
                c = 1.0 / float(np.hypot(t, 1.0))
                s = t * c
                col_p, col_q = cols[p], cols[q]
                new_p = c * col_p - s * col_q
                col_q *= c
                col_q += s * col_p
                col_p[:] = new_p
                rows[p][:] = col_p[:n]
                rows[q][:] = col_q[:n]
                # the rotated 2x2 block has a closed form; overwrite it
                W[p, p] = app - t * apq
                W[q, q] = aqq + t * apq
                W[p, q] = W[q, p] = 0.0
    else:
        raise NotConverged(f"Jacobi sweep limit {_MAX_SWEEPS} reached")

    vals = A.diagonal().copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], W[n:, order]


def power_eigs(a, k: int = 1):
    """Top-k algebraic eigenvalues via shifted power iteration with deflation.

    The shift by the 1-norm makes every eigenvalue of ``B = A + shift I``
    nonnegative, so the dominant direction is the algebraically largest
    eigenvalue of ``A``.  Step j applies ``B^(2^j)``, kept by squaring a
    normalized power, to one fixed start vector, so top eigenvalues that sit
    close together after the shift cost a few more squarings rather than
    thousands of plain steps; ``_POWER_ITERS`` bounds the squarings.  Used
    as an independent cross-check on Jacobi.
    """
    if not (_is_integer(k) and k >= 1):
        raise InvalidParams(f"k must be a positive integer, got {k!r}")
    A = _as_symmetric(a)
    n = A.shape[0]
    k = min(k, n)
    shift = float(np.max(np.sum(np.abs(A), axis=1))) + 1.0
    B = A + shift * np.eye(n)
    rng = np.random.default_rng(1234)
    out = []
    for _ in range(k):
        start = rng.standard_normal(n)
        power = B
        v = start / np.linalg.norm(start)
        lam = 0.0
        for _ in range(_POWER_ITERS):
            power = power / max(float(np.linalg.norm(power)), 1e-300)
            w = power @ start
            nw = float(np.linalg.norm(w))
            if nw == 0.0:  # deflated to the zero operator
                lam = 0.0
                break
            v = w / nw
            new = float(v @ B @ v)
            if abs(new - lam) <= _POWER_TOL * max(1.0, abs(new)):
                lam = new
                break
            lam = new
            power = power @ power
        out.append(lam - shift)
        B = B - (lam * np.outer(v, v))
    return np.asarray(out)


@dataclass(frozen=True)
class SpectralSummary:
    """Full spectrum of a symmetric matrix with built-in self-diagnostics."""

    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns, aligned with eigenvalues
    lambda_max: float
    recon_error: float  # ||V diag(w) V^T - A|| / max(||A||, 1)
    orthon_error: float  # max |V^T V - I|
    power_gap: float  # |lambda_max - power-iteration estimate|

    def null_count(self, tol: float) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= tol))


def spectral_summary(a) -> SpectralSummary:
    """Jacobi spectrum of ``a`` with its self-diagnostics.  The power
    iteration re-derives lambda_max independently, and a gap above
    ``1e-8 * max(1, |lambda_max|)`` raises CheckFailure."""
    A = _as_symmetric(a)
    vals, vecs = jacobi_eigh(A)
    recon = float(np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - A))
    recon /= max(float(np.linalg.norm(A)), 1.0)
    orthon = float(np.max(np.abs(vecs.T @ vecs - np.eye(A.shape[0]))))
    lam_pi = float(power_eigs(A, 1)[0])
    gap = abs(float(vals[0]) - lam_pi)
    if gap > _POWER_GAP_TOL * max(1.0, abs(float(vals[0]))):
        raise CheckFailure(
            f"power iteration disagrees with Jacobi on lambda_max "
            f"({lam_pi:.17g} vs {float(vals[0]):.17g}, gap {gap:.3e})"
        )
    return SpectralSummary(
        eigenvalues=vals,
        eigenvectors=vecs,
        lambda_max=float(vals[0]),
        recon_error=recon,
        orthon_error=orthon,
        power_gap=gap,
    )
