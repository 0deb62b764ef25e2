"""Hand-rolled symmetric eigensolvers, cross-checked against numpy (numpy is
allowed here as a test oracle only — the solvers themselves are dependency-free)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equichk.spectral as spectral
from equichk.errors import AxisMismatch, CheckFailure, InvalidParams
from equichk.spectral import jacobi_eigh, power_eigs, spectral_summary


def test_two_by_two_frozen():
    # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2)
    vals, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), np.sqrt(0.5), atol=1e-14)
    np.testing.assert_allclose(np.abs(vecs[:, 1]), np.sqrt(0.5), atol=1e-14)


def test_diagonal_passthrough():
    vals, vecs = jacobi_eigh(np.diag([5.0, -1.0, 2.0]))
    np.testing.assert_allclose(vals, [5.0, 2.0, -1.0], atol=0.0)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]], atol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
def test_jacobi_against_numpy(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    A = 0.5 * (m + m.T)
    vals, vecs = jacobi_eigh(A)
    scale = max(float(np.linalg.norm(A)), 1.0)
    # descending order
    assert np.all(np.diff(vals) <= 1e-12 * scale)
    # against numpy's LAPACK path (ascending)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(A)[::-1],
                               atol=1e-10 * scale)
    # reconstruction and orthonormality
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, A, atol=1e-10 * scale)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


def test_power_eigs_agrees_with_jacobi():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((6, 6))
    A = 0.5 * (m + m.T)
    vals, _ = jacobi_eigh(A)
    top3 = power_eigs(A, k=3)
    np.testing.assert_allclose(top3, vals[:3], atol=1e-9)


def test_power_eigs_resolves_close_top_pair():
    # after the shift the top two eigenvalues differ by 0.03%, which plain
    # power iteration cannot resolve in its step budget
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = q @ np.diag([0.5, 0.4985, 0.2, -0.6, -1.2]) @ q.T
    A = 0.5 * (A + A.T)
    assert abs(power_eigs(A)[0] - 0.5) <= 1e-13
    assert spectral_summary(A).power_gap <= 1e-13


def test_power_eigs_negative_dominant():
    # shift handling: the algebraically largest eigenvalue, not |.|-largest
    A = np.diag([-10.0, 1.0, 2.0])
    np.testing.assert_allclose(power_eigs(A, k=1), [2.0], atol=1e-10)


def test_spectral_summary_diagnostics():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    A = 0.5 * (m + m.T)
    s = spectral_summary(A)
    assert s.recon_error < 1e-12
    assert s.orthon_error < 1e-12
    assert s.power_gap < 1e-8
    assert s.lambda_max == s.eigenvalues[0]
    lam, v = s.eigenvalues[0], s.eigenvectors[:, 0]
    np.testing.assert_allclose(A @ v, lam * v, atol=1e-10)


def test_power_cross_check_disagreement_raises(monkeypatch):
    A = np.diag([3.0, 1.0, -2.0])
    monkeypatch.setattr(spectral, "power_eigs", lambda a, k=1: np.array([3.0 + 1.0]))
    with pytest.raises(CheckFailure, match="power iteration disagrees"):
        spectral_summary(A)


def test_null_count():
    s = spectral_summary(np.diag([1.0, 1e-12, 0.0, -1e-12, -2.0]))
    assert s.null_count(1e-10) == 3
    assert s.null_count(1e-14) == 1


def test_rejects_nonsymmetric():
    with pytest.raises(InvalidParams):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_nonsquare():
    with pytest.raises(AxisMismatch):
        jacobi_eigh(np.ones((2, 3)))


def test_one_by_one():
    vals, vecs = jacobi_eigh(np.array([[7.5]]))
    assert vals[0] == 7.5 and vecs[0, 0] == 1.0


def _per_rotation_jacobi(a):
    """Cyclic Jacobi that rotates A's and V's columns one at a time: the
    arithmetic ``jacobi_eigh`` must reproduce bit for bit."""
    A = spectral._as_symmetric(a).copy()
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V
    frob = max(float(np.linalg.norm(A)), 1e-300)
    eps = np.finfo(float).eps
    prev_off = np.inf
    for _ in range(spectral._MAX_SWEEPS):
        off = float(np.linalg.norm(A - np.diag(A.diagonal())))
        if off <= 100.0 * eps * frob or off >= prev_off:
            assert off <= np.sqrt(eps) * frob
            break
        prev_off = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= eps * (abs(A[p, p]) + abs(A[q, q])):
                    A[p, q] = A[q, p] = 0.0
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(tau, 1.0)) if tau != 0.0 else 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                new_p, new_q = c * col_p - s * col_q, s * col_p + c * col_q
                A[:, p] = new_p
                A[p, :] = new_p
                A[:, q] = new_q
                A[q, :] = new_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    vals = A.diagonal().copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], V[:, order]


def _jacobi_cases():
    # random, diagonal, zero, all-ones and repeated-eigenvalue matrices; the
    # suite's Hessians are 2x2 to 23x23
    rng = np.random.default_rng(23)
    for n in list(range(1, 11)) + [16, 23, 40, 60]:
        m = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield f"random{n}", 0.5 * (m + m.T)
        yield f"diagonal{n}", np.diag(rng.standard_normal(n))
        yield f"zero{n}", np.zeros((n, n))
        yield f"ones{n}", np.ones((n, n))
        yield f"repeated{n}", q @ np.diag(np.repeat([1.0, -2.0, 3.0], n)[:n]) @ q.T


@pytest.mark.parametrize("a", [a for _, a in _jacobi_cases()], ids=[k for k, _ in _jacobi_cases()])
def test_jacobi_reproduces_the_per_rotation_arithmetic(a):
    # same eigenvalues, eigenvectors and memory layout: the eigenvectors feed
    # BLAS products downstream, whose rounding follows the layout
    for got, want in zip(jacobi_eigh(a), _per_rotation_jacobi(a)):
        np.testing.assert_array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
