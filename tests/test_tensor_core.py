"""Composition semantics and the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichk.errors import AxisMismatch, InvalidParams, NonFiniteEntry, Singular, SizeMismatch
from equichk.tensor_core import _point, compose, compose_k, invert_square

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# compose: contract f's last axis against g's first
# ---------------------------------------------------------------------------

def test_compose_matrix_case_is_matrix_product():
    f = RNG.standard_normal((2, 3))
    g = RNG.standard_normal((3, 4))
    out = compose(g, f)
    assert out.shape == (2, 4)
    np.testing.assert_allclose(out, f @ g, rtol=0, atol=1e-14)


def test_compose_higher_rank_oracle():
    f = RNG.standard_normal((2, 3, 4))
    g = RNG.standard_normal((4, 5, 6))
    out = compose(g, f)
    assert out.shape == (2, 3, 5, 6)
    oracle = np.einsum("abk,kcd->abcd", f, g)
    np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-13)


def test_compose_vector_contraction():
    # (d,) composed into (d, c): a plain mat-vec through the stored layout
    v = np.array([1.0, -2.0, 0.5])
    g = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 4.0]])
    out = compose(g, v)
    np.testing.assert_allclose(out, np.array([-3.0, 0.0]), atol=1e-15)


def test_compose_axis_mismatch():
    f = np.ones((2, 3))
    g = np.ones((4, 2))
    with pytest.raises(AxisMismatch):
        compose(g, f)


def test_compose_k_one_is_compose():
    f = RNG.standard_normal((3, 2))
    g = RNG.standard_normal((2, 5))
    a = compose_k(g, f, 1)
    b = compose(g, f)
    np.testing.assert_array_equal(a, b)


def test_compose_k_second_slot_oracle():
    # g has axes (i, j, out); feeding f into slot 2 contracts f's last axis
    # with j and splices f's leading axes there
    f = RNG.standard_normal((4, 3))
    g = RNG.standard_normal((2, 3, 5))
    out = compose_k(g, f, 2)
    assert out.shape == (2, 4, 5)
    oracle = np.einsum("ak,ikc->iac", f, g)
    np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-13)


def test_compose_k_out_of_range():
    f = np.ones((2, 2))
    g = np.ones((2, 2))
    from equichk.errors import IndexOutOfRange
    with pytest.raises(IndexOutOfRange):
        compose_k(g, f, 3)


def _layouts(rng, shape):
    """A random array of ``shape`` in C order, Fortran order or with its
    first and last axes' strides swapped."""
    a = rng.standard_normal(shape)
    kind = rng.integers(3)
    if kind == 1:
        return np.asfortranarray(a)
    if kind == 2 and a.ndim >= 2:
        return a.swapaxes(0, -1).copy().swapaxes(0, -1)
    return a


def test_compose_is_tensordot_bit_for_bit():
    # the reshape-and-dot inside np.tensordot, without its bookkeeping: the
    # same bits and the same strides, whatever the operands' layout
    rng = np.random.default_rng(23)
    for i in range(600):
        g_shape = tuple(int(n) for n in rng.integers(0 if i % 40 == 0 else 1, 6, rng.integers(1, 4)))
        slot = int(rng.integers(1, len(g_shape) + 1))
        f_shape = tuple(int(n) for n in rng.integers(1, 6, rng.integers(0, 3))) + (g_shape[slot - 1],)
        g, f = _layouts(rng, g_shape), _layouts(rng, f_shape)
        axis, n_lead = slot - 1, f.ndim - 1
        want_k = np.moveaxis(np.tensordot(g, f, axes=([axis], [n_lead])),
                             list(range(g.ndim - 1, g.ndim - 1 + n_lead)),
                             list(range(axis, axis + n_lead)))
        pairs = [(compose_k(g, f, slot), want_k)]
        if slot == 1:
            pairs.append((compose(g, f), np.tensordot(f, g, axes=([n_lead], [0]))))
        for got, want in pairs:
            assert got.shape == want.shape and got.strides == want.strides, (g_shape, f_shape, slot)
            np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_compose_associative_on_chains(a, b, c, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((a, b))
    g = rng.standard_normal((b, c))
    h = rng.standard_normal((c, a))
    left = compose(h, compose(g, f))
    right = compose(compose(h, g), f)
    np.testing.assert_allclose(left, right, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_identity_is_neutral(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    np.testing.assert_allclose(compose(np.eye(n), f), f, atol=1e-15)
    np.testing.assert_allclose(compose(f, np.eye(n)), f, atol=1e-15)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_square_matches_numpy():
    a = RNG.standard_normal((4, 4)) + 4.0 * np.eye(4)
    inv = invert_square(a)
    np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-11)


def test_invert_square_identity_roundtrip():
    a = RNG.standard_normal((5, 5)) + 5.0 * np.eye(5)
    prod = compose(invert_square(a), a)
    np.testing.assert_allclose(prod, np.eye(5), atol=1e-11)


def test_invert_singular_raises():
    a = np.ones((3, 3))
    with pytest.raises(Singular):
        invert_square(a)


def test_invert_near_singular_raises():
    a = np.diag([1.0, 1.0, 1e-15])
    with pytest.raises(Singular):
        invert_square(a)


# ---------------------------------------------------------------------------
# _point: the one reader of theta, lam and y
# ---------------------------------------------------------------------------

def test_point_takes_a_float_array_as_it_is_and_flattens_it():
    v = np.arange(6.0).reshape(2, 3)
    out = _point(v, 6, "theta")
    assert out.shape == (6,) and np.shares_memory(out, v)
    np.testing.assert_array_equal(_point([[1, 2], [3, 4]], None, "theta"), [1.0, 2.0, 3.0, 4.0])
    assert _point(np.int64(3), 1, "lambda").dtype == np.float64


@pytest.mark.parametrize("v, n, error", [
    (np.zeros(3), 2, SizeMismatch),
    ([1.0, 2.0], 3, SizeMismatch),
    (np.array([1.0, np.inf]), None, NonFiniteEntry),
    ([1.0, float("nan")], 2, InvalidParams),   # a non-array goes through the number rule
    (["0.5", True], 2, InvalidParams),
    (np.array([1, 2], dtype=np.float32), 3, SizeMismatch),
    (np.array([[-np.inf, 0.0]]), None, NonFiniteEntry),
    (np.array([0.5, np.nan, 1e200]), 3, NonFiniteEntry),
])
def test_point_refuses_a_wrong_length_or_a_non_finite_entry(v, n, error):
    with pytest.raises(error, match="^y"):
        _point(v, n, "y")


def test_point_accepts_finite_entries_whose_squares_overflow():
    # the fast finiteness test, a sum of squares, overflows here without a
    # warning (which this suite turns into an error); each entry is then
    # checked on its own
    v = np.array([1e200, -1e200])
    assert np.shares_memory(_point(v, 2, "theta"), v)
    np.testing.assert_array_equal(_point([1e308, 1e308], None, "y"), [1e308, 1e308])
