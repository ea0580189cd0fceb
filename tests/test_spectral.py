"""Singular values, trace norm, operator norm: examples, oracle, invariants."""

import numpy as np
import pytest

from treeschur.errors import NonFinite
from treeschur.spectral import as_cmatrix, operator_norm, singular_values, trace_norm


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def charpoly_eigenvalues(g):
    """Independent oracle: eigenvalues of a small Hermitian matrix via the
    characteristic polynomial (Faddeev-LeVerrier coefficients, then roots)."""
    n = g.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(g)
    for k in range(1, n + 1):
        m = g @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(g @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_identity_singular_values():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0], atol=1e-14)


def test_rank_one_outer_product():
    # ||xi (x) eta||_1 = ||xi||_2 ||eta||_2 with norms 2 and 3
    xi = np.array([2.0, 0.0])
    eta = np.array([0.0, 3.0])
    m = np.outer(xi, eta.conj())
    assert np.allclose(singular_values(m), [6.0, 0.0], atol=1e-12)


def test_random_4x4_against_charpoly_oracle():
    rng = np.random.default_rng(7)
    m = random_complex(rng, 4, 4)
    gram = m.conj().T @ m
    expected = np.sqrt(np.maximum(charpoly_eigenvalues(gram), 0.0))
    got = singular_values(m)
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_trace_norm_identity_and_diagonal():
    assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)
    assert trace_norm(np.diag([1.0, -2.0, 3.0j])) == pytest.approx(6.0, abs=1e-12)


def test_trace_norm_geometric_hankel_truncation():
    # h[i,j] = 2^-(i+j) - 2^-(i+j+2) is rank one with trace norm -> 1
    n = 30
    vals = 2.0 ** -np.arange(2 * n + 1)
    idx = np.add.outer(np.arange(n), np.arange(n))
    h = vals[idx] - vals[idx + 2]
    assert trace_norm(h) == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-13)
    xi = np.array([2.0, 0.0])
    eta = np.array([0.0, 3.0])
    assert operator_norm(np.outer(xi, eta.conj())) == pytest.approx(6.0, abs=1e-12)
    # all-ones 3x3 = 3 * (uniform rank-one projector)
    assert operator_norm(np.ones((3, 3))) == pytest.approx(3.0, abs=1e-12)


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        trace_norm(np.array([[np.inf]]))


def test_shape_validation():
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_cmatrix(np.zeros(4))


def test_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = random_complex(rng, 6, 6)
        u, _ = np.linalg.qr(random_complex(rng, 6, 6))
        v, _ = np.linalg.qr(random_complex(rng, 6, 6))
        assert abs(trace_norm(u @ m @ v) - trace_norm(m)) <= 1e-9


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = random_complex(rng, 5, 7)
        b = random_complex(rng, 5, 7)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


def test_duality_sanity():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        assert abs(np.trace(a @ b)) <= operator_norm(a) * trace_norm(b) + 1e-9


def test_adjoint_has_same_singular_values():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m = random_complex(rng, 5, 8)
        s1 = singular_values(m)
        s2 = singular_values(m.conj().T)
        assert np.max(np.abs(s1 - s2)) <= 1e-10
