"""Singular values, trace norm and operator norm of complex matrices and of
the structured operators of Hankel windows.

A plain matrix is a 2-D complex numpy array; every public entry point
validates shape and finiteness via :func:`as_cmatrix`.  Singular values are
computed with LAPACK through numpy.  ``DEFAULT_TOL`` is the absolute
accuracy per row assumed of a dense SVD; the certified budgets take their SVD
term from the one allowance ``symbols._svd_allowance``, built on it.

:func:`_factorize` is the one factorization of a window: the trace norm
and the factorization certificates of ``tree.build_certificate`` both read
it.  It reads its matrix A through an :class:`_Operator`: the products A X
and Q* A, the residual A - X in row blocks, and the dense A.  A plain matrix
is wrapped in :class:`_Matrix`, which runs numpy's dense arithmetic; a window
brings its own operator (``symbols._ResolventImage``), whose products run by
FFT and whose row blocks are made from its generating sequence, so the
range finder never forms it.  A matrix with n = min(rows, cols) >= 128 first
goes through a seeded randomized range finder.  It tries the sketch widths
k = 2 (a probe: the windows of spherical functions have numerical rank at
most 2), then 16, 32, ... while 8k <= n; Q is an orthonormal basis of
Y = A Omega for a Gaussian Omega of width k and B = Q* A.  The probe draws
from its own seeded stream, so the wider sketches are those of a finder
without the probe.  Since Q has orthonormal columns, for any B

    | ||A||_1 - ||B||_1 | <= sqrt(n) ||A - Q B||_F,

so the residual covers the rounding of Y and B, however they were computed.
A ~ Q B is returned, with that half-width sqrt(n) ||A - Q B||_F, as soon as
the half-width is at most half of ``DEFAULT_TOL * rows``; the other half
covers the rounding of Q, of the residual and of the small SVD.  The residual
is summed in blocks of 128 rows, so the finder needs O(128 cols + k (rows +
cols)) memory beyond what the operator holds.  A sketch that is not finite
certifies nothing.  Otherwise, and always below 128 rows, the factorization
is A = I A (Q is None, B is the dense A, checked to be finite, half-width 0)
and the SVD of B is the dense SVD, so the allowance holds either way.
:func:`trace_norm` is the sum of the singular values of B; a certificate
takes the singular vectors of B, which is k x cols on the sketch path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, NonFinite

DEFAULT_TOL = 1e-12

_DENSE_BELOW = 128    # n below which the dense SVD runs without a sketch
_PROBE_WIDTH = 2      # the first sketch, tried at every n >= _DENSE_BELOW
_SKETCH_START = 16   # first width of the ladder; a ladder sketch runs while 8 * width <= n
_RESIDUAL_ROWS = 128  # row block of the residual A - QB, which is never formed whole


def as_cmatrix(entries) -> np.ndarray:
    """Validate and return a dense complex matrix (rows, cols >= 1, finite)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not _all_finite(m):
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


def _all_finite(m: np.ndarray) -> bool:
    """No entry of m is inf or NaN.  A sum with an inf or NaN term is never
    finite, so a finite sum clears m in one pass; only a sum that overflowed
    or met one needs the entrywise test."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    return bool(np.isfinite(total)) or bool(np.all(np.isfinite(m)))


def _svdvals(m: np.ndarray) -> np.ndarray:
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    return np.maximum(s, 0.0)


def singular_values(m) -> np.ndarray:
    """Singular values of ``m``, descending."""
    return _svdvals(as_cmatrix(m))


def _sketches(cols: int, n: int):
    """The Gaussian test matrices, cols x k: the probe, then the ladder from its own stream."""
    yield np.random.default_rng(0).standard_normal((cols, _PROBE_WIDTH))
    rng = np.random.default_rng(0)
    k = _SKETCH_START
    while 8 * k <= n:
        yield rng.standard_normal((cols, k))
        k *= 2


class _Operator:
    """A matrix A as :func:`_factorize` reads it: ``shape``, ``matmul(x)`` =
    A x, ``adjoint_matmul(q)`` = Q* A, ``subtract_rows(start, out)``, which
    sets out to A[start : start + len(out)] - out, and ``dense()``, A itself."""


class _Matrix(_Operator):
    """A plain matrix, read with numpy's dense arithmetic."""

    def __init__(self, m: np.ndarray):
        self.m = m
        self.shape = m.shape

    def matmul(self, x):
        return self.m @ x

    def adjoint_matmul(self, q):
        return q.conj().T @ self.m

    def subtract_rows(self, start, out):
        np.subtract(self.m[start : start + len(out)], out, out=out)

    def dense(self):
        return self.m


def _factorize(m) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(Q, B, sqrt(n) ||A - Q B||_F) from the first sketch that certifies its
    residual, or (None, A, 0.0) below 128 and when none does (module docstring).

    ``m`` is an :class:`_Operator` or anything :func:`as_cmatrix` accepts."""
    op = m if isinstance(m, _Operator) else _Matrix(as_cmatrix(m))
    rows, cols = op.shape
    n = min(rows, cols)
    if n < _DENSE_BELOW:
        return None, op.dense(), 0.0
    limit = 0.5 * DEFAULT_TOL * rows / math.sqrt(n)
    buf = np.empty((min(rows, _RESIDUAL_ROWS), cols), dtype=complex)
    for omega in _sketches(cols, n):
        with np.errstate(over="ignore", invalid="ignore"):
            y = op.matmul(omega)
        if not _all_finite(y):
            break
        try:
            q, _ = np.linalg.qr(y)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"range finder did not converge: {exc}") from exc
        b = op.adjoint_matmul(q)
        ss = 0.0
        for i in range(0, rows, _RESIDUAL_ROWS):
            rows_i = q[i : i + _RESIDUAL_ROWS]
            block = np.matmul(rows_i, b, out=buf[: len(rows_i)])
            op.subtract_rows(i, block)
            ss += np.vdot(block, block).real
            if not ss <= limit * limit:
                break
        else:
            return q, b, math.sqrt(n * ss)
    return None, op.dense(), 0.0


def trace_norm(m) -> float:
    """Sum of singular values; the error it may carry is ``symbols._svd_allowance``.

    It is ||B||_1 for A ~ Q B from :func:`_factorize`, so a certified range
    finder answers from 128 rows when the matrix is numerically of low rank and
    the dense SVD otherwise.  The result is deterministic: the sketch is seeded.
    """
    return float(np.sum(_svdvals(_factorize(m)[1])))


def operator_norm(m) -> float:
    """Largest singular value of ``m``."""
    return float(singular_values(m)[0])
