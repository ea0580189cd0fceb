"""Dense complex matrix substrate: singular values, trace norm, operator norm.

Matrices are plain 2-D complex numpy arrays in row-major (C) order; every
public entry point validates shape and finiteness via :func:`as_cmatrix`.
Singular values are computed with LAPACK through numpy.  ``DEFAULT_TOL`` is
the absolute accuracy per row assumed of a dense SVD; the certified budgets
take their SVD term from the one allowance ``symbols._svd_allowance``, built
on it.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonFinite

DEFAULT_TOL = 1e-12


def as_cmatrix(entries) -> np.ndarray:
    """Validate and return a dense complex matrix (rows, cols >= 1, finite)."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or infinite entries")
    return m


def singular_values(m) -> np.ndarray:
    """Singular values of ``m``, descending."""
    m = as_cmatrix(m)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    return np.maximum(s, 0.0)


def trace_norm(m) -> float:
    """Sum of singular values; the error it may carry is ``symbols._svd_allowance``."""
    return float(np.sum(singular_values(m)))


def operator_norm(m) -> float:
    """Largest singular value of ``m``."""
    return float(singular_values(m)[0])
