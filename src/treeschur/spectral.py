"""Dense complex matrix substrate: singular values, trace norm, operator norm.

Matrices are plain 2-D complex numpy arrays in row-major (C) order; every
public entry point validates shape and finiteness via :func:`as_cmatrix`.
Singular values are computed with LAPACK through numpy; the returned spectrum
carries the decomposition residual.  ``DEFAULT_TOL`` is the absolute accuracy
per row assumed of a dense SVD; the certified budgets take their SVD term
from the one allowance ``symbols._svd_allowance``, built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values plus the decomposition residual."""

    values: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def singular_values(m, compute_residual: bool = True) -> SingularSpectrum:
    """Singular values of ``m``, descending, accurate to roughly ``DEFAULT_TOL`` (absolute).

    With ``compute_residual`` the residual is max_i ||M v_i - s_i u_i||_2; without
    it an a-priori backward-error bound is reported instead (cheaper, used by the
    norm helpers on large truncations).
    """
    m = as_cmatrix(m)
    n = min(m.shape)
    try:
        if compute_residual:
            u, s, vh = np.linalg.svd(m, full_matrices=False)
            # columns of m @ vh^H should equal s_i * u_i
            resid_cols = m @ vh.conj().T - u * s[np.newaxis, :]
            residual = float(np.max(np.linalg.norm(resid_cols, axis=0))) if n else 0.0
        else:
            s = np.linalg.svd(m, compute_uv=False)
            residual = float(np.finfo(float).eps * (s[0] if s.size else 0.0) * max(m.shape))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    s = np.maximum(s, 0.0)
    scale = max(1.0, float(s[0]) if s.size else 0.0)
    if compute_residual and residual > 64.0 * max(DEFAULT_TOL, np.finfo(float).eps * scale) * scale * math.sqrt(n):
        raise NoConvergence(f"SVD residual {residual:.3e} above tolerance at n={n}")
    return SingularSpectrum(values=s, residual=residual)


def trace_norm(m) -> float:
    """Sum of singular values; the error it may carry is ``symbols._svd_allowance``."""
    spec = singular_values(m, compute_residual=False)
    return float(np.sum(spec.values))


def operator_norm(m) -> float:
    """Largest singular value of ``m``."""
    spec = singular_values(m, compute_residual=False)
    return float(spec.values[0])
