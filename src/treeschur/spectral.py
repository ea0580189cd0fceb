"""Singular values and trace norm of complex matrices and of the structured
operators of Hankel windows, and a rounding-aware lower bound on the trace
norm of a plain matrix (:func:`_trace_norm_below`).

A plain matrix is a 2-D complex numpy array; every public entry point
validates shape and finiteness via :func:`as_cmatrix`, and a plain matrix
takes the dense SVD.  Singular values are computed with LAPACK through
numpy, by :func:`_svd` for every caller (the certificates of
``tree.build_certificate`` too), which raises a LAPACK failure as
``NoConvergence``.  ``DEFAULT_TOL`` is the absolute accuracy per row
assumed of a dense SVD; the certified budgets and the range finder take
their SVD term from the one allowance :func:`_svd_allowance`, built on it.

:func:`_factorize` is the one factorization of a window: the trace norm
and the factorization certificates of ``tree.build_certificate`` both read
it.  Every window is complex symmetric, and the factorization has one form,
A ~ Q C Q^T with Q orthonormal and a k x k symmetric core C, which is
Q* A conj(Q), the two-sided projection of Halko, Martinsson and Tropp (SIAM
Rev. 2011, section 5), whenever A = Q C Q^T holds.  Since Q has
orthonormal columns, ||Q C Q^T||_1 = ||C||_1.  It reads the window A
through an :class:`_Operator`: its border rows, the product A X (so
Q* A = (A conj(Q))^T), the residual A - X in blocks of rows from a given
column on, and the dense A.  A window brings its own operator
(``symbols._ResolventImage``), whose products run by FFT and whose row
blocks are made from its generating sequence, so the range finder never
forms it; below 128 rows it is read as the :class:`_Matrix` of its dense
form.  The operator of a window A = D A' D, A' real symmetric and D a
diagonal of units (the identity for a real A), reads A': every step below
then runs in real arithmetic, Q' and C real, C = Q'^T A' Q' and the SVD of
C LAPACK's real one, and A ~ (D Q') C (D Q')^T has the trace norm of C.
The factorization returns Q', C and D.

Below 64 rows the dense SVD answers.  From 64 rows the probe runs first
(:func:`_kronecker`), with no random draw and no product with A: Y is A's
first two columns, read exactly as its first two rows (A is symmetric)
through ``subtract_block`` on a zeroed 2 x n block, the reader the pass
uses for border rows; Y = Q R by Householder QR; and C = R Q[:2, :]^-T,
the one C with A[:, :2] = Q C Q[:2, :]^T, so it equals Q* A conj(Q)
whenever A = Q C Q^T.  Two columns suffice for the windows of spherical
functions read at their own degree, and at q = inf, which are two-term
exponential sums w_a a^m + w_b b^m: their Hankel windows have rank at most
2 (Kronecker's theorem; Peller, *Hankel Operators and Their Applications*,
2003, ch. 1), and their first two columns span {a^i, b^i}, because
det [[w_a, w_b], [w_a a, w_b b]] = w_a w_b (b - a) != 0.  A Y or C that is
not finite, or a QR or 2 x 2 solve that raises (a singular leading block,
as where phi vanishes on its first values), fails the probe without a pass;
any other C takes the residual pass below, which bounds the error for any
C.

Only a failed probe draws a sample, and every later basis belongs to one
family, Q = E_lead (+) Q_J (:func:`_basis`): E_lead is the first ``lead``
unit vectors, exactly, and Q_J the Householder basis of a seeded Gaussian
sample Y = A Omega (``default_rng(0)``, n x 2 at first) below its first
``lead`` rows, with C = Q* A conj(Q) from the product A conj(Q).  Below
128 rows the probe and the split read the dense A, which the dense SVD
needs if no basis certifies, and a window with no admissible split goes to
the dense SVD straight after the probe, with no sample.

An A with m border rows (``symbols._ResolventImage``: the rows and columns
below m carry the resolvent's correction, and the rows past m are
numerically of low rank where A is not) takes ``lead`` = m where
m + 2 <= n/2, else 0 as any other A.  A failed probe on it tries the split
basis next, E_m (+) Q_J for the sample's rows Y[m:] below the border.  The
first m columns of C are those of Q* A, read exactly from A's first m rows,
so the m x m corner of the residual A - Q C Q^T is 0, the m x (n - m)
block beside it is read and counted twice, for its mirror, and the rows
from m on are read as for any basis.

From 128 rows a basis that does not certify grows its sample below the same
``lead`` rows (Halko, Martinsson and Tropp, sections 4.3-4.4), so the growth
continues from the split where there is one and from the plain sample
elsewhere.  Each fresh sample Z = A Omega of 8 columns, from the same
seeded stream, estimates the residual of the current Q, since
E ||(I - Q Q*) A omega||^2 = ||A - Q Q* A||_F^2 for a Gaussian column
omega, and (I - Q Q*) A omega is 0 on the ``lead`` rows; Z then joins the
sample.  The last two estimates, extrapolated geometrically, predict the
sample width at which the estimate reaches the limit below, and the sample
grows to that width plus 8 columns at once, up to n/4 columns past the
``lead`` ones; Q_J is the Householder basis of the whole sample below
``lead``, so Q stays orthonormal to working precision.  Only an estimate
under the limit pays the residual pass that certifies.  The dense SVD
answers as soon as the predicted width exceeds n/4, when the sample has no
room for another block of 8 within n/4, or when a sample is not finite.
For any C,

    | ||A||_1 - ||C||_1 | <= sqrt(n) ||A - Q C Q^T||_F,

so the residual covers the rounding of Y and C, however they were computed.
A ~ Q C Q^T is returned, with a half-width that bounds
sqrt(n) ||A - Q C Q^T||_F, when the half-width is at most half of
``_svd_allowance(n)``; the other half covers the rounding of Q, of the
residual and of the small SVD.

The pass of a sampled basis forms C = Q* A conj(Q), and the probe's C is
R Q[:2, :]^-T from its QR; either is made exactly symmetric as
(C + C^T)/2, and every pass forms B = C Q^T for its row blocks.
Q B = Q C Q^T is symmetric, and so is the residual R = A - Q B up to the
rounding of B, so the pass reads only the row blocks
from their diagonal block on: ||R[I, I]||^2 + 2 ||R[I, past I]||^2 for each
block I of rows.  A pass of one block with no border reads all of R.  The
rounding makes the lower part of R differ from the mirror of the upper
part.  With E = fl(C Q^T) - C Q^T, each real and imaginary part of an
entry of C Q^T is a real inner product of length 2k, so
|E| <= sqrt(2) gamma_2k |C| |Q|^T entrywise (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.5); for a
real C and Q an entry is one real inner product of length k, and
gamma_k <= sqrt(2) gamma_2k, so the same term bounds it.  The
lower part of R minus the mirror of its upper part is the lower part of
(Q E)^T - Q E, whose Frobenius norm is at most sqrt(2) ||Q E||_F
<= 2 gamma_2k || |Q| |C|^T ||_F (||Q||_2 = 1 up to the rounding of Q), a
term that also bounds ||Q E||_F, by which the computed R differs from
A - Q C Q^T.  The half-width is sqrt(n) times the square root of the sum
plus that term, and the early exit and the limit read the same sum.  For a
basis with ``lead`` = m > 0, |Q| = I (+) |Q_J|, so || |Q| |C|^T ||_F reads
the first m columns of C and one (n - m) x (k - m) product.

The products Q_I B of the pass run in real arithmetic: with B_x the 2k x
2n real form of B ([Re B, Im B] interleaved as numpy stores them, over
the same for i B), Q_I B is [Re Q_I | Im Q_I] @ B_x, written straight into
the float view of the block (for a real Q, Q_I @ B, one real product), and
the block's squared norm is the dot product of that view with itself.  For
a basis with ``lead`` = m > 0 only Q_J and the rows of B past m enter the
product past the border, and within the border Q_I B is B_I.  A block
holds at most ``_BLOCK_BYTES`` (512 KB, which fits a typical per-core L2
cache, where the 2.6 MB of 128 rows of a 1280-row window do not): 8 to 128
rows, 2^15 // n between them.  So the finder needs 512 KB plus O(k n)
memory beyond what the operator holds.
When no basis certifies, the factorization is A = I A I^T (Q is None, C is
the dense A, checked to be finite, half-width 0) and the SVD of C is the
dense SVD, so the allowance holds either way.  The result, with the path
that made it, is one :class:`_Factorization`: :func:`trace_norm` reads its
||C||_1, and a certificate the window's singular vectors from its ``svd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NonFinite

DEFAULT_TOL = 1e-12


def _svd_allowance(n: int) -> float:
    """Absolute error allowed for the trace norm of an n-row window.  Every
    certified budget reads its SVD term from here.

    It is the accuracy assumed of a dense SVD of the window.  The range
    finder keeps within it too: it certifies only when its residual
    half-width is at most half of it, and that half-width bounds the error of
    ||C||_1 for any C, so it also covers the rounding of the probe's QR and
    solve and of the FFT products that make a sample and its C (module
    docstring)."""
    return DEFAULT_TOL * n


_DENSE_BELOW = 64     # n below which the dense SVD runs without a sketch
_GROW_FROM = 128      # n from which a basis grows past the probe
_PROBE_WIDTH = 2      # the first sample, tried at every n >= _DENSE_BELOW
_BLOCK = 8            # columns of each fresh sample that estimates the residual
_BLOCK_BYTES = 2**19  # bytes of one block of the residual A - QB, which is never formed whole


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


def _svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd`` with a LAPACK failure raised as ``NoConvergence``."""
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc


def _svdvals(m: np.ndarray) -> np.ndarray:
    return np.maximum(_svd(m, compute_uv=False), 0.0)


class _Operator:
    """A window A, square and complex symmetric, as :func:`_factorize` reads
    it: ``shape``, ``dtype``, float64 for a real A and complex128 otherwise,
    ``border_rows``, the m of A whose rows and columns past m
    are numerically of low rank (0 when none are known), ``matmul(x)`` = A x,
    so that Q* A = (A conj(Q))^T, ``subtract_block(row, col, out)``, which
    sets out to A[row : row + len(out), col : col + out.shape[1]] - out, and
    ``dense()``, A itself.  A real A stands for the window D A D when
    ``phase`` is the diagonal of D, a unitary diagonal (None for D = I)."""

    border_rows = 0
    phase = None


class _Matrix(_Operator):
    """A window's dense form, read with numpy's dense arithmetic."""

    def __init__(self, m: np.ndarray):
        self.m = m
        self.shape, self.dtype = m.shape, m.dtype

    def matmul(self, x):
        return self.m @ x

    def subtract_block(self, row, col, out):
        np.subtract(self.m[row : row + len(out), col : col + out.shape[1]], out, out=out)

    def dense(self):
        return self.m


def _sample(op: _Operator, omega: np.ndarray) -> np.ndarray | None:
    """A Omega, or None when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = op.matmul(omega)
    return y if _all_finite(y) else None


def _basis(sample: np.ndarray, lead: int) -> np.ndarray:
    """Q = E_lead (+) Q_J: the first ``lead`` unit vectors, exactly, and Q_J
    the Householder Q of the sample's rows past ``lead`` (all of it when
    ``lead`` = 0)."""
    try:
        qj = np.linalg.qr(sample[lead:])[0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"range finder did not converge: {exc}") from exc
    if not lead:
        return qj
    q = np.eye(len(sample), lead + qj.shape[1], dtype=sample.dtype)  # past the lead rows, its diagonal is overwritten
    q[lead:, lead:] = qj
    return q


def _gamma(m: int) -> Fraction:
    """Higham's gamma_m = m u / (1 - m u) = m / (2^53 - m), u = 2^-53 the unit
    roundoff of float64, as an exact rational."""
    return Fraction(m, 2**53 - m)


def _certify(op: _Operator, q: np.ndarray, limit: float, buf: np.ndarray, lead: int = 0, core=None):
    """(C, half-width) for A ~ Q C Q^T, C = Q* A conj(Q) made exactly
    symmetric, or the exactly symmetric ``core`` when one is given, when the
    half-width is at most sqrt(n) limit, else None (module docstring).

    The first ``lead`` columns of Q are the first ``lead`` unit vectors, and
    its other columns are 0 on those rows (:func:`_basis`).  So the first
    ``lead`` columns of C are those of B = C Q^T, and the ``lead`` x ``lead``
    corner of the residual is 0; the block beside it stands for its mirror
    too.  The border rows of A are read as A minus a zeroed block."""
    n = op.shape[0]
    k, step = q.shape[1], len(buf) // n
    qj, words = q[:, lead:], 1 + np.iscomplexobj(q)  # float64 words per entry
    # B_x, the real form of B = C Q^T past its first lead rows: for rows I
    # past lead, Q_I B is [Re Q_I | Im Q_I] @ B_x, viewed as complex (B
    # itself and Q_I B when Q is real)
    bx = np.empty((words * k - (words - 1) * lead, words * n))
    top = bx[:k].view(q.dtype)  # Q* A, then B
    c = core
    if c is None:
        top[:lead] = 0.0
        op.subtract_block(0, 0, top[:lead])
        top[lead:] = op.matmul(qj.conj()).T
        c = np.empty((k, k), dtype=q.dtype)
        c[:, :lead] = top[:, :lead]  # the unit columns of conj(Q) pick the columns of Q* A exactly
        c[:, lead:] = top @ qj.conj()
        c = 0.5 * (c + c.T)
    np.matmul(c[:, lead:], qj.T, out=top)
    top[:, :lead] = c[:, :lead]
    # || |Q| |C|^T ||_F, whose rows above lead are the columns of |C|
    mirror = math.hypot(np.linalg.norm(c[:, :lead]), np.linalg.norm(np.abs(qj[lead:]) @ np.abs(c[:, lead:]).T))
    slack = 2.0 * float(_gamma(2 * k)) * mirror
    if words == 2:
        np.multiply(bx[lead:k].view(complex), 1j, out=bx[k:].view(complex))
    qx = np.concatenate((qj.real, qj.imag), axis=1) if words == 2 else qj
    ss = 0.0
    for i in [*range(0, lead, step), *range(lead, n, step)]:
        r = min(step, (lead if i < lead else n) - i)
        j = max(i, lead)
        block = buf[: r * (n - j)].reshape(r, n - j)
        if i < lead:  # unit rows of Q: Q_I B is B_I
            np.copyto(block, top[i : i + r, j:])
        else:
            np.matmul(qx[i : i + r], bx[lead:, words * j :], out=block.view(float))
        op.subtract_block(i, j, block)
        flat = block.view(float).ravel()
        part = float(np.dot(flat, flat))
        if r < n - j:  # the columns past the diagonal block stand for their mirror too
            diagonal = block[:, : r if j == i else 0].view(float)
            part = 2.0 * part - float(np.einsum("ij,ij->", diagonal, diagonal))
        ss += part
        if not math.sqrt(ss) + slack <= limit:
            return None
    return c, math.sqrt(n) * (math.sqrt(ss) + slack)


def _kronecker(op: _Operator) -> tuple[np.ndarray, np.ndarray] | None:
    """(Q, C) of the probe: Y = A[:, :2], read exactly as A's first two rows,
    Y = Q R by Householder QR and C = R Q[:2, :]^-T made exactly symmetric,
    the one C with Y = Q C Q[:2, :]^T; None when Y or C is not finite or the
    QR or the 2 x 2 solve fails (module docstring)."""
    y = np.zeros((_PROBE_WIDTH, op.shape[0]), dtype=op.dtype)
    op.subtract_block(0, 0, y)
    if not _all_finite(y):
        return None
    try:
        q, r = np.linalg.qr(y.T)
        c = np.linalg.solve(q[:_PROBE_WIDTH], r.T).T  # Q[:2] C^T = R^T
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a C that overflows fails here
        c = 0.5 * (c + c.T)
    return (q, c) if _all_finite(c) else None


@dataclass(frozen=True)
class _Factorization:
    """A window A ~ Q C Q^T as :func:`_factorize` made it.  ``basis`` is Q'
    (None when dense), ``core`` the k x k symmetric C (the dense A' when
    ``basis`` is None), ``half_width`` a bound on sqrt(n) ||A' - Q' C Q'^T||_F
    (0 when dense), and ``phase`` the diagonal of D of a window A = D A' D
    (None for D = I), so that Q = D Q'.  ``path`` names the basis that
    certified, in the order tried: "probe", "split", "grown", else "dense"
    (module docstring).  ``draws`` holds the width of each sample drawn, and
    ``passes`` the (lead, width, certified) of each residual pass."""

    basis: np.ndarray | None
    core: np.ndarray
    half_width: float
    phase: np.ndarray | None
    path: str
    draws: tuple[int, ...]
    passes: tuple[tuple[int, int, bool], ...]

    @property
    def width(self) -> int:
        """The columns of Q, 0 when dense."""
        return 0 if self.basis is None else self.basis.shape[1]

    @cached_property
    def trace_norm(self) -> float:
        """||C||_1, the trace norm of Q C Q^T."""
        return float(np.sum(_svdvals(self.core)))

    def svd(self):
        """U S V* of the window: with U' S V'* the SVD of C, U = D Q' U' and
        V* = V'* Q'^T D (D U' and V'* D when dense)."""
        u, s, vh = _svd(self.core, full_matrices=False)
        if self.basis is not None:
            u, vh = self.basis @ u, vh @ self.basis.T
        if self.phase is not None:
            u, vh = self.phase[:, None] * u, vh * self.phase
        return u, s, vh


def _predicted_width(estimates: list[tuple[int, float]], limit: float) -> float:
    """The width at which the residual estimate reaches ``limit``, extrapolated
    geometrically from the last two (width, estimate) pairs: the last width
    when there is one pair or the last estimate is at most the limit, inf
    when the estimates do not decrease."""
    k1, e1 = estimates[-1]
    if len(estimates) == 1 or e1 <= limit:
        return k1
    k0, e0 = estimates[-2]
    if not e1 < e0:
        return math.inf
    return k1 + (k1 - k0) * math.log(e1 / limit) / math.log(e0 / e1)


def _factorize(op: _Operator) -> _Factorization:
    """The :class:`_Factorization` of the window A, from the first basis that
    certifies its residual, or the dense A below 64 rows and when no basis
    certifies; the bases and their order are those of the module docstring."""
    n, phase = op.shape[0], op.phase  # the phase before the swap to _Matrix below, which drops it
    draws, passes = [], []

    def result(path, q=None, found=None):
        core, half_width = (op.dense(), 0.0) if found is None else found
        return _Factorization(q, core, half_width, phase, path, tuple(draws), tuple(passes))

    def certify(q, lead=0, core=None):
        found = _certify(op, q, limit, buf, lead, core)
        passes.append((lead, q.shape[1], found is not None))
        return found

    def draw(width):
        draws.append(width)
        return _sample(op, rng.standard_normal((n, width)))

    if n < _DENSE_BELOW:
        return result("dense")
    lead = op.border_rows if 2 * (op.border_rows + _PROBE_WIDTH) <= n else 0  # a split at most half as wide as A
    if n < _GROW_FROM:  # the dense SVD needs A if no basis certifies, and dense products are cheaper here
        op = _Matrix(op.dense())
    limit = 0.5 * _svd_allowance(n) / math.sqrt(n)
    buf = np.empty(min(n, 128, max(8, _BLOCK_BYTES // (16 * n))) * n, dtype=op.dtype)  # a block's rows
    probe = _kronecker(op)
    if probe is not None:
        found = certify(probe[0], core=probe[1])
        if found is not None:
            return result("probe", probe[0], found)
    if n < _GROW_FROM and not lead:  # no basis is left to try
        return result("dense")
    rng = np.random.default_rng(0)
    sample = draw(_PROBE_WIDTH)
    if sample is None:
        return result("dense")
    q = _basis(sample, lead)
    if lead:  # the split
        found = certify(q, lead)
        if found is not None:
            return result("split", q, found)
    if n < _GROW_FROM:
        return result("dense")
    estimates = []
    while True:
        fresh = draw(_BLOCK)
        if fresh is None:
            break
        k, qj, z = sample.shape[1], q[lead:, lead:], fresh[lead:]
        # E ||(I - Q Q*) A omega||^2 = ||A - Q Q* A||_F^2 for a Gaussian column omega,
        # and (I - Q Q*) A omega is 0 on the lead rows
        estimates.append((k, float(np.linalg.norm(z - qj @ (qj.conj().T @ z))) / math.sqrt(_BLOCK)))
        if estimates[-1][1] <= limit:
            found = certify(q, lead)
            if found is not None:
                return result("grown", q, found)
        predicted = _predicted_width(estimates, limit)
        if predicted > n / 4 or k + _BLOCK > n / 4:
            break
        parts = [sample, fresh]
        extra = min(math.ceil(predicted) + _BLOCK, n // 4) - k - _BLOCK
        if extra > 0:
            parts.append(draw(extra))
            if parts[-1] is None:
                break
        sample = np.hstack(parts)
        q = _basis(sample, lead)
    return result("dense")


def trace_norm(m) -> float:
    """Sum of singular values; the error it may carry is :func:`_svd_allowance`.

    A plain matrix, anything :func:`as_cmatrix` accepts, takes the dense SVD.
    A window's :class:`_Operator` gives ||C||_1 of its :func:`_factorize`,
    whose paths the module docstring lists; the result is deterministic, as
    the probe draws nothing and the sample is seeded.
    """
    if isinstance(m, _Operator):
        return _factorize(m).trace_norm
    return float(np.sum(_svdvals(as_cmatrix(m))))


def _trace_norm_below(m) -> float:
    """A float at most ||M||_1, from the dual pairing with W = U V* of the
    computed SVD M ~ U S V*.

    For any W, |tr(W* M)| <= ||W||_2 ||M||_1, so Re tr(W* M) / ||W||_2 bounds
    ||M||_1 below however far the computed U and V* are from exact; W is near
    the polar factor of M, so the bound is near ||M||_1.  Only the rounding of
    the two numbers read from W is deducted, with gamma_k = k u / (1 - k u) of
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
    section 3.5: |fl(x^T y) - x^T y| <= gamma_k |x|^T |y| for real vectors of
    length k, in any order of summation, and for |x|^T |y| itself the exact
    value is at most the computed one over 1 - gamma_k.
    - The pairing Re tr(W* M) is the real inner product t of the float views of
      W and M, of length k = 2 rows cols.  With a the computed |W|^T |M|, it is
      at least t - gamma_k a / (1 - gamma_k).
    - ||W||_2^2 = rho(W* W) <= ||W* W||_inf.  W is replaced by W* when it
      has more columns than rows, so that G = W* W is the smaller Gram, near
      the identity; below, W is r x c with r >= c.  |G| <= |Re G| + |Im G|
      for each entry.  With P = [Re W; Im W], Re G = P^T P and
      Im G = P^T [Im W; -Re W], real inner products of length 2r whose errors
      add up to at most gamma_2r S^T S, S = |Re W| + |Im W|.  Each row sum of
      S^T S is (S^T S 1)_i = (|P|^T [y; y])_i with y = S 1, the sum of the row
      k of |P| and of the row r + k.  So with h the computed row sums of
      |P^T P| + |P^T [Im W; -Re W]| (2c terms each) and z the computed
      |P|^T [y; y],
      ||W* W||_inf <= max h / (1 - gamma_2c)
                      + gamma_2r max z / ((1 - gamma_2r) (1 - gamma_2c)).
    The scalar steps run in exact rationals, and the quotient is rounded down.
    """
    m = as_cmatrix(m)
    u, _, vh = _svd(m, full_matrices=False)
    w = u @ vh
    wf, mf = w.view(float).ravel(), m.view(float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        t, a = float(np.dot(wf, mf)), float(np.dot(np.abs(wf), np.abs(mf)))
    if not math.isfinite(a):  # the pairing overflowed: 0 is the bound left
        return 0.0
    g = _gamma(wf.size)
    pairing = Fraction(t) - g / (1 - g) * Fraction(a)
    if pairing <= 0:
        return 0.0
    if w.shape[0] < w.shape[1]:
        w = w.conj().T
    r, c = w.shape
    p = np.concatenate((w.real, w.imag))
    h = (np.abs(p.T @ p) + np.abs(p.T @ np.concatenate((w.imag, -w.real)))).sum(axis=1)
    ap = np.abs(p)
    y = ap.sum(axis=1)
    y = y[:r] + y[r:]
    z = ap.T @ np.concatenate((y, y))
    g_r, g_c = _gamma(2 * r), _gamma(2 * c)
    gram = Fraction(float(h.max())) / (1 - g_c) + g_r * Fraction(float(z.max())) / ((1 - g_r) * (1 - g_c))
    w_norm = math.sqrt(float(gram))
    while Fraction(w_norm) ** 2 < gram:
        w_norm = math.nextafter(w_norm, math.inf)
    bound = pairing / Fraction(w_norm)
    low = float(bound)
    return low if Fraction(low) <= bound else math.nextafter(low, 0.0)
