"""Radial symbols on the non-negative integers and their Schur-norm pipeline.

A radial kernel on a homogeneous tree of degree q+1 is determined by a
sequence phi: N0 -> C; it is a Schur multiplier exactly when the Hankel matrix
h[i,j] = phi(i+j) - phi(i+j+2) is trace class, and its norm is

    |c+| + |c-| + ||H||_1                          (q = inf)
    |c+| + |c-| + (1-1/q) ||(I - tau/q)^{-1} H||_1 (q finite),

with c+- the parity limits of phi and tau(A) = S A S* the shift conjugation.
This module computes those quantities from finite truncations with certified
truncation error driven by a declared tail model.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .errors import DivergentDiagonals, DivergentSeries, NoConvergence, NonFinite
from .spectral import _all_finite, _Factorization, _factorize, _Operator, _svd_allowance, as_cmatrix

INF = math.inf

N_START = 32
N_CAP = 4096
_KEPT_VALUES = 2 * N_CAP + 1  # the values of the longest window; a longer read is not kept
_UNIT_ROUNDOFF = 2.0**-53  # |fl(x) - x| <= 2^-53 |x| for a float x in range


def check_degree(q) -> int | float:
    """Validate a tree degree parameter: an integer >= 2 or math.inf."""
    if q == INF:
        return INF
    if isinstance(q, (int, np.integer)) and not isinstance(q, bool) and q >= 2:
        return int(q)
    raise ValueError(f"degree parameter must be an integer >= 2 or inf, got {q!r}")


# ---------------------------------------------------------------------------
# tail models
# ---------------------------------------------------------------------------

# a declared tail is checked on the indices onset .. onset + _CHECK_SPAN - 1
_CHECK_SPAN = 1025


class _Tail:
    """The hooks every tail model has; by default ``_normalize`` returns no
    envelope, so the model certifies nothing and every bound is refused."""

    def _normalize(self, values, span) -> "_Envelope | None":
        return None

    def _square_series(self) -> float | None:
        """sum (n+1)^2 |phi(n)|^2 in closed form, or None when it is summed
        from the normalized envelope (``ma_upper_bound``)."""
        return None


@dataclass(frozen=True)
class FiniteSupport(_Tail):
    """phi(n) == 0 for all n >= end."""

    end: int

    def _normalize(self, values, span):
        return _checked_envelope(values, self.end, 0.0, 0.0, span)


@dataclass(frozen=True)
class Geometric(_Tail):
    """|phi(n)| <= bound * ratio**n for all n >= onset."""

    ratio: float
    bound: float
    onset: int = 0

    def _normalize(self, values, span):
        return _checked_envelope(values, self.onset, self.bound, self.ratio, span)


@dataclass(frozen=True)
class LacunarySupport(_Tail):
    """Support on powers of two with weights 1/(k*2**k).

    Certifies the (n+1)^2-weighted square series (the multiplier-algebra
    bound) but deliberately certifies nothing about trace-class membership:
    the associated Hankel matrix is not trace class.
    """

    def _square_series(self) -> float:
        # terms are (1 + 2^-k)^2 / k^2; direct iteration cannot certify 1e-12
        # (the 1/k^2 part converges like 1/K), so split off zeta(2) exactly
        extra = 0.0
        k = 1
        while True:
            term = (2.0 ** (1 - k) + 4.0 ** (-k)) / k ** 2
            extra += term
            if term < 1e-18:
                break
            k += 1
        return math.pi ** 2 / 6.0 + extra


@dataclass(frozen=True)
class Undeclared(_Tail):
    """No tail information; certified bounds are refused."""


@dataclass(frozen=True, eq=False)
class _Envelope(_Tail):
    """A tail normalized once: phi(n) = c_plus + c_minus*(-1)**n + psi(n) with
    psi(n) = head[n] exactly for n < len(head) and |psi(n)| <= c * r**n beyond.

    Symbols derived from a checked one carry a transformed envelope as their
    tail, which is taken as it is.  ``hankel_majorant``, built once, bounds
    |h_m| = |psi(m) - psi(m+2)| and holds the suffix tables that every
    truncation term reads (:class:`_Majorant`).
    """

    c_plus: complex
    c_minus: complex
    head: np.ndarray
    c: float
    r: float

    def _normalize(self, values, span):
        return self

    def shifted(self, d_plus: complex, d_minus: complex) -> "_Envelope":
        """The envelope of phi + d_plus + d_minus*(-1)**n."""
        return _Envelope(self.c_plus + d_plus, self.c_minus + d_minus, self.head, self.c, self.r)

    @cached_property
    def norm_floor(self) -> float:
        """max(|c_plus| + |c_minus|, max over the head of |phi(n)|), a lower
        bound on the Schur norm: it is at least sup |phi(n)|, and the closed
        form adds a non-negative Hankel term to |c_plus| + |c_minus|.  It is
        the trivial bound 0 when the Hankel majorant overflows, so that such
        a head reaches its window, whose NonFinite names the bad input."""
        if not np.isfinite(self.hankel_majorant.major).all():
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a floor of inf
            stored = np.abs(self.c_plus + self.c_minus * _signs(len(self.head)) + self.head)
        return max(abs(self.c_plus) + abs(self.c_minus), float(np.max(stored, initial=0.0)))

    @cached_property
    def hankel_majorant(self) -> "_Majorant":
        """|h_m| = |psi(m) - psi(m+2)| <= major[m] for m < len(head), c(1+r^2) r^m beyond."""
        size = len(self.head)
        ext = np.concatenate([np.abs(self.head), self.c * self.r ** np.arange(size, size + 2)])
        major = ext[:-2] + ext[2:]
        inner = max(size - 2, 0)
        major[:inner] = np.abs(self.head[:inner] - self.head[2:])
        return _Majorant(major, self.c * (1.0 + self.r * self.r), self.r)


TailModel = Union[FiniteSupport, Geometric, LacunarySupport, Undeclared]


def _signs(count: int) -> np.ndarray:
    return np.where(np.arange(count) % 2 == 0, 1.0, -1.0)


def _checked_envelope(values, onset: int, bound: float, ratio: float, span: int) -> _Envelope:
    """Check |psi(n)| <= bound * ratio**n, up to a small slack, on every n in
    [onset, onset + span), and keep psi exactly up to the last value above the cap."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio}")
    if not 0.0 <= bound < math.inf:
        raise ValueError(f"geometric bound must be finite and non-negative, got {bound}")
    if onset < 0:
        raise ValueError("tail onset must be >= 0")
    psi = values(onset + span)
    mag = np.abs(psi[onset:])
    cap = bound * ratio ** np.arange(onset, onset + span) * (1.0 + 1e-9)
    # absolute slack absorbs float residue of parity subtraction deep in the tail
    over = mag > cap + (1e-9 * max(1.0, bound) + 1e-300)
    if over.any():
        k = int(np.argmax(over))
        raise ValueError(
            f"declared tail violated at n={onset + k}: |phi(n)|={mag[k]:.3e} > {cap[k]:.3e}"
        )
    # the head runs past the last checked value the cap does not cover, so
    # the slack only admits values, and the bounds read them exactly; 1e-300
    # forgives subnormal rounding, far below any SVD allowance
    loose = np.flatnonzero(mag > cap + 1e-300)
    end = onset + (int(loose[-1]) + 1 if loose.size else 0)
    if ratio == 0.0:
        # bound * 0**n vanishes from n = 1 on: the tail is finite support
        end, bound = max(end, 1), 0.0
    return _Envelope(0j, 0j, psi[:end].copy(), bound * (1.0 + 1e-9), float(ratio))


# ---------------------------------------------------------------------------
# radial symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialSymbol:
    """A total, deterministic sequence phi: N0 -> C with a declared tail model.

    The values come from one generator: ``values_fn(count)`` returns phi(0),
    ..., phi(count-1) as an array.  A scalar ``fn(n)`` may be passed instead
    at construction; it becomes that generator, evaluated index by index.  A
    declared tail is checked at construction on every index from its onset
    to onset + 1024.  The values the generator returns are taken as exact: a
    certified error covers the truncation and the trace norm of the window,
    not how far those floats lie from the sequence they round.

    The symbol keeps the longest prefix the generator has returned, up to
    the 2 N_CAP + 1 values of the longest window, and serves shorter reads
    as copies of it, so the generator runs once per symbol for every window
    up to the longest one read: the check's onset + 1025 values already
    serve every window of up to 511 rows, and repeated norms, certificates
    and checks of one symbol never run it again.  A longer read, the disc
    coefficients or the M_A series, runs the generator and is not kept.
    """

    fn: InitVar[Callable[[int], complex] | None] = None
    tail: TailModel = Undeclared()
    name: str = ""
    values_fn: Callable[[int], np.ndarray] | None = None
    _env: _Envelope | None = field(default=None, init=False, repr=False, compare=False)
    _kept: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex), init=False, repr=False, compare=False)

    def __post_init__(self, fn):
        if (fn is None) == (self.values_fn is None):
            raise ValueError("a radial symbol needs exactly one of fn and values_fn")
        if fn is not None:
            object.__setattr__(self, "values_fn", lambda count: np.array([fn(n) for n in range(count)], dtype=complex))
        object.__setattr__(self, "_env", self.tail._normalize(self.values, _CHECK_SPAN))

    def eval(self, n: int) -> complex:
        if n < 0:
            raise ValueError("radial symbols are defined on n >= 0")
        return complex(self.values(int(n) + 1)[int(n)])

    __call__ = eval

    def values(self, count: int) -> np.ndarray:
        """phi(0), ..., phi(count-1) as a complex array."""
        if count <= 0:
            return np.zeros(0, dtype=complex)
        if count <= len(self._kept):
            return self._kept[:count].copy()
        vals = np.asarray(self.values_fn(count), dtype=complex)
        if vals.shape != (count,):
            raise ValueError("values_fn returned wrong length")
        if count <= _KEPT_VALUES:
            object.__setattr__(self, "_kept", vals.copy())
        return vals


def explicit_symbol(values, tail: TailModel | None = None, name: str = "") -> RadialSymbol:
    """Symbol from an explicit list, zero beyond the list."""
    vals = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol values must be finite")
    if tail is None or (isinstance(tail, Geometric) and tail.onset > len(vals)):
        # phi is 0 past the values, so a Geometric onset past them declares nothing more
        tail = FiniteSupport(len(vals))

    def values_fn(count):
        out = np.zeros(count, dtype=complex)
        take = min(count, len(vals))
        out[:take] = vals[:take]
        return out

    sym = RadialSymbol(tail=tail, name=name, values_fn=values_fn)
    if len(vals) > _CHECK_SPAN:
        # the declared tail must hold on every stored value, also past the check span
        object.__setattr__(sym, "_env", tail._normalize(values_fn, len(vals)))
    return sym


def power_symbol(s: complex, name: str = "") -> RadialSymbol:
    """phi(n) = s**n for |s| < 1 (geometric tail with ratio |s|)."""
    s = complex(s)
    if abs(s) >= 1:
        raise ValueError("power_symbol requires |s| < 1")
    return RadialSymbol(
        tail=Geometric(ratio=abs(s), bound=1.0),
        name=name or f"power({s})",
        values_fn=lambda count: _powers(s, count),
    )


def _powers(s: complex, count: int) -> np.ndarray:
    """s**n for n < count.  An s on an axis, s = |s| i^t, keeps its powers in
    their exact phase class: |s|**n, numpy's complex power of the positive
    |s|, which is real at every n, times the exact unit i^(t n).  numpy's
    power of s itself leaves residue off the class from n = 100 on, where it
    takes exp(n log s); below that its magnitudes are the same bits."""
    n = np.arange(count)
    if s.real and s.imag:
        return s ** n
    t = 2 * (s.real < 0) + (s.imag > 0) + 3 * (s.imag < 0)  # s / |s| = i^t
    return complex(abs(s)) ** n * _TURNS[t * n % 4]


def parity_symbol(c_plus: complex, c_minus: complex, psi: RadialSymbol, name: str = "") -> RadialSymbol:
    """phi(n) = c_plus + c_minus*(-1)**n + psi(n), with psi's envelope shifted
    by the limits as its tail, or ``Undeclared()`` when psi has none."""
    cp, cm = complex(c_plus), complex(c_minus)
    return RadialSymbol(
        tail=Undeclared() if psi._env is None else psi._env.shifted(cp, cm),
        name=name,
        values_fn=lambda count: cp + cm * _signs(count) + psi.values(count),
    )


def constant_symbol(c: complex = 1.0) -> RadialSymbol:
    return parity_symbol(c, 0.0, explicit_symbol([]), name=f"constant({c})")


def scale_symbol(sym: RadialSymbol, alpha: complex) -> RadialSymbol:
    """alpha * phi with the tail bound rescaled accordingly."""
    alpha = complex(alpha)
    env = sym._env
    if env is None:
        tail = Undeclared()
    else:
        tail = _Envelope(env.c_plus * alpha, env.c_minus * alpha, env.head * alpha, env.c * abs(alpha), env.r)
    return RadialSymbol(
        tail=tail,
        name=f"{alpha}*{sym.name}" if sym.name else "",
        values_fn=lambda count: alpha * sym.values(count),
    )


def lacunary_counterexample() -> RadialSymbol:
    """The power-of-two lacunary symbol: phi(2**k) = 1/(k*2**k) for k >= 1, else 0.

    It satisfies the square-summability bound of the multiplier algebra but its
    Hankel matrix is not trace class, so it is not a Schur multiplier.
    """

    def values_fn(count: int) -> np.ndarray:
        out = np.zeros(count, dtype=complex)
        k = 1
        while 2 ** k < count:
            out[2 ** k] = 1.0 / (k * 2.0 ** k)
            k += 1
        return out

    return RadialSymbol(tail=LacunarySupport(), name="lacunary", values_fn=values_fn)


# ---------------------------------------------------------------------------
# certified truncation bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Majorant:
    """A declared majorant |h_m| <= M(m) of a Hankel sequence: M(m) = major[m]
    for m < len(major) and c r^m beyond (0 <= r < 1).

    Every truncation term reads one quantity of it, the l2 suffix

        S(k) = ( sum_{m >= k} M(m)^2 )^(1/2),

    which bounds the 2-norm of any row or column of H that starts at
    antidiagonal k, and is at most its l1 form sum_{m >= k} M(m).  Past the
    stored head, S(k) = g r^k with g = c / sqrt(1 - r^2); over the head S,
    and its suffix sums, come from one reversed cumsum each (``_tables``),
    whose entries are read one by one as Python floats, so :meth:`tail` is
    an O(1) float read and no read converts more of a long head than it
    uses.  :meth:`spill` reads the prefix T(0) = 0, T(m+1) = (T(m) + S(m)) / q
    = sum_{i<=m} q^-(m+1-i) S(i), kept per q and extended only as far as a
    window asks, then a closed form past the head.  Rounding: the tables
    carry a relative error of order len(major) 2^-53; each step of T rounds
    a sum of non-negative terms and a quotient, an error later steps divide
    by q, so T(N) is within 2 sum_{i<N} (N-i) q^-(N-i) S(i) 2^-53 (a few
    units of roundoff unless S falls much faster than 1/q per step).
    Squares are taken at the scale s of the largest M(m), a power of two, so
    those under 2^-1022 s^2 lose under sqrt(len(major)) 2^-537 s of each
    S(k).  All of it is far under the SVD allowance of a symbol of moderate
    size.  Python floats overflow to inf under * and /, and r^k only
    underflows, so no term raises.
    """

    major: np.ndarray
    c: float
    r: float
    _prefixes: dict[int, list[float]] = field(default_factory=dict, init=False, repr=False)  # q -> [T(0), ...]

    def __post_init__(self):  # plain floats, so no per-window term warns on overflow
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "r", float(self.r))

    @cached_property
    def _g(self) -> float:
        """S(k) = g r^k for k >= len(major)."""
        return self.c / math.sqrt(1.0 - self.r * self.r)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(S(k) for k < size, sum_{size > j >= k} S(j) for k <= size)."""
        size = len(self.major)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes its bounds inf
            beyond = self._g * self.r ** size
            # square at the scale of the largest term, a power of two not above
            # it, so entries up to the float limit do not overflow their squares
            top = max(float(np.max(self.major, initial=0.0)), beyond)
            scale = math.ldexp(1.0, math.frexp(top)[1] - 1) if 0.0 < top < INF else 1.0
            major, beyond = self.major / scale, beyond / scale
            l2 = scale * np.sqrt(np.cumsum((major * major)[::-1])[::-1] + beyond * beyond)
            sums = np.zeros(size + 1)
            sums[:size] = np.cumsum(l2[::-1])[::-1]
        return l2, sums

    def tail(self, n: int) -> float:
        """sum_{k=N}^{2N-1} S(k) + sum_{k >= N} S(k) (``hankel_tail_bound``)."""
        _, sums = self._tables
        size, r = len(self.major), self.r
        lo, hi, a = min(n, size), min(2 * n, size), max(n, size)
        # sum_{k=a}^{2N-1} r^k + sum_{k >= a} r^k = r^a (2 - r^(2N-a)) / (1 - r), the first sum empty for a >= 2N
        stored = 2.0 * sums.item(lo) - sums.item(hi)
        total = stored + self._g * r ** a * (2.0 - r ** max(2 * n - a, 0)) / (1.0 - r)
        return total if math.isfinite(total) else INF

    def spill(self, n: int, q: int) -> float:
        """2 sum_{i<N} q^-(N-i) S(i) = 2 T(N) (``resolvent_spill_bound``)."""
        l2, _ = self._tables
        size = len(l2)
        t = self._prefixes.get(q, [0.0])
        if len(t) <= min(n, size):  # extend a copy: a stored prefix never changes under a reader
            t = list(t)
            for s in l2[len(t) - 1 : min(n, size)].tolist():
                t.append((t[-1] + s) / q)
            self._prefixes[q] = t
        if n <= size:
            total = 2.0 * t[n]
        else:  # T(N) = q^-(N-size) T(size) + sum_{i=size}^{N-1} q^-(N-i) g r^i
            total = 2.0 * (float(q) ** (size - n) * t[size] + self._g * _scaled_geometric(q, self.r, size, n))
        return total if math.isfinite(total) else INF


def _scaled_geometric(q: int, r: float, a: int, n: int) -> float:
    """sum_{i=a}^{N-1} q^-(N-i) r^i for a < N, as its largest term times
    sum_{j < N-a} y^j with y = min(qr, 1/(qr)) = exp(-|log q + log r|), summed
    as expm1(-(N-a) l) / expm1(-l) for l = |log q + log r|: no cancellation
    when qr is near 1, where the terms are nearly equal, and no overflow of
    q^N."""
    count = n - a
    if r == 0.0:  # only i = 0 contributes
        return float(q) ** -n if a == 0 else 0.0
    log_x = math.log(q) + math.log(r)
    largest = float(q) ** -count * r ** a if log_x <= 0.0 else r ** (n - 1) / q
    ell = abs(log_x)
    return largest * (math.expm1(-count * ell) / math.expm1(-ell) if ell else float(count))


def hankel_tail_bound(sym: RadialSymbol, n: int) -> float:
    """Upper bound on || H_infinity - (N-window padded by zeros) ||_1.

    The trace norm of a matrix is at most the sum of the 2-norms of its
    columns (each column is a rank-one term).  Column j < N of the discarded
    part holds the entries of rows i >= N, on antidiagonals m >= N + j, so its
    2-norm is at most S(N+j); column j >= N is whole and at most S(j).  Hence

        tail(N) = sum_{k=N}^{2N-1} S(k) + sum_{k >= N} S(k)

    with S the l2 suffix of the declared majorant (:class:`_Majorant`).  It
    is never above the rank-one-per-antidiagonal bound sum_{m >= N} (m+1) M(m):
    S(k) <= sum_{m >= k} M(m), and each M(m), m >= N, is then counted
    min(N, m-N+1) + (m-N+1) <= m+1 times.
    """
    if sym._env is None:
        return INF
    return sym._env.hankel_majorant.tail(n)


def resolvent_spill_bound(sym: RadialSymbol, n: int, q: int) -> float:
    """Trace-norm mass that (1-1/q)(I - tau/q)^{-1} pushes outside the N-window.

    Window entries of the resolvent image are exact, but the image of even a
    finitely supported H has entries on all deeper diagonals: the shift tau^k
    relocates the width-k border of the window outside it, so

        spill <= (1-1/q) * sum_{k>=1} q^{-k} * ||border of width k||_1.

    The border of width k is the last k rows of the window and the last k
    columns above them.  Row i of the window and column i both start at
    antidiagonal i, so each has 2-norm at most S(i), and the border has trace
    norm at most 2 sum_{i=N-k}^{N-1} S(i) (the whole window for k >= N).
    Summed over k, S(i) collects 2 (1-1/q) sum_{k >= N-i} q^-k = 2 q^-(N-i):

        spill(N) = 2 sum_{i<N} q^-(N-i) S(i) = 2 T(N),

    with T(m+1) = (T(m) + S(m)) / q over the head (:class:`_Majorant`; a few
    units of roundoff).  Each row charged its l1 norm sum_{m >= i} M(m)
    instead gives the same sum with the l1 suffix, which is never smaller.
    A majorant whose sums overflow gives inf.
    """
    if sym._env is None:
        return INF
    return sym._env.hankel_majorant.spill(n, q)


# ---------------------------------------------------------------------------
# Hankel windows and the resolvent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HankelMatrix:
    """N x N window h[i,j] = d[i+j] of the 2N-1 antidiagonal values ``d`` (for
    a symbol, d[m] = phi(m) - phi(m+2)), with truncation metadata.

    The window is kept as ``d`` alone; ``entries`` copies it into a dense
    N x N array once, when first read.  ``majorant`` is the
    :class:`_Majorant` of |h_m|, or None when the tail model certifies
    nothing; ``tail_bound``, its ``tail(N)`` read when first asked for,
    dominates the trace norm of the discarded infinite part of H itself
    (math.inf when uncertified).
    """

    n: int
    d: np.ndarray
    majorant: _Majorant | None = field(repr=False)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense window, one strided copy of d[i+j] with no index array."""
        return _window_view(self.d, self.n).copy()

    @cached_property
    def tail_bound(self) -> float:
        return INF if self.majorant is None else self.majorant.tail(self.n)


def _window_view(d: np.ndarray, n: int) -> np.ndarray:
    """The N x N window d[i+j] as a read-only view of d (of a contiguous copy
    when d is strided); row i is d[i:i+N]."""
    d = np.ascontiguousarray(d)
    view = np.ndarray((n, n), d.dtype, d, 0, (d.itemsize, d.itemsize))
    view.flags.writeable = False
    return view


def build_hankel(sym: RadialSymbol, n: int) -> HankelMatrix:
    """The N-window of phi(i+j) - phi(i+j+2), kept as its difference sequence."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    vals = sym.values(2 * n + 1)
    majorant = None if sym._env is None else sym._env.hankel_majorant
    return HankelMatrix(n=n, d=vals[:-2] - vals[2:], majorant=majorant)


# the correction c^(min(i,j)+1) F[|i-j|-2] of the resolvent image is dropped
# once c^(min(i,j)+1) is at most this, 1/256 of the spacing of floats at 1
_BORDER_CUT = 2.0 ** -60
_TURNS = np.array([1.0, 1j, -1.0, -1j])  # i^u for u = 0, 1, 2, 3 (mod 4)


def _border_width(c: float, n: int) -> int:
    """The first k with c^(k+1) <= 2^-60, at most n (0 at c = 0)."""
    if not c:
        return 0
    k = max(math.ceil(60.0 / -math.log2(c)) - 2, 0)  # one below the estimate, then up to the definition
    while c ** (k + 1) > _BORDER_CUT:
        k += 1
    return min(k, n)


@lru_cache(maxsize=64)
def _border_weights(c: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, w): p[m] = (1-|c|) c^(m+1) for m < k, and the k x k w[i, j] =
    p[min(i,j)], which is not max(p[i], p[j]) when c < 0 and p alternates.
    Cached: they depend on (c, k) alone and cost as much as the border."""
    p = (1.0 - abs(c)) * abs(c) ** np.arange(1.0, k + 1.0)
    if c < 0:
        p[::2] *= -1.0
    w = np.where(np.tri(k, k, -1, bool), p, p[:, None])  # p[j] left of the diagonal, p[i] from it on
    p.flags.writeable = w.flags.writeable = False
    return p, w


class _ResolventImage(_Operator):
    """The window of H' = (1-c) sum_k c^k S^k H S*^k for c = 1/q (c = 0 at
    q = inf, where H' is H), as an operator for ``spectral._factorize``.

    With F[u] = d[u] + c F[u-2] and F[u < 0] = 0,

        h'[i,j] = (1-c) sum_{s <= min(i,j)} c^s d[i+j-2s]
                = (1-c) F[i+j] - (1-c) c^(min(i,j)+1) F[|i-j|-2],

    exactly.  So H' is the Hankel window of G = (1-c) F minus a correction
    that decays like c^min(i,j).  It is kept on the rows and the columns
    below k, the first index with c^(k+1) <= 2^-60 (59 at q = 2, 37 at
    q = 3, 0 at q = inf), as the k x N slab ``border`` (H' is complex
    symmetric, so the columns are its transpose), and dropped beyond: there
    it is below 2^-60 (1-c) |F|, under a rounding of G.  F comes from a
    log-depth scan of the recurrence, and the 2N-1 values of F are checked
    to be finite here (they are finite only if d is).

    The products H' X are Hankel correlations with G by FFT of length 2N,
    minus the border slab.  Blocks of rows, from any column on, are made
    from a strided view of G minus the border, so no N x N array is formed
    until ``dense``, which is those rows in one piece.

    The border also sizes the split basis of ``spectral._factorize`` (its
    bases are listed in the ``spectral`` module docstring): the rows of H'
    past its ``border_rows`` = k are numerically of low rank where H' is not
    (rank 1-2 against 16-36 for the corpus's spherical functions read at
    another degree), so the split keeps the k unit vectors, k + 2 columns
    with its sample (61 at q = 2, 39 at q = 3, 27 at q = 5).

    Two phase classes of d make H' real up to an exact unitary congruence,
    and the operator then reads a real matrix, with real FFTs (``phase`` as
    in ``spectral._Operator``).  A real d gives a real H'.  A d with d[u] i^-u
    real (phi(n) in i^n R, as for the spherical functions with s in iR) gives
    F[u] in i^u R and H' = D H~ D, D = diag(i^u): with d~[u] = d[u] i^-u and
    F~[u] = d~[u] - c F~[u-2], the twist of the scan by -c, H~ is the window
    of (1-c) F~ minus the border (1-c) (-c)^(min(i,j)+1) F~[|i-j|-2].  A
    product by +-1 or +-i is exact, so H~ holds the bits of D* H' D*.
    """

    def __init__(self, h: "HankelMatrix", q):
        n, d = h.n, h.d
        c = 0.0 if q == INF else 1.0 / q
        if not d.imag.any():
            d = d.real.copy()
        elif not (d.imag[::2].any() or d.real[1::2].any()):  # d[u] i^-u is real: Re d, Im d, -Re d, -Im d
            u = np.arange(len(d))
            d, self.phase = np.where(u % 2, d.imag, d.real) * (1 - (u & 2)), _TURNS[u[:n] % 4]
        twist = -c if self.phase is not None else c
        f = d
        if c:
            f = d.copy()
            lag = 2
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
                while lag < len(f):  # after the lag-2^t step f[u] = sum_{s < 2^t} twist^s d[u-2s]
                    f[lag:] += twist ** (lag // 2) * f[:-lag]
                    lag *= 2
        if not _all_finite(f):
            raise NonFinite("the window or its resolvent image has NaN or infinite entries")
        self.n, self.shape, self.dtype = n, (n, n), f.dtype
        self.g = (1.0 - c) * f if c else f
        self._view = _window_view(self.g, n)
        self.border = np.zeros((0, n), dtype=f.dtype)
        k = self.border_rows = _border_width(c, n)
        if k:
            # border[i, j] = p[min(i,j)] F[|i-j|-2]: row i of the Toeplitz
            # matrix t[i, j] = z[n-1+j-i] = F[|i-j|-2], weighted by p[i] from
            # the diagonal on and by w[i, j] = p[min(i,j)] on the first k columns
            p, w = _border_weights(twist, k)
            head = f[: max(n - 2, 0)]
            z = np.zeros(2 * n - 1, dtype=f.dtype)
            z[n + 1 :], z[: len(head)] = head, head[::-1]
            t = _window_view(z, n)[::-1][:k]
            self.border = np.empty((k, n), dtype=f.dtype)
            np.multiply(w, t[:, :k], out=self.border[:, :k])
            np.multiply(p[:, None], t[:, k:], out=self.border[:, k:])

    @cached_property
    def _transforms(self):
        """(forward, inverse, G's transform): real FFTs for a real G."""
        fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(self.g) else (np.fft.rfft, np.fft.irfft)
        return fft, ifft, fft(self.g, 2 * self.n)

    def matmul(self, x):
        n, k = self.n, len(self.border)
        if np.iscomplexobj(x) and not np.iscomplexobj(self.g):
            return self.matmul(x.real) + 1j * self.matmul(x.imag)
        fft, ifft, g_hat = self._transforms
        # y[i] = sum_j G[i+j] x[j] is entry n-1+i of the convolution of G with x reversed
        y = ifft(fft(x[::-1].T, 2 * n) * g_hat, 2 * n)[:, n - 1 : 2 * n - 1].T
        if k:
            y[:k] -= self.border @ x
            y[k:] -= self.border[:, k:].T @ x[:k]
        return y

    def _subtract_border(self, row: int, col: int, out: np.ndarray) -> None:
        k, stop, col_stop = len(self.border), row + len(out), col + out.shape[1]
        if row < k:
            top = min(stop, k)
            out[: top - row] -= self.border[row:top, col:col_stop]
        if stop > k and col < k:
            lo, left = max(row, k), min(col_stop, k)
            out[lo - row :, : left - col] -= self.border[col:left, lo:stop].T

    def subtract_block(self, row, col, out):
        np.subtract(self._view[row : row + len(out), col : col + out.shape[1]], out, out=out)
        self._subtract_border(row, col, out)

    def dense(self):
        a = self._view.copy()
        self._subtract_border(0, 0, a)
        if not _all_finite(a):  # F is finite, but G - border may still overflow
            raise NonFinite("the resolvent image has NaN or infinite entries")
        return a


def apply_resolvent(h: np.ndarray, q: int) -> np.ndarray:
    """H' = (1-1/q) sum_k q^{-k} S^k H S*^k restricted to the window (exact there).

    h'[i,j] = (1-1/q) * sum_{k=0..min(i,j)} q^{-k} h[i-k, j-k]; the sum
    terminates inside the window, so no truncation error is introduced here.
    The plain matrix h runs the recurrence along its diagonals as a
    log-depth scan: after the step of lag 2^t, entry (i, j) holds the sum
    over k < 2^(t+1).  It is the reference that is independent of
    :class:`_ResolventImage`, which reads a window's image in blocks.
    """
    q = check_degree(q)
    if q == INF:
        raise ValueError("the resolvent step applies to finite degree only")
    acc = as_cmatrix(h).copy()
    inv_q = 1.0 / q
    lag = 1
    while lag < min(acc.shape):
        acc[lag:, lag:] += inv_q ** lag * acc[:-lag, :-lag]
        lag *= 2
    acc *= 1.0 - inv_q
    return acc


# ---------------------------------------------------------------------------
# parity limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityDecomposition:
    """phi(n) = c_plus + c_minus*(-1)**n + psi(n) with psi -> 0 (``extract_parity``)."""

    c_plus: complex
    c_minus: complex
    certified_error: float


def extract_parity(sym: RadialSymbol, h: HankelMatrix) -> ParityDecomposition:
    """The envelope's declared c_plus and c_minus, exact, for a certified tail;
    without one the absolutely convergent diagonal series of the window,

    lim phi(2i) = phi(0) - sum_i h[i,i],  lim phi(2i+1) = phi(1) - sum_i h[i+1,i],

    with ``certified_error`` their change from the half window (tested by ``_doubling_window``).
    """
    env = sym._env
    if env is not None:
        return ParityDecomposition(c_plus=env.c_plus, c_minus=env.c_minus, certified_error=0.0)
    d, n = h.d, h.n
    # h[i,i] = d[2i] for i < n and h[i+1,i] = d[2i+1] for i < n-1
    diag_sum = complex(np.sum(d[0 : 2 * n - 1 : 2]))
    sub_sum = complex(np.sum(d[1 : 2 * n - 2 : 2]))
    half = max(n // 2, 1)
    diag_half = complex(np.sum(d[0 : 2 * half - 1 : 2]))
    sub_half = complex(np.sum(d[1 : 2 * half - 2 : 2]))
    tail_err = abs(diag_sum - diag_half) + abs(sub_sum - sub_half)
    phi = sym.values(2)
    lim_even = complex(phi[0]) - diag_sum
    lim_odd = complex(phi[1]) - sub_sum
    c_plus = 0.5 * (lim_even + lim_odd)
    c_minus = 0.5 * (lim_even - lim_odd)
    return ParityDecomposition(c_plus=c_plus, c_minus=c_minus, certified_error=tail_err)


# ---------------------------------------------------------------------------
# one window of the pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Budget:
    """The error terms of an N-window: Hankel tail, resolvent spill (0 at q = inf)
    and SVD allowance, the first two inf when uncertified.  ``parity`` is 0.0,
    kept for the schema: a certified tail declares its parity limits."""

    tail: float
    spill: float
    parity: float
    svd: float

    @property
    def total(self) -> float:
        return self.tail + self.spill + self.svd


def _budget(sym: RadialSymbol, q, n: int) -> _Budget:
    """The error budget of the N-window, from the closed-form bounds alone:
    float reads of the symbol's :class:`_Majorant`, the spill its prefix
    T(N), one recurrence step per row not read before, within a few units
    of roundoff."""
    spill = 0.0 if q == INF else resolvent_spill_bound(sym, n, q)
    return _Budget(hankel_tail_bound(sym, n), spill, 0.0, _svd_allowance(n))


def _first_fit(n: int, cap: int, remainder: Callable[[int], float], limit: float) -> int:
    """The first n * 2**k that is past ``cap`` or whose remainder is at most ``limit``."""
    while n <= cap and not remainder(n) <= limit:
        n *= 2
    return n


@dataclass(frozen=True)
class _Window:
    """The N-window of H, its parity limits, the ``factorization`` of H
    (q = inf) or of H' (finite q) by ``spectral._factorize``, and the
    window's error ``budget``."""

    hankel: HankelMatrix
    parity: ParityDecomposition
    factorization: _Factorization
    budget: _Budget


def _evaluate_window(sym: RadialSymbol, q, n: int) -> _Window:
    """Build the N-window, factorize its resolvent image (H itself at q = inf),
    and extract the parity limits and the window's ``_budget``."""
    h = build_hankel(sym, n)
    factorization = _factorize(_ResolventImage(h, q))
    return _Window(hankel=h, parity=extract_parity(sym, h), factorization=factorization, budget=_budget(sym, q, n))


# ---------------------------------------------------------------------------
# the Schur norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurNormReport:
    q: float
    c_plus: complex
    c_minus: complex
    hankel_term: float
    total: float
    truncation_n: int
    certified_error: float
    certified: bool
    budget: _Budget | None
    sketch_width: int  # the width of the window's spectral._Factorization, 0 when dense


def schur_norm(sym: RadialSymbol, q, target_err: float = 1e-8) -> SchurNormReport:
    """The Schur norm from one truncation window.

    A symbol with a certified tail takes the first n = 32 * 2**k <= N_CAP
    whose ``budget`` (Hankel tail, resolvent spill and SVD allowance, all
    closed forms) is at most ``target_err``, then the first of N = n * 5/8,
    n * 6/8, n * 7/8 whose budget fits too, or N = n if none does, so N lies
    on the grid 2**a * {5, 6, 7, 8} and every FFT length 2N has no prime
    factor above 7.  It evaluates that one window
    and reports the budget's sum as ``certified_error``; if no n fits, it
    raises NoConvergence before building any window.  It raises
    NoConvergence too when ``target_err`` is under 2^-53 times the total,
    the rounding that the float total alone may carry, so no certificate
    claims less (the budget's absolute SVD allowance does not grow with the
    entries): before building any window against the envelope's
    ``norm_floor``, and after it against the total, which can lie far above
    that floor.
    Symbols without a decay certificate take every verdict from the doubling
    loop of ``_doubling_window`` and are flagged uncertified, with no budget.
    """
    q = check_degree(q)
    certified = sym._env is not None
    if certified:
        _check_rounding(target_err, sym._env.norm_floor, "at least ")
        n = _first_fit(N_START, N_CAP, lambda m: _budget(sym, q, m).total, target_err)
        if n > N_CAP:
            raise NoConvergence(f"no truncation up to the cap {N_CAP} fits the target error {target_err:.1e}")
        # right-size within the octave: the first eighth-step below n that fits
        n = next((m for m in (n * 5 // 8, n * 6 // 8, n * 7 // 8) if _budget(sym, q, m).total <= target_err), n)
        w = _evaluate_window(sym, q, n)
        err = w.budget.total
    else:
        w, err = _doubling_window(sym, q, target_err)
    parity, term = w.parity, w.factorization.trace_norm
    total = abs(parity.c_plus) + abs(parity.c_minus) + term
    if certified:
        _check_rounding(target_err, total)
    return SchurNormReport(
        q=float(q), c_plus=parity.c_plus, c_minus=parity.c_minus, hankel_term=term,
        total=total, truncation_n=w.hankel.n,
        certified_error=err, certified=certified, budget=w.budget if certified else None,
        sketch_width=w.factorization.width,
    )


def _check_rounding(target_err: float, norm: float, what: str = "") -> None:
    """Refuse a ``target_err`` under 2^-53 times the norm, or a lower bound
    on it: the rounding of the norm to a float alone may exceed it."""
    if target_err < _UNIT_ROUNDOFF * norm:
        raise NoConvergence(
            f"no truncation certifies the target error {target_err:.1e}: "
            f"the rounding of the norm, {what}{norm:.3e}, to a float alone may exceed it"
        )


def _doubling_window(sym: RadialSymbol, q, target_err: float) -> tuple[_Window, float]:
    """The verdicts on a symbol without a certified tail, in order, at each N = 32, 64,
    ...: a parity Cauchy error (``extract_parity``) above max(target_err, 1e-9) raises
    DivergentDiagonals; so do three changes of the trace norm, each over 0.7 times the
    one before and the last over ``target_err``; when |result(N) - result(N/2)| plus the
    parity error is at most ``target_err``, it returns the window and that sum plus its
    SVD allowance; past N_CAP it raises NoConvergence."""
    tol = max(target_err, 1e-9)
    n, prev_total, prev_term, diffs = N_START, None, None, []
    while n <= N_CAP:
        w = _evaluate_window(sym, q, n)
        if w.parity.certified_error > tol:
            raise DivergentDiagonals(
                "diagonal partial sums fail the Cauchy criterion at tolerance "
                f"({w.parity.certified_error:.3e} > {tol:.1e})"
            )
        term = w.factorization.trace_norm
        total = abs(w.parity.c_plus) + abs(w.parity.c_minus) + term
        if prev_total is not None:
            diff = abs(total - prev_total)
            diffs.append(abs(term - prev_term))
            d = diffs[-3:]
            if len(d) == 3 and d[2] > 0.7 * d[1] and d[1] > 0.7 * d[0] and d[2] > target_err:
                raise DivergentDiagonals(
                    "partial trace norms fail the Cauchy criterion at tolerance; "
                    f"window {n} adds {d[2]:.3e} after {d[1]:.3e}"
                )
            if diff + w.parity.certified_error <= target_err:
                return w, diff + w.parity.certified_error + w.budget.svd
        prev_total, prev_term = total, term
        n *= 2
    raise NoConvergence(f"truncation cap {N_CAP} reached before target error {target_err:.1e}")


def ma_upper_bound(sym: RadialSymbol) -> float:
    """sqrt( sum (n+1)^2 |phi(n)|^2 ), summed to certified absolute error 1e-12.

    This dominates the (not necessarily completely bounded) radial multiplier
    norm; it is finite for the lacunary counterexample even though the Schur
    norm is not.
    """
    exact = sym.tail._square_series()
    if exact is not None:
        return math.sqrt(exact)
    env = sym._env
    if env is None:
        raise DivergentSeries("tail model does not certify the weighted square series")
    if abs(env.c_plus) + abs(env.c_minus) > 0:
        raise DivergentSeries("nonzero parity limits make the weighted series diverge")
    c, x = env.c, env.r * env.r

    def remainder(m):  # c^2 sum_{k >= m} (k+1)^2 x^k
        return c * c * x ** m * (
            (m + 1) ** 2 / (1 - x) + 2 * (m + 1) * x / (1 - x) ** 2 + x * (1 + x) / (1 - x) ** 3
        )

    m = _first_fit(max(len(env.head), 8), 10_000_000, remainder, 5e-13)
    if m > 10_000_000:
        raise NoConvergence("weighted series did not certify within the term cap")
    w = (np.arange(m) + 1.0) ** 2
    return math.sqrt(float(np.sum(w * np.abs(sym.values(m)) ** 2)))


def counterexample_block_lower_bound(n: int) -> float:
    """Analytic lower bound for the truncated trace norm of the lacunary Hankel.

    The principal block for k occupies indices 3*2^(k-3) .. 5*2^(k-3); once it
    fits inside the window its antidiagonal alone forces trace norm >= 1/(4k),
    and distinct blocks pinch orthogonally.
    """
    total = 0.0
    k = 3
    while 5 * 2 ** (k - 3) <= n - 1:
        total += 1.0 / (4.0 * k)
        k += 1
    return total

