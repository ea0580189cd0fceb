"""Disc-integral representation of trace-class Hankel matrices.

For a coefficient sequence (c_n) the Hankel matrix h[i,j] = c_{i+j} is trace
class iff g(z) = sum (n+1)(n+2) c_n z^n is integrable on the unit disc, with

    ||H||_1  <=  (1/pi) int_D |g|  <=  (8/pi) ||H||_1,

and the entries are recovered from the moments
h[i,j] = (1/pi) int_D g(conj z) z^(i+j) (1-|z|^2) dA.  Atomic measures on the
disc give computable Schur-norm upper bounds for radial kernels:
phi(n) = c+ + c-(-1)^n + int z^n dmu implies
||phi||_S <= |c+| + |c-| + int |1-z^2|/(1-|z|^2) d|mu|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, UndeclaredTail
from .spectral import _svd_allowance, trace_norm
from .symbols import (
    INF,
    HankelMatrix,
    RadialSymbol,
    _Envelope,
    _Majorant,
    _ResolventImage,
    _first_fit,
    schur_norm,
)

EIGHT_OVER_PI = 8.0 / math.pi


# ---------------------------------------------------------------------------
# gamma coefficients of (1-z)^(-3/2)
# ---------------------------------------------------------------------------

def gamma_coeffs(n: int) -> np.ndarray:
    """gamma_0..gamma_n with gamma_0 = 1 and gamma_k = gamma_{k-1} (k+1/2)/k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n + 1)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (k + 0.5) / k
    return out


def _convolution_error(g: np.ndarray) -> float:
    """Relative error of sum_i gamma_i gamma_{n-i} against (n+1)(n+2)/2, from
    g = gamma_0..gamma_n, a prefix of any longer table."""
    n = len(g) - 1
    conv = float(np.sum(g * g[::-1]))
    target = (n + 1.0) * (n + 2.0) / 2.0
    return abs(conv - target) / target


# ---------------------------------------------------------------------------
# coefficient sequences and the analytic function g
# ---------------------------------------------------------------------------

def difference_sequence(sym: RadialSymbol) -> RadialSymbol:
    """c_n = phi(n) - phi(n+2); parity layers cancel, tails transform."""
    env = sym._env
    if env is None:
        raise UndeclaredTail("difference sequence needs a certified tail")

    def values_fn(count):
        vals = sym.values(count + 2)
        return vals[:count] - vals[2:]

    return RadialSymbol(
        tail=_Envelope(0j, 0j, values_fn(len(env.head)), env.c * (1.0 + env.r * env.r), env.r),
        name=f"diff[{sym.name}]" if sym.name else "",
        values_fn=values_fn,
    )


@dataclass(frozen=True)
class AnalyticDiscFunction:
    """g(z) = sum_n coeffs[n] z^n with |g_n| <= tail_bound (n+1)(n+2) tail_ratio^n
    for n >= len(coeffs) (tail_bound = 0 when the truncation is exact)."""

    coeffs: np.ndarray
    tail_ratio: float = 0.0
    tail_bound: float = 0.0

    def eval(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if len(self.coeffs) == 0:
            return np.zeros_like(z)
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def ring_folds(self, radii, n_theta: int) -> np.ndarray:
        """b[k, j] = sum over n = j (mod n_theta) of g_n radii[k]^n.

        Horner over blocks of n_theta coefficients, highest block first:
        acc = acc r^n_theta + block, then b = r^j acc.  Memory stays at
        len(radii) x n_theta whatever the number of coefficients; only the
        first min(len(coeffs), n_theta) columns are ever nonzero, so only
        they are multiplied.
        """
        radii = np.asarray(radii, dtype=float)
        acc = np.zeros((radii.size, n_theta), dtype=complex)
        width = min(len(self.coeffs), n_theta)
        r_block = (radii ** n_theta)[:, None]
        for start in range((len(self.coeffs) - 1) // n_theta * n_theta, -1, -n_theta):
            block = self.coeffs[start:start + n_theta]
            acc[:, :width] *= r_block
            acc[:, :len(block)] += block
        acc[:, :width] *= radii[:, None] ** np.arange(width)
        return acc

    def on_rings(self, radii, n_theta: int, conj: bool = False) -> np.ndarray:
        """g at r e^(2 pi i m / n_theta), or at its conjugate with ``conj``, for
        each r in ``radii`` (rows) and m < n_theta (columns): the ring-major
        order of ``PolarQuadrature.nodes``.  On a ring of equally spaced angles
        g is the discrete Fourier transform of its fold, so one FFT per ring
        replaces Horner's rule at every node."""
        folds = self.ring_folds(radii, n_theta)
        if conj:
            return np.fft.fft(folds, axis=1)
        return np.fft.ifft(folds, axis=1, norm="forward")

    def remainder_bound(self, rho: float) -> float:
        """Bound on the dropped tail sup_{|z|<=rho} |sum_{n>=M} g_n z^n|."""
        if self.tail_bound == 0.0:
            return 0.0
        x = self.tail_ratio * rho
        if x >= 1.0:
            return math.inf
        m = len(self.coeffs)
        # sum_{n>=m} (n+1)(n+2) x^n = x^m [ (m+1)(m+2)/(1-x) + (2m+3)x/(1-x)^2 + x(1+x)/(1-x)^3 ]
        head = (
            (m + 1) * (m + 2) / (1 - x)
            + (2 * m + 3) * x / (1 - x) ** 2
            + x * (1 + x) / (1 - x) ** 3
        )
        return self.tail_bound * x ** m * head


# coefficients g keeps past the cut where its coefficient bound drops below 1e-22
EXTRA_TERMS = 32


def g_from_symbol(coeff_seq: RadialSymbol) -> AnalyticDiscFunction:
    """g_n = (n+1)(n+2) c_n from a tail-certified coefficient sequence."""
    env = coeff_seq._env
    if env is None or abs(env.c_plus) + abs(env.c_minus) > 0:
        raise UndeclaredTail("g requires a certified coefficient tail that decays to 0")
    m = len(env.head)
    if env.c > 0.0:
        # cut where the coefficient bound alone drops below 1e-22, or at the first count past 200,000
        m = _first_fit(max(m, 64), 199_999, lambda m: env.c * (m + 1) * (m + 2) * env.r ** m, 1e-22)
        m += EXTRA_TERMS
    n = np.arange(m)
    coeffs = (n + 1.0) * (n + 2.0) * coeff_seq.values(m)
    return AnalyticDiscFunction(coeffs=coeffs, tail_ratio=env.r, tail_bound=env.c)


# ---------------------------------------------------------------------------
# polar quadrature on the unit disc
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _radial_rule(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only radii sqrt(u) and weights of the n_r-point Gauss-Legendre rule in u = r^2 on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    radii = np.sqrt(0.5 * (x + 1.0))
    wu = 0.5 * w
    radii.setflags(write=False)
    wu.setflags(write=False)
    return radii, wu


class PolarQuadrature:
    """Tensor quadrature for (1/pi) int_D F(z) dA.

    Radially Gauss-Legendre in u = r^2 (so z^a conj(z)^b (1-|z|^2) is integrated
    exactly for a = b <= 2 n_r - 2), uniform trapezoid in the angle (exact for
    |a - b| < n_theta).  All nodes are strictly interior, so integrands with
    boundary blow-up are only ever sampled inside the disc.  The nodes are
    n_r rings (``radii``, with weights ``radial_weights``) of n_theta equally
    spaced angles each, in ring-major order.
    """

    def __init__(self, n_r: int = 80, n_theta: int = 256, validate: bool = True):
        if n_r < 2 or n_theta < 4:
            raise ValueError("quadrature needs n_r >= 2 and n_theta >= 4")
        self.n_r = n_r
        self.n_theta = n_theta
        self.radii, self.radial_weights = _radial_rule(n_r)
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        self.nodes = (self.radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
        self.weights = np.repeat(self.radial_weights / n_theta, n_theta)
        self.max_radius = float(self.radii.max())
        if validate:
            self._validate()

    def _validate(self):
        """The moments of z^a conj(z)^b (1-|z|^2) for a, b <= 12 are exact to 1e-12."""
        # each is a radial sum of r^(a+b) times the angular mean of e^(i (a-b) theta)
        max_deg = 12
        deg = np.arange(max_deg + 1)
        radial = (self.radial_weights * (1.0 - self.radii ** 2)) @ self.radii[:, None] ** np.arange(2 * max_deg + 1)
        theta = 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
        angular = np.exp(1j * np.outer(np.arange(-max_deg, max_deg + 1), theta)).mean(axis=1)
        moments = radial[np.add.outer(deg, deg)] * angular[np.subtract.outer(deg, deg) + max_deg]
        expect = np.diag(1.0 / ((deg + 1.0) * (deg + 2.0)))
        if not np.allclose(moments, expect, atol=1e-12):
            worst = float(np.max(np.abs(moments - expect)))
            raise NoConvergence(f"quadrature failed moment validation: max error {worst:.3e}")

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


@dataclass(frozen=True)
class DiscIntegral:
    """A disc integral at the finest grid used.  ``error_estimate`` is
    |fine - previous level| plus the coefficient remainder bound: a Richardson
    difference, an estimate and not a bound on the quadrature error."""

    value: float
    error_estimate: float
    n_r: int
    n_theta: int


# bytes of complex ring values _ring_l1 holds at once: 32 rings of 256 angles
RING_BLOCK_BYTES = 1 << 17


def _ring_l1(g: AnalyticDiscFunction, radii: np.ndarray, radial_weights: np.ndarray, n_theta: int) -> float:
    """sum of w |g| over the rings of ``radii`` with n_theta angles each.

    The rings are read in blocks of at most ``RING_BLOCK_BYTES`` of values
    (one ring at least), each by the folds and FFTs of ``on_rings``; a block's
    ring sums of |g| meet the radial weights in one dot product.  So the
    memory stays at a few blocks whatever the grid.
    """
    rows = max(1, RING_BLOCK_BYTES // (16 * n_theta))
    total = 0.0
    for start in range(0, radii.size, rows):
        ring_sums = np.abs(g.on_rings(radii[start:start + rows], n_theta)).sum(axis=1)
        total += float(ring_sums @ radial_weights[start:start + rows])
    return total / n_theta


# times disc_l1_norm doubles n_r and n_theta before it gives up
MAX_DOUBLINGS = 4


def disc_l1_norm(g: AnalyticDiscFunction, quad: PolarQuadrature, target_err: float = 1e-9) -> DiscIntegral:
    """(1/pi) int_D |g| by doubling n_r and n_theta until the error estimate
    meets ``target_err``.

    The estimate is |fine - prev| between consecutive levels plus the bound on
    the dropped coefficient tail at the outermost ring.  The difference is a
    Richardson estimate, not a proven bound on the quadrature error.
    """
    prev = _ring_l1(g, quad.radii, quad.radial_weights, quad.n_theta)
    n_r, n_theta = quad.n_r, quad.n_theta
    for _ in range(MAX_DOUBLINGS):
        n_r *= 2
        n_theta *= 2
        radii, radial_weights = _radial_rule(n_r)
        fine = _ring_l1(g, radii, radial_weights, n_theta)
        err = abs(fine - prev) + g.remainder_bound(float(radii.max()))
        if err <= target_err:
            return DiscIntegral(value=fine, error_estimate=err, n_r=n_r, n_theta=n_theta)
        prev = fine
    raise NoConvergence(f"disc integral error estimate stayed above {target_err:.1e} at the node cap")


def moments_from_g(g: AnalyticDiscFunction, quad: PolarQuadrature, maxdeg: int) -> np.ndarray:
    """moment[n] = (1/pi) int_D g(conj z) z^n (1-|z|^2) dA for n <= maxdeg;
    the Hankel entries are h[i,j] = moment[i+j].

    The angular sum of g(conj z) z^n on a ring of radius r is n_theta r^n
    times the fold b[r, n mod n_theta], so the quadrature sum is
    sum_r wu_r (1 - r^2) r^n b[r, n mod n_theta] for every n, aliasing included.
    """
    n = np.arange(maxdeg + 1)
    r = quad.radii[:, None]
    folds = g.ring_folds(quad.radii, quad.n_theta)[:, n % quad.n_theta]
    return np.sum((quad.radial_weights[:, None] * (1.0 - r * r)) * r ** n * folds, axis=0)


# ---------------------------------------------------------------------------
# the trace-norm sandwich
# ---------------------------------------------------------------------------

def coeff_hankel(coeff_seq: RadialSymbol, n: int) -> HankelMatrix:
    """Plain coefficient Hankel window h[i,j] = c_{i+j} with its tail bound."""
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    env = coeff_seq._env
    if env is not None and abs(env.c_plus) + abs(env.c_minus) > 0:
        raise UndeclaredTail("a nonzero parity part makes the plain coefficient Hankel non-trace-class")
    majorant = None if env is None else _Majorant(np.abs(env.head), env.c, env.r)
    return HankelMatrix(n=n, d=coeff_seq.values(2 * n - 1), majorant=majorant)


@dataclass(frozen=True)
class SandwichReport:
    lhs: float
    mid: float
    rhs: float
    holds: bool
    slack: float


def peller_sandwich(
    h: HankelMatrix, g: AnalyticDiscFunction, quad: PolarQuadrature, target_err: float = 1e-9
) -> SandwichReport:
    """Checks ||H||_1 <= (1/pi) int |g| <= (8/pi) ||H||_1 for matching data.

    ||H||_1 is read through the window operator of ``schur_norm`` at q = inf,
    which forms no N x N array where a basis certifies (``spectral``).
    ``slack`` adds the Hankel tail bound, the SVD allowance of the window
    (``spectral._svd_allowance``, shared with ``schur_norm``) and the disc
    integral's ``error_estimate``; the last is a Richardson difference (see
    ``disc_l1_norm``), so the slack is an estimate, not a proven bound.
    """
    lhs = trace_norm(_ResolventImage(h, INF))
    integral = disc_l1_norm(g, quad, target_err=target_err)
    mid = integral.value
    slack = h.tail_bound + _svd_allowance(h.n) + integral.error_estimate
    rhs = EIGHT_OVER_PI * lhs
    holds = (lhs - slack <= mid) and (mid <= rhs + EIGHT_OVER_PI * slack)
    return SandwichReport(lhs=lhs, mid=mid, rhs=rhs, holds=holds, slack=slack)


# ---------------------------------------------------------------------------
# atomic measures on the disc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscMeasure:
    """Finitely many atoms (z_j, w_j), all strictly inside the disc.

    A measure from ``optimal_measure`` also keeps its ring layout in
    ``_radii``: atom k n_theta + j sits at radii[k] e^(2 pi i j / n_theta).
    Its moments then read one table W, the per-ring inverse FFT of the
    weights, W[k, m] = sum_j w[k, j] e^(2 pi i j m / n_theta), built once:
    sum_j w_j z_j^n = sum_k radii[k]^n W[k, n mod n_theta].  Atoms without a
    layout take a running product of their powers.
    """

    atoms_z: np.ndarray
    atoms_w: np.ndarray
    c_plus: complex = 0.0
    c_minus: complex = 0.0
    _radii: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.atoms_z, dtype=complex)
        w = np.asarray(self.atoms_w, dtype=complex)
        if z.shape != w.shape or z.ndim != 1:
            raise ValueError("atoms_z and atoms_w must be matching 1-D arrays")
        if z.size and np.max(np.abs(z)) >= 1.0:
            raise ValueError("all atoms must satisfy |z| < 1")
        object.__setattr__(self, "atoms_z", z)
        object.__setattr__(self, "atoms_w", w)

    @functools.cached_property
    def _ring_table(self) -> np.ndarray:
        return np.fft.ifft(self.atoms_w.reshape(self._radii.size, -1), axis=1, norm="forward")

    def moment(self, n: int) -> complex:
        if self._radii is None:
            atoms = np.sum(self.atoms_w * self.atoms_z ** n)
        else:
            table = self._ring_table
            atoms = self._radii ** n @ table[:, n % table.shape[1]]
        return complex(self.c_plus + self.c_minus * (-1) ** n + atoms)

    def moments(self, count: int) -> np.ndarray:
        """c+ + c-(-1)^n + sum_j w_j z_j^n for n < count: from the ring table,
        or with a running weighted power for atoms without a ring layout."""
        if self._radii is not None:
            n = np.arange(count)
            table = self._ring_table
            atoms = np.sum(self._radii[:, None] ** n * table[:, n % table.shape[1]], axis=0)
            return self.c_plus + self.c_minus * np.where(n % 2, -1.0, 1.0) + atoms
        out = np.empty(count, dtype=complex)
        wpow = self.atoms_w.copy()  # w_j z_j^n, updated in place
        for n in range(count):
            out[n] = self.c_plus + self.c_minus * (-1) ** n + complex(np.sum(wpow))
            wpow *= self.atoms_z
        return out

    def mass(self) -> float:
        """sum |w_j| |1-z_j^2| / (1-|z_j|^2), the Hankel part of the norm bound."""
        z, w = self.atoms_z, self.atoms_w
        if not z.size:
            return 0.0
        return float(np.sum(np.abs(w) * np.abs(1.0 - z * z) / (1.0 - np.abs(z) ** 2)))


def _density_factor(radii: np.ndarray, n_theta: int, order: int) -> np.ndarray:
    """(1 - z^(2K+2)) / (1 - z^2), K = ``order``, at z = r e^(2 pi i j / n_theta)
    for r in ``radii`` (rows) and j < n_theta (columns), in polar form:
    1 - r^n e^(i a) = (1 - r^n) + r^n (1 - e^(i a)), with 1 - r^n by expm1,
    1 - r^2 = (1 - r)(1 + r) and 1 - e^(i a) = 2 sin^2(a/2) - i sin(a) at the
    angle index n j mod n_theta.  Both parts have nonnegative real parts, so
    nothing cancels near z = +-1, where the quotient of the two float
    differences loses its digits.  It takes len(radii) real powers and one
    table of n_theta angles."""
    n = 2 * order + 2
    j = np.arange(n_theta)
    # angles in (-pi, pi], where sin keeps its relative accuracy
    angle = 2.0 * math.pi * np.where(2 * j > n_theta, j - n_theta, j) / n_theta
    chord = 2.0 * np.sin(0.5 * angle) ** 2 - 1j * np.sin(angle)  # 1 - e^(i angle)
    r = radii[:, None]
    top = r ** n * chord[n * j % n_theta]
    top -= np.expm1(n * np.log(r))
    bottom = r * r * chord[2 * j % n_theta]
    bottom += (1.0 - r) * (1.0 + r)
    top /= bottom
    return top


def optimal_measure(
    g: AnalyticDiscFunction,
    quad: PolarQuadrature,
    c_plus: complex = 0.0,
    c_minus: complex = 0.0,
) -> DiscMeasure:
    """Discretize d mu = (1/pi) (1-|z|^2)/(1-z^2) g(conj z) dA on the grid.

    The density factor 1/(1-z^2) is applied through its degree-2K Taylor
    polynomial (1 - z^(2K+2))/(1 - z^2): the raw factor has an angular peak of
    width 1-|z|^2 near z = +-1 that no fixed grid resolves, while the
    polynomial form is integrated exactly and differs from it by the
    telescoped coefficient tail beyond index 2K.  The atoms reproduce the
    vanishing part of the symbol and their mass equals (1/pi) int |g| up to
    the same tail, realizing the (8/pi)-optimal representation.

    The grid is read ring by ring: the polynomial in polar form
    (``_density_factor``), g(conj z) by one FFT per ring, and the weights
    wu_r (1 - r^2) / n_theta once per ring.  The measure keeps the ring
    layout, so its moments take one inverse FFT per ring (see
    ``DiscMeasure``).
    """
    if g.tail_bound > 0.0 and g.tail_ratio > 0.0:
        r = g.tail_ratio
        target = 1e-10 * (1.0 - r * r) / max(g.tail_bound, 1.0)
        series_order = int(min(512, max(8, math.ceil(math.log(target) / (2.0 * math.log(r))))))
    else:
        series_order = len(g.coeffs) // 2 + 1
    radii, n_theta = quad.radii, quad.n_theta
    ring_weights = quad.radial_weights * (1.0 - radii * radii) / n_theta
    w = _density_factor(radii, n_theta, series_order)
    w *= g.on_rings(radii, n_theta, conj=True)
    w *= ring_weights[:, None]
    mu = DiscMeasure(atoms_z=quad.nodes, atoms_w=w.ravel(), c_plus=c_plus, c_minus=c_minus)
    object.__setattr__(mu, "_radii", radii)
    return mu


@dataclass(frozen=True)
class MeasureBoundReport:
    matches: bool
    max_mismatch: float
    upper: float
    schur_total: float | None
    bound_holds: bool | None


def measure_bound(sym_target: RadialSymbol, mu: DiscMeasure, match_tol: float = 1e-9) -> MeasureBoundReport:
    """Verify phi(n) = c+ + c-(-1)^n + int z^n dmu for n <= 64 and bound the
    Schur norm.

    When the moments match, the infinite-degree Schur norm is computed through
    the Hankel pipeline (to 1e-8) and checked against |c+| + |c-| + mass(mu).
    """
    count = 65
    mismatch = float(np.max(np.abs(mu.moments(count) - sym_target.values(count))))
    matches = mismatch <= match_tol
    upper = abs(mu.c_plus) + abs(mu.c_minus) + mu.mass()
    schur_total = None
    bound_holds = None
    if matches:
        rep = schur_norm(sym_target, INF, target_err=1e-8)
        schur_total = rep.total
        bound_holds = rep.total <= upper + rep.certified_error + match_tol * count
    return MeasureBoundReport(
        matches=matches,
        max_mismatch=mismatch,
        upper=upper,
        schur_total=schur_total,
        bound_holds=bound_holds,
    )
