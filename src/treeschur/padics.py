"""Bounded-precision p-adic arithmetic, lattice distance, and Mautner's formula.

Elements of Q_q are stored as q^v * unit with the unit kept modulo q^prec;
addition tracks the digits lost to cancellation, so valuations (all that the
lattice distance needs) stay certified.  Classes of 2x2 invertible matrices
modulo scalars model the vertex set of the degree-(q+1) tree: the distance
between the lattices spanned by A and B is the gap of the elementary-divisor
valuations of A^{-1}B, i.e. v(det C) - 2 min_entry_valuation(C).

The spherical function of the projective matrix group appears through its
explicit bi-invariant formula and coincides with the tree spherical function
under the quotient parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotPrime, PrecisionExhausted, ZeroDenominator
from .spherical import eigenvalue_from_z, spherical_values, spherical_values_closed_form

DEFAULT_PRECISION = 64
_EXACT_ZERO = 10 ** 18  # certainty exponent of an exact zero

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(q: int) -> int:
    if not isinstance(q, int) or not is_prime(q):
        raise NotPrime(f"{q!r} is not a prime residue characteristic")
    return q


def _valuation(n: int, q: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


@dataclass(frozen=True)
class PAdic:
    """q^v * unit with unit invertible mod q^prec.

    A zero element has unit == 0; its ``v`` then records the certainty
    exponent (the value is congruent to 0 mod q^v), which is _EXACT_ZERO for
    a true zero and finite after full cancellation in an addition.
    """

    q: int
    v: int
    unit: int
    prec: int

    @property
    def is_zero(self) -> bool:
        return self.unit == 0

    def norm(self) -> float:
        if self.is_zero:
            return 0.0 if self.v >= _EXACT_ZERO else float(self.q) ** (-self.v)
        return float(self.q) ** (-self.v)

    def valuation(self):
        return float("inf") if self.is_zero else self.v

    def digits(self) -> tuple[int, ...]:
        """Base-q digits of the unit part, least significant first."""
        out = []
        u = self.unit
        for _ in range(self.prec):
            u, r = divmod(u, self.q)
            out.append(r)
        return tuple(out)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "PAdic"):
        if self.q != other.q:
            raise ValueError("operands live over different residue characteristics")

    def __add__(self, other: "PAdic") -> "PAdic":
        self._check_same_field(other)
        q = self.q
        if self.is_zero and other.is_zero:
            return PAdic(q, min(self.v, other.v), 0, 0)
        if self.is_zero:
            # adding certified-zero noise caps the other's absolute certainty
            cert = min(self.v, other.v + other.prec)
            if cert <= other.v:
                raise PrecisionExhausted("zero summand is uncertain at the other operand's scale")
            return PAdic(q, other.v, other.unit % q ** (cert - other.v), cert - other.v)
        if other.is_zero:
            return other.__add__(self)
        v = min(self.v, other.v)
        cert = min(self.v + self.prec, other.v + other.prec)
        rel = cert - v
        if rel <= 0:
            raise PrecisionExhausted("operand uncertainties exceed the sum's leading scale")
        mod = q ** rel
        t = (self.unit * q ** (self.v - v) + other.unit * q ** (other.v - v)) % mod
        if t == 0:
            return PAdic(q, cert, 0, 0)  # cancelled beyond certified digits
        tv = _valuation(t, q)
        return PAdic(q, v + tv, (t // q ** tv) % q ** (rel - tv), rel - tv)

    def __neg__(self) -> "PAdic":
        if self.is_zero:
            return self
        return PAdic(self.q, self.v, (-self.unit) % self.q ** self.prec, self.prec)

    def __sub__(self, other: "PAdic") -> "PAdic":
        return self.__add__(-other)

    def __mul__(self, other: "PAdic") -> "PAdic":
        self._check_same_field(other)
        q = self.q
        if self.is_zero or other.is_zero:
            # 0 mod q^a times a value of valuation w is 0 mod q^(a+w)
            certs = []
            for x, y in ((self, other), (other, self)):
                if x.is_zero:
                    certs.append(min(_EXACT_ZERO, x.v + (y.v if not y.is_zero else 0)))
            return PAdic(q, min(certs), 0, 0)
        prec = min(self.prec, other.prec)
        unit = (self.unit * other.unit) % q ** prec
        return PAdic(q, self.v + other.v, unit, prec)

    def inv(self) -> "PAdic":
        if self.is_zero:
            raise ZeroDivisionError("inverting a (certified) zero p-adic element")
        mod = self.q ** self.prec
        return PAdic(self.q, -self.v, pow(self.unit, -1, mod), self.prec)

    def congruent(self, other: "PAdic", digits: int | None = None) -> bool:
        """x == y modulo q^(min certified absolute precision) (or fewer digits)."""
        self._check_same_field(other)
        diff = self - other
        if diff.is_zero:
            return True
        if digits is None:
            return False
        scale = min(x.v for x in (self, other) if not x.is_zero)
        return diff.v - scale >= digits


def padic_from_rational(q: int, numerator: int, denominator: int = 1, prec: int = DEFAULT_PRECISION) -> PAdic:
    """Exact embedding of a rational number, digits via modular inversion."""
    check_prime(q)
    if denominator == 0:
        raise ZeroDenominator("rational input with denominator zero")
    if prec < 1:
        raise ValueError("precision must be at least one digit")
    frac = Fraction(numerator, denominator)
    if frac == 0:
        return PAdic(q, _EXACT_ZERO, 0, 0)
    num, den = frac.numerator, frac.denominator
    vn = _valuation(num, q)
    vd = _valuation(den, q)
    mod = q ** prec
    unit = (num // q ** vn) * pow(den // q ** vd, -1, mod) % mod
    return PAdic(q, vn - vd, unit, prec)


def padic_zero(q: int) -> PAdic:
    check_prime(q)
    return PAdic(q, _EXACT_ZERO, 0, 0)


# ---------------------------------------------------------------------------
# 2x2 matrices and the lattice distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PMatrix2:
    """Invertible 2x2 matrix over Q_q with its determinant cached."""

    a: PAdic
    b: PAdic
    c: PAdic
    d: PAdic

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det.is_zero:
            if det.v >= _EXACT_ZERO:
                raise ValueError("matrix is singular")
            raise PrecisionExhausted("determinant vanished within the certified digits")
        object.__setattr__(self, "_det", det)

    @property
    def det(self) -> PAdic:
        return self._det

    @classmethod
    def from_rationals(cls, q: int, rows, prec: int = DEFAULT_PRECISION) -> "PMatrix2":
        """rows = [[a, b], [c, d]] with entries int, Fraction, or "n/d" strings."""

        def conv(x):
            frac = Fraction(x)
            return padic_from_rational(q, frac.numerator, frac.denominator, prec)

        (a, b), (c, d) = rows
        return cls(conv(a), conv(b), conv(c), conv(d))

    def __matmul__(self, other: "PMatrix2") -> "PMatrix2":
        return PMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "PMatrix2":
        det_inv = self.det.inv()
        return PMatrix2(
            self.d * det_inv,
            -(self.b * det_inv),
            -(self.c * det_inv),
            self.a * det_inv,
        )

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def lattice_distance(a: PMatrix2, b: PMatrix2) -> int:
    """Tree distance of the lattice classes spanned by the columns of a and b.

    With C = a^{-1} b, the elementary divisors of q^{-m} C (m the minimal
    entry valuation) are 1 and q^(v(det C) - 2m), so the distance is
    v(det C) - 2m.  Only valuations are needed; the determinant valuation
    comes exactly from the cached input determinants.
    """
    c = a.inverse() @ b
    vals = [e.v for e in c.entries() if not e.is_zero]
    if not vals:
        raise PrecisionExhausted("all entries cancelled; cannot read the minimal valuation")
    m = min(vals)
    for e in c.entries():
        if e.is_zero and e.v < _EXACT_ZERO and e.v <= m:
            raise PrecisionExhausted(
                "a cancelled entry is uncertain at the minimal-valuation scale"
            )
    det_val = b.det.v - a.det.v
    return det_val - 2 * m


# ---------------------------------------------------------------------------
# the group spherical function and the tree correspondence
# ---------------------------------------------------------------------------

def mautner_spherical(q: int, z: complex, n: int) -> complex:
    """Value of the bi-invariant spherical function at the double coset of
    diag(q, 1)^n:

        [ q^(n(z-1/2)) (q^(3/2+z) - q^(3/2-z)) - q^(-n(z-1/2)) (q^(5/2-z) - q^(1/2+z)) ]
        / [ (q+1) q^(n/2+1) (q^(z-1/2) - q^(1/2-z)) ].

    Near the removable singularity q^(z-1/2) = q^(1/2-z) the value is taken
    through the tree recurrence with eigenvalue s_z.  Prime q is the group
    case; the formula itself is evaluated for any integer degree q >= 2.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError("q must be an integer >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    z = complex(z)
    pivot = q ** (z - 0.5) - q ** (0.5 - z)
    if abs(pivot) < 1e-8:
        return complex(spherical_values(q, eigenvalue_from_z(q, z), n + 1)[n])
    num = q ** (n * (z - 0.5)) * (q ** (1.5 + z) - q ** (1.5 - z)) - q ** (-n * (z - 0.5)) * (
        q ** (2.5 - z) - q ** (0.5 + z)
    )
    den = (q + 1.0) * q ** (n / 2.0 + 1.0) * pivot
    return num / den


def correspondence_check(q: int, z: complex, n_max: int) -> float:
    """max_{0 <= n <= n_max} | group formula - tree spherical values |."""
    group_vals = np.array([mautner_spherical(q, z, n) for n in range(n_max + 1)])
    return float(np.abs(group_vals - spherical_values_closed_form(q, z, n_max + 1)).max())
