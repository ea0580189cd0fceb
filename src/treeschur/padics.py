"""Lattice distance over Q_q and Mautner's formula.

The vertices of the degree-(q+1) tree are the homothety classes of lattices
in Q_q^2; a lattice is spanned by the columns of an invertible 2x2 matrix.
All the matrices here have rational entries, so the distance between the
lattices spanned by A and B, v(det C) - 2 min_entry_valuation(C) with
C = A^{-1}B, is exact.  Scaling a basis by a nonzero rational does not move
its lattice class, so each matrix keeps one integer multiple of itself and
the distance is read from q-adic valuations of integers.

The spherical function of the projective matrix group appears through its
explicit bi-invariant formula and coincides with the tree spherical function
under the quotient parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NotPrime, SizeCap, ZeroDenominator
from .spherical import eigenvalue_from_z, spherical_values, spherical_values_closed_form

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


# digits a string entry may have, its decimal exponent counted: "1e200000"
# (200,001 digits) is admitted.  Past q = 2 the valuation of an entry is
# quadratic in its size (see ``_ladder``), so the limit bounds its time.
MAX_ENTRY_DIGITS = 250_000


def _entry_digits(text: str) -> int:
    """The digits of a decimal string, its exponent e counted as |e| more,
    read before any integer is built (0 past a malformed exponent, which
    ``Fraction`` refuses)."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        scale = abs(int(exponent)) if exponent else 0
    except ValueError:
        scale = 0
    return sum(map(str.isdigit, mantissa)) + scale


def parse_rational(x) -> Fraction:
    """An int, Fraction, finite float or "n/d" string as an exact rational; a
    boolean is refused, and so is a string of more than ``MAX_ENTRY_DIGITS``
    digits, unbuilt."""
    if isinstance(x, bool):
        raise ValueError(f"rational input {x!r} is a boolean, not a number")
    if isinstance(x, str) and _entry_digits(x) > MAX_ENTRY_DIGITS:
        raise SizeCap(f"rational input {x[:40]!r} has more than {MAX_ENTRY_DIGITS:,} digits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ZeroDenominator(f"rational input {x!r} has denominator zero") from None
    except OverflowError:
        raise ValueError(f"rational input {x!r} is not finite") from None


def _multiplicity(n: int, q: int) -> int:
    """The largest v with q^v dividing the nonzero integer n.  At q = 2 it is
    the count of trailing zero bits, read from the lowest set bit n & -n in
    time linear in the size of n; other q take :func:`_ladder`."""
    if q == 2:
        return (n & -n).bit_length() - 1
    return _ladder(n, q)


def _ladder(n: int, q: int) -> int:
    """The largest v with q^v dividing the nonzero integer n, by division.  The
    first 8 factors of q are stripped one at a time, which is cheapest for the
    small v of most entries.  Past them n is divided by q, q^2, q^4, ... while
    they divide, then back down the same ladder, so a large v takes O(log v)
    divisions where stripping one q at a time would take v.  Each division of
    a huge n is quadratic in its size."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
        if v == 8:
            break
    else:
        return v
    ladder, power = [], q
    while n % power == 0:
        n //= power
        v += 1 << len(ladder)
        ladder.append(power)
        power *= power
    while ladder:
        power = ladder.pop()
        if n % power == 0:
            n //= power
            v += 1 << len(ladder)
    return v


def _valuation(x: Fraction, q: int) -> int:
    """q-adic valuation of a nonzero rational; q divides at most one of its
    numerator and denominator."""
    num, den = x.numerator, x.denominator
    if num % q == 0:
        return _multiplicity(num, q)
    if den % q == 0:
        return -_multiplicity(den, q)
    return 0


# ---------------------------------------------------------------------------
# 2x2 matrices and the lattice distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PMatrix2:
    """Invertible rational 2x2 matrix [[a, b], [c, d]] read over Q_q.

    On construction it keeps the integer multiple s [[a, b], [c, d]], with s
    the lcm of the four denominators, as ``_ints`` (row by row) and the q-adic
    valuation of that multiple's determinant as ``_det_valuation``; the
    integer determinant decides singularity.
    """

    q: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    _ints: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)
    _det_valuation: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.q)
        entries = (self.a, self.b, self.c, self.d)
        s = math.lcm(*(x.denominator for x in entries))
        a, b, c, d = ints = tuple(x.numerator * (s // x.denominator) for x in entries)
        det = a * d - b * c
        if det == 0:
            raise ValueError("matrix is singular")
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_det_valuation", _valuation(det, self.q))

    @cached_property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @classmethod
    def from_rationals(cls, q: int, rows) -> "PMatrix2":
        """rows = [[a, b], [c, d]] with entries int, Fraction, float or "n/d" strings."""
        (a, b), (c, d) = rows
        return cls(q, parse_rational(a), parse_rational(b), parse_rational(c), parse_rational(d))

    def __matmul__(self, other: "PMatrix2") -> "PMatrix2":
        return PMatrix2(
            _common_q(self, other),
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def _common_q(x: PMatrix2, y: PMatrix2) -> int:
    if x.q != y.q:
        raise ValueError("operands live over different residue characteristics")
    return x.q


def lattice_distance(a: PMatrix2, b: PMatrix2) -> int:
    """Tree distance of the lattice classes spanned by the columns of a and b.

    With C = a^{-1} b and m its minimal entry valuation, the elementary
    divisors of q^{-m} C are 1 and q^(v(det C) - 2m), so the distance is
    v(det C) - 2m.  Since C = adj(a) b / det a, this is
    v(det a) + v(det b) - 2 min v((adj(a) b)_ij), computed without division.

    It is read from the integer multiples A = s a and B = t b that the
    matrices keep, in integer arithmetic only: v(det A) = v(det a) + 2 v(s)
    and adj(A) B = s t adj(a) b, so the scales cancel from
    v(det A) + v(det B) - 2 min v((adj(A) B)_ij).
    """
    q = _common_q(a, b)
    a11, a12, a21, a22 = a._ints
    b11, b12, b21, b22 = b._ints
    m = (
        a22 * b11 - a12 * b21,
        a22 * b12 - a12 * b22,
        a11 * b21 - a21 * b11,
        a11 * b22 - a21 * b12,
    )
    m_min = min(_valuation(e, q) for e in m if e)
    return a._det_valuation + b._det_valuation - 2 * m_min


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
