"""Spherical functions on homogeneous trees and their closed-form Schur norms.

A spherical function is the normalized radial eigenfunction of the
neighbor-average (Laplace) operator; for finite degree q+1 its values follow
phi(n+1) = s(1+1/q) phi(n) - (1/q) phi(n-1) and it is also given in closed
form through the exponent parameter z with s = (1+1/q)^{-1}(q^-z + q^(z-1)).
The kernel phi(d(x,y)) is a Schur multiplier iff s lies inside the ellipse
Re(s)^2 + ((q+1)/(q-1))^2 Im(s)^2 < 1 or s = +-1, with an explicit norm.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .symbols import (
    INF,
    Geometric,
    RadialSymbol,
    Undeclared,
    _powers,
    check_degree,
    explicit_symbol,
    parity_symbol,
)

# closed forms lose ~8 digits near the removable singularity q^-z = q^(z-1)
CONFLUENCE_EPS = 1e-8


def axis_ratio(q) -> float:
    """(q+1)/(q-1), taken as 1 for infinite degree."""
    q = check_degree(q)
    return 1.0 if q == INF else (q + 1.0) / (q - 1.0)


def ellipse_margin(q, s: complex) -> float:
    """1 - Re(s)^2 - ((q+1)/(q-1))^2 Im(s)^2; positive iff s is strictly inside.
    Where the squares overflow it is -inf, their rounded value, so a finite s
    far outside is decided like any other.  A NaN or infinite s raises
    ``ValueError``, and so does, at finite q, an s whose adjacency eigenvalue
    (q+1) s (the sum over the q+1 neighbours, as in
    q phi(n+1) + phi(n-1) = (q+1) s phi(n)) is beyond float range."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"eigenvalue must be finite, got {s}")
    q = check_degree(q)
    if q != INF and not cmath.isfinite((q + 1.0) * s):
        raise ValueError(f"eigenvalue {s} is out of range at q = {q}: (q+1) s overflows")
    x, y = s.real, axis_ratio(q) * s.imag
    return 1.0 - x * x - y * y


def eigenvalue_from_z(q: int, z: complex) -> complex:
    """s_z = (1+1/q)^{-1} (q^-z + q^(z-1)) for finite q; a z whose eigenvalue
    is beyond float range raises ``ValueError``."""
    q = check_degree(q)
    if q == INF:
        raise ValueError("the exponent parametrization applies to finite degree only")
    z = complex(z)
    try:
        s = (q ** -z + q ** (z - 1.0)) / (1.0 + 1.0 / q)
    except OverflowError:
        s = complex(math.inf)
    if not cmath.isfinite(s):
        raise ValueError(f"the eigenvalue of z = {z} is out of floating-point range")
    return s


def characteristic_roots(q, s: complex) -> tuple[complex, complex]:
    """Roots of x^2 - s(1+1/q)x + 1/q, i.e. {q^-z, q^(z-1)}; (s, 0) at q = inf."""
    q = check_degree(q)
    s = complex(s)
    if q == INF:
        return s, 0.0 + 0.0j
    tr = s * (1.0 + 1.0 / q)
    disc = cmath.sqrt(tr * tr - 4.0 / q)
    a = 0.5 * (tr + disc)
    b = 0.5 * (tr - disc)
    return (a, b) if abs(a) >= abs(b) else (b, a)


def spherical_values(q, s: complex, count: int) -> np.ndarray:
    """phi(0..count-1) by the three-term recurrence (powers of s at q = inf)."""
    q = check_degree(q)
    s = complex(s)
    if count <= 0:
        return np.zeros(0, dtype=complex)
    if q == INF:
        return _powers(s, count)
    # Python complex arithmetic gives the bits of numpy's scalars, faster, and
    # an overflow becomes inf or NaN without a warning
    coeff = s * (1.0 + 1.0 / q)
    inv_q = 1.0 / q
    out = [complex(1.0), s]
    prev, cur = out
    for _ in range(count - 2):
        prev, cur = cur, coeff * cur - inv_q * prev
        out.append(cur)
    return np.array(out[:count], dtype=complex)


def spherical_values_closed_form(q: int, z: complex, count: int) -> np.ndarray:
    """phi(n) = f(z) q^(-zn) + f(1-z) q^((z-1)n) with
    f(z) = (q+1)^{-1} (q^(1-z) - q^(z-1)) / (q^-z - q^(z-1)).

    Near the removable singularity q^-z = q^(z-1) the recurrence branch is
    used instead (the closed form degrades there).
    """
    q = check_degree(q)
    if q == INF:
        raise ValueError("closed form applies to finite degree only")
    z = complex(z)
    a = q ** -z
    b = q ** (z - 1.0)
    if abs(a - b) < CONFLUENCE_EPS:
        return spherical_values(q, eigenvalue_from_z(q, z), count)
    fz = (q ** (1.0 - z) - q ** (z - 1.0)) / ((q + 1.0) * (a - b))
    fz1 = (q ** z - q ** -z) / ((q + 1.0) * (b - a))
    n = np.arange(count)
    return fz * a ** n + fz1 * b ** n


def _confluent_sup(base: float) -> float:
    """sup_n n * base^(n/2) used to trade an (A+Bn) a^n bound for a geometric one."""
    r = math.sqrt(base)
    if r <= 0.0:
        return 1.0
    return max(1.0, 1.0 / (math.e * math.log(1.0 / r)))


def spherical_symbol(q, s: complex | None = None, z: complex | None = None) -> RadialSymbol:
    """The spherical symbol as a RadialSymbol with a certified tail model.

    Inside the multiplier ellipse the tail is geometric with ratio
    max(|q^-z|, |q^(z-1)|) (|s| at q = inf); at s = +-1 the symbol is exactly
    1 or (-1)^n, a parity layer over the zero symbol; otherwise the tail is undeclared.
    """
    q = check_degree(q)
    if (s is None) == (z is None):
        raise ValueError("provide exactly one of s or z")
    if z is not None:
        s = eigenvalue_from_z(q, z)
    s = complex(s)
    name = f"spherical(q={q}, s={s})"

    if s == 1 or s == -1:
        return parity_symbol(1.0 if s == 1 else 0.0, 1.0 if s == -1 else 0.0, explicit_symbol([]), name=name)
    if ellipse_margin(q, s) > 0.0:
        a, b = characteristic_roots(q, s)
        ratio = max(abs(a), abs(b))
        if q == INF:
            bound = 1.0
        elif a != b:
            f_a = (s - b) / (a - b)
            f_b = (a - s) / (a - b)
            bound = abs(f_a) + abs(f_b)
        else:
            # exact float confluence: phi(n) = (1 + (s/a - 1) n) a^n
            big_b = abs(s / a - 1.0) if a != 0 else 0.0
            ratio = math.sqrt(ratio)
            bound = 1.0 + big_b * _confluent_sup(abs(a))
        tail = Geometric(ratio=ratio, bound=bound * (1.0 + 1e-12))
    else:
        tail = Undeclared()

    return RadialSymbol(
        tail=tail,
        name=name,
        values_fn=lambda count: spherical_values(q, s, count),
    )


def schur_norm_in_s(q, s: complex) -> float | None:
    """|1 - s^2| / (1 - Re(s)^2 - ((q+1)/(q-1))^2 Im(s)^2) inside the ellipse,
    1 at s = +-1, None (not a multiplier) elsewhere; a non-finite s raises."""
    q = check_degree(q)
    s = complex(s)
    if s == 1 or s == -1:
        return 1.0
    margin = ellipse_margin(q, s)
    if margin <= 0.0:
        return None
    return abs(1.0 - s * s) / margin


def schur_norm_in_z(q: int, z: complex) -> float | None:
    """The exponent-parameter form of the norm on the strip 0 < Re(z) < 1:

    (1-1/q)^2 |1-q^(-2z)| |1-q^(2z-2)|
    ---------------------------------------------------
    (1-q^(-2Re z)) (1-q^(2Re z-2)) |1-q^(2i Im z - 1)|^2

    with norm 1 on the lattices Re(z)=0, Im(z) in (pi/ln q)Z and their 1-z
    mirrors; None outside the multiplier set.  Each factor 1 - q^w is taken
    as -expm1(w ln q), which keeps its relative accuracy as Re(z) nears 0 or
    1, where 1 - q^w cancels.  Off the real axis the norm grows like
    1/Re(z), so a subnormal Re(z) gives inf, its rounded value.
    """
    q = check_degree(q)
    if q == INF:
        raise ValueError("the exponent parametrization applies to finite degree only")
    z = complex(z)
    x = z.real
    if 0.0 < x < 1.0:
        lnq = math.log(q)
        # each factor over its twin at Re(z), so no subnormal one underflows
        left = float(abs(np.expm1(-2.0 * z * lnq))) / -math.expm1(-2.0 * x * lnq)
        right = float(abs(np.expm1((2.0 * z - 2.0) * lnq))) / -math.expm1((2.0 * x - 2.0) * lnq)
        return (1.0 - 1.0 / q) ** 2 / float(abs(np.expm1((2.0j * z.imag - 1.0) * lnq))) ** 2 * left * right
    if (x == 0.0 or x == 1.0) and abs(math.sin(z.imag * math.log(q))) < 1e-12:
        return 1.0
    return None


def hankel_product_sum(a: complex, b: complex, c: complex, d: complex) -> complex:
    """sum_n [(a^(n+1)-b^(n+1))/(a-b)] [(c^(n+1)-d^(n+1))/(c-d)]
    = (1-abcd) / ((1-ac)(1-bd)(1-ad)(1-bc)),

    with the confluent limits ((n+1)a^n factors) when a = b and/or c = d.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    for v in (a, b, c, d):
        if abs(v) >= 1:
            raise ValueError("all four parameters must have modulus < 1")
    a_conf = abs(a - b) < CONFLUENCE_EPS
    c_conf = abs(c - d) < CONFLUENCE_EPS
    if a_conf and c_conf:
        x = 0.5 * (a + b) * 0.5 * (c + d)
        return (1.0 + x) / (1.0 - x) ** 3
    if a_conf:
        am = 0.5 * (a + b)
        return (c / (1.0 - am * c) ** 2 - d / (1.0 - am * d) ** 2) / (c - d)
    if c_conf:
        cm = 0.5 * (c + d)
        return (a / (1.0 - a * cm) ** 2 - b / (1.0 - b * cm) ** 2) / (a - b)
    return (1.0 - a * b * c * d) / ((1.0 - a * c) * (1.0 - b * d) * (1.0 - a * d) * (1.0 - b * c))
