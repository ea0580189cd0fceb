"""Cross-module verification checks and the suites behind the ``verify`` CLI command.

Each ``check_*`` function is the only implementation of its check: it takes
the cases to check and returns a ``CheckResult`` (``check_subtree_sandwich``
one per degree, so that the degrees share the infinite-degree norms).
``run_suite`` calls them on small fixed inputs; the acceptance criteria and
unit tests call the same functions on their own cases and assert on
``passed`` and ``max_err``.
Float errors are combined with ``np.max``, which, unlike ``max``, keeps a
NaN, or tested case by case with ``not err <= tol``, so a NaN fails the check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .corpus import trace_class_corpus
from .disc import (
    _convolution_error,
    coeff_hankel,
    difference_sequence,
    g_from_symbol,
    gamma_coeffs,
    measure_bound,
    moments_from_g,
    optimal_measure,
    peller_sandwich,
    PolarQuadrature,
)
from .padics import PMatrix2, correspondence_check, lattice_distance
from .spherical import spherical_symbol
from .symbols import INF, build_hankel, power_symbol, scale_symbol, schur_norm
from .tree import (
    build_ball,
    build_certificate,
    deltaprime_gram,
    empirical_schur_lower_bound,
    reconstruction_max_error,
    smn_entry,
)

# spherical (q, s) pairs of the kernel-reconstruction check.  s = 0.4i is not a
# multiplier at q=2 (3^2 * 0.16 >= 1), and at q=3 its decay rate |a| = 0.9026
# caps an N=64 reconstruction near 3e-6, hence s = 0.2i at q=2 and N = 128.
RECONSTRUCTION_CASES = ((2, 0.2j), (3, 0.4j))
RECONSTRUCTION_N = 128
# points s of the trace-norm sandwich on the coefficients (1 - s^2) s^n
SANDWICH_POINTS = (0.3, 0.5, 0.8 * cmath.exp(1j * math.pi / 5))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "max_err", float(self.max_err))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_meeting_indices(tree) -> CheckResult:
    """On every ordered ball pair, (m, n) are the first meeting indices of the
    climb map walked step by step: m, n >= 0, c^m(x) = c^n(y) is a stored node,
    and c^(m-1)(x) != c^(n-1)(y) when m, n >= 1.  ``max_err`` counts the pairs
    that fail, so it is 0 when the check passes."""
    m_arr, n_arr = tree.all_pairs_meeting()
    climb = np.append(tree.climb, -1)  # index -1 (past the chain tip) stays at -1
    # c^(m-1)(x) and c^(n-1)(y), x and y at m, n <= 0; past n_nodes climbs every walk is at -1
    before_x = np.broadcast_to(np.arange(tree.n_ball)[:, None], m_arr.shape)
    before_y = before_x.T
    for k in range(1, min(int(max(m_arr.max(), n_arr.max())), tree.n_nodes + 1)):
        before_x = np.where(k < m_arr, climb[before_x], before_x)
        before_y = np.where(k < n_arr, climb[before_y], before_y)
    at_x = np.where(m_arr >= 1, climb[before_x], before_x)
    at_y = np.where(n_arr >= 1, climb[before_y], before_y)
    fails = (m_arr < 0) | (n_arr < 0) | (at_x < 0) | (at_x != at_y)
    fails |= (m_arr >= 1) & (n_arr >= 1) & (before_x == before_y)
    worst = int(fails.sum())
    return CheckResult("meeting-indices-vs-distance", worst == 0, worst)


def check_chain_gram(tree, nodes) -> CheckResult:
    """S_{m,n}[i, j] equals the delta' Gram of c^i(x), c^j(y) exactly, for x, y in ``nodes``, i, j < 5."""
    nodes = np.asarray(nodes)
    chains = [nodes]
    for _ in range(4):  # chains[a, i] = c^i(nodes[a]); an orbit past the chain tip makes the Gram raise
        chains.append(tree.climb[chains[-1]])
    chains = np.stack(chains, axis=1)
    # axes (x, y, i, j)
    m, n = tree.meeting(nodes[:, None, None, None], nodes[None, :, None, None])
    i = np.arange(5)
    gram = deltaprime_gram(tree, chains[:, None, :, None], chains[None, :, None, :])
    worst = np.max(np.abs(smn_entry(tree.q, m, n, i[:, None], i[None, :]) - gram))
    return CheckResult("chain-gram-closed-form", worst == 0.0, worst)


def check_kernel_reconstruction(q: int, s: complex, radius: int) -> CheckResult:
    """The spherical certificate reproduces phi(d(x, y)) to 1e-8 on every pair of the ball."""
    sym = spherical_symbol(q, s=s)
    cert = build_certificate(sym, q, RECONSTRUCTION_N)
    ball = build_ball(q, radius, chain_extra=RECONSTRUCTION_N + 1)
    err = reconstruction_max_error(cert, ball, sym)
    return CheckResult(f"kernel-reconstruction-q{q}", err <= 1e-8, err)


def check_sampled_lower_bound(symbols, q: int, target_err: float) -> CheckResult:
    """The lower bound on the radius-3 ball is <= the norm + 1e-9 for each symbol."""
    worst = 0.0
    failed = []
    ball = build_ball(q, 3, chain_extra=4)
    for sym in symbols:
        bound = empirical_schur_lower_bound(sym, ball)
        gap = bound - schur_norm(sym, q, target_err=target_err).total
        worst = max(worst, gap)
        if not gap <= 1e-9:
            failed.append(sym.name)
    return CheckResult("sampled-lower-bound", not failed, worst, ", ".join(failed))


def check_gamma_convolution(n_max: int) -> CheckResult:
    """sum_i gamma_i gamma_{n-i} = (n+1)(n+2)/2 to 1e-10 relative, for every n <= n_max."""
    g = gamma_coeffs(n_max)
    worst = np.max([_convolution_error(g[: n + 1]) for n in range(n_max + 1)])
    return CheckResult("gamma-convolution", worst <= 1e-10, worst)


def check_trace_norm_sandwich(points, quad) -> CheckResult:
    """For c_n = (1 - s^2) s^n, s in ``points``: ||H_c||_1 <= disc integral
    <= (8/pi) ||H_c||_1 within a certified slack of at most 1e-4; reports the largest slack."""
    ok = True
    slacks = []
    for s in points:
        coeffs = scale_symbol(power_symbol(s), 1.0 - s * s)
        rep = peller_sandwich(coeff_hankel(coeffs, 96), g_from_symbol(coeffs), quad, target_err=1e-6)
        ok = ok and rep.holds and rep.slack <= 1e-4
        slacks.append(rep.slack)
    return CheckResult("trace-norm-sandwich", ok, np.max(slacks))


def check_moment_round_trip(symbols, quad) -> CheckResult:
    """The 6x6 Hankel window of phi equals the moments of g(diff phi), to 1e-8."""
    idx = np.add.outer(np.arange(6), np.arange(6))
    worst = np.max([
        np.abs(build_hankel(sym, 6).entries - moments_from_g(g_from_symbol(difference_sequence(sym)), quad, 10)[idx])
        for sym in symbols
    ])
    return CheckResult("moment-round-trip", worst <= 1e-8, worst)


def check_optimal_measure(sym, quad) -> CheckResult:
    """The optimal measure of g(diff phi) reproduces phi(0..64) to 1e-6 and bounds the norm."""
    mu = optimal_measure(g_from_symbol(difference_sequence(sym)), quad)
    rep = measure_bound(sym, mu, match_tol=1e-6)
    return CheckResult("optimal-measure", rep.matches and rep.bound_holds, rep.max_mismatch)


def check_elementary_divisors(qs, powers: int) -> CheckResult:
    """d(I, diag(q^i, q^j)) = |i - j| for i, j < ``powers``."""
    worst = 0
    for q in qs:
        ident = PMatrix2.from_rationals(q, [[1, 0], [0, 1]])
        for i in range(powers):
            for j in range(powers):
                d = lattice_distance(ident, PMatrix2.from_rationals(q, [[q ** i, 0], [0, q ** j]]))
                worst = max(worst, abs(d - abs(i - j)))
    return CheckResult("elementary-divisor-distance", worst == 0, worst)


def check_chain_powers(qs) -> CheckResult:
    """d(I, diag(q, 1)^n) = n for n <= 10."""
    worst = 0
    for q in qs:
        ident = PMatrix2.from_rationals(q, [[1, 0], [0, 1]])
        y = PMatrix2.from_rationals(q, [[q, 0], [0, 1]])
        lam = ident
        for n in range(11):
            worst = max(worst, abs(lattice_distance(ident, lam) - n))
            lam = lam @ y
    return CheckResult("chain-powers-distance", worst == 0, worst)


def check_left_invariance(q: int, a_rows, b_rows, rng, draws: int, scales=()) -> CheckResult:
    """d(ga, gb) = d(a, b) for ``draws`` random integer g and d(a, q^k b) = d(a, b) for k in ``scales``."""
    a = PMatrix2.from_rationals(q, a_rows)
    b = PMatrix2.from_rationals(q, b_rows)
    base = lattice_distance(a, b)
    worst = 0
    for _ in range(draws):
        while True:
            m = rng.integers(-9, 10, size=4)
            if m[0] * m[3] - m[1] * m[2] != 0:
                break
        g = PMatrix2.from_rationals(q, [[int(m[0]), int(m[1])], [int(m[2]), int(m[3])]])
        worst = max(worst, abs(lattice_distance(g @ a, g @ b) - base))
    for k in scales:
        scale = PMatrix2.from_rationals(q, [[Fraction(q) ** k, 0], [0, Fraction(q) ** k]])
        worst = max(worst, abs(lattice_distance(a, scale @ b) - base))
    return CheckResult("left-invariance", worst == 0, worst)


def check_group_tree_correspondence(qs, rng, draws: int, im_span: float, extra_z=()) -> CheckResult:
    """The group spherical function matches the tree one to 1e-9, per q at
    ``draws`` random z (Re z in (0.05, 0.95), |Im z| < im_span), then at the
    confluent point 0.5 + i pi / log q, then at each of ``extra_z``."""
    errs = []
    for q in qs:
        zs = [complex(rng.uniform(0.05, 0.95), rng.uniform(-im_span, im_span)) for _ in range(draws)]
        errs.extend(correspondence_check(q, z, 20) for z in (*zs, 0.5 + 1j * math.pi / math.log(q), *extra_z))
    worst = np.max(errs)
    return CheckResult("group-tree-correspondence", worst <= 1e-9, worst)


def _sandwich(q: int, norm_q: float, norm_inf: float, allowance: float) -> tuple[float, bool]:
    """(slack, holds) for (q-1)/(q+1) ||phi||_inf <= ||phi||_q <= ||phi||_inf:
    slack is the larger excess of a left side over its right side, and the
    sandwich holds when each side holds with ``allowance`` added to its right."""
    low = (q - 1.0) / (q + 1.0) * norm_inf
    slack = max(low - norm_q, norm_q - norm_inf)
    return slack, low <= norm_q + allowance and norm_q <= norm_inf + allowance


def check_subtree_sandwich(symbols, qs) -> list[CheckResult]:
    """For each q in ``qs``: (q-1)/(q+1) ||phi||_inf <= ||phi||_q <= ||phi||_inf,
    each side within both certified errors plus 1e-7, and within 1e-6;
    ||phi||_inf is computed once per symbol for all of ``qs``."""
    worst = dict.fromkeys(qs, 0.0)
    failed = {q: [] for q in qs}
    for sym in symbols:
        rep_inf = schur_norm(sym, INF, target_err=1e-7)
        for q in qs:
            rep_q = schur_norm(sym, q, target_err=1e-7)
            allowance = rep_q.certified_error + rep_inf.certified_error + 1e-7
            slack, holds = _sandwich(q, rep_q.total, rep_inf.total, allowance)
            worst[q] = max(worst[q], slack)
            if not (holds and slack <= 1e-6):
                failed[q].append(sym.name)
    return [CheckResult(f"subtree-sandwich-q{q}", not failed[q], worst[q], ", ".join(failed[q])) for q in qs]


def _tree_suite(seed: int) -> list[CheckResult]:
    checks = [check_meeting_indices(build_ball(3, 3, chain_extra=4))]
    rng = np.random.default_rng(seed)
    ext = build_ball(3, 3, chain_extra=9)
    checks.append(check_chain_gram(ext, rng.choice(ext.n_ball, size=10, replace=False)))
    checks.extend(check_kernel_reconstruction(q, s, radius=3) for q, s in RECONSTRUCTION_CASES)
    checks.append(check_sampled_lower_bound(trace_class_corpus()[:6], q=2, target_err=1e-8))
    return checks


def _peller_suite(seed: int) -> list[CheckResult]:
    quad = PolarQuadrature()
    return [
        check_gamma_convolution(50),
        check_trace_norm_sandwich(SANDWICH_POINTS, quad),
        check_moment_round_trip((power_symbol(0.5), power_symbol(0.37 + 0.4j)), quad),
        check_optimal_measure(power_symbol(0.45 - 0.3j), quad),
    ]


def _padic_suite(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_elementary_divisors((2, 3, 5), powers=4),
        check_chain_powers((3,)),
        check_left_invariance(3, [[9, 1], [0, 2]], [[3, 0], [1, "1/3"]], rng, draws=8),
        check_group_tree_correspondence((2, 3, 5), rng, draws=4, im_span=1.5),
    ]


def _sandwich_suite(seed: int) -> list[CheckResult]:
    return check_subtree_sandwich(trace_class_corpus(), (2, 3))


_RUNNERS = {
    "tree": _tree_suite,
    "peller": _peller_suite,
    "padic": _padic_suite,
    "sandwich": _sandwich_suite,
}
SUITES = (*_RUNNERS, "all")


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if name == "all":
        return SuiteReport(suite="all", checks=[c for run in _RUNNERS.values() for c in run(seed)])
    return SuiteReport(suite=name, checks=_RUNNERS[name](seed))
