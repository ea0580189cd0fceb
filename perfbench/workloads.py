"""Seeded item lists for the three benchmark workloads.

A workload is a fixed list of items generated from the seed; a run repeats
passes over that list, one call at a time.  Every item builds its library
inputs once (``build``), makes one measured call (``run``) and is gated
against a reference computed outside the library (``reference``/``check``).
The library sees only the generated inputs.  Why each workload exists is
written down in NOTES.md beside this file.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import treeschur as ts

import gate
from gate import INF

TARGET_ERR = 1e-8
WORKLOADS = ("hankel-boundary", "hankel-sweep", "routes")

# A run of S seconds makes round(S / PASS_SECONDS) passes, so every run of one
# length does the same work whatever the seed or the load.  A pass takes about
# 14, 0.75 and 4.2 s on the reference machine (2-vCPU Xeon, one BLAS thread);
# routes gets more passes per second, because its service times, dominated by
# one 2 s reconstruction, need more repeats to settle.
PASS_SECONDS = {"hankel-boundary": 13.8, "hankel-sweep": 0.7, "routes": 3.0}


@dataclass
class Item:
    id: str
    kind: str
    params: dict
    build: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], gate.Verdict]
    reference: Callable[[], Any] = lambda: None
    once: bool = False  # run in the first pass only (the known-defect probes)
    warm: bool = True  # part of the warm-up pass
    defect: str | None = None  # tag in gate.KNOWN_DEFECTS


def _qname(q) -> str:
    return "inf" if q == INF else str(q)


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _eigenvalue_from_z(q: int, z: complex) -> complex:
    return (q ** -z + q ** (z - 1.0)) / (1.0 + 1.0 / q)


def _norm_item(item_id, params, make, q, reference, expect="value", allow_refusal=False, **kw) -> Item:
    def run(sym):
        return ts.schur_norm(sym, q, target_err=TARGET_ERR)

    def check(outcome, ref):
        return gate.check_norm(outcome, ref, TARGET_ERR, expect=expect, allow_refusal=allow_refusal)

    return Item(item_id, "norm", {**params, "q": _qname(q)}, make, run, check, reference, **kw)


def _closed_form(q, s):
    def ref():
        value = ts.schur_norm_in_s(q, s)
        return value, gate.ref_tolerance(value)

    return ref


# ---------------------------------------------------------------------------
# hankel-boundary
# ---------------------------------------------------------------------------

# (q, final window, items per pass, band) with the band on Re z for finite q
# (tail ratio q^-Re z) and on |s| for q = inf.  Every seed draws the same
# number of points from each band, so every seed has the same window mix.
# Per pass: more 512 items than all others, so the median is a 512 window; and
# eleven or more 1024/2048 items in two passes, so the tail is a 1024 window.
BOUNDARY_STRATA = (
    (3, 2048, 1, (0.016, 0.024)),
    (2, 1024, 2, (0.050, 0.072)),
    (3, 1024, 2, (0.032, 0.046)),
    (INF, 1024, 1, (0.953, 0.966)),
    (2, 512, 3, (0.090, 0.140)),
    (3, 512, 3, (0.058, 0.085)),
    (INF, 512, 3, (0.910, 0.940)),
)


def boundary_point(rng, q, band) -> complex:
    """A spherical eigenvalue just inside the multiplier ellipse."""
    u = rng.uniform(*band)
    t = rng.uniform(0.0, 1.0)
    if q == INF:
        return complex(u * cmath.exp(2j * math.pi * t))
    return complex(_eigenvalue_from_z(q, complex(u, 2.0 * math.pi * t / math.log(q))))


def boundary_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    items = []
    for q, window, count, band in BOUNDARY_STRATA:
        for k in range(count):
            s = boundary_point(rng, q, band)
            items.append(_norm_item(
                f"boundary/q{_qname(q)}/N{window}/{k}",
                {"s": _c(s), "window": window},
                lambda q=q, s=s: ts.spherical_symbol(q, s=s),
                q,
                _closed_form(q, s),
                warm=window == 512,
            ))
    return items


# ---------------------------------------------------------------------------
# hankel-sweep
# ---------------------------------------------------------------------------

SWEEP_Q = (2, 3, 5, INF)


def _unit(rng) -> complex:
    return complex(cmath.exp(2j * math.pi * rng.uniform()))


def _values_fn(values):
    v = np.asarray(values, dtype=complex)

    def fn(count):
        out = np.zeros(count, dtype=complex)
        take = min(count, len(v))
        out[:take] = v[:take]
        return out

    return fn


def _finite_reference(values, q, parity=(0j, 0j)):
    """Exact finite Hankel at q = inf, dense window at finite q."""
    def ref():
        if q == INF:
            value, _ = gate.finite_hankel_reference(values)
            value += abs(parity[0]) + abs(parity[1])
            return value, gate.ref_tolerance(value)
        return gate.dense_reference(_values_fn(values), q, 0.0, parity)

    return ref


def _power_reference(s, q, parity=(0j, 0j)):
    def ref():
        if q == INF and parity == (0j, 0j):
            return _closed_form(INF, s)()
        return gate.dense_reference(lambda count: s ** np.arange(count), q, abs(s), parity)

    return ref


def _damped_cosine(d: float, w: float):
    return lambda n: d ** n * math.cos(w * n)


def sweep_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    items: list[Item] = []
    corpus: list = []

    def corpus_symbol(k):
        if not corpus:
            corpus.extend(ts.trace_class_corpus())
        return corpus[k]

    def corpus_reference(k, q):
        def ref():
            values = corpus_symbol(k).values
            parity, ratio = gate.estimate_decay(values)
            return gate.dense_reference(values, q, ratio, parity)

        return ref

    for k in range(10):
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/corpus/{k}/q{_qname(q)}", {"corpus_index": k},
                lambda k=k: corpus_symbol(k), q, corpus_reference(k, q),
            ))

    for k in range(6):
        length = int(rng.integers(4, 49))
        vals = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) * 0.9 ** np.arange(length)
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/explicit-finite/{k}/q{_qname(q)}", {"values": [_c(v) for v in vals]},
                lambda vals=vals: ts.explicit_symbol(list(vals)), q, _finite_reference(vals, q),
            ))

    for k in range(5):
        length = int(rng.integers(20, 61))
        ratio, bound = float(rng.uniform(0.3, 0.6)), float(rng.uniform(0.5, 2.0))
        vals = np.array([bound * ratio ** n * rng.uniform(0.5, 1.0) * _unit(rng) for n in range(length)])
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/explicit-geometric/{k}/q{_qname(q)}",
                {"values": [_c(v) for v in vals], "ratio": ratio, "bound": bound},
                lambda vals=vals, r=ratio, c=bound: ts.explicit_symbol(list(vals), tail=ts.Geometric(ratio=r, bound=c)),
                q, _finite_reference(vals, q),
            ))

    for k in range(5):
        s = complex(rng.uniform(0.2, 0.6) * _unit(rng))
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/power/{k}/q{_qname(q)}", {"s": _c(s)},
                lambda s=s: ts.power_symbol(s), q, _power_reference(s, q),
            ))

    for q in SWEEP_Q:
        for k in range(5):
            if q == INF:
                s = complex(rng.uniform(0.3, 0.6) * _unit(rng))
            else:
                z = complex(rng.uniform(0.36, 0.46), rng.uniform(0.0, 2.0 * math.pi / math.log(q)))
                s = complex(_eigenvalue_from_z(q, z))
            items.append(_norm_item(
                f"sweep/spherical/q{_qname(q)}/{k}", {"s": _c(s)},
                lambda q=q, s=s: ts.spherical_symbol(q, s=s), q, _closed_form(q, s),
            ))

    for k in range(4):
        c_plus = complex(rng.uniform(0.0, 2.0) * _unit(rng))
        c_minus = complex(rng.uniform(0.0, 2.0) * _unit(rng))
        s = complex(rng.uniform(0.2, 0.6) * _unit(rng))
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/parity/{k}/q{_qname(q)}", {"c_plus": _c(c_plus), "c_minus": _c(c_minus), "s": _c(s)},
                lambda cp=c_plus, cm=c_minus, s=s: ts.parity_symbol(cp, cm, ts.power_symbol(s)),
                q, _power_reference(s, q, (c_plus, c_minus)),
            ))

    for k in range(4):
        d, w = float(rng.uniform(0.25, 0.45)), float(rng.uniform(0.3, 3.0))
        for q in SWEEP_Q:
            items.append(_norm_item(
                f"sweep/undeclared/{k}/q{_qname(q)}", {"decay": d, "freq": w},
                lambda d=d, w=w: ts.RadialSymbol(fn=_damped_cosine(d, w)),
                q, _dense_cosine_reference(d, w, q),
            ))

    for q in SWEEP_Q:
        items.append(_norm_item(
            f"sweep/lacunary/q{_qname(q)}", {}, ts.lacunary_counterexample, q, lambda: None,
            expect="not_multiplier",
        ))

    items.extend(defect_items())
    return items


def _dense_cosine_reference(d, w, q):
    def ref():
        return gate.dense_reference(lambda count: d ** np.arange(count) * np.cos(w * np.arange(count)), q, d)

    return ref


def defect_items() -> list[Item]:
    """The two confirmed defects, run once per measurement so that they stay
    well under a tenth of the items and the latency percentiles stay finite."""
    items = []
    for q in (3, INF):
        items.append(_norm_item(
            f"sweep/defect/undeclared-0.6/q{_qname(q)}", {"decay": 0.6, "freq": 1.0},
            lambda: ts.RadialSymbol(fn=_damped_cosine(0.6, 1.0)), q, _dense_cosine_reference(0.6, 1.0, q),
            once=True, defect="undeclared-tail-rejected",
        ))
    spike = np.zeros(400, dtype=complex)
    spike[0], spike[300] = 1.0, 0.5
    items.append(_norm_item(
        "sweep/defect/declared-geometric-spike/qinf", {"values": "phi(0)=1, phi(300)=0.5, length 400",
                                                      "ratio": 0.1, "bound": 1.0},
        lambda: ts.explicit_symbol(list(spike), tail=ts.Geometric(ratio=0.1, bound=1.0)),
        INF, _finite_reference(spike, INF), allow_refusal=True,
        once=True, defect="declared-tail-false-certificate",
    ))
    return items


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

RECONSTRUCTION_CASES = ((2, 0.2j), (3, 0.4j))  # acceptance criterion 05, radius-4 balls
RECONSTRUCTION_N = 128
DISTANCE_REPEATS = 4


def _reconstruct(q, sym):
    cert = ts.build_certificate(sym, q, RECONSTRUCTION_N)
    ball = ts.build_ball(q, 4, chain_extra=RECONSTRUCTION_N + 1)
    return cert, ts.reconstruction_max_error(cert, ball, sym)


def _check_reconstruction(outcome, ref):
    if isinstance(outcome, BaseException):
        return gate.check_value(outcome, 0.0, 0.0)
    cert, err = outcome
    total = abs(cert.c_plus) + abs(cert.c_minus) + cert.value
    verdict = gate.check_value(total, ref[0], cert.certified_error + ref[1], extra_ok=lambda _: err <= 1e-8)
    return gate.Verdict(verdict.ok, {**verdict.record, "reconstruction_err": float(err)})


def _lower_bound_check(q, s):
    # the structured U_{m,n} trials already reach sup |phi(d)| over the radius-3
    # ball, and no lower bound may exceed the closed-form norm
    sup_phi = float(np.max(np.abs(gate.spherical_values(q, s, 7))))

    def check(outcome, ref):
        return gate.check_interval(outcome, sup_phi - 1e-9, ref[0] + ref[1] + 1e-9)

    return check


def _peller_check(exact):
    def check(outcome, ref):
        if isinstance(outcome, BaseException):
            return gate.check_value(outcome, exact, 0.0)
        return gate.check_value(outcome, exact, outcome.slack + gate.ref_tolerance(exact),
                                value_of=lambda rep: rep.lhs, extra_ok=lambda rep: rep.holds)

    return check


def _measure_moments(sym, quad, count):
    mu = ts.optimal_measure(ts.g_from_symbol(ts.difference_sequence(sym)), quad)
    return [mu.moment(n) for n in range(count)]


def routes_items(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    items: list[Item] = []
    suite_seed = int(rng.integers(0, 2 ** 31))
    for name in ("tree", "peller", "padic", "sandwich"):
        items.append(Item(
            f"routes/suite/{name}", "suite", {"suite": name, "seed": suite_seed},
            lambda: None, lambda _, name=name: ts.run_suite(name, seed=suite_seed),
            lambda outcome, ref: gate.check_flag(outcome, lambda rep: rep.passed and len(rep.checks) > 0),
        ))

    for q, s in RECONSTRUCTION_CASES:
        items.append(Item(
            f"routes/reconstruct/q{q}", "reconstruct", {"s": _c(s), "radius": 4, "n": RECONSTRUCTION_N},
            lambda q=q, s=s: ts.spherical_symbol(q, s=s),
            lambda sym, q=q: _reconstruct(q, sym),
            _check_reconstruction, _closed_form(q, s), warm=q == 2,
        ))

    for k, q in enumerate((2, 2, 3, 3)):
        z = complex(rng.uniform(0.25, 0.45), rng.uniform(0.0, 2.0 * math.pi / math.log(q)))
        s = complex(_eigenvalue_from_z(q, z))
        trial_seed = int(rng.integers(0, 2 ** 31))
        items.append(Item(
            f"routes/lower-bound/q{q}/{k}", "lower_bound", {"s": _c(s), "radius": 3, "seed": trial_seed},
            lambda q=q, s=s: ts.spherical_symbol(q, s=s),
            lambda sym, q=q, t=trial_seed: ts.empirical_schur_lower_bound(
                sym, ts.build_ball(q, 3, chain_extra=4), trials=20, seed=t),
            _lower_bound_check(q, s), _closed_form(q, s),
        ))

    for k in range(2):
        s = complex(rng.uniform(0.2, 0.8) * _unit(rng))
        exact = abs(1.0 - s * s) / (1.0 - abs(s) ** 2)  # rank-one coefficient Hankel
        items.append(Item(
            f"routes/peller/{k}", "peller", {"s": _c(s)},
            lambda s=s: (ts.scale_symbol(ts.power_symbol(s), 1.0 - s * s), ts.PolarQuadrature()),
            lambda p: ts.peller_sandwich(ts.coeff_hankel(p[0], 96), ts.g_from_symbol(p[0]), p[1], target_err=1e-6),
            _peller_check(exact),
        ))

    for k in range(2):
        s = complex(rng.uniform(0.2, 0.6) * _unit(rng))
        want = s ** np.arange(11) - s ** (np.arange(11) + 2)  # Hankel entries h[i, j] = want[i + j]
        items.append(Item(
            f"routes/moments/{k}", "moments", {"s": _c(s), "maxdeg": 10},
            lambda s=s: (ts.power_symbol(s), ts.PolarQuadrature()),
            lambda p: ts.moments_from_g(ts.g_from_symbol(ts.difference_sequence(p[0])), p[1], 10),
            lambda outcome, ref, want=want: gate.check_value(
                outcome, 0.0, 1e-8, value_of=lambda mom: np.max(np.abs(np.asarray(mom) - want))),
        ))

    s = complex(rng.uniform(0.3, 0.55) * _unit(rng))
    want = s ** np.arange(31)
    items.append(Item(
        "routes/measure/0", "measure", {"s": _c(s), "moments": 31},
        lambda: (ts.power_symbol(s), ts.PolarQuadrature()),
        lambda p: _measure_moments(p[0], p[1], 31),
        lambda outcome, ref: gate.check_value(
            outcome, 0.0, 1e-6, value_of=lambda mom: np.max(np.abs(np.asarray(mom) - want))),
    ))

    distances = []
    for k in range(24):
        q = (2, 3, 5)[k % 3]
        a, b = _lattice_pair(rng, q)
        distances.append(Item(
            f"routes/distance/q{q}/{k}", "distance", {"q": q, "a": a, "b": b},
            lambda q=q, a=a, b=b: (ts.PMatrix2.from_rationals(q, a), ts.PMatrix2.from_rationals(q, b)),
            lambda p: ts.lattice_distance(p[0], p[1]),
            lambda outcome, ref: gate.check_value(outcome, ref, 0.0),
            lambda q=q, a=a, b=b: gate.lattice_distance_reference(q, a, b),
        ))
    # each pair is queried several times per pass, at spread-out moments, so
    # that these 0.1 ms calls get enough repeats for a steady service time
    return items + distances * DISTANCE_REPEATS


def _lattice_pair(rng, q):
    """Two invertible integer matrices, scaled by powers of q, with a^-1 b free
    of zero entries (an exact zero there is a documented precision refusal)."""
    while True:
        mats = []
        for _ in range(2):
            m = rng.integers(-20, 21, size=4) * q ** rng.integers(0, 4, size=4)
            mats.append([[int(m[0]), int(m[1])], [int(m[2]), int(m[3])]])
        (a11, a12), (a21, a22) = mats[0]
        (b11, b12), (b21, b22) = mats[1]
        if a11 * a22 - a12 * a21 == 0 or b11 * b22 - b12 * b21 == 0:
            continue
        adj_b = (a22 * b11 - a12 * b21, a22 * b12 - a12 * b22, -a21 * b11 + a11 * b21, -a21 * b12 + a11 * b22)
        if all(x != 0 for x in adj_b):
            return mats


# ---------------------------------------------------------------------------

def make_items(workload: str, seed: int) -> list[Item]:
    """The workload's pass, in a seeded order that spreads every kind of item
    over the pass, so that no kind is timed only inside one short spell."""
    makers = {"hankel-boundary": boundary_items, "hankel-sweep": sweep_items, "routes": routes_items}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    items = makers[workload](seed)
    order = np.random.default_rng([seed, 0]).permutation(len(items))
    return [items[i] for i in order]


# Fixed `treeschur norm` calls timed as separate processes: (spec, --q, expected)
# where expected is a reference thunk or "not_multiplier" (exit code 2).
_GEOMETRIC_VALUES = [0.5 ** n * (-1) ** (n // 3) for n in range(30)]
CLI_SPECS = (
    ({"kind": "spherical", "q": 3, "s": {"re": 0.0, "im": 0.4}}, "3", _closed_form(3, 0.4j)),
    ({"kind": "explicit", "values": [1.0, 0.5, 0.25, -0.125]}, "inf", _finite_reference([1.0, 0.5, 0.25, -0.125], INF)),
    ({"kind": "explicit", "values": _GEOMETRIC_VALUES, "tail": {"type": "geometric", "ratio": 0.5, "bound": 1.0}},
     "2", _finite_reference(_GEOMETRIC_VALUES, 2)),
    ({"kind": "lacunary"}, "inf", "not_multiplier"),
)
