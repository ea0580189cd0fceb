"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in failure
reports); the assertions pin the tolerances.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from treeschur.cli import main as cli_main
from treeschur.corpus import trace_class_corpus
from treeschur.disc import PolarQuadrature
from treeschur.spherical import (
    axis_ratio,
    eigenvalue_from_z,
    hankel_product_sum,
    schur_norm_in_s,
    schur_norm_in_z,
    spherical_symbol,
)
from treeschur.spectral import trace_norm
from treeschur.symbols import (
    INF,
    apply_resolvent,
    build_hankel,
    counterexample_block_lower_bound,
    lacunary_counterexample,
    ma_upper_bound,
    schur_norm,
)
from treeschur.tree import smn_entry
from treeschur.verify import (
    RECONSTRUCTION_CASES,
    SANDWICH_POINTS,
    check_chain_powers,
    check_elementary_divisors,
    check_gamma_convolution,
    check_group_tree_correspondence,
    check_kernel_reconstruction,
    check_left_invariance,
    check_moment_round_trip,
    check_sampled_lower_bound,
    check_subtree_sandwich,
    check_trace_norm_sandwich,
)


def elliptical_grid(q, n_radii=7, n_angles=7, max_radius=0.9):
    """n_radii x n_angles eigenvalues strictly inside the multiplier ellipse."""
    rho = axis_ratio(q)
    radii = np.linspace(0.12, max_radius, n_radii)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False) + 0.17
    return [
        complex(r * math.cos(t), r * math.sin(t) / rho)
        for r in radii
        for t in angles
    ]


def test_criterion_01_spherical_norm_agreement_finite_q():
    t0 = time.perf_counter()
    worst = 0.0
    for q in (2, 3, 5):
        for s in elliptical_grid(q):
            closed = schur_norm_in_s(q, s)
            assert closed is not None
            rep = schur_norm(spherical_symbol(q, s=s), q, target_err=1e-7)
            worst = max(worst, abs(rep.total - closed))
    assert worst <= 1e-6
    spot = schur_norm_in_s(3, 0.4j)
    assert spot == pytest.approx(29.0 / 9.0, abs=1e-12)
    rep_spot = schur_norm(spherical_symbol(3, s=0.4j), 3, target_err=1e-7)
    assert abs(rep_spot.total - 29.0 / 9.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"criterion 01 PASS finite-q spherical agreement: max|delta|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_spherical_norm_agreement_infinite_degree():
    worst = 0.0
    for s in elliptical_grid(INF):
        closed = schur_norm_in_s(INF, s)
        rep = schur_norm(spherical_symbol(INF, s=s), INF, target_err=1e-7)
        worst = max(worst, abs(rep.total - closed))
    assert worst <= 1e-6
    rep_spot = schur_norm(spherical_symbol(INF, s=0.5j), INF, target_err=1e-8)
    assert abs(rep_spot.total - 5.0 / 3.0) <= 1e-6
    print(f"criterion 02 PASS infinite-degree spherical agreement: max|delta|={worst:.2e}")


def test_criterion_03_real_eigenvalue_flatness():
    qs = (2, 3, 5, INF)
    worst = 0.0
    for k, s in enumerate(np.linspace(-0.93, 0.93, 20)):
        q = qs[k % len(qs)]
        closed = schur_norm_in_s(q, complex(s))
        assert closed == pytest.approx(1.0, abs=1e-8)
        rep = schur_norm(spherical_symbol(q, s=complex(s)), q, target_err=1e-9)
        worst = max(worst, abs(rep.total - 1.0))
    assert worst <= 1e-8
    print(f"criterion 03 PASS real-eigenvalue flatness: max|total-1|={worst:.2e}")


def test_criterion_04_z_parametrization_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        q = int(rng.choice([2, 3, 5]))
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-3.0, 3.0))
        in_z = schur_norm_in_z(q, z)
        in_s = schur_norm_in_s(q, eigenvalue_from_z(q, z))
        worst = max(worst, abs(in_z - in_s))
    assert worst <= 1e-12
    print(f"criterion 04 PASS z-parametrization identity: max|delta|={worst:.2e}")


def test_criterion_05_kernel_reconstruction():
    t0 = time.perf_counter()
    worst = max(check_kernel_reconstruction(q, s, radius=4).max_err for q, s in RECONSTRUCTION_CASES)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"criterion 05 PASS kernel reconstruction: max err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_empirical_lower_bound():
    res = check_sampled_lower_bound(trace_class_corpus(), q=3, target_err=1e-9)
    assert res.passed, res.detail
    print(f"criterion 06 PASS sampled lower bound: worst gap={res.max_err:.2e}")


def test_criterion_07_trace_norm_disc_sandwich():
    res = check_trace_norm_sandwich(SANDWICH_POINTS, PolarQuadrature())
    assert res.passed
    print(f"criterion 07 PASS trace-norm/disc-integral sandwich: largest slack={res.max_err:.2e} <= 1e-4")


def test_criterion_08_moment_round_trip():
    quad = PolarQuadrature(n_r=160, n_theta=1024)
    worst = check_moment_round_trip(trace_class_corpus(), quad).max_err
    assert worst <= 1e-8
    print(f"criterion 08 PASS moment round trip: max|delta|={worst:.2e}")


def test_criterion_09_gamma_identities():
    res = check_gamma_convolution(50)
    assert res.passed
    print(f"criterion 09 PASS gamma convolution identity for n <= 50: max rel err={res.max_err:.2e}")


def test_criterion_10_lacunary_counterexample(tmp_path, capsys):
    sym = lacunary_counterexample()
    val = ma_upper_bound(sym)
    assert val ** 2 <= 3.0 * math.pi ** 2 / 8.0 + 1e-9
    prev = -math.inf
    for n in (64, 128, 256, 512, 1024):
        t = trace_norm(build_hankel(sym, n).entries)
        assert t > prev
        assert t >= counterexample_block_lower_bound(n)
        if n == 64:
            assert counterexample_block_lower_bound(n) == pytest.approx(0.2375, abs=1e-12)
        prev = t
    spec = tmp_path / "lacunary.json"
    spec.write_text(json.dumps({"kind": "lacunary"}))
    code = cli_main(["norm", str(spec)])
    capsys.readouterr()
    assert code == 2
    print(f"criterion 10 PASS lacunary counterexample: bound^2={val**2:.6f} <= 3pi^2/8, norms diverge, exit=2")


def test_criterion_11_subtree_sandwich():
    worst = 0.0
    for q, res in zip((2, 3), check_subtree_sandwich(trace_class_corpus(), (2, 3))):
        assert res.passed, (res.detail, q)
        worst = max(worst, res.max_err)
    print(f"criterion 11 PASS subtree sandwich: worst slack={worst:.2e}")


def test_criterion_12_padic_suite():
    rng = np.random.default_rng(112)
    assert check_elementary_divisors((2, 3, 5), powers=6).passed
    assert check_chain_powers((2, 3, 5)).passed
    for q in (2, 3, 5):
        res = check_left_invariance(q, [[q ** 2, 1], [0, 2]], [[3, 0], [1, f"1/{q}"]], rng, draws=10,
                                    scales=(-2, -1, 1, 2))
        assert res.passed, q
    print("criterion 12 PASS p-adic lattice suite (elementary divisors, invariance, chain powers)")


def test_criterion_13_group_tree_correspondence():
    rng = np.random.default_rng(113)
    worst = check_group_tree_correspondence((2, 3, 5), rng, draws=9, im_span=2.0).max_err
    assert worst <= 1e-9
    print(f"criterion 13 PASS group/tree correspondence: max err={worst:.2e}")


def test_criterion_14_product_sum_identity():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(50):
        a, b, c, d = (
            rng.uniform(0.05, 0.6) * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(4)
        )
        series = 0.0 + 0.0j
        for n in range(200):
            u = (a ** (n + 1) - b ** (n + 1)) / (a - b)
            v = (c ** (n + 1) - d ** (n + 1)) / (c - d)
            series += u * v
        worst = max(worst, abs(hankel_product_sum(a, b, c, d) - series))
    assert worst <= 1e-10
    print(f"criterion 14 PASS product-sum identity vs series: max|delta|={worst:.2e}")


def test_criterion_15_shift_trace_identity():
    # Tr(S^i S*^j T) = sum_k T[k+j, k+i] must equal Tr(S_{i,j} T') with
    # T' = (1-1/q)(I - tau/q)^{-1} T, the right side evaluated entrywise from
    # the closed form of S_{i,j} on a window wide enough that the neglected
    # geometric tail of T' sits far below 1e-12.
    rng = np.random.default_rng(115)
    window = 96
    worst = 0.0
    for q in (2, 3):
        for _ in range(5):
            size = int(rng.integers(4, 13))
            t = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            padded = np.zeros((window, window), dtype=complex)
            padded[:size, :size] = t
            t_prime = apply_resolvent(padded, q)
            for i in range(5):
                for j in range(5):
                    lhs = sum(
                        t[k + j, k + i]
                        for k in range(size)
                        if k + j < size and k + i < size
                    )
                    rhs = 0.0 + 0.0j
                    for a in range(window):
                        for b in range(window):
                            entry = smn_entry(q, i, j, a, b)
                            if entry != 0.0:
                                rhs += entry * t_prime[b, a]
                    worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    print(f"criterion 15 PASS shift-trace identity: max|delta|={worst:.2e}")
