"""Self-tests of the benchmark:  python3 -m pytest -q perfbench/test_perfbench.py"""

import math
import os
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cpupick  # noqa: E402
import gate  # noqa: E402
import latency  # noqa: E402
import workloads  # noqa: E402
from gate import INF  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_items(workload):
    a = workloads.make_items(workload, 11)
    b = workloads.make_items(workload, 11)
    c = workloads.make_items(workload, 12)
    assert [(i.id, i.params) for i in a] == [(i.id, i.params) for i in b]
    assert sorted(i.id for i in a) == sorted(i.id for i in c)
    assert [i.params for i in a] != [i.params for i in c]


def test_boundary_strata_are_fixed_and_inside_their_bands():
    mixes = set()
    for seed in range(8):
        items = workloads.boundary_items(seed)
        mixes.add(tuple(sorted(Counter((i.params["q"], i.params["window"]) for i in items).items())))
        for item, (q, window, band) in zip(items, _strata_rows()):
            s = complex(*item.params["s"])
            if q == INF:
                assert band[0] <= abs(s) <= band[1]
            else:
                # the tail ratio q^-Re z is the larger characteristic root modulus
                assert q ** -band[1] - 1e-12 <= _ratio(q, s) <= q ** -band[0] + 1e-12
            assert gate.spherical_values(q, s, 2)[1] == s
    assert len(mixes) == 1


def _strata_rows():
    for q, window, count, band in workloads.BOUNDARY_STRATA:
        for _ in range(count):
            yield q, window, band


def test_boundary_small_windows_certify_at_their_stratum():
    for item in workloads.boundary_items(5):
        if item.params["window"] == 512:
            rep = item.run(item.build())
            assert rep.truncation_n == 512
            assert item.check(rep, item.reference()).ok


def test_gate_flags_a_perturbed_total():
    ref = (3.2222222222222237, gate.ref_tolerance(3.2222222222222237))
    good = SimpleNamespace(total=ref[0] + 1e-10, certified_error=5e-10, certified=True, truncation_n=512)
    assert gate.check_norm(good, ref, 1e-8).ok
    bad = SimpleNamespace(total=ref[0] + 1e-6, certified_error=5e-10, certified=True, truncation_n=512)
    assert not gate.check_norm(bad, ref, 1e-8).ok
    loose = SimpleNamespace(total=ref[0], certified_error=2e-8, certified=True, truncation_n=512)
    assert not gate.check_norm(loose, ref, 1e-8).ok


def test_gate_verdicts_and_known_defects():
    class DivergentDiagonals(Exception):
        pass

    rep = SimpleNamespace(total=1.0, certified_error=6.4e-11, certified=True, truncation_n=64)
    assert gate.check_norm(DivergentDiagonals("x"), None, 1e-8, expect="not_multiplier").ok
    assert not gate.check_norm(rep, None, 1e-8, expect="not_multiplier").ok
    rejected = gate.check_norm(DivergentDiagonals("x"), (1.5, 1e-11), 1e-8)
    assert gate.is_known_defect("undeclared-tail-rejected", rejected)
    false_cert = gate.check_norm(rep, (191.6, 1e-9), 1e-8, allow_refusal=True)
    assert gate.is_known_defect("declared-tail-false-certificate", false_cert)
    assert gate.check_norm(ValueError("declared tail violated"), (191.6, 1e-9), 1e-8, allow_refusal=True).ok
    assert not gate.is_known_defect("undeclared-tail-rejected", false_cert)


def test_finite_hankel_reference_matches_the_spike_value():
    spike = [0.0] * 400
    spike[0], spike[300] = 1.0, 0.5
    value, _ = gate.finite_hankel_reference(spike)
    assert abs(value - 191.60) < 0.01


def test_dense_reference_matches_closed_forms():
    import treeschur as ts

    for q, s in ((3, 0.2 + 0.1j), (2, 0.2j), (5, 0.3 + 0.1j), (INF, 0.5 - 0.2j)):
        value, _ = gate.dense_reference(lambda count: gate.spherical_values(q, s, count), q, _ratio(q, s))
        assert abs(value - ts.schur_norm_in_s(q, s)) < 1e-10


def _ratio(q, s):
    if q == INF:
        return abs(s)
    tr = s * (1 + 1 / q)
    disc = (tr * tr - 4 / q) ** 0.5
    return max(abs(0.5 * (tr + disc)), abs(0.5 * (tr - disc)))


def test_lattice_reference_on_diagonal_matrices():
    for q in (2, 3, 5):
        for i in range(4):
            for j in range(4):
                assert gate.lattice_distance_reference(q, [[1, 0], [0, 1]], [[q ** i, 0], [0, q ** j]]) == abs(i - j)


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 20, 37, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    samples = [float(x) for x in range(n)][::-1]
    value, pct, beyond = latency.tail_latency(samples)
    if n <= 10:
        assert (value, beyond) == (n - 1, 0)
    else:
        assert sum(x > value for x in samples) == 10 == beyond
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_counts_failures_as_slowest():
    value, _, _ = latency.tail_latency([1.0] * 30 + [math.inf] * 3)
    assert value == 1.0
    value, _, _ = latency.tail_latency([1.0] * 30 + [math.inf] * 11)
    assert value == math.inf


def test_compare_flags_value_and_verdict_changes():
    a = [{"id": "x", "total": 1.0, "err": 1e-9, "certified": True, "verdict": "multiplier"},
         {"id": "y", "verdict": "not-multiplier"}]
    same = [{"id": "x", "total": 1.0 + 1e-9, "err": 1e-9, "certified": True, "verdict": "multiplier"},
            {"id": "y", "verdict": "not-multiplier"}]
    assert gate.compare_items(a, same) == []
    moved = [{"id": "x", "total": 1.0 + 1e-8, "err": 1e-9, "certified": True, "verdict": "multiplier"},
             {"id": "y", "verdict": "multiplier", "total": 2.0, "err": 0.0, "certified": True}]
    flagged = dict(gate.compare_items(a, moved))
    assert set(flagged) == {"x", "y"}


def test_cpu_picker_pins_one_cpu_of_its_own_set_and_releases():
    start = os.sched_getaffinity(0)
    picker = cpupick.CpuPicker(every_s=0.0)
    try:
        picker.pick()
        if len(start) > 1:
            pinned = os.sched_getaffinity(0)
            assert len(pinned) == 1 and pinned <= start
            assert sum(picker.picks.values()) == 1
    finally:
        picker.release()
    assert os.sched_getaffinity(0) == start
