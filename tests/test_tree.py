"""Tree balls, the climb map, Gram tables, certificates, and the lower bound on a ball."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeschur.errors import NoConvergence, OrbitEscapesBall, SizeCap
from treeschur import symbols
from treeschur.corpus import trace_class_corpus
from treeschur.spectral import DEFAULT_TOL, _factorize, _svd_allowance, _trace_norm_below, trace_norm
from treeschur.spherical import axis_ratio, schur_norm_in_s, spherical_symbol
from treeschur.symbols import (
    INF,
    _ResolventImage,
    build_hankel,
    constant_symbol,
    explicit_symbol,
    lacunary_counterexample,
    parity_symbol,
    power_symbol,
    schur_norm,
)
from treeschur.tree import (
    build_ball,
    build_certificate,
    deltaprime_gram,
    empirical_schur_lower_bound,
    kernel_on_pairs,
    reconstruction_max_error,
    smn_entry,
)
from treeschur.verify import check_chain_gram, check_meeting_indices


def meeting_indices(tree, x, y):
    """Reference for ``FiniteTreeBall.meeting``: the smallest (m, n) with
    c^m(x) = c^n(y), one pair at a time; then m + n = d(x, y).

    Both orbits end at the stored chain tip, so the merge node always lies in
    storage for stored arguments.
    """
    pos = {}
    v, step = x, 0
    while v >= 0 and v not in pos:
        pos[v] = step
        v = int(tree.climb[v])
        step += 1
    node, n = y, 0
    while node not in pos:
        node = int(tree.climb[node])
        if node < 0:
            raise OrbitEscapesBall("orbits failed to meet inside storage")
        n += 1
    return pos[node], n


def umn_entry(tree, m, n, x, y):
    """Entry of U_{m,n} at (x, y): nonzero exactly when (m, n) are the meeting
    indices of (x, y); then q^{-(m+n)/2}, with the factor (1-1/q)^{-1} when
    both indices are positive."""
    if (m, n) != meeting_indices(tree, x, y):
        return 0.0
    value = tree.q ** (-(m + n) / 2.0)
    if min(m, n) >= 1:
        value /= 1.0 - 1.0 / tree.q
    return value


def reconstruct_kernel_dense(cert, tree, x, y):
    """Reference for ``kernel_on_pairs`` at one pair: the full double sum over all (i, j),
    O(N^2), with the Gram block of the two climb orbits from one array call
    and the terms added one at a time in (i, j) order (a running sum)."""
    size = cert.weights.shape[0]
    ox, oy = [x], [y]
    for _ in range(size - 1):
        ox.append(int(tree.climb[ox[-1]]))
        oy.append(int(tree.climb[oy[-1]]))
        if min(ox[-1], oy[-1]) < 0:
            raise OrbitEscapesBall("climb map undefined inside the window")
    ox, oy = np.array(ox)[:, None], np.array(oy)[None, :]
    if cert.q == INF:
        g = (ox == oy) * 1.0
    else:
        g = deltaprime_gram(tree, ox, oy)
    total = cert.c_plus + cert.c_minus * (-1) ** tree.distance(x, y)
    return complex(np.cumsum(np.append(total, g * cert.weights))[-1])


def kernel_on_pairs_band(cert, tree, xs, ys):
    """Reference for ``kernel_on_pairs``: the band i - j = m - n, i >= m - 1,
    walked one offset at a time for all pairs, with G read from node
    identities in the walked orbits and d from the parent map, O(pairs x N)."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    m, n = tree.meeting(xs, ys)
    total = cert.c_plus + cert.c_minus * np.where(tree.distances(xs, ys) % 2, -1.0, 1.0)
    size = cert.weights.shape[0]
    # the band starts at the sibling pair one climb before the merge, if both exist
    before = np.where(np.minimum(m, n) >= 1, 1, 0)
    i, j = m - before, n - before
    orbits = walked_orbits(tree)
    last = orbits.shape[1] - 1  # an all -1 column: climbed past the chain tip
    climb = np.append(tree.climb, -1)
    sibling = 0.0 if cert.q == INF else -1.0 / (tree.q - 1.0)
    while True:
        live = (i < size) & (j < size)
        if not live.any():
            return total
        a = orbits[xs, np.minimum(i, last)]
        b = orbits[ys, np.minimum(j, last)]
        if (live & (a < 0)).any():
            raise OrbitEscapesBall("climb map undefined inside the window")
        g = np.where(a == b, 1.0, np.where(climb[a] == climb[b], sibling, 0.0))
        w = cert.weights[np.minimum(i, size - 1), np.minimum(j, size - 1)]
        total = total + np.where(live, g * w, 0.0)
        i = i + 1
        j = j + 1


def test_ball_node_counts():
    assert build_ball(2, 1).n_ball == 4
    assert build_ball(2, 2).n_ball == 10
    assert build_ball(3, 1).n_ball == 5


def test_ball_structure():
    tree = build_ball(3, 2, chain_extra=3)
    # root has q+1 children, deeper ball nodes have q children under the parent map
    assert int(np.sum(tree.tree_parent == 0)) == 4
    inner = [v for v in range(tree.n_ball) if tree.depth[v] == 1]
    for v in inner:
        assert int(np.sum(tree.tree_parent[: tree.n_ball] == v)) == 3
    # chain follows first children and the climb map moves along it
    assert tree.chain[0] == 0
    for i, v in enumerate(tree.chain[:-1]):
        assert tree.climb[v] == tree.chain[i + 1]
    # off-chain depth-1 nodes climb to the base vertex
    for v in inner:
        if v not in tree.chain:
            assert tree.climb[v] == 0


def breadth_first_ball(q, radius, chain_extra):
    """Reference for the ``FiniteTreeBall`` layout, node by node: (depth,
    tree_parent, climb, chain) of a breadth-first walk whose chain takes the
    first child of its last node, then ``chain_extra`` nodes past the ball."""
    depth, parent, chain, frontier = [0], [-1], [0], [0]
    for level in range(1, radius + 1):
        new_frontier = []
        for v in frontier:
            for _ in range(q + 1 if v == 0 else q):
                w = len(depth)
                depth.append(level)
                parent.append(v)
                new_frontier.append(w)
                if v == chain[-1] and len(chain) == level:
                    chain.append(w)
        frontier = new_frontier
    for step in range(chain_extra):
        depth.append(radius + 1 + step)
        parent.append(chain[-1])
        chain.append(len(depth) - 1)
    climb = list(parent)
    for v, w in zip(chain, chain[1:]):
        climb[v] = w
    climb[chain[-1]] = -1
    return np.array(depth), np.array(parent), np.array(climb), chain


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("chain_extra", [0, 1, 9])
def test_ball_layout_matches_the_breadth_first_walk(q, chain_extra):
    for radius in range(1, 5):
        tree = build_ball(q, radius, chain_extra=chain_extra)
        depth, parent, climb, chain = breadth_first_ball(q, radius, chain_extra)
        for got, want in ((tree.depth, depth), (tree.tree_parent, parent), (tree.climb, climb)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert tree.chain == chain and all(type(v) is int for v in tree.chain)
        assert tree.n_nodes == len(depth) == tree.n_ball + chain_extra


def walked_orbits(tree):
    """Climb orbits, walked[x, i] = c^i(x) and -1 past the chain tip: one
    climb step per column until every orbit has climbed past the tip."""
    climb = np.append(tree.climb, -1)
    cols = [np.arange(tree.n_nodes)]
    while cols[-1].max() >= 0:
        cols.append(climb[cols[-1]])
    return np.stack(cols, axis=1)


def walked_ancestors(tree):
    """Reference for ``FiniteTreeBall.ancestors``: one parent step per level,
    from the deepest node of the chain down to the base."""
    top = int(tree.depth.max())
    parent = np.append(tree.tree_parent, -1)
    nodes = np.arange(tree.n_nodes)
    table = np.full((tree.n_nodes, top + 1), -1, dtype=np.int64)
    table[nodes, tree.depth] = nodes
    for t in range(top, 0, -1):
        table[:, t - 1] = np.where(table[:, t] >= 0, parent[table[:, t]], table[:, t - 1])
    return table


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("chain_extra", [0, 1, 4, 129])
def test_orbit_and_ancestor_tables_match_the_walks(q, chain_extra):
    for radius in range(1, 5):
        tree = build_ball(q, radius, chain_extra=chain_extra)
        # the climb orbit from x is a geodesic to the chain tip: d(x, tip) + 1 stored nodes
        for got, want in (
            (tree.tip_distance, (walked_orbits(tree) >= 0).sum(axis=1) - 1),
            (tree.ancestors, walked_ancestors(tree)),
        ):
            assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)


def test_size_cap():
    with pytest.raises(SizeCap):
        build_ball(2, 25)


def test_meeting_indices_examples():
    tree = build_ball(3, 3, chain_extra=4)
    assert meeting_indices(tree, 0, 0) == (0, 0)
    x2 = tree.chain[2]
    assert meeting_indices(tree, x2, 0) == (0, 2)
    off = [v for v in range(tree.n_ball) if tree.depth[v] == 1 and v not in tree.chain]
    m, n = meeting_indices(tree, off[0], off[1])
    assert (m, n) == (1, 1)
    assert tree.distance(off[0], off[1]) == 2


def test_meeting_symmetry_and_distance_consistency():
    res = check_meeting_indices(build_ball(2, 3, chain_extra=4))
    assert res.passed and res.max_err == 0


@pytest.mark.parametrize("q, radius, chain_extra", [(2, 3, 4), (3, 2, 3)])
def test_all_pairs_meeting_matches_scalar(q, radius, chain_extra):
    tree = build_ball(q, radius, chain_extra=chain_extra)
    m_arr, n_arr = tree.all_pairs_meeting()
    assert m_arr.shape == n_arr.shape == (tree.n_ball, tree.n_ball)
    for x in range(tree.n_ball):
        for y in range(tree.n_ball):
            assert (m_arr[x, y], n_arr[x, y]) == meeting_indices(tree, x, y)


def test_meeting_check_fails_on_mirrored_wrong_indices(monkeypatch):
    # m and n swapped above the diagonal and mirrored below: the sums are the
    # distances and m(x, y) = n(y, x) holds, yet every pair with m != n is wrong
    tree = build_ball(2, 3, chain_extra=4)
    m_arr, n_arr = tree.all_pairs_meeting()
    upper = np.triu(np.ones_like(m_arr, dtype=bool), 1)
    wrong_m = np.where(upper, n_arr, m_arr.T)
    wrong_n = np.where(upper, m_arr, n_arr.T)
    assert np.array_equal(wrong_m, wrong_n.T) and np.array_equal(wrong_m + wrong_n, m_arr + n_arr)
    assert not np.array_equal(wrong_m, m_arr)
    monkeypatch.setattr(tree, "all_pairs_meeting", lambda: (wrong_m, wrong_n))
    res = check_meeting_indices(tree)
    assert not res.passed and res.max_err == np.count_nonzero(m_arr != n_arr)


@pytest.mark.parametrize("x, y, wrong", [
    (2, 5, lambda m, n, tip: (m + 1, n + 1)),
    (5, 5, lambda m, n, tip: (-1, -1)),
    (5, 5, lambda m, n, tip: (tip + 1, tip + 2)),
], ids=["diagonal-shift", "minus-one", "past-the-tip"])
def test_meeting_check_fails_on_one_wrong_pair(monkeypatch, x, y, wrong):
    # one pair's (m, n) moved: one step along its diagonal the climbs still
    # agree, but not first; (-1, -1) on x = y counts no climbs; and
    # (d + 1, d + 2) on x = y, d = d(x, tip), agree only past the chain tip
    tree = build_ball(2, 3, chain_extra=4)
    m_arr, n_arr = tree.all_pairs_meeting()
    wrong_m, wrong_n = m_arr.copy(), n_arr.copy()
    wrong_m[x, y], wrong_n[x, y] = wrong(m_arr[x, y], n_arr[x, y], tree.tip_distance[x])
    monkeypatch.setattr(tree, "all_pairs_meeting", lambda: (wrong_m, wrong_n))
    res = check_meeting_indices(tree)
    assert not res.passed and res.max_err == 1


@pytest.mark.parametrize("q, radius, chain_extra", [(2, 3, 4), (3, 2, 3)])
def test_distances_match_scalar(q, radius, chain_extra):
    tree = build_ball(q, radius, chain_extra=chain_extra)
    nodes = np.arange(tree.n_nodes)
    dist = tree.distances(nodes[:, None], nodes[None, :])
    for x in range(tree.n_nodes):
        for y in range(tree.n_nodes):
            assert dist[x, y] == tree.distance(x, y)


def test_deltaprime_gram_cases():
    tree = build_ball(3, 2, chain_extra=3)
    assert deltaprime_gram(tree, 2, 2) == 1.0
    # two distinct non-chain children of the base: same climb parent
    sibs = [v for v in range(tree.n_ball) if tree.depth[v] == 2 and tree.tree_parent[v] == 2]
    assert deltaprime_gram(tree, sibs[0], sibs[1]) == pytest.approx(-0.5)
    # the base vertex and an off-chain child of x1 are climb siblings too
    x1 = tree.chain[1]
    child_x1 = [v for v in range(tree.n_ball) if tree.tree_parent[v] == x1 and v not in tree.chain]
    assert deltaprime_gram(tree, 0, child_x1[0]) == pytest.approx(-0.5)
    assert deltaprime_gram(tree, sibs[0], child_x1[0]) == 0.0


def test_smn_entry_cases():
    assert smn_entry(3, 0, 0, 5, 5) == 1.0
    assert smn_entry(3, 1, 1, 0, 0) == pytest.approx(-0.5)
    assert smn_entry(3, 2, 0, 1, 0) == 0.0
    assert smn_entry(2, 1, 3, 4, 6) == 1.0
    assert smn_entry(2, 1, 3, 0, 2) == -1.0


def test_gram_and_smn_array_forms_match_scalar_calls():
    # every node pair of the ball and its chain but the tip, whose climb is
    # undefined, and every (i, j) with i, j < 5 at the pair's meeting indices
    tree = build_ball(3, 2, chain_extra=6)
    tip = tree.chain[-1]
    nodes = np.array([v for v in range(tree.n_nodes) if v != tip])
    gram = deltaprime_gram(tree, nodes[:, None], nodes[None, :])
    m, n = tree.meeting(nodes[:, None], nodes[None, :])
    i = np.arange(5)
    smn = smn_entry(3, m[:, :, None, None], n[:, :, None, None], i[:, None], i[None, :])
    assert gram.shape == (len(nodes),) * 2 and smn.shape == (len(nodes),) * 2 + (5, 5)
    for a, x in enumerate(nodes.tolist()):
        for b, y in enumerate(nodes.tolist()):
            scalar = deltaprime_gram(tree, x, y)
            assert isinstance(scalar, float) and gram[a, b] == scalar, (x, y)
            for k in range(5):
                for t in range(5):
                    scalar = smn_entry(3, int(m[a, b]), int(n[a, b]), k, t)
                    assert isinstance(scalar, float) and smn[a, b, k, t] == scalar, (x, y, k, t)
    with pytest.raises(OrbitEscapesBall):
        deltaprime_gram(tree, tip, int(nodes[1]))
    with pytest.raises(OrbitEscapesBall):
        deltaprime_gram(tree, np.array([nodes[0], tip]), nodes[1])
    with pytest.raises(OrbitEscapesBall):
        deltaprime_gram(tree, nodes[:3, None], np.array([nodes[2], tip]))


def test_gram_agreement_with_smn():
    # Lemma-level identity: closed form equals the node-level Gram, exactly
    tree = build_ball(3, 3, chain_extra=9)
    rng = np.random.default_rng(31)
    nodes = rng.choice(tree.n_ball, size=12, replace=False)
    assert check_chain_gram(tree, nodes).max_err == 0.0


def test_umn_entries():
    tree = build_ball(3, 2, chain_extra=4)
    assert umn_entry(tree, 0, 0, 4, 4) == 1.0
    sibs = [v for v in range(tree.n_ball) if tree.depth[v] == 2 and tree.tree_parent[v] == 2]
    assert umn_entry(tree, 1, 1, sibs[0], sibs[1]) == pytest.approx(0.5)
    assert umn_entry(tree, 1, 0, 4, 4) == 0.0  # meeting is (0,0)


def test_u_isometry_columns():
    # U_{1,0} is the isometry U; its fully stored columns have unit norm
    q = 3
    tree = build_ball(q, 3, chain_extra=3)
    v = tree.n_ball
    u = np.zeros((v, v))
    for x in range(v):
        for y in range(v):
            u[x, y] = umn_entry(tree, 1, 0, x, y)
    col_counts = (u != 0).sum(axis=0)
    full = col_counts == q
    assert full.any()
    norms = np.linalg.norm(u[:, full], axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_constant_symbol():
    cert = build_certificate(constant_symbol(1.0), 3, 16)
    assert cert.xi.shape[0] == 0
    assert cert.c_plus == pytest.approx(1.0)
    tree = build_ball(3, 2, chain_extra=17)
    assert kernel_on_pairs(cert, tree, [0], [0])[0] == pytest.approx(1.0)


def test_certificate_rank_one_infinite_degree():
    cert = build_certificate(power_symbol(0.5), INF, 48)
    assert cert.xi.shape[0] == 1  # rank-one Hankel
    norm_product = np.linalg.norm(cert.xi[0]) * np.linalg.norm(cert.eta[0])
    assert norm_product == pytest.approx(1.0, abs=1e-9)
    assert cert.value == pytest.approx(1.0, abs=1e-9)


def test_certificate_value_matches_closed_form():
    cert = build_certificate(spherical_symbol(3, s=0.4j), 3, 128)
    assert cert.value == pytest.approx(29.0 / 9.0, abs=1e-6)
    cert64 = build_certificate(spherical_symbol(3, s=0.4j), 3, 64)
    assert cert64.value == pytest.approx(29.0 / 9.0, abs=1e-4)


def test_certificate_of_an_uncertified_symbol_has_infinite_error():
    # no tail certifies the window's remainder, so nothing bounds the error
    assert build_certificate(lacunary_counterexample(), 3, 64).certified_error == INF


@pytest.mark.parametrize("make, q", [
    (lambda: spherical_symbol(3, s=0.4j), 3),
    (lambda: power_symbol(0.5), INF),
    (lambda: parity_symbol(0.4 - 0.1j, -0.25j, power_symbol(0.6j)), 2),
], ids=["spherical-q3", "power-inf", "parity-q2"])
def test_norm_and_certificate_read_one_window(make, q):
    sym = make()
    rep = schur_norm(sym, q)
    n = rep.truncation_n
    cert = build_certificate(sym, q, n)
    assert cert.c_plus == rep.c_plus and cert.c_minus == rep.c_minus
    # both read one factorization Q C Q^T of the window; the SVD of C with vectors
    # and without them differ only in rounding
    assert abs(cert.value - rep.hankel_term) <= DEFAULT_TOL * n


def recording_svd(monkeypatch):
    """Spy on ``numpy.linalg.svd``; returns the list of shapes it was called on."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


@pytest.mark.parametrize("run", [
    lambda: build_certificate(spherical_symbol(3, s=0.4j), 3, 32),
    lambda: trace_norm(np.eye(32)),
    lambda: _trace_norm_below(np.eye(32)),
], ids=["certificate", "trace_norm", "trace_norm_below"])
def test_svd_failure_is_no_convergence(monkeypatch, run):
    # LinAlgError is a ValueError, which the CLI reads as malformed input (exit
    # 1); a LAPACK failure is a failure to converge (exit 3) on every SVD path
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NoConvergence):
        run()


@pytest.mark.parametrize("q, n, width", [(3, 128, 2), (3, 512, 2), (2, 256, 61)], ids=["128", "512", "split-256"])
def test_certificate_reads_the_range_finder(monkeypatch, q, n, width):
    # spherical q = 3, s = 0.4i read at its own degree takes the probe; read
    # at q = 2 its 256-row window takes the split basis, whose first 59
    # columns are unit vectors, so xi = Q U and eta = conj(Q) V are checked
    # where the border is.  The window is real up to the phase i^m, so the
    # factorization keeps Q' real and the certificate applies the phase
    sym = spherical_symbol(3, s=0.4j)
    shapes = recording_svd(monkeypatch)
    cert = build_certificate(sym, q, n)
    assert shapes and all(min(shape) < n for shape in shapes)
    monkeypatch.undo()
    tree = build_ball(q, 3, chain_extra=n + 1)
    assert reconstruction_max_error(cert, tree, sym) <= 1e-8
    # the certified terms are those of the norm's window plus the dropped
    # singular values of the core C and the residual half-width of A ~ Q C Q^T
    w = symbols._evaluate_window(sym, q, n)
    f = w.factorization
    assert f.width == width and f.half_width > 0
    assert f.basis.dtype == np.float64 and f.phase is not None
    s = np.linalg.svd(f.core, full_matrices=False)[1]
    dropped = float(np.sum(s[s <= max(1e-15, s[0] * 1e-15)]))
    b = w.budget
    assert cert.certified_error == axis_ratio(q) * (b.tail + b.spill + dropped + f.half_width + b.svd) + b.parity


def test_certificate_falls_back_to_the_dense_window():
    # 300 random values fill every antidiagonal of the 128-row window, which is
    # then of full rank: the range finder gives up and the core is the window itself
    n = 128
    sym = explicit_symbol(np.random.default_rng(30).standard_normal(300))
    op = _ResolventImage(build_hankel(sym, n), 3)
    window = op.dense()
    f = _factorize(op)
    assert f.basis is None and np.array_equal(f.core, window) and f.half_width == 0.0
    cert = build_certificate(sym, 3, n)
    assert abs(cert.value - float(np.sum(np.linalg.svd(window, compute_uv=False)))) <= DEFAULT_TOL * n
    assert np.max(np.abs(cert.weights - window)) <= DEFAULT_TOL * n


@pytest.mark.parametrize("make, n, width", [
    (lambda: trace_class_corpus()[5], 32, 0),  # (0.5i)^n: real up to i^m, dense, the vectors take the phase
    (lambda: power_symbol(0.84), 128, 39),  # real, the split basis
], ids=["turned-dense-32", "real-split-128"])
def test_certificate_of_a_real_window_reconstructs_the_kernel(make, n, width):
    # the core is real and its vectors are mapped back to the complex window:
    # u = D U and vh = V^T D on the dense path, Q = D Q' on the sketch path
    sym, q = make(), 3
    rep = schur_norm(sym, q)
    f = symbols._evaluate_window(sym, q, n).factorization
    assert (rep.truncation_n, rep.sketch_width) == (n, width) and not np.iscomplexobj(f.core)
    assert (f.phase is not None) == (width == 0)
    cert = build_certificate(sym, q, n)
    assert abs(cert.value - rep.hankel_term) <= _svd_allowance(n)
    assert reconstruction_max_error(cert, build_ball(q, 3, chain_extra=n + 1), sym) <= 1e-8


def test_reconstruction_spherical_finite_q():
    sym = spherical_symbol(3, s=0.4j)
    n = 128
    cert = build_certificate(sym, 3, n)
    tree = build_ball(3, 3, chain_extra=n + 1)
    rng = np.random.default_rng(32)
    vals = sym.values(2 * tree.radius + 1)
    xs, ys = rng.integers(0, tree.n_ball, size=(40, 2)).T
    got = kernel_on_pairs(cert, tree, xs, ys)
    assert np.max(np.abs(got - vals[tree.distances(xs, ys)])) <= 1e-8


def test_reconstruction_band_matches_dense():
    sym = spherical_symbol(2, s=0.25 + 0.1j)
    cert = build_certificate(sym, 2, 32)
    tree = build_ball(2, 2, chain_extra=33)
    xs, ys = np.arange(tree.n_ball)[:, None], np.arange(0, tree.n_ball, 3)[None, :]
    band = kernel_on_pairs(cert, tree, xs, ys)
    for a, x in enumerate(xs[:, 0]):
        for b, y in enumerate(ys[0]):
            assert abs(band[a, b] - reconstruct_kernel_dense(cert, tree, int(x), int(y))) <= 1e-12


def kernel_or_escape(kernel, cert, tree, xs, ys):
    try:
        return kernel(cert, tree, xs, ys)
    except OrbitEscapesBall:
        return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    q=st.sampled_from((2, 3, 5)),
    radius=st.integers(1, 4),
    size=st.sampled_from((1, 2, 7, 24, 128)),
    plain=st.booleans(),
    c_plus=st.floats(-2.0, 2.0),
    c_minus=st.floats(-2.0, 2.0),
    ratio=st.complex_numbers(max_magnitude=0.8),
    extra=st.integers(-3, 1),
)
@example(q=3, radius=4, size=128, plain=False, c_plus=0.0, c_minus=0.0, ratio=0.5j, extra=1)
@example(q=3, radius=3, size=64, plain=False, c_plus=0.5, c_minus=-0.25, ratio=0.6, extra=-2)
@example(q=3, radius=3, size=64, plain=False, c_plus=0.5, c_minus=-0.25, ratio=0.6, extra=-1)
def test_kernel_on_pairs_matches_the_band_walk(q, radius, size, plain, c_plus, c_minus, ratio, extra):
    # the merged-diagonal closed form against the band walk on every ordered
    # ball pair: the same values, and OrbitEscapesBall on exactly the same draws
    sym = parity_symbol(c_plus, c_minus, power_symbol(ratio))
    cert = build_certificate(sym, INF if plain else q, size)
    tree = build_ball(q, radius, chain_extra=max(0, size + extra))
    nodes = np.arange(tree.n_ball)
    xs, ys = nodes[:, None], nodes[None, :]
    got = kernel_or_escape(kernel_on_pairs, cert, tree, xs, ys)
    want = kernel_or_escape(kernel_on_pairs_band, cert, tree, xs, ys)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.max(np.abs(got - want)) <= 1e-13


def test_reconstruction_infinite_degree_on_any_ball():
    # plain-indicator Gram is q-independent: evaluate a q=inf certificate on a q=5 ball
    sym = power_symbol(0.5)
    cert = build_certificate(sym, INF, 64)
    tree = build_ball(5, 2, chain_extra=65)
    vals = sym.values(2 * tree.radius + 1)
    xs, ys = np.arange(0, tree.n_ball, 7)[:, None], np.arange(0, tree.n_ball, 5)[None, :]
    got = kernel_on_pairs(cert, tree, xs, ys)
    assert np.max(np.abs(got - vals[tree.distances(xs, ys)])) <= 1e-8


def test_reconstruction_max_error_within_certificate():
    sym = spherical_symbol(2, s=0.3j)
    n = 96
    cert = build_certificate(sym, 2, n)
    tree = build_ball(2, 3, chain_extra=n + 1)
    err = reconstruction_max_error(cert, tree, sym)
    assert err <= max(cert.certified_error, 1e-12)


@pytest.mark.parametrize("sym, cert_q, ball_q", [
    (spherical_symbol(2, s=0.25 + 0.1j), 2, 2),
    (spherical_symbol(3, s=0.4j), 3, 3),
    (power_symbol(0.5), INF, 5),
    (parity_symbol(2.0, 3.0, power_symbol(0.5)), INF, 2),
])
def test_reconstruction_max_error_matches_dense(sym, cert_q, ball_q):
    n = 24
    cert = build_certificate(sym, cert_q, n)
    tree = build_ball(ball_q, 2, chain_extra=n + 1)
    vals = sym.values(2 * tree.radius + 1)
    dense = max(
        abs(reconstruct_kernel_dense(cert, tree, x, y) - vals[tree.distance(x, y)])
        for x in range(tree.n_ball)
        for y in range(tree.n_ball)
    )
    assert abs(reconstruction_max_error(cert, tree, sym) - dense) <= 1e-13


def test_reconstruction_max_error_rejects_degree_mismatch():
    sym = spherical_symbol(3, s=0.4j)
    cert = build_certificate(sym, 3, 16)
    with pytest.raises(ValueError):
        reconstruction_max_error(cert, build_ball(2, 2, chain_extra=17), sym)


def test_certificate_parity_terms():
    sym = parity_symbol(2.0, 3.0, power_symbol(0.5))
    n = 64
    cert = build_certificate(sym, INF, n)
    tree = build_ball(2, 2, chain_extra=n + 1)
    vals = sym.values(2 * tree.radius + 1)
    xs, ys = np.arange(0, tree.n_ball, 2)[:, None], np.arange(0, tree.n_ball, 3)[None, :]
    got = kernel_on_pairs(cert, tree, xs, ys)
    assert np.max(np.abs(got - vals[tree.distances(xs, ys)])) <= 1e-8


# ---------------------------------------------------------------------------
# lower bound on a ball
# ---------------------------------------------------------------------------

def test_empirical_bound_constant_is_exactly_one():
    tree = build_ball(3, 2, chain_extra=2)
    assert empirical_schur_lower_bound(constant_symbol(1.0), tree) == pytest.approx(1.0, abs=0)


def test_empirical_bound_alternating():
    tree = build_ball(3, 2, chain_extra=2)
    alt = parity_symbol(0.0, 1.0, explicit_symbol([]))
    val = empirical_schur_lower_bound(alt, tree)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_empirical_bound_below_true_norm():
    q = 3
    sym = spherical_symbol(q, s=0.4j)
    tree = build_ball(q, 3, chain_extra=4)
    bound = empirical_schur_lower_bound(sym, tree)
    closed = schur_norm_in_s(q, 0.4j)
    assert 0.0 < bound <= closed + 1e-9


def test_empirical_bound_respects_pipeline_norm():
    sym = power_symbol(0.45 - 0.2j)
    tree = build_ball(2, 3, chain_extra=4)
    bound = empirical_schur_lower_bound(sym, tree)
    rep = schur_norm(sym, 2, target_err=1e-9)
    assert bound <= rep.total + 1e-9


def test_empirical_bound_dual_beats_the_structured_term():
    # on the 53-node ball ||Phi||_1 / 53 is about 1.817, where sup |phi(d)| over
    # d <= 3 is 1; the norm is 29/9
    tree = build_ball(3, 3, chain_extra=4)
    assert empirical_schur_lower_bound(spherical_symbol(3, s=0.4j), tree) >= 1.81


def test_empirical_bound_ignores_trials_and_seed():
    tree = build_ball(2, 3, chain_extra=4)
    sym = spherical_symbol(2, s=0.3 + 0.2j)
    assert empirical_schur_lower_bound(sym, tree, trials=20, seed=7) == empirical_schur_lower_bound(sym, tree)


@st.composite
def bounded_symbols(draw):
    """(q, symbol, its Schur norm or an upper bound on it) for the four families."""
    q = draw(st.sampled_from((2, 3, 5)))
    kind = draw(st.sampled_from(("spherical", "power", "parity", "constant")))
    if kind == "spherical":
        # r (cos t + i (q-1)/(q+1) sin t) has the margin 1 - r^2 in the ellipse
        r, t = draw(st.floats(0.0, 0.95)), draw(st.floats(0.0, 2.0 * math.pi))
        s = complex(r * math.cos(t), (q - 1.0) / (q + 1.0) * r * math.sin(t))
        return q, spherical_symbol(q, s=s), schur_norm_in_s(q, s)
    c = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    if kind == "constant":
        sym = constant_symbol(c)
    else:
        base = power_symbol(draw(st.complex_numbers(max_magnitude=0.7)))
        sym = base if kind == "power" else parity_symbol(c, draw(st.floats(-2.0, 2.0)), base)
    rep = schur_norm(sym, q, target_err=1e-9)
    return q, sym, rep.total + rep.certified_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=bounded_symbols(), radius=st.integers(1, 3))
def test_empirical_bound_between_structured_term_and_norm(case, radius):
    q, sym, norm = case
    tree = build_ball(q, radius)
    bound = empirical_schur_lower_bound(sym, tree)
    structured = float(np.max(np.abs(sym.values(radius + 1))))
    assert structured <= bound <= norm


def test_reconstruction_orbit_escape_with_short_chain():
    cert = build_certificate(spherical_symbol(3, s=0.4j), 3, 64)
    tree = build_ball(3, 2, chain_extra=3)  # far shorter than the vector length
    with pytest.raises(OrbitEscapesBall):
        kernel_on_pairs(cert, tree, [1], [2])
    with pytest.raises(OrbitEscapesBall):
        reconstruction_max_error(cert, tree, spherical_symbol(3, s=0.4j))
