"""Finite balls of homogeneous trees, the climb map, and factorization certificates.

A ball of radius R around a base vertex is materialized together with a
distinguished infinite chain starting at the base; the climb map c sends every
vertex one step along the unique path that eventually follows the chain.  Two
vertices meet after (m, n) climbs.  Every climb path to the chain tip is a
geodesic, so the parent map fixes them: m + n = d(x, y) and
m - n = d(x, tip) - d(y, tip).  The renormalized indicator vectors delta'
diagonalize that structure:

    <delta'_x, delta'_y> = 1 (x = y), -1/(q-1) (siblings under c), 0 otherwise.

A trace-class factorization of the resolvent-transformed Hankel matrix then
yields an explicit Grothendieck certificate: vectors xi^(k), eta^(k) whose
chain-indexed kernel reproduces phi(d(x, y)) on the ball and whose norm sum
witnesses the Schur-norm upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import OrbitEscapesBall, SizeCap
from .spectral import _svd, _trace_norm_below
from .spherical import axis_ratio
from .symbols import INF, RadialSymbol, _evaluate_window, check_degree

# the most nodes a ball may hold
NODE_CAP = 10 ** 6


class FiniteTreeBall:
    """Ball B(x0, R) of the degree-(q+1) tree plus a chain extension.

    Nodes are numbered breadth first with the chain passing through each
    level's first child, so the layout is deterministic in (q, radius,
    chain_extra).  ``tree_parent`` steps toward the base vertex; ``climb``
    realizes the map c (along the chain it moves *away* from the base).
    """

    def __init__(self, q: int, radius: int, chain_extra: int = 0):
        q = check_degree(q)
        if q == INF:
            raise ValueError("only finite-degree balls can be materialized")
        if radius < 1 or chain_extra < 0:
            raise ValueError("radius must be >= 1 and chain_extra >= 0")
        n_ball = 1 + (q + 1) * (q ** radius - 1) // (q - 1)
        total = n_ball + chain_extra
        if total > NODE_CAP:
            raise SizeCap(f"ball would hold {total} nodes, above the cap {NODE_CAP}")

        self.q = q
        self.radius = radius
        self.chain_extra = chain_extra
        self.n_ball = n_ball
        self.n_nodes = total

        # level l >= 1 holds (q+1) q^(l-1) nodes; the chain runs through the
        # first node of each level, then through the extras
        sizes = [1] + [(q + 1) * q ** (level - 1) for level in range(1, radius + 1)]
        start = np.cumsum([0] + sizes)  # start[l]: the first node of level l
        chain = start[:-1].tolist() + list(range(n_ball, total))
        depth = np.concatenate([np.repeat(np.arange(radius + 1), sizes), np.arange(radius + 1, radius + 1 + chain_extra)])
        # offset t on level l hangs under offset t // q of level l-1 (all of level 1 under the base)
        level = depth[1:n_ball]
        tree_parent = np.full(total, -1, dtype=np.int64)
        tree_parent[1:n_ball] = start[level - 1] + (np.arange(1, n_ball) - start[level]) // np.where(level == 1, q + 1, q)
        tree_parent[n_ball:] = chain[radius:-1]
        climb = tree_parent.copy()
        climb[chain] = chain[1:] + [-1]  # climbing past the stored chain tip escapes

        self.depth = depth
        self.tree_parent = tree_parent
        self.climb = climb
        self.chain = chain

    # -- basic queries ------------------------------------------------------

    def distance(self, x: int, y: int) -> int:
        """Graph distance via the parent map (independent of the climb map)."""
        dx, dy = int(self.depth[x]), int(self.depth[y])
        d = 0
        while dx > dy:
            x = int(self.tree_parent[x])
            dx -= 1
            d += 1
        while dy > dx:
            y = int(self.tree_parent[y])
            dy -= 1
            d += 1
        while x != y:
            x = int(self.tree_parent[x])
            y = int(self.tree_parent[y])
            d += 2
        return d

    @cached_property
    def ancestors(self) -> np.ndarray:
        """Ancestor table of the parent map: ancestors[x, t] is the ancestor of x
        at depth t, and -1 for t > depth(x).

        The ancestors of a chain extra are the chain up to its depth; those
        of a ball node take one parent step per level of the ball."""
        top = int(self.depth.max())
        table = np.full((self.n_nodes, top + 1), -1, dtype=np.int64)
        below = np.arange(top + 1) <= self.depth[self.n_ball :, None]
        table[self.n_ball :] = np.where(below, self.chain[: top + 1], -1)
        ball = table[: self.n_ball]
        nodes = np.arange(self.n_ball)
        ball[nodes, self.depth[: self.n_ball]] = nodes
        for t in range(self.radius, 0, -1):
            ball[:, t - 1] = np.where(ball[:, t] >= 0, self.tree_parent[ball[:, t]], ball[:, t - 1])
        return table

    @cached_property
    def tip_distance(self) -> np.ndarray:
        """d(x, tip) for every node, tip the last stored chain node.  The ancestors
        of x agree with the chain (chain[t] at depth t) down to their lowest
        common node and never below it, so the agreements count its depth + 1."""
        common = (self.ancestors == self.chain).sum(axis=1) - 1
        return self.depth + (len(self.chain) - 1) - 2 * common

    def distances(self, xs, ys) -> np.ndarray:
        """Graph distances between node arrays (broadcast together) from the
        parent map: depth(x) + depth(y) - 2 depth(lowest common ancestor)."""
        dx, dy = self.depth[xs], self.depth[ys]
        lca = np.zeros(np.broadcast_shapes(dx.shape, dy.shape), dtype=np.int64)
        for t in range(1, int(np.minimum(dx, dy).max(initial=0)) + 1):
            a = self.ancestors[xs, t]
            lca += (a >= 0) & (a == self.ancestors[ys, t])
        return dx + dy - 2 * lca

    def meeting(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Meeting indices (m, n), the first with c^m(x) = c^n(y), between node
        arrays (broadcast together).  Both climb paths run to the stored chain
        tip along geodesics and merge at the meeting node, so the parent map
        fixes them: m + n = d(x, y) and m - n = d(x, tip) - d(y, tip).
        """
        dist = self.distances(xs, ys)
        shift = self.tip_distance[xs] - self.tip_distance[ys]
        return (dist + shift) // 2, (dist - shift) // 2

    def all_pairs_meeting(self) -> tuple[np.ndarray, np.ndarray]:
        """(m, n) for every ordered pair of ball nodes, as n_ball x n_ball arrays.

        Every ball pair merges within 2R climbs, since m + n = d(x, y) <= 2R.
        ``verify.check_meeting_indices`` checks them against the climb map.
        """
        nodes = np.arange(self.n_ball)
        return self.meeting(nodes[:, None], nodes[None, :])


def build_ball(q: int, radius: int, chain_extra: int = 0) -> FiniteTreeBall:
    return FiniteTreeBall(q, radius, chain_extra)


def deltaprime_gram(tree: FiniteTreeBall, x, y):
    """<delta'_x, delta'_y>: 1, -1/(q-1) for distinct c-siblings, else 0.

    Elementwise over numpy node arrays (broadcast together), a float for two
    nodes; products of booleans pick each case, so both take one expression.
    """
    cx, cy = tree.climb[x], tree.climb[y]
    apart = x != y
    if (apart & ((cx < 0) | (cy < 0))).any():
        raise OrbitEscapesBall("climb map undefined at the chain tip: extend the chain (chain_extra too small)")
    return (x == y) * 1.0 - apart * (cx == cy) / (tree.q - 1.0)


def smn_entry(q: int, m, n, i, j):
    """Closed-form matrix entry of S_{m,n} on the chain basis: 1 on the diagonal
    i - m = j - n >= 0, -1/(q-1) one step before it, else 0.  Elementwise over
    integer arrays (broadcast together), a float for scalars, as in
    :func:`deltaprime_gram`."""
    q = check_degree(q)
    if q == INF:
        raise ValueError("use the plain shift entries at infinite degree")
    lag = i - m
    on = lag == j - n
    return (lag >= 0) * on * 1.0 - (lag == -1) * on / (q - 1.0)


# ---------------------------------------------------------------------------
# factorization certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationCertificate:
    """Explicit Grothendieck factorization data witnessing the norm upper bound.

    ``xi[k] / eta[k]`` are coefficient vectors over chain powers: the maps
    P_k(x) = sum_i xi[k][i] delta'_{c^i(x)} and Q_k(y) = sum_j eta[k][j]
    delta'_{c^j(y)} satisfy sum_k <P_k(x), Q_k(y)> = phi(d(x,y)) - parity
    terms, and sum_k ||xi_k|| ||eta_k|| equals the Hankel norm contribution.
    ``weights`` caches sum_k outer(xi_k, conj(eta_k)) (the reconstructed
    window of H or H').  The Gram of the chain vectors is the delta' one at
    finite q and the plain equality indicator at q = inf.
    """

    q: float
    c_plus: complex
    c_minus: complex
    xi: np.ndarray
    eta: np.ndarray
    value: float
    truncation_n: int
    certified_error: float
    weights: np.ndarray = field(repr=False, compare=False, default=None)


def build_certificate(sym: RadialSymbol, q, n: int) -> FactorizationCertificate:
    """Factorization of the (resolvent-transformed) Hankel window.

    The window comes from the same evaluator as ``schur_norm``, factorized as
    A ~ Q C Q^T by ``spectral._factorize``: Q is the probe's, the split's or a
    basis grown below the resolvent border, or the identity below 64 rows and
    where the range finder gives up (C is then A).  With U S V* the SVD of
    the k x k core C, xi^(k) = sqrt(s_k) (Q U)_k and
    eta^(k) = sqrt(s_k) (conj(Q) V)_k, so that sum_k xi^(k) (x) eta^(k)
    reproduces Q C Q^T and sum_k s_k its trace norm.  A window real up to
    the phase D = diag(i^m) is D A' D: its factorization is the real
    Q' C Q'^T of A', and D turns the vectors back, Q = D Q' (D alone where
    Q' is the identity and C is A' itself).  The
    certified error covers the window tail, the resolvent spill, dropped singular values
    (below 1e-15 absolute or relative), the residual half-width
    sqrt(n) ||A - Q C Q^T||_F and the SVD allowance ``_Budget.svd``
    (``spectral._svd_allowance``), scaled by the operator norm
    (q+1)/(q-1) of the S_{m,n} family.  The parity limits are the declared
    ones of a certified tail (``symbols.extract_parity``), so they add no term;
    a symbol without one has an infinite tail bound, so its error is inf.
    """
    q = check_degree(q)
    w = _evaluate_window(sym, q, n)
    u, s, vh = _svd(w.core, full_matrices=False)
    if w.q_basis is not None:
        u, vh = w.q_basis @ u, vh @ w.q_basis.T
    if w.phase is not None:  # the window is D A D
        u, vh = w.phase[:, None] * u, vh * w.phase
    keep = s > max(1e-15, s[0] * 1e-15)
    dropped = float(np.sum(s[~keep]))
    s_kept = s[keep]
    roots = np.sqrt(s_kept)
    xi = (u[:, keep] * roots).T
    eta = (vh[keep, :].conj().T * roots).T
    # weights[i, j] = sum_k xi[k][i] * conj(eta[k][j])
    weights = xi.T @ eta.conj() if xi.size else np.zeros((n, n), dtype=complex)
    b = w.budget
    err = axis_ratio(q) * (b.tail + b.spill + dropped + w.half_width + b.svd)
    return FactorizationCertificate(
        q=float(q),
        c_plus=w.parity.c_plus,
        c_minus=w.parity.c_minus,
        xi=xi,
        eta=eta,
        value=float(np.sum(s_kept)),
        truncation_n=n,
        certified_error=err,
        weights=weights,
    )


def kernel_on_pairs(cert: FactorizationCertificate, tree: FiniteTreeBall, xs, ys) -> np.ndarray:
    """c+ + c-(-1)^d + sum_{i,j} G(c^i(x), c^j(y)) weights[i, j] for every pair (x, y).

    G is the delta' Gram for finite-q certificates and the plain equality
    indicator for infinite-degree ones (then any finite-q ball works, since
    only chain equality matters).  With (m, n) the meeting indices of a pair,
    G(c^i(x), c^j(y)) is 1 on the merged diagonal i - m = j - n >= 0, the
    sibling value -1/(q-1) (0 for the plain indicator) one step before it when
    min(m, n) >= 1, and 0 elsewhere.  So each pair's sum is
    diag[m, n] + sibling * weights[m-1, n-1], where diag holds the suffix sums
    of weights along its diagonals (zero past the window), built once in
    O(N^2).  The merged diagonal reads c^i(x) up to i = m + N - 1 - max(m, n);
    for i > d(x, tip) that node lies past the stored chain tip, which raises
    ``OrbitEscapesBall``.  The parity sign reads d = m + n.  The tests compare
    it against a band walk and against the full double sum over all (i, j).
    """
    plain = cert.q == INF
    if not plain and tree.q != cert.q:
        raise ValueError("certificate degree does not match the ball degree")
    xs, ys = np.asarray(xs), np.asarray(ys)
    m, n = tree.meeting(xs, ys)
    size = cert.weights.shape[0]
    lead = np.maximum(m, n)
    if ((lead < size) & (m + size - 1 - lead > tree.tip_distance[xs])).any():
        raise OrbitEscapesBall("climb map undefined inside the window: extend the chain (chain_extra too small)")
    # a zero last row and column: index size (past the window) and index -1
    # (no sibling step before a merge at m = 0 or n = 0) both read 0
    weights = np.zeros((size + 1, size + 1), dtype=complex)
    weights[:size, :size] = cert.weights
    diag = weights.copy()
    for i in range(size - 1, 0, -1):
        diag[i - 1, :size] += diag[i, 1:]
    sibling = 0.0 if plain else -1.0 / (tree.q - 1.0)
    total = cert.c_plus + cert.c_minus * np.where((m + n) % 2, -1.0, 1.0)
    total = total + diag[np.minimum(m, size), np.minimum(n, size)]
    return total + sibling * weights[np.minimum(m - 1, size), np.minimum(n - 1, size)]


def reconstruction_max_error(cert: FactorizationCertificate, tree: FiniteTreeBall, sym: RadialSymbol) -> float:
    """max over ball pairs x <= y of |kernel_on_pairs - phi(d(x, y))|."""
    xs, ys = np.triu_indices(tree.n_ball)
    vals = sym.values(2 * tree.radius + 1)
    diff = kernel_on_pairs(cert, tree, xs, ys) - vals[tree.distances(xs, ys)]
    # hypot rounds like the scalar abs(); np.abs on a complex array can differ in the last bit
    return float(np.max(np.hypot(diff.real, diff.imag)))


# ---------------------------------------------------------------------------
# lower bound on a finite ball
# ---------------------------------------------------------------------------

def empirical_schur_lower_bound(
    sym: RadialSymbol, tree: FiniteTreeBall, *, trials: int | None = None, seed: int | None = None
) -> float:
    """A lower bound on the Schur norm of phi from the ball: the larger of two.

    Restriction to the ball does not increase the norm, so both terms are
    bounds on the ball's kernel Phi = [phi(d(x, y))].
    - The structured U_{m,n} family with m + n <= R, in closed form: the
      multiplier scales each U_{m,n} by phi(m+n), so its ratio is |phi(m+n)|.
    - The rank-one dual at uniform weights.  By duality the Schur norm is at
      least ||D_u Phi D_v||_1 for any unit u, v (Bennett, Duke Math. J. 1977);
      at u = v = (1, ..., 1) / sqrt(V), V = ``tree.n_ball``, that is
      ||Phi||_1 / V.  ``spectral._trace_norm_below`` bounds ||Phi||_1 below with
      the rounding of its pairing and of its ||W||_2 deducted; the quotient by
      V is correctly rounded, so one step toward zero puts it below the exact
      quotient.  The bound costs one V x V SVD and uses no random draws.

    ``trials`` and ``seed`` are accepted and ignored.
    """
    m_arr, n_arr = tree.all_pairs_meeting()
    dist = m_arr + n_arr
    vals = sym.values(int(dist.max()) + 1)
    dual = math.nextafter(_trace_norm_below(vals[dist]) / tree.n_ball, 0.0)
    # every distance d <= R occurs on the ball
    return max(dual, float(np.max(np.abs(vals[: tree.radius + 1]))))
