"""Numeric calculus for sparse-graph fragmentation guarantees.

Covers the supercritical giant-component fixed point, the Chernoff
upper tail used to bound edge counts of small vertex sets, the search
for an admissible set-size fraction ``delta``, and a scanner that finds
every connected set denser than ``(1 + eps/3)`` edges per vertex by
walking only the sets around short cycles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from .graph import (
    Graph, _arcs, _check_cap, _component_sizes, _region_edges, _vertex_mask, components,
)


class EnumerationBudgetError(RuntimeError):
    """The connected-set scan exceeded its examined-set budget."""


def giant_fraction_limit(c: float) -> float:
    """Limiting giant-component fraction of a binomial random graph.

    For mean degree ``c > 1`` this is the unique root in ``(0, 1]`` of
    ``x + expm1(-c*x)``, which is ``x = 1 - exp(-c*x)`` written without
    the cancellation of ``1 - exp`` near ``c = 1``; at or below the
    critical point it is 0. Bisection over ``[0, 1]`` halves until the
    midpoint equals an end, which takes 53 to 105 halvings for every
    double ``c > 1``. The result is correctly rounded at ``c = 2``
    (0.7968121300200199); near ``c = 1`` the rounding of ``c*x`` costs
    about ``1e-16 / (c - 1)`` relative, 6e-8 at ``c = 1 + 1e-9``.
    """
    if not c > 0:
        raise ValueError(f"mean degree must be positive, got {c}")
    if c <= 1:
        return 0.0
    lo, hi = 0.0, 1.0  # the function is negative on (0, root), positive above
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid + math.expm1(-c * mid) < 0:
            lo = mid
        else:
            hi = mid


def _chernoff_rate(m: float) -> float:
    """Chernoff rate ``log(m) - 1 + 1/m`` of a threshold ``m`` times the mean."""
    return math.log(m) - 1.0 + 1.0 / m


def chernoff_upper_tail(mean: float, threshold: float) -> float:
    """Upper bound on ``P(X >= threshold)`` for ``X`` with binomial mean ``mean``.

    Uses the rate ``log(m) - 1 + 1/m`` with ``m = threshold / mean``;
    only meaningful (and only accepted) above the mean, where the rate
    is strictly positive.
    """
    if not mean > 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if not threshold > mean:
        raise ValueError(
            f"threshold {threshold} must exceed the mean {mean} (bound is vacuous)"
        )
    rate = _chernoff_rate(threshold / mean)
    return min(1.0, math.exp(-rate * threshold))


@dataclass(frozen=True)
class TailBound:
    """Union bound on the probability that some ``t``-set spans many edges.

    ``mean`` is the binomial edge-count mean for one set, ``threshold``
    the edge count deemed 'dense', ``rate`` the Chernoff rate, ``bound``
    the clamped probability bound and ``log_bound`` its unclamped
    logarithm. ``simplified_exponent`` is the closed-form exponent
    ``-eps * t * log(tau) / 8`` when its side conditions hold at this
    ``tau``, else ``None``.
    """

    t: int
    tau: float
    mean: float
    threshold: float
    rate: Optional[float]
    bound: float
    log_bound: float
    simplified_exponent: Optional[float]


def dense_set_probability_bound(t: int, n: int, c: float, eps: float) -> TailBound:
    """Bound the probability that some ``t``-set spans more than ``(1+eps/4)t`` edges.

    Multiplies the per-set Chernoff tail by the ``(e*tau)**t`` bound on
    the number of ``t``-sets (``tau = n/t``). Evaluated in log space, so
    astronomically large intermediate factors stay finite; the reported
    ``bound`` is clamped into ``[0, 1]``.
    """
    t, n = index(t), index(n)  # a float raises TypeError, as in the generators
    if not 1 <= t <= n:
        raise ValueError(f"set size must satisfy 1 <= t <= n, got t={t}, n={n}")
    if not 1 < c < math.inf:
        raise ValueError(f"mean degree must be finite and exceed 1, got {c}")
    if not 0 < eps < 1:
        raise ValueError(f"tolerance must lie strictly in (0, 1), got {eps}")
    tau = n / t
    threshold = (1.0 + eps / 4.0) * t
    if t == 1:
        return TailBound(1, tau, 0.0, threshold, None, 0.0, -math.inf, None)
    mean = c * t * (t - 1) / (2.0 * n)
    m = threshold / mean
    if m <= 1.0:
        raise ValueError(
            f"side condition failed: threshold/mean = {m:.6g} <= 1 "
            f"(t too large relative to 2n/c)"
        )
    rate = _chernoff_rate(m)
    log_tau = math.log(tau)
    log_bound = t * (1.0 + log_tau) - rate * threshold
    bound = 1.0 if log_bound >= 0.0 else math.exp(log_bound)  # exp underflows to 0.0
    simplified = None
    if _exponent_inequality(c, eps, log_tau)[2]:
        simplified = -eps * t * log_tau / 8.0
    return TailBound(t, tau, mean, threshold, rate, bound, log_bound, simplified)


def _exponent_inequality(c: float, eps: float, log_tau: float) -> Tuple[float, float, bool]:
    """Per-vertex exponent ``lhs``, its target ``rhs = -eps*log(tau)/8``, and admissibility.

    Admissible means the Chernoff rate margin ``log(tau) - 1 - log(c)``
    is positive and ``lhs <= rhs``, so the exponent collapses to ``rhs``.
    """
    a = log_tau - 1.0 - math.log(c)
    lhs = (1.0 + log_tau) - (1.0 + eps / 4.0) * a
    rhs = -eps * log_tau / 8.0
    return lhs, rhs, a > 0 and lhs <= rhs


@dataclass(frozen=True)
class DeltaSweepRow:
    step: int
    delta: float
    log_tau: float
    lhs: float
    rhs: float
    admissible: bool


def delta_sweep(c: float, eps: float) -> list[DeltaSweepRow]:
    """Geometric grid search for an admissible ``delta``.

    Starting from ``min(2/c, eps/3)`` and halving, each candidate is
    tested at ``tau = 1/delta`` for a positive Chernoff rate margin and
    for the exponent inequality (``lhs <= rhs`` per unit of ``t``). The
    sweep stops at the first admissible candidate, which is therefore the
    largest admissible grid point. A candidate that underflows to 0.0
    raises :class:`ValueError`; the anchor is below 1, so that happens
    within about 1,075 halvings.
    """
    if not 1 < c < math.inf:
        raise ValueError(f"mean degree must be finite and exceed 1, got {c}")
    if not 0 < eps < 1:
        raise ValueError(f"tolerance must lie strictly in (0, 1), got {eps}")
    log_anchor = math.log(min(2.0 / c, eps / 3.0))
    ln2 = math.log(2.0)
    rows = []
    for j in itertools.count(1):
        log_tau = j * ln2 - log_anchor  # candidate delta = anchor / 2**j
        delta = math.exp(-log_tau)
        if delta == 0.0:
            raise ValueError(
                f"admissible delta underflows double precision for c={c}, eps={eps}"
            )
        lhs, rhs, ok = _exponent_inequality(c, eps, log_tau)
        rows.append(DeltaSweepRow(j, delta, log_tau, lhs, rhs, ok))
        if ok:
            return rows


def admissible_delta(c: float, eps: float) -> float:
    """Largest grid ``delta`` whose tail exponent is certified at ``tau = 1/delta``.

    The result is strictly below both ``eps/3`` and ``2/c``. It shrinks
    like ``exp(-K/eps)``; at ``c = 2`` it is 2.7e-314 at ``eps = 0.03``
    and underflows to zero just below ``eps = 0.0291``, where
    :func:`delta_sweep` raises rather than return zero.
    """
    return delta_sweep(c, eps)[-1].delta


# ---------------------------------------------------------------------------
# Dense connected sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Outcome of a dense-set scan.

    ``violations`` lists every connected set of at most ``t_max``
    vertices spanning more than ``(1 + eps/3)`` times its size in edges,
    as ``(sorted vertex tuple, edge count)`` pairs, sorted. That order
    does not depend on which sets the scan visits. ``sets_examined``
    counts the connected sets of at most ``t_max`` vertices, in
    components of excess at least 2, that hold a vertex marked by the
    short-cycle search of :func:`density_scan`, whether walked or counted.
    """

    eps: float
    t_max: int
    violations: Tuple[Tuple[Tuple[int, ...], int], ...]
    sets_examined: int


def _connected_sets(
    adj, roots, t_max: int, inside: list[int], marked
) -> Iterator[Tuple[int, list[int], int, Optional[list[int]]]]:
    """Walk every connected set of at most ``t_max`` vertices that holds a
    marked vertex, once, from the smallest marked vertex in it.

    ``roots`` lists the marked vertices, ascending. A candidate that is
    marked and not above the root is refused. With every vertex marked,
    that is the rule ``u > root``, and every set is met from its smallest
    vertex. Yields ``(root, s_list, edges, ext)`` for every set, grouped
    by root, each before the sets that extend it. ``ext`` lists the
    vertices the walk tries next to add to the set, and is ``None`` for a
    set of ``t_max`` vertices. A consumer that empties ``ext`` in place
    skips every larger set built on this one. Each extension candidate is
    considered once, taken or excluded for the whole branch, which makes
    every set unique without storing the sets already seen.

    ``inside`` must hold zeros on entry; while a set of fewer than
    ``t_max`` vertices is yielded, ``inside[u]`` counts the neighbours
    ``u`` has in it. A joining vertex ``w`` adds ``inside[w]`` edges, and
    an allowed vertex is a new candidate exactly when its count is 0,
    because every set vertex but the root has a neighbour in the set.
    The walk keeps an explicit stack of candidate lists, so it needs O(n)
    extra memory and no recursion, and adding or removing a vertex costs
    O(degree). ``s_list`` is a scratch list, valid until the walk resumes.
    """
    s_list: list[int] = []
    for root in roots:
        stack = [([root], 0)]  # (candidates, edges of the set they extend)
        while stack:
            ext, e_count = stack[-1]
            if not ext:
                stack.pop()
                if s_list:
                    for u in adj[s_list.pop()]:
                        inside[u] -= 1
                continue
            w = ext.pop()
            e2 = e_count + inside[w]
            s_list.append(w)
            if len(s_list) == t_max:
                yield root, s_list, e2, None
                s_list.pop()
                continue
            new_ext = ext.copy()
            for u in adj[w]:
                if not inside[u] and (u > root or not marked[u]):
                    new_ext.append(u)
                inside[u] += 1
            yield root, s_list, e2, new_ext
            stack.append((new_ext, e2))


def connected_vertex_sets(g: Graph, t_max: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Lazily yield every connected vertex set of size <= ``t_max`` with its edge count.

    Sets come as sorted vertex tuples, grouped by smallest vertex, in the
    order of the walk, which visits every set. A bad ``t_max`` raises
    :class:`ValueError` at call time, before iteration.
    """
    _check_cap(t_max, "size cap", infinite=False)  # the walk stops where len(s_list) == t_max
    walk = _connected_sets(g.adj, range(g.n), t_max, [0] * g.n, b"\x01" * g.n)
    return ((tuple(sorted(s_list)), e_count) for _, s_list, e_count, _ in walk)


def _too_dense(edges: int, size: int, eps: float) -> bool:
    """Whether ``edges`` exceeds ``(1+eps/3)`` times ``size``, beyond float noise."""
    return edges > (1.0 + eps / 3.0) * size + 1e-12


_BLOCK = 512  # starts whose walks are held at once; bounds the marking's memory


def _short_cycle_mask(g: Graph, starts: np.ndarray, t_max: int) -> np.ndarray:
    """Mark every start that lies on a cycle of at most ``t_max`` vertices.

    A start is marked when two of its non-backtracking walks of at most
    ``R = ceil(t_max / 2)`` steps end at the same vertex (the walk of no
    steps counts). Its first meeting comes at round
    ``rho(s) = min over cycles C of dist(s, C) + ceil(|C| / 2)``, so a
    start is marked exactly when ``rho(s) <= R``: every start on a cycle
    of at most ``t_max`` vertices, and maybe some near one. ``starts``
    holds the vertices of whole components, each once. rho is below n,
    so R is taken at most n: a larger cap marks no more.

    Every cycle lies in the 2-core, and a shortest path between two of
    its vertices never leaves it, so walks inside the 2-core give rho
    exactly for its vertices. A vertex ``s`` of a tree hanging from core
    vertex ``a`` has ``rho(s) = dist(s, a) + rho(a)``. So :func:`_peel`
    removes the trees, each vertex naming its parent, the walks of
    :func:`_first_meetings` run on the 2-core, from the starts in it, and
    each peeled vertex then takes its parent's rho plus one, in the
    reverse order of the peel. A peeled start's parent lies in its
    component, so it is a start too. A vertex not met within R rounds
    keeps rho above R, and so does every tree vertex hanging from it.
    """
    n = g.n
    rounds = min((int(t_max) + 1) // 2, n)
    inside = np.zeros(n, dtype=bool)
    inside[starts] = True
    alive, levels = _peel(g)
    ends = g._ends
    if levels:  # walk only the edges of the 2-core
        u, v = ends
        ends = np.compress(alive[u] & alive[v], ends, axis=1)
    rho = np.full(n, rounds + 1, dtype=np.intp)  # rounds + 1: not met within the rounds walked
    _first_meetings(n, ends, np.flatnonzero(alive & inside), rounds, rho)
    for leaves, parents in reversed(levels):
        rho[leaves] = rho[parents] + 1
    return inside & (rho <= rounds)


def _peel(g: Graph) -> Tuple[np.ndarray, list]:
    """Remove the vertices of degree at most 1, round by round, down to the 2-core.

    Returns the mask of the 2-core and, per round, the removed vertices
    that had one neighbour left with those neighbours (their parents), as
    ``(leaves, parents)``. Each vertex keeps the xor of its neighbours
    left, which names a leaf's parent. A round costs a dozen numpy calls
    however few vertices it removes, so a pendant path of L vertices
    costs L rounds.
    """
    u, v = g._ends
    deg = np.bincount(g._ends.ravel(), minlength=g.n)
    alive = np.ones(g.n, dtype=bool)
    leaves = np.flatnonzero(deg <= 1)
    levels = []
    if not leaves.size:  # no tree: skip the xor's two passes over the edges
        return alive, levels
    xor = np.zeros(g.n, dtype=u.dtype)
    np.bitwise_xor.at(xor, u, v)
    np.bitwise_xor.at(xor, v, u)
    while leaves.size:
        alive[leaves] = False
        leaves = leaves[deg[leaves] == 1]
        parents = xor[leaves]
        levels.append((leaves, parents))
        np.subtract.at(deg, parents, 1)
        np.bitwise_xor.at(xor, parents, leaves)
        leaves = np.sort(parents[alive[parents] & (deg[parents] <= 1)])
        leaves = leaves[np.diff(leaves, prepend=-1) != 0]  # np.unique, without its cost
    return alive, levels


def _first_meetings(n: int, ends: np.ndarray, walked: np.ndarray, rounds: int,
                    rho: np.ndarray) -> None:
    """Write into ``rho`` the first-meeting round of each ``walked`` vertex
    whose walks meet within ``rounds`` rounds in the graph on ``n``
    vertices whose edges are the columns ``ends``.

    Non-backtracking walks grow from each start, one step a round, and a
    start's walks stop at its first meeting. Until then they are shortest
    paths, one per vertex, so that meeting pairs a walk of this round with
    one of this round or the last: only those two rounds' ``(start, end)``
    keys are compared. Round 1 only expands, since a simple graph's steps
    from one vertex all end apart and away from it. The starts are walked
    ``_BLOCK`` at a time, so the walks held stay few however many starts
    there are.
    """
    nbr, first, deg = _arcs(n, ends)
    for lo in range(0, walked.size, _BLOCK):
        src = cur = walked[lo:lo + _BLOCK]
        prev = np.full(src.size, -1)
        for r in range(1, rounds + 1):
            # every step from each walk's end but the one back
            k = deg[cur]
            walk = np.repeat(np.arange(cur.size), k)
            nxt = nbr[np.arange(walk.size) + np.repeat(first[cur] - (np.cumsum(k) - k), k)]
            ahead = nxt != prev[walk]
            walk = walk[ahead]
            src, prev, cur = src[walk], cur[walk], nxt[ahead]
            keys = src * n + cur
            if r > 1:
                both = np.sort(np.concatenate((last, keys)))
                met = both[1:][both[1:] == both[:-1]] // n
                rho[met] = r
                if met.size and r < rounds:  # the last round's walks are dropped
                    live = rho[src] > r
                    src, prev, cur, keys = src[live], prev[live], cur[live], keys[live]
            if not cur.size:
                break
            last = keys


def density_scan(
    g: Graph, t_max: int, eps: float, budget: int = 10_000_000
) -> DensityReport:
    """Find all connected sets of size <= ``t_max`` denser than ``(1+eps/3)``.

    A violator T spans at least ``|T| + 1`` edges, so ``G[T]`` holds a
    cycle of at most ``|T|`` vertices, all of them in T, and T lies in a
    component of excess at least 2. The scan therefore marks the vertices
    ``s`` of those components with
    ``rho(s) = min over cycles C of dist(s, C) + ceil(|C| / 2)`` at most
    ``ceil(t_max / 2)`` (``_short_cycle_mask``): every vertex on a cycle
    of at most ``t_max`` vertices, and those near one. rho is read off
    non-backtracking walks inside the 2-core and carried out along the
    trees hanging from it. The scan then walks only the connected sets
    that hold a marked vertex, each once, from its smallest marked vertex.
    That walk meets every violator. ``sets_examined`` counts the sets it
    meets, whether walked or counted, and the budget counts the same sets.

    At each set S of ``t_max - 2`` vertices with ``k`` candidates the
    scan counts the ``k`` sets one larger and the ``k(k-1)/2`` plus the
    candidates' new neighbours (by the walk's candidate rule) sets two
    larger, and empties the list, so the walk skips them. It does so
    unless ``e(S) + top`` or ``e(S) + 2 top + 1``, with ``top`` the most
    neighbours in S a candidate has, is too dense for its size, since
    then a counted set might be a violator. ``violations`` come back
    sorted. The scan holds O(n + m) extra memory and uses no recursion,
    so ``t_max`` may be as large as the graph. Exceeding ``budget``
    examined sets raises :class:`EnumerationBudgetError`.
    """
    _check_cap(t_max, "size cap", infinite=False)
    if not eps >= 0:
        raise ValueError(f"tolerance must be >= 0, got {eps}")
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    root, sizes = _component_sizes(g, np.ones(g.n, dtype=bool))
    # excess <= 1: every connected subset has e(T) <= |T|; counts by root
    dense = np.bincount(root[g._ends[0]], minlength=g.n) > sizes
    mask = _short_cycle_mask(g, np.flatnonzero(dense[root]), t_max)
    adj, inside, marked = g.adj, [0] * g.n, bytearray(mask)
    roots = np.flatnonzero(mask).tolist()
    violations: list[Tuple[Tuple[int, ...], int]] = []
    examined = 0
    for root, s_list, e_count, ext in _connected_sets(adj, roots, t_max, inside, marked):
        size = len(s_list)
        examined += 1
        # e(T) <= |T| is never too dense; the integer test skips the call
        if e_count > size and _too_dense(e_count, size, eps):
            violations.append((tuple(sorted(s_list)), e_count))
        if size == t_max - 2:
            # len(ext) sets one vertex larger, and below each the
            # candidates before it plus its new neighbours
            top = fresh = 0
            for w in ext:
                if inside[w] > top:
                    top = inside[w]
                for u in adj[w]:
                    if not inside[u] and (u > root or not marked[u]):
                        fresh += 1
            if not (
                _too_dense(e_count + top, size + 1, eps)
                or _too_dense(e_count + 2 * top + 1, size + 2, eps)
            ):
                k = len(ext)
                examined += k + k * (k - 1) // 2 + fresh
                ext.clear()
        if examined > budget:
            raise EnumerationBudgetError(f"examined more than {budget} connected sets")
    return DensityReport(eps, t_max, tuple(sorted(violations)), examined)


def components_pass_density(g: Graph, s: Iterable[int], eps: float) -> bool:
    """Whether every component of ``G[S]`` spans at most ``(1+eps/3)`` times its size."""
    if not eps >= 0:
        raise ValueError(f"tolerance must be >= 0, got {eps}")
    return _components_pass_density(g, _vertex_mask(g, s), eps)


def _components_pass_density(g: Graph, inside: np.ndarray, eps: float) -> bool:
    """:func:`components_pass_density` of the boolean mask ``inside``: the
    region's edges counted at the roots of :func:`_component_sizes`."""
    root, sizes = _component_sizes(g, inside)
    edges = np.bincount(root[_region_edges(g, inside)[0]], minlength=g.n)
    dense = edges > sizes  # no other component can exceed (1+eps/3) times its size
    return not _too_dense(edges[dense], sizes[dense], eps).any()


def giant_component_fraction(g: Graph) -> float:
    """Size of the largest component divided by the vertex count."""
    if g.n == 0:
        return 0.0
    return components(g).largest / g.n
