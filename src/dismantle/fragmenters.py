"""Fragmentation procedures producing certified vertex removals.

Every operation returns a :class:`FragmentationResult` whose kept and
removed sets partition the vertex range and whose feasibility (largest
surviving component) is recomputed from the graph rather than trusted.

Deterministic tie-breaking rule used throughout: among candidate
vertices, prefer maximum current degree, then the smallest id. This
keeps results independent of hash or iteration order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Tuple

from .analysis import components_pass_density
from .graph import Graph, as_vertex_tuple, components, excess


class PipelineBudgetError(RuntimeError):
    """Density check passed but the pipeline exceeded its removal budget."""


@dataclass(frozen=True)
class FragmentationResult:
    """Outcome of a fragmentation run.

    ``kept`` and ``removed`` partition ``0..n-1``; ``max_component`` is
    the largest component of the subgraph induced by ``kept``; ``nu`` is
    the kept fraction ``len(kept) / n``. ``component_count`` is carried
    as a descriptive statistic of the surviving subgraph.

    ``cut_sizes``, aligned with ``removed``, holds the exact size of the
    component each vertex was removed from, read off a union-find that
    adds the removals back in reverse order; only :func:`greedy_fragment`
    fills it, and greedy at any larger cap ``k`` removes exactly the
    vertices whose cut size exceeds ``k``.
    """

    kept: Tuple[int, ...]
    removed: Tuple[int, ...]
    max_component: int
    method: str
    nu: float
    component_count: int = 0
    cut_sizes: Tuple[int, ...] = ()


def _make_result(g: Graph, kept: Iterable[int], method: str) -> FragmentationResult:
    kept_t = as_vertex_tuple(g, kept)
    comp = components(g, kept_t)
    removed = tuple(v for v, c in enumerate(comp.labels) if c < 0)
    nu = 1.0 if g.n == 0 else len(kept_t) / g.n
    return FragmentationResult(kept_t, removed, comp.largest, method, nu, comp.count)


def max_component_size(g: Graph, kept: Iterable[int]) -> int:
    """Largest connected component of the subgraph induced by ``kept``."""
    return components(g, kept).largest


def component_cap(eps: float) -> int:
    """Smallest integer >= 3/eps (guarded against float noise)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie strictly in (0, 1), got {eps}")
    return math.ceil(round(3.0 / eps, 9))


# ---------------------------------------------------------------------------
# Forest fragmentation
# ---------------------------------------------------------------------------


def _fragment_forest_removals(g: Graph, verts: Iterable[int], k: int) -> list[int]:
    """Removals making every component of the induced forest have <= k vertices.

    The region induced by ``verts`` must be acyclic. Each tree is rooted
    at its smallest id and cut in one post-order pass: a vertex whose
    uncut subtree (itself plus the uncut subtrees of its children) holds
    more than ``k`` vertices is removed, leaving each child subtree, of
    at most ``k`` vertices, as a component. Some vertex of that subtree
    has to go, and the subtree's root separates the most, so the cut is
    optimal on trees. Every removal takes its at least ``k + 1`` subtree
    vertices with it, so a tree on ``t`` vertices loses at most
    ``floor(t / (k+1))`` of them.
    """
    adj = g.adj
    state = bytearray(g.n)  # 1 in the region, 2 visited
    verts = sorted(verts)
    for v in verts:
        state[v] = 1
    size = [1] * g.n
    parent = [-1] * g.n
    removed: list[int] = []
    for root in verts:
        if state[root] != 1:
            continue
        state[root] = 2
        order = [root]
        for v in order:  # breadth-first: parents precede their children
            for u in adj[v]:
                if state[u] == 1:
                    state[u] = 2
                    parent[u] = v
                    order.append(u)
        for v in reversed(order):
            if size[v] > k:
                removed.append(v)
            elif v != root:
                size[parent[v]] += size[v]
    return removed


def fragment_forest(f: Graph, k: int) -> FragmentationResult:
    """Fragment a forest into components of at most ``k`` vertices.

    Each tree is cut bottom-up from its smallest id: a vertex goes as
    soon as its uncut subtree exceeds ``k`` vertices. The cut removes the
    fewest vertices possible, and at most ``floor(n / (k+1))`` in total,
    which is tight on paths whose length is a multiple of ``k+1``. Trees
    with at most ``k`` vertices are left untouched; a tree with exactly
    ``k+1`` vertices costs one removal (its own component would otherwise
    exceed the cap).
    """
    if k < 1:
        raise ValueError(f"component cap must be >= 1, got {k}")
    if excess(f) != 0:
        raise ValueError("input graph is not a forest")
    removed = _fragment_forest_removals(f, range(f.n), k)
    gone = set(removed)
    return _make_result(f, (v for v in range(f.n) if v not in gone), "forest")


# ---------------------------------------------------------------------------
# Reverse add-back
# ---------------------------------------------------------------------------


def _add_back(adj, present: bytearray, order: Iterable[int],
              accept: Callable[[list[int]], bool]) -> list[int]:
    """Add the vertices of ``order`` to the edgeless set ``present``, through a union-find.

    A vertex with two or more present neighbours joins only if
    ``accept`` returns true on the roots of their trees, one per
    neighbour; any other vertex always joins. A joining vertex merges
    the trees of its present neighbours and is marked in ``present``.
    Returns, for every vertex, the size of its tree right after it
    joined, or 0 if it never joined.
    """
    parent = list(range(len(adj)))
    size = [1] * len(adj)
    joined = [0] * len(adj)
    for v in order:
        roots = []
        for u in adj[v]:
            if present[u]:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                roots.append(u)
        if len(roots) > 1 and not accept(roots):
            continue
        present[v] = 1
        root = v
        for u in roots:
            while parent[u] != u:  # an earlier merge of this vertex may have moved it
                u = parent[u]
            if u != root:
                if size[u] > size[root]:
                    u, root = root, u
                parent[u] = root
                size[root] += size[u]
        joined[v] = size[root]
    return joined


# ---------------------------------------------------------------------------
# Greedy component-capping
# ---------------------------------------------------------------------------


def greedy_fragment(g: Graph, cap: int) -> FragmentationResult:
    """Cap component sizes by repeated maximum-degree removals.

    While some component exceeds ``cap``, its highest-degree vertex
    (smallest id on ties) is removed. A vertex is picked from its
    component alone, never by the cap, so the removals at cap ``k`` are
    the cap-1 removals made from components of more than ``k`` vertices,
    and removal sets shrink as the cap grows. The work is two passes,
    O(m log n) whatever the cap:

    1. Cap-1 elimination: while some vertex has a neighbour left, remove
       the one of highest remaining degree, smallest id on ties, from one
       lazy global max-heap.
    2. Reverse union-find: the removed vertices go back in reverse order,
       each joining the sets of its present neighbours; the size of its
       set then is the size of the component it was removed from.

    The result removes the vertices whose cut size exceeds ``cap``;
    ``cut_sizes`` holds those exact sizes, so the removals at any cap
    ``k >= cap`` are the vertices whose entry exceeds ``k``.
    """
    if cap < 1:
        raise ValueError(f"component cap must be >= 1, got {cap}")
    n = g.n
    adj = g.adj
    deg = [len(a) for a in adj]
    heap = [(-d, v) for v, d in enumerate(deg) if d]
    heapq.heapify(heap)
    present = bytearray([1]) * n
    order: list[int] = []
    while heap:
        dneg, v = heapq.heappop(heap)
        if not present[v] or deg[v] != -dneg:
            continue
        present[v] = 0
        order.append(v)
        for u in adj[v]:
            if present[u]:
                deg[u] -= 1
                if deg[u]:
                    heapq.heappush(heap, (-deg[u], u))

    cut = _add_back(adj, present, reversed(order), lambda roots: True)
    res = _make_result(g, (v for v in range(n) if cut[v] <= cap), "greedy")
    return replace(res, cut_sizes=tuple(cut[v] for v in res.removed))


# ---------------------------------------------------------------------------
# Decycling
# ---------------------------------------------------------------------------


def _peel(incore: bytearray, coredeg: list[int], adj, seeds: Iterable[int]) -> None:
    """Strip vertices of core-degree <= 1 starting from ``seeds`` (cascading)."""
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if not incore[v] or coredeg[v] > 1:
            continue
        incore[v] = 0
        for u in adj[v]:
            if incore[u]:
                coredeg[u] -= 1
                if coredeg[u] <= 1:
                    queue.append(u)


def _decycled_forest(g: Graph, verts: Iterable[int]) -> list[int]:
    """A maximal induced forest of the region induced by ``verts``.

    Two passes, O(m log n):

    1. Elimination: while the region has a 2-core, remove its vertex of
       highest degree in the region (smallest id on ties), then peel the
       core again. One lazy max-heap holds the core. A removal needs no
       cycle test: the next pass restores every one that closes no cycle.
    2. Add-back: starting from the surviving forest, the removals go back
       in reverse order, each only when its present neighbours lie in
       distinct trees.

    Every vertex left out has two neighbours in one tree of the final
    forest, so no removal can come back without closing a cycle, and
    adding the removals back to the forest raises its excess by at least
    one each: a component loses at most ``excess`` vertices.
    """
    adj = g.adj
    alive = bytearray(g.n)
    verts = list(verts)
    for v in verts:
        alive[v] = 1
    deg = [0] * g.n
    for v in verts:
        deg[v] = sum(alive[u] for u in adj[v])

    incore = bytearray(alive)
    coredeg = deg[:]
    _peel(incore, coredeg, adj, [v for v in verts if deg[v] <= 1])
    heap = [(-deg[v], v) for v in verts if incore[v]]
    heapq.heapify(heap)

    removed: list[int] = []
    while heap:
        dneg, v = heapq.heappop(heap)
        if not incore[v] or deg[v] != -dneg:
            continue
        alive[v] = 0
        removed.append(v)
        for u in adj[v]:
            if alive[u]:
                deg[u] -= 1
                if incore[u]:
                    heapq.heappush(heap, (-deg[u], u))
        coredeg[v] = 0
        _peel(incore, coredeg, adj, [v])

    order = [v for v in verts if alive[v]] + removed[::-1]
    joined = _add_back(adj, bytearray(g.n), order, lambda roots: len(set(roots)) == len(roots))
    return [v for v in verts if joined[v]]


def decycle_heuristic(g: Graph) -> FragmentationResult:
    """Remove vertices until the whole graph is a forest.

    The max-degree vertex of the 2-core goes until no core is left, then
    every removal that closes no cycle comes back (see
    :func:`_decycled_forest`). The forest is maximal, and each component
    loses at most its ``excess``.
    """
    return _make_result(g, _decycled_forest(g, range(g.n)), "decycle")


# ---------------------------------------------------------------------------
# Pipeline, trimming, cycle stripping
# ---------------------------------------------------------------------------


def pipeline_fragment(g: Graph, s: Iterable[int], eps: float) -> FragmentationResult:
    """Two-stage fragmentation of ``G[S]`` at component cap ``ceil(3/eps)``.

    Stage one keeps a maximal induced forest of ``G[S]`` (see
    :func:`_decycled_forest`; at most ``excess`` removals per component);
    stage two applies :func:`fragment_forest` to that forest. When every
    component of ``G[S]`` spans at most ``(1 + eps/3)`` times its size in
    edges, the total number of removals is certified to stay within
    ``eps * n`` and a violation raises :class:`PipelineBudgetError`.
    """
    cap = component_cap(eps)
    s_t = as_vertex_tuple(g, s)
    forest = _decycled_forest(g, s_t)
    gone = set(_fragment_forest_removals(g, forest, cap))
    kept = [v for v in forest if v not in gone]
    result = _make_result(g, kept, "pipeline")
    if result.max_component > cap:
        raise RuntimeError(
            f"internal error: component of size {result.max_component} exceeds cap {cap}"
        )
    removed_from_s = len(s_t) - len(kept)
    if components_pass_density(g, s_t, eps) and removed_from_s > eps * g.n + 1e-9:
        raise PipelineBudgetError(
            f"removed {removed_from_s} of {len(s_t)} vertices, over budget "
            f"{eps * g.n:.1f} despite the density check passing"
        )
    return result


def trim_components(g: Graph, s: Iterable[int], target: int) -> FragmentationResult:
    """Shrink every oversized component of ``G[S]`` to exactly ``target`` vertices.

    A component of size ``t > target`` loses exactly ``t - target``
    vertices (maximum degree first, smaller id on ties); smaller
    components are untouched.
    """
    if target < 1:
        raise ValueError(f"target size must be >= 1, got {target}")
    s_t = as_vertex_tuple(g, s)
    adj = g.adj
    removed: list[int] = []
    for comp in components(g, s_t).members():
        if len(comp) <= target:
            continue
        deg = dict.fromkeys(comp, 0)  # degree in the component; removed vertices leave it
        for v in comp:
            deg[v] = sum(u in deg for u in adj[v])
        heap = [(-d, v) for v, d in deg.items()]
        heapq.heapify(heap)
        for _ in range(len(comp) - target):
            while True:
                dneg, v = heapq.heappop(heap)
                if deg.get(v) == -dneg:
                    break
            del deg[v]
            removed.append(v)
            for u in adj[v]:
                if u in deg:
                    deg[u] -= 1
                    heapq.heappush(heap, (-deg[u], u))

    gone = set(removed)
    return _make_result(g, (v for v in s_t if v not in gone), "trim")


def strip_short_cycles(g: Graph, s: Iterable[int], k: int) -> FragmentationResult:
    """Make ``G[S]`` acyclic when all its components have at most ``k`` vertices.

    Every cycle of ``G[S]`` then has length at most ``k``. The decycling
    (see :func:`_decycled_forest`) removes at most ``excess`` vertices per
    component, and the excess of a graph never exceeds its number of
    cycles, so removals stay at most the number of these short cycles.
    """
    s_t = as_vertex_tuple(g, s)
    largest = max_component_size(g, s_t)
    if largest > k:
        raise ValueError(f"component of size {largest} exceeds the cap {k}")
    return _make_result(g, _decycled_forest(g, s_t), "strip")


def edge_decycling_count(g: Graph) -> int:
    """Minimum number of edge deletions leaving a spanning forest."""
    return excess(g)
