"""Fragmentation procedures producing certified vertex removals.

Every operation returns a :class:`FragmentationResult` whose kept and
removed sets partition the vertex range and whose feasibility (largest
surviving component) is recomputed from the graph rather than trusted.

Deterministic tie-breaking rule used throughout: among candidate
vertices, prefer maximum current degree, then the smallest id. This
keeps results independent of hash or iteration order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .analysis import _components_pass_density
from .graph import Graph, _check_cap, _component_sizes, _region_edges, _vertex_mask, excess


class PipelineBudgetError(RuntimeError):
    """Density check passed but the pipeline exceeded its removal budget."""


@dataclass(frozen=True)
class FragmentationResult:
    """Outcome of a fragmentation run.

    ``mask`` is the certified kept set, one byte per vertex (1 kept, 0
    removed); the ascending ``kept`` and ``removed`` ids it lists partition
    ``0..n-1``. ``max_component`` is the largest component of the subgraph
    induced by ``kept``; ``nu`` is the kept fraction ``len(kept) / n``;
    ``component_count`` describes the surviving subgraph.
    """

    mask: bytes
    max_component: int
    method: str
    nu: float
    component_count: int = 0

    @property
    def kept(self) -> Tuple[int, ...]:
        return tuple(np.flatnonzero(np.frombuffer(self.mask, dtype=bool)).tolist())

    @property
    def removed(self) -> Tuple[int, ...]:
        return tuple(np.flatnonzero(~np.frombuffer(self.mask, dtype=bool)).tolist())


def _row(g: Graph, sizes: np.ndarray) -> Tuple[float, int]:
    """``(nu, max_component)`` of a kept set, read off its component ``sizes``."""
    return 1.0 if g.n == 0 else int(sizes.sum()) / g.n, int(sizes.max(initial=0))


def _make_result(g: Graph, inside: np.ndarray, method: str) -> FragmentationResult:
    """Certify the kept set, the boolean mask ``inside`` of length ``g.n``:
    read :func:`_row` off its :func:`_component_sizes`, and store its bytes."""
    if not (isinstance(inside, np.ndarray) and inside.dtype == bool and inside.shape == (g.n,)):
        raise ValueError(f"kept set is not a boolean mask of length {g.n}")
    sizes = _component_sizes(g, inside)[1]
    nu, largest = _row(g, sizes)
    return FragmentationResult(inside.tobytes(), largest, method, nu, int(np.count_nonzero(sizes)))


def component_cap(eps: float) -> int:
    """Smallest integer >= 3/eps (guarded against float noise)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie strictly in (0, 1), got {eps}")
    return math.ceil(round(3.0 / eps, 9))


# ---------------------------------------------------------------------------
# Forest fragmentation
# ---------------------------------------------------------------------------


def _forest_order(g: Graph, inside: np.ndarray) -> tuple[list[int], list[int]]:
    """A breadth-first order and the parents of the forest induced by the mask ``inside``.

    The region must be acyclic. Each tree is rooted at its smallest id,
    so parents precede their children; ``parent`` is -1 at roots and
    outside the region. One orientation serves every cap's cut.
    """
    adj = g.adj
    state = bytearray(inside)  # 1 in the region, 2 visited
    parent = [-1] * g.n
    order: list[int] = []
    for root in np.flatnonzero(inside).tolist():
        if state[root] != 1:
            continue
        state[root] = 2
        tree = [root]
        for v in tree:  # breadth-first: parents precede their children
            for u in adj[v]:
                if state[u] == 1:
                    state[u] = 2
                    parent[u] = v
                    tree.append(u)
        order += tree
    return order, parent


def _fragment_forest_removals(order: Sequence[int], parent: Sequence[int], k: int) -> list[int]:
    """Removals leaving components of at most ``k`` vertices in a forest
    oriented by :func:`_forest_order`, in one O(n) reversed sweep of ``order``.

    A vertex whose uncut subtree (itself plus the uncut subtrees of its
    children) holds more than ``k`` vertices is removed, leaving each
    child subtree, of at most ``k`` vertices, as a component. Some vertex
    of that subtree has to go, and the subtree's root separates the most,
    so the cut is optimal on trees, and a tree on ``t`` vertices loses at
    most ``floor(t / (k+1))``.
    """
    size = [1] * len(parent)
    removed: list[int] = []
    for v in reversed(order):
        if size[v] > k:
            removed.append(v)
        elif parent[v] >= 0:
            size[parent[v]] += size[v]
    return removed


def fragment_forest(f: Graph, k: int) -> FragmentationResult:
    """Fragment a forest into components of at most ``k`` vertices.

    Each tree is cut bottom-up from its smallest id: a vertex goes as soon
    as its uncut subtree exceeds ``k`` vertices. The cut removes the fewest
    vertices possible, at most ``floor(n / (k+1))``, which is tight on
    paths whose length is a multiple of ``k+1``. Trees with at most ``k``
    vertices are left untouched; a tree with ``k+1`` costs one removal.
    """
    _check_cap(k)
    if excess(f) != 0:
        raise ValueError("input graph is not a forest")
    kept = np.ones(f.n, dtype=bool)
    kept[_fragment_forest_removals(*_forest_order(f, kept), k)] = False
    return _make_result(f, kept, "forest")


# ---------------------------------------------------------------------------
# Reverse add-back and core elimination
# ---------------------------------------------------------------------------


def _add_back(g: Graph, present: bytearray, order: Iterable[int]) -> None:
    """Add each vertex of ``order`` to the induced forest ``present`` that
    it closes no cycle of, through a union-find over parents alone.

    The union-find starts from the trees of ``present``: each vertex's
    parent is its label from :func:`_component_sizes`, so a vertex
    outside the forest is its own root. A vertex joins unless two of its
    present neighbours lie in one tree; a joining vertex becomes the root
    of the trees of its present neighbours and is marked in ``present``.
    Which vertex roots a tree cannot change who joins, so no sizes are
    kept. Decycling is its only caller.
    """
    adj = g.adj
    parent = _component_sizes(g, np.frombuffer(present, dtype=bool))[0].tolist()
    for v in order:
        roots = []
        for u in adj[v]:
            if present[u]:
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                roots.append(u)
        if len(set(roots)) < len(roots):
            continue
        present[v] = 1
        for r in roots:
            parent[r] = v


def _empty_core(adj, alive: bytearray, deg: list[int]) -> list[int]:
    """Empty the 2-core of the region marked in ``alive``; return the removals in order.

    While the 2-core is not empty, its vertex with the most core
    neighbours (smallest id on ties) is removed and cleared in ``alive``,
    and every vertex left with fewer than two core neighbours leaves the
    core. ``deg`` holds degrees in the region on entry and core degrees
    on exit.

    A level scan finds the removals. Each vertex of the region is filed
    once, under its degree there; the peel files nothing. Core degrees
    only fall, so a core vertex always sits in the list of a level at or
    above its degree, and the list of the top level ``top``, sorted once
    when the scan pops it, holds every core vertex at degree ``top``,
    smallest id first: the order of the removals. One whose degree fell
    below ``top`` moves down to its level. The cost is O(n + m) plus one
    sort per degree level, over at most ``n + 2m`` entries in all.

    Decycling is its only caller in the library. A removal here can start
    a peel cascade that lowers degrees far beyond its own neighbours;
    with no peeling, :func:`_lfmis_elimination` finds the order in numpy.
    """
    core = bytearray(alive)
    levels: list[list[int]] = [[] for _ in range(max(max(deg, default=0), 1) + 1)]
    for v, d in enumerate(deg):
        if core[v]:
            levels[d].append(v)

    def leave(stack: list[int]) -> None:
        while stack:
            v = stack.pop()
            if core[v]:
                core[v] = 0
                for u in adj[v]:
                    if core[u]:
                        d = deg[u] = deg[u] - 1
                        if d < 2:
                            stack.append(u)

    leave(levels[0] + levels[1])
    removed: list[int] = []
    while len(levels) > 2:
        top = len(levels) - 1
        for v in sorted(levels.pop()):
            if core[v]:
                if deg[v] < top:
                    levels[deg[v]].append(v)
                else:
                    alive[v] = 0
                    removed.append(v)
                    leave([v])
    return removed


def _lfmis(level: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """The lexicographically first maximal independent set of the vertices
    ``level`` (ascending ids), ascending; ``(pa, pb)`` are the positions
    in ``level`` of the ends of its edges, with ``pb < pa``.

    In each numpy round, an undecided vertex with no undecided smaller
    neighbour joins, and its larger neighbours drop out; the edges with
    both ends undecided stay. On random id orders the rounds settle the
    set quickly (Blelloch, Fineman & Shun, SPAA 2012), but an ascending
    chain settles two vertices a round. So the rounds go on only while
    each settles at least half of the undecided vertices, and one pass
    over the edges that stay, in ascending order of their smaller end,
    settles the rest: an edge's larger end drops out unless its smaller
    end did, and every undecided vertex left joins. No undecided vertex
    neighbours a vertex the rounds took, so only those edges matter.
    """
    state = np.zeros(level.size, dtype=np.int8)  # 0 undecided, 1 joined, 2 out
    left = level.size
    while left:
        join = state == 0
        join[pa] = False  # an undecided smaller neighbour blocks
        state[join] = 1
        state[pa[join[pb]]] = 2
        live = (state[pa] == 0) & (state[pb] == 0)
        pa, pb = pa[live], pb[live]
        before, left = left, np.count_nonzero(state == 0)
        if 2 * left > before:
            break
    out = bytearray(state == 2)
    by_smaller = np.argsort(pb)  # a vertex's own edges come after those that decide it
    for b, a in zip(pb[by_smaller].tolist(), pa[by_smaller].tolist()):
        if not out[b]:
            out[a] = 1
    return level[~np.frombuffer(out, dtype=bool)]


def _lfmis_elimination(g: Graph, inside: np.ndarray) -> np.ndarray:
    """The removals, in order, that empty the 1-core of the region marked
    by the boolean mask ``inside``, found in numpy.

    Nothing is peeled: the vertex with the most neighbours left (smallest
    id on ties) goes until no edge is left; the independent set left is
    not listed. Degrees only fall, so a vertex at the top degree ``d``
    goes exactly when no smaller-id neighbour at degree ``d`` went before
    it: each level removes the lexicographically first maximal
    independent set of the vertices at that level (see :func:`_lfmis`),
    in ascending order.

    Each level scans the edges left. A pass that starts at top degree
    ``top`` sets aside the edges whose two ends are at degree ``half =
    top // 2`` or less, and takes them back once the top falls to
    ``half``: degrees only fall, so such an edge never has an end on a
    level above ``half``. A pass costs O(n + m); each of its levels costs
    O(vertices above ``half`` + edges left at them when the pass began).
    There are at most max-degree levels and 1 + log2(max-degree) passes;
    an ascending chain pays O(n + m) in Python.
    """
    n = g.n
    left = inside.copy()
    rest = _region_edges(g, left)
    deg = np.bincount(rest.ravel(), minlength=n)
    pos = np.empty(n, dtype=np.intp)  # a level's vertex -> its position in the level
    mark = np.zeros(n, dtype=bool)  # the level's vertices, while its own edges are picked
    order = [np.zeros(0, dtype=np.intp)]
    while rest.size:
        top = deg.max()
        half = top // 2
        above = deg > half
        high = above[rest[0]] | above[rest[1]]
        aside = np.compress(~high, rest, axis=1)
        rest = np.compress(high, rest, axis=1)
        hot = np.flatnonzero(above)  # every level of this pass, ascending
        for d in range(top, half, -1):
            level = hot[deg[hot] == d]
            if not level.size:
                continue
            pos[level] = np.arange(level.size)
            mark[level] = True
            own = mark[rest[0]] & mark[rest[1]]  # the level's own edges
            mark[level] = False
            pb, pa = pos[np.compress(own, rest, axis=1)]  # u < v, so pos[u] < pos[v]
            gone = _lfmis(level, pa, pb)
            order.append(gone)
            left[gone] = False
            keep = left[rest[0]] & left[rest[1]]
            np.subtract.at(deg, np.compress(~keep, rest, axis=1), 1)
            rest = np.compress(keep, rest, axis=1)
        rest = np.concatenate((rest, aside), axis=1)
    return np.concatenate(order)


# ---------------------------------------------------------------------------
# Greedy component-capping
# ---------------------------------------------------------------------------


def _greedy_cuts(g: Graph) -> np.ndarray:
    """Every vertex's greedy cut size: the size of the component it was
    removed from at cap 1, or 0 if it never was. Two passes over the edge
    array: a numpy elimination, one independent set per degree level,
    then an O(m α) union-find over the removals:

    1. Cap-1 elimination: while some vertex has a neighbour left, remove
       the one of highest remaining degree, smallest id on ties; this
       empties the 1-core (see :func:`_lfmis_elimination`).
    2. Reverse union-find: the removed vertices go back in reverse order,
       each joining the sets of its present neighbours; the size of its
       set then is the size of the component it was removed from. Each
       edge goes in when its later end goes back.

    The vertices the elimination keeps are independent, so a kept vertex
    has no present neighbour until its first neighbour goes back, and
    then adds exactly 1 to that neighbour's set. So each kept vertex is
    folded into that neighbour in numpy: the edge between them is
    dropped, the neighbour's set starts at 1 plus the kept vertices it
    takes in, and the kept vertex's later edges point at the neighbour.
    Every end left is a removal, so the union-find runs over add-back
    positions ``0..R-1`` for ``R`` removals, in one flat loop over the
    edges sorted by their later end; each cut is a component's size at
    one add-back, so the order of the unions cannot change it. The pass
    reads no ``adj``.
    """
    order = _lfmis_elimination(g, np.ones(g.n, dtype=bool))
    back = np.full(g.n, -1, dtype=np.int64)  # add-back position; -1 for the kept
    back[order[::-1]] = np.arange(order.size)
    u, v = g._ends
    bu, bv = back[u], back[v]
    join = np.maximum(bu, bv)  # the edge goes in when this position goes back
    mate = np.minimum(bu, bv)
    fold = np.flatnonzero(mate < 0)  # the edges to a kept vertex
    held = np.where(bu < 0, u, v)[fold]
    first = np.full(g.n, order.size, dtype=np.int64)  # a kept vertex's first neighbour back
    np.minimum.at(first, held, join[fold])
    taken = first[held] == join[fold]
    start = 1 + np.bincount(join[fold[taken]], minlength=order.size)
    mate[fold] = first[held]  # a taken edge now joins a position to itself
    loop = np.flatnonzero(mate < join)
    edges = loop[np.argsort(join[loop])]  # any order within one position's edges will do
    joins, mates = join[edges], mate[edges]
    del bu, bv, join, mate, fold, held, first, taken, loop, edges
    joins, mates = array("q", joins.tobytes()), array("q", mates.tobytes())  # no int objects
    parent = list(range(order.size))
    size = start.tolist()  # union by size: without it greedy ran 1.5 times slower on regular 1e6
    cut = start.tolist()
    last = -1
    for w, x in zip(joins, mates):
        if w != last:  # w's first edge: w joins as its own set and its kept vertices
            last = root = w
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        if x != root:
            if size[x] > size[root]:
                x, root = root, x
            parent[x] = root
            size[root] += size[x]
            cut[w] = size[root]
    cuts = np.zeros(g.n, dtype=np.int64)
    cuts[order[::-1]] = cut
    return cuts


def greedy_fragment(g: Graph, cap: int) -> FragmentationResult:
    """Cap component sizes by repeated maximum-degree removals.

    While some component exceeds ``cap``, its highest-degree vertex
    (smallest id on ties) is removed. A vertex is picked from its
    component alone, never by the cap, so the removals at cap ``k`` are
    the cap-1 removals made from components of more than ``k`` vertices,
    and removal sets shrink as the cap grows. So the result removes the
    vertices whose cut size (see :func:`_greedy_cuts`) exceeds ``cap``,
    at the same cost whatever the cap: one numpy elimination, one
    independent set per degree level, and a union-find over the removals.
    None of it builds ``adj``.
    """
    _check_cap(cap)
    return _make_result(g, _greedy_cuts(g) <= cap, "greedy")


# ---------------------------------------------------------------------------
# Decycling
# ---------------------------------------------------------------------------


def _decycled_forest(g: Graph, inside: np.ndarray) -> np.ndarray:
    """A maximal induced forest of the region marked by ``inside``, as a mask.

    Two passes, O(n + m) filing plus one sort per degree level, then one
    numpy components pass and a union-find over the removals only:

    1. Elimination: while the region has a 2-core, remove its vertex of
       highest degree in the 2-core (smallest id on ties), then peel the
       core again, by the level scan of :func:`_empty_core`. This is
       CoreHD (Zdeborova, Zhang & Zhou, Sci. Rep. 6, 37954, 2016). A
       removal needs no cycle test: the next pass restores every one
       that closes no cycle.
    2. Add-back: one numpy components pass (:func:`_component_sizes`)
       seeds a union-find with the trees of the surviving forest, then
       the removals alone go back in reverse order, each only when its
       present neighbours lie in distinct trees.

    Every vertex left out has two neighbours in one tree of the final
    forest, so no removal can come back without closing a cycle, and
    adding the removals back to the forest raises its excess by at least
    one each: a component loses at most ``excess`` vertices.
    """
    alive = bytearray(inside)
    deg = np.bincount(_region_edges(g, inside).ravel(), minlength=g.n).tolist()
    removed = _empty_core(g.adj, alive, deg)
    _add_back(g, alive, reversed(removed))
    return np.frombuffer(alive, dtype=bool)


def decycle_heuristic(g: Graph) -> FragmentationResult:
    """Remove vertices until the whole graph is a forest.

    The 2-core vertex with the most 2-core neighbours goes until no core
    is left, then every removal that closes no cycle comes back (see
    :func:`_decycled_forest`). The forest is maximal, and each component
    loses at most its ``excess``.
    """
    return _make_result(g, _decycled_forest(g, np.ones(g.n, dtype=bool)), "decycle")


# ---------------------------------------------------------------------------
# Pipeline, trimming, cycle stripping
# ---------------------------------------------------------------------------


def pipeline_fragment(g: Graph, s: Iterable[int], eps: float) -> FragmentationResult:
    """Two-stage fragmentation of ``G[S]`` at component cap ``ceil(3/eps)``.

    Stage one keeps a maximal induced forest of ``G[S]`` (see
    :func:`_decycled_forest`; at most ``excess`` removals per component);
    stage two applies :func:`fragment_forest` to that forest. When every
    component of ``G[S]`` spans at most ``(1 + eps/3)`` times its size in
    edges, the removals are certified to stay within ``eps * n``; more
    raise :class:`PipelineBudgetError`.
    """
    return _pipeline_fragment(g, _vertex_mask(g, s), eps)


def _pipeline_fragment(g: Graph, inside: np.ndarray, eps: float) -> FragmentationResult:
    """:func:`pipeline_fragment` of the region marked by the boolean mask ``inside``."""
    cap = component_cap(eps)
    kept = _decycled_forest(g, inside)
    kept[_fragment_forest_removals(*_forest_order(g, kept), cap)] = False
    result = _make_result(g, kept, "pipeline")
    if result.max_component > cap:
        raise RuntimeError(
            f"internal error: component of size {result.max_component} exceeds cap {cap}"
        )
    size = np.count_nonzero(inside)
    removed_from_s = size - np.count_nonzero(kept)
    if removed_from_s > eps * g.n + 1e-9 and _components_pass_density(g, inside, eps):
        raise PipelineBudgetError(
            f"removed {removed_from_s} of {size} vertices, over budget "
            f"{eps * g.n:.1f} despite the density check passing"
        )
    return result


def trim_components(g: Graph, s: Iterable[int], target: int) -> FragmentationResult:
    """Shrink every oversized component of ``G[S]`` to exactly ``target`` vertices.

    A component of size ``t > target`` loses exactly ``t - target``
    vertices: the oversized components are emptied highest degree first
    (degree among the vertices left, smaller id on ties): the 1-core by
    :func:`_lfmis_elimination`, then the vertices it leaves, ascending.
    Each loses its first ``t - target`` removals; smaller ones, none.
    """
    _check_cap(target, "target size")
    inside = _vertex_mask(g, s)
    root, sizes = _component_sizes(g, inside)
    quota = sizes - target  # indexed by root
    over = inside & (quota[root] > 0)
    order = _lfmis_elimination(g, over)
    over[order] = False  # left independent: each at degree 0, so in id order
    order = np.concatenate((order, np.flatnonzero(over)))
    quota = quota.tolist()
    for v, c in zip(order.tolist(), root[order].tolist()):
        if quota[c] > 0:
            quota[c] -= 1
            inside[v] = False
    return _make_result(g, inside, "trim")


def strip_short_cycles(g: Graph, s: Iterable[int], k: int) -> FragmentationResult:
    """Make ``G[S]`` acyclic when all its components have at most ``k`` vertices.

    Every cycle of ``G[S]`` then has length at most ``k``. The decycling
    (see :func:`_decycled_forest`) removes at most ``excess`` vertices per
    component, and the excess of a graph never exceeds its number of
    cycles, so removals stay at most the number of these short cycles.
    """
    _check_cap(k)
    inside = _vertex_mask(g, s)
    largest = _component_sizes(g, inside)[1].max(initial=0)
    if not largest <= k:
        raise ValueError(f"component of size {largest} exceeds the cap {k}")
    return _make_result(g, _decycled_forest(g, inside), "strip")
