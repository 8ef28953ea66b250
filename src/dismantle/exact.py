"""Exact maximum induced subgraph oracles (desk scale).

Branch and bound gives the largest vertex set inducing components of at
most ``k`` vertices, and the largest inducing a forest. The tests
cross-check both against independent subset enumeration, which lives
test-side in ``tests/oracles.py`` and shares no code with this module.
"""

from __future__ import annotations

from typing import Tuple

from .fragmenters import FragmentationResult, _make_result
from .graph import Graph

DEFAULT_ORACLE_LIMIT = 20


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise ValueError(f"graph has {g.n} > {limit} vertices (exact oracle limit)")


def exact_max_induced(g: Graph, k: int, limit: int = DEFAULT_ORACLE_LIMIT) -> FragmentationResult:
    """Largest vertex set inducing components of at most ``k`` vertices.

    Branch and bound over include/exclude decisions in id order. A
    branch dies as soon as the component swallowing the newest vertex
    exceeds ``k`` (component sizes only grow along an include path) or
    when even keeping every undecided vertex cannot beat the incumbent.
    """
    if not k >= 1:
        raise ValueError(f"component cap must be >= 1, got {k}")
    _check_limit(g, limit)
    n = g.n
    if n == 0:
        return _make_result(g, (), "exact-components")
    adjm = [0] * n
    for u, v in g.edges:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u

    best_size = 0
    best_mask = 0

    def component_fits(mask: int, start: int) -> bool:
        comp = start
        frontier = start
        size = 1
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= adjm[b.bit_length() - 1]
            grow &= mask & ~comp
            size += grow.bit_count()
            if size > k:
                return False
            comp |= grow
            frontier = grow
        return True

    def dfs(i: int, mask: int, count: int) -> None:
        nonlocal best_size, best_mask
        if count + (n - i) <= best_size:
            return
        if i == n:
            best_size = count
            best_mask = mask
            return
        bit = 1 << i
        new_mask = mask | bit
        if component_fits(new_mask, bit):
            dfs(i + 1, new_mask, count + 1)
        dfs(i + 1, mask, count)

    dfs(0, 0, 0)
    kept = [v for v in range(n) if (best_mask >> v) & 1]
    return _make_result(g, kept, "exact-components")


def exact_max_forest(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> FragmentationResult:
    """Largest vertex set inducing a forest (complement of a minimum decycling set).

    Branch and bound with a rollback union-find: including a vertex is
    allowed only when its already-kept neighbors lie in pairwise distinct
    components, otherwise it would close a cycle.
    """
    _check_limit(g, limit)
    n = g.n
    if n == 0:
        return _make_result(g, (), "exact-forest")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:  # no path compression: links must roll back
            x = parent[x]
        return x

    best_size = 0
    best_kept: Tuple[int, ...] = ()
    kept: list[int] = []
    kept_mask = 0

    def dfs(i: int, count: int) -> None:
        nonlocal best_size, best_kept, kept_mask
        if count + (n - i) <= best_size:
            return
        if i == n:
            best_size = count
            best_kept = tuple(kept)
            return
        roots = set()
        cycle = False
        for u in g.adj[i]:
            if (kept_mask >> u) & 1:
                r = find(u)
                if r in roots:
                    cycle = True
                    break
                roots.add(r)
        if not cycle:
            for r in roots:
                parent[r] = i
            kept.append(i)
            kept_mask |= 1 << i
            dfs(i + 1, count + 1)
            kept_mask ^= 1 << i
            kept.pop()
            for r in roots:
                parent[r] = r
        dfs(i + 1, count)

    dfs(0, 0)
    return _make_result(g, best_kept, "exact-forest")
