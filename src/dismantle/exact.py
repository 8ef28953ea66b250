"""Exact maximum induced subgraph oracles (desk scale).

Two independent routes are kept on purpose: the branch-and-bound
functions are the production oracles, while the ``*_by_enumeration``
functions sweep every vertex subset with separately written component
logic and exist to cross-check the former in tests. Do not share code
between the two halves of this module.
"""

from __future__ import annotations

from typing import Tuple

from .fragmenters import FragmentationResult, _make_result
from .graph import Graph

DEFAULT_ORACLE_LIMIT = 20
ENUMERATION_LIMIT = 14


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


# ---------------------------------------------------------------------------
# Reference enumeration (anti-bug oracles; independent of the code above)
# ---------------------------------------------------------------------------


def max_induced_by_enumeration(g: Graph, k: int, limit: int = ENUMERATION_LIMIT) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive reference for :func:`exact_max_induced`.

    Tabulates the largest component size of every one of the ``2**n``
    subsets through a recurrence on submasks, then picks the biggest
    subset whose value is within ``k``. Returns ``(size, witness)``.
    """
    if not k >= 1:
        raise ValueError(f"component cap must be >= 1, got {k}")
    _check_limit(g, limit)
    n = g.n
    nb = [0] * n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u

    size_count = 1 << n
    max_comp = [0] * size_count
    for mask in range(1, size_count):
        low = mask & -mask
        comp = low
        while True:
            grow = 0
            rest = comp
            while rest:
                b = rest & -rest
                rest ^= b
                grow |= nb[b.bit_length() - 1]
            grow &= mask
            if grow | comp == comp:
                break
            comp |= grow
        mc = comp.bit_count()
        leftover = max_comp[mask & ~comp]
        max_comp[mask] = mc if mc >= leftover else leftover

    best = 0
    witness = 0
    for mask in range(size_count):
        if max_comp[mask] <= k:
            pc = mask.bit_count()
            if pc > best:
                best = pc
                witness = mask
    return best, tuple(v for v in range(n) if (witness >> v) & 1)


def max_forest_by_enumeration(g: Graph, limit: int = ENUMERATION_LIMIT) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive reference for :func:`exact_max_forest`.

    Checks every subset directly: it induces a forest exactly when its
    edge count equals its vertex count minus its number of components.
    Returns ``(size, witness)``.
    """
    _check_limit(g, limit)
    n = g.n
    nb = [0] * n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u

    best = 0
    witness = 0
    for mask in range(1 << n):
        pc = mask.bit_count()
        if pc <= best:
            continue
        twice_edges = 0
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            twice_edges += (nb[b.bit_length() - 1] & mask).bit_count()
        ncomp = 0
        todo = mask
        while todo:
            ncomp += 1
            comp = todo & -todo
            while True:
                grow = 0
                r2 = comp
                while r2:
                    b = r2 & -r2
                    r2 ^= b
                    grow |= nb[b.bit_length() - 1]
                grow &= todo
                if grow | comp == comp:
                    break
                comp |= grow
            todo &= ~comp
        if twice_edges // 2 == pc - ncomp:
            best = pc
            witness = mask
    return best, tuple(v for v in range(n) if (witness >> v) & 1)
