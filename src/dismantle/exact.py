"""Exact maximum induced subgraph oracles (desk scale).

One branch and bound gives both the largest vertex set inducing
components of at most ``k`` vertices and the largest inducing a forest.
It decides include/exclude in id order, include first, and keeps the
kept components in a rollback union-find, so among the maximum sets it
returns the first in that order. The tests cross-check both oracles
against independent subset enumeration, which lives test-side in
``tests/oracles.py`` and shares no code with this module.
"""

from __future__ import annotations

import math

import numpy as np

from .fragmenters import FragmentationResult, _make_result
from .graph import Graph, _check_cap, _vertex_mask

DEFAULT_ORACLE_LIMIT = 20


def _largest_kept(g: Graph, k: float, acyclic: bool, limit: int) -> np.ndarray:
    """The boolean mask of the largest vertex set whose induced components
    hold at most ``k`` vertices each and, with ``acyclic``, are trees.

    Decides include/exclude in id order, include first. Vertex ``i`` may
    join when the distinct components of its kept neighbours, plus ``i``,
    hold at most ``k`` vertices; with ``acyclic`` those neighbours must
    also lie in pairwise distinct components, or ``i`` would close a
    cycle. Components only grow along an include path, so checking the
    one ``i`` joins keeps every kept component valid. A branch dies when
    keeping every undecided vertex cannot beat the incumbent, so the
    first maximum set reached wins: the largest indicator vector read
    from vertex 0. Kept components live in a union-find over ``g.adj``
    whose joins point the old roots at ``i`` and are undone on backtrack.
    """
    n = g.n
    if not n <= limit:
        raise ValueError(f"graph has {n} > {limit} vertices (exact oracle limit)")
    adj = g.adj
    parent = list(range(n))
    size = [1] * n
    inside = bytearray(n)
    kept: list[int] = []
    best: list[int] = []

    def dfs(i: int) -> None:
        nonlocal best
        if len(kept) + (n - i) <= len(best):
            return
        if i == n:
            best = kept.copy()
            return
        roots = []
        total = 1
        for u in adj[i]:
            if inside[u]:
                r = u
                while parent[r] != r:  # no path compression: links must roll back
                    r = parent[r]
                if r not in roots:
                    roots.append(r)
                    total += size[r]
                elif acyclic:
                    break
        else:  # skipped when acyclic and i would close a cycle
            if total <= k:
                for r in roots:
                    parent[r] = i
                size[i] = total
                inside[i] = 1
                kept.append(i)
                dfs(i + 1)
                kept.pop()
                inside[i] = 0
                for r in roots:
                    parent[r] = r
        dfs(i + 1)

    dfs(0)
    return _vertex_mask(g, best)


def exact_max_induced(g: Graph, k: int, limit: int = DEFAULT_ORACLE_LIMIT) -> FragmentationResult:
    """Largest vertex set inducing components of at most ``k`` vertices."""
    _check_cap(k)
    return _make_result(g, _largest_kept(g, k, False, limit), "exact-components")


def exact_max_forest(g: Graph, limit: int = DEFAULT_ORACLE_LIMIT) -> FragmentationResult:
    """Largest vertex set inducing a forest (complement of a minimum decycling set)."""
    return _make_result(g, _largest_kept(g, math.inf, True, limit), "exact-forest")
