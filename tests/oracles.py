"""Naive references for the tests: subset enumeration for the exact
oracles of ``dismantle.exact``, a depth-first search for
``dismantle.components``, a pairs loop for the adjacency that
``dismantle.Graph`` builds in numpy, line-at-a-time edge-list I/O for
the bulk ``read_edgelist`` and ``write_edgelist``, a sort of the
distinct ids for the numpy reading of a vertex set, a per-vertex loop
for the numpy ``induced_subgraph``, a union-find started from single
vertices for the seeded add-back of the fragmenters, and walks from
every start over the whole graph for the short-cycle marking of the
density scan. It also holds the graphs several test modules share:
``c5``, ``k4``, ``random_graph`` and ``chung_lu``.

The enumerations sweep every vertex subset with their own component
logic, to cross-check the branch-and-bound oracles. Only ``Graph`` is
imported from ``dismantle``, so a bug in the library's traversals cannot
hide in both halves of a comparison (``test_oracles_are_independent``
checks this).
"""

from __future__ import annotations

from operator import index
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from dismantle import Graph

ENUMERATION_LIMIT = 14


def c5() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def k4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def random_graph(n: int, m: int, rng) -> Graph:
    """``m`` distinct edges drawn uniformly by ``rng``, capped at the complete graph."""
    m = min(m, n * (n - 1) // 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def chung_lu(n: int, exponent: float, c: float, seed: int) -> Graph:
    """A seeded Chung–Lu graph: about ``c * n / 2`` edge draws whose ends
    are picked with weight ``(i + 1) ** (-1 / (exponent - 1))`` for the
    ``i``-th of a random order of the vertices; loops and repeats are
    dropped. Its degrees have a power-law tail, so it has many levels."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1) ** (-1.0 / (exponent - 1.0))
    ends = rng.permutation(n)[rng.choice(n, size=(2, round(c * n / 2)), p=w / w.sum())]
    u, v = np.minimum(*ends), np.maximum(*ends)
    key = np.unique((u * n + v)[u != v])
    return Graph(n, np.stack(np.divmod(key, n), axis=1))


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise ValueError(f"graph has {g.n} > {limit} vertices (enumeration limit)")


def _masks(g: Graph) -> list[int]:
    """Neighbour bitmasks with vertex ``v`` at bit ``n - 1 - v``.

    Vertex 0 is the most significant bit, so a larger mask is a larger
    indicator vector read from vertex 0: the set that an include-first
    search in id order reaches first. Sweeping the masks from the largest
    down and keeping only strict improvements returns that set among the
    maximum ones.
    """
    n = g.n
    nb = [0] * n
    for u, v in g.edges:
        nb[n - 1 - u] |= 1 << (n - 1 - v)
        nb[n - 1 - v] |= 1 << (n - 1 - u)
    return nb


def _vertices(n: int, mask: int) -> Tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> (n - 1 - v)) & 1)


def max_induced_by_enumeration(g: Graph, k: int, limit: int = ENUMERATION_LIMIT) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive reference for ``exact_max_induced``.

    Tabulates the largest component size of every one of the ``2**n``
    subsets through a recurrence on submasks, then picks the biggest
    subset whose value is within ``k``. Returns ``(size, witness)``; the
    witness is the first maximum set in include-first order (see
    :func:`_masks`).
    """
    if not k >= 1:
        raise ValueError(f"component cap must be >= 1, got {k}")
    _check_limit(g, limit)
    n = g.n
    nb = _masks(g)

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
    for mask in range(size_count - 1, -1, -1):
        if max_comp[mask] <= k:
            pc = mask.bit_count()
            if pc > best:
                best = pc
                witness = mask
    return best, _vertices(n, witness)


def max_forest_by_enumeration(g: Graph, limit: int = ENUMERATION_LIMIT) -> Tuple[int, Tuple[int, ...]]:
    """Exhaustive reference for ``exact_max_forest``.

    Checks every subset directly: it induces a forest exactly when its
    edge count equals its vertex count minus its number of components.
    Returns ``(size, witness)``, the witness picked as in
    :func:`max_induced_by_enumeration`.
    """
    _check_limit(g, limit)
    n = g.n
    nb = _masks(g)

    best = 0
    witness = 0
    for mask in range((1 << n) - 1, -1, -1):
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
    return best, _vertices(n, witness)


def components_by_dfs(
    g: Graph, verts: Optional[Iterable[int]] = None
) -> Tuple[Tuple[int, ...], Tuple[int, ...], list[int]]:
    """Reference for ``components``: ``(labels, sizes, edge_counts)`` of ``g``,
    or of ``G[verts]``, by iterative depth-first search over ``g.adj``.

    Component ids follow each component's smallest vertex; a vertex
    outside ``verts`` gets label -1. ``edge_counts`` counts each induced
    edge once, from its smaller end.
    """
    if verts is None:
        roots: Iterable[int] = range(g.n)
        labels = [-2] * g.n
    else:
        roots = sorted(set(verts))
        labels = [-1] * g.n
        for v in roots:
            labels[v] = -2  # in the set, not reached yet
    sizes: list[int] = []
    adj = g.adj
    for s in roots:
        if labels[s] != -2:
            continue
        cid = len(sizes)
        labels[s] = cid
        count = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if labels[u] == -2:
                    labels[u] = cid
                    count += 1
                    stack.append(u)
        sizes.append(count)
    counts = [0] * len(sizes)
    for u, a in enumerate(adj):
        c = labels[u]
        if c >= 0:
            for v in a:
                if v > u and labels[v] == c:
                    counts[c] += 1
    return tuple(labels), tuple(sizes), counts


def adjacency_by_pairs(
    n: int, edges: Iterable[Tuple[int, int]]
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, int], ...]]:
    """Reference for ``Graph(n, edges)``: ``(adj, edges)``, the ascending
    neighbour tuples and the sorted ``(u, v)`` pairs with ``u < v`` (the
    columns of ``_ends``), built one pair at a time.

    Raises ``ValueError`` for the first edge in input order that is out
    of range, a self-loop or a repeat, with ``Graph``'s message.
    """
    seen = set()
    norm = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        norm.append(e)
    norm.sort()
    adj: list[list[int]] = [[] for _ in range(n)]
    # Scanning sorted (u, v) pairs appends every adjacency list in
    # ascending order: all (x, v) with x < v precede all (v, y).
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj)), tuple(norm)


def read_edgelist_by_lines(path, error: type) -> Graph:
    """Reference for ``read_edgelist``: the file parsed one line at a time.

    Blank lines and ``#`` lines are skipped. A format fault raises
    ``error`` naming its line, and a ``ValueError`` from ``Graph`` is
    raised again as ``error`` with the same message.
    """
    header = None
    edges = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise error(f"line {lineno}: non-ASCII byte")
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            shape = "header 'n m'" if header is None else "edge 'u v'"
            if len(parts) != 2:
                raise error(f"line {lineno}: expected {shape}")
            try:
                pair = (int(parts[0]), int(parts[1]))
            except ValueError:
                fields = "header fields" if header is None else "edge endpoints"
                raise error(f"line {lineno}: non-integer {fields}") from None
            if header is None:
                header = pair
            else:
                edges.append(pair)
    if header is None:
        raise error("line 1: missing header 'n m'")
    n, m = header
    if len(edges) != m:
        raise error(f"header declares {m} edges but file contains {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise error(str(exc)) from None


def write_edgelist_by_edges(g: Graph, path) -> None:
    """Reference for ``write_edgelist``: the header, then one formatted
    write per edge of ``g.edges``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def sorted_vertex_ids(g: Graph, s: Iterable[int]) -> list[int]:
    """Reference reading of a vertex set: the distinct ids of ``s``, each
    read through ``operator.index``, sorted, and range-checked with the
    library's message, which names the smallest id if negative, else the
    largest."""
    ids = sorted(set(map(index, s)))
    if ids and (ids[0] < 0 or ids[-1] >= g.n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"invalid vertex id {bad} for graph with n={g.n}")
    return ids


def vertex_mask_by_sorting(g: Graph, s: Iterable[int]) -> list[bool]:
    """Reference for ``graph._vertex_mask``: the ids of
    :func:`sorted_vertex_ids` flagged in a list of ``g.n`` booleans."""
    mask = [False] * g.n
    for v in sorted_vertex_ids(g, s):
        mask[v] = True
    return mask


def induced_subgraph_by_loop(g: Graph, s: Iterable[int]) -> Tuple[Graph, dict]:
    """Reference for ``induced_subgraph``: the edges of ``G[s]`` gathered
    one neighbor tuple at a time, relabelled through a dict. Ids are read
    by :func:`sorted_vertex_ids`."""
    ids = sorted_vertex_ids(g, s)
    new = {v: i for i, v in enumerate(ids)}
    edges = []
    for v in ids:
        for u in g.adj[v]:
            if u > v and u in new:
                edges.append((new[v], new[u]))
    return Graph(len(ids), edges), new


def add_back_from_edgeless(g: Graph, present: bytearray, order: Iterable[int],
                           accept: Callable[[list[int]], bool]) -> list[int]:
    """Reference for ``fragmenters._add_back``: the same add-back, with a
    union-find that starts from one set per vertex, so ``present`` must be
    edgeless. Feeding a forest's vertices first in ``order`` builds its
    trees one join at a time, which the library seeds from a components pass.
    """
    adj = g.adj
    parent = list(range(g.n))
    size = [1] * g.n
    joined = [0] * g.n
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
            while parent[u] != u:
                u = parent[u]
            if u != root:
                if size[u] > size[root]:
                    u, root = root, u
                parent[u] = root
                size[root] += size[u]
        joined[v] = size[root]
    return joined


def short_cycle_mask_from_every_start(g: Graph, starts: np.ndarray, t_max: int) -> np.ndarray:
    """Reference for ``analysis._short_cycle_mask``: the same marks, walked
    from every start over the whole graph, with no 2-core peel.

    Non-backtracking walks grow from each start, one step a round, for
    ``ceil(t_max / 2)`` rounds. A start is marked when two of its walks
    end at the same vertex (the walk of no steps counts), and its walks
    then stop. Until that first meeting its walks are shortest paths, one
    per vertex, so only this round's and the last round's ``(start, end)``
    keys are compared. The starts are walked 1,024 at a time. The
    neighbour arrays are built here from ``g._ends`` by a lexsort.
    """
    n = g.n
    src, dst = np.concatenate((g._ends, g._ends[::-1]), axis=1)
    nbr = dst[np.lexsort((dst, src))]
    deg = np.bincount(src, minlength=n)
    first = np.cumsum(deg) - deg
    mask = np.zeros(n, dtype=bool)
    for lo in range(0, starts.size, 1024):
        start = cur = starts[lo:lo + 1024]
        prev = np.full(start.size, -1)
        last = start * n + cur  # the keys of the walks of no steps
        for _ in range((t_max + 1) // 2):
            k = deg[cur]
            walk = np.repeat(np.arange(cur.size), k)
            nxt = nbr[np.arange(walk.size) + np.repeat(first[cur] - (np.cumsum(k) - k), k)]
            ahead = nxt != prev[walk]
            walk = walk[ahead]
            start, prev, cur = start[walk], cur[walk], nxt[ahead]
            keys = start * n + cur
            both = np.sort(np.concatenate((last, keys)))
            met = both[1:][both[1:] == both[:-1]] // n
            if met.size:
                mask[met] = True
                live = ~mask[start]
                start, prev, cur, keys = start[live], prev[live], cur[live], keys[live]
            if not cur.size:
                break
            last = keys
    return mask
