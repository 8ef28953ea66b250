"""Immutable simple undirected graphs and basic structure queries.

Vertices are dense integer ids ``0..n-1``. Graphs are never mutated:
removal of vertices is always expressed as a vertex set, so results stay
auditable and graphs can be shared freely across concurrent workers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np


class EdgeListFormatError(ValueError):
    """An edge-list file violates the expected text format."""


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    A graph is immutable in value. Construction checks the edges and
    keeps them in numpy only: the private ``_ends``, a ``(2, m)`` array of
    ``(u, v)`` columns with ``u < v`` in ascending order. :attr:`edges`,
    ``==``, the components pass and the edge-list writer read it.

    ``adj``, the tuple of ascending neighbor tuples of Python ``int``s, is
    built on its first use, for the loops that walk it; vertex ``v`` is
    one int object wherever it appears in ``adj``. That build is the
    only write to a graph after construction. It runs once, under a
    lock, so threads sharing a graph all see the same tuples. A pickled
    or copied graph carries ``n``, ``m`` and ``_ends`` alone and builds
    its own ``adj`` when used.

    ``edges`` may be an iterable of pairs or an integer ``(m, 2)`` numpy
    array; both are read into one int64 array and built in numpy. ``n``
    and every id are read as integers (``operator.index``): a float
    raises ``TypeError``, and a numpy or bool id becomes a Python
    ``int``. An edge out of range, a self-loop or a repeated edge raises
    ``ValueError`` naming the first such edge in input order. ``n`` is
    at most 3,037,000,499, so that ``n * n`` fits in int64.
    """

    __slots__ = ("n", "m", "_ends", "_view")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        n = index(n)
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if n > 3_037_000_499:  # the largest n with n * n < 2**63: edges are keyed u * n + v
            raise ValueError(f"vertex count must be at most 3037000499 (n * n < 2**63), got {n}")
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
            # uint64 ids of 2**63 and above wrap to negative: out of range too.
            a = edges.astype(np.int64, copy=False).T
        else:
            edges = list(edges)  # the scan may walk them again
            us, vs = [], []
            try:
                for u, v in edges:
                    us.append(index(u))
                    vs.append(index(v))
                a = np.array((us, vs), dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                _check_edges(n, edges)
                raise  # no edge is out of range, a loop or a repeat
            del us, vs
        u, v = a
        if a.size and (a.min() < 0 or a.max() >= n or np.any(u == v)):
            _check_edges(n, edges)
        # Each edge as one (u, v) key with u < v, sorted; with no
        # self-loops, two equal keys mean a duplicate edge.
        key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        if np.any(key[1:] == key[:-1]):
            _check_edges(n, edges)
        self.n = n
        self.m = key.size
        self._ends = np.array(np.divmod(key, n), dtype=np.intp)
        self._view = None

    @property
    def adj(self) -> Tuple[Tuple[int, ...], ...]:
        """Ascending neighbor tuples, one per vertex, built by
        :func:`_python_view` on first use."""
        adj = self._view
        if adj is None:
            with _VIEW_LOCK:
                adj = self._view
                if adj is None:
                    adj = self._view = _python_view(self.n, self._ends)
        return adj

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted tuple of the ``(u, v)`` edges with ``u < v``, read from ``_ends`` in O(m)."""
        return tuple(zip(*self._ends.tolist()))

    def degree(self, v: int) -> int:
        """Neighbours of vertex ``v``, counted in ``_ends`` in O(m) without
        building ``adj``. ``v`` is read through ``operator.index``; an id
        outside ``0..n-1`` raises ``ValueError``."""
        v = index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"invalid vertex id {v} for graph with n={self.n}")
        return int(np.count_nonzero(self._ends == v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._ends, other._ends)

    def __getstate__(self):
        return self.n, self.m, self._ends

    def __setstate__(self, state) -> None:
        self.n, self.m, self._ends = state
        self._view = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


_VIEW_LOCK = threading.Lock()


def _arcs(n: int, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nbr, first, deg)``: the neighbors of the graph on ``n`` vertices
    whose edges are the columns ``ends``, with vertex ``v``'s ascending
    neighbors at ``nbr[first[v]:first[v] + deg[v]]``."""
    u, v = ends
    # Both directions of every edge, sorted as (source, target) keys,
    # list each vertex's neighbors in ascending order.
    half = np.sort(np.concatenate((u * n + v, v * n + u)))
    deg = np.bincount(ends.ravel(), minlength=n)
    first = np.cumsum(deg) - deg
    return np.remainder(half, n, out=half), first, deg  # in place: the keys are done with


def _python_view(n: int, ends: np.ndarray) -> tuple:
    """The neighbor tuples of the graph on ``n`` vertices whose edges are
    the columns ``ends``, made of one int object per vertex."""
    nbr, first, deg = _arcs(n, ends)
    ids = np.arange(n).astype(object)  # one int object per vertex, shared by every entry
    # One degree class at a time, then all the tuples put back in vertex
    # order. A class of ``count`` vertices of degree ``d`` costs
    # min(d, count) numpy calls: its ``d`` neighbor columns zipped into
    # tuples in C, or, for hubs rarer than their degree, one slice per
    # vertex. That is at most n calls in all, however skewed the degrees.
    by_degree = np.argsort(deg)
    tuples: list = []
    for d, count in enumerate(np.bincount(deg).tolist()):
        if not count:
            continue
        start = first[by_degree[len(tuples):len(tuples) + count]]
        if not d:
            tuples += [()] * count
        elif count >= d:
            tuples += zip(*(ids[nbr[start + i]].tolist() for i in range(d)))
        else:
            tuples += (tuple(ids[nbr[s:s + d]].tolist()) for s in start.tolist())
    # Freed before the n-sized arrays below so that these can reuse the
    # space; held, they raise the peak of a process that builds many graphs.
    del nbr, first, deg
    rank = np.empty(n, dtype=np.intp)
    rank[by_degree] = np.arange(n)
    # ``ids[rank]`` lists the shared ints, where ``rank.tolist()`` would make n new ones
    return tuple(map(tuples.__getitem__, ids[rank].tolist()))


def _check_edges(n: int, edges: Iterable) -> None:
    """Raise ``ValueError`` for the first edge of ``edges`` that is out of
    range, a self-loop or a repeat; return if there is none."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of a graph, or of the subgraph induced by a vertex set.

    ``labels[v]`` is the component id of vertex ``v``, or -1 when ``v``
    lies outside the decomposed set; ids are assigned in order of each
    component's smallest vertex. ``sizes[i]`` is the size of component
    ``i``; :meth:`edge_counts` gives its induced edge count.
    """

    labels: Tuple[int, ...]
    sizes: Tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def largest(self) -> int:
        return max(self.sizes, default=0)

    def members(self) -> list[list[int]]:
        """Vertex lists per component, each ascending; outside vertices are skipped."""
        out: list[list[int]] = [[] for _ in self.sizes]
        for v, c in enumerate(self.labels):
            if c >= 0:
                out[c].append(v)
        return out

    def edge_counts(self, g: Graph) -> list[int]:
        """Edges of ``g`` inside each component."""
        labels = np.array(self.labels, dtype=np.intp)
        u, v = g._ends
        ends = labels[u]
        ends = ends[(ends >= 0) & (ends == labels[v])]
        return np.bincount(ends, minlength=len(self.sizes)).tolist()


def _component_roots(g: Graph, inside: np.ndarray, start: Optional[np.ndarray] = None) -> np.ndarray:
    """Each vertex's smallest component-mate in the subgraph of ``g`` induced
    by the boolean mask ``inside``; a vertex outside keeps its id.

    Min-label hooking plus pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3, 1982) over the edges with both ends inside, one ``(2, k)``
    array. Each round hooks the larger label of every edge whose ends
    differ onto the smaller, jumps pointers until every label is a root,
    and compresses away the edges whose ends now agree. Labels only fall,
    never below the smallest vertex of their component, so they end there.
    ``start``, the labels returned for a mask contained in ``inside``, may
    replace the vertex ids: components only merge as vertices join, so
    each start label is a root in its vertex's component, and the old
    mask's edges drop out in the first round.
    """
    lab = np.arange(g.n) if start is None else start.copy()
    ends = np.compress(inside[g._ends[0]] & inside[g._ends[1]], g._ends, axis=1)
    while True:
        le = lab[ends]
        split = le[0] != le[1]
        if not split.any():
            return lab
        ends = np.compress(split, ends, axis=1)
        lu, lv = np.compress(split, le, axis=1)
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def components(g: Graph, verts: Optional[Iterable[int]] = None) -> ComponentDecomposition:
    """Decompose ``g``, or ``G[verts]`` when ``verts`` is given.

    Component ids follow each component's smallest vertex; vertices
    outside ``verts`` get label -1. :func:`_component_roots` reads all
    ones, or ``verts`` as a mask, checked by :func:`as_vertex_tuple`.
    Induced edge counts come from :meth:`ComponentDecomposition.edge_counts`.
    """
    n = g.n
    inside = np.ones(n, dtype=bool) if verts is None else _vertex_mask(g, verts)
    lab = _component_roots(g, inside)
    roots = inside & (lab == np.arange(n))
    labels = np.where(inside, np.cumsum(roots)[lab] - 1, -1)
    sizes = np.bincount(lab[inside], minlength=n)[roots]
    return ComponentDecomposition(tuple(labels.tolist()), tuple(sizes.tolist()))


def as_vertex_tuple(g: Graph, s: Iterable[int]) -> Tuple[int, ...]:
    """Normalize a vertex set to a sorted tuple of Python ints, checking the
    id range. Ids are read through ``operator.index``, so a float raises
    ``TypeError`` (numpy would truncate it) and a numpy or bool id becomes
    a Python ``int``."""
    ids = sorted(set(map(index, s)))
    if ids and (ids[0] < 0 or ids[-1] >= g.n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"invalid vertex id {bad} for graph with n={g.n}")
    return tuple(ids)


def _vertex_mask(g: Graph, s: Iterable[int]) -> np.ndarray:
    """The vertex set ``s`` as a boolean mask of length ``g.n``; ids are
    read and checked by :func:`as_vertex_tuple`."""
    inside = np.zeros(g.n, dtype=bool)
    inside[np.fromiter(as_vertex_tuple(g, s), np.intp)] = True
    return inside


def induced_subgraph(g: Graph, s: Iterable[int]) -> Tuple[Graph, dict]:
    """Subgraph induced by ``s`` plus the old->new index map.

    New ids follow the sorted order of ``s``, so the map is the unique
    order-preserving bijection onto ``0..len(s)-1``. The edges with both
    ends in ``s`` are picked from ``g._ends`` and relabelled in numpy.
    """
    ids = as_vertex_tuple(g, s)
    new = np.full(g.n, -1, dtype=np.intp)
    new[np.fromiter(ids, np.intp, len(ids))] = np.arange(len(ids))
    u, v = new[g._ends]
    both = (u >= 0) & (v >= 0)
    return Graph(len(ids), np.column_stack((u[both], v[both]))), dict(zip(ids, range(len(ids))))


def excess(g: Graph) -> int:
    """Edges minus vertices plus components; 0 exactly for forests."""
    return g.m - g.n + components(g).count


def count_short_cycles(g: Graph, k: int) -> int:
    """Number of distinct simple cycles of length at most ``k``.

    Cycles are counted once each (unrooted, undirected): the DFS only
    emits the representative that starts at the cycle's smallest vertex
    and continues toward its smaller neighbor. Enumeration cost grows
    with the number of cycles; intended for desk-scale graphs.
    """
    if not k >= 3:
        raise ValueError(f"cycle length bound must be >= 3, got {k}")
    adj = g.adj
    n = g.n
    count = 0
    on_path = bytearray(n)
    for s in range(n):
        path = [s]
        on_path[s] = 1
        iters: list[Iterator[int]] = [iter(adj[s])]
        while iters:
            advanced = False
            for u in iters[-1]:
                if u == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        count += 1
                elif u > s and not on_path[u] and len(path) < k:
                    path.append(u)
                    on_path[u] = 1
                    iters.append(iter(adj[u]))
                    advanced = True
                    break
            if not advanced:
                on_path[path.pop()] = 0
                iters.pop()
    return count


def write_edgelist(g: Graph, path) -> None:
    """Write ``g`` as text: first line ``n m``, then one ``u v`` line per
    edge, in the order of :attr:`Graph.edges`.

    The lines are formatted from ``g._ends``, which holds the same edges
    in the same order, one block of edges per ``%`` call, so the per-edge
    work runs in C.
    """
    block = 1 << 16  # edges per write: about 1 MB of text at n = 1e6
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for i in range(0, g.m, block):
            ids = g._ends[:, i:i + block].T.ravel().tolist()  # u, v, u, v, ...
            fh.write(("%d %d\n" * (len(ids) // 2)) % tuple(ids))


def _canonical_ids(data: bytes) -> Optional[np.ndarray]:
    """Every id of ``data``, header first, as one int64 array, when ``data``
    is laid out exactly as :func:`write_edgelist` writes it; else ``None``.

    That layout is lines ``a b\\n`` and nothing else: ASCII digits, one
    space, at most 18 digits an id (so below ``2**63``), and a final
    newline. The checks count bytes in numpy, so only validated text
    reaches ``np.fromstring``, which would saturate a long id or warn on
    any other byte.
    """
    text = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    gaps = np.flatnonzero(text == ord(" "))
    if not ends.size or ends[-1] != text.size - 1 or gaps.size != ends.size:
        return None
    if np.count_nonzero(text - ord("0") < 10) != text.size - 2 * ends.size:
        return None  # a byte that is no digit, space or newline
    starts = np.concatenate(([0], ends[:-1] + 1))
    # With as many spaces as lines, one between each line's start and end
    # means exactly one per line.
    left, right = gaps - starts, ends - gaps - 1
    if min(left.min(), right.min()) < 1 or max(left.max(), right.max()) > 18:
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ")


def read_edgelist(path) -> Graph:
    """Parse the edge-list format written by :func:`write_edgelist`.

    A file laid out exactly as :func:`write_edgelist` writes it, with as
    many edge lines as its header declares, is parsed in bulk: its ids go
    to :class:`Graph` as one int64 array. Any other file is read line by
    line. There, blank lines and lines starting with ``#`` are ignored,
    and any deviation from the format, a non-ASCII byte included, raises
    :class:`EdgeListFormatError` with the offending line number. An edge
    that :class:`Graph` refuses (out of range, a self-loop or a repeat)
    raises it with ``Graph``'s message, on either path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    ids = _canonical_ids(data)
    del data  # freed before the build, which sets the read's peak
    if ids is not None and ids[1] == ids.size // 2 - 1:
        n, edges = int(ids[0]), ids[2:].reshape(-1, 2)
    else:
        n, edges = _read_lines(path)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise EdgeListFormatError(str(exc)) from None


def _read_lines(path) -> Tuple[int, list]:
    """``n`` and the edge pairs of an edge-list file, read line by line;
    :class:`EdgeListFormatError` names the first line that breaks the format."""
    header = None
    edges = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise EdgeListFormatError(f"line {lineno}: non-ASCII byte")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise EdgeListFormatError(f"line {lineno}: expected header 'n m'")
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError:
                    raise EdgeListFormatError(
                        f"line {lineno}: non-integer header fields"
                    ) from None
                continue
            if len(parts) != 2:
                raise EdgeListFormatError(f"line {lineno}: expected edge 'u v'")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: non-integer edge endpoints"
                ) from None
    if header is None:
        raise EdgeListFormatError("line 1: missing header 'n m'")
    n, m = header
    if len(edges) != m:
        raise EdgeListFormatError(
            f"header declares {m} edges but file contains {len(edges)}"
        )
    return n, edges
