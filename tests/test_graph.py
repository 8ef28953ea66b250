import copy
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from itertools import chain, combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dismantle.graph
from dismantle import (
    EdgeListFormatError,
    FragmentationResult,
    Graph,
    components,
    components_pass_density,
    count_short_cycles,
    excess,
    giant_component_fraction,
    gnp,
    greedy_fragment,
    induced_subgraph,
    path,
    pipeline_fragment,
    random_regular,
    random_tree,
    read_edgelist,
    strip_short_cycles,
    trim_components,
    write_edgelist,
)
from dismantle.cli import main as cli_main
from dismantle.fragmenters import _lfmis_elimination
from oracles import (
    adjacency_by_pairs,
    c5,
    components_by_dfs,
    induced_subgraph_by_loop,
    k4,
    random_graph,
    read_edgelist_by_lines,
    write_edgelist_by_edges,
)


class UnionFind:
    """Independent connectivity reference for cross-checking traversals."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def test_build_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_build_empty():
    g = Graph(5, [])
    assert g.n == 5 and g.m == 0
    assert all(a == () for a in g.adj)


def test_build_k4():
    assert k4().m == 6


def test_graph_equals_only_graphs_and_reprs_its_size():
    assert Graph(3).__eq__(5) is NotImplemented
    assert Graph(3) != 5
    assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"


def test_build_zero_vertices():
    g = Graph(0, [])
    assert g.n == 0 and g.m == 0 and components(g).count == 0
    assert components(g, ()) == components(g)


def test_build_rejections_are_distinct():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="vertex count"):
        Graph(-1, [])


@pytest.mark.parametrize("n,edges", [(3_037_000_500, []), (2**64, []),
                                     (4_000_000_000, [(3_999_999_998, 3_999_999_999)])])
def test_vertex_counts_whose_edge_keys_overflow_int64_are_refused(n, edges):
    # an edge is keyed as u * n + v in int64: at 4e9 the key wrapped and the
    # edge came back as (-611686020, 2290448383); at 2**64, OverflowError
    with pytest.raises(ValueError, match="at most 3037000499"):
        Graph(n, edges)


def test_largest_vertex_count_keeps_its_edges():
    g = Graph(3_037_000_499, [(3_037_000_497, 3_037_000_498)])  # nothing n-sized is built
    assert g.edges == ((3_037_000_497, 3_037_000_498),)


def build_outcome(n, edges):
    """``(edges, adj)`` of the built graph, or the ``ValueError`` message."""
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        return str(exc)
    return g.edges, g.adj


def reference_outcome(n, edges):
    """:func:`build_outcome` by the pairs reference ``adjacency_by_pairs``."""
    try:
        adj, edges = adjacency_by_pairs(n, edges)
    except ValueError as exc:
        return str(exc)
    return edges, adj


@pytest.mark.parametrize("pairs", [
    [(0, 3)],
    [(0, 1), (-1, 2)],
    [(2, 2)],
    [(0, 1), (0, 1)],
    [(1, 2), (0, 1), (2, 1)],
    [(0, 1), (1, 2), (0, 2), (2, 7), (1, 1)],
], ids=["out-of-range", "negative", "self-loop", "duplicate", "reversed-duplicate",
        "after-valid-prefix"])
def test_array_faults_give_the_pairs_message(pairs):
    message = reference_outcome(3, pairs)
    assert isinstance(message, str)
    assert build_outcome(3, pairs) == message
    assert build_outcome(3, np.array(pairs)) == message


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64])
def test_array_input_builds_the_pairs_graph(dtype):
    pairs = [(3, 1), (0, 4), (2, 0), (1, 0), (4, 3)]  # rows out of order, some reversed
    g = Graph(5, np.array(pairs, dtype=dtype))
    assert g == Graph(5, pairs) and g.adj == adjacency_by_pairs(5, pairs)[0]
    assert all(type(u) is int for e in g.edges for u in e)
    assert all(type(u) is int for nbrs in g.adj for u in nbrs)
    empty = Graph(4, np.empty((0, 2), dtype=dtype))
    assert empty.m == 0 and empty.adj == ((),) * 4


def assert_one_int_per_vertex(g):
    first = {}
    for u in chain.from_iterable(g.adj):
        assert first.setdefault(u, u) is u


def test_array_build_shares_one_int_per_vertex():
    # Ids above 256 are distinct objects unless shared; sharing keeps the
    # memory of a large graph below that of one object per endpoint.
    assert_one_int_per_vertex(Graph(1000, np.array(gnp(1000, 3.0, seed=2).edges)))


def test_pairs_build_shares_one_int_per_vertex():
    # every endpoint its own int object on the way in, one per vertex in ``adj``
    pairs = [(int(str(u)), int(str(v))) for u, v in gnp(1000, 3.0, seed=2).edges]
    assert_one_int_per_vertex(Graph(1000, pairs))


def test_ids_are_read_as_python_ints():
    pairs = [(np.int64(0), np.int64(1)), (True, 2), (np.uint8(4), np.int32(3))]
    g = Graph(np.int64(5), pairs)
    assert type(g.n) is int and g.n == 5 and type(Graph(np.int64(5)).n) is int
    assert (g.edges, g.adj) == reference_outcome(5, [(0, 1), (1, 2), (4, 3)])
    assert all(type(u) is int for e in g.edges for u in e)
    assert all(type(u) is int for nbrs in g.adj for u in nbrs)


@pytest.mark.parametrize("n,edges", [
    (3, [(0, 1.5)]),
    (3, [(0.0, 2)]),
    (3, [(0, 1), (np.float64(1.0), 2)]),
    (3.0, []),
], ids=["float", "integral-float", "numpy-float", "float-n"])
def test_float_ids_raise_type_error(n, edges):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Graph(n, edges)


def stored_edges(pairs):
    """The edge tuple ``Graph`` stored before it was derived from ``adj``."""
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))


@st.composite
def edge_input(draw, pairs):
    """``pairs`` in any order, as a list or as an integer array."""
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs


@st.composite
def distinct_pairs(draw, n):
    """Distinct edges on ``n`` vertices, each in either orientation."""
    drawn = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n)) if n else []
    return list({(min(u, v), max(u, v)): (u, v) for u, v in drawn if u != v}.values())


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_derived_edges_match_the_stored_definition(data, n):
    pairs = data.draw(distinct_pairs(n))
    g = Graph(n, data.draw(edge_input(pairs)))
    assert g.edges == stored_edges(pairs) and g.m == len(pairs)
    # the other graph: the same edges reversed, perhaps one fewer and one
    # more vertex, or an independent draw on as many vertices
    if data.draw(st.booleans()):
        n2 = n + data.draw(st.integers(0, 1))
        pairs2 = [(v, u) for u, v in pairs[data.draw(st.integers(0, min(1, len(pairs)))):]]
    else:
        n2 = n
        pairs2 = data.draw(distinct_pairs(n2))
    g2 = Graph(n2, data.draw(edge_input(pairs2)))
    assert (g == g2) == ((n, stored_edges(pairs)) == (n2, stored_edges(pairs2)))
    for verts in (None, data.draw(st.sets(st.integers(0, n - 1))) if n else set()):
        dec = components(g, verts)
        counts = [0] * dec.count
        for u, v in stored_edges(pairs):
            if dec.labels[u] >= 0 and dec.labels[u] == dec.labels[v]:
                counts[dec.labels[u]] += 1
        assert dec.edge_counts(g) == counts


def test_float_and_bool_arrays_take_the_pairs_path():
    # numpy floats and bools are not read as integers, but a bad edge is
    # still named as the pairs reference names it.
    for arr in (np.array([[0.0, 2.0]]), np.array([[True, False]])):
        with pytest.raises(TypeError):
            Graph(3, arr)
    for bad in (np.array([[0.0, 1.0], [0.5, 0.5]]), np.array([[True, True]])):
        outcome = build_outcome(3, bad)
        assert outcome == build_outcome(3, iter(bad)) == reference_outcome(3, iter(bad))
        assert outcome.startswith("self-loop")


@st.composite
def small_edge_arrays(draw):
    n = draw(st.integers(0, 8))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint16]))
    ids = st.integers(0 if np.dtype(dtype).kind == "u" else -2, n + 1)
    rows = draw(st.lists(st.tuples(ids, ids), max_size=12))
    return n, np.array(rows, dtype=dtype).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(small_edge_arrays())
def test_array_and_pairs_builds_agree(case):
    n, arr = case
    pairs = arr.tolist()
    assert build_outcome(n, arr) == build_outcome(n, pairs) == reference_outcome(n, pairs)


@pytest.mark.parametrize("n,pairs", [
    (0, []),
    (1, []),
    (5, []),
    (6, [(4, 1)]),
    (7, [(0, v) for v in range(1, 6)]),  # the hub alone in its degree class
    (9, [(1, 2), (2, 3), (3, 4), (2, 7), (7, 6)]),  # isolated 0, 5 and 8
    (7, [(u, v) for u in (0, 1) for v in range(2, 7)]),  # two hubs of degree 5, five of degree 2
], ids=["n0", "n1", "edgeless", "one-edge", "star-plus-isolated", "tree-plus-isolated",
        "complete-bipartite-2-5"])
def test_degree_class_build_on_small_cases(n, pairs):
    g = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.adj == adjacency_by_pairs(n, pairs)[0] and g.n == n and g.m == len(pairs)
    assert_one_int_per_vertex(g)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 60))
def test_degree_class_build_matches_pairs(data, n):
    pairs = data.draw(distinct_pairs(n))
    if n > 1 and data.draw(st.booleans()):  # a hub of its own degree class
        hub = data.draw(st.integers(0, n - 1))
        spokes = data.draw(st.sets(st.integers(0, n - 1)))
        pairs = list({(min(u, v), max(u, v)): (u, v)
                      for u, v in pairs + [(hub, v) for v in spokes if v != hub]}.values())
    g = Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.adj == adjacency_by_pairs(n, pairs)[0]
    assert all(type(u) is int for nbrs in g.adj for u in nbrs)
    assert_one_int_per_vertex(g)


def refuse_adj(monkeypatch):
    """Make any build of ``adj`` fail."""
    def refuse(n, ends):
        raise AssertionError(f"adj built for a graph on {n} vertices")

    monkeypatch.setattr(dismantle.graph, "_python_view", refuse)


def test_numpy_paths_never_build_adj(tmp_path, monkeypatch):
    refuse_adj(monkeypatch)
    p = tmp_path / "g.el"
    for g in [gnp(2000, 2.0, seed=1), random_regular(600, 3, seed=2), random_tree(500, seed=3),
              path(300)]:
        half = range(0, g.n, 2)
        assert components(g).count >= 1 and components(g, half).count >= 1
        assert excess(g) >= 0 and 0 < giant_component_fraction(g) <= 1
        assert components_pass_density(g, half, 0.5) in (True, False)
        assert sum(map(g.degree, range(g.n))) == 2 * g.m
        write_edgelist(g, p)
        back = read_edgelist(p)
        assert back == g and back.edges == g.edges
        # greedy reads the edge array, trimming's elimination too, and the
        # certificate lists its ids from the kept mask
        assert greedy_fragment(g, 8).max_component <= 8
        assert trim_components(g, half, 8).max_component <= 8
        assert _lfmis_elimination(g, np.ones(g.n, dtype=bool)).size > 0
        assert cli_main(["fragment", "--in", str(p), "--method", "greedy", "--cap", "8"]) == 0
        assert g._view is None and back._view is None
    for model, extra in [("gnp", ["--c", "2"]), ("regular", ["--d", "3"]), ("tree", []),
                         ("path", [])]:
        assert cli_main(["gen", "--model", model, "--n", "400", "--out", str(p), *extra]) == 0


def eager_adj(g):
    """The neighbor tuples of ``g``, gathered from ``_ends`` one edge at a time."""
    adj = [[] for _ in range(g.n)]
    for u, v in g._ends.T.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


LAZY_CASES = {
    "n0": lambda: Graph(0),
    "edgeless": lambda: Graph(7),
    "hub": lambda: Graph(12, [(4, v) for v in range(12) if v != 4] + [(0, 1), (2, 3)]),
    "gnp": lambda: gnp(1000, 3.0, seed=2),
    "regular": lambda: random_regular(600, 3, seed=4),
}


@pytest.mark.parametrize("name", sorted(LAZY_CASES))
def test_first_use_builds_adj_from_the_graph_ints(name):
    g = LAZY_CASES[name]()
    assert g._view is None
    adj = g.adj
    assert adj == eager_adj(g)
    assert g.adj is adj and g._view is adj
    assert_one_int_per_vertex(g)


@pytest.mark.parametrize("name", sorted(LAZY_CASES) + ["path"])
def test_degree_counts_the_neighbours(name):
    g = path(40) if name == "path" else LAZY_CASES[name]()
    degrees = [g.degree(v) for v in range(g.n)]
    assert g._view is None
    assert degrees == [len(a) for a in g.adj]
    assert all(type(d) is int for d in degrees)
    if g.n:
        assert g.degree(np.int64(g.n - 1)) == degrees[-1]
    for bad in (-1, g.n, g.n + 5):
        with pytest.raises(ValueError, match=f"invalid vertex id {bad} "):
            g.degree(bad)
    with pytest.raises(TypeError):
        g.degree(1.0)


def test_threads_share_one_first_use_build():
    # more threads than cores, switching often, all reading one fresh graph
    g = gnp(20_000, 3.0, seed=6)
    workers = min(os.cpu_count() or 1, 16) + 2
    barrier = threading.Barrier(workers, timeout=60)
    seen = []

    def read():
        barrier.wait()
        seen.append(g.adj)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == workers
    assert all(adj is g.adj for adj in seen)
    assert_one_int_per_vertex(g)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("used", [False, True], ids=["fresh", "used"])
def test_copies_round_trip_and_build_their_own_ints(clone, used):
    for g in (Graph(0), path(5), gnp(1000, 3.0, seed=2)):
        if used:
            g.adj
        c = clone(g)
        assert c == g and (c.n, c.m, c.edges) == (g.n, g.m, g.edges)
        assert c._view is None
        assert c.adj == g.adj
        assert_one_int_per_vertex(c)


def test_import_and_generation_leave_heavy_modules_out():
    # numpy.ma (np.unique imports it) and the process pool's modules cost
    # import time and memory on every run that needs neither; only what the
    # package adds to a bare ``import numpy`` counts, since numpy 1.x loads
    # numpy.ma itself
    import dismantle

    src = os.path.dirname(os.path.dirname(os.path.abspath(dismantle.__file__)))
    code = ("import sys, numpy; before = set(sys.modules); "
            "import dismantle; dismantle.gnp(100, 2.0, 1); "
            "print(' '.join(m for m in ('numpy.ma', 'concurrent.futures') "
            "if m in sys.modules and m not in before))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


def test_adjacency_sorted_and_symmetric():
    g = random_graph(40, 70, random.Random(5))
    for v, nbrs in enumerate(g.adj):
        assert list(nbrs) == sorted(nbrs)
        for u in nbrs:
            assert v in g.adj[u]
    assert sum(len(a) for a in g.adj) == 2 * g.m


def test_components_path():
    dec = components(Graph(3, [(0, 1), (1, 2)]))
    assert dec.count == 1 and dec.sizes == (3,)


def test_components_edgeless():
    dec = components(Graph(5, []))
    assert dec.count == 5 and dec.largest == 1


def test_components_against_union_find():
    g = gnp(200, 2.0, seed=1)
    dec = components(g)
    assert sum(dec.sizes) == 200
    uf = UnionFind(200)
    for u, v in g.edges:
        uf.union(u, v)
    assert len({uf.find(v) for v in range(200)}) == dec.count
    # same-id iff connected
    for u, v in g.edges:
        assert dec.labels[u] == dec.labels[v]
    roots = {}
    for v in range(200):
        roots.setdefault(uf.find(v), set()).add(dec.labels[v])
    assert all(len(s) == 1 for s in roots.values())


@st.composite
def graphs_and_regions(draw):
    """A graph on at most 40 vertices, from pairs or from an array, and a
    region: none, empty, full or drawn. Half the graphs also get a path
    through a random vertex order, so that labels must travel far."""
    n = draw(st.integers(0, 40))
    pairs = draw(distinct_pairs(n))
    if n > 1 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs = list({(min(u, v), max(u, v)) for u, v in [*pairs, *zip(order, order[1:])]})
    g = Graph(n, draw(edge_input(pairs)))
    kind = draw(st.sampled_from(["none", "empty", "full", "drawn"]))
    if kind == "drawn":
        return g, draw(st.sets(st.integers(0, n - 1))) if n else set()
    return g, {"none": None, "empty": [], "full": range(n)}[kind]


@settings(max_examples=500, deadline=None)
@given(graphs_and_regions())
def test_components_match_the_dfs_reference(case):
    g, verts = case
    assert tuple(map(tuple, g._ends.T.tolist())) == g.edges
    dec = components(g, verts)
    labels, sizes, counts = components_by_dfs(g, verts)
    assert dec.labels == labels and dec.sizes == sizes and dec.edge_counts(g) == counts
    assert all(type(c) is int for c in dec.labels + dec.sizes + tuple(dec.edge_counts(g)))


def test_components_members_are_maximal_and_connected():
    g = random_graph(60, 55, random.Random(11))
    for comp in components(g).members():
        member = set(comp)
        # connected: BFS from first reaches all
        seen = {comp[0]}
        stack = [comp[0]]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u in member and u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen == member
        # maximal: no edge leaves the component
        assert all(u in member for v in comp for u in g.adj[v])


@st.composite
def graphs_with_subsets(draw):
    """Random graph on at most 14 vertices plus a random vertex subset."""
    n = draw(st.integers(1, 14))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    return g, draw(st.sets(vertex))


@settings(max_examples=200, deadline=None)
@given(graphs_with_subsets())
def test_masked_components_match_induced_subgraph(case):
    g, verts = case
    dec = components(g, verts)
    sub, index = induced_subgraph(g, verts)
    ref = components(sub)
    assert dec.sizes == ref.sizes
    for v in range(g.n):
        assert dec.labels[v] == (ref.labels[index[v]] if v in verts else -1)
    members = dec.members()
    assert [[index[v] for v in comp] for comp in members] == ref.members()
    assert sorted(v for comp in members for v in comp) == sorted(verts)
    assert dec.edge_counts(g) == [induced_subgraph(g, comp)[0].m for comp in members]
    assert components(g, range(g.n)) == components(g)
    with pytest.raises(ValueError, match="invalid vertex id"):
        components(g, verts | {g.n})
    with pytest.raises(ValueError, match="invalid vertex id"):
        components(g, verts | {-1})
    with pytest.raises(TypeError):
        components(g, verts | {0.5})


@st.composite
def nested_mask_families(draw):
    """A graph as in :func:`graphs_and_regions` and one to five masks, each
    containing the last: vertex ``v`` joins at step ``join[v]``, or never."""
    g, _ = draw(graphs_and_regions())
    steps = draw(st.integers(1, 5))
    join = np.array(draw(st.lists(st.integers(0, steps), min_size=g.n, max_size=g.n)), dtype=np.intp)
    return g, [join <= step for step in range(steps)]


@settings(max_examples=400, deadline=None)
@given(nested_mask_families())
def test_component_roots_from_a_contained_masks_labels_match_a_fresh_pass(case):
    # the labels of a contained mask are a valid start: a chain of passes,
    # each from the last one's labels, gives every mask's fresh labels,
    # and the start is read, never written
    g, masks = case
    lab = None
    for inside in masks:
        held = None if lab is None else lab.copy()
        new = dismantle.graph._component_roots(g, inside, lab)
        assert np.array_equal(new, dismantle.graph._component_roots(g, inside))
        assert lab is None or np.array_equal(lab, held)
        lab = new


def test_induced_k4_pair():
    sub, idx = induced_subgraph(k4(), [0, 1])
    assert sub.n == 2 and sub.edges == ((0, 1),)
    assert idx == {0: 0, 1: 1}


def test_induced_identity():
    g = random_graph(20, 30, random.Random(3))
    sub, idx = induced_subgraph(g, range(20))
    assert sub == g and idx == {v: v for v in range(20)}


def test_induced_c5_three_vertices():
    sub, _ = induced_subgraph(c5(), [0, 1, 3])
    assert sub.n == 3 and sub.edges == ((0, 1),)  # vertex 3 isolated


def test_induced_invalid_vertex():
    with pytest.raises(ValueError, match="invalid vertex id"):
        induced_subgraph(c5(), [0, 7])


def induced_outcome(induce, g, s):
    """The vertex count, edges and map of what ``induce`` makes of ``g`` and
    ``s``, with the types of the map's ids, or the type and message of what
    it raises."""
    try:
        sub, idx = induce(g, s)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return sub.n, sub.edges, idx, [type(v) for v in chain(idx, idx.values())]


@st.composite
def induced_cases(draw):
    """A random graph and a vertex set: empty, full, with repeats, of
    numpy ids, as a numpy array, or with one id out of range."""
    n = draw(st.integers(0, 16))
    pairs = draw(distinct_pairs(n))
    g = Graph(n, draw(edge_input(pairs)))
    kind = draw(st.sampled_from(["empty", "full", "repeats", "numpy", "array", "out-of-range"]))
    verts = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    if kind == "empty":
        verts = []
    elif kind == "full":
        verts = list(range(n))
    elif kind == "repeats":
        verts = verts + verts[: len(verts) // 2]
    elif kind == "numpy":
        verts = [np.int32(v) if v % 2 else np.uint16(v) for v in verts]
    elif kind == "array":
        verts = np.array(verts, dtype=np.int64)
    else:
        verts = verts + [draw(st.sampled_from([-1, n, n + 5]))]
    return g, verts


@settings(max_examples=400, deadline=None)
@given(induced_cases())
def test_induced_subgraph_matches_the_loop_reference(case):
    g, verts = case
    assert induced_outcome(induced_subgraph, g, verts) == induced_outcome(
        induced_subgraph_by_loop, g, verts)


def test_induced_subgraph_faults_match_the_loop_reference():
    g = gnp(30, 3.0, seed=1)
    for verts in ([0, 1.0], [0, np.float64(2.0)], [3, -1], [31, 0], [30]):
        ours = induced_outcome(induced_subgraph, g, verts)
        assert ours == induced_outcome(induced_subgraph_by_loop, g, verts)
        assert ours[0] is (TypeError if any(isinstance(v, float) for v in verts) else ValueError)


VERTEX_SET_CALLS = {
    "components": lambda g, s: components(g, s),
    "components_pass_density": lambda g, s: components_pass_density(g, s, 0.5),
    "induced_subgraph": lambda g, s: induced_subgraph(g, s),
    "pipeline_fragment": lambda g, s: pipeline_fragment(g, s, 0.5),
    "trim_components": lambda g, s: trim_components(g, s, 2),
    "strip_short_cycles": lambda g, s: strip_short_cycles(g, s, g.n),
}


def returned_ids(out):
    """The vertex ids in a call's output: a result's sets, or the keys and
    values of ``induced_subgraph``'s map."""
    if isinstance(out, FragmentationResult):
        return out.kept + out.removed
    if isinstance(out, tuple):
        return tuple(out[1]) + tuple(out[1].values())
    return ()


@pytest.mark.parametrize("name", sorted(VERTEX_SET_CALLS))
def test_vertex_sets_are_read_as_ints(name):
    call = VERTEX_SET_CALLS[name]
    g = gnp(40, 3.0, seed=4)
    plain = list(range(0, 40, 2)) + [1]
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(g, plain[:-1] + [1.0])
    mixed = [np.int64(v) if v % 4 else np.int32(v) for v in plain[:-1]] + [True]
    out = call(g, mixed)
    assert out == call(g, plain)
    assert all(type(v) is int for v in returned_ids(out))


def test_excess_examples():
    assert excess(path(10)) == 0
    assert excess(c5()) == 1
    assert excess(k4()) == 3


def test_excess_additive_over_components():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(30, rng.randint(0, 45), rng)
        total = 0
        for comp in components(g).members():
            sub, _ = induced_subgraph(g, comp)
            total += excess(sub)
        assert total == excess(g)


def brute_force_cycles(g, k):
    """Count simple cycles of length <= k by enumerating vertex orderings."""
    adjset = [set(a) for a in g.adj]
    total = 0
    for size in range(3, k + 1):
        for sub in combinations(range(g.n), size):
            s0 = sub[0]
            for perm in permutations(sub[1:]):
                if perm[0] > perm[-1]:
                    continue  # one direction per cycle
                seq = (s0,) + perm
                if all(seq[i + 1] in adjset[seq[i]] for i in range(size - 1)) and s0 in adjset[seq[-1]]:
                    total += 1
    return total


def test_count_short_cycles_examples():
    assert count_short_cycles(c5(), 5) == 1
    assert count_short_cycles(c5(), 4) == 0
    assert count_short_cycles(path(8), 8) == 0
    assert count_short_cycles(k4(), 4) == 7  # 4 triangles + 3 quadrilaterals
    assert count_short_cycles(k4(), 3) == 4


def test_count_short_cycles_rejects_small_bound():
    with pytest.raises(ValueError):
        count_short_cycles(c5(), 2)
    # NaN fails ``k < 3`` and used to count no cycle at all
    with pytest.raises(ValueError, match="got nan"):
        count_short_cycles(c5(), math.nan)


def test_count_short_cycles_monotone_and_matches_brute_force():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(9, rng.randint(0, 14), rng)
        prev = 0
        for k in range(3, 8):
            got = count_short_cycles(g, k)
            assert got >= prev
            assert got == brute_force_cycles(g, k)
            prev = got


def test_forest_iff_no_cycles():
    rng = random.Random(31)
    for _ in range(15):
        g = random_graph(10, rng.randint(0, 14), rng)
        assert (excess(g) == 0) == (count_short_cycles(g, g.n) == 0)


def test_edgelist_round_trip(tmp_path):
    g = random_graph(25, 40, random.Random(2))
    p = tmp_path / "g.el"
    write_edgelist(g, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "25 40"
    assert read_edgelist(p) == g


def test_edgelist_comments_and_blanks(tmp_path):
    p = tmp_path / "c.el"
    p.write_text("# a comment\n\n3 2\n0 1\n# another\n1 2\n")
    g = read_edgelist(p)
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("3\n", "expected header"),
        ("x y\n", "non-integer header"),
        ("3 2\n0 1\n", "declares 2 edges"),
        ("3 1\n0 1 2\n", "expected edge"),
        ("3 1\n0 z\n", "non-integer edge"),
        ("3 2\n0 1\n1 0\n", "duplicate"),
        ("2 1\n0 5\n", "out of range"),
        ("3 1\n0 \xff1\n", "line 2: non-ASCII byte"),
    ],
)
def test_edgelist_format_errors(tmp_path, text, fragment):
    p = tmp_path / "bad.el"
    p.write_text(text)
    with pytest.raises(EdgeListFormatError, match=fragment):
        read_edgelist(p)


@pytest.mark.parametrize("pairs", [
    [(0, 2**70)],
    [(0, 1), (-2**63, 1)],
    [(2**63 - 1, 0)],
    [(1, 1)],
    [(0, 1), (2, 1), (1, 0)],
], ids=["beyond-int64", "int64-min", "int64-max", "self-loop", "duplicate"])
def test_edgelist_faults_give_the_pairs_message(tmp_path, pairs):
    p = tmp_path / "bad.el"
    p.write_text(f"3 {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    with pytest.raises(EdgeListFormatError) as exc:
        read_edgelist(p)
    assert str(exc.value) == build_outcome(3, pairs) == reference_outcome(3, pairs)


def read_outcome(read, p):
    """``adj``, ``edges`` and the ``_ends`` dtype and bytes of the graph
    ``read`` makes of file ``p``, or the type and message of what it raises."""
    try:
        g = read(p)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.adj, g.edges, g._ends.dtype, g._ends.tobytes()


def reference_read(p):
    return read_edgelist_by_lines(p, EdgeListFormatError)


@pytest.fixture(scope="module")
def el_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edgelists") / "g.el"


BIG_IDS = [10**17, 10**18 - 1, 10**18, 10**19, 2**63 - 1, 2**63]  # 18, 19 and 20 digits


def perturbed(line_list, kind, i, j):
    """``line_list`` (``n m``, then one ``u v`` per edge, no newlines) as
    text, with one fault of ``kind`` at line ``i`` (token ``j``)."""
    lines = [line.split(" ") for line in line_list]
    tokens = lines[i]
    if kind == "comment":
        lines.insert(i, ["#", "note"])
    elif kind == "blank":
        lines.insert(i, [""])
    elif kind == "tab":
        lines[i] = ["\t".join(tokens)]
    elif kind == "plus":
        tokens[j] = "+" + tokens[j]
    elif kind == "zero":
        tokens[j] = "0" + tokens[j]
    elif kind == "pad18":
        tokens[j] = tokens[j].zfill(18)
    elif kind == "pad19":
        tokens[j] = tokens[j].zfill(19)
    elif kind == "underscore":
        tokens[j] = tokens[j][0] + "_" + tokens[j][1:]
    elif kind.startswith("big"):  # an edge id, so that n stays small
        tokens[j] = str(BIG_IDS[int(kind[3:])])
    elif kind == "extra":
        tokens.append("1")
    elif kind == "missing":
        del tokens[j]
    elif kind == "header-only":
        del lines[1:]
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "no-final-newline":
        text = text[:-1]
    data = text.encode("ascii")
    if kind == "non-ascii":
        at = sum(len(" ".join(t)) + 1 for t in lines[:i]) + j
        data = data[:at] + b"\xff" + data[at:]
    return data


PERTURBATIONS = ["none", "comment", "blank", "crlf", "tab", "plus", "zero", "pad18", "pad19",
                 "underscore", "no-final-newline", "header-only", "extra", "missing",
                 "non-ascii"] + [f"big{k}" for k in range(len(BIG_IDS))]


@st.composite
def edgelist_texts(draw):
    """Edge-list bytes: random pairs in any order, sometimes with a fault
    ``Graph`` refuses, and one perturbation of the canonical layout."""
    n = draw(st.integers(0, 30))
    pairs = draw(distinct_pairs(n))
    if draw(st.booleans()):
        pairs.append(draw(st.sampled_from([(0, 0), (0, n), (n + 5, 1)] + pairs[:1])))
    lines = [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]
    kind = draw(st.sampled_from(PERTURBATIONS))
    if kind.startswith("big") and not pairs:
        kind = "none"
    first = 1 if kind.startswith("big") else 0
    i = draw(st.integers(first, len(lines) - 1))
    return perturbed(lines, kind, i, draw(st.integers(0, 1)))


@settings(max_examples=600, deadline=None)
@given(edgelist_texts())
def test_reader_matches_the_line_reference(el_path, data):
    el_path.write_bytes(data)
    assert read_outcome(read_edgelist, el_path) == read_outcome(reference_read, el_path)


@pytest.mark.parametrize("data", [
    b"3 2\n0 1 2\n1\n",  # as many tokens as a canonical file, in the wrong lines
    b"3 1\n0 1 \n",
    b"3 1\n 0 1\n",
    b"3 2\n0 1\n\n",
    b"0 0\n",
    b"0 0",
    b"4 0\n",
    b"3 0\n0 1\n",
    b"3 1\n",
    b"",
    b"\n",
    b"3 1\n0 000000000000000001\n",
    b"3 1\n0 0000000000000000001\n",
    b"3 1\n0 9223372036854775808\n",
    b"3 1\n0 99999999999999999999\n",
    b"3 1\n0 999999999999999999\n",
])
def test_reader_matches_the_line_reference_on_edge_cases(tmp_path, data):
    p = tmp_path / "g.el"
    p.write_bytes(data)
    assert read_outcome(read_edgelist, p) == read_outcome(reference_read, p)


def star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


def writer_graph(model, n, seed):
    if model == "edgeless":
        return Graph(n)
    if model == "path":
        return path(n)
    if model == "star":
        return star(n)
    if model == "gnp":
        return gnp(n, 2.0, seed)
    if model == "regular":
        return random_regular(n, 3, seed)
    return random_tree(n, seed)


WRITER_CASES = [
    ("edgeless", 0, 0), ("edgeless", 7, 0), ("path", 1, 0), ("path", 40, 0),
    ("star", 1, 0), ("star", 300, 0),
    *(("gnp", n, seed) for n in (3, 50, 2000) for seed in (1, 2, 3)),
    *(("regular", n, seed) for n in (4, 60, 2000) for seed in (1, 2, 3)),
    *(("tree", n, seed) for n in (1, 2, 500) for seed in (1, 2)),
    ("gnp", 100_000, 5),  # more edges than one formatting block
]


@pytest.mark.parametrize("model,n,seed", WRITER_CASES)
def test_writer_matches_the_per_edge_reference(tmp_path, model, n, seed):
    g = writer_graph(model, n, seed)
    ours, theirs = tmp_path / "ours.el", tmp_path / "theirs.el"
    write_edgelist(g, ours)
    write_edgelist_by_edges(g, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    back = read_outcome(read_edgelist, ours)
    assert back == read_outcome(reference_read, ours)
    assert back == (g.adj, g.edges, g._ends.dtype, g._ends.tobytes())


def test_canonical_files_skip_the_line_loop(tmp_path, monkeypatch):
    # Only the line loop reads the file in text mode; with that refused,
    # every canonical file must still read.
    def no_text_reads(file, mode="r", *args, **kwargs):
        if "r" in mode and "b" not in mode:
            raise AssertionError(f"text-mode read of {file}")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(dismantle.graph, "open", no_text_reads, raising=False)
    p = tmp_path / "g.el"
    for g in [Graph(0), Graph(3), path(9), star(12), gnp(500, 2.0, 1), random_regular(60, 3, 2)]:
        write_edgelist(g, p)
        assert read_edgelist(p) == g
    p.write_bytes(b"3 2\n0 1\n1 0\n")  # canonical layout, refused by Graph
    with pytest.raises(EdgeListFormatError, match="duplicate edge"):
        read_edgelist(p)
    p.write_bytes(b"3 1\n0 1\n# comment\n")
    with pytest.raises(AssertionError, match="text-mode read"):
        read_edgelist(p)
