import hashlib
import heapq
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismantle import (
    Graph,
    PipelineBudgetError,
    component_cap,
    components,
    components_pass_density,
    count_short_cycles,
    decycle_heuristic,
    exact_max_forest,
    exact_max_induced,
    excess,
    fragment_forest,
    gnp,
    greedy_fragment,
    induced_subgraph,
    path,
    pipeline_fragment,
    random_regular,
    random_tree,
    strip_short_cycles,
    trim_components,
)
from dismantle import experiments, fragmenters
from dismantle.fragmenters import (
    _add_back,
    _decycled_forest,
    _empty_core,
    _forest_order,
    _fragment_forest_removals,
    _greedy_cuts,
    _lfmis_elimination,
    _make_result,
    _region_degrees,
)
from dismantle.graph import _vertex_mask
from oracles import add_back_from_edgeless, components_by_dfs


def c5():
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def c6():
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def k4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def random_graph(n, m, rng):
    m = min(m, n * (n - 1) // 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def check_result(g, res, cap=None, forest=False):
    assert sorted(res.kept + res.removed) == list(range(g.n))
    assert res.max_component == components(induced_subgraph(g, res.kept)[0]).largest
    assert 0.0 <= res.nu <= 1.0
    if cap is not None:
        assert res.max_component <= cap
    if forest:
        sub, _ = induced_subgraph(g, res.kept)
        assert excess(sub) == 0


# ---------------------------------------------------------------------------
# component_cap
# ---------------------------------------------------------------------------


def test_component_cap_values():
    assert component_cap(0.5) == 6
    assert component_cap(0.9) == 4
    assert component_cap(0.3) == 10
    assert component_cap(0.75) == 4
    for eps in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            component_cap(eps)


# ---------------------------------------------------------------------------
# fragment_forest
# ---------------------------------------------------------------------------


def test_forest_tiny_trees_untouched():
    for n in range(1, 6):
        t = random_tree(n, seed=n)
        res = fragment_forest(t, k=n)  # n <= k: nothing to do
        assert res.removed == ()


def test_forest_boundary_tree_needs_one_removal():
    # a tree on k+1 vertices is itself a component of size k+1
    for k in (1, 2, 5):
        t = random_tree(k + 1, seed=k)
        res = fragment_forest(t, k)
        assert len(res.removed) == 1
        check_result(t, res, cap=k)


def test_forest_path9_cap2():
    res = fragment_forest(path(9), 2)
    assert len(res.removed) <= 3
    check_result(path(9), res, cap=2)


def test_forest_star_cap1_removes_center():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    res = fragment_forest(star, 1)
    assert res.removed == (0,)
    assert res.max_component == 1


def test_forest_rejects_cyclic_input():
    with pytest.raises(ValueError, match="not a forest"):
        fragment_forest(c5(), 2)
    with pytest.raises(ValueError):
        fragment_forest(path(5), 0)


def test_forest_removal_bound_on_random_trees():
    count = 0
    for seed in range(75):
        n = 2 + (seed * 37) % 119
        t = random_tree(n, seed=seed)
        for k in (1, 2, 5, 10):
            res = fragment_forest(t, k)
            assert len(res.removed) <= n // (k + 1)
            check_result(t, res, cap=k)
            count += 1
    assert count == 300


def test_forest_paths_meet_bound_exactly():
    for k in (1, 2, 5, 10):
        for m in (1, 2, 3, 5):
            n = m * (k + 1)
            res = fragment_forest(path(n), k)
            assert len(res.removed) == m
            check_result(path(n), res, cap=k)


def test_forest_matches_exact_on_exact_paths():
    for k in (1, 2, 3):
        for m in (1, 2):
            n = m * (k + 1)
            res = fragment_forest(path(n), k)
            assert len(res.kept) == len(exact_max_induced(path(n), k).kept)


@st.composite
def small_forests(draw):
    """Random labelled forest on at most 16 vertices: each vertex joins an
    earlier one or starts a new tree, then the ids are shuffled."""
    n = draw(st.integers(1, 16))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        p = draw(st.integers(-1, v - 1))
        if p >= 0:
            edges.append((label[p], label[v]))
    return Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(small_forests(), st.integers(1, 5))
def test_forest_cut_is_optimal_on_small_forests(f, k):
    res = fragment_forest(f, k)
    check_result(f, res, cap=k)
    assert len(res.kept) == len(exact_max_induced(f, k).kept)
    assert len(res.removed) <= f.n // (k + 1)


def test_forest_handles_multi_tree_forests():
    # two paths glued as one graph
    edges = [(i, i + 1) for i in range(7)] + [(8 + i, 9 + i) for i in range(5)]
    f = Graph(14, edges)
    res = fragment_forest(f, 2)
    check_result(f, res, cap=2)
    assert len(res.removed) <= 14 // 3


forest_regions = st.one_of(
    small_forests().map(lambda f: (f, range(f.n))),
    st.builds(gnp, st.integers(8, 300), st.floats(0.5, 4.0), seed=st.integers(0, 2**32 - 1))
    .map(lambda g: (g, decycle_heuristic(g).kept)),
)


@settings(max_examples=150, deadline=None)
@given(forest_regions, st.lists(st.integers(1, 20), min_size=1, max_size=6))
def test_cuts_from_one_orientation_match_fragment_forest(case, caps):
    # one orientation serves every cap, in any order and repeated, and the
    # cut of a forest region of g is the cut of the induced forest
    g, region = case
    region = tuple(region)
    inside = _vertex_mask(g, region)
    oriented = _forest_order(g, inside)
    forest, _ = induced_subgraph(g, region)
    for cap in caps + caps[:1]:
        kept = inside.copy()
        kept[_fragment_forest_removals(*oriented, cap)] = False
        assert (tuple(np.flatnonzero(kept).tolist())
                == tuple(region[v] for v in fragment_forest(forest, cap).kept))


def test_max_component_size_matches_induced_components():
    rng = random.Random(31)
    g = gnp(300, 2.0, seed=31)
    for _ in range(20):
        kept = rng.sample(range(g.n), rng.randint(0, g.n))
        assert components(g, kept).largest == components(induced_subgraph(g, kept)[0]).largest


# ---------------------------------------------------------------------------
# greedy_fragment
# ---------------------------------------------------------------------------


def greedy_reference(g, cap):
    """One global step at a time, recomputing everything; the oracle."""
    alive = set(range(g.n))
    removed = []
    while True:
        seen = set()
        oversized = []
        for s in sorted(alive):
            if s in seen:
                continue
            seen.add(s)
            comp = [s]
            stack = [s]
            while stack:
                v = stack.pop()
                for u in g.adj[v]:
                    if u in alive and u not in seen:
                        seen.add(u)
                        comp.append(u)
                        stack.append(u)
            if len(comp) > cap:
                oversized.extend(comp)
        if not oversized:
            return sorted(removed)
        deg = {v: sum(1 for u in g.adj[v] if u in alive) for v in oversized}
        v = max(oversized, key=lambda v: (deg[v], -v))
        alive.discard(v)
        removed.append(v)


def cut_sizes(g, res):
    """Greedy cut sizes of the vertices ``res`` removed, in its order."""
    cut = _greedy_cuts(g)
    return tuple(cut[v] for v in res.removed)


def test_greedy_cap_at_least_n_is_noop():
    for g in (gnp(100, 2.0, seed=8), c6(), k4()):
        for cap in (g.n, g.n + 1, 10 * g.n):
            res = greedy_fragment(g, cap)
            assert res.removed == ()
            assert res.nu == 1.0


def test_greedy_cap1_gives_independent_set():
    g = gnp(80, 2.5, seed=12)
    res = greedy_fragment(g, 1)
    kept = set(res.kept)
    assert all(not (u in kept and v in kept) for u, v in g.edges)
    check_result(g, res, cap=1)


def test_greedy_c6_feasible_and_below_exact():
    res = greedy_fragment(c6(), 2)
    check_result(c6(), res, cap=2)
    assert len(res.kept) <= len(exact_max_induced(c6(), 2).kept) == 4


def test_greedy_cap_validation():
    with pytest.raises(ValueError):
        greedy_fragment(c6(), 0)


def test_greedy_matches_reference():
    rng = random.Random(555)
    for _ in range(60):
        n = rng.randint(1, 45)
        g = random_graph(n, rng.randint(0, 2 * n), rng)
        cap = rng.choice([1, 2, 3, 5, 9])
        res = greedy_fragment(g, cap)
        assert sorted(res.removed) == greedy_reference(g, cap)
        check_result(g, res, cap=cap)
    for seed, (n, d) in enumerate([(20, 3), (36, 3), (15, 4), (30, 4)]):
        g = random_regular(n, d, seed=seed)
        for cap in (1, 2, 3, 4, 5, n):
            res = greedy_fragment(g, cap)
            assert list(res.removed) == greedy_reference(g, cap)
            check_result(g, res, cap=cap)


def test_greedy_without_edges_removes_nothing():
    for n in (0, 1, 7):
        g = Graph(n, [])
        for cap in (1, 3):
            res = greedy_fragment(g, cap)
            assert res.removed == () and _greedy_cuts(g) == [0] * n
            assert res.kept == tuple(range(n))


def test_greedy_star_removes_centre():
    star = Graph(7, [(4, i) for i in range(7) if i != 4])
    for cap in range(1, 7):
        res = greedy_fragment(star, cap)
        assert res.removed == (4,) and cut_sizes(star, res) == (7,)
        assert res.max_component == 1
    assert greedy_fragment(star, 7).removed == ()


def test_greedy_complete_graph_cut_sizes():
    # n = 2 is a single edge: vertex 0 goes, with cut size 2
    for n in (2, 3, 6):
        kn = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        res = greedy_fragment(kn, 1)
        assert res.removed == tuple(range(n - 1)) and res.kept == (n - 1,)
        assert cut_sizes(kn, res) == tuple(range(n, 1, -1))


def test_greedy_ties_go_to_smallest_id():
    # every vertex of a cycle ties on degree: 0 goes first (cut 6), then
    # 2 from the path 1..5 (cut 5), then 4 from the path 3-4-5 (cut 3)
    res = greedy_fragment(c6(), 1)
    assert res.removed == (0, 2, 4) and cut_sizes(c6(), res) == (6, 5, 3)
    # 3x3 grid, id 3*row + col: the centre goes first, then the 8-cycle
    # around it is cut from its smallest ids down
    grid = Graph(9, [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
                       + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)])
    res = greedy_fragment(grid, 1)
    assert res.removed == (0, 2, 4, 6, 8) and cut_sizes(grid, res) == (8, 7, 9, 5, 3)
    # 4x4 torus: every vertex ties on degree 4
    torus = Graph(16, sorted({tuple(sorted((4 * r + c, 4 * r + (c + 1) % 4)))
                                    for r in range(4) for c in range(4)}
                                   | {tuple(sorted((4 * r + c, 4 * ((r + 1) % 4) + c)))
                                      for r in range(4) for c in range(4)}))
    run = greedy_fragment(torus, 1)
    assert run.removed[0] == 0 and cut_sizes(torus, run)[0] == 16
    for g in (c6(), grid, torus):
        for cap in range(1, g.n + 1):
            assert list(greedy_fragment(g, cap).removed) == greedy_reference(g, cap)


def test_greedy_deterministic():
    g = gnp(400, 2.0, seed=3)
    assert greedy_fragment(g, 4) == greedy_fragment(g, 4)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    return Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sets(st.integers(1, 16), min_size=1, max_size=5))
def test_greedy_cut_sizes_give_every_larger_cap(g, caps):
    run = greedy_fragment(g, min(caps))
    for cap in caps:
        above = [v for v, size in zip(run.removed, cut_sizes(g, run)) if size > cap]
        assert above == greedy_reference(g, cap)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_greedy_cut_sizes_are_exact(g):
    run = greedy_fragment(g, 1)
    for v, size in zip(run.removed, cut_sizes(g, run)):
        assert v in greedy_reference(g, size - 1)
        assert v not in greedy_reference(g, size)


def test_greedy_removals_nested_and_cut_sizes_bounded():
    rng = random.Random(808)
    graphs = [gnp(n, c, seed=s) for s, (n, c) in enumerate([(60, 1.0), (300, 2.0), (500, 3.5)])]
    graphs += [random_regular(200, 3, seed=4), random_regular(120, 4, seed=5)]
    graphs += [random_graph(40, 70, rng) for _ in range(5)]
    for g in graphs:
        comps = components(g)
        for low in (1, 3, 8):
            run = greedy_fragment(g, low)
            for v, size in zip(run.removed, cut_sizes(g, run)):
                assert low < size <= comps.sizes[comps.labels[v]]
        caps = [1, 2, 3, 5, 8, 13, 40, g.n]
        sets = [set(greedy_fragment(g, cap).removed) for cap in caps]
        for small, large in zip(sets, sets[1:]):
            assert large <= small
        nus = [greedy_fragment(g, cap).nu for cap in caps]
        assert nus == sorted(nus)


# ---------------------------------------------------------------------------
# _make_result and the greedy curve rows
# ---------------------------------------------------------------------------


@st.composite
def ranked_graphs(draw):
    n = draw(st.integers(0, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n)) if n else []
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    rank = draw(st.lists(st.integers(-2, n + 3), min_size=n, max_size=n))
    # unsorted and repeated, with 0 and caps at or above n among the draws
    caps = draw(st.lists(st.integers(0, n + 3), min_size=1, max_size=8))
    return g, rank, caps


def greedy_rows(g, rank, caps):
    """``_method_results(g, caps, "greedy")`` with ``rank`` standing in for the cut sizes."""
    with mock.patch.object(experiments, "_greedy_cuts", lambda graph: rank):
        return list(experiments._method_results(g, caps, "greedy"))


def rank_results(g, rank, caps):
    """``_make_result`` of each cap's kept set under ``rank``."""
    return [_make_result(g, _vertex_mask(g, [v for v in range(g.n) if rank[v] <= cap]), "greedy")
            for cap in caps]


@settings(max_examples=300, deadline=None)
@given(ranked_graphs())
def test_greedy_rows_match_make_result(case):
    g, rank, caps = case
    rows = greedy_rows(g, rank, caps)
    assert len(rows) == len(caps)
    for cap, row, res in zip(caps, rows, rank_results(g, rank, caps)):
        kept = [v for v in range(g.n) if rank[v] <= cap]
        assert row == (res.nu, res.max_component)
        # the certificate is recomputed from the graph, as the DFS reference finds it
        labels, sizes, _ = components_by_dfs(g, kept)
        assert res.kept == tuple(kept)
        assert res.removed == tuple(v for v in range(g.n) if labels[v] < 0)
        assert (res.max_component, res.component_count) == (max(sizes, default=0), len(sizes))
        assert res.nu == (1.0 if g.n == 0 else len(kept) / g.n)


def test_greedy_rows_report_true_sizes():
    # the ranks claim nothing is cut, so the whole path and cycle survive
    # every cap; the rows must say so rather than echo the cap
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5)])
    caps = (1, 2, 9)
    for row, res in zip(greedy_rows(g, [0] * 9, caps), rank_results(g, [0] * 9, caps)):
        assert row == (res.nu, res.max_component) == (1.0, 5)
        assert res.component_count == 2
        assert res == _make_result(g, np.ones(9, dtype=bool), "greedy")
    # a rank that keeps both ends of a path joins them only with the middle
    path5, rank, caps = path(5), [1, 1, 3, 1, 1], (3, 1, 2)
    results = rank_results(path5, rank, caps)
    assert greedy_rows(path5, rank, caps) == [(r.nu, r.max_component) for r in results]
    assert [(r.max_component, r.component_count, r.removed) for r in results] == [
        (5, 1, ()), (2, 2, (2,)), (2, 2, (2,))]
    assert _make_result(path5, _vertex_mask(path5, [0, 1, 3, 4]), "greedy") == results[1]


@pytest.mark.parametrize("kept", [np.array([1, 1, 0, 1, 1]), [0, 1, 3, 4], np.ones(4, dtype=bool)],
                         ids=["int-array", "list", "wrong-length"])
def test_make_result_refuses_anything_but_a_mask_of_length_n(kept):
    # unchecked, an int array of the right length would be read as positions
    with pytest.raises(ValueError, match="boolean mask of length 5"):
        _make_result(path(5), kept, "m")


# ---------------------------------------------------------------------------
# decycle_heuristic
# ---------------------------------------------------------------------------


def two_core(g, alive):
    """Vertices of the 2-core of the alive region, peeled from scratch."""
    core = {v for v in range(g.n) if alive[v]}
    while True:
        low = {v for v in core if sum(u in core for u in g.adj[v]) <= 1}
        if not low:
            return core
        core -= low


def decycle_reference(g):
    """Removed vertices, sorted: max-degree 2-core removals, then a reverse add-back."""
    alive = bytearray([1]) * g.n
    removed = []
    while core := two_core(g, alive):
        v = max(core, key=lambda v: (sum(u in core for u in g.adj[v]), -v))
        alive[v] = 0
        removed.append(v)
    kept = [v for v in range(g.n) if alive[v]]
    for v in reversed(removed):
        if excess(induced_subgraph(g, kept + [v])[0]) == 0:
            kept.append(v)
    return sorted(set(range(g.n)) - set(kept))


def test_decycle_forest_noop():
    t = random_tree(40, seed=2)
    assert decycle_heuristic(t).removed == ()


def test_decycle_examples():
    assert len(decycle_heuristic(c5()).removed) == 1 == 5 - len(exact_max_forest(c5()).kept)
    assert len(decycle_heuristic(k4()).removed) == 2 == 4 - len(exact_max_forest(k4()).kept)


def test_decycle_output_is_forest():
    rng = random.Random(8)
    for _ in range(15):
        g = random_graph(50, rng.randint(30, 90), rng)
        res = decycle_heuristic(g)
        check_result(g, res, forest=True)


def triangles_joined_by_path(length):
    """Two triangles joined by a path of ``length`` edges.

    Every inner path vertex carries two pendant leaves, so it has the top
    degree in the graph, yet only degree 2 in the 2-core and lies on no
    cycle: a key on degree in the graph would remove it first and need
    the add-back pass to restore it.
    """
    edges = [(0, 1), (1, 2), (2, 0)]
    n = 3
    prev = 2
    for _ in range(length - 1):
        v = n
        edges += [(prev, v), (v, v + 1), (v, v + 2)]
        n += 3
        prev = v
    edges += [(prev, n), (n, n + 1), (n + 1, n + 2), (n + 2, n)]
    return Graph(n + 3, edges)


def decycle_cases():
    rng = random.Random(31337)
    for _ in range(40):
        n = rng.randint(3, 35)
        yield random_graph(n, rng.randint(0, 2 * n), rng)
    for d in (3, 4):
        for seed in range(8):
            yield random_regular(2 * (4 + seed), d, seed=seed)
    for length in (1, 2, 5):
        yield triangles_joined_by_path(length)
    # a hub of high degree on no cycle, between a 4-cycle and K4
    yield Graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6),
                           (4, 7), (4, 8), (8, 9), (8, 10), (8, 11), (9, 10),
                           (9, 11), (10, 11)])
    # cycles hanging off both ends of a path, each with a pendant tree
    yield Graph(13, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6),
                           (6, 7), (7, 8), (8, 6), (8, 9), (0, 10), (10, 11),
                           (10, 12)])


def test_decycle_matches_reference():
    for g in decycle_cases():
        assert sorted(decycle_heuristic(g).removed) == decycle_reference(g)


def test_decycle_restores_a_core_vertex_on_no_cycle():
    # hub 0 joins three triangles by bridges: it ties on 2-core degree 3
    # with the triangle vertices it touches, goes first by id, and comes
    # back once a vertex of each triangle is gone
    g = Graph(10, [(0, 1), (0, 4), (0, 7), (1, 2), (2, 3), (3, 1),
                         (4, 5), (5, 6), (6, 4), (7, 8), (8, 9), (9, 7)])
    alive = bytearray([1]) * g.n
    assert _empty_core(g.adj, alive, [len(a) for a in g.adj]) == [0, 1, 4, 7]
    assert list(decycle_heuristic(g).removed) == decycle_reference(g) == [1, 4, 7]


def empty_core_reference(g, region, j):
    """Removal order of ``_empty_core``, from scratch at every step: peel the
    ``j``-core of what is left, then remove its vertex with the most core
    neighbours, smallest id on ties."""
    alive = set(region)
    order = []
    while True:
        core = set(alive)
        while low := {v for v in core if sum(u in core for u in g.adj[v]) < j}:
            core -= low
        if not core:
            return order
        v = max(core, key=lambda v: (sum(u in core for u in g.adj[v]), -v))
        alive.discard(v)
        order.append(v)


def test_empty_core_ties_at_top_degree_and_largest_id():
    # these graphs tie on the largest degree and put a tie, or the hub,
    # on the largest id: the first and the last entry of a level
    def star(n, centre):
        return Graph(n, [tuple(sorted((centre, v))) for v in range(n) if v != centre])

    def complete(n):
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    def cycle(n):
        return Graph(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])

    graphs = [star(7, 6), star(7, 0), star(2, 1), complete(2), complete(5), complete(8),
              cycle(3), cycle(6), cycle(11), c5(), k4(), Graph(1, []), Graph(0, [])]
    graphs += [random_regular(n, d, seed=n + d) for n, d in [(10, 3), (16, 3), (12, 4), (21, 4)]]
    for g in graphs:
        for region in (range(g.n), range(g.n - 1), range(1, g.n)):
            for j in (0, 1):
                assert lfmis_order(g, region, j) == empty_core_reference(g, region, j), (g, j)
            alive = bytearray(g.n)
            for v in region:
                alive[v] = 1
            deg = [sum(alive[u] for u in a) if alive[v] else 0 for v, a in enumerate(g.adj)]
            order = _empty_core(g.adj, alive, deg)
            assert order == empty_core_reference(g, region, 2), (g, region)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_empty_core_leaves_no_core(g, data):
    region = data.draw(st.sets(st.integers(0, g.n - 1)))
    for j in (0, 1, 2):
        alive = bytearray(g.n)
        for v in region:
            alive[v] = 1
        if j < 2:
            removed = lfmis_order(g, region, j)
            for v in removed:
                alive[v] = 0
        else:
            deg = [sum(alive[u] for u in a) if alive[v] else 0 for v, a in enumerate(g.adj)]
            removed = _empty_core(g.adj, alive, deg)
        left = [v for v in range(g.n) if alive[v]]
        assert sorted(removed + left) == sorted(region)
        sub, _ = induced_subgraph(g, left)
        assert (sub.n, sub.m, excess(sub))[j] == 0  # empty, edgeless, a forest


def heap_empty_core(adj, alive, deg, j):
    """The lazy-heap ``_empty_core`` that the level scan replaced, kept as a
    reference: the same removal order, ``alive`` and exit ``deg``."""
    n = len(adj)
    top = max(deg, default=0)
    core = bytearray(alive)

    def leave(stack):
        while stack:
            v = stack.pop()
            if core[v]:
                core[v] = 0
                for u in adj[v]:
                    if core[u]:
                        deg[u] -= 1
                        if deg[u] < j:
                            stack.append(u)

    leave([v for v, d in enumerate(deg) if core[v] and d < j])
    heap = [(top - d) * n + v for v, d in enumerate(deg) if core[v]]
    heapq.heapify(heap)
    removed = []
    while heap:
        q, v = divmod(heapq.heappop(heap), n)
        if not core[v]:
            continue
        if deg[v] != top - q:
            heapq.heappush(heap, (top - deg[v]) * n + v)
            continue
        alive[v] = 0
        removed.append(v)
        leave([v])
    return removed


def elimination_outcome(eliminate, g, region, j):
    """Removal order, final ``alive`` and exit ``deg`` of one elimination of ``region``."""
    alive = bytearray(g.n)
    for v in region:
        alive[v] = 1
    deg = [sum(alive[u] for u in a) if alive[v] else 0 for v, a in enumerate(g.adj)]
    return eliminate(g.adj, alive, deg, j), alive, deg


def assert_matches_heap(g, region):
    # j = 0 and 1 are checked against the heap by ``assert_lfmis_matches``
    level_scan = lambda adj, alive, deg, j: _empty_core(adj, alive, deg)
    assert (elimination_outcome(level_scan, g, region, 2)
            == elimination_outcome(heap_empty_core, g, region, 2)), g


elimination_graphs = st.one_of(
    small_graphs(),
    st.builds(gnp, st.integers(8, 300), st.floats(0.5, 6.0), seed=st.integers(0, 2**32 - 1)),
    # every vertex starts on one level, so each removal is a tie on ids
    st.builds(lambda n, d, seed: random_regular(n + n * d % 2, d, seed=seed),
              st.integers(5, 60), st.integers(2, 4), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=400, deadline=None)
@given(elimination_graphs, st.one_of(st.just(1.0), st.floats(0.0, 1.0)), st.randoms())
def test_level_scan_matches_heap_elimination(g, keep, rng):
    assert_matches_heap(g, [v for v in range(g.n) if rng.random() < keep])


def test_level_scan_matches_heap_at_scale():
    # too large for the from-scratch reference; the heap takes milliseconds
    for g in (gnp(5000, 3.0, seed=13), random_regular(5000, 3, seed=13)):
        rng = random.Random(5)
        for region in (range(g.n), [v for v in range(g.n) if rng.random() < 0.7]):
            assert_matches_heap(g, region)
            assert_lfmis_matches(g, region)


def lfmis_order(g, region, j):
    """Removal order of ``_lfmis_elimination`` on ``region``, as a list."""
    inside = np.zeros(g.n, dtype=bool)
    inside[list(region)] = True
    order = _lfmis_elimination(g, inside, j).tolist()
    if len(set(region)) == g.n:
        assert _lfmis_elimination(g, None, j).tolist() == order
    return order


def assert_lfmis_matches(g, region):
    for j in (0, 1):
        order = lfmis_order(g, region, j)
        assert order == elimination_outcome(heap_empty_core, g, region, j)[0], (g, j)
        if g.n <= 60:  # where the from-scratch reference runs in milliseconds
            assert order == empty_core_reference(g, region, j), (g, j)


@settings(max_examples=300, deadline=None)
@given(elimination_graphs, st.one_of(st.just(1.0), st.floats(0.0, 1.0)), st.randoms())
def test_lfmis_elimination_matches_the_references(g, keep, rng):
    assert_lfmis_matches(g, [v for v in range(g.n) if rng.random() < keep])


def relabel(g, label):
    """``g`` with each vertex ``v`` renamed ``label[v]``."""
    return Graph(g.n, [tuple(sorted((label[u], label[v]))) for u, v in g.edges])


def chung_lu(n, exponent, c, seed):
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


def hubs_and_paths(sizes=(40, 17, 7, 3), length=4):
    """One hub per size, joined to one end of that many paths of ``length``
    vertices. Each hub is at most half the degree of the one before, so
    the elimination sets the smaller hubs' edges and the paths aside over
    several passes and takes them back one pass at a time."""
    edges, n = [], 0
    for size in sizes:
        hub, n = n, n + 1
        for _ in range(size):
            edges.append((hub, n))
            edges += [(v, v + 1) for v in range(n, n + length - 1)]
            n += length
    return Graph(n, edges)


def lfmis_cases():
    # chains in ascending, descending and zigzag id order, where each
    # level's independent set is decided one vertex after another
    for n in (1, 2, 3, 4, 5, 6, 9, 40, 101, 1000):
        yield path(n)
        yield relabel(path(n), range(n - 1, -1, -1))
        yield relabel(path(n), [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)])
    for n in (2, 3, 7, 8, 50):  # stars with the hub at the first or the last id
        yield Graph(n, [(0, v) for v in range(1, n)])
        yield Graph(n, [(v, n - 1) for v in range(n - 1)])
    for n in (2, 3, 5, 8, 13):
        yield Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    # with the stars and complete graphs above, the graphs of
    # test_empty_core_ties_at_top_degree_and_largest_id
    for n in (3, 6, 11):
        yield Graph(n, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
    yield from (c5(), k4(), Graph(1, []))
    yield from (random_regular(n, d, seed=n + d) for n, d in [(10, 3), (16, 3), (12, 4), (21, 4)])
    # heavy tails: many levels, and edges set aside over several passes
    yield chung_lu(2000, 2.5, 4.0, 3)
    g = hubs_and_paths()
    yield g
    yield relabel(g, range(g.n - 1, -1, -1))


def test_lfmis_elimination_fixed_cases():
    for g in lfmis_cases():
        for region in (range(g.n), range(g.n - 1), range(1, g.n), range(0, g.n, 3)):
            assert_lfmis_matches(g, region)


def test_lfmis_elimination_finishes_a_long_chain_in_order():
    # the rounds settle two vertices each on an ascending chain, so the
    # ascending pass over ``adj`` decides it; no other step reads ``adj``
    g = path(100_000)
    assert g._view is None
    order = _lfmis_elimination(g)
    assert g._view is not None
    alive = bytearray([1]) * g.n
    assert order.tolist() == heap_empty_core(g.adj, alive, [len(a) for a in g.adj], 1)
    assert order.tolist() == list(range(1, g.n - 1, 2)) + [g.n - 2]


# sha256 digests of the comma-joined outputs: any change of removal order
# at scale shows here. gnp and regular were taken with the level scan
# (``_empty_core``) before the numpy elimination replaced it in greedy and
# trimming; Chung–Lu, whose hubs give it hundreds of levels, with the
# numpy elimination that filed each vertex under its degree, before the
# per-level edge scan replaced it.
PINNED_AT_SCALE = {
    "gnp": (lambda: gnp(100_000, 2.0, 1),
            "88f9830619cb31e1479ba15469d7da2a0dae612113549368194423055507d6f7",
            "4c934b9590b83425d6ab5c72612ba2532d8ed96170bc0ccbd975ccb7256e7383"),
    "regular": (lambda: random_regular(100_000, 3, 1),
                "74b009a176a159183d67f6644c448c19bd8dfb78e83a9dbc02590d770265fb9a",
                "985c55af87d214c51283af40c2f7ee4a59798c5414c24770eb1ca4d8073d4195"),
    "chung-lu": (lambda: chung_lu(100_000, 2.5, 4.0, 1),
                 "67d8a03b62fcfc048a2b7c9867418b2ae66b2d3daf6a759d556a076adc9db3a7",
                 "bd649f5ff8d9de15553c5819a63433b1e9ed7e0594721b6ca64e3bf158c58a7a"),
}


def digest(ids):
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()


def pinned_region(g):
    return np.flatnonzero(np.random.default_rng(7).random(g.n) < 0.7).tolist()


@pytest.mark.parametrize("name", sorted(PINNED_AT_SCALE))
def test_greedy_and_trim_match_their_pinned_digests(name):
    make, cuts, trimmed = PINNED_AT_SCALE[name]
    g = make()
    assert digest(_greedy_cuts(g)) == cuts
    assert digest(trim_components(g, pinned_region(g), 8).removed) == trimmed


def edgeless_reference_cuts(g):
    """Greedy cut sizes from the reference add-back: the elimination's
    removals go back in reverse order, each joining every present
    neighbour's set. The kept vertices are independent, so the
    reference's one set per vertex is their seed."""
    order = _lfmis_elimination(g).tolist()
    present = bytearray([1]) * g.n
    for v in order:
        present[v] = 0
    return add_back_from_edgeless(g, present, order[::-1], lambda roots: True)


@settings(max_examples=300, deadline=None)
@given(elimination_graphs)
def test_greedy_cuts_match_the_edgeless_reference(g):
    assert _greedy_cuts(g) == edgeless_reference_cuts(g)


@pytest.mark.parametrize("make", [lambda: Graph(0), lambda: Graph(50), lambda: path(1000),
                                  lambda: chung_lu(2000, 2.5, 4.0, 3)],
                         ids=["empty", "edgeless", "path", "chung-lu"])
def test_greedy_cuts_fixed_cases(make):
    # the path's levels are settled by the elimination's ascending pass
    g = make()
    assert _greedy_cuts(g) == edgeless_reference_cuts(g)


# The removal sets of decycling, the pipeline on the region above and
# cycle stripping after greedy at cap 12, taken while the fragmenters
# still passed vertex sets as id lists, before they passed boolean masks.
PINNED_FOREST_SIDE = {
    "gnp": (lambda: gnp(100_000, 2.0, 1), (
        "c8eeeb72a251c0f24998c20eaac8b43594cd8bc4800fb4b657aeed015ff1bcb1",
        "0fbd7e28c9ed9c4dc6ce9f017f0b57d0f0bf84a458bb7b5af76e1091fe0b65d8",
        "d8c5762617465312a20e4a0025d684758d63deaf02cf494d42fb77b53bc714c5")),
    "regular": (lambda: random_regular(100_000, 3, 1), (
        "2de4c5a3f8e1e87998fda6a67c9e6d852788a36589b38732485dc808c566da52",
        "4a3c5e11cf1b4859bff242f795d98c316d9754949f6b53ca56e2815f0a8e24f7",
        "76af50b8d28a650d626d22bed5b53e4921c16a5fee1eba94e8c775f312cdbdc1")),
}


@pytest.mark.parametrize("name", sorted(PINNED_FOREST_SIDE))
def test_forest_side_matches_its_pinned_digests(name):
    make, digests = PINNED_FOREST_SIDE[name]
    g = make()
    assert (digest(decycle_heuristic(g).removed),
            digest(pipeline_fragment(g, pinned_region(g), 0.5).removed),
            digest(strip_short_cycles(g, greedy_fragment(g, 12).kept, 12).removed)) == digests


def test_forest_cut_matches_its_pinned_digest():
    assert (digest(fragment_forest(random_tree(100_000, 1), 8).removed)
            == "455ae09f1967de1219fe4b4744be721da3d8160a2e59ee31e8b2bd5a00b2f8b9")


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_decycle_bounds_and_maximality(g):
    res = decycle_heuristic(g)
    check_result(g, res, forest=True)
    assert len(res.removed) >= g.n - len(exact_max_forest(g).kept)
    for members in components(g).members():
        lost = len(set(members) & set(res.removed))
        assert lost <= excess(induced_subgraph(g, members)[0])
    for v in res.removed:  # no removal comes back without closing a cycle
        assert excess(induced_subgraph(g, res.kept + (v,))[0]) > 0


@settings(max_examples=300, deadline=None)
@given(elimination_graphs, st.floats(0.0, 1.0), st.randoms(), st.integers(1, 5))
def test_region_runs_match_the_induced_subgraph(g, keep, rng, target):
    # relabelling onto the induced subgraph keeps id order and degrees, so a
    # run on a region of g is the run on G[S], mapped back
    s = [v for v in range(g.n) if rng.random() < keep]
    inside = _vertex_mask(g, s)
    alive = bytearray(inside)
    deg = [sum(alive[u] for u in a) if alive[v] else 0 for v, a in enumerate(g.adj)]
    assert _region_degrees(g, inside).tolist() == deg
    sub, _ = induced_subgraph(g, s)
    whole = np.flatnonzero(_decycled_forest(sub, np.ones(sub.n, dtype=bool))).tolist()
    assert np.flatnonzero(_decycled_forest(g, inside)).tolist() == [s[i] for i in whole]
    whole = trim_components(sub, range(sub.n), target)
    assert trim_components(g, s, target).kept == tuple(s[i] for i in whole.kept)


@settings(max_examples=300, deadline=None)
@given(elimination_graphs, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.randoms())
def test_seeded_add_back_matches_the_edgeless_reference(g, keep, grow, rng):
    # a random induced forest of a random region seeds the union-find; the
    # reference builds the same trees by adding the forest's vertices first.
    # The rule reads only whether the roots repeat, never which vertex is
    # a root, and lets a forest vertex join.
    acyclic = lambda roots: len(set(roots)) == len(roots)
    region = [v for v in range(g.n) if rng.random() < keep]
    rng.shuffle(region)
    present = bytearray(g.n)
    candidates = [v for v in region if rng.random() < grow]
    add_back_from_edgeless(g, present, candidates, acyclic)
    seeds = [v for v in range(g.n) if present[v]]
    order = [v for v in region if not present[v]]
    ref_present = bytearray(g.n)
    expected = add_back_from_edgeless(g, ref_present, seeds + order, acyclic)
    assert all(expected[v] for v in seeds)
    for v in seeds:
        expected[v] = 0
    assert _add_back(g, present, order) == expected
    assert present == ref_present


def test_decycling_adds_back_only_the_core_removals(monkeypatch):
    # the 2-core survivors seed the union-find from a components pass, so
    # only the elimination's removals go through the Python loop
    calls = []

    def spy(g, present, order):
        order = list(order)
        calls.append((bytes(present), order))
        return _add_back(g, present, order)

    monkeypatch.setattr(fragmenters, "_add_back", spy)
    g = gnp(2000, 3.0, seed=21)
    rng = random.Random(21)
    for region in (range(g.n), [v for v in range(g.n) if rng.random() < 0.7]):
        calls.clear()
        inside = _vertex_mask(g, region)
        alive = bytearray(inside)
        removed = _empty_core(g.adj, alive, _region_degrees(g, inside).tolist())
        forest = _decycled_forest(g, inside)
        [(present, order)] = calls
        assert removed and order == removed[::-1]
        assert present == bytes(alive)  # every survivor seeded, none in the order
        assert forest[np.frombuffer(alive, dtype=bool)].all()


# ---------------------------------------------------------------------------
# pipeline_fragment
# ---------------------------------------------------------------------------


def test_pipeline_small_forest_components_untouched():
    edges = [(0, 1), (1, 2), (3, 4)]
    g = Graph(6, edges)
    res = pipeline_fragment(g, range(6), 0.5)  # cap 6, all comps tiny forests
    assert res.kept == tuple(range(6))


def test_pipeline_two_five_cycles():
    g = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8), (8, 9), (9, 5)],
    )
    res = pipeline_fragment(g, range(10), 0.5)
    assert len(res.removed) == 2  # one decycling removal per five-cycle
    check_result(g, res, cap=6)


def test_pipeline_respects_subset():
    g = gnp(300, 2.0, seed=4)
    s = greedy_fragment(g, 40).kept
    res = pipeline_fragment(g, s, 0.5)
    assert set(res.kept) <= set(s)
    check_result(g, res, cap=6)


def test_pipeline_eps_validation():
    with pytest.raises(ValueError):
        pipeline_fragment(c5(), range(5), 0.0)
    with pytest.raises(ValueError):
        pipeline_fragment(c5(), range(5), 1.0)


def test_pipeline_budget_certified_when_density_passes():
    rng = random.Random(904)
    for trial in range(8):
        n = 1500
        g = gnp(n, 2.0, seed=900 + trial)
        s = greedy_fragment(g, 30).kept
        eps = rng.choice([0.4, 0.5, 0.7])
        res = pipeline_fragment(g, s, eps)  # raises PipelineBudgetError on violation
        check_result(g, res, cap=component_cap(eps))
        if components_pass_density(g, s, eps):
            assert len(s) - len(res.kept) <= eps * n + 1e-9


def test_pipeline_budget_error_is_exposed():
    assert issubclass(PipelineBudgetError, RuntimeError)


def test_pipeline_over_budget_raises(monkeypatch):
    # a decycling that drops all of S removes more than eps * n from a
    # forest, which passes the density check
    monkeypatch.setattr(fragmenters, "_decycled_forest",
                        lambda g, inside: np.zeros(g.n, dtype=bool))
    with pytest.raises(PipelineBudgetError, match="over budget"):
        pipeline_fragment(path(20), range(20), 0.5)


def test_pipeline_density_pass_runs_only_over_budget(monkeypatch):
    def unexpected(g, s, eps):
        raise AssertionError("density pass on an in-budget call")

    monkeypatch.setattr(fragmenters, "components_pass_density", unexpected)
    g = gnp(300, 2.0, seed=4)
    check_result(g, pipeline_fragment(g, greedy_fragment(g, 40).kept, 0.5), cap=6)


# ---------------------------------------------------------------------------
# trim_components
# ---------------------------------------------------------------------------


def test_trim_noop_when_small():
    g = gnp(60, 1.0, seed=5)
    s = greedy_fragment(g, 4).kept
    res = trim_components(g, s, 4)
    assert res.kept == s


def test_trim_exact_removal_count():
    g = path(10)  # one component of size 10
    res = trim_components(g, range(10), 4)
    assert len(res.removed) == 6
    check_result(g, res, cap=4)
    # path 1-2-3-0: once 2 goes, 0 and 3 both have degree 1 and 0 goes first
    g = Graph(4, [(0, 3), (1, 2), (2, 3)])
    assert trim_components(g, range(4), 1).removed == (0, 1, 2)


def test_trim_counting_identity():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(80, rng.randint(40, 140), rng)
        s = tuple(v for v in range(80) if rng.random() < 0.8)
        target = rng.choice([2, 3, 5, 8])
        sub, _ = induced_subgraph(g, s)
        expected = sum(
            size - target for size in components(sub).sizes if size > target
        )
        res = trim_components(g, s, target)
        assert len(s) - len(res.kept) == expected
        check_result(g, res, cap=target)


@pytest.mark.parametrize("run", [
    lambda g, k: fragment_forest(path(10), k),
    greedy_fragment,
    lambda g, k: trim_components(g, range(g.n), k),
    lambda g, k: strip_short_cycles(g, range(g.n), k),
], ids=["fragment_forest", "greedy_fragment", "trim_components", "strip_short_cycles"])
def test_nan_cap_is_refused(run):
    # NaN fails every comparison, so a check written as ``k < 1`` or
    # ``largest > k`` lets it through and the witness ignores the cap
    g = gnp(200, 3.0, 1)
    with pytest.raises(ValueError, match="must be >= 1|exceeds the cap"):
        run(g, math.nan)
    res = run(g, math.inf)  # no cap at all
    if res.method == "strip":
        check_result(g, res, forest=True)
    else:
        assert res.removed == ()


def test_trim_validation():
    with pytest.raises(ValueError):
        trim_components(c5(), range(5), 0)


def trim_reference(g, s, target):
    """Removed vertices of ``s``, sorted: each component of ``G[S]`` loses its
    vertex of highest degree among those left, smallest id on ties,
    recomputed from scratch at every step, until ``target`` are left."""
    alive = set(s)
    removed = []
    seen = set()
    for root in sorted(alive):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for u in g.adj[stack.pop()]:
                if u in alive and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        for _ in range(len(comp) - target):
            v = max(comp, key=lambda v: (sum(u in comp for u in g.adj[v]), -v))
            comp.discard(v)
            removed.append(v)
    return sorted(removed)


def trim_removals(g, s, target):
    return sorted(set(s) - set(trim_components(g, s, target).kept))


def test_trim_matches_reference():
    rng = random.Random(717)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.randint(0, 2 * n), rng)
        s = [v for v in range(n) if rng.random() < 0.8]
        target = rng.randint(1, 5)
        assert trim_removals(g, s, target) == trim_reference(g, s, target)
    for seed, (n, d) in enumerate([(20, 3), (30, 4)]):
        g = random_regular(n, d, seed=seed)
        for target in range(1, 6):
            assert trim_removals(g, range(n), target) == trim_reference(g, range(n), target)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_trim_matches_reference_on_small_graphs(g, data):
    s = data.draw(st.sets(st.integers(0, g.n - 1)))
    target = data.draw(st.integers(1, 5))
    assert trim_removals(g, s, target) == trim_reference(g, s, target)


# ---------------------------------------------------------------------------
# strip_short_cycles
# ---------------------------------------------------------------------------


def test_strip_forest_noop():
    t = random_tree(30, seed=7)
    res = strip_short_cycles(t, range(30), 30)
    assert res.kept == tuple(range(30))


def test_strip_c5_meets_bound_with_equality():
    res = strip_short_cycles(c5(), range(5), 5)
    assert len(res.removed) == 1 == count_short_cycles(c5(), 5)
    check_result(c5(), res, forest=True)


def test_strip_k4():
    res = strip_short_cycles(k4(), range(4), 4)
    assert len(res.removed) == 2 <= count_short_cycles(k4(), 4)
    check_result(k4(), res, forest=True)


def test_strip_rejects_oversized_component():
    with pytest.raises(ValueError, match="exceeds"):
        strip_short_cycles(c6(), range(6), 5)


def test_strip_bounded_by_short_cycle_count():
    rng = random.Random(73)
    for _ in range(15):
        g = random_graph(60, rng.randint(40, 100), rng)
        k = rng.choice([4, 6, 9])
        s = greedy_fragment(g, k).kept
        res = strip_short_cycles(g, s, k)
        sub, _ = induced_subgraph(g, s)
        assert len(s) - len(res.kept) <= count_short_cycles(sub, max(k, 3))
        check_result(g, res, forest=True)


# ---------------------------------------------------------------------------
# excess
# ---------------------------------------------------------------------------


def test_edge_decycling_examples():
    # edge deletions that leave a spanning forest
    assert excess(random_tree(20, seed=1)) == 0
    assert excess(c5()) == 1
    assert excess(k4()) == 3
    assert excess(Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4)])) == 1


# ---------------------------------------------------------------------------
# Cross-method dominance
# ---------------------------------------------------------------------------


def test_heuristics_never_beat_the_oracle():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(6, 13)
        g = random_graph(n, rng.randint(n // 2, 2 * n), rng)
        exact_forest = len(exact_max_forest(g).kept)
        assert len(decycle_heuristic(g).kept) <= exact_forest
        for k in (1, 2, 3):
            best = len(exact_max_induced(g, k).kept)
            assert len(greedy_fragment(g, k).kept) <= best
            assert len(trim_components(g, range(n), k).kept) <= best
        best4 = len(exact_max_induced(g, 4).kept)
        assert len(pipeline_fragment(g, range(n), 0.9).kept) <= best4  # cap 4


def test_forest_witness_chain():
    # fragmenting the exact forest witness stays below the exact cap oracle
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randint(6, 12)
        g = random_graph(n, rng.randint(n // 2, 2 * n), rng)
        witness = exact_max_forest(g).kept
        sub, idx = induced_subgraph(g, witness)
        for k in (1, 2, 3):
            kept = len(fragment_forest(sub, k).kept)
            assert kept <= len(exact_max_induced(g, k).kept)


def test_empty_and_single_vertex_graphs():
    empty = Graph(0, [])
    single = Graph(1, [])
    for g in (empty, single):
        assert greedy_fragment(g, 1).removed == ()
        assert decycle_heuristic(g).removed == ()
        assert fragment_forest(g, 1).removed == ()
        assert trim_components(g, range(g.n), 1).removed == ()
