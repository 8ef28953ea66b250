import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismantle import (
    PipelineBudgetError,
    build_graph,
    component_cap,
    components,
    components_pass_density,
    count_short_cycles,
    decycle_heuristic,
    edge_decycling_count,
    exact_max_forest,
    exact_max_induced,
    excess,
    fragment_forest,
    gnp,
    greedy_fragment,
    induced_subgraph,
    max_component_size,
    path,
    pipeline_fragment,
    random_regular,
    random_tree,
    strip_short_cycles,
    trim_components,
)


def c5():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def c6():
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def k4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def random_graph(n, m, rng):
    m = min(m, n * (n - 1) // 2)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


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
    star = build_graph(6, [(0, i) for i in range(1, 6)])
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
    return build_graph(n, edges)


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
    f = build_graph(14, edges)
    res = fragment_forest(f, 2)
    check_result(f, res, cap=2)
    assert len(res.removed) <= 14 // 3


def test_max_component_size_matches_induced_components():
    rng = random.Random(31)
    g = gnp(300, 2.0, seed=31)
    for _ in range(20):
        kept = rng.sample(range(g.n), rng.randint(0, g.n))
        assert max_component_size(g, kept) == components(induced_subgraph(g, kept)[0]).largest


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


def test_greedy_cap_at_least_n_is_noop():
    for g in (gnp(100, 2.0, seed=8), c6(), k4()):
        for cap in (g.n, g.n + 1, 10 * g.n):
            res = greedy_fragment(g, cap)
            assert res.removed == () and res.cut_sizes == ()
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
        g = build_graph(n, [])
        for cap in (1, 3):
            res = greedy_fragment(g, cap)
            assert res.removed == () and res.cut_sizes == ()
            assert res.kept == tuple(range(n))


def test_greedy_star_removes_centre():
    star = build_graph(7, [(4, i) for i in range(7) if i != 4])
    for cap in range(1, 7):
        res = greedy_fragment(star, cap)
        assert res.removed == (4,) and res.cut_sizes == (7,)
        assert res.max_component == 1
    assert greedy_fragment(star, 7).removed == ()


def test_greedy_complete_graph_cut_sizes():
    # n = 2 is a single edge: vertex 0 goes, with cut size 2
    for n in (2, 3, 6):
        kn = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        res = greedy_fragment(kn, 1)
        assert res.removed == tuple(range(n - 1)) and res.kept == (n - 1,)
        assert res.cut_sizes == tuple(range(n, 1, -1))


def test_greedy_ties_go_to_smallest_id():
    # every vertex of a cycle ties on degree: 0 goes first (cut 6), then
    # 2 from the path 1..5 (cut 5), then 4 from the path 3-4-5 (cut 3)
    res = greedy_fragment(c6(), 1)
    assert res.removed == (0, 2, 4) and res.cut_sizes == (6, 5, 3)
    # 3x3 grid, id 3*row + col: the centre goes first, then the 8-cycle
    # around it is cut from its smallest ids down
    grid = build_graph(9, [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
                       + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)])
    res = greedy_fragment(grid, 1)
    assert res.removed == (0, 2, 4, 6, 8) and res.cut_sizes == (8, 7, 9, 5, 3)
    # 4x4 torus: every vertex ties on degree 4
    torus = build_graph(16, sorted({tuple(sorted((4 * r + c, 4 * r + (c + 1) % 4)))
                                    for r in range(4) for c in range(4)}
                                   | {tuple(sorted((4 * r + c, 4 * ((r + 1) % 4) + c)))
                                      for r in range(4) for c in range(4)}))
    run = greedy_fragment(torus, 1)
    assert run.removed[0] == 0 and run.cut_sizes[0] == 16
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
    return build_graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sets(st.integers(1, 16), min_size=1, max_size=5))
def test_greedy_cut_sizes_give_every_larger_cap(g, caps):
    run = greedy_fragment(g, min(caps))
    for cap in caps:
        above = [v for v, size in zip(run.removed, run.cut_sizes) if size > cap]
        assert above == greedy_reference(g, cap)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_greedy_cut_sizes_are_exact(g):
    run = greedy_fragment(g, 1)
    for v, size in zip(run.removed, run.cut_sizes):
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
            assert len(run.cut_sizes) == len(run.removed)
            for v, size in zip(run.removed, run.cut_sizes):
                assert low < size <= comps.sizes[comps.labels[v]]
        caps = [1, 2, 3, 5, 8, 13, 40, g.n]
        sets = [set(greedy_fragment(g, cap).removed) for cap in caps]
        for small, large in zip(sets, sets[1:]):
            assert large <= small
        nus = [greedy_fragment(g, cap).nu for cap in caps]
        assert nus == sorted(nus)


def test_cut_sizes_empty_outside_greedy():
    g = gnp(60, 2.0, seed=21)
    tiny = gnp(12, 2.5, seed=22)
    forest, _ = induced_subgraph(g, decycle_heuristic(g).kept)
    results = [
        fragment_forest(forest, 3),
        decycle_heuristic(g),
        pipeline_fragment(g, range(g.n), 0.5),
        trim_components(g, range(g.n), 3),
        strip_short_cycles(g, greedy_fragment(g, 4).kept, 4),
        exact_max_induced(tiny, 2),
        exact_max_forest(tiny),
    ]
    for res in results:
        assert res.removed, res.method
        assert res.cut_sizes == (), res.method


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
        v = max(core, key=lambda v: (sum(alive[u] for u in g.adj[v]), -v))
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
    degree and is removed first, yet lies in the 2-core on no cycle and
    has to come back in the add-back pass.
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
    return build_graph(n + 3, edges)


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
    yield build_graph(12, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6),
                           (4, 7), (4, 8), (8, 9), (8, 10), (8, 11), (9, 10),
                           (9, 11), (10, 11)])
    # cycles hanging off both ends of a path, each with a pendant tree
    yield build_graph(13, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6),
                           (6, 7), (7, 8), (8, 6), (8, 9), (0, 10), (10, 11),
                           (10, 12)])


def test_decycle_matches_reference():
    for g in decycle_cases():
        assert sorted(decycle_heuristic(g).removed) == decycle_reference(g)


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


# ---------------------------------------------------------------------------
# pipeline_fragment
# ---------------------------------------------------------------------------


def test_pipeline_small_forest_components_untouched():
    edges = [(0, 1), (1, 2), (3, 4)]
    g = build_graph(6, edges)
    res = pipeline_fragment(g, range(6), 0.5)  # cap 6, all comps tiny forests
    assert res.kept == tuple(range(6))


def test_pipeline_two_five_cycles():
    g = build_graph(
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
    g = build_graph(4, [(0, 3), (1, 2), (2, 3)])
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


def test_trim_validation():
    with pytest.raises(ValueError):
        trim_components(c5(), range(5), 0)


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
# edge_decycling_count
# ---------------------------------------------------------------------------


def test_edge_decycling_examples():
    assert edge_decycling_count(random_tree(20, seed=1)) == 0
    assert edge_decycling_count(c5()) == 1
    assert edge_decycling_count(k4()) == 3
    g = build_graph(8, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert edge_decycling_count(g) == 1
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(30, rng.randint(0, 60), rng)
        assert edge_decycling_count(g) == excess(g)


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
    empty = build_graph(0, [])
    single = build_graph(1, [])
    for g in (empty, single):
        assert greedy_fragment(g, 1).removed == ()
        assert decycle_heuristic(g).removed == ()
        assert fragment_forest(g, 1).removed == ()
        assert trim_components(g, range(g.n), 1).removed == ()
