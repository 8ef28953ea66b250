import math
import random
import tracemalloc
from contextlib import nullcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dismantle import (
    EnumerationBudgetError,
    admissible_delta,
    chernoff_upper_tail,
    components,
    components_pass_density,
    connected_vertex_sets,
    delta_sweep,
    dense_set_probability_bound,
    density_scan,
    giant_component_fraction,
    giant_fraction_limit,
    gnp,
    Graph,
    induced_subgraph,
    random_regular,
    random_tree,
)
from dismantle.analysis import _short_cycle_mask
from oracles import k4, random_graph


# ---------------------------------------------------------------------------
# giant_fraction_limit
# ---------------------------------------------------------------------------


def test_limit_zero_at_criticality():
    assert giant_fraction_limit(1.0) == 0.0
    assert giant_fraction_limit(0.5) == 0.0


def test_limit_value_at_two():
    assert abs(giant_fraction_limit(2.0) - 0.7968121) <= 1e-6


def test_limit_self_consistency():
    for c in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        rho = giant_fraction_limit(c)
        assert abs(rho - (1.0 - math.exp(-c * rho))) <= 1e-10
    rho10 = giant_fraction_limit(10.0)
    assert abs(rho10 - (1.0 - math.exp(-10.0 * rho10))) <= 1e-4


@pytest.mark.parametrize("c, root, rel", [
    (1 + 1e-9, 2.0000001628140751e-09, 1e-6),
    (1.01, 0.019736410439591772, 1e-12),
    (2.0, 0.79681213002002005, 1e-12),
    (10.0, 0.99995457944465349, 1e-12),
])
def test_limit_matches_the_exact_root(c, root, rel):
    # root = 1 + W(-c exp(-c)) / c, evaluated at 50 digits; the relative
    # error of the bisection grows like 1e-16 / (c - 1) near criticality
    assert giant_fraction_limit(c) == pytest.approx(root, rel=rel)


def test_limit_strictly_increasing():
    grid = [1.1, 1.5, 2.0, 3.0, 5.0, 10.0]
    values = [giant_fraction_limit(c) for c in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_rejects_nonpositive():
    with pytest.raises(ValueError):
        giant_fraction_limit(0.0)
    with pytest.raises(ValueError):
        giant_fraction_limit(-2.0)
    with pytest.raises(ValueError, match="nan"):
        giant_fraction_limit(math.nan)


# ---------------------------------------------------------------------------
# chernoff_upper_tail
# ---------------------------------------------------------------------------


def test_chernoff_closed_form_point():
    assert abs(chernoff_upper_tail(1.0, math.e) - math.exp(-1.0)) <= 1e-12


def test_chernoff_approaches_one_at_boundary():
    assert chernoff_upper_tail(1.0, 1.0 + 1e-9) > 0.999999


def test_chernoff_decreasing_in_threshold():
    values = [chernoff_upper_tail(1.0, x) for x in (1.5, 2.0, 3.0, 5.0, 9.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chernoff_rejects_vacuous_region():
    with pytest.raises(ValueError):
        chernoff_upper_tail(1.0, 1.0)
    with pytest.raises(ValueError):
        chernoff_upper_tail(0.0, 1.0)
    with pytest.raises(ValueError, match="mean must be positive"):
        chernoff_upper_tail(math.nan, 3.0)
    with pytest.raises(ValueError, match="must exceed the mean"):
        chernoff_upper_tail(1.0, math.nan)


def exact_binomial_upper_tail(n, p, x):
    """P(X >= x) by direct term summation (reference)."""
    term = (1.0 - p) ** n  # P(X = 0)
    total = term if 0 >= x else 0.0
    for j in range(n):
        term *= (n - j) / (j + 1) * p / (1.0 - p)
        if j + 1 >= x:
            total += term
        if term < 1e-300 and j + 1 > x:
            break
    return total


def test_chernoff_dominates_exact_binomial_tail():
    # concrete family with mean 1
    n, p = 10_000, 1e-4
    for x in (2, 3, 4):
        exact = exact_binomial_upper_tail(n, p, x)
        assert chernoff_upper_tail(1.0, float(x)) >= exact > 0


# ---------------------------------------------------------------------------
# dense_set_probability_bound
# ---------------------------------------------------------------------------


def test_single_vertex_spans_no_edges():
    tb = dense_set_probability_bound(1, 10**6, 2.0, 0.3)
    assert tb.bound == 0.0 and tb.mean == 0.0


def test_bound_is_finite_in_log_space_and_clamped():
    tb = dense_set_probability_bound(1000, 10**6, 2.0, 0.3)
    assert math.isfinite(tb.log_bound)
    assert 0.0 <= tb.bound <= 1.0
    # the raw union bound is astronomically above 1 here; the clamp caps it
    assert tb.log_bound > 0 and tb.bound == 1.0


@pytest.mark.parametrize("t, n", [
    (2, 10**9), (100, 10**16), (3000, 30_092_046_279_294_677), (3000, 3 * 10**17),
])
def test_bound_is_the_exponential_of_its_logarithm(t, n):
    # below 1 the bound is exp(log_bound): the smallest subnormal at
    # log_bound = -745.06 (the third case), and 0.0 once exp underflows
    tb = dense_set_probability_bound(t, n, 2.0, 0.3)
    assert tb.log_bound < 0 and tb.bound == math.exp(tb.log_bound)
    assert (tb.bound == 0.0) == (tb.log_bound < -745.2)


def test_log_bound_monotone_in_t():
    values = [
        dense_set_probability_bound(t, 10**6, 2.0, 0.3).log_bound
        for t in (2, 10, 100, 1000)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_side_condition_rejected():
    # c > 2(1+eps/4) makes the ratio threshold/mean dip below 1 at large t
    with pytest.raises(ValueError, match="side condition"):
        dense_set_probability_bound(50, 100, 10.0, 0.2)


def test_parameter_validation():
    with pytest.raises(ValueError):
        dense_set_probability_bound(0, 10, 2.0, 0.3)
    with pytest.raises(ValueError):
        dense_set_probability_bound(11, 10, 2.0, 0.3)
    with pytest.raises(ValueError):
        dense_set_probability_bound(2, 10, 0.9, 0.3)
    with pytest.raises(ValueError):
        dense_set_probability_bound(2, 10, 2.0, 1.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match=str(c)):
            dense_set_probability_bound(2, 10, c, 0.3)


# ---------------------------------------------------------------------------
# admissible_delta
# ---------------------------------------------------------------------------


def test_delta_postconditions():
    for c, eps in [(2.0, 0.3), (2.0, 0.5), (1.5, 0.4), (3.0, 0.8)]:
        d = admissible_delta(c, eps)
        assert 0.0 < d < eps / 3.0
        assert d < 2.0 / c


def test_delta_at_reference_point():
    d = admissible_delta(2.0, 0.3)
    assert 0.0 < d < 0.1
    # exponent inequality verified numerically at tau = 1/delta
    log_tau = -math.log(d)
    a = log_tau - 1.0 - math.log(2.0)
    assert a > 0
    assert (1.0 + log_tau) - (1.0 + 0.3 / 4.0) * a <= -0.3 * log_tau / 8.0


def test_delta_monotone_in_eps():
    values = [admissible_delta(2.0, eps) for eps in (0.2, 0.3, 0.5, 0.8)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_delta_sweep_structure():
    rows = delta_sweep(2.0, 0.5)
    assert rows[-1].admissible and not any(r.admissible for r in rows[:-1])
    deltas = [r.delta for r in rows]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_delta_validation():
    with pytest.raises(ValueError):
        admissible_delta(1.0, 0.3)
    with pytest.raises(ValueError):
        admissible_delta(2.0, 0.0)
    # NaN fails every comparison: a bare c <= 1 check lets it into the sweep
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match=str(c)):
            delta_sweep(c, 0.5)


def test_delta_underflow_boundary():
    # at c = 2 delta is subnormal but positive at eps = 0.03 and
    # underflows to zero between eps = 0.0291 and 0.029
    assert 0.0 < admissible_delta(2.0, 0.03) < 1e-300
    with pytest.raises(ValueError, match="underflows"):
        admissible_delta(2.0, 0.029)
    # far below, the sweep stops at the first candidate that underflows,
    # about 1,075 halvings down, instead of running on
    for eps in (1e-4, 1e-300):
        with pytest.raises(ValueError, match="underflows"):
            delta_sweep(2.0, eps)


def test_simplified_exponent_dominates_below_delta_n():
    # pick n so that delta*n = 10 and sweep every admissible set size
    c, eps = 2.0, 0.5
    d = admissible_delta(c, eps)
    n = int(10.0 / d)
    for t in range(2, 11):
        tb = dense_set_probability_bound(t, n, c, eps)
        assert tb.simplified_exponent is not None
        assert tb.log_bound <= tb.simplified_exponent <= 0.0


# ---------------------------------------------------------------------------
# density_scan and connected-set enumeration
# ---------------------------------------------------------------------------


def brute_connected_sets(g, t_max):
    out = set()
    for size in range(1, t_max + 1):
        for sub in combinations(range(g.n), size):
            member = set(sub)
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for u in g.adj[v]:
                    if u in member and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == member:
                out.add(sub)
    return out


def test_enumeration_matches_brute_force():
    rng = random.Random(17)
    for _ in range(12):
        g = random_graph(9, rng.randint(0, 16), rng)
        t_max = rng.choice([2, 3, 5, 9])
        got = {verts for verts, _ in connected_vertex_sets(g, t_max)}
        assert got == brute_connected_sets(g, t_max)


def test_enumeration_edge_counts():
    g = k4()
    for verts, edge_count in connected_vertex_sets(g, 4):
        sub, _ = induced_subgraph(g, verts)
        assert sub.m == edge_count


@st.composite
def graphs_and_caps(draw):
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    return g, draw(st.integers(1, n + 1))


def component_of(g, v):
    seen = {v}
    stack = [v]
    while stack:
        for u in g.adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


@settings(max_examples=150, deadline=None)
@given(graphs_and_caps())
def test_enumeration_property(case):
    g, t_max = case
    got = list(connected_vertex_sets(g, t_max))
    sets = [verts for verts, _ in got]
    assert len(set(sets)) == len(sets)  # no set is yielded twice
    assert set(sets) == brute_connected_sets(g, t_max)
    for verts, edge_count in got:
        assert edge_count == induced_subgraph(g, verts)[0].m
    # density_scan counts exactly the sets in components of excess >= 2
    # that hold a marked vertex
    dense = dense_component_vertices(g)
    marked = reference_short_cycle_mask(g, t_max)
    expected = sum(s[0] in dense and any(marked[v] for v in s) for s in sets)
    assert density_scan(g, t_max, 0.5).sets_examined == expected


def dense_component_vertices(g):
    """The vertices of the components of excess >= 2, the only ones that can hold a violator."""
    dense, seen = set(), set()
    for v in range(g.n):
        if v not in seen:
            comp = component_of(g, v)
            seen |= comp
            if induced_subgraph(g, comp)[0].m > len(comp):
                dense |= comp
    return dense


def reference_short_cycle_mask(g, t_max):
    """The marking by its definition: a start in a component of excess >= 2
    is marked when two of its non-backtracking walks of at most
    ``ceil(t_max / 2)`` steps end at the same vertex.

    Each new end is compared with every earlier end of the start, of any
    round, and the walks of a start stop at its first meeting.
    """
    marked = [False] * g.n
    for s in dense_component_vertices(g):
        ends = {s}
        walks = [(None, s)]  # (previous vertex, end)
        for _ in range((t_max + 1) // 2):
            walks = [(w, u) for p, w in walks for u in g.adj[w] if u != p]
            for _, u in walks:
                if u in ends:
                    marked[s] = True
                ends.add(u)
            if marked[s]:
                break
    return marked


def reference_connected_sets(adj, roots, t_max, marked=None):
    """The one-set-at-a-time walk, with no sets counted in closed form.

    Yields each connected set of at most ``t_max`` vertices whose smallest
    marked vertex is a root, as a scratch list with its induced edge
    count. With ``marked`` left out every vertex is marked.
    """
    inside = [0] * len(adj)
    s_list = []
    for root in roots:
        stack = [([root], 0)]
        while stack:
            ext, e_count = stack[-1]
            if not ext:
                stack.pop()
                if s_list:
                    for u in adj[s_list.pop()]:
                        inside[u] -= 1
                continue
            w = ext.pop()
            e2 = e_count + inside[w]
            s_list.append(w)
            yield s_list, e2
            if len(s_list) == t_max:
                s_list.pop()
                continue
            new_ext = ext.copy()
            for u in adj[w]:
                if (u > root or (marked is not None and not marked[u])) and not inside[u]:
                    new_ext.append(u)
                inside[u] += 1
            stack.append((new_ext, e2))


def is_violator(e_count, size, eps):
    return e_count > (1.0 + eps / 3.0) * size + 1e-12


def reference_scan(g, t_max, eps, budget):
    """``(violations, sets_examined)`` of a scan over every set of the reference
    walk rooted at the reference marking, the violations sorted."""
    marked = reference_short_cycle_mask(g, t_max)
    roots = [v for v in range(g.n) if marked[v]]
    violations, examined = [], 0
    for s_list, e_count in reference_connected_sets(g.adj, roots, t_max, marked):
        examined += 1
        if examined > budget:
            raise EnumerationBudgetError(f"examined more than {budget} connected sets")
        if is_violator(e_count, len(s_list), eps):
            violations.append((tuple(sorted(s_list)), e_count))
    return tuple(sorted(violations)), examined


def unrooted_scan(g, t_max, eps, budget):
    """``(violations, sets)`` of the full walk over the components of excess
    >= 2: every violator, sorted, and the number of sets that hold a vertex
    of the reference marking. More than ``budget`` sets walked raises."""
    marked = reference_short_cycle_mask(g, t_max)
    dense = sorted(dense_component_vertices(g))
    violations, walked, counted = [], 0, 0
    for s_list, e_count in reference_connected_sets(g.adj, dense, t_max):
        walked += 1
        if walked > budget:
            raise EnumerationBudgetError(f"walked more than {budget} connected sets")
        counted += any(marked[v] for v in s_list)
        if is_violator(e_count, len(s_list), eps):
            violations.append((tuple(sorted(s_list)), e_count))
    return tuple(sorted(violations)), counted


@st.composite
def graphs_of_any_density(draw):
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    cut = draw(st.integers(0, 4))  # 0: no edges ... 4: complete
    g = Graph(n, [e for e, w in zip(pairs, weights) if w < cut])
    return g, draw(st.integers(1, n + 1)), draw(st.sampled_from([0.0, 0.48, 0.5, 2.0, 3.8]))


@settings(max_examples=300, deadline=None)
@given(graphs_of_any_density(), st.data())
def test_scan_matches_reference_walk(case, data):
    g, t_max, eps = case
    expected = [(tuple(sorted(s)), e)
                for s, e in reference_connected_sets(g.adj, range(g.n), t_max)]
    assert list(connected_vertex_sets(g, t_max)) == expected
    violations, examined = reference_scan(g, t_max, eps, math.inf)
    rep = density_scan(g, t_max, eps)
    assert rep.violations == violations
    assert rep.sets_examined == examined
    # the rooted walk misses no violator and meets each marked set once
    assert unrooted_scan(g, t_max, eps, math.inf) == (violations, examined)
    budget = data.draw(st.integers(0, examined + 1))
    for b in {budget, examined, max(examined - 1, 0)}:
        with pytest.raises(EnumerationBudgetError) if examined > b else nullcontext():
            assert density_scan(g, t_max, eps, budget=b) == rep


def test_scan_bounds_the_level_below_a_leaf_on_its_own():
    # K8 with a pendant at every vertex, t_max 17, eps 3.72: the whole graph
    # spans 36 > 35.84 edges, but each 15-vertex leaf below it has one
    # candidate, a pendant, so no 17-set bound (e + 2*1 + 1 <= 38.08) fires
    g = Graph(16, list(combinations(range(8), 2)) + [(v, v + 8) for v in range(8)])
    rep = density_scan(g, 17, 3.72)
    assert (tuple(range(16)), 36) in rep.violations
    assert (rep.violations, rep.sets_examined) == reference_scan(g, 17, 3.72, math.inf)


def test_scan_pinned_at_scale():
    # each count was checked once against reference_scan
    rep = density_scan(gnp(3000, 3.0, seed=1), 6, 0.3)
    assert rep.sets_examined == 1_231_251
    assert rep.violations == (((650, 817, 859, 952, 1865, 2103), 7),)
    rep = density_scan(gnp(20_000, 2.0, seed=1), 6, 0.5)
    assert rep.sets_examined == 39_710
    assert rep.violations == ()


def test_scan_pinned_at_odd_and_even_larger_caps():
    # the marking runs four rounds at t_max 7 and 8; both counts were
    # checked once against reference_scan
    rep = density_scan(random_regular(3000, 3, 1), 7, 0.5)
    assert (rep.sets_examined, rep.violations) == (186_216, ())
    rep = density_scan(gnp(2000, 2.0, 5), 8, 0.5)
    assert (rep.sets_examined, rep.violations) == (1_583_867, ())


@st.composite
def sparse_graphs_with_short_cycles(draw):
    n = draw(st.integers(30, 150))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        g = random_regular(n - n % 2, 3, seed)
    else:
        g = gnp(n, draw(st.floats(1.5, 4.0)), seed)
    return g, draw(st.integers(4, 8)), draw(st.sampled_from([0.0, 0.3, 0.5, 2.0]))


@settings(max_examples=100, deadline=None)
@given(sparse_graphs_with_short_cycles())
def test_scan_matches_reference_walk_on_sparse_graphs(case):
    # the two-level count and its fallback to the walk both run here;
    # the budget bounds the reference walks on the denser draws
    g, t_max, eps = case
    budget = 20_000
    try:
        expected = reference_scan(g, t_max, eps, budget)
    except EnumerationBudgetError:
        with pytest.raises(EnumerationBudgetError):
            density_scan(g, t_max, eps, budget=budget)
        return
    rep = density_scan(g, t_max, eps, budget=budget)
    assert (rep.violations, rep.sets_examined) == expected
    try:
        full = unrooted_scan(g, t_max, eps, budget)
    except EnumerationBudgetError:
        return  # the full walk is too long to compare here
    assert full == expected


def shortest_cycle_through(g, v):
    """Vertices on a shortest cycle through ``v``, or ``math.inf``: one more
    than a shortest path to ``v`` from a neighbour ``u`` that avoids the
    edge ``(u, v)``."""
    best = math.inf
    for u in g.adj[v]:
        dist, queue = {u: 0}, [u]
        for x in queue:
            for y in g.adj[x]:
                if y not in dist and {x, y} != {u, v}:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        best = min(best, dist.get(v, math.inf) + 1)
    return best


def check_short_cycle_mask(g, t_max):
    starts = np.array(sorted(dense_component_vertices(g)), dtype=np.intp)
    mask = _short_cycle_mask(g, starts, t_max).tolist()
    assert mask == reference_short_cycle_mask(g, t_max)
    for v in starts.tolist():
        if shortest_cycle_through(g, v) <= t_max:
            assert mask[v]


@settings(max_examples=200, deadline=None)
@given(graphs_of_any_density())
# two 5-cycles through vertex 0: only walks of ceil(5/2) steps meet
@example((Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                    (0, 5), (5, 6), (6, 7), (7, 8), (0, 8)]), 5, 0.0))
def test_short_cycle_mask_matches_its_definition(case):
    g, t_max, _ = case
    check_short_cycle_mask(g, t_max)


@settings(max_examples=100, deadline=None)
@given(sparse_graphs_with_short_cycles())
def test_short_cycle_mask_matches_its_definition_on_sparse_graphs(case):
    g, t_max, _ = case
    check_short_cycle_mask(g, t_max)


def test_huge_size_cap_costs_nothing_extra():
    # a cap beyond the graph must act as t_max = n: nothing is sized by t_max
    tracemalloc.start()
    try:
        rep = density_scan(k4(), 10**7, 0.3)
        sets = list(connected_vertex_sets(k4(), 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    small = density_scan(k4(), 4, 0.3)
    assert (rep.violations, rep.sets_examined) == (small.violations, small.sets_examined)
    assert sets == list(connected_vertex_sets(k4(), 4))


def test_enumeration_validates_eagerly():
    with pytest.raises(ValueError):
        connected_vertex_sets(k4(), 0)  # raised at the call, before any iteration


def test_scan_forest_has_no_violations():
    t = random_tree(40, seed=3)
    rep = density_scan(t, 10, 0.1)
    assert rep.violations == ()
    assert rep.sets_examined == 0  # acyclic components are skipped wholesale


def test_scan_k4_flags_whole_graph():
    rep = density_scan(k4(), 4, 0.3)
    assert rep.violations == (((0, 1, 2, 3), 6),)
    assert rep.sets_examined > 0
    # K4 less an edge has excess 2, the least a component holding a violator has
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert density_scan(diamond, 4, 0.3).violations == (((0, 1, 2, 3), 5),)


def test_scan_whole_graph_violation_iff_total_density():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(4, 9)
        g = random_graph(n, rng.randint(n, 2 * n), rng)
        # keep the test on connected graphs
        if len({v for e in g.edges for v in e}) < n:
            continue
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        eps = rng.choice([0.1, 0.4, 0.9])
        rep = density_scan(g, n, eps)
        found_all = any(len(verts) == n for verts, _ in rep.violations)
        assert found_all == (g.m > (1 + eps / 3) * n)


def test_scan_matches_direct_check():
    rng = random.Random(29)
    for _ in range(10):
        g = random_graph(10, rng.randint(8, 20), rng)
        eps = rng.choice([0.1, 0.5, 1.0])
        rep = density_scan(g, 6, eps)
        expected = set()
        for verts in brute_connected_sets(g, 6):
            sub, _ = induced_subgraph(g, verts)
            if sub.m > (1 + eps / 3) * len(verts):
                expected.add(verts)
        assert {v for v, _ in rep.violations} == expected


def test_scan_deep_sets_need_no_recursion():
    # K4 plus a 1,000-vertex path from vertex 3: sets reach 1,004 vertices deep
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = Graph(1004, edges + [(v, v + 1) for v in range(3, 1003)])
    rep = density_scan(g, g.n, 0.5)
    assert len(rep.violations) == 8  # K4 plus the first 0..7 path vertices
    assert rep.violations[0] == ((0, 1, 2, 3), 6)
    assert rep.sets_examined == 383_265


def test_scan_extra_memory_is_linear():
    # the neighbour counts and candidate stacks need about 1.4 MiB
    g = gnp(20_000, 2.0, seed=1)
    tracemalloc.start()
    try:
        density_scan(g, 3, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_scan_budget_guard():
    g = gnp(100, 4.0, seed=2)
    with pytest.raises(EnumerationBudgetError):
        density_scan(g, 8, 0.5, budget=100)


def test_scan_validation():
    with pytest.raises(ValueError):
        density_scan(k4(), 0, 0.3)
    with pytest.raises(ValueError):
        density_scan(k4(), 3, -0.1)
    with pytest.raises(ValueError, match="nan"):
        density_scan(k4(), 3, math.nan)
    # NaN fails every comparison, so checks written as ``t_max < 1`` or
    # ``examined > budget`` let it through: unbounded set size, no budget
    with pytest.raises(ValueError, match="size cap must be >= 1, got nan"):
        density_scan(k4(), math.nan, 0.3)
    with pytest.raises(ValueError, match="size cap must be >= 1, got nan"):
        connected_vertex_sets(k4(), math.nan)
    with pytest.raises(ValueError, match="budget must be >= 0, got nan"):
        density_scan(k4(), 3, 0.3, budget=math.nan)
    # eps = inf is allowed: nothing is too dense, and every set is still counted
    rep = density_scan(k4(), 4, math.inf)
    assert (rep.violations, rep.sets_examined) == ((), density_scan(k4(), 4, 0.3).sets_examined)


def test_scan_refuses_a_fractional_size_cap():
    # a cap of 2.5 was never met by a set size, so every set of the graph
    # was walked and the 4-vertex set reported as a violation
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    for t_max in (2.5, math.inf):
        with pytest.raises(ValueError, match=f"size cap must be an integer, got {t_max}"):
            density_scan(g, t_max, 0.5)
        with pytest.raises(ValueError, match=f"size cap must be an integer, got {t_max}"):
            connected_vertex_sets(g, t_max)


def test_scan_sparse_random_graph_mostly_clean():
    clean = 0
    for seed in range(5):
        rep = density_scan(gnp(500, 2.0, seed=seed), 8, 0.6)
        clean += not rep.violations
    assert clean >= 4


# ---------------------------------------------------------------------------
# components_pass_density / giant fraction
# ---------------------------------------------------------------------------


def test_components_pass_density_cases():
    assert components_pass_density(random_tree(30, seed=1), range(30), 0.1)
    assert not components_pass_density(k4(), range(4), 0.3)
    # a five-cycle spans exactly its size in edges: passes for any eps > 0
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert components_pass_density(c5, range(5), 0.01)
    assert components_pass_density(k4(), range(4), math.inf)
    with pytest.raises(ValueError, match="nan"):
        components_pass_density(k4(), range(4), math.nan)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_components_pass_density_matches_the_decomposition(data):
    # the two bincounts over the roots agree with the sizes and induced
    # edge counts of ``components``, tested one component at a time
    n = data.draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)) if n else []
    g = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    s = data.draw(st.sets(vertex)) if n else set()
    eps = data.draw(st.sampled_from([0.0, 0.48, 0.5, 1.0, 3.0, math.inf]))
    comp = components(g, s)
    expected = all(e <= (1.0 + eps / 3.0) * size + 1e-12
                   for e, size in zip(comp.edge_counts(g), comp.sizes))
    assert components_pass_density(g, s, eps) is expected


def test_density_checks_agree_at_the_boundary():
    # 29 edges on 25 vertices at eps = 0.48: the limit (1 + eps/3) * 25 is
    # 29 exactly, but 28.999999999999996 in floats, so it is not exceeded.
    edges = [(v, v + 1) for v in range(24)] + [(0, 24), (0, 12), (3, 20), (6, 18), (9, 15)]
    g = Graph(25, edges)
    assert g.m == 29 and (1.0 + 0.48 / 3.0) * 25 < 29
    assert components_pass_density(g, range(25), 0.48)
    rep = density_scan(g, 25, 0.48)
    assert rep.violations == ()
    assert rep.sets_examined == 132_002


def test_giant_fraction_edgeless():
    g = Graph(50, [])
    assert giant_component_fraction(g) == 1 / 50
    assert giant_component_fraction(Graph(0)) == 0.0


def test_giant_fraction_subcritical_small():
    assert giant_component_fraction(gnp(30_000, 0.5, seed=4)) < 0.01


def test_giant_fraction_supercritical_near_limit():
    fr = giant_component_fraction(gnp(30_000, 2.0, seed=4))
    assert abs(fr - giant_fraction_limit(2.0)) < 0.02
