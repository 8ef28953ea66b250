import hashlib
import math
from statistics import fmean, stdev

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dismantle import (
    Graph,
    SamplingBudgetError,
    components,
    excess,
    gnp,
    path,
    random_regular,
    random_tree,
    rng_for,
)
from dismantle import generators

CHI2_DF15_P999 = 37.697  # critical value, chi-square with 15 dof at 0.001


def test_rng_for_validation():
    with pytest.raises(ValueError):
        rng_for(-1)
    with pytest.raises(ValueError):
        rng_for(2**64)
    with pytest.raises(ValueError):
        rng_for(0, stream=-1)


@pytest.mark.parametrize("make", [
    lambda: gnp(10, 0.0, seed=-1),
    lambda: gnp(1, 0.5, seed=2**64),
    lambda: random_tree(1, seed=-1),
    lambda: random_tree(1, seed=2**64),
    lambda: gnp(10, 0.0, seed=1, stream=-1),
])
def test_generators_check_the_seed_before_any_shortcut(make):
    # an edgeless gnp and a one-vertex tree draw nothing, yet a bad seed
    # or stream must be refused as it is everywhere else
    with pytest.raises(ValueError):
        make()


def test_rng_streams_independent_and_reproducible():
    a = rng_for(7, 0).integers(0, 1 << 30, size=8)
    b = rng_for(7, 0).integers(0, 1 << 30, size=8)
    c = rng_for(7, 1).integers(0, 1 << 30, size=8)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_gnp_zero_c_is_edgeless():
    assert gnp(100, 0.0, seed=3).m == 0


def test_gnp_full_c_is_complete():
    assert gnp(8, 8, seed=0).m == 28
    for n in (2, 3, 7, 60, 300):
        complete = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        for seed, stream in [(0, 0), (1, 3), (2**64 - 1, 9)]:
            assert gnp(n, n, seed, stream) == complete, (n, seed, stream)


def test_gnp_determinism():
    g1 = gnp(500, 2.0, seed=11, stream=4)
    g2 = gnp(500, 2.0, seed=11, stream=4)
    assert g1 == g2
    assert g1 != gnp(500, 2.0, seed=11, stream=5)


def test_gnp_rejects_bad_c():
    with pytest.raises(ValueError):
        gnp(10, -0.5, seed=0)
    with pytest.raises(ValueError):
        gnp(10, 11, seed=0)
    with pytest.raises(ValueError):
        gnp(0, 0, seed=0)
    with pytest.raises(ValueError, match="need n >= 1"):
        gnp(math.nan, 2.0, seed=1)


def test_gnp_mean_edges():
    # expected edge count c*(n-1)/2 = 999
    n, c, reps = 1000, 2.0, 100
    counts = [gnp(n, c, seed=1000 + r).m for r in range(reps)]
    mean = fmean(counts)
    expected = c * (n - 1) / 2
    assert abs(mean - expected) <= 0.05 * expected
    se = stdev(counts) / math.sqrt(reps)
    assert abs(mean - expected) <= 4 * se


def test_gnp_edges_valid():
    g = gnp(300, 3.0, seed=9)
    assert len(set(g.edges)) == g.m
    assert all(0 <= u < v < 300 for u, v in g.edges)


def test_regular_k4_unique():
    g = random_regular(4, 3, seed=5)
    assert g.m == 6  # the only simple 3-regular graph on 4 vertices


def test_regular_odd_product_rejected():
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3, seed=0)


def test_regular_degree_postcondition():
    for seed in range(5):
        g = random_regular(100, 3, seed=seed)
        assert all(len(nbrs) == 3 for nbrs in g.adj)
        assert len(set(g.edges)) == g.m == 150


def test_regular_determinism():
    assert random_regular(60, 4, seed=2) == random_regular(60, 4, seed=2)


def test_regular_rejects_small_n():
    with pytest.raises(ValueError):
        random_regular(3, 3, seed=0)
    with pytest.raises(ValueError):
        random_regular(10, 0, seed=0)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        random_regular(20, math.nan, seed=1)
    with pytest.raises(ValueError, match="need n > d"):
        random_regular(math.nan, 3, seed=1)


@pytest.mark.parametrize("make", [
    lambda: random_regular(10, 3.0, seed=1),
    lambda: random_regular(10.0, 3, seed=1),
    lambda: random_regular(10, 2.5, seed=1),
    lambda: random_tree(5.5, seed=1),
    lambda: random_tree(3.0, seed=1),
    lambda: random_tree(10.0, seed=1),
    lambda: gnp(10.0, 2.0, seed=1),
])
def test_float_counts_raise_type_error_before_any_draw(make, monkeypatch):
    def unexpected(*args):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(generators, "rng_for", unexpected)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda seed, stream: gnp(10, 2.0, seed, stream),
    lambda seed, stream: random_regular(10, 3, seed, stream),
    lambda seed, stream: random_tree(10, seed, stream),
])
@pytest.mark.parametrize("seed, stream", [(1.0, 0), (1.5, 0), (1, 2.0)])
def test_float_seeds_and_streams_raise_type_error_in_every_generator(make, seed, stream):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        make(seed, stream)


def test_regular_budget_exhaustion_signalled():
    with pytest.raises(SamplingBudgetError):
        random_regular(6, 5, seed=1, max_attempts=1)


def test_tree_tiny():
    assert random_tree(1, seed=0).m == 0
    assert random_tree(2, seed=0).edges == ((0, 1),)
    with pytest.raises(ValueError, match="need n >= 1"):
        random_tree(0, seed=0)


def test_tree_invariants():
    for seed in range(200):
        g = random_tree(50, seed=seed)
        assert g.m == 49
        assert excess(g) == 0
        assert components(g).count == 1


def test_tree_uniformity_chi_square():
    # 16 labelled trees on 4 vertices; frequencies should be near-uniform
    samples = 4800
    counts: dict = {}
    for seed in range(samples):
        g = random_tree(4, seed=seed)
        counts[g.edges] = counts.get(g.edges, 0) + 1
    assert len(counts) == 16
    expected = samples / 16
    chi2 = sum((observed - expected) ** 2 / expected for observed in counts.values())
    assert chi2 < CHI2_DF15_P999


def test_path_properties():
    assert path(1).m == 0
    g = path(5)
    assert g.m == 4
    assert max(len(a) for a in g.adj) == 2
    assert excess(g) == 0
    with pytest.raises(ValueError):
        path(0)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_path_matches_the_pairs_build(n):
    pairs = Graph(n, [(i, i + 1) for i in range(n - 1)])
    assert path(n) == pairs and path(n).edges == pairs.edges and path(n).adj == pairs.adj


# ---------------------------------------------------------------------------
# Reference generators: per-edge Python loops that make the same random draws
# as ``gnp`` and ``random_regular``, so they must give the same graphs.


def gnp_reference(n, c, seed, stream=0):
    """Geometric skips summed and decoded to pairs one edge at a time; the oracle."""
    p = c / n
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, [])
    if p >= 1.0:
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    rng = rng_for(seed, stream)
    positions = []
    cur = -1
    block = max(1024, int(p * total * 1.1) + 16)
    while cur < total:
        for skip in rng.geometric(p, size=block).tolist():
            cur += skip
            if cur >= total:
                break
            positions.append(cur)
    edges = []
    u = 0
    row_start = 0
    row_end = n - 1
    for idx in positions:
        while idx >= row_end:
            u += 1
            row_start = row_end
            row_end += n - 1 - u
        edges.append((u, u + 1 + idx - row_start))
    return Graph(n, edges)


def random_regular_reference(n, d, seed, stream=0, max_attempts=10_000):
    """Configuration model rejecting repeated edges through ``np.unique``; the oracle."""
    rng = rng_for(seed, stream)
    for _ in range(max_attempts):
        perm = rng.permutation(n * d)
        a = perm[0::2] // d
        b = perm[1::2] // d
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        key = lo.astype(np.int64) * n + hi
        if np.unique(key).size != key.size:
            continue
        return Graph(n, zip(lo.tolist(), hi.tolist()))
    raise SamplingBudgetError(f"no simple {d}-regular graph found in {max_attempts} attempts")


def assert_same_graph(g, ref):
    assert (g.n, g.m, g.edges, g.adj) == (ref.n, ref.m, ref.edges, ref.adj)
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    assert all(type(u) is int for nbrs in g.adj for u in nbrs)


@st.composite
def gnp_params(draw):
    n = draw(st.integers(1, 300))
    c = draw(st.one_of(st.just(0.0), st.just(n), st.floats(0, n), st.floats(0, min(n, 8))))
    return n, c


@settings(max_examples=150, deadline=None)
@given(gnp_params(), st.integers(0, 2**64 - 1), st.integers(0, 5))
# m = 1,040 edges against blocks of 1,037 skips: the sampler draws a second block
@example(params=(930, 2.0), seed=7369, stream=0)
def test_gnp_matches_reference(params, seed, stream):
    n, c = params
    assert_same_graph(gnp(n, c, seed, stream), gnp_reference(n, c, seed, stream))


@st.composite
def regular_params(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, 300))
    return n + (n * d) % 2, d


@settings(max_examples=150, deadline=None)
@given(regular_params(), st.integers(0, 2**64 - 1), st.integers(0, 5),
       st.sampled_from([1, 1000]))
def test_random_regular_matches_reference(params, seed, stream, attempts):
    n, d = params
    try:
        ref = random_regular_reference(n, d, seed, stream, attempts)
    except SamplingBudgetError:
        with pytest.raises(SamplingBudgetError):
            random_regular(n, d, seed, stream, max_attempts=attempts)
        return
    assert_same_graph(random_regular(n, d, seed, stream, max_attempts=attempts), ref)


def test_gnp_tiny_c_is_edgeless():
    # Skips near 2**63 would overflow an int64 running sum that then never ends.
    for c in (1e-17, 1e-300, 5e-324):
        g = gnp(10, c, seed=0)
        assert g.m == 0
        assert_same_graph(g, gnp_reference(10, c, seed=0))


@pytest.mark.parametrize("make, m, digest", [
    (lambda: gnp(50_000, 2.0, seed=1), 50_167,
     "f668047f8ee96ebc841801dbedfa8c6ebf1107fd27542940643e19bad9b2c189"),
    (lambda: random_regular(50_000, 3, seed=1), 75_000,
     "7858d37b641df98082db27f34ccc58b5402ecc9ca9feb0f36ccbd8c23d8d005e"),
], ids=["gnp", "regular"])
def test_large_outputs_pinned(make, m, digest):
    # Pinned at version 0.2.0: a seed must keep giving the same graph.
    g = make()
    assert g.m == m
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest
