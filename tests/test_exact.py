import ast
import math
import random
from pathlib import Path

import pytest

from dismantle import (
    components,
    exact_max_forest,
    exact_max_induced,
    excess,
    Graph,
    induced_subgraph,
    path,
    random_tree,
)

from oracles import c5, k4, max_forest_by_enumeration, max_induced_by_enumeration, random_graph


def test_independence_number_of_c5():
    res = exact_max_induced(c5(), 1)
    assert len(res.kept) == 2
    assert components(c5(), res.kept).largest <= 1


def test_path6_cap2():
    res = exact_max_induced(path(6), 2)
    assert len(res.kept) == 4


def test_forest_whole_graph_qualifies():
    t = random_tree(12, seed=4)
    res = exact_max_induced(t, 12)
    assert res.kept == tuple(range(12)) and res.nu == 1.0


def test_forest_oracle_examples():
    assert len(exact_max_forest(c5()).kept) == 4
    assert len(exact_max_forest(k4()).kept) == 2
    t = random_tree(15, seed=9)
    res = exact_max_forest(t)
    assert res.kept == tuple(range(15)) and res.removed == ()


def test_forest_witness_is_acyclic():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(11, rng.randint(0, 22), rng)
        res = exact_max_forest(g)
        sub, _ = induced_subgraph(g, res.kept)
        assert excess(sub) == 0
        size, witness = max_forest_by_enumeration(g)
        assert len(res.kept) == size
        assert res.kept == witness  # both return the first maximum in include-first order


def test_branch_and_bound_matches_enumeration():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(4, 12)
        c = rng.choice([1.5, 2.0, 3.0])
        g = random_graph(n, min(n * (n - 1) // 2, round(c * n / 2)), rng)
        for k in (1, 2, 3, 4):
            res = exact_max_induced(g, k)
            size, witness = max_induced_by_enumeration(g, k)
            assert len(res.kept) == size
            assert res.kept == witness  # both return the first maximum in include-first order
            assert components(g, res.kept).largest <= k
            assert components(g, witness).largest <= k


def test_every_small_graph_matches_enumeration():
    # all 1,100 labelled graphs on at most 5 vertices, witnesses included;
    # the capped oracle runs first, so a search that forgets to undo a
    # union-find link fails here on a wrong set rather than looping
    for n in range(6):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for j, e in enumerate(pairs) if (bits >> j) & 1])
            for k in (1, 2, 3):
                assert exact_max_induced(g, k).kept == max_induced_by_enumeration(g, k)[1]
            assert exact_max_forest(g).kept == max_forest_by_enumeration(g)[1]


def test_monotone_in_cap():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(10, rng.randint(5, 20), rng)
        values = [len(exact_max_induced(g, k).kept) for k in range(1, 11)]
        assert values == sorted(values)
        assert values[-1] == 10  # cap n keeps everything


def test_result_partitions_vertices():
    g = random_graph(9, 12, random.Random(1))
    res = exact_max_induced(g, 2)
    assert sorted(res.kept + res.removed) == list(range(9))
    assert res.nu == len(res.kept) / 9


def test_limit_enforced():
    g = random_graph(21, 30, random.Random(0))
    with pytest.raises(ValueError, match="oracle limit"):
        exact_max_induced(g, 2)
    with pytest.raises(ValueError, match="oracle limit"):
        exact_max_forest(g)
    # NaN fails every comparison, so a check written as ``n > limit`` lets it through
    with pytest.raises(ValueError, match="oracle limit"):
        exact_max_induced(g, 2, limit=math.nan)
    with pytest.raises(ValueError, match="oracle limit"):
        exact_max_forest(g, limit=math.nan)
    res = exact_max_induced(g, 2, limit=21)  # explicit limit override works
    assert components(g, res.kept).largest <= 2


def test_cap_validation():
    with pytest.raises(ValueError):
        exact_max_induced(c5(), 0)
    with pytest.raises(ValueError):
        max_induced_by_enumeration(c5(), 0)


def test_nan_cap_is_refused():
    # NaN fails every comparison, so a check written as ``k < 1`` lets it through
    for oracle in (exact_max_induced, max_induced_by_enumeration):
        with pytest.raises(ValueError, match="component cap must be >= 1"):
            oracle(path(10), math.nan)
    assert exact_max_induced(path(10), math.inf).kept == tuple(range(10))


def test_enumeration_limit():
    g = random_graph(15, 20, random.Random(6))
    with pytest.raises(ValueError):
        max_induced_by_enumeration(g, 2)
    with pytest.raises(ValueError):
        max_forest_by_enumeration(g)


def test_oracles_are_independent():
    # the enumeration references share no code with the library but Graph,
    # so one traversal bug cannot sit on both sides of a comparison
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "dismantle"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dismantle":
            imported += [f"{node.module}.{a.name}" for a in node.names]
    assert imported == ["dismantle.Graph"]
