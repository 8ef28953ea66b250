import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dismantle import (
    CurveEstimate,
    CurvePoint,
    ExperimentConfig,
    Graph,
    ResultsFormatError,
    components,
    concentration_report,
    decycle_heuristic,
    empirical_slopes,
    estimate_curve_k,
    estimate_curve_x,
    experiments,
    fragment_forest,
    gap_demo,
    gnp,
    greedy_fragment,
    induced_subgraph,
    load_results,
    monotone_inverse,
    path,
    pool_adjacent_violators,
    random_regular,
    save_results,
    verify_estimate,
)
from dismantle.graph import _component_sizes


def cfg_small(**overrides):
    base = dict(
        model="gnp",
        n=12,
        replicates=6,
        base_seed=100,
        c=2.0,
        method="exact",
        k_grid=(1, 2, 4, 8),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(model="barabasi"),
        dict(replicates=0),
        dict(c=None),
        dict(c=100.0),
        dict(method="magic"),
        dict(method="exact", n=30, k_grid=(2,)),
        dict(k_grid=None),
        dict(k_grid=(0, 2)),
        dict(k_grid=(1,), x_grid=(0.5,)),
        dict(model="regular", c=None, d=3, n=13),
        dict(model="regular", c=None, d=None),
        dict(k_grid=(math.inf,)),
        dict(k_grid=(2, math.nan)),
        dict(k_grid=(2, 4, 2)),
        dict(k_grid=None, x_grid=(0.5, 0.25, 0.5)),
        dict(k_grid=None, x_grid=(0.1, 0.1000000001, 0.5)),
    ],
)
def test_config_rejections(overrides):
    with pytest.raises(ValueError):
        cfg_small(**overrides).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(n=math.nan), "need n >= 1"),
        (dict(replicates=math.nan), "replicate"),
        (dict(model="regular", c=None, d=math.nan, n=20), "invalid degree"),
        (dict(k_grid=(math.nan,)), "k grid must hold integers >= 1"),
    ],
    ids=["n", "replicates", "d", "k_grid"],
)
def test_config_nan_names_its_field(overrides, message):
    with pytest.raises(ValueError, match=message):
        cfg_small(**overrides).validate()


@pytest.mark.parametrize("overrides", [
    dict(n=10.0),
    dict(model="regular", c=None, d=3, n=10.0),
    dict(model="regular", c=None, d=3.0, n=10),
    dict(model="regular", c=None, d=2.5, n=4),
    dict(replicates=2.5),
    dict(base_seed=1.5),
])
def test_config_refuses_a_float_count(overrides):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        cfg_small(**overrides).validate()


def test_config_regular_ok():
    cfg = cfg_small(model="regular", c=None, d=3, n=12, method="greedy")
    cfg.validate()
    assert cfg.param == 3.0


def test_x_grid_range_checked():
    with pytest.raises(ValueError):
        cfg_small(k_grid=None, x_grid=(0.0,)).validate()
    with pytest.raises(ValueError):
        cfg_small(k_grid=None, x_grid=(1.2,)).validate()


def test_estimate_refuses_the_other_grid_kind():
    with pytest.raises(ValueError, match="no k grid"):
        estimate_curve_k(cfg_small(k_grid=None, x_grid=(0.5,)))
    with pytest.raises(ValueError, match="no x grid"):
        estimate_curve_x(cfg_small())


# ---------------------------------------------------------------------------
# curve estimation
# ---------------------------------------------------------------------------


def test_estimate_deterministic():
    a = estimate_curve_k(cfg_small())
    b = estimate_curve_k(cfg_small())
    assert a == b


def test_estimate_structure():
    est = estimate_curve_k(cfg_small())
    assert est.grid_kind == "k"
    assert [p.grid_value for p in est.points] == [1, 2, 4, 8]
    for p in est.points:
        assert len(p.values) == 6
        assert p.streams == tuple(range(6))
        assert all(0.0 <= v <= 1.0 for v in p.values)


def test_exact_dominates_greedy_per_replicate():
    exact = estimate_curve_k(cfg_small())
    greedy = estimate_curve_k(cfg_small(method="greedy"))
    for pe, pg in zip(exact.points, greedy.points):
        assert pe.mean >= pg.mean - 1e-12
        assert all(e >= g - 1e-12 for e, g in zip(pe.values, pg.values))


def test_exact_monotone_per_replicate():
    est = estimate_curve_k(cfg_small())
    for r in range(6):
        series = [p.values[r] for p in est.points]
        assert series == sorted(series)


def test_exact_rows_pinned():
    # max_component depends on which maximum set the oracle returns (the
    # first in include-first order), so these rows pin the witness too
    for g, want in (
        (gnp(20, 2.0, 1), [(0.55, 1), (0.6, 2), (0.75, 3), (0.8, 4), (0.8, 6), (0.8, 7)]),
        (random_regular(20, 3, 1), [(0.4, 1), (0.55, 2), (0.6, 3), (0.65, 4), (0.7, 6), (0.75, 8)]),
    ):
        assert list(experiments._method_results(g, [1, 2, 3, 4, 6, 8], "exact")) == want


def test_x_grid_keeps_everything_at_one():
    for method in ("exact", "greedy", "forest-pipeline"):
        cfg = cfg_small(method=method, k_grid=None, x_grid=(0.5, 1.0))
        est = estimate_curve_x(cfg)
        assert est.grid_kind == "x"
        assert all(v == 1.0 for v in est.points[-1].values)


def test_tiny_x_caps_at_one():
    # x * n below the 9-decimal rounding still caps at 1, never at 0
    for method in ("greedy", "forest-pipeline"):
        cfg = cfg_small(method=method, n=200, replicates=3, k_grid=None, x_grid=(1e-12, 0.5))
        est = estimate_curve_x(cfg)
        at_one = estimate_curve_k(dataclasses.replace(cfg, k_grid=(1,), x_grid=None)).points[0]
        assert est.points[0].values == at_one.values
        assert est.points[0].max_components == at_one.max_components == (1, 1, 1)
        assert verify_estimate(est)


def test_x_monotone_per_matched_seed():
    cfg = cfg_small(
        method="greedy", n=400, replicates=5, k_grid=None,
        x_grid=(0.05, 0.2, 0.5, 1.0),
    )
    est = estimate_curve_x(cfg)
    for r in range(5):
        series = [p.values[r] for p in est.points]
        assert series == sorted(series)


def test_cross_entry_consistency():
    # cap k as a k-grid equals cap x*n with x = k/n on matched seeds
    n, k = 200, 5
    ck = cfg_small(method="greedy", n=n, replicates=4, k_grid=(k,))
    cx = cfg_small(method="greedy", n=n, replicates=4, k_grid=None, x_grid=(k / n,))
    ek = estimate_curve_k(ck)
    ex = estimate_curve_x(cx)
    assert ek.points[0].values == ex.points[0].values


def test_forest_pipeline_method_feasible():
    cfg = cfg_small(method="forest-pipeline", n=300, replicates=3, k_grid=(4,))
    est = estimate_curve_k(cfg)
    for p in est.points:
        assert all(mc <= 4 for mc in p.max_components)


def test_verify_estimate_roundtrip():
    for method in ("greedy", "forest-pipeline"):
        est = estimate_curve_k(cfg_small(method=method, n=150, replicates=4))
        assert verify_estimate(est)
        last = est.points[-1]
        wrong = dataclasses.replace(last, values=last.values[:-1] + (last.values[-1] / 2,))
        assert not verify_estimate(dataclasses.replace(est, points=est.points[:-1] + (wrong,)))
    # every greedy row comes from one run at the smallest cap: a tampered
    # row at a cap that is neither the first nor the smallest is caught too
    est = estimate_curve_k(cfg_small(method="greedy", n=150, replicates=4, k_grid=(4, 1, 16, 2)))
    assert verify_estimate(est)
    mid = est.points[2]
    for wrong in (
        dataclasses.replace(mid, values=(mid.values[0] - 1 / 150,) + mid.values[1:]),
        dataclasses.replace(mid, max_components=(mid.max_components[0] + 1,) + mid.max_components[1:]),
    ):
        points = est.points[:2] + (wrong,) + est.points[3:]
        assert not verify_estimate(dataclasses.replace(est, points=points))


def test_verify_refuses_a_fractional_regular_degree_before_any_replicate():
    est = estimate_curve_k(cfg_small(model="regular", c=None, d=3, n=40, method="greedy"))
    assert verify_estimate(est)
    with mock.patch.object(experiments, "_method_results") as run:
        for param in (3.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="regular degree must be an integer"):
                verify_estimate(dataclasses.replace(est, param=param))
    run.assert_not_called()
    # a gnp mean degree stays a float: c = 1.5 is not read as 1
    est = estimate_curve_k(cfg_small(c=1.5, n=40, method="greedy"))
    assert verify_estimate(est)
    assert not verify_estimate(dataclasses.replace(est, param=1.0))


def replicate_graph(cfg, r):
    if cfg.model == "gnp":
        return gnp(cfg.n, cfg.c, cfg.base_seed, stream=r)
    return random_regular(cfg.n, cfg.d, cfg.base_seed, stream=r)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(k_grid=(8, 2, 5, 3, 1, 300, 500)),
        dict(k_grid=None, x_grid=(0.2, 0.01, 1.0, 0.05, 0.0095)),
        dict(model="regular", c=None, d=3, k_grid=(3, 300, 1, 4, 12)),
        dict(model="regular", c=None, d=4, k_grid=None, x_grid=(0.5, 0.02, 0.1)),
    ],
)
def test_greedy_rows_match_separate_runs(overrides):
    # one greedy run per replicate serves the whole grid: unsorted grids,
    # repeated caps and caps >= n give the rows, and the certified results,
    # of separate runs per cap. A grid may not repeat a value, but two x
    # values may share a cap: 0.01 and 0.0095 both give 3 at n = 300.
    cfg = cfg_small(method="greedy", n=300, replicates=3, **overrides)
    if cfg.k_grid:
        est, caps = estimate_curve_k(cfg), list(cfg.k_grid)
    else:
        est, caps = estimate_curve_x(cfg), [math.ceil(round(x * cfg.n, 9)) for x in cfg.x_grid]
    for r in range(cfg.replicates):
        g = replicate_graph(cfg, r)
        rows = list(experiments._method_results(g, caps, "greedy"))
        assert len(rows) == len(caps)
        for p, cap, row in zip(est.points, caps, rows):
            res = greedy_fragment(g, cap)
            assert row == (res.nu, res.max_component)
            assert p.values[r] == res.nu
            assert p.max_components[r] == res.max_component <= cap
        by_cap = sorted(zip(caps, (p.values[r] for p in est.points)))
        assert [nu for _, nu in by_cap] == sorted(nu for _, nu in by_cap)


def test_greedy_rows_build_no_adjacency():
    # the cut sizes come from the edge array and each row from the
    # components pass, so a replicate never builds ``adj``
    g = gnp(2000, 2.0, 1)
    rows = list(experiments._method_results(g, [1, 2, 8, 32, 2000], "greedy"))
    assert len(rows) == 5 and rows[-1] == (1.0, components(g).largest)
    assert g._view is None


def test_greedy_rows_certify_each_distinct_cap_once_from_the_last_labels(monkeypatch):
    # unsorted caps with a repeat: the distinct caps are certified in
    # ascending order, every pass after the first starts from the last
    # labels, and the rows come back in the caller's order, each equal to
    # a fresh certification of its kept set
    starts = []
    real = experiments._component_sizes

    def spy(g, inside, start=None):
        starts.append(start is not None)
        return real(g, inside, start)

    monkeypatch.setattr(experiments, "_component_sizes", spy)
    caps = [64, 1, 8, 8, 2, 10_000]
    for g in (gnp(2000, 2.0, 1), random_regular(2000, 3, 1), path(50)):
        cut = experiments._greedy_cuts(g)
        starts.clear()
        rows = list(experiments._method_results(g, caps, "greedy"))
        assert starts == [False, True, True, True, True]
        assert rows == [fresh_row(g, cut <= cap) for cap in caps]


def fresh_row(g, inside):
    """The curve row of the mask ``inside``, certified by a fresh components pass."""
    return experiments._row(g, _component_sizes(g, inside)[1])


class MaskTable:
    """Stands in for greedy's cut sizes: ``cut <= cap`` reads mask ``cap``
    off a table, so ``_method_results`` certifies any family of masks."""

    def __init__(self, masks):
        self.masks = masks

    def __le__(self, cap):
        return self.masks[cap]


def test_greedy_rows_fall_back_to_fresh_labels_when_a_mask_drops_a_vertex():
    # on the path 0-1-2, the labels of {0, 1, 2} would join 0 and 2 of
    # {0, 2}, which are two components
    masks = [np.ones(3, dtype=bool), np.array([True, False, True])]
    with mock.patch.object(experiments, "_greedy_cuts", lambda g: MaskTable(masks)):
        rows = list(experiments._method_results(path(3), [1, 0], "greedy"))
    assert rows == [(2 / 3, 1), (1.0, 3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_greedy_rows_of_any_mask_family_match_fresh_passes(data):
    # the containment check reads the masks alone, so a family that is
    # not nested still gives each mask's fresh row
    n = data.draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    masks = data.draw(st.lists(mask, min_size=1, max_size=4))
    caps = data.draw(st.lists(st.integers(0, len(masks) - 1), min_size=1, max_size=6))
    if n >= 3 and data.draw(st.booleans()):
        # a mask whose vertex v joins a and b, then the next mask without
        # v: the first mask's labels would join a and b there
        a, v, b = data.draw(st.permutations(range(n)))[:3]
        edges.discard((min(a, b), max(a, b)))
        edges |= {(min(a, v), max(a, v)), (min(v, b), max(v, b))}
        joined = np.zeros(n, dtype=bool)
        joined[[a, v, b]] = True
        split = joined.copy()
        split[v] = False
        masks += [joined, split]
        caps += [len(masks) - 2, len(masks) - 1]
    g = Graph(n, sorted(edges))
    with mock.patch.object(experiments, "_greedy_cuts", lambda g: MaskTable(masks)):
        rows = list(experiments._method_results(g, caps, "greedy"))
    assert rows == [fresh_row(g, masks[cap]) for cap in caps]


def count_greedy_calls(monkeypatch):
    calls = []
    real = experiments._greedy_cuts

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(experiments, "_greedy_cuts", counted)
    return calls


def test_greedy_runs_once_per_replicate(monkeypatch):
    calls = count_greedy_calls(monkeypatch)
    est = estimate_curve_k(cfg_small(method="greedy", n=300, replicates=3, k_grid=(8, 2, 32, 4)))
    assert calls == [300] * 3
    calls.clear()
    estimate_curve_x(cfg_small(method="greedy", n=300, replicates=4, k_grid=None,
                               x_grid=(0.5, 0.05, 1.0)))
    assert calls == [300] * 4
    calls.clear()
    assert verify_estimate(est)
    assert calls == [300] * 3


def test_forest_pipeline_rows_match_public_api():
    # the row of every cap is the witness of decycle_heuristic followed by
    # fragment_forest on the surviving forest, or all of g if no cut is due
    cfg = cfg_small(method="forest-pipeline", n=400, replicates=3, k_grid=(2, 4, 8, 400))
    est = estimate_curve_k(cfg)
    for r in range(cfg.replicates):
        g = gnp(cfg.n, cfg.c, cfg.base_seed, stream=r)
        dec = decycle_heuristic(g)
        forest, _ = induced_subgraph(g, dec.kept)
        for p in est.points:
            if components(g).largest <= p.grid_value:
                kept = tuple(range(g.n))
            else:
                kept = tuple(dec.kept[v] for v in fragment_forest(forest, p.grid_value).kept)
            assert p.values[r] == len(kept) / g.n
            assert p.max_components[r] == components(g, kept).largest


def test_forest_pipeline_decycles_once_per_replicate(monkeypatch):
    calls = []
    real = experiments.decycle_heuristic

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(experiments, "decycle_heuristic", counted)
    estimate_curve_k(cfg_small(method="forest-pipeline", n=300, replicates=3, k_grid=(2, 4, 8)))
    assert len(calls) == 3
    calls.clear()
    estimate_curve_k(cfg_small(method="forest-pipeline", n=300, replicates=3, k_grid=(300,)))
    assert calls == []


def test_forest_pipeline_orients_once_per_replicate(monkeypatch):
    # one orientation of the decycled forest serves every cap below the
    # largest component; caps at or above it need none
    calls = []
    real = experiments._forest_order

    def counted(g, verts):
        calls.append(g.n)
        return real(g, verts)

    monkeypatch.setattr(experiments, "_forest_order", counted)
    estimate_curve_k(cfg_small(method="forest-pipeline", n=300, replicates=3,
                               k_grid=(8, 300, 2, 4, 3)))
    assert calls == [300] * 3
    calls.clear()
    estimate_curve_k(cfg_small(method="forest-pipeline", n=300, replicates=3, k_grid=(300,)))
    assert calls == []


def test_forest_pipeline_rows_at_scale():
    # pinned (nu, max_component) rows of one replicate at n = 20,000
    rows = experiments._method_results(gnp(20000, 2.0, 1), [4, 8, 16, 1000], "forest-pipeline")
    assert list(rows) == [
        (0.83065, 4), (0.88475, 8), (0.915, 16), (0.94885, 1000)]


def test_verify_requires_metadata():
    est = estimate_curve_k(cfg_small())
    stripped = CurveEstimate(
        model=est.model, param=est.param, n=est.n,
        grid_kind=est.grid_kind, points=est.points,
    )
    with pytest.raises(ValueError):
        verify_estimate(stripped)
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        verify_estimate(dataclasses.replace(est, method="magic"))


def test_verify_exact_estimate_keeps_the_oracle_limit():
    # n = 21 is one above the limit the exact method runs under, so no
    # run made this estimate and re-checking it must not run the oracle
    point = CurvePoint(grid_value=2, values=(0.5,), max_components=(2,), streams=(0,))
    est = CurveEstimate(model="gnp", param=2.0, n=21, grid_kind="k", points=(point,),
                        method="exact", base_seed=0)
    with pytest.raises(ValueError, match="oracle limit"):
        verify_estimate(est)


def test_jobs_parallel_matches_serial():
    cfg = cfg_small(method="greedy", n=200, replicates=4)
    assert estimate_curve_k(cfg, jobs=2) == estimate_curve_k(cfg, jobs=1)


def test_pool_size_clamps_to_tasks_and_cores(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    assert experiments._pool_size(8, 3) == 3
    assert experiments._pool_size(8, 100) == 4
    assert experiments._pool_size(2, 100) == 2
    assert experiments._pool_size(1, 100) == 1
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert experiments._pool_size(8, 100) == 1


# ---------------------------------------------------------------------------
# gap demo
# ---------------------------------------------------------------------------


def test_gap_demo_structure_and_pass():
    rep = gap_demo(2.0, 0.5, 1500, 4, seed=9)
    assert rep.cap_pipeline == 6
    assert rep.cap_initial >= 1
    assert len(rep.rows) == 4
    for row in rep.rows:
        assert 0.0 <= row.nu_pipeline <= row.nu_initial <= 1.0
        assert math.isclose(row.gap, row.nu_initial - row.nu_pipeline)
        if row.density_ok:
            assert row.gap <= 0.5 + 1e-12
    assert rep.pass_fraction == 1.0


def test_gap_demo_deterministic_and_parallel():
    a = gap_demo(2.0, 0.5, 800, 3, seed=1)
    b = gap_demo(2.0, 0.5, 800, 3, seed=1)
    c = gap_demo(2.0, 0.5, 800, 3, seed=1, jobs=2)
    assert a == b == c


def test_gap_demo_validation():
    with pytest.raises(ValueError):
        gap_demo(2.0, 0.5, 0, 3)
    with pytest.raises(ValueError):
        gap_demo(2.0, 0.5, 100, 0)
    with pytest.raises(ValueError, match="need n >= 1"):
        gap_demo(2.0, 0.5, math.nan, 3)
    with pytest.raises(ValueError, match="replicate"):
        gap_demo(2.0, 0.5, 100, math.nan)


def tiny_estimate(*points, method="greedy"):
    return CurveEstimate(model="gnp", param=2.0, n=12, grid_kind="k", points=points,
                         method=method, base_seed=0)


FLOAT = "'float' object cannot be interpreted as an integer"
SEED = "seed must be a 64-bit unsigned integer"


@pytest.mark.parametrize("run, error, message", [
    (lambda: cfg_small(base_seed=-1).validate(), ValueError, SEED),
    (lambda: cfg_small(base_seed=2**64).validate(), ValueError, SEED),
    (lambda: estimate_curve_k(cfg_small(base_seed=-1)), ValueError, SEED),
    (lambda: estimate_curve_k(cfg_small(base_seed=2**64)), ValueError, SEED),
    (lambda: gap_demo(2.0, 0.5, 20, 2.5), TypeError, FLOAT),
    (lambda: gap_demo(2.0, 0.5, 20, 2, seed=1.5), TypeError, FLOAT),
    (lambda: gap_demo(2.0, 0.5, 20, 2, seed=-1), ValueError, SEED),
    (lambda: gap_demo(50.0, 0.5, 20, 2), ValueError, "c out of range: 50"),
    (lambda: gap_demo(2.0, 0.5, 20.0, 2), TypeError, FLOAT),
    (lambda: verify_estimate(tiny_estimate()), ValueError, "replicate"),
    (lambda: verify_estimate(tiny_estimate(CurvePoint(2, (), (), ()))), ValueError, "replicate"),
    (lambda: verify_estimate(tiny_estimate(CurvePoint(2.5, (0.5,), (2,), (0,)))),
     ValueError, "k grid must hold integers"),
], ids=[
    "validate-seed-negative", "validate-seed-2**64", "curve-seed-negative", "curve-seed-2**64",
    "demo-float-replicates", "demo-float-seed", "demo-negative-seed", "demo-c-above-n",
    "demo-float-n", "verify-no-points", "verify-no-rows", "verify-float-k",
])
def test_bad_input_is_refused_before_any_replicate_runs(monkeypatch, run, error, message):
    # every run draws its graphs through ``_generate``, estimates and the
    # demo from inside ``_replicate_map``
    def unexpected(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "_replicate_map", unexpected)
    monkeypatch.setattr(experiments, "_generate", unexpected)
    with pytest.raises(error, match=message):
        run()


# ---------------------------------------------------------------------------
# concentration
# ---------------------------------------------------------------------------


def test_concentration_zero_spread():
    est = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(CurvePoint(2, (0.5, 0.5, 0.5), (2, 2, 2), (0, 1, 2)),),
    )
    rep = concentration_report(est)
    assert rep.rows[0].stddev == 0.0
    assert not rep.rows[0].flagged


def test_concentration_requires_replicates():
    est = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(CurvePoint(2, (0.5,), (2,), (0,)),),
    )
    with pytest.raises(ValueError):
        concentration_report(est)


def test_concentration_flags_wide_points():
    est = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(CurvePoint(2, (0.1, 0.9), (1, 1), (0, 1)),),
    )
    rep = concentration_report(est, threshold=0.05)
    assert rep.rows[0].flagged


def test_concentration_shrinks_with_n():
    small = estimate_curve_k(cfg_small(method="greedy", n=100, replicates=10, k_grid=(8,)))
    large = estimate_curve_k(cfg_small(method="greedy", n=3000, replicates=10, k_grid=(8,)))
    assert large.points[0].stddev < small.points[0].stddev


# ---------------------------------------------------------------------------
# monotone inverse
# ---------------------------------------------------------------------------


def test_pav_basic():
    assert pool_adjacent_violators([1, 2, 3]) == [1, 2, 3]
    out = pool_adjacent_violators([3, 1, 2])
    assert out == sorted(out)
    assert abs(sum(out) - 6) < 1e-12  # projection preserves the mean


def test_empirical_slopes():
    est = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(
            CurvePoint(1, (0.2,), (1,), (0,)),
            CurvePoint(3, (0.6,), (2,), (0,)),
            CurvePoint(7, (0.6,), (2,), (0,)),
        ),
    )
    slopes = empirical_slopes(est)
    assert slopes == ((1.0, 3.0, pytest.approx(0.2)), (3.0, 7.0, 0.0))
    single = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(CurvePoint(1, (0.2,), (1,), (0,)),),
    )
    with pytest.raises(ValueError):
        empirical_slopes(single)
    repeated = CurveEstimate(  # built by hand: ``validate`` refuses such a grid
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(CurvePoint(2, (0.2,), (1,), (0,)), CurvePoint(2, (0.4,), (1,), (0,))),
    )
    with pytest.raises(ValueError, match="two grid points"):
        empirical_slopes(repeated)


def test_result_component_count_descriptive():
    g = gnp(200, 2.0, seed=14)
    res = greedy_fragment(g, 3)
    sub, _ = induced_subgraph(g, res.kept)
    assert res.component_count == components(sub).count


def test_gap_demo_reports_component_count():
    rep = gap_demo(2.0, 0.5, 400, 2, seed=5)
    for row in rep.rows:
        assert row.pipeline_components >= 1


def test_monotone_inverse_interpolates():
    est = CurveEstimate(
        model="gnp", param=2.0, n=10, grid_kind="k",
        points=(
            CurvePoint(1, (0.2,), (1,), (0,)),
            CurvePoint(2, (0.6,), (2,), (0,)),
            CurvePoint(4, (0.6,), (2,), (0,)),
            CurvePoint(8, (0.8,), (4,), (0,)),
        ),
    )
    inv = monotone_inverse(est)
    assert inv(0.2) == 1
    assert inv(0.4) == pytest.approx(1.5)
    assert inv(0.6) == 2  # leftmost grid value reaching the level
    assert inv(0.9) == 8  # clamps at the top
    assert inv(0.05) == 1


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    est = estimate_curve_k(cfg_small(method="greedy", n=60, replicates=3))
    p = tmp_path / "out.csv"
    save_results(est, p)
    loaded = load_results(p)
    assert loaded.model == est.model and loaded.param == est.param and loaded.n == est.n
    assert loaded.grid_kind == "k"
    assert [pt.grid_value for pt in loaded.points] == [1, 2, 4, 8]
    for a, b in zip(loaded.points, est.points):
        assert a.max_components == b.max_components
        assert a.streams == b.streams
        assert all(abs(x - y) <= 1e-8 * max(1.0, abs(y)) for x, y in zip(a.values, b.values))
    # second round trip is exact: quantization is idempotent
    p2 = tmp_path / "again.csv"
    save_results(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()
    assert load_results(p2) == loaded


def test_saved_file_shape(tmp_path):
    est = estimate_curve_x(cfg_small(method="greedy", n=30, replicates=2,
                                     k_grid=None, x_grid=(0.5, 1.0)))
    p = tmp_path / "x.csv"
    save_results(est, p)
    text = p.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "model,param,n,grid_value,replicate,nu,max_component,seed_stream"
    assert len(lines) == 1 + 4 + 1  # header + 2 grid * 2 reps + trailing newline
    assert "\r" not in text
    loaded = load_results(p)
    assert loaded.grid_kind == "x"
    assert [pt.grid_value for pt in loaded.points] == [0.5, 1.0]


@pytest.mark.parametrize("grid", [dict(k_grid=(4, 4, 8)),
                                  dict(k_grid=None, x_grid=(0.1, 0.1000000001, 0.5))])
def test_save_rejects_grid_values_written_alike(tmp_path, grid):
    # ``validate`` refuses values written alike: repeat a point by hand
    cfg = cfg_small(method="greedy", n=30, replicates=2, **grid)
    if cfg.k_grid:
        est = estimate_curve_k(dataclasses.replace(cfg, k_grid=tuple(sorted(set(cfg.k_grid)))))
        at = {p.grid_value: p for p in est.points}
        est = dataclasses.replace(est, points=tuple(at[k] for k in cfg.k_grid))
    else:
        est = estimate_curve_x(dataclasses.replace(cfg, x_grid=(0.1, 0.5)))
        first, last = est.points
        alike = dataclasses.replace(first, grid_value=0.1000000001)
        est = dataclasses.replace(est, points=(first, alike, last))
    p = tmp_path / "dup.csv"
    with pytest.raises(ValueError, match="repeat"):
        save_results(est, p)
    assert not p.exists()


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("model,param\n")
    with pytest.raises(ResultsFormatError, match="line 1"):
        load_results(p)


def test_load_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ResultsFormatError, match="line 1"):
        load_results(p)
    p.write_text("model,param,n,grid_value,replicate,nu,max_component,seed_stream\n")
    with pytest.raises(ResultsFormatError, match="line 2: no data rows"):
        load_results(p)


def test_load_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        "\n"
        "gnp,2,10,2,1,0.6,2,1\n"
    )
    (point,) = load_results(p).points
    assert point.values == (0.5, 0.6) and point.streams == (0, 1)


@pytest.mark.parametrize("row", [
    "gnp,2,10,2,1,0.6,-1,1", "gnp,2,10,2,-1,0.6,2,1", "gnp,2,10,2,1,0.6,2,-1", "gnp,2,0,2,1,0.6,2,1",
], ids=["max_component", "replicate", "seed_stream", "n"])
def test_load_rejects_negative_count_field(tmp_path, row):
    p = tmp_path / "neg.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        f"gnp,2,10,2,0,0.5,2,0\n{row}\n"
    )
    with pytest.raises(ResultsFormatError, match="line 3: negative count field"):
        load_results(p)


def test_load_rejects_out_of_range_nu(tmp_path):
    p = tmp_path / "nu.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        "gnp,2,10,2,1,1.2,2,1\n"
    )
    with pytest.raises(ResultsFormatError, match="line 3"):
        load_results(p)


def test_load_rejects_malformed_row(tmp_path):
    p = tmp_path / "row.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,abc,2,0\n"
    )
    with pytest.raises(ResultsFormatError, match="line 2"):
        load_results(p)


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_load_rejects_non_finite_grid_value(tmp_path, token):
    p = tmp_path / "grid.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        f"gnp,2,10,{token},0,0.5,2,0\n"
    )
    with pytest.raises(ResultsFormatError, match="line 3"):
        load_results(p)


@pytest.mark.parametrize("good, token", [("2", "0"), ("2", "-3"), ("0.5", "0.0"),
                                         ("0.5", "-0.5"), ("0.5", "1.5")])
def test_load_rejects_grid_value_out_of_range(tmp_path, good, token):
    # k grids hold integers >= 1 and x grids lie in (0, 1], as ExperimentConfig requires
    p = tmp_path / "grid.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        f"gnp,2,10,{good},0,0.5,2,0\n"
        f"gnp,2,10,{token},0,0.5,2,0\n"
    )
    with pytest.raises(ResultsFormatError, match="line 3"):
        load_results(p)


def test_load_rejects_truncated_row(tmp_path):
    p = tmp_path / "trunc.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5\n"
    )
    with pytest.raises(ResultsFormatError, match="line 2"):
        load_results(p)


def test_load_rejects_repeated_replicate(tmp_path):
    # two copies of one replicate would pass for the two replicates a report needs
    p = tmp_path / "twice.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        "gnp,2,10,2,0,0.5,2,0\n"
    )
    with pytest.raises(ResultsFormatError, match="line 3: repeated replicate 0"):
        load_results(p)


def test_load_rejects_inconsistent_metadata(tmp_path):
    p = tmp_path / "mix.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        "gnp,3,10,2,1,0.5,2,1\n"
    )
    with pytest.raises(ResultsFormatError, match="inconsistent"):
        load_results(p)


def test_load_rejects_unbalanced_groups(tmp_path):
    p = tmp_path / "unbal.csv"
    p.write_text(
        "model,param,n,grid_value,replicate,nu,max_component,seed_stream\n"
        "gnp,2,10,2,0,0.5,2,0\n"
        "gnp,2,10,4,0,0.5,2,0\n"
        "gnp,2,10,4,1,0.6,2,1\n"
    )
    with pytest.raises(ResultsFormatError, match="unbalanced"):
        load_results(p)
