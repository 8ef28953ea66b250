"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing. Budgets are asserted where the criterion states
one.
"""

import math
import time

from dismantle import (
    admissible_delta,
    chernoff_upper_tail,
    concentration_report,
    decycle_heuristic,
    dense_set_probability_bound,
    density_scan,
    estimate_curve_k,
    exact_max_forest,
    exact_max_induced,
    ExperimentConfig,
    fragment_forest,
    gap_demo,
    giant_component_fraction,
    gnp,
    Graph,
    greedy_fragment,
    path,
    pipeline_fragment,
    random_tree,
    rng_for,
    trim_components,
)

from oracles import max_forest_by_enumeration, max_induced_by_enumeration

RHO_2 = 0.7968121  # positive solution of x = 1 - exp(-2x)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def test_criterion_1_forest_fragmentation_bound():
    start = time.time()
    rng = rng_for(1001)
    violations = 0
    trees = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        t = random_tree(n, seed=int(rng.integers(0, 2**32)))
        trees += 1
        for k in (1, 2, 5, 10):
            res = fragment_forest(t, k)
            if res.max_component > k or len(res.removed) > n // (k + 1):
                violations += 1
    for k in (1, 2, 5, 10):
        for m in (1, 2, 3, 5):
            n = m * (k + 1)
            res = fragment_forest(path(n), k)
            if len(res.removed) != m or res.max_component > k:
                violations += 1
    elapsed = time.time() - start
    _report(
        1,
        "forest fragmentation bound",
        violations == 0 and elapsed < 10.0,
        f"{trees} trees, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = rng_for(1002)
    disagreements = 0
    heuristic_excess = 0
    for i in range(500):
        n = int(rng.integers(4, 15))
        c = (1.5, 2.0, 3.0)[i % 3]
        g = gnp(n, min(c, n), seed=int(rng.integers(0, 2**32)))
        for k in (1, 2, 3):
            bnb = len(exact_max_induced(g, k).kept)
            enum, _ = max_induced_by_enumeration(g, k)
            if bnb != enum:
                disagreements += 1
            if len(greedy_fragment(g, k).kept) > bnb:
                heuristic_excess += 1
            if len(trim_components(g, range(n), k).kept) > bnb:
                heuristic_excess += 1
        # remaining heuristics: decycling vs the forest oracle, the
        # two-stage pipeline (eps=0.9, cap 4) vs the cap-4 oracle
        forest_bnb = len(exact_max_forest(g).kept)
        forest_enum, _ = max_forest_by_enumeration(g)
        if forest_bnb != forest_enum:
            disagreements += 1
        if len(decycle_heuristic(g).kept) > forest_bnb:
            heuristic_excess += 1
        if len(pipeline_fragment(g, range(n), 0.9).kept) > len(exact_max_induced(g, 4).kept):
            heuristic_excess += 1
    elapsed = time.time() - start
    _report(
        2,
        "oracle equivalence",
        disagreements == 0 and heuristic_excess == 0 and elapsed < 60.0,
        f"{disagreements} disagreements, {heuristic_excess} heuristic wins, {elapsed:.1f}s",
    )


def test_criterion_3_giant_component():
    start = time.time()
    fractions = [giant_component_fraction(gnp(100_000, 2.0, seed=3, stream=r)) for r in range(20)]
    mean = sum(fractions) / len(fractions)
    elapsed = time.time() - start
    _report(
        3,
        "giant component fraction",
        abs(mean - RHO_2) <= 0.01 and elapsed < 60.0,
        f"mean={mean:.5f} target={RHO_2} err={abs(mean - RHO_2):.5f}, {elapsed:.1f}s",
    )


def test_criterion_4_gap_demo():
    start = time.time()
    report = gap_demo(2.0, 0.5, 20_000, 20, seed=7)
    density_ok_failures = sum(
        1 for row in report.rows if row.density_ok and row.gap > 0.5 + 1e-12
    )
    elapsed = time.time() - start
    _report(
        4,
        "coarse-to-fine gap demo",
        report.pass_fraction >= 0.95 and density_ok_failures == 0 and elapsed < 300.0,
        f"pass_fraction={report.pass_fraction:.2f} density_ok_failures={density_ok_failures}, "
        f"caps=({report.cap_initial},{report.cap_pipeline}), {elapsed:.1f}s",
    )


def test_criterion_5_density_claim():
    start = time.time()
    clean = 0
    for seed in range(20):
        rep = density_scan(gnp(500, 2.0, seed=500 + seed), 8, 0.6)
        clean += not rep.violations
    k4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    control = density_scan(k4, 4, 0.3)
    control_ok = ((0, 1, 2, 3), 6) in control.violations
    elapsed = time.time() - start
    _report(
        5,
        "density claim",
        clean >= 18 and control_ok and elapsed < 60.0,
        f"clean seeds {clean}/20, control={'hit' if control_ok else 'MISSED'}, {elapsed:.1f}s",
    )


def test_criterion_6_tail_calculus():
    point_ok = abs(chernoff_upper_tail(1.0, math.e) - math.exp(-1.0)) <= 1e-12

    delta = admissible_delta(2.0, 0.3)
    log_tau = -math.log(delta)
    margin = log_tau - 1.0 - math.log(2.0)
    inequality_ok = (
        margin > 0
        and (1.0 + log_tau) - (1.0 + 0.3 / 4.0) * margin <= -0.3 * log_tau / 8.0
    )
    delta_ok = 0.0 < delta < min(1.0, 0.1)

    n = 10**6
    terms = [
        dense_set_probability_bound(t, n, 2.0, 0.3).bound
        for t in range(1, math.floor(delta * n) + 1)
    ]
    total = sum(terms)
    _report(
        6,
        "tail calculus",
        point_ok and delta_ok and inequality_ok and total < 0.01,
        f"delta={delta:.3g}, sum over {len(terms)} admissible sizes = {total:.3g}",
    )


def test_criterion_7_lipschitz_trimming():
    start = time.time()
    rng = rng_for(1007)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(50, 401))
        c = float(rng.uniform(1.2, 3.0))
        g = gnp(n, c, seed=int(rng.integers(0, 2**32)))
        y = float(rng.uniform(0.05, 0.5))
        x = float(rng.uniform(y + 0.02, min(1.0, y + 0.45)))
        s = trim_components(g, range(n), max(1, math.floor(x * n))).kept
        res = trim_components(g, s, max(1, math.floor(y * n)))
        removals = len(s) - len(res.kept)
        bound = math.ceil(1.0 / y) * math.ceil((x - y) * n)
        if removals > bound or res.max_component > y * n:
            violations += 1
    elapsed = time.time() - start
    _report(
        7,
        "Lipschitz trimming",
        violations == 0,
        f"{violations} violations over 200 instances, {elapsed:.1f}s",
    )


def test_criterion_8_monotonicity_and_concentration():
    start = time.time()
    exact_cfg = ExperimentConfig(
        model="gnp", n=12, replicates=20, base_seed=42, c=2.0,
        method="exact", k_grid=(1, 2, 3, 4, 6, 8),
    )
    est = estimate_curve_k(exact_cfg)
    monotone_violations = 0
    for r in range(20):
        series = [p.values[r] for p in est.points]
        if series != sorted(series):
            monotone_violations += 1

    greedy_cfg = ExperimentConfig(
        model="gnp", n=10_000, replicates=30, base_seed=11, c=2.0,
        method="greedy", k_grid=(8,),
    )
    conc = concentration_report(estimate_curve_k(greedy_cfg), threshold=0.05)
    row = conc.rows[0]
    ratio = row.ratio if row.ratio is not None else float("inf")
    elapsed = time.time() - start
    _report(
        8,
        "monotonicity and concentration",
        monotone_violations == 0 and ratio < 0.05,
        f"monotone violations {monotone_violations}/20, stddev/mean={ratio:.4f}, {elapsed:.1f}s",
    )
