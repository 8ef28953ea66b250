"""sha256 digests of the package's removal sets, orders, rows, labels and scans.

Each case runs one function on one seeded graph, on the whole graph or on
a seeded 70% region, and writes one JSON line: function, graph, n,
region and the sha256 of the output. Two trees give the same outputs
exactly when their files are identical, so a rewrite is checked with

    python3 tools/digests.py --quick --out new.jsonl
    diff old.jsonl new.jsonl

The package is imported from the ``src/`` of the checkout that holds
this file. Functions that take a region (trimming, decycling, the
pipeline, ``components``) get it as a vertex set; the others run on the
subgraph it induces, whose edges are digested too. A certified result
is digested whole: its kept and removed ids, ``nu``, ``max_component``
and ``component_count``. ``--quick`` runs at n = 20,000; the default is
n = 100,000.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dismantle import experiments  # noqa: E402
from dismantle.analysis import density_scan  # noqa: E402
from dismantle.fragmenters import (  # noqa: E402
    _decycled_forest,
    _greedy_cuts,
    decycle_heuristic,
    fragment_forest,
    greedy_fragment,
    pipeline_fragment,
    strip_short_cycles,
    trim_components,
)
from dismantle.generators import gnp, path, random_regular, random_tree  # noqa: E402
from dismantle.graph import Graph, _vertex_mask, components, induced_subgraph  # noqa: E402


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


def ladder(n):
    """Two chains, ``0..h-1`` and ``h..2h-1`` with ``h = n // 2``, joined
    by a rung from each ``i`` to ``h + i``."""
    h = n // 2
    i = np.arange(h)
    chains = np.stack((np.concatenate((i[:-1], i[:-1] + h)), np.concatenate((i[1:], i[1:] + h))))
    return Graph(n, np.concatenate((chains, np.stack((i, i + h))), axis=1).T)


# name, generator, the density scan's t_max, and whether the graph is a
# forest (then ``fragment_forest`` runs on it too). The scan goes over its
# default budget on gnp c = 4 at t_max 6 and on Chung–Lu at 3 at n = 100,000.
GRAPHS = [
    ("gnp c=2 seed=1", lambda n: gnp(n, 2.0, 1), 6, False),
    ("gnp c=4 seed=1", lambda n: gnp(n, 4.0, 1), 4, False),
    ("regular d=3 seed=1", lambda n: random_regular(n, 3, 1), 6, False),
    ("path", path, 6, True),
    ("random_tree seed=1", lambda n: random_tree(n, 1), 6, True),
    ("chung_lu exponent=2.5 c=4 seed=1", lambda n: chung_lu(n, 2.5, 4.0, 1), 2, False),
    ("ladder", ladder, 6, False),
]
TRIM_TARGETS = (1, 3, 8)
RESULT_CAPS = (1, 8, 64)
FOREST_CAPS = [1, 2, 8, 64, 10_000]
GREEDY_CAPS = [64, 1, 8, 8, 2, 10_000]  # unsorted, with a repeat


def sha(items) -> str:
    """sha256 of the items joined by commas."""
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()


def result_sha(res) -> str:
    """sha256 of a certified result's ids and row."""
    return sha(json.dumps([res.kept, res.removed, res.nu, res.max_component,
                           res.component_count]))


def cases(g, t_max: int, forest: bool, region):
    """``(function, sha256)`` of every digested output on ``g``; ``region``
    is a sorted id list, or ``None`` for the whole graph."""
    s = range(g.n) if region is None else region
    sub = g if region is None else induced_subgraph(g, region)[0]
    yield "_greedy_cuts", sha(_greedy_cuts(sub).tolist())
    for cap in RESULT_CAPS:
        yield f"greedy_fragment cap={cap}", result_sha(greedy_fragment(sub, cap))
        if forest:
            yield f"fragment_forest cap={cap}", result_sha(fragment_forest(sub, cap))
    yield "decycle_heuristic", result_sha(decycle_heuristic(sub))
    small = greedy_fragment(sub, 8).kept
    yield "strip_short_cycles after greedy cap=8", result_sha(strip_short_cycles(sub, small, 8))
    for target in TRIM_TARGETS:
        yield f"trim_components target={target}", sha(trim_components(g, s, target).removed)
    yield "_decycled_forest", sha(np.flatnonzero(_decycled_forest(g, _vertex_mask(g, s))).tolist())
    yield "pipeline_fragment eps=0.5", sha(pipeline_fragment(g, s, 0.5).removed)
    yield "induced_subgraph edges", sha(sub.edges)
    rows = experiments._method_results(sub, GREEDY_CAPS, "greedy")
    yield f"_method_results greedy caps={GREEDY_CAPS}", sha(json.dumps(list(rows)))
    rows = experiments._method_results(sub, FOREST_CAPS, "forest-pipeline")
    yield f"_method_results forest-pipeline caps={FOREST_CAPS}", sha(json.dumps(list(rows)))
    yield "components labels", sha(components(g, region).labels)
    report = density_scan(sub, t_max, 0.5)
    yield (f"density_scan t_max={t_max} eps=0.5",
           sha(json.dumps([report.violations, report.sets_examined])))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to write")
    parser.add_argument("--quick", action="store_true", help="run at n = 20,000")
    args = parser.parse_args(argv)
    n = 20_000 if args.quick else 100_000
    seventy = np.flatnonzero(np.random.default_rng(7).random(n) < 0.7).tolist()
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        for name, make, t_max, forest in GRAPHS:
            g = make(n)
            for region_name, region in (("whole", None), ("70%", seventy)):
                for function, digest in cases(g, t_max, forest, region):
                    line = {"function": function, "graph": name, "n": n,
                            "region": region_name, "sha256": digest}
                    fh.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
