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
subgraph it induces, whose edges are digested too. ``--quick`` runs at
n = 20,000; the default is n = 100,000.
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
    pipeline_fragment,
    trim_components,
)
from dismantle.generators import gnp, path, random_regular, random_tree  # noqa: E402
from dismantle.graph import _vertex_mask, components, induced_subgraph  # noqa: E402

# name, generator, and the density scan's t_max: gnp c = 4 goes over the
# scan's default budget at t_max 6
GRAPHS = [
    ("gnp c=2 seed=1", lambda n: gnp(n, 2.0, 1), 6),
    ("gnp c=4 seed=1", lambda n: gnp(n, 4.0, 1), 4),
    ("regular d=3 seed=1", lambda n: random_regular(n, 3, 1), 6),
    ("path", path, 6),
    ("random_tree seed=1", lambda n: random_tree(n, 1), 6),
]
TRIM_TARGETS = (1, 3, 8)
FOREST_CAPS = [1, 2, 8, 64, 10_000]
GREEDY_CAPS = [64, 1, 8, 8, 2, 10_000]  # unsorted, with a repeat


def sha(items) -> str:
    """sha256 of the items joined by commas."""
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()


def cases(g, t_max: int, region):
    """``(function, sha256)`` of every digested output on ``g``; ``region``
    is a sorted id list, or ``None`` for the whole graph."""
    s = range(g.n) if region is None else region
    sub = g if region is None else induced_subgraph(g, region)[0]
    yield "_greedy_cuts", sha(_greedy_cuts(sub).tolist())
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
        for name, make, t_max in GRAPHS:
            g = make(n)
            for region_name, region in (("whole", None), ("70%", seventy)):
                for function, digest in cases(g, t_max, region):
                    line = {"function": function, "graph": name, "n": n,
                            "region": region_name, "sha256": digest}
                    fh.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
