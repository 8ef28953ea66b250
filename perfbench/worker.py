"""One benchmark workload, run in its own process by ``run.py``.

The worker imports ``dismantle`` from the ``src`` directory of the
checkout that holds this file and drives the library in-process, the way
the CLI subcommands do, with ``jobs=1``. Modes:

* ``--prepare`` writes the workload's input files into ``--work-dir``;
* ``--setup-only`` sets up, prints ``ready`` and exits (one set-up sample);
* otherwise it sets up, prints ``ready``, runs operations until
  ``--seconds`` have passed, checks every output and prints one JSON
  line for ``run.py``.

An operation is one unit of the workload: one replicate through the
curve estimator plus ``save_results``, one ``density_scan`` of a graph,
or one ``gnp`` and one ``random_regular`` graph, each followed by
``components``. Inputs come from ``--seed`` alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from array import array
from contextlib import contextmanager, nullcontext
from itertools import chain, count
from pathlib import Path

from spans import Tracer, summarize
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out" / "traces"

# A run makes a fresh input from its seed for every operation, and runs
# at least ``inputs`` operations; ``density-scan`` cycles over ``inputs``
# prepared files.
WORKLOADS = {
    "curve-greedy-k": {
        "estimator": "estimate_curve_k", "model": "gnp", "c": 2.0, "n": 20_000,
        "method": "greedy", "k_grid": (1, 2, 4, 8, 16, 32), "inputs": 2,
    },
    "curve-greedy-x": {
        "estimator": "estimate_curve_x", "model": "gnp", "c": 2.0, "n": 20_000,
        "method": "greedy", "x_grid": (0.01, 0.05, 0.2), "inputs": 3,
    },
    "curve-pipeline": {
        "estimator": "estimate_curve_k", "model": "gnp", "c": 2.0, "n": 5_000,
        "method": "forest-pipeline", "k_grid": (4, 8, 16), "inputs": 3,
    },
    "density-scan": {"model": "gnp", "c": 2.0, "n": 20_000, "t_max": 6, "eps": 0.5, "inputs": 3},
    "gen": {"c": 2.0, "d": 3, "n": 50_000, "inputs": 4},
}

# Overrides for ``--size tiny``, used by the smoke test.
TINY = {
    "curve-greedy-k": {"n": 400, "inputs": 2},
    "curve-greedy-x": {"n": 400, "inputs": 2},
    "curve-pipeline": {"n": 300, "inputs": 2},
    "density-scan": {"n": 3_000, "t_max": 5, "inputs": 2},
    "gen": {"n": 5_000, "inputs": 2},
}


def params_for(workload: str, size: str) -> dict:
    params = dict(WORKLOADS[workload])
    if size == "tiny":
        params.update(TINY[workload])
    return params


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Independent 64-bit library seed for input ``index`` of a run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Clock:
    """Accumulates the timed part of one operation.

    ``raw`` is wall time less the speed probes; ``seconds`` is the same
    time corrected for host speed (see ``speed.py``). With a tracer, each
    timed block also installs the wrappers and is recorded as a
    ``bench.op`` root span, so untimed output checks never produce spans.
    """

    def __init__(self, tracer: Tracer | None, run: int):
        self.tracer = tracer
        self.run = run
        self.raw = 0.0
        self.seconds = 0.0

    @contextmanager
    def __call__(self):
        ctx = self.tracer.recording(self.run, root="bench.op") if self.tracer else nullcontext()
        with ctx, SpeedProbe() as speed:
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                inside = sum(speed.samples)
        raw = elapsed - inside
        self.raw += raw
        self.seconds += raw * speed.factor()

    @property
    def factor(self) -> float:
        return self.seconds / self.raw if self.raw > 0 else 1.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Curve:
    """``estimate_curve_k``/``estimate_curve_x`` on one replicate, then ``save_results``."""

    def __init__(self, dm, name: str, params: dict, seed: int, work_dir: Path):
        self.dm, self.name, self.p, self.seed = dm, name, params, seed
        self.csv = work_dir / f"{name}.csv"
        n = params["n"]
        if "k_grid" in params:
            self.caps = list(params["k_grid"])
        else:
            # cap = ceil(x*n), rounded like the library to absorb float noise
            self.caps = [math.ceil(round(x * n, 9)) for x in params["x_grid"]]

    def setup(self) -> None:
        pass

    def config(self, k: int):
        p = self.p
        return self.dm.ExperimentConfig(
            model=p["model"], n=p["n"], replicates=1,
            base_seed=derive_seed(self.seed, self.name, k), c=p["c"],
            method=p["method"], k_grid=p.get("k_grid"), x_grid=p.get("x_grid"),
        )

    def op(self, k: int, clock: Clock):
        experiments = self.dm.experiments
        cfg = self.config(k)
        with clock():
            est = getattr(experiments, self.p["estimator"])(cfg)
            experiments.save_results(est, self.csv)
        data = self.csv.read_bytes()
        errors = []
        loaded = experiments.load_results(self.csv)
        if len(loaded.points) != len(self.caps):
            errors.append(f"CSV holds {len(loaded.points)} grid points, expected {len(self.caps)}")
        nus = []
        for cap, point, back in zip(self.caps, est.points, loaded.points):
            for nu, mc, nu_csv, mc_csv in zip(point.values, point.max_components,
                                              back.values, back.max_components):
                nus.append(nu)
                if not (0.0 <= nu <= 1.0 and mc <= cap):
                    errors.append(f"row cap={cap}: nu={nu} max_component={mc}")
                if mc_csv != mc or abs(nu_csv - nu) > 1e-8:
                    errors.append(f"CSV row cap={cap} differs from the estimate")
        return {"digest": _sha(data), "nu": nus, "est": est}, errors

    def witness_errors(self, first: dict) -> list[str]:
        """Re-derive one replicate's witness through the public fragmenters."""
        dm, p = self.dm, self.p
        j = self.seed % len(self.caps)
        cap = self.caps[j]
        point = first["est"].points[j]
        g = dm.gnp(p["n"], p["c"], derive_seed(self.seed, self.name, 0), stream=0)
        if p["method"] == "greedy":
            kept = dm.greedy_fragment(g, cap).kept
        elif dm.components(g).largest <= cap:
            kept = tuple(range(g.n))
        else:
            dec = dm.decycle_heuristic(g)
            forest, _ = dm.induced_subgraph(g, dec.kept)
            kept = tuple(dec.kept[v] for v in dm.fragment_forest(forest, cap).kept)
        sub, _ = dm.induced_subgraph(g, kept)
        largest = dm.components(sub).largest
        nu = len(kept) / g.n
        errors = []
        if largest > cap or largest != point.max_components[0]:
            errors.append(f"witness at cap {cap}: largest component {largest}, "
                          f"row says {point.max_components[0]}")
        if nu != point.values[0]:
            errors.append(f"witness at cap {cap}: nu {nu}, row says {point.values[0]}")
        return errors


class DensityScan:
    """``density_scan`` on gnp graphs read from edge-list files, as ``verify-claim`` does."""

    def __init__(self, dm, name: str, params: dict, seed: int, work_dir: Path):
        self.dm, self.name, self.p, self.seed = dm, name, params, seed
        self.files = [work_dir / f"g{k}.el" for k in range(params["inputs"])]
        self.graphs = []

    def prepare(self) -> None:
        p = self.p
        for k, path in enumerate(self.files):
            g = self.dm.gnp(p["n"], p["c"], derive_seed(self.seed, self.name, k))
            self.dm.write_edgelist(g, path)

    def setup(self) -> None:
        self.graphs = [self.dm.graph.read_edgelist(path) for path in self.files]

    def op(self, k: int, clock: Clock):
        dm, p = self.dm, self.p
        g = self.graphs[k % len(self.graphs)]
        with clock():
            report = dm.analysis.density_scan(g, p["t_max"], p["eps"])
        errors = []
        if report.sets_examined < 1:
            errors.append("density scan examined no sets")
        factor = 1.0 + p["eps"] / 3.0
        for verts, edges in report.violations:
            sub, _ = dm.induced_subgraph(g, verts)
            if not (len(verts) <= p["t_max"] and sub.m == edges and edges > factor * len(verts)
                    and dm.components(sub).count == 1):
                errors.append(f"violation {verts} with {edges} edges does not re-check")
        key = _sha(repr((report.sets_examined, report.violations)).encode())
        return {"digest": key}, errors


class Gen:
    """``gnp`` and ``random_regular``, each followed by ``components``, as ``dismantle gen``."""

    def __init__(self, dm, name: str, params: dict, seed: int, work_dir: Path):
        self.dm, self.name, self.p, self.seed = dm, name, params, seed

    def setup(self) -> None:
        pass

    def op(self, k: int, clock: Clock):
        dm, p = self.dm, self.p
        s = derive_seed(self.seed, self.name, k)
        errors = []
        digest = hashlib.sha256()
        edges = []
        for model in ("gnp", "regular"):
            with clock():
                if model == "gnp":
                    g = dm.generators.gnp(p["n"], p["c"], s)
                else:
                    g = dm.generators.random_regular(p["n"], p["d"], s)
                comp = dm.graph.components(g)
            degrees = [len(a) for a in g.adj]
            if g.n != p["n"] or sum(degrees) != 2 * g.m or len(g.edges) != g.m:
                errors.append(f"{model}: inconsistent n, m or degree sum")
            if sum(comp.sizes) != g.n:
                errors.append(f"{model}: component sizes do not sum to n")
            if model == "regular" and (g.m * 2 != p["n"] * p["d"] or min(degrees) != max(degrees)
                                       or degrees[0] != p["d"]):
                errors.append(f"regular: not every vertex has degree {p['d']}")
            edges.append(g.m)
            digest.update(array("q", chain.from_iterable(g.edges)).tobytes())
            del g, comp, degrees
        return {"digest": digest.hexdigest(), "edges": edges}, errors

    def traced_errors(self, summary: dict, counts: list[dict]) -> list[str]:
        """Edge counts recorded by the generator spans against each graph's ``m``."""
        got = [c.get("edges", 0) for c in counts]
        if got != summary["edges"]:
            return [f"generators.edges {got} differs from the graphs' m {summary['edges']}"]
        return []


KINDS = {"density-scan": DensityScan, "gen": Gen}  # the rest are Curve


def install_wrappers(tracer: Tracer, dm) -> None:
    """Wrap the names each module imports from another, plus the benchmark's entry points."""
    ex, fr, gen, gr, an = dm.experiments, dm.fragmenters, dm.generators, dm.graph, dm.analysis

    def graphs(res, args):
        return {"graphs": 1, "edges": res.m}

    def removed(res, args):
        return {"removed": len(res.removed)}

    table = [
        (ex, "estimate_curve_k", "experiments.estimate", lambda r, a: {"replicates": a[0].replicates}),
        (ex, "estimate_curve_x", "experiments.estimate", lambda r, a: {"replicates": a[0].replicates}),
        (ex, "save_results", "experiments.save", None),
        (ex, "gnp", "generators.gnp", graphs),
        (ex, "random_regular", "generators.random_regular", graphs),
        (ex, "greedy_fragment", "fragmenters.greedy", removed),
        (ex, "decycle_heuristic", "fragmenters.decycle", removed),
        (ex, "_fragment_forest_removals", "fragmenters.forest", lambda r, a: {"removed": len(r)}),
        (ex, "_make_result", "fragmenters.certify", None),
        (ex, "components", "graph.components", None),
        (fr, "_make_result", "fragmenters.certify", None),
        (gen, "gnp", "generators.gnp", graphs),
        (gen, "random_regular", "generators.random_regular", graphs),
        (gen, "Graph", "graph.construct", None),
        (gr, "components", "graph.components", None),
        (gr, "read_edgelist", "graph.read", None),
        (an, "density_scan", "analysis.density_scan",
         lambda r, a: {"sets_examined": r.sets_examined, "violations": len(r.violations)}),
        (an, "components", "graph.components", None),
    ]
    for module, attr, name, count in table:
        tracer.wrap(module, attr, name, count)


SECONDS_METRICS = {
    "generators.gnp_s": "generators.gnp",
    "generators.random_regular_s": "generators.random_regular",
    "graph.construct_s": "graph.construct",
    "graph.components_s": "graph.components",
    "fragmenters.greedy_s": "fragmenters.greedy",
    "fragmenters.decycle_s": "fragmenters.decycle",
    "fragmenters.forest_s": "fragmenters.forest",
    "fragmenters.certify_s": "fragmenters.certify",
    "analysis.density_scan_s": "analysis.density_scan",
    "experiments.estimate_s": "experiments.estimate",
    "experiments.save_s": "experiments.save",
}
CALL_METRICS = {
    "graph.construct_calls": "graph.construct",
    "fragmenters.greedy_calls": "fragmenters.greedy",
    "fragmenters.decycle_calls": "fragmenters.decycle",
    "fragmenters.forest_calls": "fragmenters.forest",
}
COUNT_METRICS = {
    "generators.graphs": "graphs",
    "generators.edges": "edges",
    "fragmenters.removed": "removed",
    "analysis.sets_examined": "sets_examined",
    "analysis.violations": "violations",
    "experiments.replicates": "replicates",
}


def layer_metrics(spans: list, scale: dict[int, float], traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer figures per traced operation, corrected for host speed.

    ``scale`` maps each operation id to its speed factor; the set-up
    spans (run -1) give ``graph.read_s``. Span times include the speed
    probes that fell inside them (about 1.5%); the two wall times, mean
    seconds per operation, do not.
    """
    ops = len(scale) - 1
    by_name = summarize(spans, scale)

    def agg(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0.0)

    totals: dict[str, float] = {}
    for stats in by_name.values():
        for key in COUNT_METRICS.values():
            totals[key] = totals.get(key, 0.0) + stats.get(key, 0.0)
    out = {m: agg(name, "seconds") / ops for m, name in SECONDS_METRICS.items()}
    out.update({m: agg(name, "calls") / ops for m, name in CALL_METRICS.items()})
    out.update({m: totals[key] / ops for m, key in COUNT_METRICS.items()})
    out["graph.read_s"] = agg("graph.read", "seconds")  # set-up only, whole run
    out["experiments.self_s"] = agg("experiments.estimate", "self_seconds") / ops
    reps = totals["replicates"]
    out["fragmenters.decycle_calls_per_replicate"] = (
        agg("fragmenters.decycle", "calls") / reps if reps else 0.0)
    scan_s = agg("analysis.density_scan", "seconds")
    out["analysis.sets_per_s"] = totals["sets_examined"] / scan_s if scan_s else 0.0
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def run(args, work: "Curve | DensityScan | Gen", tracer: Tracer | None) -> dict:
    """Run operation ``k`` on input ``k`` for k = 0, 1, ... until ``args.seconds``
    have passed, and at least the first ``inputs`` operations.

    Every operation gets a fresh input, so a run averages over as many
    inputs as fit. In a traced run each operation runs untraced and then
    traced on the same input. ``kept_frac`` and the digest cover the
    first ``inputs`` operations, so they depend on the seed alone.
    """
    ops: list[dict] = []
    firsts: list[dict] = []  # summaries of the first ``inputs`` operations
    errors_seen: list[str] = []
    start = time.perf_counter()
    for k in count():
        if k >= work.p["inputs"] and time.perf_counter() - start >= args.seconds:
            break
        op = {"ok": False}
        ops.append(op)
        try:
            clock = Clock(None, k)
            summary, errors = work.op(k, clock)
            op.update(seconds=clock.seconds, raw=clock.raw)
            if k < work.p["inputs"]:
                firsts.append(summary)
            if tracer is not None:
                tclock = Clock(tracer, k)
                tsummary, terrors = work.op(k, tclock)
                op.update(traced=tclock.seconds, factor=tclock.factor)
                errors += terrors
                if tsummary["digest"] != summary["digest"]:
                    errors.append(f"input {k}: traced output differs from untraced output")
                if isinstance(work, Gen):
                    counts = [s.get("counts", {}) for s in tracer.spans
                              if s["run"] == k and s["name"].startswith("generators.")]
                    errors += work.traced_errors(summary, counts)
            op["ok"] = not errors
        except Exception:  # one failed operation must not end the run
            errors = [traceback.format_exc()]
        errors_seen += errors
    if firsts and isinstance(work, Curve):
        try:
            witness = work.witness_errors(firsts[0])
        except Exception:
            witness = [traceback.format_exc()]
        if witness:
            ops[0]["ok"] = False
            errors_seen += witness
    for err in errors_seen[:5]:
        print(f"check failed: {err}", file=sys.stderr)

    timed = [op for op in ops if "seconds" in op and (tracer is None or "traced" in op)]
    nus = [nu for summary in firsts for nu in summary.get("nu", ())]
    digest = hashlib.sha256("".join(summary["digest"] for summary in firsts).encode())
    out = {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "wall": [op["seconds"] for op in timed],
        "raw_wall": [op["raw"] for op in timed],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kept_frac": sum(nus) / len(nus) if nus else 1.0,
        "kept_rows": len(nus),
        "digest": digest.hexdigest(),
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None and timed:
        scale = {i: op["factor"] for i, op in enumerate(ops) if "factor" in op}
        scale[-1] = args.setup_factor
        out["traced_wall"] = [op["traced"] for op in timed]
        out["layers"] = layer_metrics(tracer.spans, scale, sum(out["traced_wall"]) / len(timed),
                                      sum(out["wall"]) / len(timed))
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "scale": scale, "spans": tracer.spans}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work-dir", required=True, type=Path)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--prepare", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up time runs from process start; its probes start here, before
    # the package import.
    with SpeedProbe() as setup:
        import dismantle as dm

        src = (ROOT / "src").resolve()
        if src not in Path(dm.__file__).resolve().parents:
            print(f"error: imported {dm.__file__}, not the package under {src}", file=sys.stderr)
            return 3
        params = params_for(args.workload, args.size)
        work = KINDS.get(args.workload, Curve)(dm, args.workload, params, args.seed, args.work_dir)
        if args.prepare:
            work.prepare()
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_wrappers(tracer, dm)
        with tracer.recording(-1) if tracer else nullcontext():
            work.setup()
        spent = sum(setup.samples)
    args.setup_factor = setup.factor()
    print(f"ready {args.setup_factor!r} {spent!r}", flush=True)
    if args.setup_only:
        return 0
    out = run(args, work, tracer)
    out["params"] = params
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
