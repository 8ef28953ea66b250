"""Command-line surface.

Exit codes: 0 success, 1 invalid arguments, 2 infeasible precondition
(oracle size limit, odd n*d, out-of-range parameters, exhausted sampling
budget, out of memory), 3 I/O or file-format errors. All randomness
sits behind ``--seed`` (default 0); identical invocations produce
identical output.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import EnumerationBudgetError, delta_sweep, density_scan
from .exact import exact_max_forest, exact_max_induced
from .experiments import (
    ExperimentConfig,
    ResultsFormatError,
    _fmt9,
    estimate_curve_k,
    estimate_curve_x,
    gap_demo,
    save_results,
)
from .fragmenters import (
    PipelineBudgetError,
    fragment_forest,
    greedy_fragment,
    pipeline_fragment,
)
from .generators import SamplingBudgetError, gnp, path, random_regular, random_tree
from .graph import EdgeListFormatError, read_edgelist, write_edgelist


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's default 2
        raise UsageError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="dismantle", description="Fragment sparse random graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and write it as an edge list")
    gen.add_argument("--model", required=True, choices=["gnp", "regular", "tree", "path"])
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--c", type=float, help="mean degree (gnp)")
    gen.add_argument("--d", type=int, help="degree (regular)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    frag = sub.add_parser("fragment", help="fragment a graph from an edge-list file")
    frag.add_argument("--in", dest="infile", required=True)
    frag.add_argument("--cap", type=int, help="component cap (greedy/forest)")
    frag.add_argument("--method", required=True, choices=["greedy", "forest", "pipeline"])
    frag.add_argument("--eps", type=float, help="tolerance (pipeline)")

    exact = sub.add_parser("exact", help="exact oracle for small graphs")
    exact.add_argument("--in", dest="infile", required=True)
    exact.add_argument("--k", type=int, help="component cap")
    exact.add_argument("--forest", action="store_true", help="largest induced forest")

    curve = sub.add_parser("curve", help="Monte Carlo curve estimate, written as CSV")
    curve.add_argument("--model", required=True, choices=["gnp", "regular"])
    curve.add_argument("--c", type=float)
    curve.add_argument("--d", type=int)
    curve.add_argument("--n", required=True, type=int)
    curve.add_argument("--grid", required=True,
                       help="comma-separated caps: integers for k, decimals for x")
    curve.add_argument("--reps", required=True, type=int)
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--method", default="greedy",
                       choices=["exact", "greedy", "forest-pipeline"])
    curve.add_argument("--out", required=True)
    curve.add_argument("--jobs", type=positive_int, default=1)

    claim = sub.add_parser("verify-claim", help="scan for overly dense connected sets")
    claim.add_argument("--in", dest="infile", required=True)
    claim.add_argument("--eps", required=True, type=float)
    claim.add_argument("--tmax", required=True, type=int)

    delta = sub.add_parser("delta", help="admissible delta and its grid sweep")
    delta.add_argument("--c", required=True, type=float)
    delta.add_argument("--eps", required=True, type=float)

    demo = sub.add_parser("demo", help="coarse-to-fine fragmentation gap demo")
    demo.add_argument("--c", required=True, type=float)
    demo.add_argument("--eps", required=True, type=float)
    demo.add_argument("--n", required=True, type=int)
    demo.add_argument("--reps", required=True, type=int)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--jobs", type=positive_int, default=1)

    return p


def _cmd_gen(args) -> int:
    if args.model == "gnp":
        if args.c is None:
            raise UsageError("gnp model requires --c")
        g = gnp(args.n, args.c, args.seed)
    elif args.model == "regular":
        if args.d is None:
            raise UsageError("regular model requires --d")
        g = random_regular(args.n, args.d, args.seed)
    elif args.model == "tree":
        g = random_tree(args.n, args.seed)
    else:
        g = path(args.n)
    write_edgelist(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _cmd_fragment(args) -> int:
    g = read_edgelist(args.infile)
    if args.method == "pipeline":
        if args.eps is None:
            raise UsageError("pipeline method requires --eps")
        res = pipeline_fragment(g, range(g.n), args.eps)
    else:
        if args.cap is None:
            raise UsageError(f"{args.method} method requires --cap")
        if args.method == "greedy":
            res = greedy_fragment(g, args.cap)
        else:
            res = fragment_forest(g, args.cap)
    removed = res.removed
    sys.stdout.write(("%d\n" * len(removed)) % removed)  # one write, not a print per vertex
    print(f"nu={_fmt9(res.nu)} max_component={res.max_component}")
    return 0


def _cmd_exact(args) -> int:
    if args.forest == (args.k is not None):
        raise UsageError("choose exactly one of --k or --forest")
    g = read_edgelist(args.infile)
    res = exact_max_forest(g) if args.forest else exact_max_induced(g, args.k)
    print(f"N={res.mask.count(1)}")
    return 0


def _parse_grid(text: str):
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise UsageError("empty --grid")
    try:
        return ("k", tuple(int(t) for t in tokens))
    except ValueError:
        pass
    try:
        return ("x", tuple(float(t) for t in tokens))
    except ValueError:
        raise UsageError(f"cannot parse --grid {text!r}") from None


def _cmd_curve(args) -> int:
    kind, grid = _parse_grid(args.grid)
    if args.model == "gnp" and args.c is None:
        raise UsageError("gnp model requires --c")
    if args.model == "regular" and args.d is None:
        raise UsageError("regular model requires --d")
    cfg = ExperimentConfig(
        model=args.model,
        n=args.n,
        replicates=args.reps,
        base_seed=args.seed,
        c=args.c,
        d=args.d,
        method=args.method,
        k_grid=grid if kind == "k" else None,
        x_grid=grid if kind == "x" else None,
    )
    est = estimate_curve_k(cfg, jobs=args.jobs) if kind == "k" else estimate_curve_x(cfg, jobs=args.jobs)
    save_results(est, args.out)
    for pt in est.points:
        print(f"grid={_fmt9(float(pt.grid_value))} mean={_fmt9(pt.mean)} stddev={_fmt9(pt.stddev)}")
    return 0


def _cmd_verify_claim(args) -> int:
    g = read_edgelist(args.infile)
    report = density_scan(g, args.tmax, args.eps)
    for verts, edge_count in report.violations:
        print(
            f"violation size={len(verts)} edges={edge_count} "
            f"vertices={','.join(map(str, verts))}"
        )
    print(f"violations={len(report.violations)} sets_examined={report.sets_examined}")
    return 0


def _cmd_delta(args) -> int:
    rows = delta_sweep(args.c, args.eps)
    for row in rows:
        print(
            f"candidate step={row.step} delta={_fmt9(row.delta)} "
            f"log_tau={_fmt9(row.log_tau)} lhs={_fmt9(row.lhs)} rhs={_fmt9(row.rhs)} "
            f"admissible={int(row.admissible)}"
        )
    print(f"delta={_fmt9(rows[-1].delta)}")
    return 0


def _cmd_demo(args) -> int:
    report = gap_demo(args.c, args.eps, args.n, args.reps, args.seed, jobs=args.jobs)
    print(
        f"delta={_fmt9(report.delta)} cap_initial={report.cap_initial} "
        f"cap_pipeline={report.cap_pipeline}"
    )
    for row in report.rows:
        print(
            f"replicate={row.replicate} nu_initial={_fmt9(row.nu_initial)} "
            f"nu_pipeline={_fmt9(row.nu_pipeline)} gap={_fmt9(row.gap)} "
            f"density_ok={int(row.density_ok)} components={row.pipeline_components}"
        )
    print(f"pass_fraction={_fmt9(report.pass_fraction)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "fragment": _cmd_fragment,
    "exact": _cmd_exact,
    "curve": _cmd_curve,
    "verify-claim": _cmd_verify_claim,
    "delta": _cmd_delta,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EdgeListFormatError, ResultsFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SamplingBudgetError, EnumerationBudgetError, PipelineBudgetError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. an edge-list header declaring 3e9 vertices
        print(f"infeasible: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
