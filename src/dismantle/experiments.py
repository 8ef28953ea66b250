"""Monte Carlo estimation of fragmentation curves, with persistence.

Estimates are labelled heuristic lower bounds: each recorded value comes
from an explicit feasible witness, never from an extrapolation. Curve
estimates are keyed either by an absolute component cap (``k`` grid) or
by a cap proportional to the graph size (``x`` grid, cap ``ceil(x*n)``).

Replicate ``r`` always draws its graph from stream ``r`` of the base
seed, so every row of every estimate can be regenerated in isolation.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import index
from statistics import fmean, stdev
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .analysis import _components_pass_density, admissible_delta
from .exact import DEFAULT_ORACLE_LIMIT, exact_max_induced
from .fragmenters import (
    _forest_order,
    _fragment_forest_removals,
    _greedy_cuts,
    _make_result,
    _pipeline_fragment,
    _row,
    component_cap,
    decycle_heuristic,
    greedy_fragment,
)
from .generators import gnp, random_regular, rng_for
from .graph import Graph, _component_sizes, components

METHODS = ("exact", "greedy", "forest-pipeline")

CSV_HEADER = [
    "model",
    "param",
    "n",
    "grid_value",
    "replicate",
    "nu",
    "max_component",
    "seed_stream",
]


class ResultsFormatError(ValueError):
    """A results CSV file violates the expected schema."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: model, parameters, seeds and method."""

    model: str
    n: int
    replicates: int
    base_seed: int = 0
    c: Optional[float] = None
    d: Optional[int] = None
    method: str = "greedy"
    k_grid: Optional[Tuple[int, ...]] = None
    x_grid: Optional[Tuple[float, ...]] = None

    @property
    def param(self) -> float:
        return float(self.c if self.model == "gnp" else self.d)  # type: ignore[arg-type]

    def validate(self) -> None:
        if self.model not in ("gnp", "regular"):
            raise ValueError(f"unknown model {self.model!r}")
        if not self.n >= 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        index(self.n)  # a float raises TypeError, as the generators do
        if not self.replicates >= 1:
            raise ValueError(f"need at least 1 replicate, got {self.replicates}")
        index(self.replicates)
        rng_for(self.base_seed)  # the generators' own seed check, before any replicate
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.model == "gnp":
            if self.c is None:
                raise ValueError("gnp model requires c")
            if not 0 <= self.c <= self.n:
                raise ValueError(f"c out of range: {self.c}")
        else:
            if self.d is None:
                raise ValueError("regular model requires d")
            if not (self.d >= 1 and self.n > self.d):
                raise ValueError(f"invalid degree {self.d} for n={self.n}")
            index(self.d)
            if (self.n * self.d) % 2 != 0:
                raise ValueError(f"n*d must be even, got n={self.n}, d={self.d}")
        if self.method == "exact" and self.n > DEFAULT_ORACLE_LIMIT:
            raise ValueError(
                f"exact method needs n <= {DEFAULT_ORACLE_LIMIT} (oracle limit), got n={self.n}"
            )
        grids = [g for g in (self.k_grid, self.x_grid) if g]
        if len(grids) != 1:
            raise ValueError("exactly one non-empty grid (k or x) must be given")
        if self.k_grid:
            if not all(k >= 1 and k % 1 == 0 for k in self.k_grid):  # refuses inf and NaN
                raise ValueError(f"k grid must hold integers >= 1: {self.k_grid}")
        if self.x_grid:
            if any(not 0 < x <= 1 for x in self.x_grid):
                raise ValueError(f"x grid must lie in (0, 1]: {self.x_grid}")
        _grid_tokens("k" if self.k_grid else "x", grids[0])  # values written alike fail the CSV


@dataclass(frozen=True)
class CurvePoint:
    """All replicate outcomes at one grid value."""

    grid_value: float
    values: Tuple[float, ...]
    max_components: Tuple[int, ...]
    streams: Tuple[int, ...]

    @property
    def mean(self) -> float:
        return fmean(self.values)

    @property
    def stddev(self) -> float:
        return stdev(self.values) if len(self.values) > 1 else 0.0


@dataclass(frozen=True)
class CurveEstimate:
    """Per-grid-point replicate values of a kept-fraction estimate."""

    model: str
    param: float
    n: int
    grid_kind: str  # "k" (absolute cap) or "x" (cap = ceil(x*n))
    points: Tuple[CurvePoint, ...]
    method: Optional[str] = None
    base_seed: Optional[int] = None


def _caps(kind: str, grid: Sequence[float], n: int) -> list[int]:
    """The component cap of each grid value: ``k`` itself, or ``ceil(x*n)``
    for an ``x`` grid, robust to float noise at exactly representable
    products; a positive product below that noise still caps at 1."""
    if kind == "k":
        return [int(k) for k in grid]
    return [max(1, math.ceil(round(x * n, 9))) for x in grid]


def _generate(cfg: ExperimentConfig, r: int) -> Graph:
    if cfg.model == "gnp":
        return gnp(cfg.n, cfg.c, cfg.base_seed, stream=r)  # type: ignore[arg-type]
    return random_regular(cfg.n, cfg.d, cfg.base_seed, stream=r)  # type: ignore[arg-type]


def _method_results(g: Graph, caps: Sequence[int], method: str) -> Iterator[Tuple[float, int]]:
    """One certified row ``(nu, max_component)`` per cap for replicate
    graph ``g``, in the order of ``caps``.

    ``greedy`` eliminates once: the removals at cap ``k`` are the
    vertices whose cut size exceeds ``k`` (see :func:`_greedy_cuts`). The
    distinct caps' kept sets are certified by :func:`_row` in ascending
    order, with no vertex tuples and no ``adj``; each components pass
    starts from the last cap's labels when its mask contains the last
    mask, a check on the masks alone, and from fresh labels otherwise.
    ``forest-pipeline`` decycles ``g`` and orients the forest (see
    :func:`_forest_order`) at most once, and only when some cap is below
    the largest component; each such cap costs one sweep and one
    certification. ``exact`` reads each cap's row off the oracle's
    certified result.
    """
    if method == "exact":
        for cap in caps:
            res = exact_max_induced(g, cap)
            yield res.nu, res.max_component
        return
    if method == "greedy":
        cut = _greedy_cuts(g)
        rows, lab, last = {}, None, np.zeros(g.n, dtype=bool)
        for cap in sorted(set(caps)):
            inside = cut <= cap
            lab, sizes = _component_sizes(g, inside, None if (last > inside).any() else lab)
            rows[cap], last = _row(g, sizes), inside
        yield from map(rows.__getitem__, caps)
        return
    # ``components``, ``decycle_heuristic`` and the whole graph's
    # ``_make_result`` stay while the benchmark tracer wraps them here by
    # name (ROADMAP item 8).
    largest = components(g).largest
    forest = None
    for cap in caps:
        if largest <= cap:
            res = _make_result(g, np.ones(g.n, dtype=bool), "forest-pipeline")
            yield res.nu, res.max_component
            continue
        if forest is None:
            forest = np.frombuffer(decycle_heuristic(g).mask, dtype=bool)
            order, parent = _forest_order(g, forest)
        kept = forest.copy()
        kept[_fragment_forest_removals(order, parent, cap)] = False
        yield _row(g, _component_sizes(g, kept)[1])


def _replicate_rows(cfg: ExperimentConfig, caps: Sequence[int], r: int) -> list[Tuple[float, int]]:
    return list(_method_results(_generate(cfg, r), caps, cfg.method))


def _pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks: at most one per task and core."""
    return min(jobs, tasks, os.cpu_count() or 1)


def _replicate_map(fn: Callable[[int], object], replicates: int, jobs: int) -> list:
    """``[fn(r) for r in range(replicates)]``, over a process pool when ``jobs`` allows one."""
    workers = _pool_size(jobs, replicates)
    if workers <= 1:
        return [fn(r) for r in range(replicates)]
    from concurrent.futures import ProcessPoolExecutor  # only here: it imports multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(replicates)))


def _estimate(cfg: ExperimentConfig, kind: str, jobs: int) -> CurveEstimate:
    """Validate ``cfg``, then run its replicates over its ``kind`` grid."""
    cfg.validate()
    grid = cfg.k_grid if kind == "k" else cfg.x_grid
    if not grid:
        raise ValueError(f"config carries no {kind} grid")
    caps = _caps(kind, grid, cfg.n)
    grid_values = caps if kind == "k" else list(grid)
    reps = cfg.replicates
    rows = _replicate_map(partial(_replicate_rows, cfg, caps), reps, jobs)
    points = tuple(
        CurvePoint(
            grid_value=grid_values[j],
            values=tuple(rows[r][j][0] for r in range(reps)),
            max_components=tuple(rows[r][j][1] for r in range(reps)),
            streams=tuple(range(reps)),
        )
        for j in range(len(caps))
    )
    return CurveEstimate(
        model=cfg.model,
        param=cfg.param,
        n=cfg.n,
        grid_kind=kind,
        points=points,
        method=cfg.method,
        base_seed=cfg.base_seed,
    )


def estimate_curve_k(cfg: ExperimentConfig, jobs: int = 1) -> CurveEstimate:
    """Estimate the kept fraction at each absolute component cap of the grid."""
    return _estimate(cfg, "k", jobs)


def estimate_curve_x(cfg: ExperimentConfig, jobs: int = 1) -> CurveEstimate:
    """Estimate the kept fraction at caps proportional to n (``ceil(x*n)``, at least 1).

    At ``x = 1`` the cap equals ``n``, every graph is feasible as-is and
    all methods report a kept fraction of exactly 1.
    """
    return _estimate(cfg, "x", jobs)


def verify_estimate(est: CurveEstimate) -> bool:
    """Regenerate every replicate's graph once and re-check its recorded rows.

    Confirms that the stored kept fraction is reproduced bit-for-bit and
    that the witness respects its cap. Requires the in-memory metadata
    (method and base seed), which the CSV format does not carry. The
    estimate's config, its grid read off the points, must pass
    :meth:`ExperimentConfig.validate` as the run that made it did, or
    ``ValueError`` (``TypeError`` for a float count) is raised: an
    ``exact`` estimate above the oracle limit, say, or one with no
    replicate rows. A regular estimate's degree must be integral.
    """
    if est.method is None or est.base_seed is None:
        raise ValueError("estimate lacks method/base_seed metadata; cannot verify")
    if est.model == "regular" and est.param % 1 != 0:  # refuses inf and NaN
        raise ValueError(f"regular degree must be an integer, got {est.param}")
    grid = tuple(p.grid_value for p in est.points)
    cfg = ExperimentConfig(
        model=est.model,
        n=est.n,
        replicates=max((len(p.values) for p in est.points), default=0),
        base_seed=est.base_seed,
        c=est.param if est.model == "gnp" else None,
        d=int(est.param) if est.model == "regular" else None,
        method=est.method,
        k_grid=grid if est.grid_kind == "k" else None,
        x_grid=grid if est.grid_kind == "x" else None,
    )
    cfg.validate()
    caps = _caps(est.grid_kind, grid, est.n)
    for stream in sorted({s for p in est.points for s in p.streams}):
        rows = _replicate_rows(cfg, caps, stream)
        for p, cap, (row_nu, row_mc) in zip(est.points, caps, rows):
            for nu, mc, s in zip(p.values, p.max_components, p.streams):
                if s != stream:
                    continue
                if row_mc > cap or row_mc != mc or abs(row_nu - nu) > 1e-12:
                    return False
    return True


# ---------------------------------------------------------------------------
# Coarse-to-fine gap demo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapDemoRow:
    replicate: int
    nu_initial: float
    nu_pipeline: float
    gap: float
    density_ok: bool
    pipeline_components: int  # descriptive: how fragmented the final set is


@dataclass(frozen=True)
class GapDemoReport:
    c: float
    eps: float
    n: int
    replicates: int
    base_seed: int
    delta: float
    cap_initial: int
    cap_pipeline: int
    rows: Tuple[GapDemoRow, ...]
    pass_fraction: float


def _gap_demo_row(cfg: ExperimentConfig, eps: float, cap_initial: int, r: int) -> GapDemoRow:
    g = _generate(cfg, r)
    start = greedy_fragment(g, cap_initial)
    inside = np.frombuffer(start.mask, dtype=bool)
    fine = _pipeline_fragment(g, inside, eps)
    gap = (start.mask.count(1) - fine.mask.count(1)) / cfg.n
    return GapDemoRow(
        replicate=r,
        nu_initial=start.nu,
        nu_pipeline=fine.nu,
        gap=gap,
        density_ok=_components_pass_density(g, inside, eps),
        pipeline_components=fine.component_count,
    )


def gap_demo(
    c: float,
    eps: float,
    n: int,
    replicates: int,
    seed: int = 0,
    jobs: int = 1,
) -> GapDemoReport:
    """Measure the kept-fraction gap between a coarse cap and cap ``ceil(3/eps)``.

    Per replicate: fragment greedily at cap ``floor(delta*n)`` (the
    certified ``delta`` is so small that this floors at the clamp value 1
    for any desk-scale ``n``), then run the pipeline on that set and
    record the gap plus the density status of the starting components.
    The run's :class:`ExperimentConfig` is validated before any replicate.
    """
    cap_pipeline = component_cap(eps)
    cfg = ExperimentConfig("gnp", n, replicates, seed, c=c, k_grid=(cap_pipeline,))
    cfg.validate()
    delta = admissible_delta(c, eps)
    cap_initial = max(1, math.floor(delta * n))
    rows = tuple(_replicate_map(partial(_gap_demo_row, cfg, eps, cap_initial), replicates, jobs))
    passed = sum(1 for row in rows if row.gap <= eps + 1e-12)
    return GapDemoReport(
        c=c,
        eps=eps,
        n=n,
        replicates=replicates,
        base_seed=seed,
        delta=delta,
        cap_initial=cap_initial,
        cap_pipeline=cap_pipeline,
        rows=rows,
        pass_fraction=passed / replicates,
    )


# ---------------------------------------------------------------------------
# Concentration and monotone inverse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    grid_value: float
    mean: float
    stddev: float
    max_abs_dev: float
    ratio: Optional[float]
    flagged: bool


@dataclass(frozen=True)
class ConcentrationReport:
    threshold: float
    rows: Tuple[ConcentrationRow, ...]


def concentration_report(est: CurveEstimate, threshold: float = 0.05) -> ConcentrationReport:
    """Replicate spread per grid point, flagging points with stddev/mean above threshold."""
    rows = []
    for p in est.points:
        if len(p.values) < 2:
            raise ValueError("concentration report needs at least 2 replicates")
        mean = p.mean
        sd = p.stddev
        ratio = sd / mean if mean > 0 else None
        rows.append(
            ConcentrationRow(
                grid_value=p.grid_value,
                mean=mean,
                stddev=sd,
                max_abs_dev=max(abs(v - mean) for v in p.values),
                ratio=ratio,
                flagged=ratio is not None and ratio > threshold,
            )
        )
    return ConcentrationReport(threshold, tuple(rows))


def empirical_slopes(est: CurveEstimate) -> Tuple[Tuple[float, float, float], ...]:
    """Finite-difference slopes of the estimated curve between grid points.

    Purely descriptive: returns ``(lo, hi, slope)`` per consecutive grid
    pair, computed from per-point means. Whether the underlying curve is
    strictly increasing is left open; no conclusion is drawn here. Two
    points at one grid value raise ``ValueError``.
    """
    pts = sorted(est.points, key=lambda p: p.grid_value)
    if len(pts) < 2:
        raise ValueError("need at least two grid points for slopes")
    out = []
    for a, b in zip(pts, pts[1:]):
        lo, hi = float(a.grid_value), float(b.grid_value)
        if lo == hi:
            raise ValueError(f"two grid points at {lo}: no slope between them")
        out.append((lo, hi, (b.mean - a.mean) / (hi - lo)))
    return tuple(out)


def pool_adjacent_violators(values: Sequence[float]) -> list[float]:
    """Nondecreasing least-squares projection with equal weights."""
    blocks: list[list[float]] = []  # [sum, count]
    for v in values:
        blocks.append([float(v), 1.0])
        while len(blocks) >= 2 and blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]:
            s, cnt = blocks.pop()
            blocks[-1][0] += s
            blocks[-1][1] += cnt
    out: list[float] = []
    for s, cnt in blocks:
        out.extend([s / cnt] * int(cnt))
    return out


def monotone_inverse(est: CurveEstimate) -> Callable[[float], float]:
    """Inverse of the monotone-regularized empirical curve.

    The per-point means are first made nondecreasing (pool-adjacent-
    violators), then inverted piecewise-linearly: ``inv(z)`` is the
    smallest grid value at which the regularized curve reaches ``z``.
    Targets outside the curve's range clamp to the nearest grid end.
    """
    pts = sorted(est.points, key=lambda p: p.grid_value)
    xs = [float(p.grid_value) for p in pts]
    ys = pool_adjacent_violators([p.mean for p in pts])
    level_y: list[float] = []
    level_x: list[float] = []
    for x, y in zip(xs, ys):
        if not level_y or y > level_y[-1]:
            level_y.append(y)
            level_x.append(x)  # leftmost grid value reaching each level

    def inverse(z: float) -> float:
        if z <= level_y[0]:
            return level_x[0]
        if z >= level_y[-1]:
            return level_x[-1]
        i = bisect_left(level_y, z)
        y0, y1 = level_y[i - 1], level_y[i]
        x0, x1 = level_x[i - 1], level_x[i]
        return x0 + (x1 - x0) * (z - y0) / (y1 - y0)

    return inverse


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _grid_token(kind: str, value: float) -> str:
    """A grid value as the CSV holds it."""
    if kind == "k":
        return str(int(value))
    text = _fmt9(value)
    return text if "." in text or "e" in text.lower() else text + ".0"


def _grid_tokens(kind: str, values: Sequence[float]) -> list[str]:
    """Grid values as the CSV holds them; ``ValueError`` if two are written alike."""
    tokens = [_grid_token(kind, v) for v in values]
    if len(set(tokens)) != len(tokens):
        raise ValueError(f"grid values repeat as written to CSV: {', '.join(tokens)}")
    return tokens


def save_results(est: CurveEstimate, path) -> None:
    """Write an estimate as CSV, one row per (grid point, replicate).

    Floats carry 9 significant digits; ``x``-grid values always keep a
    decimal point so the grid kind survives a round trip. Grid values
    that would be written alike raise ``ValueError`` before the file is
    opened, since their rows could not be told apart on loading.
    """
    tokens = _grid_tokens(est.grid_kind, [p.grid_value for p in est.points])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for gtxt, p in zip(tokens, est.points):
            for i, nu in enumerate(p.values):
                writer.writerow(
                    [
                        est.model,
                        _fmt9(est.param),
                        est.n,
                        gtxt,
                        i,
                        _fmt9(nu),
                        p.max_components[i],
                        p.streams[i],
                    ]
                )


def load_results(path) -> CurveEstimate:
    """Read a results CSV back into a :class:`CurveEstimate`.

    Schema violations (wrong header, malformed fields, out-of-range
    values, a repeated replicate of a grid value, unbalanced replicate
    counts) raise :class:`ResultsFormatError` naming the offending line.
    Method and base seed are not part of the file format and load as
    ``None``.
    """
    groups: dict[str, list] = {}
    first_line: dict[str, int] = {}
    seen: set[tuple[float, int]] = set()
    model = param = n = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ResultsFormatError("line 1: empty file") from None
        if header != CSV_HEADER:
            raise ResultsFormatError(
                f"line 1: expected header {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ResultsFormatError(
                    f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            try:
                r_model = row[0]
                r_param = float(row[1])
                r_n = int(row[2])
                gtoken = row[3]
                grid_value = float(gtoken)
                replicate = int(row[4])
                nu = float(row[5])
                max_component = int(row[6])
                stream = int(row[7])
            except ValueError:
                raise ResultsFormatError(f"line {lineno}: malformed field") from None
            if not math.isfinite(grid_value):
                raise ResultsFormatError(f"line {lineno}: grid value not finite: {gtoken}")
            if not 0.0 <= nu <= 1.0:
                raise ResultsFormatError(f"line {lineno}: nu out of range: {nu}")
            if max_component < 0 or replicate < 0 or stream < 0 or r_n < 1:
                raise ResultsFormatError(f"line {lineno}: negative count field")
            if model is None:
                model, param, n = r_model, r_param, r_n
            elif (r_model, r_param, r_n) != (model, param, n):
                raise ResultsFormatError(
                    f"line {lineno}: inconsistent model/param/n across rows"
                )
            if (grid_value, replicate) in seen:
                raise ResultsFormatError(
                    f"line {lineno}: repeated replicate {replicate} of grid value {gtoken}"
                )
            seen.add((grid_value, replicate))
            groups.setdefault(gtoken, []).append((nu, max_component, stream))
            first_line.setdefault(gtoken, lineno)
    if not groups:
        raise ResultsFormatError("line 2: no data rows")
    sizes = {len(rows) for rows in groups.values()}
    if len(sizes) != 1:
        raise ResultsFormatError("unbalanced replicate counts across grid values")
    kind = "x" if any("." in t or "e" in t.lower() for t in groups) else "k"
    for token, lineno in first_line.items():
        value = float(token)
        if not (value >= 1 if kind == "k" else 0 < value <= 1):
            raise ResultsFormatError(f"line {lineno}: {kind} grid value out of range: {token}")
    points = tuple(
        CurvePoint(
            grid_value=float(token) if kind == "x" else int(token),
            values=tuple(v for v, _, _ in rows),
            max_components=tuple(mc for _, mc, _ in rows),
            streams=tuple(st for _, _, st in rows),
        )
        for token, rows in groups.items()
    )
    return CurveEstimate(model=model, param=param, n=n, grid_kind=kind, points=points)
