"""Population sizing and scalability sweeps.

Sizing follows bracket-and-halve: double from 16 until a full batch of runs
succeeds, then bisect (even population sizes only) until the bracket is
within 10% of its succeeding bound.  :func:`next_probe` picks each size from
the probe history alone, and :func:`bisect_population_size` runs the batches.
Sweeps size every (algorithm, instance) cell of a plan and emit a CSV plus a
log-log SVG plot.

With ``workers > 1`` runs execute in worker processes that live for one
top-level call (every plan of a ``gpscale sweep``, or one sweep, sizing or
batch), each fed runs over its own pipe in seed order.  :func:`worker_pool`
decides which pool a call runs on; :mod:`gpscale.pool` holds the workers.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import statistics
from contextlib import closing, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, get_type_hints

from .gp import DEFAULT_MAX_GENERATIONS, GpConfig, RunResult, run_gp
from .pipe import run_pipe
from .problems import ProblemSpec, order_problem, trap_problem
from .trees import Node, default_max_depth, minimum_optimum_depth

if TYPE_CHECKING:
    from .pool import WorkerPool

ALGORITHMS = ("gp", "pipe")
DEFAULT_RUNS = 30
DEFAULT_POP_CEILING = 2**20
START_POP = 16
BRACKET_FRACTION = 0.10
# Spreads the per-size seed streams apart so no two probe sizes share seeds.
_SIZE_SEED_STRIDE = 1_000_003
_ROW_SEED_STRIDE = 1_000_000


class SizingFailure(Exception):
    """Doubling passed the population ceiling without a fully successful batch."""

    def __init__(
        self,
        ceiling: int,
        last_pop_size: int,
        last_results: list[RunResult],
        history: list[tuple[int, bool]],
    ) -> None:
        self.ceiling = ceiling
        self.last_pop_size = last_pop_size
        self.last_results = last_results
        self.history = history
        runs = len(last_results)
        solved = sum(r.success for r in last_results)
        super().__init__(
            f"no fully successful batch at any population size up to {last_pop_size} "
            f"(ceiling {ceiling}); last batch stopped at its first failure after "
            f"{runs} run{'s' * (runs != 1)}, {solved} of them solved"
        )

    @property
    def success_rate(self) -> float:
        if not self.last_results:
            return 0.0
        return sum(r.success for r in self.last_results) / len(self.last_results)


@dataclass(frozen=True)
class SizingResult:
    min_pop_size: int
    avg_evaluations: float
    runs: tuple[RunResult, ...]
    history: tuple[tuple[int, bool], ...]


def run_algorithm(
    algo: str,
    problem: ProblemSpec,
    cfg: GpConfig,
    observer: Callable[[int, list[Node]], None] | None = None,
    **engine_options,
) -> RunResult:
    """One run of ``algo``; further keyword arguments go to the engine, such
    as :func:`run_pipe`'s ``model_observer``."""
    if algo == "gp":
        return run_gp(problem, cfg, observer, **engine_options)
    if algo == "pipe":
        return run_pipe(problem, cfg, observer, **engine_options)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


_open_pool: ContextVar[WorkerPool | None] = ContextVar("_open_pool", default=None)


@contextmanager
def worker_pool(workers: int) -> Iterator[WorkerPool | None]:
    """The process pool of the enclosing top-level call; None at one worker.

    ``batch_success``, ``bisect_population_size`` and ``scalability_sweep``
    each open this scope, so a caller that wraps several calls in it runs them
    all on one pool.  A call inside an open scope reuses its pool; the call
    that opened the pool closes it on every exit, which stops and joins the
    workers.  Each batch on it is one :meth:`WorkerPool.results` stream.
    """
    if workers <= 1:
        yield None
        return
    pool = _open_pool.get()
    if pool is not None:
        yield pool
        return
    from .pool import WorkerPool  # one-worker runs never load the pool code

    pool = WorkerPool(workers)
    token = _open_pool.set(pool)
    try:
        yield pool
    finally:
        _open_pool.reset(token)
        pool.close()


def collect_batch(results: Iterator[RunResult]) -> list[RunResult]:
    """Read a batch's results up to its first failing run, then close the stream.

    The read is lazy and goes no further, so a stream that starts each run
    only when it is read never starts the runs after that one.  A run that
    raises ends the read with its exception.
    """
    batch: list[RunResult] = []
    with closing(results):
        for result in results:
            batch.append(result)
            if not result.success:
                break
    return batch


def batch_success(
    problem: ProblemSpec,
    algo: str,
    pop_size: int,
    n_runs: int = DEFAULT_RUNS,
    seed_base: int = 0,
    *,
    max_depth: int | None = None,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    workers: int = 1,
) -> tuple[bool, list[RunResult]]:
    """Run ``n_runs`` independent runs seeded ``seed_base + i``; True iff all
    succeed.  The batch stops at its first failing run, so a failed batch
    returns a partial list that ends with that run.  The result does not
    depend on ``workers``; a ``max_depth`` no optimum fits raises ValueError.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    num_pairs = problem.primitives.num_pairs
    if max_depth is None:
        max_depth = default_max_depth(num_pairs)
    elif max_depth < (least := minimum_optimum_depth(num_pairs)):
        raise ValueError(f"max_depth {max_depth} fits no optimum at l={num_pairs}; use >= {least}")
    jobs = [
        (algo, problem, GpConfig(pop_size, max_depth, max_generations, seed=seed_base + i))
        for i in range(n_runs)
    ]
    with worker_pool(workers) as pool:
        stream = pool.results(jobs) if pool is not None else (run_algorithm(*job) for job in jobs)
        results = collect_batch(stream)
    return all(r.success for r in results), results


def _nearest_even(x: float) -> int:
    return 2 * round(x / 2)


def _mean_evaluations(results: Sequence[RunResult]) -> float:
    """Mean evaluations of the solved runs; 0.0 if none solved."""
    solved = [r.evaluations for r in results if r.success]
    return statistics.fmean(solved) if solved else 0.0


def next_probe(history: Sequence[tuple[int, bool]], ceiling: int) -> int | None:
    """The next population size to probe after ``history``, or None when the
    sizing is over; ``history`` holds the ``(size, passed)`` probes so far.

    ``lo`` is the largest failing size (2 if none failed) and ``hi`` the
    smallest passing one (0 if none passed).  Until a probe passes, sizes
    double from ``START_POP`` up to ``ceiling``; after that, even midpoints
    bisect the bracket until it is within 10% of ``hi`` or holds no even size.
    """
    if not history:
        return START_POP
    lo = max((n for n, ok in history if not ok), default=2)
    hi = min((n for n, ok in history if ok), default=0)
    if not hi:
        return 2 * lo if 2 * lo <= ceiling else None
    n = _nearest_even((lo + hi) / 2)
    return n if hi - lo > BRACKET_FRACTION * hi and lo < n < hi else None


def bisect_population_size(
    problem: ProblemSpec,
    algo: str,
    seed_base: int = 0,
    *,
    n_runs: int = DEFAULT_RUNS,
    max_depth: int | None = None,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    ceiling: int = DEFAULT_POP_CEILING,
    workers: int = 1,
) -> SizingResult:
    """Smallest population size (to a 10% bracket) at which a whole batch of
    ``algo`` solves ``problem``.

    Each probe is one :func:`batch_success` batch at the size
    :func:`next_probe` picks from the probe history, seeded on its own stream
    per size.  So the probed sizes depend on the history alone, and its
    ``(size, passed)`` pairs replay the sizing.  The result holds the
    smallest passing size's full batch, which alone feeds the reported
    average.  A sizing whose every probe up to ``ceiling`` failed raises
    :class:`SizingFailure`.
    """
    if ceiling < START_POP:
        raise ValueError(f"ceiling {ceiling} is below the starting size {START_POP}")
    history: list[tuple[int, bool]] = []
    passed: dict[int, list[RunResult]] = {}
    with worker_pool(workers):
        while (n := next_probe(history, ceiling)) is not None:
            ok, results = batch_success(
                problem,
                algo,
                n,
                n_runs,
                seed_base + _SIZE_SEED_STRIDE * n,
                max_depth=max_depth,
                max_generations=max_generations,
                workers=workers,
            )
            history.append((n, ok))
            if ok:
                passed[n] = results
    if not passed:
        raise SizingFailure(ceiling, history[-1][0], results, history)
    hi = min(passed)
    return SizingResult(hi, _mean_evaluations(passed[hi]), tuple(passed[hi]), tuple(history))


@dataclass(frozen=True)
class RowSpec:
    """One sweep cell: an algorithm on one problem instance."""

    algorithm: str
    problem: str  # "order" | "trap"
    l: int
    k: int = 0
    delta: float = 0.0
    neg_join: bool = False
    num_junk: int = 0
    max_depth: int | None = None
    seed_base: int = 0

    def problem_spec(self) -> ProblemSpec:
        if self.problem == "trap":
            return trap_problem(self.l, self.k, self.delta, self.num_junk, self.neg_join)
        return order_problem(self.l, self.num_junk, self.neg_join)

    def resolved_max_depth(self) -> int:
        return self.max_depth if self.max_depth is not None else default_max_depth(self.l)


@dataclass(frozen=True)
class SweepRow:
    algorithm: str
    problem: str
    l: int
    num_junk: int
    neg_join: bool
    k: int
    delta: float
    max_depth: int
    pop_size: int
    avg_evaluations: float
    success_rate: float
    seed_base: int


_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


@dataclass(frozen=True)
class SweepPlan:
    name: str
    rows: tuple[RowSpec, ...]
    n_runs: int = DEFAULT_RUNS
    max_generations: int = DEFAULT_MAX_GENERATIONS
    ceiling: int = DEFAULT_POP_CEILING

    @property
    def x_field(self) -> str:
        """The ``SweepRow`` field a plot puts on its x axis."""
        return "num_junk" if self.name == "junk-fixed-l" else "l"


PLAN_NAMES = ("order", "trap", "order-neg", "order-junk", "junk-fixed-l")
_ORDER_SIZES = (5, 10, 20, 40, 60, 80, 100)
_TRAP_SIZES = (6, 12, 18, 21, 24, 33)
_JUNK_FIXED_L = 20
_JUNK_FIXED_COUNTS = (5, 10, 15, 20, 40)
_JUNK_FIXED_DEPTHS = (6, 7)


def build_plan(
    name: str,
    *,
    algorithms: Sequence[str] = ALGORITHMS,
    sizes: Sequence[int] | None = None,
    k: int = 3,
    delta: float = 1.0,
    seed_base: int = 0,
    n_runs: int = DEFAULT_RUNS,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    ceiling: int = DEFAULT_POP_CEILING,
) -> SweepPlan:
    """Expand a named plan into per-cell row specs.

    ``order``/``trap``/``order-neg`` sweep problem size; ``order-junk`` adds
    l/5 junk terminals per size; ``junk-fixed-l`` holds l=20 and sweeps the
    junk count at depth budgets 6 and 7.  ``sizes`` overrides the swept list
    (problem sizes, or junk counts for ``junk-fixed-l``).  Rows run cell by
    cell, one per algorithm.  Each cell's problem is built here, so a size,
    ``k`` or ``delta`` it rejects raises ValueError naming the plan before
    any run.
    """
    if not algorithms:
        raise ValueError(f"no algorithm given; expected some of {ALGORITHMS}")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if name == "order":
        cells = [dict(problem="order", l=l) for l in sizes or _ORDER_SIZES]
    elif name == "trap":
        cells = [dict(problem="trap", l=l, k=k, delta=delta) for l in sizes or _TRAP_SIZES]
    elif name == "order-neg":
        cells = [dict(problem="order", l=l, neg_join=True) for l in sizes or _ORDER_SIZES]
    elif name == "order-junk":
        cells = [dict(problem="order", l=l, num_junk=l // 5) for l in sizes or _ORDER_SIZES]
        for cell in cells:
            if cell["l"] % 5:
                raise ValueError(f"plan order-junk: size {cell['l']} is not divisible by 5")
    elif name == "junk-fixed-l":
        cells = [
            dict(problem="order", l=_JUNK_FIXED_L, num_junk=junk, max_depth=depth)
            for depth in _JUNK_FIXED_DEPTHS
            for junk in sizes or _JUNK_FIXED_COUNTS
        ]
    else:
        raise ValueError(f"unknown plan {name!r}; expected one of {PLAN_NAMES}")
    rows = tuple(
        RowSpec(algo, **cell, seed_base=seed_base + _ROW_SEED_STRIDE * i)
        for i, (cell, algo) in enumerate(itertools.product(cells, algorithms))
    )
    try:
        for row in rows:
            row.problem_spec()
    except ValueError as err:
        raise ValueError(f"plan {name}: {err}") from err
    return SweepPlan(name, rows, n_runs, max_generations, ceiling)


def scalability_sweep(
    plan: SweepPlan,
    *,
    workers: int = 1,
    log: Callable[[str], None] | None = None,
) -> list[SweepRow]:
    """Size every cell of the plan; cells that hit the population ceiling are
    flagged with success_rate < 1 instead of aborting the sweep.  A flagged
    cell's ``success_rate`` and ``avg_evaluations`` come from the ceiling
    batch, which stopped at its first failure: after m solved runs the rate
    reads m/(m+1), not a measured rate, and the average covers those m runs.

    With ``workers > 1`` one process pool serves the whole sweep.  An error
    from a run, or a crashed worker (``BrokenProcessPool``), fails the sweep.
    """
    out: list[SweepRow] = []
    with worker_pool(workers):
        for spec in plan.rows:
            problem = spec.problem_spec()
            max_depth = spec.resolved_max_depth()
            try:
                sizing = bisect_population_size(
                    problem,
                    spec.algorithm,
                    spec.seed_base,
                    n_runs=plan.n_runs,
                    max_depth=max_depth,
                    max_generations=plan.max_generations,
                    ceiling=plan.ceiling,
                    workers=workers,
                )
                pop_size = sizing.min_pop_size
                avg = sizing.avg_evaluations
                rate = 1.0
            except SizingFailure as failure:
                pop_size = failure.last_pop_size
                avg = _mean_evaluations(failure.last_results)
                rate = failure.success_rate
            row = SweepRow(
                **dataclasses.asdict(spec)
                | dict(max_depth=max_depth, pop_size=pop_size, avg_evaluations=avg,
                       success_rate=rate)
            )
            out.append(row)
            if log is not None:
                pairs = zip(_FIELDS, _row_values(row))
                log("row " + " ".join(f"{name}={value}" for name, value in pairs))
    return out


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_csv_value(text: str, kind: type):
    """Inverse of :func:`_csv_value` for a field of type ``kind``."""
    if kind is bool:
        return text == "true"
    return kind(text)


def _row_values(row: SweepRow) -> list[str]:
    return [_csv_value(getattr(row, name)) for name in _FIELDS]


def write_csv(rows: Sequence[SweepRow], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_FIELDS)
        writer.writerows(_row_values(row) for row in rows)


def read_csv(path: Path) -> list[SweepRow]:
    """Inverse of :func:`write_csv` (exact for every numeric field)."""
    kinds = get_type_hints(SweepRow)
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    return [
        SweepRow(**{name: _parse_csv_value(rec[name], kind) for name, kind in kinds.items()})
        for rec in records
    ]


def emit_report(
    rows: Sequence[SweepRow],
    out_dir: Path | str,
    basename: str = "sweep",
    x_field: str = "l",
) -> tuple[Path, Path]:
    """Write ``<basename>.csv`` and ``<basename>.svg`` under ``out_dir``.

    The plot is log-log with one polyline per series (per algorithm, split by
    depth budget when sweeping junk counts); cells flagged by a failed sizing
    are left out of the plot but stay in the CSV.
    """
    if not rows:
        raise ValueError("no rows to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{basename}.csv"
    svg_path = out / f"{basename}.svg"
    write_csv(rows, csv_path)
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row.success_rate < 1.0:
            continue
        label = row.algorithm
        if x_field == "num_junk":
            label = f"{row.algorithm} depth {row.max_depth}"
        series.setdefault(label, []).append(
            (float(getattr(row, x_field)), row.avg_evaluations)
        )
    svg_path.write_text(render_log_log_svg(series, _X_LABELS[x_field]))
    return csv_path, svg_path


_X_LABELS = {"l": "problem size", "num_junk": "junk terminals"}
_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_log_log_svg(
    series: dict[str, list[tuple[float, float]]], xlabel: str = "problem size"
) -> str:
    """Standalone SVG: log10 axes, decade ticks, one polyline per series."""
    import math

    width, height = 640, 480
    ml, mr, mt, mb = 70, 160, 20, 50
    logged = {
        label: [(math.log10(x), math.log10(y)) for x, y in sorted(data) if x > 0 and y > 0]
        for label, data in series.items()
    }

    def span(values: list[float]) -> tuple[float, float]:
        # no positive point at all (every cell flagged): bare axes, not a failure
        lo, hi = (min(values), max(values)) if values else (0.0, 2.0)
        return (lo - 0.5, hi + 0.5) if hi - lo < 1e-9 else (lo, hi)

    x0, x1 = span([x for pts in logged.values() for x, _ in pts])
    y0, y1 = span([y for pts in logged.values() for _, y in pts])

    def px(lx: float) -> float:
        return ml + (lx - x0) / (x1 - x0) * (width - ml - mr)

    def py(ly: float) -> float:
        return height - mb - (ly - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for d in range(math.floor(x0), math.ceil(x1) + 1):
        if x0 <= d <= x1:
            x = px(d)
            parts.append(
                f'<line x1="{x:.1f}" y1="{height - mb}" x2="{x:.1f}" '
                f'y2="{height - mb + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{height - mb + 18}" font-size="11" '
                f'text-anchor="middle">1e{d}</text>'
            )
    for d in range(math.floor(y0), math.ceil(y1) + 1):
        if y0 <= d <= y1:
            y = py(d)
            parts.append(
                f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{y + 4:.1f}" font-size="11" '
                f'text-anchor="end">1e{d}</text>'
            )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">'
        "fitness evaluations</text>"
    )
    for i, (label, plottable) in enumerate(sorted(logged.items())):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        if not plottable:
            continue
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in plottable)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in plottable:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        ly_pos = mt + 16 + 16 * i
        parts.append(
            f'<line x1="{width - mr + 10}" y1="{ly_pos - 4}" x2="{width - mr + 34}" '
            f'y2="{ly_pos - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - mr + 40}" y="{ly_pos}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
