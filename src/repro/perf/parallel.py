"""Process-pool parallel execution with deterministic merging.

Every experiment in this repository is a pure function of its arguments:
all randomness flows from seeds fixed inside each ``run()``, so a result
computed in a worker process is bit-identical to one computed inline.
Parallelism therefore only needs two properties to be invisible in the
output:

- **order-preserving merge** -- results are returned in request order,
  never completion order;
- **no nested pools** -- a worker that itself fans out would oversubscribe
  the machine, so workers run everything inline (:func:`in_worker`).

Two levels of fan-out share this module: :func:`run_experiments` runs
whole experiments in parallel (``repro-experiments --all --jobs N``) and
:func:`pmap` fans out independent design points *inside* one experiment
(``core.analysis.evaluate_designs``).  Both fall back to a plain serial
loop for ``jobs <= 1``, inside a worker, or when there is only one item,
so the serial path stays the trivially-auditable reference.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.perf.cache import ResultCache

T = TypeVar("T")
R = TypeVar("R")

_IN_WORKER = False

#: Process-wide job count for *intra*-experiment fan-out (the design/
#: benchmark grids inside one experiment).  Installed by the CLI's
#: ``--jobs``; read by ``evaluate_designs`` when no explicit ``jobs`` is
#: passed.  Inside a pool worker ``pmap`` runs serially regardless, so
#: the two fan-out levels never nest.
_INTRA_JOBS = 1


def _init_worker() -> None:
    """Pool initializer: mark this process so it never spawns sub-pools."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True inside a pool worker process."""
    return _IN_WORKER


def set_intra_jobs(jobs: int) -> None:
    """Set the process-wide intra-experiment fan-out width."""
    global _INTRA_JOBS
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _INTRA_JOBS = jobs


def intra_jobs() -> int:
    """Current intra-experiment fan-out width (1 = serial)."""
    return _INTRA_JOBS


def default_jobs() -> int:
    """Job count for ``--jobs 0``: one per available core."""
    return os.cpu_count() or 1


def _pool(jobs: int) -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=context, initializer=_init_worker
    )


def pmap(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> List[R]:
    """``[fn(x) for x in items]`` computed with up to ``jobs`` processes.

    Results come back in input order regardless of completion order, so
    callers see exactly the serial list.  ``fn`` and the items must be
    picklable (module-level functions; no closures).  Runs inline when
    parallelism cannot help or is unsafe (``jobs <= 1``, a single item,
    or already inside a worker).

    A pool worker that *dies* mid-item (OOM kill, segfault in a C
    extension, ``os._exit``) breaks the whole pool: every in-flight and
    queued future raises :class:`BrokenProcessPool` even though their
    items were never at fault.  Rather than losing the entire run to one
    bad worker, the affected items are recomputed serially in the parent
    -- once -- behind a :class:`RuntimeWarning`.  Exceptions *raised* by
    ``fn`` are not retried; they propagate exactly as in the serial path.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1 or _IN_WORKER:
        return [fn(item) for item in items]
    results: List[Any] = [None] * len(items)
    lost: List[int] = []
    with _pool(min(jobs, len(items))) as executor:
        futures = [executor.submit(fn, item) for item in items]
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                lost.append(index)
    if lost:
        warnings.warn(
            f"a process-pool worker died; recomputing {len(lost)} of "
            f"{len(items)} shards serially in the parent",
            RuntimeWarning,
            stacklevel=2,
        )
        for index in lost:
            results[index] = fn(items[index])
    return results


def pmap_iter(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    window: int = 0,
) -> Iterable[R]:
    """Ordered *streaming* :func:`pmap`: yields ``fn(x)`` results in
    input order as they become consumable, instead of materializing the
    whole result list.

    :func:`pmap` holds every result until the pool drains -- fine for a
    handful of experiment payloads, an RSS spike for a fan-out whose
    per-item payloads are large and immediately foldable.
    Here the caller folds each result as it arrives (``merge_telemetry``
    style) and at most ``window`` submissions are outstanding at once
    (default ``2 * jobs``), so peak memory is bounded by the fold state
    plus a constant number of in-flight payloads, not by the item
    count.

    Same contracts as :func:`pmap`: input order, serial-inline fallback
    (``jobs <= 1``, single item, or inside a worker -- the no-nested-
    pools guard), picklable ``fn``/items, and dead-worker recovery --
    an item lost to :class:`BrokenProcessPool` is recomputed serially,
    once, behind a :class:`RuntimeWarning`, preserving yield order.
    Exceptions raised by ``fn`` propagate as in the serial path.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1 or _IN_WORKER:
        for item in items:
            yield fn(item)
        return
    if window < 1:
        window = 2 * jobs
    with _pool(min(jobs, len(items))) as executor:
        pending: List[Any] = []
        submitted = 0
        broken = False
        while submitted < len(items) and len(pending) < window:
            pending.append(executor.submit(fn, items[submitted]))
            submitted += 1
        for consumed in range(len(items)):
            if pending:
                future = pending.pop(0)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    result = None
            else:
                broken = True
                result = None
            if broken and result is None:
                warnings.warn(
                    "a process-pool worker died; recomputing shard "
                    f"{consumed} of {len(items)} serially in the parent",
                    RuntimeWarning,
                    stacklevel=2,
                )
                result = fn(items[consumed])
            if submitted < len(items) and not broken:
                try:
                    pending.append(executor.submit(fn, items[submitted]))
                    submitted += 1
                except (BrokenProcessPool, RuntimeError):
                    broken = True
            yield result


def _run_named(task: Tuple[str, str, Dict[str, Any]]):
    """Module-level worker: run one experiment by name (picklable)."""
    name, method, overrides = task
    from repro.experiments.runner import run_experiment

    return run_experiment(name, method=method, **overrides)


def run_experiments(
    names: Sequence[str],
    method: str = "sim",
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[Tuple[str, Any]]:
    """Run experiments by name, optionally in parallel and/or cached.

    Returns ``[(name, ExperimentResult), ...]`` in the order of
    ``names``.  With a :class:`ResultCache`, hits are returned without
    recomputation and misses are stored after running; the cache key
    covers the experiment name, its parameters (``method`` for
    method-aware experiments, plus any ``overrides``), and a fingerprint
    of the package source, so results can never outlive the code that
    produced them.

    ``overrides`` maps experiment name -> extra keyword arguments for
    its ``run()`` (used by tests to shrink workloads).
    """
    from repro.experiments.runner import _METHOD_AWARE, run_experiment

    overrides = overrides or {}
    results: List[Optional[Any]] = [None] * len(names)
    misses: List[Tuple[int, Tuple[str, str, Dict[str, Any]], Optional[str]]] = []
    for index, name in enumerate(names):
        extra = dict(overrides.get(name, {}))
        key = None
        if cache is not None:
            params: Dict[str, Any] = dict(extra)
            if name in _METHOD_AWARE:
                params["method"] = method
            key = cache.key(name, params)
            hit = cache.get(key)
            if hit is not None:
                results[index] = hit
                continue
        misses.append((index, (name, method, extra), key))

    if misses:
        tasks = [task for _, task, _ in misses]
        if jobs > 1 and len(tasks) > 1 and not _IN_WORKER:
            # LPT order: submit the longest experiments first so the
            # sweep never ends on a straggler that started last.  Pure
            # scheduling -- results are mapped back to request order,
            # so the output is bit-identical to the serial path.
            from repro.experiments.runner import _COST_HINTS

            order = sorted(
                range(len(tasks)),
                key=lambda i: -_COST_HINTS.get(tasks[i][0], 2.0),
            )
            computed_lpt = pmap(
                _run_named, [tasks[i] for i in order], jobs=jobs
            )
            computed: List[Any] = [None] * len(tasks)
            for position, index in enumerate(order):
                computed[index] = computed_lpt[position]
        else:
            computed = [
                run_experiment(name, method=method, **extra)
                for name, method, extra in tasks
            ]
        for (index, _, key), result in zip(misses, computed):
            results[index] = result
            if cache is not None and key is not None:
                cache.put(key, result)

    return list(zip(names, results))


def merge_telemetry(parts: Iterable[Any]) -> Optional[Any]:
    """Fold per-worker telemetry shards in request order, losslessly.

    The ``--jobs N`` companion to :func:`pmap`: each worker fills its
    own accumulator, the parent folds them back in input order.  Works
    for anything with a lossless ``merge()`` --
    :class:`~repro.simulator.telemetry.LatencyHistogram`,
    :class:`~repro.simulator.telemetry.TimeSeries`,
    :class:`~repro.obs.metrics.MetricsRegistry` -- and inherits their
    raise-on-config-mismatch contract, so shards can never silently
    degrade.  The first non-``None`` shard is deep-copied (callers'
    shards are never mutated); returns ``None`` when every shard is.
    """
    merged = None
    for part in parts:
        if part is None:
            continue
        if merged is None:
            merged = copy.deepcopy(part)
        else:
            merged.merge(part)
    return merged


def chunked(items: Sequence[T], size: int) -> Iterable[List[T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    for start in range(0, len(items), size):
        yield list(items[start : start + size])
