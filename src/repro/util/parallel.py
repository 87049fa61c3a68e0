"""Multi-core fan-out: ordered map over serial/thread/process backends.

The cold programming path is vectorized (~50x), so the remaining
wall-clock bottlenecks outside serving are the *serial fan-outs*
wrapped around it: :meth:`~repro.engine.server.FrameServer.warmup`
programs every (model, die) pair one at a time, the capacity planner
(:mod:`repro.analysis.capacity`) walks its scenario x policy x nodes grid
sequentially, and the registry sweeps (``repro sweep``,
:mod:`repro.analysis.robustness_report`) iterate platforms and fault
rates in one process.  Each of those is a list of *independent* tasks —
exactly the unit of process parallelism an OASIS-style fleet of
deterministic dies suggests.

:func:`parallel_map` maps a task function over such a list and merges the
results **in task order**, so the caller sees the exact sequence a plain
``[fn(t) for t in tasks]`` loop would produce.  That ordered merge is the
load-bearing contract: every report built on top (``ServeReport``,
``CapacityReport``, the robustness table) must be **byte-identical**
under every backend, and the repo's bit-identity golden tests run under
all three (``tests/test_parallel_equivalence.py``).

Task requirements (the caller's side of the contract):

* **pure** — a task must not mutate shared state; anything it needs goes
  in its task description, anything it produces comes back in its return
  value (the ``process`` backend runs it in another address space, so
  side effects are silently lost — the classic parallelism bug);
* **picklable** — task descriptions and results cross a process
  boundary; keep them to plain data (dataclasses, numpy arrays, dicts)
  and define task functions at module level;
* **deterministically seeded** — a task that draws randomness must
  derive its generator from seeds in its own description
  (:func:`repro.util.rng.derive_rng`), never from global or ambient
  state, or the ordered merge preserves order but not bits.

**Start method.** Process pools are pinned to the explicit ``spawn``
start method, never the platform default.  ``fork`` (Linux's default)
duplicates the parent mid-flight — including live BLAS/OpenMP thread
pools, whose forked locks can deadlock or silently corrupt state — and
makes worker state depend on *when* the pool was forked.  ``spawn``
children import the task module fresh, so a task sees exactly what its
description says, on every platform, every run.  The price is a one-time
interpreter start + import per worker — which is why pools persist.

**Persistent pools.** Executors are created lazily in a module-level
registry keyed by ``(backend, workers)`` and **reused across
parallel_map calls** within a run: warmup, the capacity grid and the
registry sweeps share one set of spawned workers instead of paying the
spawn+import tax per fan-out.  :func:`shutdown_pools` tears the registry
down (also registered via ``atexit``), and :func:`pool_scope` wraps a
block with a teardown for tests.  Tasks are submitted in chunks
(:meth:`ParallelConfig.resolve_chunksize`) to amortize per-task IPC
without disturbing the ordered merge.

**Zero-copy transport.** On the process backend, task descriptions and
results whose ndarrays reach ``ParallelConfig.shm_min_bytes`` ride
shared-memory segments (:mod:`repro.util.shm`) instead of the IPC pipe:
workers read task arrays as zero-copy views and ship result arrays back
by name.  The encoding falls back to plain pickling transparently —
per payload on encode failure, wholesale when shared memory is
unavailable or ``shm_min_bytes`` is ``None`` — and is bit-identical by
construction, so the merge contract is unchanged.

The ``thread`` backend exists for tasks that release the GIL (large BLAS
calls) and for exercising the contract cheaply in tests; ``process`` is
the backend that buys wall-clock on multi-core hosts.  Both degrade to
the serial loop when only one worker is available, so ``--workers 1`` is
*the* serial path, not a one-worker pool.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.util import shm

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Supported executor backends, in "cheapest first" order.
BACKENDS: tuple[str, ...] = ("serial", "thread", "process")

#: The pinned start method for process pools (see the module docstring).
START_METHOD: str = "spawn"


@dataclass(frozen=True)
class ParallelConfig:
    """Executor selection for one fan-out (backend + worker count).

    Parameters
    ----------
    backend:
        One of :data:`BACKENDS`.  ``serial`` is the default and the
        reference semantics; ``thread``/``process`` must produce
        byte-identical results (see the module docstring for the task
        contract).
    workers:
        Worker count; ``None`` means "one per available core".  A value
        of 1 degrades any backend to the serial loop.
    chunksize:
        Tasks submitted per worker round-trip; ``None`` picks
        ``ceil(tasks / (workers * 4))`` so each worker sees ~4 chunks —
        large enough to amortize per-task IPC, small enough to balance
        uneven task costs.  Chunking never reorders the merge.
    shm_min_bytes:
        Process-backend transport threshold: ndarrays of at least this
        many bytes in a task description or result ride shared-memory
        segments instead of the IPC pipe (:mod:`repro.util.shm`).
        ``None`` disables the shared-memory path entirely (plain
        pickling, the pre-persistent-pools behavior).
    """

    backend: str = "serial"
    workers: int | None = None
    chunksize: int | None = None
    shm_min_bytes: int | None = shm.DEFAULT_MIN_BYTES

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.workers is not None and self.workers <= 0:
            raise ValueError(
                f"workers must be positive or None, got {self.workers}"
            )
        if self.chunksize is not None and self.chunksize <= 0:
            raise ValueError(
                f"chunksize must be positive or None, got {self.chunksize}"
            )
        if self.shm_min_bytes is not None and self.shm_min_bytes < 0:
            raise ValueError(
                "shm_min_bytes must be non-negative or None, got "
                f"{self.shm_min_bytes}"
            )

    def resolve_workers(self) -> int:
        """Concrete worker count (``None`` -> available cores)."""
        if self.workers is not None:
            return self.workers
        return available_cores()

    def resolve_chunksize(self, num_tasks: int) -> int:
        """Concrete chunk size for a fan-out of ``num_tasks`` tasks."""
        if self.chunksize is not None:
            return self.chunksize
        busy = max(1, min(self.resolve_workers(), num_tasks))
        return max(1, -(-num_tasks // (busy * 4)))

    @property
    def effective_backend(self) -> str:
        """The backend after the one-worker degeneracy rule.

        ``--workers 1`` (or a one-core host with ``workers=None``) runs
        the plain serial loop regardless of the requested backend — a
        one-worker pool would add dispatch overhead and change nothing
        else, and the serial pin keeps "parallel off" a single code path.
        """
        if self.backend == "serial" or self.resolve_workers() <= 1:
            return "serial"
        return self.backend

    @property
    def is_serial(self) -> bool:
        """Whether this config runs the plain in-process loop."""
        return self.effective_backend == "serial"


def available_cores() -> int:
    """Cores usable by this process (affinity-aware where supported)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# Persistent pool registry
# --------------------------------------------------------------------------
_pools: dict[tuple[str, int], Executor] = {}
_pools_lock = threading.Lock()


def _pool_for(backend: str, workers: int) -> Executor:
    """The shared executor for ``(backend, workers)``, created lazily.

    The pool is sized at the *configured* worker count, not clamped to
    any one fan-out's task count, so warmup (8 tasks) and the capacity
    grid (dozens) share the same spawned workers.
    """
    key = (backend, workers)
    with _pools_lock:
        pool = _pools.get(key)
        if pool is None:
            if backend == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-parallel"
                )
            else:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context(START_METHOD),
                )
            _pools[key] = pool
        return pool


def _discard_pool(backend: str, workers: int) -> None:
    """Drop one registry entry (after a worker crash broke the pool)."""
    with _pools_lock:
        pool = _pools.pop((backend, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def active_pools() -> tuple[tuple[str, int], ...]:
    """The live registry keys (for tests and diagnostics)."""
    with _pools_lock:
        return tuple(_pools)


def shutdown_pools() -> int:
    """Tear down every registered pool; returns how many were shut down.

    Safe to call at any time: the next :func:`parallel_map` simply
    re-creates what it needs.  Registered via ``atexit`` so a run never
    leaks worker processes.
    """
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)
    return len(pools)


@contextmanager
def pool_scope() -> Iterator[None]:
    """Context manager guaranteeing pool teardown at block exit.

    For tests and short-lived embedders: pools created inside the block
    (or inherited from before it) are all shut down on exit, so no
    worker processes outlive the scope.
    """
    try:
        yield
    finally:
        shutdown_pools()


atexit.register(shutdown_pools)


def _noop(_task: Any) -> None:
    """Do-nothing task used to force worker startup ahead of timing."""
    return None


def warm_pools(parallel: ParallelConfig | None) -> None:
    """Pre-spawn the pool a config would use (no-op for serial configs).

    Process workers are spawned lazily on first submission; benches that
    want to measure *reused-pool* fan-out latency call this first so the
    spawn+import tax is paid outside the timed region.
    """
    config = parallel or ParallelConfig()
    if config.is_serial:
        return
    workers = config.resolve_workers()
    # Two tasks per worker: enough submissions to start every worker.
    parallel_map(_noop, range(2 * workers), config)


# --------------------------------------------------------------------------
# Shared-memory task execution (process backend)
# --------------------------------------------------------------------------
def _shm_call(blob: bytes) -> bytes:
    """Worker-side trampoline: decode task views, run, encode result.

    The task blob decodes to ``(fn, task, min_bytes)`` with large arrays
    as read-only views into main-created segments; the result is encoded
    into worker-created segments the main process copies out and
    unlinks.  Falls back to plain pickling of the result if segment
    creation fails (e.g. shared memory exhausted) — the main-side decode
    accepts both forms.
    """
    import pickle

    obj, attachments = shm.loads(blob, copy=False)
    try:
        fn, task, min_bytes = obj
        result = fn(task)
        try:
            payload = shm.dumps(result, min_bytes)
            out = payload.blob
        except Exception:
            out = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        del result
        return out
    finally:
        del obj
        shm.close_attachments(attachments)


def _map_via_shm(
    pool: Executor,
    fn: Callable[[_Task], _Result],
    items: Sequence[_Task],
    config: ParallelConfig,
    chunksize: int,
) -> list[_Result] | None:
    """Ordered map with shared-memory transport; ``None`` -> fall back.

    Encoding failures (no shared memory on this platform, segment
    creation refused) abort cleanly before any task runs, unlinking the
    partially created segments, and the caller falls back to the plain
    pickling path.
    """
    if not shm.shm_available():
        return None
    min_bytes = config.shm_min_bytes
    payloads: list[shm.ShmPayload] = []
    try:
        for item in items:
            payloads.append(shm.dumps((fn, item, min_bytes), min_bytes))
    except Exception:
        for payload in payloads:
            shm.unlink_segments(payload.segments)
        return None
    try:
        blobs = list(
            pool.map(_shm_call, [p.blob for p in payloads], chunksize=chunksize)
        )
    finally:
        for payload in payloads:
            shm.unlink_segments(payload.segments)
    return [shm.loads(blob, copy=True, unlink=True)[0] for blob in blobs]


def parallel_map(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    parallel: ParallelConfig | None = None,
) -> list[_Result]:
    """Map ``fn`` over ``tasks``, merging results **in task order**.

    Semantically identical to ``[fn(task) for task in tasks]`` under
    every backend — ``Executor.map`` yields results in submission order
    no matter which worker finishes first, so the merged list (and
    therefore every report assembled from it) is byte-identical to the
    serial run *provided the tasks honour the purity/picklability/
    seeding contract* (module docstring).  Exceptions raised by a task
    propagate to the caller under every backend.

    The executor comes from the persistent registry (:func:`_pool_for`)
    and stays alive for the next call; a pool broken by a worker crash
    is discarded so the next call starts fresh.

    Parameters
    ----------
    fn:
        Task function; must be defined at module level for the
        ``process`` backend (bound methods and closures do not pickle).
    tasks:
        Task descriptions; materialized once, so generators are fine.
    parallel:
        Backend selection; ``None`` (or a serial/one-worker config) runs
        the plain loop.
    """
    config = parallel or ParallelConfig()
    items: Sequence[_Task] = list(tasks)
    backend = config.effective_backend
    if backend == "serial" or len(items) <= 1:
        return [fn(item) for item in items]
    workers = config.resolve_workers()
    chunksize = config.resolve_chunksize(len(items))
    pool = _pool_for(backend, workers)
    try:
        if backend == "process" and config.shm_min_bytes is not None:
            merged = _map_via_shm(pool, fn, items, config, chunksize)
            if merged is not None:
                return merged
        return list(pool.map(fn, items, chunksize=chunksize))
    except BrokenExecutor:
        _discard_pool(backend, workers)
        raise


__all__ = [
    "BACKENDS",
    "START_METHOD",
    "ParallelConfig",
    "active_pools",
    "available_cores",
    "parallel_map",
    "pool_scope",
    "shutdown_pools",
    "warm_pools",
]
