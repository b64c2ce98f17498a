"""Process-parallel multi-chain search: the paper's 16-thread runs.

The paper spreads every search over 16 threads (Section 6) and relies on
that restart parallelism for its wall-clock numbers.  CPython's GIL makes
thread parallelism useless for a pure-Python interpreter loop, so this
module fans independent seeded chains out over a ``multiprocessing``
worker pool instead.

Design constraints, in order:

1. **Determinism.**  Chain *i* always runs with seed ``config.seed + i``
   and is a pure function of its :class:`StokeSpec` and
   :class:`~repro.core.search.SearchConfig`; results are collected into
   seed order before aggregation.  A fixed seed list therefore produces
   bit-identical aggregate results (best cost, best rewrite, per-chain
   stats — everything except wall-clock timings) for any worker count,
   including the in-process ``jobs=1`` path.
2. **Workers rebuild, never unpickle, the optimizer.**  Each worker
   process builds its own ``Stoke``/``CostFunction`` once, from a small
   picklable :class:`StokeSpec` (or a picklable zero-argument factory for
   exotic setups), then serves many chains from it.  Only specs, configs,
   and :class:`~repro.core.result.SearchResult` values cross the process
   boundary.
3. **Streaming.**  Results are streamed back as chains finish
   (``imap_unordered``); pass ``on_result`` to observe completions live.
   Every ``SearchResult`` carries its seed and full stats, so
   ``result.telemetry`` keeps parallel runs debuggable per chain.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.x86.program import Program
from repro.x86.testcase import TestCase

from repro.core.cost import CostConfig
from repro.core.result import SearchResult
from repro.core.runner import Location
from repro.core.search import SearchConfig, Stoke
from repro.core.strategies import Strategy
from repro.core.transforms import Transforms


@dataclass(frozen=True)
class StokeSpec:
    """Picklable recipe for constructing a :class:`Stoke` in a worker.

    Covers everything a plain ``Stoke`` needs; setups with a
    ``slow_check`` (closures do not pickle) must pass a module-level
    zero-argument factory instead.
    """

    target: Program
    tests: Tuple[TestCase, ...]
    live_outs: Tuple[Union[str, Location], ...]
    cost_config: CostConfig = CostConfig()
    backend: str = "jit"
    transforms: Optional[Transforms] = None

    @classmethod
    def from_stoke(cls, stoke: Stoke) -> "StokeSpec":
        """Derive the spec that reconstructs an existing optimizer."""
        if stoke.slow_check is not None:
            raise ValueError(
                "cannot derive a picklable spec from a Stoke with a "
                "slow_check; pass a StokeSpec or zero-argument factory "
                "explicitly (see run_restarts(spec=...))")
        return cls(
            target=stoke.target,
            tests=tuple(stoke.cost_fn.tests),
            live_outs=tuple(stoke.cost_fn.runner.live_outs),
            cost_config=stoke.cost_fn.config,
            backend=stoke.cost_fn.runner.backend,
            transforms=stoke.transforms,
        )

    def build(self) -> Stoke:
        return Stoke(
            self.target,
            list(self.tests),
            list(self.live_outs),
            cost_config=self.cost_config,
            transforms=self.transforms,
            backend=self.backend,
        )


SpecLike = Union[StokeSpec, Callable[[], Stoke]]


def build_stoke(spec: SpecLike) -> Stoke:
    """Build an optimizer from a spec or factory."""
    return spec.build() if isinstance(spec, StokeSpec) else spec()


def default_jobs(chains: Optional[int] = None) -> int:
    """CPU-count-aware worker count, capped at the number of chains."""
    cores = os.cpu_count() or 1
    if chains is None:
        return max(1, cores)
    return max(1, min(cores, chains))


def resolve_jobs(jobs: Optional[int], chains: int) -> int:
    """Normalize a user-facing ``jobs`` value (``None``/``0`` = auto)."""
    if jobs is None or jobs == 0:
        return default_jobs(chains)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return min(jobs, chains) if chains else jobs


def chain_configs(config: SearchConfig, chains: int) -> List[SearchConfig]:
    """Derived per-chain configs: seeds ``config.seed, seed + 1, ...``."""
    if chains < 1:
        raise ValueError("need at least one chain")
    return [replace(config, seed=config.seed + i) for i in range(chains)]


def _preferred_start_method() -> str:
    """``fork`` where available: workers start in milliseconds and a
    forked child sees the parent's hash seed, so even hash-order-dependent
    code behaves identically in every worker."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# Per-worker-process optimizer, built once by the pool initializer and
# reused for every chain the worker runs.
_WORKER_STOKE: Optional[Stoke] = None


def _init_worker(spec: SpecLike) -> None:
    global _WORKER_STOKE
    _WORKER_STOKE = build_stoke(spec)


def _run_chain(task: Tuple[int, SearchConfig, Optional[Strategy]]
               ) -> Tuple[int, SearchResult]:
    index, config, strategy = task
    assert _WORKER_STOKE is not None, "worker pool not initialized"
    return index, _WORKER_STOKE.search(config, strategy=strategy)


def run_chains(
    spec: SpecLike,
    configs: Sequence[SearchConfig],
    jobs: Optional[int] = None,
    strategy: Optional[Strategy] = None,
    on_result: Optional[Callable[[SearchResult], None]] = None,
    start_method: Optional[str] = None,
) -> List[SearchResult]:
    """Run one search per config, fanned out over ``jobs`` processes.

    Returns results in config order regardless of completion order.
    ``jobs=None``/``0`` picks :func:`default_jobs`; ``jobs=1`` runs
    in-process with a single shared optimizer (no pool, no pickling).
    ``on_result`` fires once per chain as it completes — in completion
    order for ``jobs > 1``, which is the streaming path.
    """
    configs = list(configs)
    if not configs:
        return []
    jobs = resolve_jobs(jobs, len(configs))

    if jobs == 1 or len(configs) == 1:
        stoke = build_stoke(spec)
        results = []
        for config in configs:
            result = stoke.search(config, strategy=strategy)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

    ctx = mp.get_context(start_method or _preferred_start_method())
    tasks = [(i, config, strategy) for i, config in enumerate(configs)]
    results: List[Optional[SearchResult]] = [None] * len(configs)
    with ctx.Pool(processes=jobs, initializer=_init_worker,
                  initargs=(spec,)) as pool:
        for index, result in pool.imap_unordered(_run_chain, tasks):
            results[index] = result
            if on_result is not None:
                on_result(result)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Generic persistent task pool (used by the campaign scheduler)


@dataclass
class TaskOutcome:
    """One task's fate: a value, an error, a timeout, or a worker crash."""

    key: object
    ok: bool
    value: object = None
    error: Optional[str] = None
    kind: str = "ok"  # 'ok' | 'error' | 'timeout' | 'crash'
    elapsed: float = 0.0


def _pool_worker(context_factory: Callable, spec, task_fn: Callable,
                 conn, parent_pid: int) -> None:
    """Worker loop: build the context once, then serve tasks off a pipe.

    SIGINT is ignored so a Ctrl-C in the parent's terminal (delivered to
    the whole process group) never kills a worker mid-protocol; the
    parent owns shutdown and terminates workers explicitly.  The loop
    also watches its parent pid: if the parent is SIGKILLed the orphaned
    worker exits on its own instead of lingering.
    """
    import signal as _signal

    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    try:
        context = context_factory(spec)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        try:
            conn.send(("init_error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        return
    while True:
        try:
            if not conn.poll(0.2):
                if os.getppid() != parent_pid:
                    return  # orphaned
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        key, item = message
        try:
            value = task_fn(context, item)
            reply = ("done", (key, value))
        except BaseException as exc:  # noqa: BLE001 — task errors travel back
            reply = ("fail", (key, f"{type(exc).__name__}: {exc}"))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("proc", "conn", "key", "item", "started", "deadline")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.key = None  # key of the task being run, None when idle
        self.item = None
        self.started = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.key is not None


class TaskPool:
    """Persistent worker pool over a once-per-worker context.

    Each worker builds its context exactly once from a small picklable
    ``spec`` via the module-level ``context_factory``, then serves many
    ``task_fn(context, item)`` calls from it.  ``jobs=1`` runs inline —
    no subprocesses, no pickling — so callers get a deterministic serial
    path for free.  ``context_factory`` and ``task_fn`` must be
    module-level functions (pickled by reference into the workers).

    Unlike a ``multiprocessing.Pool``, the pool survives misbehaving
    tasks: a worker that dies mid-task (kill -9, segfault, OOM) is
    detected through its process sentinel, its task is reported as a
    ``'crash'`` outcome, and a replacement worker is spawned; a task
    that exceeds its deadline (``task_timeout`` or the per-submit
    override) has its worker killed and is reported as ``'timeout'``.

    Tasks stream in through :meth:`submit` and their outcomes drain
    through :meth:`poll`, so the campaign scheduler can feed jobs as
    their dependencies resolve rather than as one pre-known batch.
    """

    # A fresh worker must survive at least one task this many times in a
    # row before the pool declares the setup broken (guards against a
    # context_factory that dies on every spawn => infinite respawn).
    MAX_CONSECUTIVE_SPAWN_DEATHS = 3

    def __init__(self, context_factory: Callable, spec,
                 task_fn: Callable, jobs: Optional[int] = None,
                 start_method: Optional[str] = None,
                 task_timeout: Optional[float] = None):
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.jobs = default_jobs() if not jobs else jobs
        self.task_timeout = task_timeout
        self._factory = context_factory
        self._spec = spec
        self._task_fn = task_fn
        self._context = None
        self._workers: List[_Worker] = []
        self._pending: List[Tuple[object, object, Optional[float]]] = []
        self._completed: List[TaskOutcome] = []
        self._in_flight = 0
        self._spawn_deaths = 0
        self._closed = False
        if self.jobs == 1:
            self._ctx = None
            self._context = context_factory(spec)
        else:
            self._ctx = mp.get_context(start_method
                                       or _preferred_start_method())
            for _ in range(self.jobs):
                self._workers.append(self._spawn())

    @property
    def inline(self) -> bool:
        """True when tasks run in-process (``jobs=1``)."""
        return self._ctx is None

    # -- worker lifecycle -------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(self._factory, self._spec, self._task_fn, child_conn,
                  os.getpid()),
            daemon=True)
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _retire(self, worker: _Worker, outcome_kind: Optional[str],
                error: Optional[str]) -> None:
        """Bury a dead/killed worker, reporting its task if it had one."""
        if worker.busy:
            self._finish(TaskOutcome(
                key=worker.key, ok=False, error=error, kind=outcome_kind,
                elapsed=time.monotonic() - worker.started))
            self._spawn_deaths = 0  # progress: death was task-attributed
        else:
            self._spawn_deaths += 1
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join()
        self._workers.remove(worker)
        if self._spawn_deaths > self.MAX_CONSECUTIVE_SPAWN_DEATHS:
            raise RuntimeError(
                "task pool workers keep dying before serving any task "
                f"(last error: {error})")
        self._workers.append(self._spawn())

    def _finish(self, outcome: TaskOutcome) -> None:
        self._completed.append(outcome)
        self._in_flight -= 1

    # -- dispatch/collect -------------------------------------------------

    def _dispatch(self) -> None:
        if not self._pending:
            return
        for worker in self._workers:
            if not self._pending:
                break
            if worker.busy or not worker.proc.is_alive():
                continue
            key, item, timeout = self._pending.pop(0)
            try:
                worker.conn.send((key, item))
            except (BrokenPipeError, OSError):
                self._pending.insert(0, (key, item, timeout))
                self._retire(worker, None, "worker pipe closed")
                continue
            worker.key, worker.item = key, item
            worker.started = time.monotonic()
            worker.deadline = None if timeout is None \
                else worker.started + timeout

    def _receive(self, worker: _Worker) -> None:
        try:
            tag, payload = worker.conn.recv()
        except (EOFError, OSError):
            self._retire(worker, "crash",
                         "worker died mid-task (pipe EOF)")
            return
        if tag == "init_error":
            self._retire(worker, "crash", f"worker init failed: {payload}")
            return
        key, value = payload
        elapsed = time.monotonic() - worker.started
        worker.key = worker.item = worker.deadline = None
        if tag == "done":
            self._finish(TaskOutcome(key=key, ok=True, value=value,
                                     elapsed=elapsed))
        else:  # 'fail': value is the formatted exception
            self._finish(TaskOutcome(key=key, ok=False, value=None,
                                     error=value, kind="error",
                                     elapsed=elapsed))

    def _kill_deadline_breakers(self, now: float) -> None:
        for worker in list(self._workers):
            if not worker.busy or worker.deadline is None \
                    or now < worker.deadline:
                continue
            # Consume a result that raced the deadline, if any.
            if worker.conn.poll(0):
                self._receive(worker)
                continue
            worker.proc.kill()
            worker.proc.join()
            self._retire(worker, "timeout",
                         f"task exceeded {worker.deadline - worker.started:.3g}s "
                         f"deadline")

    def _pump(self, wait: float) -> None:
        """One event-loop turn: dispatch, wait for events, collect."""
        self._dispatch()
        now = time.monotonic()
        deadlines = [w.deadline for w in self._workers
                     if w.busy and w.deadline is not None]
        if deadlines:
            wait = max(0.0, min(wait, min(deadlines) - now))
        watch = []
        for worker in self._workers:
            watch.append(worker.conn)
            watch.append(worker.proc.sentinel)
        ready = mp.connection.wait(watch, timeout=wait) if watch else []
        ready = set(ready)
        for worker in list(self._workers):
            if worker not in self._workers:
                continue  # retired by an earlier iteration
            if worker.conn in ready:
                self._receive(worker)
            elif worker.proc.sentinel in ready:
                self._retire(worker, "crash",
                             f"worker died mid-task "
                             f"(exitcode {worker.proc.exitcode})")
        self._kill_deadline_breakers(time.monotonic())
        self._dispatch()

    # -- public -----------------------------------------------------------

    def submit(self, key, item, timeout: Optional[float] = None) -> None:
        """Queue one task; its outcome arrives via :meth:`poll` under
        ``key``.  ``timeout`` overrides the pool's ``task_timeout``
        (inline pools cannot enforce deadlines and run to completion).
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._in_flight += 1
        if self.inline:
            started = time.monotonic()
            try:
                value = self._task_fn(self._context, item)
                self._finish(TaskOutcome(
                    key=key, ok=True, value=value,
                    elapsed=time.monotonic() - started))
            except Exception as exc:  # noqa: BLE001
                self._finish(TaskOutcome(
                    key=key, ok=False, error=f"{type(exc).__name__}: {exc}",
                    kind="error", elapsed=time.monotonic() - started))
            return
        self._pending.append(
            (key, item, self.task_timeout if timeout is None else timeout))
        self._dispatch()

    def poll(self, timeout: float = 0.0) -> List[TaskOutcome]:
        """Drain completed outcomes, waiting up to ``timeout`` for the
        first one; returns immediately once anything has completed."""
        if not self.inline:
            deadline = time.monotonic() + timeout
            while not self._completed:
                remaining = deadline - time.monotonic()
                if self._in_flight == 0 or remaining < 0:
                    break
                self._pump(min(0.2, max(0.0, remaining)))
        drained = self._completed
        self._completed = []
        return drained

    @property
    def in_flight(self) -> int:
        """Tasks submitted whose outcomes have not been drained."""
        return self._in_flight

    def close(self) -> None:
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.proc.is_alive():
                worker.proc.kill()
        for worker in self._workers:
            worker.proc.join()
        self._workers = []
        self._pending = []

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_seeded_chains(
    spec: SpecLike,
    config: SearchConfig,
    chains: int,
    jobs: Optional[int] = None,
    strategy: Optional[Strategy] = None,
    on_result: Optional[Callable[[SearchResult], None]] = None,
) -> List[SearchResult]:
    """``chains`` independent searches with seeds derived from ``config``."""
    return run_chains(spec, chain_configs(config, chains), jobs=jobs,
                      strategy=strategy, on_result=on_result)
