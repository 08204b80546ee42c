"""Campaign execution backends.

The paper names simulation speed as the limiting factor of
quantitative safety evaluation ("repeated stress tests enable a
quantitative evaluation", Sec. 3.4) — so the campaign loop delegates
the expensive part, running :class:`~repro.core.runspec.RunSpec`
batches, to a swappable :class:`Executor`:

* :class:`SerialExecutor` — runs specs in-process, in order.  With a
  batch size of one this reproduces the historical sequential loop
  byte for byte.
* :class:`ParallelExecutor` — fans specs out to a
  ``concurrent.futures.ProcessPoolExecutor``; each worker rebuilds
  its own platform from the spec's registry key
  (:mod:`repro.platforms.registry`) and returns a compact
  :class:`~repro.core.runspec.RunOutcome`.  Outcomes are re-ordered
  by run index, so aggregation is independent of worker scheduling.

Both backends execute the *same* run body (``repro.core.runspec``):
``execute_runspec`` per run, dispatched by the same ``dispatch_batch``,
which is what the serial/parallel equivalence tests pin down.

Fault tolerance
---------------

Campaigns inject faults that can hang a DUT or kill a worker, so the
executors degrade instead of aborting:

* a run whose simulation exceeds its ``RunSpec.deadline_s`` wall-clock
  budget comes back as a classified ``Outcome.TIMEOUT`` record
  (``failure="timeout"``, enforced inside the kernel loop);
* a run whose body raises comes back as a terminal
  ``failure="error"`` record — a deterministic raise would fail
  identically on every retry, so none are attempted;
* a run whose *worker process dies* (``BrokenProcessPool`` — e.g. an
  injected ``os._exit``) is retried with deterministic exponential
  backoff up to :attr:`RetryPolicy.max_retries` times on a rebuilt
  pool, then becomes a terminal ``failure="crash"`` record.  Only
  runs that can actually have been executing when the pool broke (the
  first ``workers`` casualties in FIFO dispatch order) are charged a
  retry attempt; co-batched runs that were still queued re-run on the
  rebuilt pool free of charge;
* a run that hangs so hard the worker-side deadline cannot fire (a
  process body that never yields) is caught by the pool-level hard
  timeout; the poisoned pool is killed and rebuilt, and the *hung*
  run is recorded as ``failure="timeout"`` — runs merely queued
  behind it (``Future.cancel()`` succeeds, so they never started)
  re-run on the rebuilt pool instead of being dragged down with it.

Every degradation path yields exactly one ``RunOutcome`` per planned
spec, so ``runs == completed + timed_out + terminally_failed`` always
holds and a poisoned spec can never kill a campaign.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing as _t

from .runspec import (
    RunOutcome,
    RunSpec,
    dispatch_batch,
    error_outcome,
    execute_chunk_tolerant,
    # Re-exported: perfbench/layers.py wraps executors.execute_fork_group.
    execute_fork_group,
    execute_runspec,
    execute_runspec_tolerant,
    failure_outcome,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..kernel import Module, Simulator
    from .classification import Classifier, RunObservation

#: Pool-level hard-timeout slack on top of the per-run deadline: covers
#: platform construction, observation, pickling, and queueing behind
#: other runs of the same batch on a busy pool.
HARD_TIMEOUT_GRACE = 5.0
HARD_TIMEOUT_FACTOR = 3.0


def default_worker_count() -> int:
    """Workers to use when the caller does not say: one per CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry for worker-crash casualties.

    ``max_retries`` bounds redispatches per spec *beyond* the first
    attempt; ``backoff_s`` seeds the deterministic exponential backoff
    slept before each pool rebuild (no jitter — campaigns must replay
    identically under a fixed seed).
    """

    max_retries: int = 2
    backoff_s: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("retry budget must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff must be non-negative")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff_for(self, rebuild: int) -> float:
        """Seconds to sleep before pool rebuild number *rebuild* (1-based)."""
        return self.backoff_s * (2 ** max(rebuild - 1, 0))


class Executor:
    """Runs batches of :class:`RunSpec`; returned outcomes are always
    sorted by run index regardless of completion order.  Implementations
    must return exactly one outcome per spec — degraded runs come back
    as ``Outcome.TIMEOUT`` records, never as exceptions."""

    #: Degree of parallelism, used by the planner to size batches.
    workers: int = 1

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent, even after a crash."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution — the reference backend.

    Built either from explicit callables (any campaign, including ones
    whose factories are closures) or from a registry key.  Runs that
    permit ``reuse_platform`` on a capturable platform execute on one
    warm platform, restored before each run to the latest capture of
    its fault-free run before the run's first injection instead of
    re-elaborated and re-simulated from time zero.
    """

    def __init__(
        self,
        factory: "_t.Callable[[Simulator], Module]",
        observe: "_t.Callable[[Module], RunObservation]",
        classifier: "Classifier",
    ):
        self.factory = factory
        self.observe = observe
        self.classifier = classifier

    def _run_one(self, spec: RunSpec) -> RunOutcome:
        try:
            return execute_runspec(
                spec, self.factory, self.observe, self.classifier
            )
        except Exception as exc:  # noqa: BLE001 - degraded to a record  # vp-lint: disable=VP007 - deadlines degrade to TIMEOUT inside execute_runspec; nothing to re-raise here
            return error_outcome(spec, exc)

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        return dispatch_batch(specs, self._run_one)


class ParallelExecutor(Executor):
    """Process-pool execution over registry-backed platforms.

    The pool is created lazily on the first batch and reused until
    :meth:`close`, so one campaign pays the worker start-up cost once.
    Specs must carry a ``platform`` registry key — the campaign
    planner embeds it (and the golden observation) in every spec.

    ``retry`` governs redispatch of runs whose worker died;
    ``hard_timeout_s`` overrides the pool-level backstop timeout
    derived from the specs' deadlines (``None`` + no deadlines =
    wait forever, the legacy behavior).

    ``chunk_size`` controls dispatch granularity: each future carries
    a contiguous slice of that many specs (one
    ``execute_chunk_tolerant`` call) instead of a single run, cutting
    the submit/pickle/collect round-trips per batch by the chunk
    factor.  ``None`` auto-tunes to roughly four chunks per worker;
    ``1`` restores per-run dispatch exactly.  Chunks are an
    *optimistic* fast path: any chunk whose future fails — worker
    death, pool-level hang, pickling trouble — falls back to per-run
    dispatch for precisely its specs, where the PR-2 crash/hang
    attribution (FIFO pigeonholing, innocent re-runs, retry budgets)
    is re-derived at run granularity.  The failed chunk attempt is
    free reconnaissance: fallback runs start at the same attempt
    number per-run dispatch would have used, so outcome records and
    checkpoint journals are byte-identical either way.
    """

    def __init__(
        self,
        platform: _t.Optional[str] = None,
        workers: _t.Optional[int] = None,
        retry: _t.Optional[RetryPolicy] = None,
        hard_timeout_s: _t.Optional[float] = None,
        chunk_size: _t.Optional[int] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("need at least one worker")
        if hard_timeout_s is not None and hard_timeout_s <= 0:
            raise ValueError("hard timeout must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if platform is not None:
            # Fail fast in the parent on unknown keys instead of
            # surfacing the KeyError from inside a worker.
            from ..platforms import registry

            registry.get_platform(platform)
        self.platform = platform
        self.workers = workers or default_worker_count()
        self.retry = retry or RetryPolicy()
        self.hard_timeout_s = hard_timeout_s
        self.chunk_size = chunk_size
        self._pool = None
        #: Lifetime counters surfaced through CampaignResult.report().
        self.pool_rebuilds = 0
        self.chunk_fallbacks = 0

    def _ensure_pool(self):
        if self._pool is None:
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._pool

    def _hard_timeout(self, specs: _t.Sequence[RunSpec]) -> _t.Optional[float]:
        """The pool-level backstop for one batch, or ``None`` to wait."""
        if self.hard_timeout_s is not None:
            return self.hard_timeout_s
        deadlines = [s.deadline_s for s in specs if s.deadline_s is not None]
        if not deadlines:
            return None
        return max(deadlines) * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_GRACE

    def _kill_pool(self) -> None:
        """Tear down a poisoned pool: terminate workers, drop futures."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.pool_rebuilds += 1
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may refuse  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
            pass

    def _effective_chunk_size(self, batch_size: int) -> int:
        """Chunk granularity for a batch of *batch_size* specs.

        Auto mode targets ~4 chunks per worker: small enough that one
        slow chunk cannot idle the pool for long, large enough that
        dispatch overhead amortizes.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-batch_size // (self.workers * 4)))

    def _chunk_timeout(
        self, chunk: _t.Sequence[RunSpec]
    ) -> _t.Optional[float]:
        """Pool-level backstop for one chunk future (None = wait)."""
        if self.hard_timeout_s is not None:
            return self.hard_timeout_s * len(chunk)
        deadlines = [s.deadline_s for s in chunk if s.deadline_s is not None]
        if len(deadlines) < len(chunk):
            # Any deadline-less run may legitimately take arbitrarily
            # long; a finite chunk backstop would misfire.
            return None
        return (
            max(deadlines) * HARD_TIMEOUT_FACTOR * len(chunk)
            + HARD_TIMEOUT_GRACE
        )

    def _run_chunked(
        self,
        specs: _t.Sequence[RunSpec],
        chunk_size: int,
        done: _t.Dict[int, RunOutcome],
    ) -> _t.List[RunSpec]:
        """Optimistic chunked dispatch; returns specs needing fallback.

        Clean chunks deposit their per-run outcomes into *done*.  A
        chunk whose future fails in any way contributes its specs to
        the returned fallback list — uncharged, since none of its
        outcomes are kept — and poisons the pool, which is killed here
        so the per-run phase starts on a fresh one.
        """
        from concurrent.futures.process import BrokenProcessPool

        chunks = [
            list(specs[start : start + chunk_size])
            for start in range(0, len(specs), chunk_size)
        ]
        fallback: _t.List[RunSpec] = []
        submitted: _t.List[_t.Tuple[_t.List[RunSpec], _t.Any]] = []
        poisoned = False
        pool = self._ensure_pool()
        for chunk in chunks:
            try:
                submitted.append(
                    (chunk, pool.submit(execute_chunk_tolerant, chunk))
                )
            except (BrokenProcessPool, RuntimeError):
                poisoned = True
                fallback.extend(chunk)
        for chunk, future in submitted:
            if poisoned and future.cancel():
                # Queued behind a failed chunk and never started; skip
                # straight to per-run dispatch without burning another
                # backstop window.
                fallback.extend(chunk)
                continue
            try:
                outcomes = future.result(timeout=self._chunk_timeout(chunk))
            except Exception:  # noqa: BLE001 - FutureTimeout,  # vp-lint: disable=VP007 - pool-side plumbing; deadlines are worker-side
                # BrokenProcessPool, unpicklable results: any chunk
                # failure routes its specs to per-run dispatch, which
                # re-derives exact attribution.
                poisoned = True
                fallback.extend(chunk)
            else:
                for outcome in outcomes:
                    done[outcome.index] = outcome
        if poisoned:
            self.chunk_fallbacks += 1
            self._kill_pool()
        return fallback

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        for spec in specs:
            if spec.platform is None:
                raise ValueError(
                    f"run {spec.index}: spec has no platform registry "
                    f"key; parallel execution requires a campaign "
                    f"built with platform=<name>"
                )
        done: _t.Dict[int, RunOutcome] = {}
        remaining: _t.Sequence[RunSpec] = specs
        chunk_size = self._effective_chunk_size(len(specs))
        if chunk_size > 1:
            remaining = self._run_chunked(specs, chunk_size, done)
        if remaining:
            self._run_per_run(remaining, done)
        return [done[spec.index] for spec in specs]

    def _run_per_run(
        self,
        specs: _t.Sequence[RunSpec],
        done: _t.Dict[int, RunOutcome],
    ) -> None:
        """One future per run, with the full retry/attribution logic."""
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        hard_timeout = self._hard_timeout(specs)
        by_index = {spec.index: spec for spec in specs}
        #: spec index -> attempt number currently in flight (1-based).
        pending: _t.Dict[int, int] = {spec.index: 1 for spec in specs}
        rebuilds = 0
        while pending:
            pool = self._ensure_pool()
            futures: _t.Dict[int, _t.Any] = {}
            poisoned = False
            for index in sorted(pending):
                spec = dataclasses.replace(
                    by_index[index], attempt=pending[index] - 1
                )
                try:
                    futures[index] = pool.submit(
                        execute_runspec_tolerant, spec
                    )
                except (BrokenProcessPool, RuntimeError):
                    # Pool already broken (or shut down mid-crash)
                    # before this spec was even accepted: it never ran,
                    # so it stays pending for the rebuilt pool without
                    # being charged a retry attempt.
                    poisoned = True
            #: Futures resolved with BrokenProcessPool, in submission
            #: order.  The pool dispatches work FIFO, so only the first
            #: ``workers`` of these can actually have been running when
            #: the pool broke — the rest were still queued.
            crashed: _t.List[int] = []
            #: Terminal hang records this round.  At most ``workers``
            #: runs can truly be executing, so once this many hangs are
            #: on record, every remaining future without a buffered
            #: result is provably still queued.  (``Future.cancel()``
            #: alone cannot tell: the pool pre-marks call-queue-
            #: buffered items RUNNING before a worker picks them up.)
            hung_slots = 0
            for index, future in futures.items():
                attempt = pending[index]
                if hung_slots and future.cancel():
                    # Queued behind the hung worker and never started:
                    # re-run on the rebuilt pool, free of charge,
                    # without burning another backstop window.
                    poisoned = True
                    continue
                wait = 0 if hung_slots >= self.workers else hard_timeout
                try:
                    outcome = future.result(timeout=wait)
                except FutureTimeout:
                    if future.cancel() or hung_slots >= self.workers:
                        # The backstop fired while this run was still
                        # queued — provably (cancel succeeded) or by
                        # pigeonhole (every worker already accounted
                        # hung) — so it never executed and is not the
                        # hang.  Re-queue at the same attempt count.
                        poisoned = True
                        continue
                    # Hard hang: the worker-side deadline never fired
                    # (non-yielding process body).  Terminal — a rerun
                    # would hang for the full backstop again.
                    done[index] = failure_outcome(
                        by_index[index],
                        failure="timeout",
                        error=(
                            f"no result within the {hard_timeout}s "
                            f"pool-level hard timeout"
                        ),
                        attempts=attempt,
                        label="timeout:pool",
                    )
                    del pending[index]
                    hung_slots += 1
                    poisoned = True
                except BrokenProcessPool:
                    crashed.append(index)
                    poisoned = True
                except Exception as exc:  # noqa: BLE001 - pickling edge  # vp-lint: disable=VP007 - pool-side plumbing; deadlines are worker-side
                    done[index] = failure_outcome(
                        by_index[index],
                        failure="error",
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        label=f"error:{type(exc).__name__}",
                    )
                    del pending[index]
                else:
                    if outcome.attempts != attempt:
                        outcome = dataclasses.replace(
                            outcome, attempts=attempt
                        )
                    done[index] = outcome
                    del pending[index]
            for position, index in enumerate(crashed):
                if position >= self.workers:
                    # Provably queued when the pool broke (FIFO
                    # dispatch, all workers accounted for above):
                    # re-run free of charge instead of letting a
                    # poison spec burn innocents' retry budgets.
                    continue
                attempt = pending[index]
                if attempt >= self.retry.max_attempts:
                    done[index] = failure_outcome(
                        by_index[index],
                        failure="crash",
                        error=(
                            f"worker process died (BrokenProcessPool); "
                            f"retry budget of {self.retry.max_retries} "
                            f"exhausted"
                        ),
                        attempts=attempt,
                        label="crash:worker",
                    )
                    del pending[index]
                else:
                    pending[index] = attempt + 1
            if poisoned:
                # The pool is poisoned (dead or occupied workers):
                # rebuild before the next round, after a deterministic
                # backoff that lets transient resource pressure clear.
                self._kill_pool()
                if pending:
                    rebuilds += 1
                    backoff = self.retry.backoff_for(rebuilds)
                    if backoff:
                        time.sleep(backoff)

    def close(self) -> None:
        """Idempotent shutdown that survives a broken pool.

        ``ProcessPoolExecutor.shutdown`` can raise once workers have
        been killed out from under it; campaigns must still be able to
        release the executor in their ``finally`` block.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken-pool shutdown  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
                    pass


# -- backend registry --------------------------------------------------------
#
# Backends plug in by name: a builder takes the full make_executor
# keyword set and returns a ready executor.  The registry is what lets
# repro.distributed (and future backends — campaign-as-a-service
# front-ends, cloud dispatchers) slot in beside serial/parallel
# without make_executor growing another if/elif arm, and what turns a
# typo'd backend= into one clear error naming every registered choice.

#: Backend name -> builder(**kwargs) -> Executor.
_BACKEND_BUILDERS: _t.Dict[str, _t.Callable[..., Executor]] = {}


def register_backend(
    name: str, builder: _t.Callable[..., Executor]
) -> None:
    """Register (or replace) a named executor backend.

    *builder* receives every ``make_executor`` keyword argument and
    returns an :class:`Executor` the campaign will own (and close).
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    _BACKEND_BUILDERS[name] = builder


def registered_backends() -> _t.Tuple[str, ...]:
    """The selectable backend names, sorted."""
    return tuple(sorted(_BACKEND_BUILDERS))


def _build_serial(
    *, factory=None, observe=None, classifier=None, **_unused,
) -> Executor:
    if factory is None or observe is None or classifier is None:
        raise ValueError("serial backend needs factory/observe/classifier")
    return SerialExecutor(factory, observe, classifier)


def _build_parallel(
    *, platform=None, workers=None, retry=None, hard_timeout_s=None,
    chunk_size=None, **_unused,
) -> Executor:
    if platform is None:
        raise ValueError(
            "parallel backend requires a registry-backed campaign "
            "(Campaign(platform=<name>, ...)); see "
            "repro.platforms.register_platform"
        )
    return ParallelExecutor(
        platform,
        workers=workers,
        retry=retry,
        hard_timeout_s=hard_timeout_s,
        chunk_size=chunk_size,
    )


def _build_distributed(
    *, platform=None, workers=None, retry=None, hard_timeout_s=None,
    chunk_size=None, telemetry=None, **_unused,
) -> Executor:
    # Lazy import: repro.core stays importable (and fast) without the
    # socket machinery; the distributed package registers nothing at
    # interpreter start.
    from ..distributed.coordinator import DistributedExecutor

    if platform is None:
        raise ValueError(
            "distributed backend requires a registry-backed campaign "
            "(Campaign(platform=<name>, ...)); workers rebuild the "
            "platform from its registry key on their own host"
        )
    return DistributedExecutor(
        platform,
        workers=workers,
        retry=retry,
        hard_timeout_s=hard_timeout_s,
        chunk_size=chunk_size,
        telemetry=telemetry,
    )


register_backend("serial", _build_serial)
register_backend("parallel", _build_parallel)
register_backend("distributed", _build_distributed)


def make_executor(
    backend: _t.Union[str, Executor],
    *,
    factory=None,
    observe=None,
    classifier=None,
    platform: _t.Optional[str] = None,
    workers: _t.Optional[int] = None,
    retry: _t.Optional[RetryPolicy] = None,
    hard_timeout_s: _t.Optional[float] = None,
    chunk_size: _t.Optional[int] = None,
    telemetry=None,
) -> _t.Tuple[Executor, bool]:
    """Resolve a backend selector to an executor.

    Returns ``(executor, owned)``: campaigns close executors they
    created but leave caller-provided instances open for reuse (a
    passed-in instance also keeps its own retry/timeout/chunking
    configuration).  String selectors resolve through the backend
    registry (see :func:`register_backend`); an unknown name raises
    immediately, listing every registered backend — a typo must fail
    at the call site, not as a confusing downstream error.
    """
    if isinstance(backend, Executor):
        return backend, False
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name or an Executor instance, "
            f"not {type(backend).__name__}"
        )
    builder = _BACKEND_BUILDERS.get(backend)
    if builder is None:
        names = ", ".join(repr(name) for name in registered_backends())
        raise ValueError(
            f"unknown backend {backend!r}; registered backends: "
            f"{names} (or pass an Executor instance)"
        )
    executor = builder(
        factory=factory,
        observe=observe,
        classifier=classifier,
        platform=platform,
        workers=workers,
        retry=retry,
        hard_timeout_s=hard_timeout_s,
        chunk_size=chunk_size,
        telemetry=telemetry,
    )
    return executor, True
