"""Grid evaluation: fan sweep points over workers, through the cache.

:func:`evaluate_grid` is the one primitive every analysis rides on.  It
takes a plain function and a list of points and returns one result per
point, in point order, regardless of how the work was scheduled:

* **parallelism** -- with ``workers > 1`` points fan out over a process
  pool, ``fork`` context preferred (heavy context is inherited
  copy-on-write through a module global captured before the fork, so
  closures and unpicklable studies work), ``spawn`` as the fallback
  where fork is unavailable (state then travels as one pickled blob per
  grid; unpicklable state degrades to the serial path with identical
  results).  Submission is bounded: at most
  :data:`MAX_INFLIGHT_PER_WORKER` ``* workers`` futures are in flight,
  so a 10k-point grid never enqueues everything up front;
* **chunked batch dispatch** -- when a grid has both ``workers > 1``
  *and* a ``kernel``, pending points are sharded into
  contiguous chunks (adaptive size ``pending / (4 * workers)``, clamped
  to ``[CHUNK_FLOOR, CHUNK_CAP]``) and the *kernel* runs inside the
  workers -- one IPC round-trip per chunk instead of per point.  A
  reusable :class:`~repro.runner.pool.WorkerPool` may be supplied so
  the workers survive across grids.  A chunk whose kernel raises is
  bisected and retried until the poison point is isolated, journaled,
  and re-run in the parent under the full per-point policy -- its
  siblings lose nothing;
* **caching** -- with a :class:`~repro.runner.cache.ResultCache` and a
  ``cache_key`` describing the heavy context, each point is looked up
  before evaluation and **flushed back incrementally** as its result
  arrives, so an abort, a hard error or a dead worker never loses paid
  work.  Soft-error (infeasible) points are cached too, as an explicit
  marker;
* **soft errors** -- exception types in ``on_error`` map to ``None``
  results (the convention the sweep code has always used for infeasible
  operating points); anything else propagates;
* **fault tolerance** -- exception types in ``retry_on`` (and per-point
  timeouts) are retried with exponential backoff before counting;
  a worker killed under the pool (OOM, SIGKILL) is detected instead of
  hanging the run: completed results are salvaged and the remainder is
  re-queued on the serial path, so the sweep still returns results
  bit-identical to an all-serial run;
* **observability** -- a :class:`~repro.runner.journal.RunJournal`
  records every point submitted/finished/retried, every chunk
  submitted/finished/bisected, crashes and stage totals as append-only
  JSONL; traces nest ``chunk`` spans between ``stage`` and ``point``.

:class:`Runner` bundles a worker count, a cache, a retry policy, a
journal, an optional warm pool and a
:class:`~repro.runner.instrument.RunStats` into one reusable policy
object; :class:`CachedEvaluator` is its point-at-a-time sibling for
search loops (bisection, golden section) that cannot batch.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from ..errors import PointTimeoutError, RunnerError
from ..obs.trace import NULL_TRACER
from .cache import ResultCache
from .fingerprint import fingerprint
from .instrument import RunStats
from .journal import NULL_JOURNAL, RunJournal


class _NoContext:
    """Sentinel type: "no shared context" (``fn(point)``, not
    ``fn(context, point)``).  The sentinel is the *class itself*, not an
    instance: classes pickle by reference, so the ``context is
    _NO_CONTEXT`` identity test still holds inside spawn workers that
    received the grid state as a pickled blob."""


_NO_CONTEXT = _NoContext

#: Stored in the cache for points whose evaluation raised a soft error, so
#: deterministic infeasibility is a warm-cache no-op like any other result.
INFEASIBLE_MARKER = "__repro:infeasible__"


#: Default retry policy: up to 2 extra attempts, 50 ms base backoff.
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05

#: Bounded submission: at most this many futures in flight per worker
#: (the "k" in "k * workers"), on both parallel paths.
MAX_INFLIGHT_PER_WORKER = 4

#: Adaptive chunk sizing: aim for this many chunks per worker (so a
#: straggling chunk rebalances instead of serialising the tail) ...
CHUNK_SHARDS_PER_WORKER = 4
#: ... clamped to this many points per chunk.  The floor keeps the
#: per-chunk IPC amortised over several points even on tiny grids; the
#: cap bounds how much work one dead worker can lose.
CHUNK_FLOOR = 4
CHUNK_CAP = 2048

#: ``(fn, kernel, context, on_error, retry_on, retries, backoff,
#: timeout)`` captured immediately before an ephemeral pool forks;
#: workers read it instead of unpickling task payloads.  Spawn workers
#: get the same tuple installed by the :func:`_install_state`
#: initializer.  Guarded by :data:`_FORK_LOCK` so threaded callers get a
#: clean error instead of silently racing on the slot.
_FORK_STATE = None
_FORK_LOCK = threading.Lock()

#: Monotonic id per shipped grid state: warm-pool workers cache the
#: unpickled blob under this id (:data:`_WORKER_STATE`), so a pool
#: reused across many grids unpickles each grid's state once per worker,
#: not once per chunk.
_STATE_EPOCHS = itertools.count(1)

#: Worker-side ``(epoch, state)`` slot for blob-carrying chunk tasks
#: (single slot: a worker serves one grid at a time).
_WORKER_STATE = None


def _install_state(blob):
    """Spawn-pool initializer: install the pickled grid state where fork
    workers would have inherited it."""
    global _FORK_STATE
    _FORK_STATE = pickle.loads(blob)


def _state_blob(state):
    """``pickle.dumps(state)``, or ``None`` when any piece refuses."""
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def _call(fn, context, point):
    if context is _NO_CONTEXT:
        return fn(point)
    return fn(context, point)


@contextmanager
def _point_alarm(timeout):
    """Bound one evaluation attempt to ``timeout`` seconds (best effort).

    Uses ``SIGALRM``/``ITIMER_REAL``, so it only engages on Unix, in the
    main thread, and when no other real-time timer is pending (e.g. a
    ``pytest-timeout`` signal guard); anywhere else it is a no-op rather
    than a wrong answer.  Fork-pool workers always qualify: POSIX clears
    interval timers across ``fork`` and the task runs in the worker's
    main thread.
    """
    if not timeout or not hasattr(signal, "setitimer") \
            or threading.current_thread() is not threading.main_thread() \
            or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        yield
        return

    def _expired(signum, frame):
        raise PointTimeoutError(
            "point evaluation exceeded {:.3g} s".format(timeout))

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _eval_point(fn, context, point, on_error, retry_on, retries, backoff,
                timeout, tracer=NULL_TRACER):
    """One point through the retry/timeout policy.

    Returns ``(value, status, attempts, timeouts)`` where ``status`` is
    ``"ok"``, ``"soft"`` (infeasible) or ``"hard"`` (``value`` is the
    exception, re-raised by :func:`_record_point` after the counters and
    journal have seen it), ``attempts`` is the number of *extra* attempts
    paid and ``timeouts`` how many attempts the alarm cut short.
    Exceptions outside ``retry_on``/``on_error`` -- and retryable ones
    once retries are exhausted, unless they also appear in ``on_error``
    -- are the hard ones.  ``tracer`` (serial path only; workers always
    pass the no-op default) gets one ``attempt`` span per try.
    """
    caught = None
    attempts = 0
    ntimeouts = 0
    for attempt in range(retries + 1):
        attempts = attempt
        with tracer.span("attempt", n=attempt):
            try:
                with _point_alarm(timeout):
                    return _call(fn, context, point), "ok", attempt, \
                        ntimeouts
            except PointTimeoutError as exc:
                ntimeouts += 1
                caught = exc
            except retry_on as exc:
                caught = exc
            except on_error:
                return None, "soft", attempt, ntimeouts
            except Exception as exc:
                return exc, "hard", attempt, ntimeouts
        if attempt < retries and backoff:
            time.sleep(backoff * (2 ** attempt))
    if on_error and isinstance(caught, on_error):
        return None, "soft", attempts, ntimeouts
    return caught, "hard", attempts, ntimeouts


def _worker_eval(task):
    index, point = task
    fn, _, context, on_error, retry_on, retries, backoff, timeout = \
        _FORK_STATE
    start = time.perf_counter()
    value, status, attempts, ntimeouts = _eval_point(
        fn, context, point, on_error, retry_on, retries, backoff, timeout)
    return index, value, status, attempts, ntimeouts, \
        time.perf_counter() - start


def _chunk_state(epoch, blob):
    """The grid state a chunk task should evaluate against.

    ``blob is None`` means the worker already holds the state (fork
    inheritance or the spawn initializer); otherwise unpickle once and
    memoise under the grid's epoch.
    """
    global _WORKER_STATE
    if blob is None:
        return _FORK_STATE
    cached = _WORKER_STATE
    if cached is not None and cached[0] == epoch:
        return cached[1]
    state = pickle.loads(blob)
    _WORKER_STATE = (epoch, state)
    return state


def _chunk_eval(task):
    """One contiguous chunk of points through the batch kernel, inside a
    pool worker.  Returns ``(chunk_id, values, elapsed)``; any kernel
    exception propagates to the parent, which bisects the chunk."""
    chunk_id, items, epoch, blob = task
    kernel = _chunk_state(epoch, blob)[1]
    pts = [point for _, point in items]
    start = time.perf_counter()
    values = list(kernel(pts))
    elapsed = time.perf_counter() - start
    if len(values) != len(pts):
        raise RunnerError(
            "batch kernel returned {} results for {} points".format(
                len(values), len(pts)))
    return chunk_id, values, elapsed


def resolve_workers(workers):
    """Effective worker count: ``None`` -> serial, ``0`` -> all cores."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise RunnerError("workers must be >= 0")
    return workers or (os.cpu_count() or 1)


def _start_method():
    """The usable pool start method: ``"fork"`` preferred (state is
    inherited copy-on-write, nothing pickled), ``"spawn"`` where fork is
    unavailable (macOS / free-threaded builds), ``None`` when pools may
    not be created at all -- child processes (pool workers included) and
    daemons may not start pools of their own, so nested grids run serial
    with identical results."""
    if multiprocessing.parent_process() is not None \
            or multiprocessing.current_process().daemon:
        return None
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    if "spawn" in methods:
        return "spawn"
    return None


def _pool_executor(nworkers, method, blob):
    """An ephemeral executor for one grid: fork workers inherit
    :data:`_FORK_STATE`; spawn workers get ``blob`` installed by the
    :func:`_install_state` initializer instead."""
    ctx = multiprocessing.get_context(method)
    if method == "fork":
        return ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx)
    return ProcessPoolExecutor(max_workers=nworkers, mp_context=ctx,
                               initializer=_install_state,
                               initargs=(blob,))


def _chunk_points(npending, nworkers, chunk_size):
    """Points per chunk: an explicit ``chunk_size`` wins; otherwise aim
    for :data:`CHUNK_SHARDS_PER_WORKER` chunks per worker, clamped to
    ``[CHUNK_FLOOR, CHUNK_CAP]``."""
    if chunk_size:
        return max(1, int(chunk_size))
    target = -(-npending // (CHUNK_SHARDS_PER_WORKER * max(nworkers, 1)))
    return max(CHUNK_FLOOR, min(CHUNK_CAP, target))


def evaluate_grid(fn, points, workers=None, context=_NO_CONTEXT,
                  cache=None, cache_key=None, on_error=(), stats=None,
                  retry_on=(), retries=DEFAULT_RETRIES,
                  backoff=DEFAULT_BACKOFF, timeout=None, journal=None,
                  label=None, kernel=None, tracer=None,
                  metrics=None, pool=None, chunk_size=None):
    """Evaluate ``fn`` over ``points``; returns results in point order.

    Parameters
    ----------
    fn:
        ``fn(point)`` -- or ``fn(context, point)`` when ``context`` is
        given.  Return values must be picklable when ``workers > 1``.
    points:
        The grid.  Points must be fingerprintable when caching and
        picklable when running parallel.
    workers:
        ``None`` -> serial; ``0`` -> one per core; ``N`` -> at most N
        processes.  ``fork`` pools are preferred; platforms without
        ``fork`` use ``spawn`` pools (grid state pickled once), and
        where neither works -- or the state is unpicklable under spawn
        -- the run falls back to serial with identical results.
    context:
        Heavy shared state -- models, libraries and case studies go
        here.  Inherited by fork workers copy-on-write (never pickled);
        shipped as one pickled blob per grid to spawn/warm-pool workers.
    cache / cache_key:
        A :class:`ResultCache` plus a digest of everything that defines
        the evaluation besides the point itself.  Caching is skipped
        unless both are given.  Each result is written back as it
        arrives, so an aborted run keeps everything it paid for.
    on_error:
        Exception types that mean "this point is infeasible"; they yield
        ``None`` results instead of propagating.
    stats:
        A :class:`RunStats` to accumulate into (one is created -- and
        discarded -- when omitted).
    retry_on / retries / backoff:
        Exception types considered transient; each matching failure is
        retried up to ``retries`` extra times with ``backoff * 2**n``
        seconds between attempts.  An exception still raised after the
        last attempt propagates -- unless it also appears in
        ``on_error``, in which case the point degrades to infeasible.
    timeout:
        Per-point wall-clock bound in seconds (best effort; see
        :class:`~repro.errors.PointTimeoutError`).  Timed-out attempts
        are retried like ``retry_on`` failures.
    journal:
        A :class:`~repro.runner.journal.RunJournal` (or a path -- opened
        and closed for this run) receiving JSONL events for every point.
    label:
        Short name for this grid in the journal (``"sweep"``,
        ``"energy_sweep"``, ...).
    kernel:
        Optional batch kernel ``kernel(pending_points)`` -- usually a
        :class:`~repro.runner.kernel.CompiledKernel` from
        :func:`~repro.runner.kernel.compile_kernel`, but any callable
        of that shape works -- that evaluates a list of points in one
        pass, returning one value per point with ``None`` marking
        infeasible points.  Serial runs feed it every cache-missed
        point at once; parallel runs shard the missed points into
        contiguous chunks and run the kernel *inside* the workers (see
        ``chunk_size``), so it must be picklable.  It must produce
        results bit-identical to ``fn`` per point, with ``on_error``
        exceptions already mapped to ``None``.  The retry/timeout
        policy does not apply inside a kernel call (kernels are pure
        arithmetic) -- but a kernel that raises on the parallel path is
        bisected until the poison point is isolated and re-run in the
        parent under the full per-point policy.  Per-point cache
        writeback and journal events are preserved on every path.
    tracer:
        A :class:`~repro.obs.trace.Tracer` producing nested spans
        (``grid`` -> ``stage`` -> [``chunk`` ->] ``point`` ->
        ``attempt``).  Defaults to the no-op
        :data:`~repro.obs.trace.NULL_TRACER`, whose cost is held under
        2 % of a sweep point by ``benchmarks/test_obs_overhead.py``.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; the run observes
        per-point latency (``repro_point_seconds``), queue wait on the
        parallel paths (``repro_queue_wait_seconds``) and, on the
        chunked path, per-chunk latency (``repro_chunk_seconds``) and
        the chosen chunk size (``repro_chunk_size``) into it.  Counters
        are *not* incremented live -- export them by snapshotting
        ``stats`` via ``fill_from_stats`` so the two ledgers cannot
        drift.
    pool:
        A :class:`~repro.runner.pool.WorkerPool` to dispatch chunked
        batches on instead of forking an ephemeral pool per grid --
        workers stay warm across grids.  Ignored on the per-point
        parallel path and when the pool is closed (the run degrades to
        an ephemeral pool, results identical).
    chunk_size:
        Points per chunk on the chunked parallel path.  Default
        ``None`` sizes adaptively: ``pending / (4 * workers)`` clamped
        to ``[CHUNK_FLOOR, CHUNK_CAP]``.
    """
    points = list(points)
    stats = RunStats() if stats is None else stats
    stats.points += len(points)
    on_error = tuple(on_error)
    retry_on = tuple(retry_on)
    use_cache = cache is not None and cache_key is not None
    tracer = NULL_TRACER if tracer is None else tracer
    point_hist = wait_hist = None
    if metrics is not None:
        point_hist = metrics.histogram(
            "repro_point_seconds",
            "wall-clock per evaluated grid point")
        wait_hist = metrics.histogram(
            "repro_queue_wait_seconds",
            "submit-to-result latency minus evaluation time "
            "(parallel path)")

    owns_journal = isinstance(journal, (str, os.PathLike))
    if owns_journal:
        journal = RunJournal(journal)
    elif journal is None:
        journal = NULL_JOURNAL

    results = [None] * len(points)
    keys = [None] * len(points)
    pending = []
    try:
        with tracer.span("grid", label=label,
                         points=len(points)) as grid_span:
            if use_cache:
                with stats.stage("cache"), \
                        tracer.span("stage", stage="cache"):
                    for index, point in enumerate(points):
                        key = cache.key_for(cache_key,
                                            fingerprint(point))
                        keys[index] = key
                        hit, value = cache.lookup(key)
                        if hit:
                            stats.cache_hits += 1
                            if isinstance(value, str) \
                                    and value == INFEASIBLE_MARKER:
                                stats.infeasible += 1
                                value = None
                            results[index] = value
                        else:
                            stats.cache_misses += 1
                            pending.append((index, point))
            else:
                pending = list(enumerate(points))

            if use_cache:
                def flush(index, soft):
                    value = INFEASIBLE_MARKER if soft \
                        else results[index]
                    cache.writeback(keys[index], value)
            else:
                def flush(index, soft):
                    pass

            nworkers = min(resolve_workers(workers),
                           max(len(pending), 1))
            stats.workers = max(stats.workers, nworkers)
            journal.record("run_start", label=label, points=len(points),
                           cached=len(points) - len(pending),
                           pending=len(pending), workers=nworkers,
                           cache=use_cache)
            grid_span.set(cached=len(points) - len(pending),
                          pending=len(pending), workers=nworkers)
            errored = set()
            if pending:
                with stats.stage("evaluate"), \
                        tracer.span("stage", stage="evaluate"):
                    policy = (on_error, retry_on, retries, backoff,
                              timeout)
                    method = _start_method() if nworkers > 1 else None
                    live_pool = pool
                    if live_pool is not None \
                            and getattr(live_pool, "closed", False):
                        live_pool = None
                    leftover = None
                    if method is not None and kernel is not None:
                        leftover = _run_chunked(
                            fn, kernel, context, policy, pending,
                            nworkers, method, live_pool, chunk_size,
                            results, errored, stats, journal, flush,
                            tracer, point_hist, wait_hist, metrics,
                            label)
                        if leftover:
                            journal.record("requeue_serial",
                                           points=len(leftover))
                            _run_batch(kernel, leftover, results,
                                       errored, stats, journal, flush,
                                       label, tracer, point_hist)
                    elif method is not None:
                        leftover = _run_forked(
                            fn, context, policy, pending, nworkers,
                            method, results, errored, stats, journal,
                            flush, tracer, point_hist, wait_hist)
                        if leftover:
                            journal.record("requeue_serial",
                                           points=len(leftover))
                            _run_serial(fn, context, policy, leftover,
                                        results, errored, stats,
                                        journal, flush, tracer,
                                        point_hist)
                    if leftover is None:
                        if kernel is not None:
                            _run_batch(kernel, pending, results,
                                       errored, stats, journal, flush,
                                       label, tracer, point_hist)
                        else:
                            _run_serial(fn, context, policy, pending,
                                        results, errored, stats,
                                        journal, flush, tracer,
                                        point_hist)
                stats.evaluated += len(pending)
                stats.infeasible += len(errored)
            journal.record("run_finish", label=label,
                           stats=stats.to_dict())
    finally:
        if owns_journal:
            journal.close()
    return results


def _record_point(payload, results, errored, stats, journal, flush):
    """Fold one completed point (from either path) into the run state.

    Hard failures are re-raised here -- *after* the retry/timeout
    counters and the journal have recorded them, so an aborted run's
    stats and black box still tell the truth.
    """
    index, value, status, attempts, ntimeouts, elapsed = payload
    if status == "hard":
        stats.retries += attempts
        stats.timeouts += ntimeouts
        journal.record("point_failed", index=index, attempts=attempts,
                       timeouts=ntimeouts, error=repr(value))
        raise value
    results[index] = value
    soft = status == "soft"
    if soft:
        errored.add(index)
    stats.retries += attempts
    stats.timeouts += ntimeouts
    if attempts:
        journal.record("point_retried", index=index, attempts=attempts)
    journal.record("point_finished", index=index,
                   status="infeasible" if soft else "ok",
                   attempts=attempts, timeouts=ntimeouts,
                   elapsed=round(elapsed, 6))
    flush(index, soft)


_SPAN_STATUS = {"ok": "ok", "soft": "infeasible", "hard": "failed"}


def _run_serial(fn, context, policy, pending, results, errored, stats,
                journal, flush, tracer=NULL_TRACER, point_hist=None):
    on_error, retry_on, retries, backoff, timeout = policy
    for index, point in pending:
        journal.record("point_started", index=index)
        start = time.perf_counter()
        with tracer.span("point", index=index) as span:
            value, status, attempts, ntimeouts = _eval_point(
                fn, context, point, on_error, retry_on, retries,
                backoff, timeout, tracer)
            span.set(status=_SPAN_STATUS[status], attempts=attempts)
        elapsed = time.perf_counter() - start
        if point_hist is not None:
            point_hist.observe(elapsed)
        _record_point(
            (index, value, status, attempts, ntimeouts, elapsed),
            results, errored, stats, journal, flush)


def _run_batch(kernel, pending, results, errored, stats, journal, flush,
               label=None, tracer=NULL_TRACER, point_hist=None):
    """Evaluate all of ``pending`` through one batch-kernel call.

    The kernel owns the inner loop (hoisted model state, no per-point
    dispatch); this wrapper keeps the per-point contract around it --
    results recorded in point order, ``None`` counted infeasible, every
    result flushed to the cache, one ``point_finished`` journal line per
    point (their ``elapsed`` is the batch wall-clock split evenly, since
    points are not timed individually inside a kernel).  The trace gets
    one ``batch`` span for the kernel call; the latency histogram
    observes the same even split the journal reports.
    """
    pts = [point for _, point in pending]
    journal.record("batch_started", label=label, points=len(pts))
    start = time.perf_counter()
    with tracer.span("batch", label=label, points=len(pts)):
        values = list(kernel(pts))
    elapsed = time.perf_counter() - start
    if len(values) != len(pending):
        raise RunnerError(
            "batch kernel returned {} results for {} points".format(
                len(values), len(pending)))
    share = round(elapsed / len(pending), 6) if pending else 0.0
    nsoft = 0
    for (index, _), value in zip(pending, values):
        results[index] = value
        soft = value is None
        if soft:
            errored.add(index)
            nsoft += 1
        if point_hist is not None:
            point_hist.observe(share)
        journal.record("point_finished", index=index,
                       status="infeasible" if soft else "ok",
                       attempts=0, timeouts=0, elapsed=share)
        flush(index, soft)
    journal.record("batch_finished", label=label, points=len(pts),
                   ok=len(pts) - nsoft, infeasible=nsoft,
                   elapsed=round(elapsed, 6))


def _note_parallel_point(payload, submitted, tracer, point_hist,
                         wait_hist):
    """Trace/measure one worker-evaluated point in the parent.

    The worker timed the evaluation itself (``elapsed`` in the result
    tuple); the parent knows when it submitted the task, so queue wait
    is arrival minus submission minus evaluation, floored at zero
    (clock jitter must not produce negative waits).
    """
    index, value, status, attempts, ntimeouts, elapsed = payload
    wait_s = None
    submit_t = submitted.get(index)
    if submit_t is not None:
        wait_s = max(time.perf_counter() - submit_t - elapsed, 0.0)
    tracer.record("point", elapsed, index=index,
                  status=_SPAN_STATUS[status], attempts=attempts,
                  wait=None if wait_s is None else round(wait_s, 6))
    if point_hist is not None:
        point_hist.observe(elapsed)
    if wait_hist is not None and wait_s is not None:
        wait_hist.observe(wait_s)


def _acquire_parallel_slot():
    if not _FORK_LOCK.acquire(blocking=False):
        raise RunnerError(
            "another thread is already running a parallel evaluate_grid; "
            "concurrent callers must use workers=None")


def _run_forked(fn, context, policy, pending, nworkers, method, results,
                errored, stats, journal, flush, tracer=NULL_TRACER,
                point_hist=None, wait_hist=None):
    """Fan ``pending`` point-at-a-time over a process pool with bounded
    submission (at most ``MAX_INFLIGHT_PER_WORKER * nworkers`` futures
    in flight; the observed peak is journaled as ``pool_finished``).

    Returns ``[]`` when the grid completed, the unfinished points when a
    worker died hard (SIGKILL, OOM -- the executor raises
    ``BrokenProcessPool`` instead of hanging; every result that made it
    back is salvaged, and was already flushed to the cache
    incrementally), or ``None`` when the workers cannot be reached at
    all (spawn platform, unpicklable state) so the caller runs serial
    instead.  Workers never trace: each point's span is recorded by the
    parent from the worker-reported wall-clock.
    """
    global _FORK_STATE
    state = (fn, None, context) + policy
    blob = None
    if method != "fork":
        blob = _state_blob(state)
        if blob is None:
            return None
    _acquire_parallel_slot()
    executor = None
    try:
        if blob is None:
            _FORK_STATE = state
        executor = _pool_executor(nworkers, method, blob)
        limit = MAX_INFLIGHT_PER_WORKER * nworkers
        backlog = deque(pending)
        inflight = {}
        submitted = {}
        peak = 0
        try:
            while backlog or inflight:
                while backlog and len(inflight) < limit:
                    index, point = backlog.popleft()
                    fut = executor.submit(_worker_eval, (index, point))
                    inflight[fut] = (index, point)
                    submitted[index] = time.perf_counter()
                    journal.record("point_submitted", index=index)
                peak = max(peak, len(inflight))
                ready, _ = wait(list(inflight),
                                return_when=FIRST_COMPLETED)
                for fut in ready:
                    payload = fut.result()
                    del inflight[fut]
                    _note_parallel_point(payload, submitted, tracer,
                                         point_hist, wait_hist)
                    _record_point(payload, results, errored, stats,
                                  journal, flush)
        except BrokenProcessPool:
            leftover = _salvage(inflight, set(), results, errored,
                                stats, journal, flush, submitted,
                                tracer, point_hist, wait_hist)
            leftover.extend(backlog)
            stats.crashes += 1
            journal.record("pool_crashed", workers=nworkers,
                           completed=len(pending) - len(leftover),
                           remaining=len(leftover))
            return leftover
        journal.record("pool_finished", workers=nworkers, method=method,
                       points=len(pending), inflight_peak=peak,
                       inflight_limit=limit)
        return []
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        _FORK_STATE = None
        _FORK_LOCK.release()


def _run_chunked(fn, kernel, context, policy, pending, nworkers,
                 method, pool, chunk_size, results, errored, stats,
                 journal, flush, tracer=NULL_TRACER, point_hist=None,
                 wait_hist=None, metrics=None, label=None):
    """Shard ``pending`` into contiguous chunks and run the batch kernel
    *inside* pool workers -- one IPC round-trip per chunk.

    With a warm ``pool`` the grid state travels as one pickled blob
    (memoised per worker per grid epoch); without one an ephemeral pool
    is used -- fork workers inherit the state copy-on-write, spawn
    workers get the blob through the pool initializer.  Submission is
    bounded like the per-point path.  A chunk whose kernel raises is
    bisected and resubmitted until the poison point is isolated at size
    1; isolated points are re-run in the parent under the full per-point
    retry/timeout/on_error policy *after* every healthy chunk has
    landed, so a poison point never costs its siblings.

    Returns ``[]`` on completion, the unfinished points after a pool
    crash (for the serial *batch* requeue), or ``None`` when workers
    cannot be reached (spawn platform, unpicklable state) so the caller
    runs the serial batch path instead.
    """
    global _FORK_STATE
    state = (fn, kernel, context) + policy
    blob = None
    if pool is not None:
        blob = _state_blob(state)
        if blob is None:
            pool = None    # unpicklable state cannot ride a warm pool
    if pool is None and method != "fork":
        blob = _state_blob(state)
        if blob is None:
            return None
    _acquire_parallel_slot()
    own = None
    try:
        if pool is not None:
            executor = pool.executor()
            nworkers = pool.workers or nworkers
        else:
            if blob is None:
                _FORK_STATE = state
            own = executor = _pool_executor(nworkers, method, blob)
        # Warm-pool tasks carry the blob (the pool outlives this grid's
        # state); ephemeral workers already hold the state.
        task_blob = blob if pool is not None else None
        epoch = next(_STATE_EPOCHS) if task_blob is not None else 0
        size = _chunk_points(len(pending), nworkers, chunk_size)
        chunk_hist = None
        if metrics is not None:
            chunk_hist = metrics.histogram(
                "repro_chunk_seconds",
                "batch-kernel wall-clock per dispatched chunk")
            metrics.gauge(
                "repro_chunk_size",
                "points per chunk in the most recent chunked grid"
            ).set(size)
        ids = itertools.count(1)
        backlog = deque()
        for lo in range(0, len(pending), size):
            backlog.append((next(ids), pending[lo:lo + size]))
        nchunks = len(backlog)
        journal.record("chunks_planned", label=label,
                       points=len(pending), chunks=nchunks,
                       chunk_size=size, workers=nworkers,
                       warm=pool is not None)
        limit = MAX_INFLIGHT_PER_WORKER * nworkers
        inflight = {}
        poisoned = []
        peak = 0
        try:
            while backlog or inflight:
                while backlog and len(inflight) < limit:
                    chunk_id, items = backlog.popleft()
                    fut = executor.submit(
                        _chunk_eval, (chunk_id, items, epoch, task_blob))
                    inflight[fut] = (chunk_id, items,
                                     time.perf_counter())
                    journal.record("chunk_submitted", chunk=chunk_id,
                                   points=len(items), first=items[0][0],
                                   last=items[-1][0])
                peak = max(peak, len(inflight))
                ready, _ = wait(list(inflight),
                                return_when=FIRST_COMPLETED)
                for fut in ready:
                    chunk_id, items, submit_t = inflight[fut]
                    try:
                        _, values, elapsed = fut.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        del inflight[fut]
                        if len(items) == 1:
                            journal.record("chunk_failed",
                                           chunk=chunk_id,
                                           index=items[0][0],
                                           error=repr(exc))
                            poisoned.append(items[0])
                        else:
                            mid = len(items) // 2
                            left, right = next(ids), next(ids)
                            journal.record("chunk_bisected",
                                           chunk=chunk_id,
                                           points=len(items),
                                           into=[left, right],
                                           error=repr(exc))
                            backlog.appendleft((right, items[mid:]))
                            backlog.appendleft((left, items[:mid]))
                        continue
                    del inflight[fut]
                    wait_s = max(
                        time.perf_counter() - submit_t - elapsed, 0.0)
                    _record_chunk(chunk_id, items, values, elapsed,
                                  wait_s, results, errored, stats,
                                  journal, flush, tracer, point_hist,
                                  wait_hist, chunk_hist)
        except BrokenProcessPool:
            leftover = _salvage_chunks(inflight, backlog, results,
                                       errored, stats, journal, flush,
                                       tracer, point_hist, wait_hist,
                                       chunk_hist)
            stats.crashes += 1
            journal.record("pool_crashed", workers=nworkers,
                           completed=len(pending) - len(leftover)
                           - len(poisoned),
                           remaining=len(leftover) + len(poisoned))
            if pool is not None:
                pool.restart()
            if poisoned:
                _run_serial(fn, context, policy, sorted(poisoned),
                            results, errored, stats, journal, flush,
                            tracer, point_hist)
            return leftover
        journal.record("pool_finished", workers=nworkers, method=method,
                       points=len(pending), chunks=nchunks,
                       inflight_peak=peak, inflight_limit=limit)
        if poisoned:
            journal.record("requeue_serial", points=len(poisoned))
            _run_serial(fn, context, policy, sorted(poisoned), results,
                        errored, stats, journal, flush, tracer,
                        point_hist)
        return []
    finally:
        if own is not None:
            own.shutdown(wait=False, cancel_futures=True)
        _FORK_STATE = None
        _FORK_LOCK.release()


def _record_chunk(chunk_id, items, values, elapsed, wait_s, results,
                  errored, stats, journal, flush, tracer=NULL_TRACER,
                  point_hist=None, wait_hist=None, chunk_hist=None):
    """Fold one completed chunk into the run state.

    Keeps :func:`_run_batch`'s per-point contract -- results in point
    order, ``None`` counted infeasible, incremental flush, one
    ``point_finished`` line per point at the even elapsed split -- plus
    the parallel path's queue-wait accounting and a ``chunk`` span
    parenting the point spans (the worker never traces; both are
    recorded here from the worker-reported wall-clock).
    """
    share = round(elapsed / len(items), 6) if items else 0.0
    span = tracer.record("chunk", elapsed, chunk=chunk_id,
                         points=len(items), wait=round(wait_s, 6))
    parent = getattr(span, "span_id", None)
    nsoft = 0
    for (index, _), value in zip(items, values):
        results[index] = value
        soft = value is None
        if soft:
            errored.add(index)
            nsoft += 1
        if point_hist is not None:
            point_hist.observe(share)
        tracer.record("point", share, parent_id=parent, index=index,
                      status="infeasible" if soft else "ok")
        journal.record("point_finished", index=index,
                       status="infeasible" if soft else "ok",
                       attempts=0, timeouts=0, elapsed=share)
        flush(index, soft)
    if chunk_hist is not None:
        chunk_hist.observe(elapsed)
    if wait_hist is not None:
        wait_hist.observe(wait_s)
    journal.record("chunk_finished", chunk=chunk_id, points=len(items),
                   ok=len(items) - nsoft, infeasible=nsoft,
                   elapsed=round(elapsed, 6), wait=round(wait_s, 6))


def _salvage_chunks(inflight, backlog, results, errored, stats, journal,
                    flush, tracer=NULL_TRACER, point_hist=None,
                    wait_hist=None, chunk_hist=None):
    """After a pool crash on the chunked path: record every chunk whose
    result arrived, return the points of the rest (plus the never-
    submitted backlog) for the serial batch requeue, in point order."""
    leftover = []
    for fut, (chunk_id, items, submit_t) in inflight.items():
        payload = None
        if fut.done() and not fut.cancelled():
            try:
                payload = fut.result(timeout=0)
            except BaseException:
                payload = None
        if payload is None:
            leftover.extend(items)
        else:
            _, values, elapsed = payload
            wait_s = max(time.perf_counter() - submit_t - elapsed, 0.0)
            _record_chunk(chunk_id, items, values, elapsed, wait_s,
                          results, errored, stats, journal, flush,
                          tracer, point_hist, wait_hist, chunk_hist)
    for _, items in backlog:
        leftover.extend(items)
    leftover.sort(key=lambda item: item[0])
    return leftover


def _salvage(futures, done, results, errored, stats, journal, flush,
             submitted=None, tracer=NULL_TRACER, point_hist=None,
             wait_hist=None):
    """After a pool crash: keep every result that arrived, list the rest.

    Once the executor is broken every outstanding future is done (the
    crash exception is set on the ones that never ran); anything holding
    a real result is recorded, anything else is returned for requeue, in
    submission (= point) order.
    """
    leftover = []
    for fut, (index, point) in futures.items():
        if fut in done:
            continue
        payload = None
        if fut.done() and not fut.cancelled():
            try:
                payload = fut.result(timeout=0)
            except BaseException:
                payload = None
        if payload is None:
            leftover.append((index, point))
        else:
            _note_parallel_point(payload, submitted or {}, tracer,
                                 point_hist, wait_hist)
            _record_point(payload, results, errored, stats, journal,
                          flush)
    return leftover


class CachedEvaluator:
    """Point-at-a-time evaluation with memoisation and the shared cache.

    For search loops that cannot batch their points up front.  Results are
    memoised in process and, when the owning :class:`Runner` has a cache
    and the evaluator a ``cache_key``, persisted like grid results.
    Exceptions always propagate (a search loop must see infeasibility);
    cached infeasible markers are treated as misses for the same reason --
    on *both* ledgers, so ``stats.hit_rate`` and the cache's own counters
    agree.

    ``calls`` counts actual underlying evaluations -- the number a
    convergence search pays after caching, which tests assert on.
    """

    def __init__(self, fn, cache=None, cache_key=None, stats=None):
        self.fn = fn
        self.cache = cache if cache_key is not None else None
        self.cache_key = cache_key
        self.stats = RunStats() if stats is None else stats
        self.calls = 0
        self._memo = {}

    def __call__(self, point):
        token = fingerprint(point)
        self.stats.points += 1
        if token in self._memo:
            self.stats.cache_hits += 1
            return self._memo[token]
        key = None
        if self.cache is not None:
            key = self.cache.key_for(self.cache_key, token)
            hit, value = self.cache.lookup(key)
            if hit and isinstance(value, str) \
                    and value == INFEASIBLE_MARKER:
                # The search loop must recompute, so the persisted
                # marker counts as a miss in the cache's ledger too.
                self.cache.reclassify_hit_as_miss()
                hit = False
            if hit:
                self.stats.cache_hits += 1
                self._memo[token] = value
                return value
            self.stats.cache_misses += 1
        value = self.fn(point)
        self.calls += 1
        self.stats.evaluated += 1
        self._memo[token] = value
        if key is not None:
            self.cache.put(key, value)
        return value


class Runner:
    """One execution policy -- workers, cache, retries, journal, stats --
    reused across runs.

    ``cache`` may be a :class:`ResultCache`, a directory path, or ``None``
    (no caching); ``journal`` a :class:`~repro.runner.journal.RunJournal`
    or a path (opened once, shared by every run).  ``retry_on`` /
    ``retries`` / ``backoff`` / ``timeout`` set the fault-tolerance
    policy every grid run under this runner inherits.  ``pool`` may be a
    :class:`~repro.runner.pool.WorkerPool` whose warm workers serve the
    chunked parallel path of every grid (the runner does not own it --
    whoever built the pool closes it); ``chunk_size`` overrides the
    adaptive chunk sizing.  All grids and evaluators created through one
    runner accumulate into the same :class:`RunStats`, so a report can
    summarise a whole figure regeneration in one line.
    """

    def __init__(self, workers=None, cache=None, stats=None, retry_on=(),
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 timeout=None, journal=None, tracer=None, metrics=None,
                 pool=None, chunk_size=None):
        self.workers = workers
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.cache = cache
        self.stats = RunStats() if stats is None else stats
        self.retry_on = tuple(retry_on)
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        if isinstance(journal, (str, os.PathLike)):
            journal = RunJournal(journal)
        self.journal = journal
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        self.pool = pool
        self.chunk_size = chunk_size

    def run(self, fn, points, context=_NO_CONTEXT, cache_key=None,
            on_error=(), label=None, kernel=None):
        """:func:`evaluate_grid` under this runner's policy."""
        return evaluate_grid(
            fn, points, workers=self.workers, context=context,
            cache=self.cache, cache_key=cache_key, on_error=on_error,
            stats=self.stats, retry_on=self.retry_on,
            retries=self.retries, backoff=self.backoff,
            timeout=self.timeout, journal=self.journal, label=label,
            kernel=kernel, tracer=self.tracer, metrics=self.metrics,
            pool=self.pool, chunk_size=self.chunk_size)

    def evaluator(self, fn, cache_key=None):
        """A :class:`CachedEvaluator` sharing this runner's cache/stats."""
        return CachedEvaluator(fn, cache=self.cache, cache_key=cache_key,
                               stats=self.stats)

    def close(self):
        """Flush and close the journal, if any (idempotent).  The pool,
        when one was passed in, belongs to its creator and stays warm."""
        if self.journal is not None:
            self.journal.close()

    def __repr__(self):
        return "Runner(workers={!r}, cache={!r})".format(
            self.workers, self.cache)
