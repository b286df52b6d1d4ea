"""The campaign worker: lease, execute, ack — repeat until drained.

One :func:`drain` loop serves every execution mode in the stack:

* the in-process "degenerate one-worker" path of
  :class:`~repro.experiments.session.ExperimentSession` (``jobs=1``);
* the worker *processes* spawned by
  :class:`repro.campaign.engine.Campaign` for ``jobs > 1``;
* the standalone ``scripts/campaign_worker.py`` CLI, where N workers
  on N machines drain one shared queue file.

All of them run the exact same per-cell code, so where a cell executes
cannot change its result.

Failure semantics per leased batch: cells are executed *one at a
time* and acked individually — durable completion, nothing to lose on
a crash but the in-flight cell.  When a cell's execution raises, only
that cell is nacked (charging its retry budget); leased batch-mates
that never started are *unleased* (budget refunded) so one poisoned
cell cannot burn innocent cells' budgets.  A worker that dies outright
takes its whole lease with it — the supervisor's ``release`` or the
lease deadline returns those cells to the queue, with exactly the
in-flight attempt charged.

With a ``cell_timeout``, every attempt runs in an isolated child
process (:func:`repro.resilience.isolate.run_cell_isolated`) so hangs
are killable; without one, cells run in the worker itself, one
:func:`~repro.campaign.cells.execute_cell` call each.  *Suspect*
cells — a previous attempt killed its worker (``LeasedCell.suspect``)
— are always run isolated, whatever the mode: after the first fleet
kill, a poison cell's further crashes are contained to disposable
children (surfacing as :class:`~repro.resilience.isolate.CellCrash`,
nacked with crash attribution) while the worker and its batch-mates
live on.

Fleet health: a drain loop stamps its heartbeat (when given a
:class:`~repro.campaign.health.HeartbeatStore`) every lease round and
after every delivered cell, and clears it on clean exit — so the
queue can tell slow-but-alive from dead, and a *leftover* heartbeat
file is durable evidence of an unclean death for ``campaign_doctor``.
A :class:`~repro.campaign.health.DrainControl` makes the loop
signal-aware: on the first SIGTERM/SIGINT the in-flight cell is
finished and delivered, every unstarted leased cell is returned to
the queue with its attempt refunded, a ``worker_drain`` event is
journaled, and the loop returns normally (the process exits 0) —
resuming later is byte-identical.  A hard interrupt (second signal,
or KeyboardInterrupt without a control) takes the same unlease path
before re-raising, journaled as ``worker_interrupt``, so even Ctrl-C
never strands batch-mates until a lease deadline.

Results flow to two places on ack: the shared content-addressed
:class:`~repro.experiments.cache.ResultCache` (when the worker has
one) and the queue row itself — so a campaign's results are complete
even with no cache configured, and the planner can collect them
without re-reading the cache.

Observability: a drain loop journals its own lifecycle
(``worker_start`` / ``worker_exit``), each executed cell's latency
breakdown (an ``execute`` event carrying ``execute_seconds`` and
``cache_put_seconds``, emitted just before the queue's ``ack``) and
explicit ``timeout`` events when an attempt dies at its wall-clock
budget; the same quantities feed the process-local metrics registry
(:mod:`repro.obs.metrics`), which each worker exports as a Prometheus
textfile under the campaign directory on exit.  All of it lives here,
at the campaign layer — the simulator cycle loop is never touched.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.campaign.cells import Cell, cell_from_descriptor, execute_cell
from repro.campaign.health import DEFAULT_HEARTBEAT_STALE_SECONDS, \
    NULL_CONTROL, DrainControl, HeartbeatStore
from repro.campaign.queue import CellQueue, LeasedCell
from repro.obs.journal import NULL_JOURNAL
from repro.obs.logging_setup import get_logger
from repro.obs.metrics import REGISTRY
from repro.resilience.isolate import CellCrash, CellTimeout, \
    run_cell_isolated

log = get_logger("campaign.worker")

DEFAULT_LEASE_SECONDS = 300.0
"""Lease deadline given to unsupervised workers.  Generous on purpose:
expiry is the *fallback* reclamation path (supervised workers are
released the moment their process is reaped), and a too-short lease
would let a slow-but-alive worker's cells be double-executed."""

DEFAULT_POLL_SECONDS = 0.05
"""Sleep between lease attempts while other workers hold the
remaining cells."""


@dataclass
class DrainStats:
    """What one :func:`drain` call did (for logs and CLI footers)."""

    executed: int = 0
    failed: int = 0
    leases: int = 0
    unleased: int = 0
    """Leased cells returned unexecuted (attempt refunded) because a
    drain or interrupt stopped the worker before it reached them."""
    drained: bool = False
    """Whether the loop stopped on a graceful drain request rather
    than an empty queue."""


def drain(queue: CellQueue, *, worker_id: str, cache=None,
          cell_timeout: float | None = None, lease_batch: int = 8,
          lease_seconds: float = DEFAULT_LEASE_SECONDS,
          poll: float = DEFAULT_POLL_SECONDS, wait: bool = True,
          isolate: bool = False, journal=None, control=None,
          heartbeats: HeartbeatStore | None = None,
          cell_memory: int | None = None) -> DrainStats:
    """Drain a queue until nothing is left (or leasable, with
    ``wait=False``).

    Args:
        queue: The campaign's :class:`CellQueue` (this worker's own
            connection).
        worker_id: Lease owner string; must be unique per worker.
        cache: Optional :class:`ResultCache` — completed results are
            persisted there *before* the ack, so a ``done`` row always
            implies a stored artifact.
        cell_timeout: Per-cell wall-clock budget; routes attempts
            through isolated child processes.
        lease_batch: Cells to claim per lease round.
        lease_seconds: Lease deadline handed to the queue.
        poll: Sleep between empty lease rounds while work remains.
        wait: ``True`` drains until every row is resolved, waiting out
            other workers' leases and retry backoffs; ``False`` exits
            at the first empty lease round (the CLI's ``--no-wait``).
        isolate: Force isolated child processes even without a
            timeout — the recovery path, where whatever killed the
            previous workers must not kill this one.
        journal: Event journal for this drain's lifecycle events; also
            attached to ``queue`` (when the queue has none) so lease /
            ack / retry transitions are narrated too.
        control: Optional :class:`DrainControl`; when its
            ``requested`` flag is set (signal handler, supervisor,
            test) the loop finishes the in-flight cell, unleases the
            rest and returns with ``stats.drained`` set.
        heartbeats: Optional :class:`HeartbeatStore`; stamped every
            lease round and delivered cell, cleared on clean exit.
        cell_memory: Optional address-space cap (bytes) for isolated
            attempts (timeouts, suspects, recovery).
    """
    journal = journal if journal is not None else NULL_JOURNAL
    if queue.journal is NULL_JOURNAL and journal is not NULL_JOURNAL:
        queue.journal = journal
    control = control if control is not None else NULL_CONTROL
    stats = DrainStats()
    journal.emit("worker_start", worker=worker_id, pid=os.getpid(),
                 cell_timeout=cell_timeout, lease_batch=lease_batch)
    log.debug("worker %s draining %s", worker_id, queue.path)
    while not control.requested:
        if heartbeats is not None:
            heartbeats.beat(worker_id, executed=stats.executed,
                            failed=stats.failed, leases=stats.leases)
        batch = queue.lease(worker_id, limit=lease_batch,
                            lease_seconds=lease_seconds)
        if not batch:
            if not wait or queue.unresolved() == 0:
                break
            time.sleep(poll)
            continue
        stats.leases += 1
        REGISTRY.counter("repro_lease_rounds_total").inc()
        _execute_lease(queue, batch, worker_id=worker_id, cache=cache,
                       cell_timeout=cell_timeout, isolate=isolate,
                       stats=stats, journal=journal, control=control,
                       heartbeats=heartbeats, cell_memory=cell_memory)
    if control.requested:
        stats.drained = True
        journal.emit("worker_drain", worker=worker_id,
                     pid=os.getpid(), signal=control.signum,
                     executed=stats.executed,
                     unleased=stats.unleased)
        log.info("worker %s drained on signal %s: in-flight cell "
                 "finished, %d leased cell(s) returned to the queue",
                 worker_id, control.signum, stats.unleased)
    for state, n in queue.counts().items():
        REGISTRY.gauge("repro_queue_depth", {"state": state}).set(n)
    journal.emit("worker_exit", worker=worker_id, pid=os.getpid(),
                 executed=stats.executed, failed=stats.failed,
                 leases=stats.leases, drained=stats.drained)
    if heartbeats is not None:
        # A heartbeat file outliving its worker means an *unclean*
        # death; this exit is clean (drained or done), so say goodbye.
        heartbeats.clear(worker_id)
    log.info("worker %s done: %d executed, %d failed attempt(s), "
             "%d lease round(s)", worker_id, stats.executed,
             stats.failed, stats.leases)
    return stats


def _execute_lease(queue: CellQueue, batch: list[LeasedCell], *,
                   worker_id: str, cache, cell_timeout: float | None,
                   isolate: bool, stats: DrainStats,
                   journal=NULL_JOURNAL, control=NULL_CONTROL,
                   heartbeats: HeartbeatStore | None = None,
                   cell_memory: int | None = None) -> None:
    """Execute one leased batch, acking/nacking cell by cell.

    Every cell ends this call settled exactly once: delivered (ack),
    nacked, or unleased.  A drain request stops the loop *between*
    cells; a hard interrupt (KeyboardInterrupt, SystemExit) is caught,
    the unstarted remainder is unleased and journaled as
    ``worker_interrupt``, and the interrupt re-raised — either way no
    cell is left stranded on a lease deadline.
    """
    cells = [cell_from_descriptor(lc.descriptor) for lc in batch]
    handled: set[str] = set()

    def unlease_rest(counted: bool = True) -> int:
        refunded = 0
        for lc in batch:
            if lc.key not in handled and queue.unlease(lc.key,
                                                       worker_id):
                refunded += 1
        handled.update(lc.key for lc in batch)
        if counted:
            stats.unleased += refunded
        return refunded

    try:
        _run_lease(queue, batch, cells, handled, worker_id=worker_id,
                   cache=cache, cell_timeout=cell_timeout,
                   isolate=isolate, stats=stats, journal=journal,
                   control=control, heartbeats=heartbeats,
                   cell_memory=cell_memory)
    except BaseException as exc:       # noqa: BLE001 — unlease, re-raise
        refunded = unlease_rest()
        journal.emit("worker_interrupt", worker=worker_id,
                     pid=os.getpid(), error=repr(exc),
                     unleased=refunded)
        log.warning("worker %s interrupted (%r): %d leased cell(s) "
                    "returned to the queue", worker_id, exc, refunded)
        raise
    # Graceful-drain path: whatever the loop below did not reach is
    # returned to the queue with its attempt refunded.
    unlease_rest()


def _run_lease(queue: CellQueue, batch: list[LeasedCell],
               cells: list[Cell], handled: set[str], *,
               worker_id: str, cache, cell_timeout: float | None,
               isolate: bool, stats: DrainStats, journal, control,
               heartbeats: HeartbeatStore | None,
               cell_memory: int | None) -> None:
    """Run one lease's cells, marking each settled key in ``handled``."""

    def run_isolated(lc: LeasedCell, cell: Cell) -> None:
        t0 = time.perf_counter()
        try:
            result = run_cell_isolated(cell, timeout=cell_timeout,
                                       memory_limit=cell_memory)
        except Exception as exc:
            if isinstance(exc, CellTimeout):
                REGISTRY.counter("repro_timeouts_total").inc()
                journal.emit("timeout", key=lc.key, label=lc.label,
                             worker=worker_id, attempt=lc.attempts,
                             budget_seconds=cell_timeout)
            log.warning("cell %s attempt %d failed: %r",
                        lc.label, lc.attempts, exc)
            # A crashed child is a *contained* worker death: charge
            # it as fatal so crash-looping cells settle as poisoned.
            queue.nack(lc.key, worker_id, repr(exc),
                       fatal=isinstance(exc, CellCrash))
            handled.add(lc.key)
            stats.failed += 1
            REGISTRY.counter("repro_cells_failed_total").inc()
        else:
            _deliver(queue, lc, cell, result, worker_id=worker_id,
                     cache=cache, stats=stats, journal=journal,
                     execute_seconds=time.perf_counter() - t0,
                     heartbeats=heartbeats)
            handled.add(lc.key)

    for pos, (lc, cell) in enumerate(zip(batch, cells)):
        if control.requested:
            return
        if isolate or cell_timeout is not None or lc.suspect:
            run_isolated(lc, cell)
            continue
        t0 = time.perf_counter()
        try:
            result = execute_cell(cell)
        except Exception as exc:
            # Only the cell that blew up pays an attempt.  Its unstarted
            # batch-mates go back to the queue with the attempt
            # refunded rather than run on here: the exception may say
            # more about this process (memory, a broken import) than
            # about the cell, and a returned cell can be leased by any
            # worker, this one included, on the next round.
            log.warning("cell %s attempt %d failed: %r",
                        lc.label, lc.attempts, exc)
            queue.nack(lc.key, worker_id, repr(exc))
            handled.add(lc.key)
            stats.failed += 1
            REGISTRY.counter("repro_cells_failed_total").inc()
            for rest in batch[pos + 1:]:
                queue.unlease(rest.key, worker_id)
                handled.add(rest.key)
            return
        _deliver(queue, lc, cell, result, worker_id=worker_id,
                 cache=cache, stats=stats, journal=journal,
                 execute_seconds=time.perf_counter() - t0,
                 heartbeats=heartbeats)
        handled.add(lc.key)


def _deliver(queue: CellQueue, leased: LeasedCell, cell: Cell, result,
             *, worker_id: str, cache, stats: DrainStats,
             journal=NULL_JOURNAL,
             execute_seconds: float | None = None,
             heartbeats: HeartbeatStore | None = None) -> None:
    """Persist one completed cell, then ack its queue row.

    Order matters: cache first, ack second, so a ``done`` row never
    refers to a result that was lost with the worker.  The ``execute``
    event (latency breakdown) precedes the ack for the same reason —
    by the time the row is ``done``, its whole timeline is durable.
    """
    t0 = time.perf_counter()
    if cache is not None:
        cache.put(leased.key, result, leased.descriptor)
    cache_put_seconds = time.perf_counter() - t0
    if execute_seconds is not None:
        REGISTRY.histogram("repro_cell_execute_seconds") \
            .observe(execute_seconds)
        REGISTRY.histogram("repro_cell_cache_put_seconds") \
            .observe(cache_put_seconds)
        journal.emit("execute", key=leased.key, label=leased.label,
                     worker=worker_id, attempt=leased.attempts,
                     execute_seconds=round(execute_seconds, 6),
                     cache_put_seconds=round(cache_put_seconds, 6))
    queue.ack(leased.key, worker_id, result.to_dict())
    stats.executed += 1
    REGISTRY.counter("repro_cells_executed_total").inc()
    if heartbeats is not None:
        # Beat per delivered cell: an alive worker grinding a slow
        # batch keeps renewing its leases (see CellQueue deferral).
        heartbeats.beat(worker_id, executed=stats.executed,
                        failed=stats.failed, last_key=leased.key)


def write_worker_metrics(campaign_dir, worker_id: str) -> None:
    """Export this process's registry as a Prometheus textfile.

    One file per worker (``<campaign_dir>/metrics/<worker_id>.prom``)
    — the node-exporter textfile-collector convention, so concurrent
    workers never clobber each other's samples.  Best-effort: metrics
    export must never fail a drain that already completed.
    """
    from pathlib import Path
    try:
        REGISTRY.write_textfile(
            Path(campaign_dir) / "metrics" / f"{worker_id}.prom")
    except OSError:
        log.warning("could not write metrics textfile for %s",
                    worker_id, exc_info=True)


def worker_process_entry(queue_path: str, worker_id: str,
                         cache_dir: str | None,
                         cell_timeout: float | None,
                         lease_batch: int,
                         lease_seconds: float,
                         journal_path: str | None = None,
                         campaign_id: str | None = None,
                         install_signals: bool = True,
                         heartbeat_stale_seconds: float =
                         DEFAULT_HEARTBEAT_STALE_SECONDS,
                         cell_memory: int | None = None) -> None:
    """Top-level (picklable) entry point for spawned worker processes.

    Opens its own queue connection, cache handle and journal — workers
    share *files*, never Python objects (journal appends are atomic,
    so any number of workers write one ``events.jsonl``).

    The process is signal-aware by default: SIGTERM/SIGINT request a
    graceful drain (finish the in-flight cell, unlease the rest,
    journal ``worker_drain``, export metrics, return — i.e. exit 0),
    and heartbeats are stamped beside the queue file so supervisors,
    sibling workers and the doctor can judge this worker's liveness.
    """
    from pathlib import Path

    from repro.experiments.cache import ResultCache
    from repro.obs.journal import Journal, obs_enabled
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    journal = NULL_JOURNAL
    if journal_path is not None and obs_enabled():
        journal = Journal(journal_path, campaign_id=campaign_id,
                          worker_id=worker_id)
    if cache is not None:
        cache.journal = journal
    heartbeats = HeartbeatStore(Path(queue_path).parent)
    control = DrainControl()
    if install_signals:
        control.install()
    queue = CellQueue(queue_path, journal=journal,
                      heartbeats=heartbeats,
                      heartbeat_stale_seconds=heartbeat_stale_seconds)
    try:
        drain(queue, worker_id=worker_id, cache=cache,
              cell_timeout=cell_timeout, lease_batch=lease_batch,
              lease_seconds=lease_seconds, journal=journal,
              control=control, heartbeats=heartbeats,
              cell_memory=cell_memory)
        if journal.enabled:
            write_worker_metrics(Path(journal_path).parent, worker_id)
    finally:
        journal.close()
        queue.close()
        if install_signals:
            control.restore()
