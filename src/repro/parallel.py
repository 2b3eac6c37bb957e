"""The worker plane: every process this package starts, starts here.

Oversized-CC splitting in the compiler, multi-stream sharding, SFA
split-stream mapping and the serving layer's scan spans are all jobs on
one :class:`WorkerPool` — the first three through :func:`fan_out`, the
one copy of the fall-back-to-serial policy.  No other module under
``repro`` imports :mod:`multiprocessing` or :mod:`concurrent.futures`
(``tests/test_parallel.py`` checks).

**The plane.**  ``N`` long-lived worker processes, each on its own
duplex :func:`multiprocessing.Pipe`.  A job is one ``conn.send`` of
``(fn, payload)`` — ``fn`` a module-level function, pickled by import
path — to an idle worker and one ``conn.recv`` when the descriptor
turns readable.  There is no manager thread, no feeder thread and no
future crossing threads.  A worker has **one job in flight**; further
jobs wait first-in first-out in the parent and the reader callback
hands the next one to a worker before it resolves the job that just
came back, so the worker computes while the parent consumes the reply.
Because a worker is only ever sent to while it sits in ``recv``,
neither side can block the other on a full pipe buffer, whatever the
size of a payload or of a reply.

**Messages** (pickled by the pipe):

* parent → worker ``(fn, payload)`` — one job; the worker replies
  ``("ok", fn(payload))``.
* worker → parent ``("ask",)`` — sent by :func:`ask_parent` from inside
  a job; the parent answers with the ``context`` the job was submitted
  with and the worker goes on with the job it already holds.  It lets a
  worker fetch, once, something too large to ride every job (the
  serving layer's tenant spec).
* worker → parent ``("error", exception)`` — the job raised in a live
  worker; it propagates as itself, the worker carries on.
* parent → worker ``None`` — stop.

**Supervision is per worker.**  End-of-file on a pipe, a reply that
cannot be read, or a failed send means that one process is gone: the
job it held fails with :class:`WorkerLost` (the serving layer's
:class:`~repro.service.errors.WorkerCrashed`), the process is replaced
(counted in :attr:`WorkerPool.respawns`) and every other worker, with
the job it holds, carries on.  A death costs the job the worker held
or, if it held none, exactly the next job sent to it — never zero,
never two: a worker found dead while idle moves to the front of the
idle queue, where the next send to it fails.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection, get_all_start_methods, get_context
from multiprocessing import util
from typing import Callable, Deque, List, NamedTuple, Optional
from typing import Sequence, Tuple, Union

from repro.errors import DegradedModeWarning, JobsError, ReproError

#: How long :meth:`WorkerPool.shutdown` waits for workers told to stop
#: before it kills them.  An idle worker exits within milliseconds; one
#: that has not after this long is wedged.
EXIT_GRACE_S = 1.0


class WorkerLost(ReproError):
    """The worker process holding this job died, or its pipe became
    unreadable, before it replied."""


def default_mp_method() -> str:
    """``fork`` where available (workers inherit the imported modules —
    no re-import tax per process), else ``spawn``."""
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def resolve_jobs(
    jobs: Union[int, str, None], env: str, default: Optional[int] = None
) -> int:
    """Worker count for one fan-out site: ``jobs`` if given (int or
    numeric string), else the environment variable ``env``, else
    ``default`` (``None`` = the CPU count).  ``"auto"`` means ``env``,
    else the CPU count whatever the default — how an opt-in site
    (default 1) is asked for every core.  Never below 1 (= stay serial).
    Anything else raises :class:`~repro.errors.JobsError` naming the
    argument or the environment variable it came from, so a typo fails
    as a one-line diagnostic where the count is first needed.
    """
    source = "jobs"
    if jobs is None or jobs == "auto":
        if jobs == "auto" or default is None:
            default = os.cpu_count() or 1
        jobs = os.environ.get(env) or default
        source = env
    try:
        return max(1, int(jobs))
    except (TypeError, ValueError):
        raise JobsError(
            f"{source} must be an integer or 'auto', got {jobs!r}"
        ) from None


# -- worker side -------------------------------------------------------------

#: This worker process's end of its pipe (``None`` in the parent).
_PARENT = None


def ask_parent():
    """From inside a job: fetch the ``context`` the parent submitted the
    job with (one round trip on the worker's pipe)."""
    _PARENT.send(("ask",))
    return _PARENT.recv()


def _worker_main(conn, inherited) -> None:
    """A worker process: jobs off its pipe, one at a time, until the
    parent says stop or goes away."""
    global _PARENT
    # A forked child holds a copy of every descriptor the parent had
    # open, the parent's ends of all the pipes among them; while any
    # copy is open no worker ever reads end-of-file from a parent that
    # died without saying stop.
    for parent_end in inherited:
        parent_end.close()
    _PARENT = conn
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            fn, payload = message
            try:
                reply = ("ok", fn(payload))
            except Exception as error:  # the job's own failure: report it
                reply = ("error", error)
            conn.send(reply)
    except (EOFError, OSError):
        return  # the parent's end of the pipe is closed


# -- parent side -------------------------------------------------------------


class _Job(NamedTuple):
    """One job between ``submit`` and the worker that serves it."""

    message: tuple  # (fn, payload), as the worker receives it
    context: object  # what the parent answers ask_parent() with
    future: object  # a loop future, or a concurrent Future under wait()
    loop: object  # the event loop watching for the reply, else None


class _Worker:
    """One worker process, the parent's end of its pipe, the job it
    holds (``span``: ``None`` = idle) and the loop watching the pipe."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.span: Optional[_Job] = None
        self.loop = None


class WorkerPool:
    """Supervised worker processes, one duplex pipe each.

    :meth:`submit` sends a job down an idle worker's pipe (or queues it
    until one is idle) and returns the future its reply resolves;
    :meth:`wait`/:meth:`run` drive a pool no event loop is watching.  A
    worker that died is replaced on the spot and the job it held — or,
    if it was idle, the next one sent to it — fails with
    :meth:`lost_error`.
    """

    #: Name of the worker processes (``ps``, ``active_children()``).
    process_name = "repro-worker"

    def __init__(self, workers: int, *, mp_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._mp_method = mp_method or default_mp_method()
        self._workers: List[_Worker] = []
        self._idle: Deque[_Worker] = deque()
        self._pending: Deque[_Job] = deque()
        self.respawns = 0

    # -- processes ----------------------------------------------------------

    def start(self) -> None:
        """Bring the plane up to ``workers`` processes."""
        while len(self._workers) < self.workers:
            self._ready(self._spawn())

    def _spawn(self) -> _Worker:
        context = get_context(self._mp_method)
        parent_end, child_end = context.Pipe()
        inherited = ()
        if self._mp_method == "fork":
            inherited = [parent_end, *(peer.conn for peer in self._workers)]
        process = context.Process(
            target=_worker_main,
            args=(child_end, inherited),
            name=self.process_name,
        )
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end)
        # An owner that never calls shutdown() must not hang the
        # interpreter's exit, which joins every child still running.
        util.Finalize(worker, process.kill, exitpriority=10)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        self._unwatch(worker)
        worker.conn.close()
        worker.process.kill()
        worker.process.join()

    def shutdown(self) -> None:
        """Stop every worker; bounded by :data:`EXIT_GRACE_S` even when
        one is wedged.  Jobs still held or queued (none after a drain)
        fail with :meth:`lost_error`."""
        workers, self._workers = self._workers, []
        self._idle.clear()
        orphans = [worker.span for worker in workers if worker.span is not None]
        orphans.extend(self._pending)
        self._pending.clear()
        for worker in workers:
            self._unwatch(worker)
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead
            worker.conn.close()
        give_up_at = time.monotonic() + EXIT_GRACE_S
        for worker in workers:
            worker.process.join(max(0.0, give_up_at - time.monotonic()))
            self._retire(worker)
        for job in orphans:
            if not job.future.done():
                job.future.set_exception(self.lost_error(job))

    def worker_pids(self) -> Tuple[int, ...]:
        """Pids of the worker processes (chaos hooks / tests)."""
        return tuple(worker.process.pid for worker in self._workers)

    def crash_one(self) -> Optional[int]:
        """Chaos hook: SIGKILL one worker process; returns its pid.

        The victim is the worker the next job would go to, or a busy
        one when none is idle, so the job in flight, or else the next
        one sent, fails with :meth:`lost_error`.  Returns only once the
        process has been reaped: until then its end of the pipe may
        still be open, and a job sent in that window would be neither
        refused nor answered deterministically.
        """
        if not self._workers:
            return None
        victim = self._idle[0] if self._idle else self._workers[0]
        victim.process.kill()
        victim.process.join()
        return victim.process.pid

    def kill_busy(self) -> int:
        """SIGKILL every worker still holding a job (a drain gave up on
        them); supervision fails those jobs and replaces the workers."""
        busy = [worker for worker in self._workers if worker.span is not None]
        for worker in busy:
            worker.process.kill()
        return len(busy)

    def lost_error(self, job: _Job) -> BaseException:
        """The exception a job fails with when its worker is gone."""
        return WorkerLost("a worker process died while holding this job")

    # -- the pipe plane -----------------------------------------------------

    def _watch(self, worker: _Worker, loop) -> None:
        self._unwatch(worker)
        if loop is not None:
            loop.add_reader(worker.conn.fileno(), self._on_readable, worker)
        worker.loop = loop

    def _unwatch(self, worker: _Worker) -> None:
        # Always before the descriptor closes: the selector keys on it.
        if worker.loop is not None and not worker.loop.is_closed():
            worker.loop.remove_reader(worker.conn.fileno())
        worker.loop = None

    def _ready(self, worker: _Worker) -> None:
        """An idle worker: give it the oldest job still wanted, else
        queue it at the back of the idle line."""
        while self._pending:
            job = self._pending.popleft()
            if not job.future.done():  # else its waiter was cancelled
                self._send(worker, job)
                return
        self._idle.append(worker)

    def _send(self, worker: _Worker, job: _Job) -> None:
        if worker.loop is not job.loop:
            self._watch(worker, job.loop)
        worker.span = job
        try:
            worker.conn.send(job.message)
        except OSError as error:  # EPIPE: the process died while idle
            self._lost(worker, error)

    def _lost(self, worker: _Worker, error: BaseException) -> None:
        """The worker's process is gone (or unreadable): fail the job it
        held, replace it, and leave every other worker alone."""
        job, worker.span = worker.span, None
        if job is not None and not job.future.done():
            lost = self.lost_error(job)
            # Without its traceback: the frames are the pipe's, they say
            # nothing, and they would pin its buffers until a GC pass.
            lost.__cause__ = error.with_traceback(None)
            job.future.set_exception(lost)
        self._workers.remove(worker)
        self._retire(worker)
        self.respawns += 1
        self._ready(self._spawn())

    def _on_readable(self, worker: _Worker) -> None:
        job = worker.span
        try:
            reply = worker.conn.recv()
        except Exception as error:  # EOF, reset, a reply that won't unpickle
            if job is not None:
                self._lost(worker, error)
            else:
                # Died while idle.  Stop watching (end-of-file stays
                # readable for ever) and make it the next worker picked:
                # that send fails, so exactly one job pays for the death.
                self._unwatch(worker)
                self._idle.remove(worker)
                self._idle.appendleft(worker)
            return
        if reply[0] == "ask":
            try:
                worker.conn.send(job.context)
            except OSError as error:
                self._lost(worker, error)
            return
        # The worker is free the moment its reply is read, and not
        # before: a cancelled waiter's job is still running in the
        # process, and handing the worker out early would give the next
        # job this reply.  Feed it before resolving, so it computes
        # while the parent consumes.
        worker.span = None
        self._ready(worker)
        if job.future.done():
            return  # the waiter was cancelled; nobody wants this reply
        if reply[0] == "error":
            job.future.set_exception(reply[1])
        else:
            job.future.set_result(reply[1])

    def submit(self, fn: Callable, payload, *, context=None, loop=None):
        """Queue ``fn(payload)`` for the next idle worker; returns the
        future of its result.

        Two drivers share the reader callback.  With ``loop`` the future
        is that loop's and the loop watches the worker's pipe
        (``add_reader``); without, it is a
        :class:`concurrent.futures.Future` that :meth:`wait` resolves.
        The future carries :meth:`lost_error` when the worker died (it
        has been replaced already) and the job's own exception when a
        live worker raised it.
        """
        if len(self._workers) < self.workers:
            self.start()
        future = Future() if loop is None else loop.create_future()
        job = _Job((fn, payload), context, future, loop)
        if self._idle:
            self._send(self._idle.popleft(), job)
        else:
            self._pending.append(job)
        return future

    def wait(self, futures: Sequence[Future]) -> Optional[BaseException]:
        """Drive the plane, blocking in :func:`multiprocessing.connection.
        wait`, until every future is done or, taking them in order, one
        has failed; returns that failure."""
        for future in futures:
            while not future.done():
                busy = {
                    worker.conn: worker
                    for worker in self._workers
                    if worker.span is not None
                }
                for conn in connection.wait(list(busy)):
                    self._on_readable(busy[conn])
            if future.exception() is not None:
                return future.exception()
        return None

    def run(self, fn: Callable, payloads: Sequence) -> list:
        """``[fn(payload) for payload in payloads]`` on the workers, in
        submission order; the first failure, in that order, raises."""
        futures = [self.submit(fn, payload) for payload in payloads]
        self.wait(futures)
        return [future.result() for future in futures]


def fan_out(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    *,
    what: str,
    meanwhile: Optional[Callable[[], None]] = None,
) -> Optional[list]:
    """One-shot ``[fn(payload) for payload in payloads]`` on up to
    ``jobs`` fresh worker processes — or ``None``, after one
    :class:`~repro.errors.DegradedModeWarning` naming ``what``, and the
    caller runs its serial path.

    That is the whole degrade policy: only a failure of the *plane* —
    ``OSError`` from process creation, a worker lost mid-job —
    degrades.  An exception a job itself raised (bad input, corrupt
    tables; ``OSError`` included) propagates as itself: retrying it
    serially would mask it or fail identically, twice as slowly.

    A job's payload is everything its worker gets: tables ride inside
    it, pickled down the worker's pipe like the rest.  ``meanwhile``
    runs in the parent after the jobs are out and before their replies
    are read: the parent's own share of the work.
    """
    pool = WorkerPool(min(max(1, jobs), len(payloads)))
    try:
        try:
            futures = [pool.submit(fn, payload) for payload in payloads]
            if meanwhile is not None:
                meanwhile()
            failure = pool.wait(futures)
            if isinstance(failure, WorkerLost):
                raise failure
        except (OSError, WorkerLost) as error:
            warnings.warn(
                f"{what} unavailable ({type(error).__name__}: {error}); "
                "degrading to serial",
                DegradedModeWarning,
                stacklevel=3,
            )
            return None
        # Outside the handler: an OSError raised here is the job's own.
        return [future.result() for future in futures]
    finally:
        pool.shutdown()
