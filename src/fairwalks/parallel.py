"""Ordered maps over forked processes: ``fork_map`` forks its processes
for one map, ``worker_map`` reuses one worker for every map of a process.

``fork_map(fn, items, processes)`` yields ``fn(item)`` for every item, in
item order. ``processes`` is first cut to the number of items and to the
CPUs this process may run on; call that w. Item i runs in process
``i % w``: the caller is process 0 and computes its own items in turn;
every other process is an ``os.fork`` child that writes each result,
pickled with its index, to its own pipe and then leaves by ``os._exit``.
A child inherits the caller's memory, so only the results need to pickle.
When the map returns, raises or is closed, the caller kills every child
still running and reaps them all.

``worker_map(fn, state, items, processes)`` yields ``fn(state, item)``
for every item, in item order, over this process and one worker, so
``processes`` above two count as two. Even items run in the caller and
odd items in the worker, which writes their results as a ``fork_map``
child does. The worker is forked at the first split map of a process,
so it inherits that map's ``fn``, ``state`` and items, and is reused by
every later map, which sends them down a job pipe as one length-prefixed
pickle whose arrays travel out of band (pickle protocol 5), written
straight from their own buffers so the caller never copies the state.
``fn`` pickles by name, so the worker runs the code as it stood when it
was forked: code that patches what ``fn`` calls must do so before the
first split map of its process. The worker also keeps the caller's
memory as it was at the fork: pages the caller frees later stay resident
in the worker until it ends. It ignores SIGINT, points stdin and stdout
at ``/dev/null``, closes every other descriptor it inherited and leaves
by ``os._exit`` when its job pipe reaches EOF. ``close_worker()``, and
an ``atexit`` hook, kill and reap it; every later fork child closes its
pipes and forgets it. If the worker dies, or a map raises or is closed
before its last item, the caller kills and forgets the worker, so the
next map forks a fresh one and never reads a stale result. A worker
costs one fork per process, not one per map, which pays off only where
one process runs several split maps: a fork-context
``multiprocessing.Pool`` started per map was slower than the serial loop.

A map opened while another is open, in one of its children, in the
worker or in its caller, runs serially, as does every map where
``os.fork`` does not exist. An exception raised by ``fn`` in another
process is raised again with its type and message, or as a RuntimeError
that names the type when the type cannot be built from the message
alone; a process that dies before it returns an item raises a
RuntimeError that names its pid.
"""

import atexit
import functools
import gc
import os
import pickle
import signal
import struct

_open = False  # a map is open in this process, or this process is a child of one or the worker
_worker = None  # this process's worker: (pid, job pipe's write end, result pipe's reader)


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, items, processes: int):
    """Yield ``fn(item)`` for every item, in item order, over at most
    ``processes`` processes, no more than the items or the CPUs (see the
    module docstring)."""
    global _open
    items = list(items)
    processes = min(processes, len(items), available_cpus())
    if processes < 2 or _open or not hasattr(os, "fork"):
        for item in items:
            yield fn(item)
        return
    _open = True  # and so in every child, whose maps then run serially
    pids, readers = [], []
    try:
        for rank in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, items, rank, processes, write_fd)
            pids.append(pid)
            os.close(write_fd)  # the child's copy is then the only one: EOF when it ends
            readers.append(os.fdopen(read_fd, "rb"))
        for i, item in enumerate(items):
            rank = i % processes
            yield fn(item) if rank == 0 else _receive(pids[rank - 1], readers[rank - 1], i)
    finally:
        _open = False
        for reader in readers:
            reader.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _serve(fn, items, rank, processes, fd):
    """A child's loop over its items; it leaves without running any of
    the caller's cleanup."""
    try:
        with os.fdopen(fd, "wb") as out:
            _answer(out, fn, [(i, items[i]) for i in range(rank, len(items), processes)])
    finally:
        os._exit(0)


def _answer(out, fn, items):
    """Write ``(i, True, fn(item))`` for every ``(i, item)`` to out, or
    item i's failure, after which it stops."""
    for i, item in items:
        try:
            out.write(pickle.dumps((i, True, fn(item))))
        except Exception as exc:
            out.write(_failure(i, exc))
            break
        finally:
            out.flush()


def worker_map(fn, state, items, processes: int):
    """Yield ``fn(state, item)`` for every item, in item order; from two
    ``processes`` on, and no fewer items or CPUs, the odd items run in
    this process's worker (see the module docstring)."""
    global _open
    items = list(items)
    processes = min(processes, len(items), available_cpus())
    if processes < 2 or _open or not hasattr(os, "fork"):
        for item in items:
            yield fn(state, item)
        return
    _open = True
    finished = False
    try:
        pid, reader = _give_worker((fn, state, list(enumerate(items))[1::2]))
        for i, item in enumerate(items):
            yield fn(state, item) if i % 2 == 0 else _receive(pid, reader, i)
        finished = True
    finally:
        _open = False
        if not finished:
            close_worker()


def close_worker():
    """Kill and reap this process's worker, if it has one."""
    if _worker is not None:
        pid = _worker[0]
        _forget_worker()
        os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still the worker's
        os.waitpid(pid, 0)


def _forget_worker():
    """Close this process's ends of the worker's pipes and drop it."""
    global _worker
    if _worker is not None:
        _, jobs, reader = _worker
        _worker = None
        os.close(jobs)
        reader.close()


atexit.register(close_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _give_worker(job):
    """Hand ``(fn, state, [(i, item), ...])`` to this process's worker:
    send it down the job pipe, or, if there is no worker or the last one
    ended, fork one that inherits it. Returns the worker's pid and result
    reader."""
    global _worker
    if _worker is not None and os.waitpid(_worker[0], os.WNOHANG)[0]:
        _forget_worker()  # it ended and is now reaped
    if _worker is not None:
        pid, jobs, reader = _worker
        try:
            _send(jobs, job)
        except BrokenPipeError:
            raise RuntimeError(f"worker process {pid} ended before it took its items") from None
        return pid, reader
    job_read, job_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        _work(job, job_read, result_write)
    os.close(job_read)
    os.close(result_write)  # the worker's copy is then the only one: EOF when it ends
    _worker = (pid, job_write, os.fdopen(result_read, "rb"))
    return pid, _worker[2]


def _work(job, jobs, results):
    """The worker's loop: the job it inherited, then every job it is sent;
    it leaves at the job pipe's EOF without running any of the caller's
    cleanup."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        null = os.open(os.devnull, os.O_RDWR)
        os.dup2(null, 0)
        os.dup2(null, 1)
        low, high = sorted((jobs, results))
        os.closerange(3, low)  # null included
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        gc.freeze()  # collections then leave the pages shared with the caller alone
        with os.fdopen(results, "wb") as out:
            while job is not None:
                fn, state, items = job
                job = None
                _answer(out, functools.partial(fn, state), items)
                del fn, state, items  # not held while the next job is read
                job = _recv(jobs)
    finally:
        os._exit(0)


def _send(fd, obj):
    """Write obj to fd: the count of its parts and their sizes, the pickle,
    then every out-of-band buffer straight from its array."""
    buffers = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    parts = [memoryview(payload)] + [buffer.raw() for buffer in buffers]
    header = struct.pack(f"<{len(parts) + 1}q", len(parts), *(part.nbytes for part in parts))
    for part in [memoryview(header)] + parts:
        while part:
            part = part[os.write(fd, part):]


def _recv(fd):
    """The object ``_send`` wrote to fd, or None at EOF."""
    try:
        (count,) = struct.unpack("<q", _read(fd, 8))
        sizes = struct.unpack(f"<{count}q", _read(fd, 8 * count))
        payload = _read(fd, sizes[0])
        return pickle.loads(payload, buffers=[_read(fd, size) for size in sizes[1:]])
    except EOFError:
        return None


def _read(fd, size) -> bytearray:
    """``size`` bytes from fd, read into one buffer; EOFError if it ends first."""
    data = bytearray(size)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return data


def _failure(i, exc) -> bytes:
    """Item i's failure, pickled: the exception's type (None if the type
    does not pickle), its name and the message."""
    try:
        return pickle.dumps((i, False, (type(exc), type(exc).__name__, str(exc))))
    except Exception:
        return pickle.dumps((i, False, (None, type(exc).__name__, str(exc))))


def _receive(pid, reader, index):
    """Item ``index``'s value from process pid, or its exception raised again."""
    try:
        got, ok, value = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"worker process {pid} ended before it returned item {index}") from None
    if got != index:
        raise RuntimeError(f"worker process {pid} returned item {got} in place of {index}")
    if ok:
        return value
    kind, name, text = value
    try:
        error = kind(text)
    except Exception:  # no type, or one that takes more than a message
        error = None
    if not isinstance(error, BaseException) or str(error) != text:
        error = RuntimeError(f"{name} in worker process {pid}: {text}")
    raise error
