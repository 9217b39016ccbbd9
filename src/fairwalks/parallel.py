"""An ordered map over forked worker processes.

``fork_map(fn, items, processes)`` yields ``fn(item)`` for every item, in
item order. ``processes`` is first cut to the number of items and to the
CPUs this process may run on; call that w. Item i runs in process
``i % w``: the caller is
process 0 and computes its own items in turn; every other process is an
``os.fork`` child that writes each result, pickled with its index, to its
own pipe and then leaves by ``os._exit``. A child inherits the caller's
memory, so only the results need to pickle.

A map opened while another is open, in one of its children or in its
caller, runs serially, as does every map where ``os.fork`` does not
exist. When the map returns, raises or is closed, the caller kills every
child still running and reaps them all. A child's exception is raised
again with its type and message, or as a RuntimeError that names the
type when the type cannot be built from the message alone.
"""

import os
import pickle
import signal

_open = False  # a map is open in this process, or this process is a child of one


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
    """A child's loop over its items; it stops after its first failure and
    leaves without running any of the caller's cleanup."""
    try:
        with os.fdopen(fd, "wb") as out:
            for i in range(rank, len(items), processes):
                try:
                    out.write(pickle.dumps((i, True, fn(items[i]))))
                except Exception as exc:
                    out.write(_failure(i, exc))
                    break
                finally:
                    out.flush()
    finally:
        os._exit(0)


def _failure(i, exc) -> bytes:
    """Item i's failure, pickled: the exception's type (None if the type
    does not pickle), its name and the message."""
    try:
        return pickle.dumps((i, False, (type(exc), type(exc).__name__, str(exc))))
    except Exception:
        return pickle.dumps((i, False, (None, type(exc).__name__, str(exc))))


def _receive(pid, reader, index):
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
