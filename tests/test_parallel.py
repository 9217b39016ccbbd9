import os
import signal

import numpy as np
import pytest

from fairwalks import parallel
from fairwalks.parallel import fork_map, worker_map
from fairwalks.pipeline import StageError
from tests.conftest import assert_reaped, wait_for_exit


def tagged(x):
    return x * x, os.getpid()


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    """Maps of up to four processes fork whatever CPUs the host has."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)


@pytest.mark.parametrize("processes, items", [(2, 5), (3, 7), (3, 3), (4, 2), (4, 9)])
def test_results_come_in_item_order_from_process_i_mod_w(forked, processes, items):
    got = list(fork_map(tagged, range(items), processes))
    assert [value for value, _ in got] == [x * x for x in range(items)]
    ranks = min(processes, items)
    pids = [os.getpid()] + forked
    assert len(pids) == ranks
    assert [pid for _, pid in got] == [pids[i % ranks] for i in range(items)]
    assert_reaped(forked)


def test_processes_are_cut_to_the_cpus(forked, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    got = list(fork_map(tagged, range(9), 8))
    assert len(forked) == 1
    assert [pid for _, pid in got] == [os.getpid(), forked[0]] * 4 + [os.getpid()]
    assert_reaped(forked)


def test_one_process_or_no_fork_is_a_serial_loop(forked, monkeypatch):
    assert list(fork_map(tagged, range(4), 1)) == [(x * x, os.getpid()) for x in range(4)]
    monkeypatch.delattr(os, "fork")
    assert list(fork_map(tagged, range(4), 3)) == [(x * x, os.getpid()) for x in range(4)]
    assert forked == []


def test_a_nested_map_runs_serially_in_every_process(forked):
    def nested(x):
        return os.getpid(), [pid for _, pid in fork_map(tagged, range(3), 3)]

    got = list(fork_map(nested, range(4), 2))
    assert len(forked) == 1
    for outer, inner in got:
        assert inner == [outer] * 3
    assert [outer for outer, _ in got] == [os.getpid(), forked[0]] * 2
    assert_reaped(forked)


def fail_on(bad, error):
    def fn(x):
        if x == bad:
            raise error
        return x
    return fn


def test_a_childs_value_error_reaches_the_caller_with_its_message(forked):
    with pytest.raises(ValueError) as info:
        list(fork_map(fail_on(3, ValueError("bad item 3")), range(6), 2))
    assert type(info.value) is ValueError and str(info.value) == "bad item 3"
    assert_reaped(forked)


def test_a_type_that_needs_more_than_its_message_comes_back_as_runtime_error(forked):
    error = StageError("train", ValueError("x"))
    with pytest.raises(RuntimeError) as info:
        list(fork_map(fail_on(1, error), range(2), 2))
    assert type(info.value) is RuntimeError
    assert str(info.value) == f"StageError in worker process {forked[0]}: {error}"


def test_a_killed_child_raises_runtime_error(forked, deadline):
    def die(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match="ended before it returned item 1"):
        list(fork_map(die, range(4), 2))
    assert_reaped(forked)


def test_the_callers_own_failure_stops_and_reaps_every_child(forked):
    with pytest.raises(KeyError):  # item 3 is the caller's own
        list(fork_map(fail_on(3, KeyError("mine")), range(9), 3))
    assert len(forked) == 2
    assert_reaped(forked)
    assert not parallel._open


def test_an_early_close_reaps_every_child(forked):
    results = fork_map(tagged, range(10), 2)
    assert next(results) == (0, os.getpid())
    results.close()
    assert_reaped(forked)
    # a map after a closed one forks again
    assert [v for v, _ in fork_map(tagged, range(3), 2)] == [0, 1, 4]
    assert len(forked) == 2


def test_a_type_that_does_not_pickle_is_named(forked):
    class LocalError(Exception):
        pass

    with pytest.raises(RuntimeError, match=r"^LocalError in worker process \d+: only here$"):
        list(fork_map(fail_on(1, LocalError("only here")), range(2), 2))


# worker_map: even items in the caller, odd items in one worker per process


def scaled(state, x):
    return state * x, os.getpid()


def test_odd_items_run_in_one_worker_that_later_maps_reuse(forked):
    me = os.getpid()
    assert list(worker_map(scaled, 3, range(5), 2)) == [
        (0, me), (3, forked[0]), (6, me), (9, forked[0]), (12, me)]
    assert parallel._worker[0] == forked[0]  # alive between maps
    # processes above two count as two: this one and the same worker
    assert list(worker_map(scaled, 5, range(4), 4)) == [
        (0, me), (5, forked[0]), (10, me), (15, forked[0])]
    assert len(forked) == 1
    parallel.close_worker()
    assert parallel._worker is None
    assert_reaped(forked)


def test_one_process_one_item_one_cpu_or_no_fork_is_a_serial_loop(forked, monkeypatch):
    serial = [(2 * x, os.getpid()) for x in range(4)]
    assert list(worker_map(scaled, 2, range(4), 1)) == serial
    assert list(worker_map(scaled, 2, range(1), 2)) == serial[:1]
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert list(worker_map(scaled, 2, range(4), 2)) == serial
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert list(worker_map(scaled, 2, range(4), 2)) == serial
    assert forked == []


def echo(state, x):
    return state[x]


def test_state_and_results_round_trip_bit_for_bit(forked):
    rng = np.random.default_rng(0)
    big = rng.normal(size=(300, 70))  # larger than a pipe's buffer
    state = [big, big[:, ::3], np.asfortranarray(big[:40]), np.zeros((0, 3)),
             rng.integers(-9, 9, 70_000).astype(np.int32), {"label": "é", "none": None},
             big[5], [big[:2], "text"]]
    # the first map's worker inherits the state at its fork; the second is sent it
    for got in (list(worker_map(echo, state, range(len(state)), 2)) for _ in range(2)):
        for want, have in zip(state[:5], got[:5]):
            assert (have.dtype, have.shape) == (want.dtype, want.shape)
            assert have.tobytes() == want.tobytes()
        assert got[5] == state[5]
        assert got[6].tobytes() == big[5].tobytes()
        assert got[7][0].tobytes() == big[:2].tobytes() and got[7][1] == "text"
    assert len(forked) == 1


CALLERS = object()


def is_the_callers(state, x):
    return state is CALLERS


def test_a_worker_forked_by_a_map_inherits_its_state_and_later_maps_send_it(forked):
    # identity survives a fork but not a pickle
    assert list(worker_map(is_the_callers, CALLERS, range(2), 2)) == [True, True]
    assert list(worker_map(is_the_callers, CALLERS, range(2), 2)) == [True, False]
    assert len(forked) == 1


def nested_pids(state, x):
    return (os.getpid(), [pid for _, pid in fork_map(tagged, range(2), 2)],
            [pid for _, pid in worker_map(scaled, 1, range(2), 2)])


def test_maps_inside_a_worker_map_run_serially_in_either_process(forked):
    got = list(worker_map(nested_pids, None, range(4), 2))
    assert len(forked) == 1
    assert [outer for outer, _, _ in got] == [os.getpid(), forked[0]] * 2
    for outer, fork_pids, worker_pids in got:
        assert fork_pids == worker_pids == [outer] * 2


def test_a_fork_map_child_runs_worker_maps_serially_and_leaves_the_callers_worker(forked):
    me = os.getpid()
    list(worker_map(scaled, 1, range(2), 2))
    worker, jobs = parallel._worker[:2]

    def inside(x):
        try:
            os.fstat(jobs)
            jobs_open = True
        except OSError:
            jobs_open = False
        return (os.getpid(), parallel._worker is not None, jobs_open,
                [pid for _, pid in worker_map(scaled, 1, range(3), 2)])

    got = list(fork_map(inside, range(2), 2))
    assert forked[0] == worker and len(forked) == 2
    assert_reaped(forked[1:])
    # the caller keeps its worker; the child closed its pipe ends and forgot it
    assert got == [(me, True, True, [me] * 3), (forked[1], False, False, [forked[1]] * 3)]
    # nothing was written to the worker's pipes but this process's own jobs
    assert list(worker_map(scaled, 7, range(4), 2)) == [
        (0, me), (7, worker), (14, me), (21, worker)]
    assert len(forked) == 2


def fail_at(state, x):
    bad, error = state
    if x == bad:
        raise error
    return x


def test_a_workers_exception_comes_back_with_its_type_and_message(forked):
    with pytest.raises(ValueError) as info:  # item 3 is the worker's
        list(worker_map(fail_at, (3, ValueError("bad item 3")), range(6), 2))
    assert type(info.value) is ValueError and str(info.value) == "bad item 3"
    assert parallel._worker is None  # a map that raises kills its worker
    assert_reaped(forked)


def stage_error_in_worker(state, x):
    if x == 1:
        raise StageError("train", ValueError("x"))
    return x


def test_a_worker_type_that_needs_more_than_its_message_comes_back_as_runtime_error(forked):
    with pytest.raises(RuntimeError) as info:
        list(worker_map(stage_error_in_worker, None, range(2), 2))
    assert type(info.value) is RuntimeError
    error = StageError("train", ValueError("x"))
    assert str(info.value) == f"StageError in worker process {forked[0]}: {error}"


def die_at(state, x):
    if x == state:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def test_a_worker_killed_mid_map_raises_and_the_next_map_forks_a_fresh_one(forked, deadline):
    with pytest.raises(RuntimeError) as info:
        list(worker_map(die_at, 1, range(4), 2))
    assert str(info.value) == f"worker process {forked[0]} ended before it returned item 1"
    assert parallel._worker is None
    assert_reaped(forked)
    assert list(worker_map(die_at, -1, range(4), 2)) == [0, 1, 2, 3]
    assert len(forked) == 2


def test_a_worker_killed_between_maps_is_replaced(forked):
    me = os.getpid()
    list(worker_map(scaled, 1, range(2), 2))
    os.kill(forked[0], signal.SIGKILL)
    wait_for_exit(forked[0])
    assert list(worker_map(scaled, 2, range(4), 2)) == [(0, me), (2, forked[1]), (4, me), (6, forked[1])]
    assert_reaped(forked[:1])


def test_a_worker_that_ends_before_it_takes_its_items_raises(forked, monkeypatch):
    list(worker_map(scaled, 1, range(2), 2))
    os.kill(forked[0], signal.SIGKILL)
    wait_for_exit(forked[0])
    waitpid = os.waitpid

    def still_running(pid, options):  # as if it ended just after the map looked
        return (0, 0) if options == os.WNOHANG else waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", still_running)
    with pytest.raises(RuntimeError) as info:
        list(worker_map(scaled, 1, range(2), 2))
    assert str(info.value) == f"worker process {forked[0]} ended before it took its items"
    assert parallel._worker is None
    monkeypatch.setattr(os, "waitpid", waitpid)
    assert_reaped(forked)


def test_an_early_close_kills_the_worker(forked):
    results = worker_map(scaled, 1, range(10), 2)
    assert next(results) == (0, os.getpid())
    results.close()
    assert parallel._worker is None and not parallel._open
    assert_reaped(forked)
    # the next map forks a fresh worker and reads none of the old one's results
    assert [v for v, _ in worker_map(scaled, 1, range(3), 2)] == [0, 1, 2]
    assert len(forked) == 2


def test_the_callers_own_failure_kills_the_worker(forked):
    with pytest.raises(KeyError):  # item 2 is the caller's own
        list(worker_map(fail_at, (2, KeyError("mine")), range(9), 2))
    assert parallel._worker is None and not parallel._open
    assert_reaped(forked)


def worker_setup(state, x):
    fds = sorted(int(fd) for fd in os.listdir("/proc/self/fd"))
    return signal.getsignal(signal.SIGINT), os.readlink("/proc/self/fd/0"), \
        os.readlink("/proc/self/fd/1"), fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/self/fd")
def test_the_worker_ignores_sigint_and_holds_only_its_pipes(forked):
    _, (handler, stdin, stdout, fds) = worker_map(worker_setup, None, range(2), 2)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert handler == signal.SIG_IGN
    assert stdin == stdout == os.devnull
    # stdin, stdout, stderr, its two pipe ends and the listing's own
    assert fds[:3] == [0, 1, 2] and len(fds) == 6
