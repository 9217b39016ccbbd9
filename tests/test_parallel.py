import os
import signal

import pytest

from fairwalks import parallel
from fairwalks.parallel import fork_map
from fairwalks.pipeline import StageError
from tests.conftest import assert_reaped


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


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test that waits on a child for 30 s."""
    def expire(signum, frame):
        raise TimeoutError("the test waited 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
