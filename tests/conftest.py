import os
import signal

import hypothesis
import numpy as np
import pytest

from fairwalks import parallel
from fairwalks.graph import AttributedGraph

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None
)
hypothesis.settings.load_profile("default")


def make_graph(edges, attrs=None, n=None):
    """Small-graph helper: edges as (u, v[, w]) tuples over dense IDs."""
    pairs = []
    weights = []
    for e in edges:
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1.0
        pairs.append((min(u, v), max(u, v)))
        weights.append(w)
    if n is None:
        n = max(max(u, v) for u, v in pairs) + 1 if pairs else 0
    edge_index = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    edge_weight = np.array(weights, dtype=np.float64)
    if len(edge_index):
        order = np.lexsort((edge_index[:, 1], edge_index[:, 0]))
        edge_index, edge_weight = edge_index[order], edge_weight[order]
    attributes = {name: list(values) for name, values in (attrs or {}).items()}
    return AttributedGraph(n, edge_index, edge_weight, attributes, [str(i) for i in range(n)])


@pytest.fixture
def graph_factory():
    return make_graph


@pytest.fixture
def no_worker():
    """No ``parallel`` worker is alive when the test starts or after it
    ends, so what the test forks does not depend on the tests before it,
    and the worker it forks runs the code as the test patched it."""
    parallel.close_worker()
    yield
    parallel.close_worker()


@pytest.fixture
def forked(monkeypatch, no_worker):
    """The pids of the children that ``os.fork`` starts in this process,
    which starts the test without a ``parallel`` worker."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    """Every pid is a child that was started and has been reaped."""
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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


def wait_for_exit(pid):
    """Block until child pid has ended, leaving it unreaped."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
