"""Guards shared by every test."""

import glob

import pytest


def child_processes() -> set:
    """The pids of this process's children, exited but unreaped ones
    included, as each of its threads lists them."""
    found = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            found.update(int(pid) for pid in fh.read().split())
    return found


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped:
    a run must join every worker it forks."""
    before = child_processes()
    yield
    left = child_processes() - before
    if left:
        pytest.fail(f"the test left child processes {sorted(left)}")
