"""Checks over the whole test run."""

import os

import pytest

from causalseg import train


@pytest.fixture(autouse=True)
def fresh_helper():
    """Each test forks its own helper, after its own patches: a helper forked
    under an earlier test's patch would keep running that test's code."""
    train.close_helper()


@pytest.fixture(scope="session", autouse=True)
def no_stray_children():
    """Once every test has run and the evaluation helper is shut down, no
    child process may be left running or unreaped."""
    yield
    train.close_helper()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
