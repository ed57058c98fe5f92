"""Fixtures shared by the test modules."""

import os

import pytest

from omp_lab import montecarlo


@pytest.fixture
def forks(monkeypatch):
    """For each run that forks workers, the number of children it forked;
    the children still run their tasks."""
    made = []
    real_fork = os.fork
    real_tallies = montecarlo._forked_tallies

    def fork():
        pid = real_fork()
        if pid:
            made[-1] += 1
        return pid

    def forked_tallies(tasks, workers):
        made.append(0)
        return real_tallies(tasks, workers)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(montecarlo, "_forked_tallies", forked_tallies)
    return made
