"""Fixtures shared by the test modules."""
import dataclasses
import multiprocessing
import os

import pytest

from dixiecup import discrete, experiments


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """Fail a test that leaves a multiprocessing child running, after ending it,
    so that the next test starts with none."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"the test left processes running: {left}"


@pytest.fixture
def faults(monkeypatch):
    """``faults(helper)`` has erdos-renyi's extraction call ``helper()`` before
    each block it runs in a forked helper.  The parent runs no block until a
    helper has claimed one, so a bank that forks a helper runs blocks on both
    sides; every bank of two or more workers does."""
    monkeypatch.setattr(experiments, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)

    def inject(helper):
        kind = experiments.KINDS["erdos-renyi"]
        pid, claimed = os.getpid(), multiprocessing.get_context("fork").Event()

        def extract(block, cfg):
            if os.getpid() == pid:
                assert claimed.wait(60), "no helper claimed a block"
            else:
                claimed.set()
                helper()
            return kind.extract(block, cfg)

        monkeypatch.setitem(experiments.KINDS, "erdos-renyi",
                            dataclasses.replace(kind, extract=extract))

    return inject


@pytest.fixture
def numpy_path(monkeypatch):
    """Sample on numpy's row sampler, as where the compiled one cannot be
    built: every row a loop of ``Generator`` calls on the scratch generator."""
    monkeypatch.setattr(discrete, "_rows", discrete._NUMPY)
