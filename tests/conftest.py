"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import settings

from repro.corfu import CorfuCluster
from repro.tango.directory import TangoDirectory
from repro.tango.runtime import TangoRuntime

_client_ids = itertools.count(1)

#: ``pytest --hypothesis-profile=codec``: a deep pass of the property
#: tests (the codec suites compare thousands of entries and batches
#: with the frozen codec). The default profile stays as it is.
settings.register_profile("codec", max_examples=2000, deadline=None)


@pytest.fixture
def cluster() -> CorfuCluster:
    """A small in-process CORFU deployment (3 chains of 2)."""
    return CorfuCluster(num_sets=3, replication_factor=2)


@pytest.fixture
def big_cluster() -> CorfuCluster:
    """The paper's 9x2 deployment."""
    return CorfuCluster(num_sets=9, replication_factor=2)


@pytest.fixture
def make_runtime(cluster):
    """Factory for runtimes (clients) on the shared cluster fixture."""

    def factory(name: str = None) -> TangoRuntime:
        cid = next(_client_ids)
        return TangoRuntime(cluster, client_id=cid, name=name or f"client-{cid}")

    return factory


@pytest.fixture
def make_client(cluster, make_runtime):
    """Factory for (runtime, directory) pairs on the shared cluster."""

    def factory(name: str = None):
        runtime = make_runtime(name)
        return runtime, TangoDirectory(runtime)

    return factory


@pytest.fixture(scope="session", autouse=True)
def _lockcheck_session():
    """Opt-in runtime lock-order sanitizer for the whole session.

    ``REPRO_LOCKCHECK=1 pytest`` wraps every lock the repro code
    creates. At teardown the session fails on a witnessed lock-order
    cycle anywhere in the run, and on a witnessed order edge that
    docs/CONCURRENCY.md lists in neither its static edge table nor its
    runtime edge table (each lock named ``Class.attr`` by its creation
    site).
    """
    if os.environ.get("REPRO_LOCKCHECK") != "1":
        yield
        return
    from repro.tools import lockcheck
    from tests.lock_hierarchy import undocumented_edges

    monitor = lockcheck.install()
    yield
    lockcheck.uninstall()
    monitor.assert_acyclic()
    undocumented = undocumented_edges(monitor)
    assert not undocumented, (
        "lockcheck: witnessed lock-order edges docs/CONCURRENCY.md does not list:\n  "
        + "\n  ".join(undocumented)
    )
