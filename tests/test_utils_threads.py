"""Tests for the BLAS thread policy (repro.utils.threads) and its service use."""

import sys
import threading

import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.service import SolverService
from repro.utils.threads import (
    acquire_single_blas_thread,
    blas_threads,
    release_single_blas_thread,
)

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="this NumPy build exposes no OpenBLAS thread control"
)


def test_holds_nest_and_restore():
    before = blas_threads()
    acquire_single_blas_thread()
    acquire_single_blas_thread()
    assert blas_threads() == 1
    release_single_blas_thread()
    assert blas_threads() == 1
    release_single_blas_thread()
    assert blas_threads() == before


def test_concurrent_holds_restore_the_setting():
    before = blas_threads()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def churn() -> None:
            for _ in range(200):
                acquire_single_blas_thread()
                assert blas_threads() == 1
                release_single_blas_thread()

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert blas_threads() == before


def test_service_pins_blas_only_with_several_workers():
    before = blas_threads()
    problem = MaxCutProblem(erdos_renyi_graph(5, 0.5, seed=1))
    with SolverService(max_workers=1) as service:
        assert blas_threads() == before
        service.submit(problem, 1, seed=3).result(timeout=60)
    with SolverService(max_workers=2) as service:
        assert blas_threads() == 1
        service.submit(problem, 1, seed=3).result(timeout=60)
    assert blas_threads() == before
