"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def _openblas_threads_as_found():
    """cli.main defaults OPENBLAS_NUM_THREADS in its own process, and the
    tests call it in-process: put the variable back, so that later tests
    and the processes they start see what the suite started with."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before
