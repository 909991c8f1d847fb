"""Fixtures shared by the test modules."""

from unittest import mock

import pytest

from stirnum import series


@pytest.fixture(scope="session")
def cold_store():
    """``with cold_store():`` runs its block on an empty store of bases and
    ladders that keeps nothing, in place of ``series._LADDERS``: every base
    and ladder the block reads is built, whatever was stored before, and the
    store in place before is back after it.  The fixture holds no state, so
    Hypothesis tests and module helpers can share it."""
    return lambda: mock.patch.object(series, "_LADDERS", series._Ladders(0))
