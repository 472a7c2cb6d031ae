"""Shared test fixtures.

Flight-recorder post-mortems default to the current directory; tests
that intentionally crash experiments or kill workers would litter the
repo root with ``postmortem-*.json``, so every test gets a throwaway
dump directory unless it sets its own.

``main()`` sets process-wide runner defaults from ``--jobs``,
``--task-timeout`` and ``--retries``; they are reset after every test
so one test's flags never reach the next test's maps.
"""

import pytest

from repro.runner import set_jobs, set_supervision
from repro.telemetry import flightrec


@pytest.fixture(autouse=True)
def _postmortems_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    # tests drive main() which may override via --postmortem-dir; reset
    # module state so one test's choice never leaks into the next
    flightrec.set_dump_dir(None)
    yield
    flightrec.set_dump_dir(None)


@pytest.fixture(autouse=True)
def _reset_runner_defaults():
    yield
    set_jobs(1)
    set_supervision(None, 0)
