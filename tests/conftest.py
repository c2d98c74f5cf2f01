import numpy as np
import pytest


@pytest.fixture
def assert_stops_at_tol():
    """check(run), where run(tol) returns a trace: with tol = 1e-10 the
    trace is the tol = 0 trace up to and including that trace's first
    checkpoint with energy_err_sq <= 1e-20."""

    def check(run):
        full = run(0.0)
        energy = full.column("energy_err_sq")
        first = int(np.argmax(energy <= 1e-20))
        assert energy[first] <= 1e-20 and 0 < first < len(energy) - 1
        assert run(1e-10).records == full.records[:first + 1]

    return check
