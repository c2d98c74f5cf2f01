import numpy as np
import pytest

from randiter import oracle


def pcg(seed):
    """The random stream `drive` draws from for a run with this seed."""
    return np.random.Generator(np.random.PCG64(seed))


def null_space_leakage(X, v, basis=None):
    """Norm of the component of v inside null(X)."""
    B = oracle.null_space_basis(X) if basis is None else basis
    if B.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(B.T @ v))


def spy_refreshes(monkeypatch, module):
    """Wrap `drive` as `module` calls it; the returned list gets the
    number of steps taken at each checkpoint that refreshes."""
    drive, at = module.drive, []

    def spied(sampler, config, advance, checkpoint, *args, **kwargs):
        done = 0

        def counted(indices):
            nonlocal done
            advance(indices)
            done += len(indices)

        def noted(refresh):
            if refresh:
                at.append(done)
            return checkpoint(refresh)

        return drive(sampler, config, counted, noted, *args, **kwargs)

    monkeypatch.setattr(module, "drive", spied)
    return at


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
