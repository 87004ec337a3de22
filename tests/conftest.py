"""Shared fixtures and the hypothesis profile of the test suite."""

import collections

import pytest
import scipy.fft
from hypothesis import settings

from hwlab import solitary as sol
from hwlab import spectral as sp
from hwlab.functionals import ModelParams

# Derandomized and bounded, so the property tests draw the same examples
# on every run and the suite stays reproducible and quick.
settings.register_profile("hwlab", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("hwlab")

TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "dctn", "dstn")


@pytest.fixture
def transform_count(monkeypatch):
    """Counter of the 2-D scipy.fft transforms called while the test runs
    (`dctn` is the DCT-I pair of an even field's quarter, `dstn` the DST-I
    of its derivatives).

    hwlab.spectral looks the scipy.fft functions up at call time, so
    wrapping the module attributes sees every transform hwlab makes.
    """
    counts = collections.Counter()
    for name in TRANSFORMS:
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return counts


# Ground states shared by several test modules, solved once per session;
# the tests only read them.
@pytest.fixture(scope="session")
def p2_state():
    grid = sp.make_grid(64, 64, 40.0, 40.0)
    return sol.solve_nehari(grid, ModelParams(p=2.0), tol=1e-7)


@pytest.fixture(scope="session")
def p3_state():
    # dy fine enough that resampled scaling curves are alias-free
    grid = sp.make_grid(128, 2048, 20.0, 40.0)
    return sol.solve_nehari(grid, ModelParams(p=3.0), tol=1e-7)


@pytest.fixture(scope="session")
def p3_2048(p3_state):
    return p3_state
