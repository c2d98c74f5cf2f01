"""The benchmark's tracer against the names it patches.

`bench/tracer.py` wraps functions by module attribute (SPANS and STEPS).
A refactor that drops or renames one of them breaks `--trace 1` with an
AttributeError, which the tests under bench/ catch only when they run;
this test catches it with the library's own tests.
"""

import importlib
import pathlib
import sys

import pytest

from randiter import ridge, sampling

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return importlib.import_module("tracer")


def owner_and_attr(module, attr):
    owner = importlib.import_module(f"randiter.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def test_install_wraps_every_traced_name_and_uninstall_restores_it(tracer):
    targets = [owner_and_attr(module, attr) for module, attr, _, _ in tracer.SPANS + tracer.STEPS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        assert ridge.build_sampler is not sampling.build_sampler
        assert ridge.build_sampler.__name__ == "wrapper"
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        t.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr
