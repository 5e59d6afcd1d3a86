"""The benchmark's tracer patches names in the package (``bench/tracer.py``,
``POINTS`` and ``RunClock.OWNERS``).  Installing and uninstalling it here
fails when one of those names is gone, and checks that every patched name
is restored."""

import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).parent.parent / "bench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(owner, attr):
    # classes are patched in their own __dict__, modules by attribute
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _patch_points(tracer):
    points = [(owner, attr) for owners, attr, _, _ in tracer.POINTS for owner in owners]
    points += [(owner, "run") for owner in tracer.RunClock.OWNERS]
    return points


def test_every_patched_name_exists_and_is_restored(tracer):
    points = _patch_points(tracer)
    originals = {(id(owner), attr): _lookup(owner, attr) for owner, attr in points}
    clock, spans = tracer.RunClock(), tracer.Tracer()
    clock.install()
    try:
        spans.install()
        try:
            for owner, attr in points:
                assert _lookup(owner, attr) is not originals[id(owner), attr], (owner, attr)
        finally:
            spans.uninstall()
    finally:
        clock.uninstall()
    for owner, attr in points:
        assert _lookup(owner, attr) is originals[id(owner), attr], (owner, attr)
