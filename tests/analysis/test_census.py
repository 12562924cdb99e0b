"""Tests for the consumer census (``python -m repro.analysis census``)."""

from __future__ import annotations

import sys
import textwrap

import pytest

from repro.analysis.census import record_calls, uncalled

LIB = '''
import functools


def called():
    return 1


def never_called():
    def nested():
        return 2

    return nested()


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@deco
def decorated():
    return 3


class Thing:
    def method(self):
        return 4

    def unused_method(self):
        return 5


def in_spawned_child():
    return 6


# census: failure path: only an error would call it
def kept():
    return 7
'''

CONSUMER = '''
import multiprocessing

from censusfix import lib


def main():
    lib.called()
    lib.decorated()
    lib.Thing().method()
    child = multiprocessing.get_context("spawn").Process(
        target=lib.in_spawned_child
    )
    child.start()
    child.join()
    assert child.exitcode == 0


if __name__ == "__main__":
    main()
'''


@pytest.fixture
def fixture_package(tmp_path):
    """``src/censusfix`` (the package under census) and one consumer."""
    pkg = tmp_path / "src" / "censusfix"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "lib.py").write_text(textwrap.dedent(LIB))
    consumer = tmp_path / "consumer.py"
    consumer.write_text(textwrap.dedent(CONSUMER))
    return tmp_path, pkg, consumer


def test_lists_exactly_the_uncalled_unkept_functions(fixture_package):
    root, pkg, consumer = fixture_package
    calls = record_calls([[sys.executable, str(consumer)]], pkg, root)
    findings, total, kept = uncalled(pkg, root, calls)
    # The decorated function, the method and the function only the
    # spawn-started child ran are all called; the nested function of
    # an uncalled one is covered by its parent; the kept one is kept.
    assert sorted(f.symbol for f in findings) == [
        "Thing.unused_method", "never_called",
    ]
    assert {f.path for f in findings} == {"src/censusfix/lib.py"}
    assert all(f.rule == "census" for f in findings)
    assert kept == 1
    assert total == 9  # nested() is not counted under its uncalled parent


def test_a_failing_consumer_stops_the_census(fixture_package):
    root, pkg, _ = fixture_package
    with pytest.raises(RuntimeError, match="consumer exited 3"):
        record_calls(
            [[sys.executable, "-c", "raise SystemExit(3)"]], pkg, root
        )
