"""``pytest bench/`` runs the harness self-test (not part of tier-1's
``testpaths``: it starts a dozen child processes)."""

from bench import runner, selftest


def test_selftest():
    assert selftest.problems(runner.load_spec()) == []
