"""Tests for the seeded random environment of tests/environments.py."""

from repro.algebra import scan

from tests.environments import random_environment


class TestRandomEnvironment:
    def test_items_and_categories(self):
        handle = random_environment(seed=3, num_items=5)
        env = handle.environment
        assert len(env.instantaneous("items", 0)) <= 5  # duplicates may collapse
        assert len(env.instantaneous("categories", 0)) == 3

    def test_seeded_reproducibility(self):
        a = random_environment(seed=3).environment.instantaneous("items", 0)
        b = random_environment(seed=3).environment.instantaneous("items", 0)
        assert a == b
        c = random_environment(seed=4).environment.instantaneous("items", 0)
        assert a != c

    def test_active_prototype_logs_work(self):
        handle = random_environment(seed=0)
        env = handle.environment
        q = scan(env, "items").invoke("doWork").query()
        result = q.evaluate(env)
        assert len(result.actions) > 0
        assert len(handle.work_log) == len(env.instantaneous("items", 0))
