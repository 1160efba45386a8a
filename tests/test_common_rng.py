"""Unit tests for repro.common.rng: named, reproducible seed streams."""

from repro.common.rng import derive_seed, make_rng


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_differs_by_name(self):
        assert derive_seed(42, "webgraph") != derive_seed(42, "text")

    def test_differs_by_master(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_rng_streams_independent(self):
        a = make_rng(7, "gen", 0).random(8)
        b = make_rng(7, "gen", 1).random(8)
        assert not (a == b).all()

    def test_rng_reproducible(self):
        assert (make_rng(7, "gen").random(8) == make_rng(7, "gen").random(8)).all()
