"""Tests for repro.index.lsh (SimHash index)."""
import numpy as np
import pytest

from repro.index.lsh import LSHIndex


def collision_probability(cos_sim: float, n_bits: int, n_tables: int) -> float:
    """Analytic SimHash candidate probability for a given cosine
    similarity: a statistical reference for the index."""
    theta = np.arccos(np.clip(cos_sim, -1.0, 1.0))
    p_bit = 1.0 - theta / np.pi
    p_table = p_bit**n_bits
    return 1.0 - (1.0 - p_table) ** n_tables


def n_items(idx: LSHIndex) -> int:
    """Distinct payloads indexed in any hash table."""
    return len({p for tbl in idx.buckets for s in tbl.values() for p in s})


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestLSHIndex:
    def test_codes_deterministic(self, rng):
        idx = LSHIndex(8, n_bits=10, n_tables=4, seed=1)
        v = rng.standard_normal(8)
        assert idx.codes(v) == idx.codes(v.copy())

    def test_codes_count_and_range(self, rng):
        idx = LSHIndex(8, n_bits=10, n_tables=4, seed=1)
        codes = idx.codes(rng.standard_normal(8))
        assert len(codes) == 4
        assert all(0 <= c < 2**10 for c in codes)

    def test_same_vector_always_collides(self, rng):
        idx = LSHIndex(8, n_bits=12, n_tables=6, seed=2)
        v = rng.standard_normal(8)
        idx.add("x", v)
        assert "x" in idx.query(v)

    def test_scaled_vector_collides(self, rng):
        # SimHash depends only on direction
        idx = LSHIndex(8, n_bits=12, n_tables=6, seed=3)
        v = rng.standard_normal(8)
        idx.add("x", v)
        assert "x" in idx.query(3.5 * v)

    def test_opposite_vector_never_collides(self, rng):
        idx = LSHIndex(8, n_bits=8, n_tables=4, seed=4)
        v = rng.standard_normal(8)
        idx.add("x", v)
        assert "x" not in idx.query(-v)

    def test_dim_mismatch_raises(self):
        idx = LSHIndex(8, n_bits=12, n_tables=6, seed=0)
        with pytest.raises(ValueError):
            idx.codes(np.ones(7))

    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            LSHIndex(0, n_bits=12, n_tables=6, seed=0)
        with pytest.raises(ValueError):
            LSHIndex(4, n_bits=0, n_tables=6, seed=0)

    def test_n_items(self, rng):
        idx = LSHIndex(8, n_bits=12, n_tables=6, seed=5)
        for i in range(5):
            idx.add(f"t{i}", rng.standard_normal(8))
        assert n_items(idx) == 5

    def test_near_neighbours_collide_more(self, rng):
        """Statistical: candidates are enriched in true near-neighbours."""
        idx = LSHIndex(16, n_bits=10, n_tables=6, seed=6)
        base = rng.standard_normal(16)
        near_ids, far_ids = set(), set()
        for i in range(40):
            near = base + 0.1 * rng.standard_normal(16)
            far = rng.standard_normal(16)
            idx.add(f"n{i}", near)
            idx.add(f"f{i}", far)
            near_ids.add(f"n{i}")
            far_ids.add(f"f{i}")
        cands = idx.query(base)
        near_recall = len(cands & near_ids) / len(near_ids)
        far_rate = len(cands & far_ids) / len(far_ids)
        assert near_recall > far_rate
        assert near_recall > 0.8


class TestCollisionProbability:
    def test_identical_vectors_prob_one(self):
        assert collision_probability(1.0, 10, 4) == pytest.approx(1.0)

    def test_orthogonal_low(self):
        p = collision_probability(0.0, 12, 4)
        assert p < 0.01

    def test_monotone_in_similarity(self):
        ps = [collision_probability(c, 10, 4) for c in (0.0, 0.5, 0.9, 0.99)]
        assert ps == sorted(ps)

    def test_empirical_matches_analytic(self):
        rng = np.random.default_rng(7)
        n_bits, n_tables = 6, 3
        target_cos = 0.9
        hits = 0
        trials = 300
        for t in range(trials):
            idx = LSHIndex(32, n_bits=n_bits, n_tables=n_tables, seed=1000 + t)
            a = rng.standard_normal(32)
            b = target_cos * a + np.sqrt(1 - target_cos**2) * np.linalg.norm(a) * _unit_orth(rng, a)
            if idx.codes(a) == idx.codes(b):
                pass
            idx.add("b", b)
            if "b" in idx.query(a):
                hits += 1
        p_emp = hits / trials
        p_ana = collision_probability(target_cos, n_bits, n_tables)
        assert abs(p_emp - p_ana) < 0.12


def _unit_orth(rng, a):
    v = rng.standard_normal(a.size)
    v -= v.dot(a) / a.dot(a) * a
    return v / np.linalg.norm(v)
