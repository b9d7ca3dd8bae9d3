"""Tests for repro.core.train (head training + negative sampling)."""
import numpy as np
import pytest

from repro.bench.benchmark import build_benchmark
from repro.bench.harness import build_triplets
from repro.chartsim.extractor import extract
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import VisSpec, underlying_data
from repro.config import tiny_benchmark_config
from repro.core.data import LakeTable
from repro.core.fcm import make_model
from repro.core.train import (
    STRATEGIES,
    Triplet,
    build_training_set,
    fit_head,
    select_negatives,
    train_model,
)
from tests.test_relevance import rel_reference


class TestSelectNegatives:
    def setup_method(self):
        self.rels = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        self.rng = np.random.default_rng(0)

    def test_hard_takes_top(self):
        idx = select_negatives(self.rels, 2, "hard", self.rng)
        assert set(idx.tolist()) == {0, 1}

    def test_easy_takes_bottom(self):
        idx = select_negatives(self.rels, 2, "easy", self.rng)
        assert set(idx.tolist()) == {3, 4}

    def test_semihard_takes_middle(self):
        idx = select_negatives(self.rels, 1, "semihard", self.rng)
        assert idx.tolist() == [2]

    def test_random_subset(self):
        idx = select_negatives(self.rels, 3, "random", self.rng)
        assert len(set(idx.tolist())) == 3

    def test_n_neg_clamped(self):
        idx = select_negatives(self.rels, 10, "hard", self.rng)
        assert len(idx) == 5

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            select_negatives(self.rels, 2, "bogus", self.rng)


class TestFitHead:
    def test_separable_data_learned(self):
        rng = np.random.default_rng(0)
        x_pos = rng.normal(1.0, 0.2, size=(40, 3))
        x_neg = rng.normal(-1.0, 0.2, size=(40, 3))
        x = np.vstack([x_pos, x_neg])
        y = np.array([1.0] * 40 + [0.0] * 40)
        res = fit_head(x, y, epochs=100)
        p = np.array([res.head(row) for row in x])
        assert ((p > 0.5) == (y > 0.5)).mean() > 0.95

    def test_loss_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, size=(60, 3))
        y = (x[:, 0] > 0).astype(float)
        res = fit_head(x, y, epochs=50)
        losses = [h["train_loss"] for h in res.history]
        assert losses[-1] < losses[0]

    def test_history_length(self):
        x = np.random.default_rng(2).random((10, 2))
        y = np.array([0.0, 1.0] * 5)
        res = fit_head(x, y, epochs=7)
        assert len(res.history) == 7

    def test_converged_epoch_bounds(self):
        x = np.random.default_rng(3).random((20, 2))
        y = np.array([0.0, 1.0] * 10)
        res = fit_head(x, y, epochs=30)
        assert 1 <= res.converged_epoch <= 30


@pytest.fixture(scope="module")
def training_world():
    """A small world of tables + triplets for end-to-end head training."""
    rng = np.random.default_rng(7)
    tables = {}
    triplets = []
    model = make_model()
    for i in range(8):
        cols = [
            rng.uniform(-50, 50) + np.cumsum(rng.standard_normal(180)) * 3
            for _ in range(2)
        ]
        t = LakeTable(f"t{i}", cols)
        tables[t.table_id] = t
        spec = VisSpec(y_cols=(0, 1))
        data = underlying_data(t, spec)
        eq = extract(render_chart(data), query_id=f"q{i}")
        triplets.append(
            Triplet(query=model.encode_query(eq), data=data, table_id=t.table_id)
        )
    encs = {tid: model.encode_table(t) for tid, t in tables.items()}
    return model, triplets, encs, tables


class TestBuildTrainingSet:
    def test_labels_and_shapes(self, training_world):
        model, triplets, encs, tables = training_world
        x, y = build_training_set(
            model, triplets, encs, tables, n_neg=2, strategy="semihard", seed=0
        )
        assert x.shape[0] == y.size
        assert set(np.unique(y)) == {0.0, 1.0}
        assert y.sum() == len(triplets)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_work(self, training_world, strategy):
        model, triplets, encs, tables = training_world
        x, y = build_training_set(
            model, triplets, encs, tables, n_neg=1, strategy=strategy, seed=0
        )
        assert (y == 0).sum() >= 1


class TestTrainModel:
    def test_installs_head_and_ranks(self, training_world):
        model, triplets, encs, tables = training_world
        res = train_model(model, triplets, encs, tables, n_neg=2, epochs=40, seed=0)
        assert model.head is res.head
        # trained head must still rank the true table first for a triplet
        t0 = triplets[0]
        scores = {tid: model.score(t0.query, e) for tid, e in encs.items()}
        top2 = sorted(scores, key=scores.get, reverse=True)[:2]
        assert t0.table_id in top2


def build_training_set_reference(
    model, triplets, table_encs, tables, *, n_neg, strategy, batch_size=8, seed=0
):
    """The per-triplet loop with one oracle Rel(D, T) per candidate."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    order = rng.permutation(len(triplets))
    for start in range(0, len(order), batch_size):
        batch = [triplets[i] for i in order[start : start + batch_size]]
        ids = [t.table_id for t in batch]
        for t in batch:
            xs.append(model.match(t.query, table_encs[t.table_id]).features)
            ys.append(1.0)
            cand = [i for i in ids if i != t.table_id]
            if not cand:
                continue
            rels = np.array(
                [rel_reference(t.data, tables[c], max_len=64, band=8) for c in cand]
            )
            for idx in select_negatives(rels, n_neg, strategy, rng):
                xs.append(model.match(t.query, table_encs[cand[idx]]).features)
                ys.append(0.0)
    return np.vstack(xs), np.asarray(ys)


class TestTrainingSetMatchesOracle:
    @pytest.fixture(scope="class")
    def world(self):
        bench = build_benchmark(tiny_benchmark_config(seed=5))
        model = make_model(bench.cfg.fcm)
        return (model, *build_triplets(bench, model))

    @pytest.mark.parametrize("strategy", ["semihard", "random"])
    def test_xy_and_head_unchanged(self, world, strategy):
        model, triplets, encs, tables = world
        # triplets share tables (two charts per table), so batches hold
        # repeated table ids
        assert len({t.table_id for t in triplets}) < len(triplets)
        x, y = build_training_set(
            model, triplets, encs, tables, n_neg=3, strategy=strategy, seed=3
        )
        x_ref, y_ref = build_training_set_reference(
            model, triplets, encs, tables, n_neg=3, strategy=strategy, seed=3
        )
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
        head, head_ref = fit_head(x, y, epochs=20).head, fit_head(x_ref, y_ref, epochs=20).head
        assert np.array_equal(head.w, head_ref.w) and head.b == head_ref.b
