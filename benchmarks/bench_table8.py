"""Table VIII benchmark: index build + candidate generation per strategy.

The paper's headline is the query-time ratio between strategies; here we
measure the index probes themselves and a pruned scoring pass, so the
speedup mechanism (fewer (query, table) pairs) is visible in the timings.
"""
import pytest

from repro.core.dataset_encoder import DatasetEncoder
from repro.index.hybrid import LSH_BITS, LSH_TABLES, build_hybrid_index, query_line_embeddings
from repro.index.interval_tree import build_table_interval_tree


@pytest.fixture(scope="module")
def column_embs(bench, fcm_model):
    """The vectors the Table VIII job indexes (``embed_repository``): each
    finite column's mean no-DA identity segment embedding."""
    enc = DatasetEncoder(fcm_model.cfg.without_da())
    return {
        (tid, c.col_id): c.mean_emb
        for tid, t in bench.repository.items()
        for c in enc.encode_table(t).finite_columns
    }


@pytest.fixture(scope="module")
def index(bench, column_embs):
    """The Table VIII job's index."""
    return build_hybrid_index(
        bench.repository, column_embs, n_bits=LSH_BITS, n_tables=LSH_TABLES, seed=bench.cfg.seed
    )


@pytest.fixture(scope="module")
def probe(bench, fcm_model, query_encodings):
    q = bench.queries[0]
    qe = query_encodings[q.query_id]
    return qe.y_range, query_line_embeddings(fcm_model, qe)


def test_interval_tree_build(benchmark, bench):
    tree = benchmark(build_table_interval_tree, bench.repository)
    assert tree.table_ids == tuple(bench.repository) and tree.lo.size > 0


@pytest.mark.parametrize("strategy", ["none", "interval", "lsh", "hybrid"])
def test_candidate_generation(benchmark, index, probe, strategy):
    y_range, line_embs = probe
    cands = benchmark(
        index.candidates, strategy, y_range=y_range, line_embs=line_embs
    )
    assert isinstance(cands, set)


def test_pruned_scoring_pass(benchmark, bench, fcm_model, index, probe, table_encodings, query_encodings):
    """Scoring only the hybrid candidates — the Table VIII speedup body."""
    y_range, line_embs = probe
    q = bench.queries[0]
    qe = query_encodings[q.query_id]
    cands = index.candidates("hybrid", y_range=y_range, line_embs=line_embs)

    def run():
        return [fcm_model.score(qe, table_encodings[t]) for t in cands]

    scores = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(scores) == len(cands)
