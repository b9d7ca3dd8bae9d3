"""Spark tests for repro.lake.search and repro.lake.resident: distributed
scoring, the resident lake, the collected top-k."""
import os
import subprocess
import sys
import textwrap
import zipimport
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest
from pyspark import StorageLevel

from repro.baselines.cml import CML
from repro.bench.benchmark import build_benchmark
from repro.config import tiny_benchmark_config
from repro.core.fcm import make_model
from repro.bench.harness import FCMMethod
from repro.core.data import LakeTable
from repro.core.relevance import rel_scores
from repro.lake.resident import (
    balanced_partitions,
    repository_fingerprint,
    resident_encodings,
    resident_repository,
)
from repro.lake import resident, search
from repro.lake.search import _collect, ranked_topk, score_with_method, spark_ground_truth
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def bench(spark):
    cfg = tiny_benchmark_config(seed=21)
    return build_benchmark(cfg, spark=spark)


def driver_scores(method, tables, queries) -> dict[tuple[str, str], float]:
    """Every (query, table) score computed on the driver, no Spark."""
    encs = {tid: method.encode_table(t) for tid, t in tables.items()}
    return {
        (q.query_id, tid): float(method.score(prep, enc))
        for q in queries
        for prep in [method.prepare_query(q.extracted)]
        for tid, enc in encs.items()
    }


def collect_scores(scores) -> dict[tuple[str, str], float]:
    return {(r["query_id"], r["table_id"]): r["score"] for r in scores.collect()}


@pytest.fixture(scope="module")
def cml_scores(spark, bench):
    return score_with_method(
        spark, bench.repository, bench.queries, CML(bench.cfg.fcm)
    ).cache()


class TestSparkGroundTruth:
    def test_matches_local_ground_truth(self, spark, bench):
        """Spark-distributed Rel(D,T) top-k == driver-side computation."""
        from repro.bench.benchmark import compute_ground_truth

        local = compute_ground_truth(bench, spark=None)
        assert local == bench.ground_truth

    def test_partition_rel_equals_whole_lake(self, spark, bench):
        """Each partition's one rel_scores call gives bit for bit the Rel
        values of one call over the whole lake, so the split moves no score."""
        datas = [q.data for q in bench.queries]
        tables = list(bench.repository.values())
        whole = dict(zip((t.table_id for t in tables), rel_scores(datas, tables).T))
        for group in balanced_partitions(bench.repository, spark.sparkContext.defaultParallelism):
            part = rel_scores(datas, group)
            for t, col in zip(group, part.T):
                assert np.array_equal(col, whole[t.table_id])


class TestScoreWithMethod:
    def test_all_pairs_scored(self, cml_scores, bench):
        assert cml_scores.count() == len(bench.queries) * len(bench.repository)

    def test_scores_match_driver_side(self, cml_scores, bench):
        """Bit-identical to the driver: a pickle round trip is exact."""
        m = CML(bench.cfg.fcm)
        assert collect_scores(cml_scores) == driver_scores(m, bench.repository, bench.queries)

    def test_candidate_pruning(self, spark, bench):
        cands = {q.query_id: {q.source_table_id} for q in bench.queries}
        scores = score_with_method(
            spark, bench.repository, bench.queries, CML(bench.cfg.fcm), candidates=cands
        )
        assert scores.count() == len(bench.queries)

    def test_fcm_method_distributed(self, spark, bench):
        """The full FCM model survives the broadcast and executor-side scoring."""
        method = FCMMethod(make_model(bench.cfg.fcm))
        sub_queries = bench.queries[:2]
        sub_tables = {k: bench.repository[k] for k in list(bench.repository)[:8]}
        scores = score_with_method(spark, sub_tables, sub_queries, method)
        assert scores.count() == 16
        assert collect_scores(scores) == driver_scores(method, sub_tables, sub_queries)


def persisted_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


class TestResidentLake:
    """The resident artefacts are keyed by content, method and session, and
    at most one raw and one encoded repository stay persisted."""

    def test_changed_values_give_new_scores(self, spark, bench):
        tids = sorted(bench.repository)[:4]
        lake = {tid: bench.repository[tid] for tid in tids}
        changed = dict(lake)
        t = lake[tids[0]]
        changed[tids[0]] = LakeTable(t.table_id, [c[::-1] * 1.5 for c in t.columns])
        m = CML(bench.cfg.fcm)
        before = collect_scores(score_with_method(spark, lake, bench.queries, m))
        after = collect_scores(score_with_method(spark, changed, bench.queries, m))
        assert after == driver_scores(m, changed, bench.queries)
        for (qid, tid), score in after.items():
            assert (score != before[(qid, tid)]) == (tid == tids[0])

    @pytest.mark.parametrize("which", ["fcm_head", "cml_projector"])
    def test_changed_method_state_reencodes(self, spark, bench, which):
        lake = {tid: bench.repository[tid] for tid in sorted(bench.repository)[:4]}
        m = FCMMethod(make_model(bench.cfg.fcm)) if which == "fcm_head" else CML(bench.cfg.fcm)
        before = collect_scores(score_with_method(spark, lake, bench.queries, m))
        old = resident_encodings(spark, lake, m)
        # retrain in place: the same object, new state
        if which == "fcm_head":
            m.model.head.w = m.model.head.w + 0.5
        else:
            m.projector.w *= -1.5
        after = collect_scores(score_with_method(spark, lake, bench.queries, m))
        assert resident_encodings(spark, lake, m) is not old
        assert old.getStorageLevel() == StorageLevel.NONE
        assert after == driver_scores(m, lake, bench.queries)
        assert after != before

    def test_residency_bounded(self, spark, bench):
        tids = sorted(bench.repository)
        m = CML(bench.cfg.fcm)
        held, base = [], None
        for lo in (0, 5, 10):
            lake = {tid: bench.repository[tid] for tid in tids[lo:lo + 5]}
            score_with_method(spark, lake, bench.queries[:1], m).count()
            held.append((resident_repository(spark, lake), resident_encodings(spark, lake, m)))
            base = persisted_rdds(spark) if base is None else base
            assert persisted_rdds(spark) == base
        *old, last = held
        assert all(rdd.getStorageLevel() == StorageLevel.NONE for pair in old for rdd in pair)
        assert all(rdd.getStorageLevel() == StorageLevel.MEMORY_AND_DISK for rdd in last)
        assert last[0].getNumPartitions() == spark.sparkContext.defaultParallelism

    def test_not_reused_across_sessions(self, spark, bench):
        lake = {tid: bench.repository[tid] for tid in sorted(bench.repository)[:3]}
        mine = resident_repository(spark, lake)

        class OtherContext:
            """This session's context, seen as another application's."""

            applicationId = "another-app"

            def __getattr__(self, name):
                return getattr(spark.sparkContext, name)

        class OtherApp:
            """This session seen as another application."""

            sparkContext = OtherContext()

            def __getattr__(self, name):
                return getattr(spark, name)

        other = resident_repository(OtherApp(), lake)
        assert other is not mine
        again = resident_repository(spark, lake)
        assert again is not other and again is not mine
        other.unpersist()
        mine.unpersist()

    def test_raw_lineage_ends_at_its_checkpoint(self, spark, bench):
        """Tasks over either artefact no longer carry the raw tables that a
        ``parallelize`` partition holds, and the blocks still spill to disk."""
        raw = resident_repository(spark, bench.repository)
        enc = resident_encodings(spark, bench.repository, CML(bench.cfg.fcm))
        for rdd in (raw, enc):
            assert b"ParallelCollectionRDD" not in rdd.toDebugString()
            assert rdd.getStorageLevel() == StorageLevel.MEMORY_AND_DISK

    def test_candidate_pairs_only(self, spark, bench):
        m = CML(bench.cfg.fcm)
        q0, q1 = bench.queries[:2]
        tids = sorted(bench.repository)
        cands = {q0.query_id: {tids[0], tids[1]}, q1.query_id: {tids[1], tids[2]}}
        got = collect_scores(
            score_with_method(spark, bench.repository, bench.queries, m, candidates=cands)
        )
        assert set(got) == {(qid, tid) for qid, ts in cands.items() for tid in ts}
        empty = score_with_method(spark, bench.repository, bench.queries, m, candidates={})
        assert empty.count() == 0


def partition_tables(rdd, key=lambda t: t.table_id) -> list[list[str]]:
    """The table ids held in each partition of a resident RDD, in order."""
    return rdd.mapPartitions(lambda items: [[key(x) for x in items]]).collect()


class TestLayout:
    """Each resident RDD holds whole tables in ``defaultParallelism``
    partitions, split on the driver by column count."""

    def test_each_table_in_exactly_one_partition(self, spark, bench):
        placed = resident_repository(spark, bench.repository).mapPartitionsWithIndex(
            lambda i, tables: [
                (t.table_id, j, i, c.tobytes()) for t in tables for j, c in enumerate(t.columns)
            ]
        ).collect()
        where: dict[str, set[int]] = {}
        for tid, _, part, _ in placed:
            where.setdefault(tid, set()).add(part)
        assert set(where) == set(bench.repository)
        assert all(len(parts) == 1 for parts in where.values())
        want = sorted(
            (tid, j, c.tobytes()) for tid, t in bench.repository.items() for j, c in enumerate(t.columns)
        )
        assert sorted((tid, j, b) for tid, j, _, b in placed) == want
        raw = partition_tables(resident_repository(spark, bench.repository))
        m = CML(bench.cfg.fcm)
        enc = partition_tables(resident_encodings(spark, bench.repository, m), key=lambda p: p[0])
        assert enc == raw

    def test_partition_count_is_default_parallelism(self, spark, bench):
        n = spark.sparkContext.defaultParallelism
        assert resident_repository(spark, bench.repository).getNumPartitions() == n
        enc = resident_encodings(spark, bench.repository, CML(bench.cfg.fcm))
        assert enc.getNumPartitions() == n

    def test_split_is_the_driver_split(self, spark, bench):
        groups = balanced_partitions(bench.repository, spark.sparkContext.defaultParallelism)
        got = partition_tables(resident_repository(spark, bench.repository))
        assert got == [[t.table_id for t in g] for g in groups]

    @pytest.mark.parametrize("n", [1, 3, 4, 7, 60])
    def test_balanced_and_deterministic(self, bench, n):
        groups = balanced_partitions(bench.repository, n)
        assert len(groups) == n
        load = [sum(t.n_cols for t in g) for g in groups]
        widest = max(t.n_cols for t in bench.repository.values())
        assert max(load) - min(load) <= widest
        shuffled = dict(reversed(list(bench.repository.items())))
        assert balanced_partitions(shuffled, n) == groups


class TestRepositoryFingerprint:
    """The resident artefacts' content key: the lake's ids and values, not
    the order of its dict."""

    LAKE = {"a": LakeTable("a", [[1.0, 2.0], [3.0, 4.0]]), "b": LakeTable("b", [[5.0, -0.5]])}

    def test_dict_order_does_not_change_it(self):
        assert repository_fingerprint(dict(reversed(self.LAKE.items()))) == repository_fingerprint(
            self.LAKE
        )

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0)])
    def test_any_changed_value_changes_it(self, cell):
        cols = self.LAKE["a"].columns.copy()
        cols[cell] = np.nextafter(cols[cell], np.inf)
        assert repository_fingerprint({**self.LAKE, "a": LakeTable("a", cols)}) != repository_fingerprint(
            self.LAKE
        )

    def test_a_changed_table_id_changes_it(self):
        renamed = {**self.LAKE, "b": LakeTable("c", self.LAKE["b"].columns)}
        assert repository_fingerprint(renamed) != repository_fingerprint(self.LAKE)

    def test_the_same_values_in_another_shape_change_it(self):
        flat = {**self.LAKE, "a": LakeTable("a", [[1.0, 2.0, 3.0, 4.0]])}
        assert repository_fingerprint(flat) != repository_fingerprint(self.LAKE)


class TestNoRequestLeftovers:
    """A request's payload leaves no broadcast file behind in the driver's
    temp directory, also above 1 MB, where PySpark would broadcast a task
    closure that carried it by itself."""

    @pytest.mark.parametrize("big", [False, True], ids=["small", "over_1mb"])
    @pytest.mark.parametrize("kind", ["ground_truth", "scan"])
    def test_temp_dir_flat_over_requests(self, spark, bench, kind, big):
        m = CML(bench.cfg.fcm)
        queries = bench.queries
        if big:
            ballast = np.linspace(0.0, 1.0, 150_000)  # resampled by Rel, ignored by CML
            assert ballast.nbytes > 1 << 20
            m.ballast = ballast
            queries = [SimpleNamespace(query_id="long", data=[ballast])]
        view = SimpleNamespace(cfg=bench.cfg, repository=bench.repository, queries=queries)

        def request():
            if kind == "ground_truth":
                spark_ground_truth(spark, view)
            else:
                ranked_topk(score_with_method(spark, bench.repository, bench.queries, m), 3)

        request()  # builds the resident artefacts
        temp_dir = spark.sparkContext._temp_dir
        before = len(os.listdir(temp_dir))
        for _ in range(5):
            request()
        assert len(os.listdir(temp_dir)) == before


SOUNDNESS = """
import importlib, sys, zipfile, zipimport
from repro.lake.resident import _keep_zip_directory, _no_zip_rescan

def write_zip(path, *modules):
    with zipfile.ZipFile(path, "w") as z:
        for name in modules:
            z.writestr(name + ".py", "VALUE = %r\\n" % name)
    return path

old = write_zip(sys.argv[1] + "/old.zip", "first_old", "second_old")
sys.path.insert(0, old)
import first_old
directory = sys.path_importer_cache[old]._files

_no_zip_rescan()
_no_zip_rescan()
assert zipimport.zipimporter.invalidate_caches is _keep_zip_directory
importlib.invalidate_caches()
assert sys.path_importer_cache[old]._files is directory
import second_old

new = write_zip(sys.argv[1] + "/new.zip", "in_new")
sys.path.insert(0, new)
importlib.invalidate_caches()
import in_new
assert (first_old.VALUE, second_old.VALUE, in_new.VALUE) == ("first_old", "second_old", "in_new")
print("ok")
"""


class TestNoZipRescan:
    """Each request task stops its worker's zipimporters from re-reading
    their archives in PySpark's per-task set-up, which costs about 0.2 s;
    a reused worker then skips it on every later task."""

    def test_reused_workers_skip_the_rescan(self, spark, bench):
        def probe(_, part):
            import os
            import sys
            import zipimport

            from repro.lake import resident

            for _ in part:
                pass
            directories = {
                path: id(importer._files)
                for path, importer in sys.path_importer_cache.items()
                if isinstance(importer, zipimport.zipimporter)
            }
            noop = zipimport.zipimporter.invalidate_caches is resident._keep_zip_directory
            yield os.getpid(), noop, directories

        raw = resident_repository(spark, bench.repository)
        first = {pid: dirs for pid, _, dirs in _collect(spark, raw, probe, None)}
        second = _collect(spark, raw, probe, None)
        assert len(second) == spark.sparkContext.defaultParallelism
        assert all(noop for _, noop, _ in second)
        reused = [(pid, dirs) for pid, _, dirs in second if pid in first]
        assert reused, "PySpark started a new worker for every task: the hook cannot help"
        for pid, dirs in reused:
            # the set-up of the second task kept every directory it had read
            assert first[pid] and first[pid].items() <= dirs.items()
        assert zipimport.zipimporter.invalidate_caches is resident._zip_rescan

    def test_artefact_builds_skip_the_rescan(self, spark, bench):
        """A worker whose only tasks since the original method was put back
        were an artefact build's already has the no-op in place: the raw
        build and the encoded build each call the hook first."""
        sc = spark.sparkContext
        n = 4 * sc.defaultParallelism

        def restore(part):  # a plain stage, not through _collect: no hook
            import os
            import zipimport

            from repro.lake import resident

            noop = zipimport.zipimporter.invalidate_caches is resident._keep_zip_directory
            zipimport.zipimporter.invalidate_caches = resident._zip_rescan
            yield os.getpid(), noop

        def patched_by(build) -> bool:
            restored = {pid for pid, _ in sc.parallelize(range(n), n).mapPartitions(restore).collect()}
            build()
            after = sc.parallelize(range(n), n).mapPartitions(restore).collect()
            return any(noop for pid, noop in after if pid in restored)

        # a changed table, so both artefacts are built afresh
        t = next(iter(bench.repository.values()))
        lake = {**bench.repository, t.table_id: LakeTable(t.table_id, t.columns[:, ::-1])}
        assert patched_by(lambda: resident_repository(spark, lake))
        assert patched_by(lambda: resident_encodings(spark, lake, CML(bench.cfg.fcm)))
        assert zipimport.zipimporter.invalidate_caches is resident._zip_rescan

    def test_archives_still_import(self, tmp_path):
        """In a fresh interpreter, so this one is never patched: after the
        hook a zip already on the path still imports and keeps its
        directory, and a zip added later imports too."""
        script = tmp_path / "soundness.py"
        script.write_text(SOUNDNESS)
        src = str(Path(search.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
        assert zipimport.zipimporter.invalidate_caches is resident._zip_rescan


class TestTopK:
    def test_topk_vs_oracle(self, spark, cml_scores, bench):
        """The collected top-k == DuckDB row_number over the same scores."""
        k = bench.cfg.k
        top = pd.DataFrame(
            [
                (qid, tid, rank)
                for qid, tids in ranked_topk(cml_scores, k).items()
                for rank, tid in enumerate(tids, start=1)
            ],
            columns=["query_id", "table_id", "rank"],
        )
        assert_equivalent(
            top,
            f"""
            SELECT query_id, table_id, rank FROM (
                SELECT query_id, table_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY query_id
                           ORDER BY score DESC, table_id ASC
                       ) AS rank
                FROM scores
            ) WHERE rank <= {k}
            """,
            scores=cml_scores,
        )

    def test_nan_scores_rank_last(self, spark):
        rows = [
            ("q1", "t_nan", float("nan")),
            ("q1", "t_b", 0.5),
            ("q1", "t_a", 0.5),
            ("q1", "t_inf", float("inf")),
            ("q1", "t_low", -1.0),
            ("q2", "t_nan", float("nan")),
            ("q2", "t_a", 0.1),
        ]
        scores = spark.createDataFrame(
            pd.DataFrame(rows, columns=["query_id", "table_id", "score"])
        )
        assert ranked_topk(scores, 5) == {
            "q1": ["t_inf", "t_a", "t_b", "t_low", "t_nan"],
            "q2": ["t_a", "t_nan"],
        }
        assert ranked_topk(scores, 1) == {"q1": ["t_inf"], "q2": ["t_a"]}

    def test_ranked_topk_structure(self, cml_scores, bench):
        ranked = ranked_topk(cml_scores, bench.cfg.k)
        assert set(ranked) == {q.query_id for q in bench.queries}
        for v in ranked.values():
            assert len(v) == bench.cfg.k
            assert len(set(v)) == len(v)
