"""Smoke tests: every jobs/ entrypoint runs end-to-end at --tiny scale.

These are the same mains that spark-submit runs at bench scale; the tests
assert the table rows they return are structurally sound.
"""
import importlib.util
import os
import sys

import pytest

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "jobs")


def _load(name: str):
    if JOBS_DIR not in sys.path:
        sys.path.insert(0, JOBS_DIR)
    spec = importlib.util.spec_from_file_location(name, os.path.join(JOBS_DIR, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ARGS = ["--tiny", "--seed", "13"]


def _counting_run_method(job) -> list[str]:
    """Wrap a loaded job's ``run_method``; returns the scored method names."""
    calls = []
    run_method = job.run_method

    def counted(spark, bench, method):
        calls.append(method.name)
        return run_method(spark, bench, method)

    job.run_method = counted
    return calls


@pytest.fixture(scope="module")
def effectiveness(spark):
    """One run of the Tables II/III/V/VI job and the methods it scored."""
    job = _load("table2_overall")
    calls = _counting_run_method(job)
    return job.main(ARGS), calls


@pytest.mark.usefixtures("spark")
class TestJobs:
    def test_table1(self, spark):
        got = _load("table1_benchmark_stats").main(ARGS)
        assert got["Query"]["overall"] > 0
        assert got["Repository"]["overall"] > got["Query"]["overall"]
        assert sum(got["Query"][b] for b in ("1", "2-4", "5-7", ">7")) == got["Query"]["overall"]

    def test_table2(self, effectiveness):
        tables, calls = effectiveness
        assert set(tables) == {"II", "III", "V", "VI"}
        # each method, and each ablation, is scored exactly once
        assert sorted(calls) == sorted(
            ["CML", "DE-LN", "Opt-LN", "Qetch*", "FCM", "FCM-HCMAN", "FCM-DA"]
        )
        got = tables["II"]
        key = ("Overall", "prec")
        assert set(got[key]) == {"CML", "DE-LN", "Opt-LN", "Qetch*", "FCM"}
        assert all(0.0 <= v <= 1.0 for v in got[key].values())

    def test_table3(self, effectiveness):
        got = effectiveness[0]["III"]
        assert any(k[1] == "prec" for k in got)
        for (_bucket, _metric), row in got.items():
            assert all(0.0 <= v <= 1.0 for v in row.values())

    def test_table4(self, spark):
        got = _load("table4_da_breakdown").main(ARGS)
        assert got
        for (op, bucket), v in got.items():
            assert op in ("avg", "sum", "max", "min")
            assert 0.0 <= v <= 1.0

    def test_table5(self, effectiveness):
        got = effectiveness[0]["V"]
        assert got[("FCM", "Overall")]["prec"] >= 0.0
        assert ("FCM-HCMAN", "Overall") in got

    def test_table6(self, effectiveness):
        got = effectiveness[0]["VI"]
        for name in ("FCM", "FCM-DA"):
            assert ("Overall" in [p for (n, p) in got if n == name])

    def test_table7(self, spark):
        got = _load("table7_segment_sizes").main(ARGS)
        assert len(got) == 4  # tiny: 2x2 sweep
        assert all(0.0 <= v <= 1.0 for v in got.values())

    def test_table8(self, spark):
        got = _load("table8_indexing").main(ARGS)
        assert set(got) == {"none", "interval", "lsh", "hybrid"}
        # candidate counts must be nested: hybrid <= interval <= none
        assert got["hybrid"]["n_pairs"] <= got["interval"]["n_pairs"] <= got["none"]["n_pairs"]
        assert got["hybrid"]["n_pairs"] <= got["lsh"]["n_pairs"]
        # interval pruning is lossless
        assert got["interval"]["prec"] == pytest.approx(got["none"]["prec"])

    def test_table9(self, spark):
        job = _load("table9_negatives")
        calls = _counting_run_method(job)
        got = job.main(ARGS)
        assert set(got["n_neg"]) == {1, 3}
        assert set(got["strategy"]) == {"random", "semihard"}
        for m in got["n_neg"].values():
            assert m["converged_epoch"] >= 1
        # N-=3 and semi-hard are one head, scored once: three heads, three runs
        assert len(calls) == len(set(calls)) == 3
        assert got["strategy"]["semihard"] == got["n_neg"][3]


class TestJobCache:
    def test_key_follows_source(self, tmp_path, monkeypatch):
        """Editing any src/repro source file changes the cache key."""
        from repro.config import tiny_benchmark_config

        common = _load("_common")
        cfg = tiny_benchmark_config(13)
        (tmp_path / "core").mkdir()
        src = tmp_path / "core" / "dtw.py"
        src.write_text("x = 1\n")
        monkeypatch.setattr(common, "SRC_DIR", str(tmp_path))
        key = common._cfg_key(cfg)
        assert common._cfg_key(cfg) == key
        src.write_text("x = 2\n")
        assert common._cfg_key(cfg) != key
        assert common._cfg_key(tiny_benchmark_config(14)) != common._cfg_key(cfg)

    def test_a_build_evicts_only_other_sources(self, tmp_path, monkeypatch):
        """A cache miss deletes the pickles of older sources, keeps this
        source's pickles of other configs, and the next load is a hit."""
        import pickle

        from repro.config import BenchmarkConfig, tiny_benchmark_config

        common = _load("_common")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "dtw.py").write_text("x = 1\n")
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setattr(common, "SRC_DIR", str(tmp_path / "src"))
        monkeypatch.setattr(common, "CACHE_DIR", str(cache))
        bench_key = common._cfg_key(BenchmarkConfig(seed=13))
        old_key = "0" * 16 + bench_key[16:]
        kept = [f"bench_{bench_key}.pkl", f"fcm_{bench_key}_full_3_semihard.pkl"]
        stale = [f"bench_{old_key}.pkl", f"fcm_{old_key}_full_3_semihard.pkl", "bench_0123456789abcdef.pkl"]
        for name in kept + stale:
            (cache / name).write_bytes(pickle.dumps(name))
        builds = []
        monkeypatch.setattr(common, "build_benchmark", lambda cfg, **_: builds.append(cfg) or cfg.seed)
        cfg = tiny_benchmark_config(13)
        assert common.load_benchmark(None, cfg, with_tpch=False) == 13
        assert common.load_benchmark(None, cfg, with_tpch=False) == 13
        assert builds == [cfg]
        tiny = f"bench_{common._cfg_key(cfg)}.pkl"
        assert sorted(p.name for p in cache.iterdir()) == sorted(kept + [tiny])
