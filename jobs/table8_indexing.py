"""Table VIII — index strategies: effectiveness + query time.

Builds the interval index (flat arrays of column interval keys, probed
by one vectorised overlap test) and the LSH index over the lake (column
embeddings from the distributed ``embed_repository`` job, which leaves
out a column with a NaN or ±inf value), generates
per-query candidate sets under each strategy (none / interval / lsh /
hybrid), and measures the wall-clock of the Spark scoring stage over
the resident encoded repository, which is built once beforehand. The
reproduced shape: interval == scan effectiveness with ~the candidate
ratio speedup; LSH/hybrid trade a small effectiveness drop for much
larger speedups.
"""
from __future__ import annotations

import time

import numpy as np
from _common import setup, trained_fcm

from repro.bench.harness import FCMMethod, overall_metrics, run_method
from repro.bench.tables import PAPER_TABLE8
from repro.index.hybrid import (
    LSH_BITS,
    LSH_TABLES,
    STRATEGIES,
    build_hybrid_index,
    query_line_embeddings,
)
from repro.lake.repository import embed_repository, repository_df
from repro.lake.resident import resident_encodings


def run(spark, bench) -> dict:
    model, _ = trained_fcm(bench)
    method = FCMMethod(model)

    # distributed column-embedding job feeds the LSH index
    emb_rows = embed_repository(repository_df(spark, bench.repository), bench.cfg.fcm).collect()
    column_embs = {
        (r["table_id"], r["col_id"]): np.asarray(r["emb"]) for r in emb_rows
    }
    n_cols = sum(t.n_cols for t in bench.repository.values())
    print(
        f"[table8] columns left out of the LSH index (NaN or ±inf): {n_cols - len(emb_rows)}",
        flush=True,
    )
    index = build_hybrid_index(
        bench.repository, column_embs, n_bits=LSH_BITS, n_tables=LSH_TABLES, seed=bench.cfg.seed
    )
    print(f"[table8] index build seconds: {index.build_seconds}", flush=True)

    # the offline step (Sec. VI): every table encoded once, so each
    # strategy's seconds below time scoring only
    t0 = time.perf_counter()
    resident_encodings(spark, bench.repository, method.encode_table)
    print(f"[table8] offline encode seconds: {time.perf_counter() - t0}", flush=True)

    q_encs = {q.query_id: model.encode_query(q.extracted) for q in bench.queries}
    out = {}
    for strategy in STRATEGIES:
        cands = {
            qid: index.candidates(
                strategy,
                y_range=qe.y_range,
                line_embs=query_line_embeddings(model, qe),
            )
            for qid, qe in q_encs.items()
        }
        mr = run_method(spark, bench, method, candidates=cands)
        metrics = overall_metrics(mr, bench)
        out[strategy] = {
            "prec": metrics["prec"],
            "ndcg": metrics["ndcg"],
            "seconds": mr.seconds,
            "n_pairs": mr.n_pairs,
        }
        print(f"[table8] {strategy}: {out[strategy]}", flush=True)
    return out


def main(argv=None):
    spark, bench, _ = setup(argv)
    got = run(spark, bench)
    print(f"\nTable VIII — index strategies (k={bench.cfg.k}; ours | paper)")
    total_pairs = got["none"]["n_pairs"]
    for s, label in (("none", "No Index"), ("interval", "Interval Tree"), ("lsh", "LSH"), ("hybrid", "Hybrid")):
        m = got[s]
        pp, pn, pt = PAPER_TABLE8[s]
        frac = m["n_pairs"] / total_pairs
        print(
            f"{label:14s} prec={m['prec']:.3f} ({pp:.3f})  ndcg={m['ndcg']:.3f} ({pn:.3f})"
            f"  time={m['seconds']:6.1f}s ({pt:.0f}s)  pairs={m['n_pairs']} ({frac:.1%})"
        )
    return got


if __name__ == "__main__":
    main()
