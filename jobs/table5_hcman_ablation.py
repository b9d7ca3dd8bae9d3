"""Table V — ablation: FCM vs FCM-HCMAN (global averaged matching)."""
from __future__ import annotations

from _common import setup, trained_fcm

from repro.bench.harness import FCMMethod, m_bucket_metrics, overall_metrics, run_method
from repro.bench.plotly_lite import M_BUCKETS
from repro.bench.tables import PAPER_TABLE5


def run(spark, bench) -> dict:
    out = {}
    for variant, name in (("full", "FCM"), ("no_hcman", "FCM-HCMAN")):
        model, _ = trained_fcm(bench, variant=variant)
        mr = run_method(spark, bench, FCMMethod(model, name=name))
        out[(name, "Overall")] = overall_metrics(mr, bench)
        for bucket, metrics in m_bucket_metrics(mr, bench).items():
            out[(name, bucket)] = metrics
        print(f"[table5] {name}: overall={out[(name, 'Overall')]}", flush=True)
    return out


def main(argv=None):
    spark, bench, _ = setup(argv)
    got = run(spark, bench)
    print(f"\nTable V — FCM vs FCM-HCMAN (prec@{bench.cfg.k}, ndcg@{bench.cfg.k})")
    for bucket in ("Overall", *M_BUCKETS):
        for name in ("FCM", "FCM-HCMAN"):
            m = got.get((name, bucket))
            pp, pn = PAPER_TABLE5[(bucket, name)]
            if m is None:
                print(f"{bucket:8s} {name:10s} (no queries in bucket)  paper={pp:.3f}/{pn:.3f}")
            else:
                print(
                    f"{bucket:8s} {name:10s} prec={m['prec']:.3f} (paper {pp:.3f})"
                    f"  ndcg={m['ndcg']:.3f} (paper {pn:.3f})"
                )
    return got


if __name__ == "__main__":
    main()
