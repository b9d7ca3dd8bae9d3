"""Table III — effectiveness by number of lines M (all five methods)."""
from __future__ import annotations

from _common import setup, trained_fcm

from repro.bench.harness import default_methods, m_bucket_metrics, run_method
from repro.bench.plotly_lite import M_BUCKETS
from repro.bench.tables import METHOD_ORDER, PAPER_TABLE3, fmt_row


def run(spark, bench) -> dict:
    model, _ = trained_fcm(bench)
    out: dict[tuple[str, str], dict[str, float]] = {}
    for method in default_methods(bench, fcm=model):
        mr = run_method(spark, bench, method)
        mm = m_bucket_metrics(mr, bench)
        for bucket, metrics in mm.items():
            out.setdefault((bucket, "prec"), {})[method.name] = metrics["prec"]
            out.setdefault((bucket, "ndcg"), {})[method.name] = metrics["ndcg"]
        print(f"[table3] {method.name}: {mm}", flush=True)
    return out


def main(argv=None):
    spark, bench, _ = setup(argv)
    got = run(spark, bench)
    print(f"\nTable III — effectiveness by M (k={bench.cfg.k})")
    print(f"{'':22s} " + "  ".join(f"{m:>6s}" for m in METHOD_ORDER))
    for bucket in M_BUCKETS:
        for metric in ("prec", "ndcg"):
            key = (bucket, metric)
            if key in got:
                print(fmt_row(f"M={bucket} {metric} (ours)", got[key]))
            print(fmt_row(f"M={bucket} {metric} (paper)", PAPER_TABLE3[key]))
    return got


if __name__ == "__main__":
    main()
