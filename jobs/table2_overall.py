"""Tables II, III, V and VI — effectiveness, from one scoring pass per method.

Runs CML, DE-LN, Opt-LN, Qetch*, the trained FCM and its two ablations,
FCM-HCMAN and FCM-DA, over the full benchmark through the distributed
search harness, once each, and derives all four tables from those seven
runs, each printed next to the paper's numbers:

* Table II: prec@k / ndcg@k of the five methods, with and without DA;
* Table III: the same per number of lines M;
* Table V: FCM vs FCM-HCMAN (global averaged matching), overall and by M;
* Table VI: FCM vs FCM-DA (the three DA layers removed), with and
  without DA.
"""
from __future__ import annotations

from _common import setup, trained_fcm

from repro.bench.harness import (
    FCMMethod,
    da_split_metrics,
    default_methods,
    m_bucket_metrics,
    overall_metrics,
    run_method,
)
from repro.bench.plotly_lite import M_BUCKETS
from repro.bench.tables import (
    METHOD_ORDER,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE5,
    PAPER_TABLE6,
    fmt_row,
)


def by_method(runs, bench, metrics_fn, tag: str) -> dict:
    """``{(row, metric): {method: value}}`` of each run's ``metrics_fn`` rows."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    for name, mr in runs.items():
        rows = metrics_fn(mr, bench)
        for row, metrics in rows.items():
            out.setdefault((row, "prec"), {})[name] = metrics["prec"]
            out.setdefault((row, "ndcg"), {})[name] = metrics["ndcg"]
        print(f"[{tag}] {name}: {rows}", flush=True)
    return out


def run(spark, bench) -> dict:
    methods = default_methods(bench, fcm=trained_fcm(bench)[0]) + [
        FCMMethod(trained_fcm(bench, variant="no_hcman")[0], name="FCM-HCMAN"),
        FCMMethod(trained_fcm(bench, variant="no_da")[0], name="FCM-DA"),
    ]
    runs = {m.name: run_method(spark, bench, m) for m in methods}
    five = {name: runs[name] for name in METHOD_ORDER}
    got = {
        "II": by_method(five, bench, da_split_metrics, "table2"),
        "III": by_method(five, bench, m_bucket_metrics, "table3"),
        "V": {},
        "VI": {},
    }
    for name in ("FCM", "FCM-HCMAN"):
        got["V"][(name, "Overall")] = overall_metrics(runs[name], bench)
        for bucket, metrics in m_bucket_metrics(runs[name], bench).items():
            got["V"][(name, bucket)] = metrics
        print(f"[table5] {name}: overall={got['V'][(name, 'Overall')]}", flush=True)
    for name in ("FCM", "FCM-DA"):
        for part, metrics in da_split_metrics(runs[name], bench).items():
            got["VI"][(name, part)] = metrics
        print(f"[table6] {name}: {got['VI'][(name, 'Overall')]}", flush=True)
    return got


def main(argv=None):
    spark, bench, _ = setup(argv)
    got = run(spark, bench)
    k = bench.cfg.k
    header = f"{'':22s} " + "  ".join(f"{m:>6s}" for m in METHOD_ORDER)
    print(f"\nTable II — effectiveness (k={k})")
    print(header)
    for key in PAPER_TABLE2:
        part, metric = key
        print(fmt_row(f"{part} {metric} (ours)", got["II"].get(key, {})))
        print(fmt_row(f"{part} {metric} (paper)", PAPER_TABLE2[key]))
    print(f"\nTable III — effectiveness by M (k={k})")
    print(header)
    for bucket in M_BUCKETS:
        for metric in ("prec", "ndcg"):
            key = (bucket, metric)
            if key in got["III"]:
                print(fmt_row(f"M={bucket} {metric} (ours)", got["III"][key]))
            print(fmt_row(f"M={bucket} {metric} (paper)", PAPER_TABLE3[key]))
    print(f"\nTable V — FCM vs FCM-HCMAN (prec@{k}, ndcg@{k})")
    for bucket in ("Overall", *M_BUCKETS):
        for name in ("FCM", "FCM-HCMAN"):
            m = got["V"].get((name, bucket))
            pp, pn = PAPER_TABLE5[(bucket, name)]
            if m is None:
                print(f"{bucket:8s} {name:10s} (no queries in bucket)  paper={pp:.3f}/{pn:.3f}")
            else:
                print(
                    f"{bucket:8s} {name:10s} prec={m['prec']:.3f} (paper {pp:.3f})"
                    f"  ndcg={m['ndcg']:.3f} (paper {pn:.3f})"
                )
    print(f"\nTable VI — impact of the DA layers (k={k})")
    for name in ("FCM", "FCM-DA"):
        for part in ("Overall", "With DA", "Without DA"):
            m = got["VI"][(name, part)]
            pp, pn = PAPER_TABLE6[(name, part)]
            print(
                f"{name:8s} {part:12s} prec={m['prec']:.3f} (paper {pp:.3f})"
                f"  ndcg={m['ndcg']:.3f} (paper {pn:.3f})"
            )
    return got


if __name__ == "__main__":
    main()
