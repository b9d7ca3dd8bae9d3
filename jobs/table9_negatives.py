"""Table IX — impact of the number of negative samples N^-.

Trains the FCM head with N^- in 1..8 (semi-hard strategy) and evaluates
each trained head on the benchmark. Also prints the Appendix-E strategy
comparison (random / easy / hard / semi-hard) including convergence
epochs, which backs Fig. 5's narrative.
"""
from __future__ import annotations

from _common import setup, trained_fcm

from repro.bench.harness import FCMMethod, overall_metrics, run_method, sub_benchmark
from repro.bench.tables import PAPER_TABLE9
from repro.core.train import N_NEG, STRATEGIES, STRATEGY

N_NEG_VALUES = (1, 2, 3, 4, 5, 6, 7, 8)


def run(spark, bench, *, n_negs=N_NEG_VALUES, strategies=STRATEGIES) -> dict:
    # 8 trainings x full-repository evaluations would dominate the suite's
    # runtime; each head is evaluated on the reduced slice instead (the
    # sweep compares heads, not absolute quality).
    sub = sub_benchmark(bench, n_queries=max(2, len(bench.queries) // 2))
    scored: dict[tuple[int, str], dict] = {}

    def evaluate(n_neg: int, strategy: str) -> dict:
        """Metrics of one head; the N^- sweep's default-strategy row and
        the strategy sweep's default-N^- row are the same head, scored once."""
        if (n_neg, strategy) not in scored:
            model, result = trained_fcm(bench, n_neg=n_neg, strategy=strategy)
            mr = run_method(spark, sub, FCMMethod(model, name=f"FCM[N-={n_neg},{strategy}]"))
            print(f"[table9] seconds {mr.method}: {mr.seconds}", flush=True)
            scored[(n_neg, strategy)] = {
                **overall_metrics(mr, sub), "converged_epoch": result.converged_epoch
            }
        return scored[(n_neg, strategy)]

    out = {"n_neg": {}, "strategy": {}}
    for n_neg in n_negs:
        out["n_neg"][n_neg] = evaluate(n_neg, STRATEGY)
        print(f"[table9] N-={n_neg}: {out['n_neg'][n_neg]}", flush=True)
    for strategy in strategies:
        out["strategy"][strategy] = evaluate(N_NEG, strategy)
        print(f"[table9] {strategy}: {out['strategy'][strategy]}", flush=True)
    return out


def main(argv=None):
    spark, bench, args = setup(argv)
    if args.tiny:
        got = run(spark, bench, n_negs=(1, 3), strategies=("random", "semihard"))
    else:
        got = run(spark, bench)
    print(f"\nTable IX — impact of N^- (k={bench.cfg.k}; ours | paper)")
    for n_neg, m in got["n_neg"].items():
        pp, pn = PAPER_TABLE9[n_neg]
        print(
            f"N-={n_neg}  prec={m['prec']:.3f} ({pp:.3f})  ndcg={m['ndcg']:.3f} ({pn:.3f})"
            f"  converged@{m['converged_epoch']}"
        )
    print("\nAppendix E — negative-selection strategies (semi-hard is the paper's pick)")
    for strategy, m in got["strategy"].items():
        print(
            f"{strategy:9s} prec={m['prec']:.3f} ndcg={m['ndcg']:.3f}"
            f" converged@{m['converged_epoch']}"
        )
    return got


if __name__ == "__main__":
    main()
