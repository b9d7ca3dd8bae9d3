"""Table I — benchmark statistics: query / repository counts by #lines M.

Prints our benchmark's M-distribution next to the paper's (the corpus
generator targets the same bucket proportions, DESIGN.md §2).
"""
from __future__ import annotations

from _common import setup

from repro.bench.plotly_lite import M_BUCKETS, m_bucket_label
from repro.bench.tables import PAPER_TABLE1


def run(bench) -> dict[str, dict[str, int]]:
    # query distribution
    q_counts = {lab: 0 for lab in M_BUCKETS}
    for q in bench.queries:
        q_counts[m_bucket_label(q.m)] += 1
    # repository distribution by each table's viz-spec M (tables with >7
    # columns cap at their spec)
    r_counts = {lab: 0 for lab in M_BUCKETS}
    for tid in bench.repository:
        spec = bench.repo_specs[tid]
        r_counts[m_bucket_label(spec.m)] += 1
    return {
        "Query": {"overall": len(bench.queries), **q_counts},
        "Repository": {"overall": len(bench.repository), **r_counts},
    }


def main(argv=None):
    _, bench, _ = setup(argv)
    got = run(bench)
    print("\nTable I — benchmark statistics (measured | paper)")
    header = ["overall"] + list(M_BUCKETS)
    print(f"{'':12s}" + "".join(f"{h:>16s}" for h in header))
    for row in ("Query", "Repository"):
        cells = "".join(
            f"{got[row][h]:>7d} |{PAPER_TABLE1[row][h]:>6d} " for h in header
        )
        print(f"{row:12s}{cells}")
    return got


if __name__ == "__main__":
    main()
