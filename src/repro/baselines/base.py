"""Uniform method protocol for the search harness.

Every retrieval method — FCM variants and all baselines — implements:

* ``prepare_query(extracted)``: one-off query-side preprocessing;
* ``encode_table(table)``: repository-side encoding (done once per table
  for a lake and encoder state, and kept resident in Spark:
  ``repro.lake.resident``);
* ``score(query_prep, table_enc)``: the relevance estimate Rel'(V, T).

A baseline scores only the columns its table marks usable
(``LakeTable.finite``, the mask FCM's encoder and the interval index read
too) and gives a table with none 0.0, as FCM does, so a NaN or ±inf cell
never reaches a score.

Instances must be picklable (numpy only) so the harness can broadcast
them to executors. The pickle of ``encode_table`` keys the resident
encodings, so it must change whenever that function's output would.
"""
from __future__ import annotations

from typing import Any

from repro.chartsim.extractor import ExtractedQuery
from repro.core.data import LakeTable


class Method:
    name: str = "base"

    def prepare_query(self, eq: ExtractedQuery) -> Any:
        raise NotImplementedError

    def encode_table(self, table: LakeTable) -> Any:
        raise NotImplementedError

    def score(self, query_prep: Any, table_enc: Any) -> float:
        raise NotImplementedError
