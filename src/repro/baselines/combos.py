"""DE-LN and Opt-LN baselines (Sec. VII-B (3), (4)).

* **DE-LN**: DeepEye recommends 5 line charts per candidate table; each is
  rendered by the chartsim substrate and compared to the query chart with
  LineNet; the best similarity is Rel'(V, T). Its ceiling is the VisRec
  quality — if DeepEye never recommends the right columns, no similarity
  is found.
* **Opt-LN**: the impossible-in-practice upper bound — render the chart
  from the candidate's *own ground-truth viz spec* (the spec associated
  with the table in the corpus) and compare with LineNet. Isolates the
  chart-search half from recommendation error.

Both are perception-level: aggregation-based queries break them because
the candidate-side charts are rendered from raw (non-aggregated) columns.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.baselines.base import Method
from repro.baselines.deepeye import recommend
from repro.baselines.linenet import embed_raster
from repro.chartsim.extractor import ExtractedQuery
from repro.chartsim.renderer import render_chart
from repro.chartsim.spec import VisSpec, underlying_data
from repro.config import ChartConfig
from repro.core.data import LakeTable
from repro.core.features import cosine


def _render_embed(table: LakeTable, spec: VisSpec, cfg: ChartConfig) -> np.ndarray | None:
    try:
        data = underlying_data(table, spec)
    except (ValueError, IndexError):
        return None
    return embed_raster(render_chart(data, cfg).raster)


class _LineNetSearch(Method):
    """LineNet between the query chart and the charts a subclass renders
    from each table; Rel'(V, T) is the best similarity, 0.0 with none."""

    def __init__(self, cfg: ChartConfig | None = None) -> None:
        self.cfg = cfg or ChartConfig()

    def prepare_query(self, eq: ExtractedQuery) -> np.ndarray:
        return embed_raster(eq.raster)

    def score(self, query_prep: np.ndarray, table_enc: list[np.ndarray]) -> float:
        if not table_enc:
            return 0.0
        return max(cosine(query_prep, e) for e in table_enc)


class DeepEyeLineNet(_LineNetSearch):
    name = "DE-LN"

    def encode_table(self, table: LakeTable) -> list[np.ndarray]:
        if not table.finite.any():
            return []
        if not table.finite.all():
            table = LakeTable(table.table_id, table.columns[table.finite])
        embs = []
        for spec in recommend(table):
            e = _render_embed(table, spec, self.cfg)
            if e is not None:
                embs.append(e)
        return embs


class OptLineNet(_LineNetSearch):
    """Upper bound: LineNet against the candidate's ground-truth chart.

    ``specs`` maps table_id -> the table's corpus viz spec (noisy
    duplicates inherit the spec of their source table).
    """

    name = "Opt-LN"

    def __init__(self, specs: dict[str, VisSpec], cfg: ChartConfig | None = None) -> None:
        self.specs = dict(specs)
        super().__init__(cfg)

    def encode_table(self, table: LakeTable) -> list[np.ndarray]:
        keep = np.flatnonzero(table.finite).tolist()
        spec = self.specs.get(table.table_id)
        if spec is None:
            spec = VisSpec(y_cols=tuple(keep[:3]))
        y_cols = tuple(c for c in spec.y_cols if c in keep)
        if not y_cols:
            return []
        e = _render_embed(table, replace(spec, y_cols=y_cols), self.cfg)
        return [e] if e is not None else []
