"""Training of the FCM scoring head (Sec. V-E + Appendix B/D/E).

The loss is the paper's Eq. (2) (class-balanced negative log-likelihood).
The original training set only has positive (V, T) pairs; negatives are
drawn per mini-batch with one of four strategies — random / easy / hard /
semi-hard — ranked by the *ground-truth* relevance ``Rel(D, T)`` exactly
as the paper prescribes (the underlying data D is available at training
time). Semi-hard (the paper's choice) takes the middle-ranked datasets.

What is trained here is the logistic head over the matcher's statistics
vector; the encoders are deterministic (DESIGN.md §2), so this is where
all learned decision weight lives.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.data import LakeTable
from repro.core.dataset_encoder import TableEncoding
from repro.core.fcm import FCMModel
from repro.core.line_encoder import QueryEncoding
from repro.core.matcher import LogisticHead, sigmoid
from repro.core.relevance import rel_scores

STRATEGIES = ("random", "easy", "hard", "semihard")
#: negatives per positive, negative-sampling strategy and epochs of the
#: head the jobs train (Table IX sweeps the first two)
N_NEG = 3
STRATEGY = "semihard"
EPOCHS = 60
#: triplets per mini-batch: negatives are drawn from the batch-mates' tables
BATCH_SIZE = 8
#: DTW band and length cap of the Rel(D, T) that ranks a batch's negative
#: candidates (the ground truth's are ``relevance.GT_BAND``/``GT_MAX_LEN``)
NEG_BAND = 8
NEG_MAX_LEN = 64
#: gradient step and L2 weight of the head fit
LR = 0.5
L2 = 1e-3
#: share of the training pairs held out for validation
VAL_FRAC = 0.25


@dataclass
class Triplet:
    """One training example (V_i, D_i, T_i) per Def. 2."""

    query: QueryEncoding
    data: list[np.ndarray]     # underlying data D (available at train time)
    table_id: str


@dataclass
class TrainResult:
    head: LogisticHead
    history: list[dict] = field(default_factory=list)

    @property
    def converged_epoch(self) -> int:
        """First epoch whose val loss is within 2% of the final minimum."""
        if not self.history:
            return 0
        losses = np.array([h["val_loss"] for h in self.history])
        target = losses.min() * 1.02
        return int(np.argmax(losses <= target)) + 1


def select_negatives(
    rels: np.ndarray, n_neg: int, strategy: str, rng: np.random.Generator
) -> np.ndarray:
    """Pick ``n_neg`` indices out of candidates ranked by Rel(D, T) desc.

    ``rels`` are relevance scores of the *negative candidate* tables.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
    n = rels.size
    n_neg = min(n_neg, n)
    order = np.argsort(-rels)  # descending relevance = hardest first
    if strategy == "random":
        return rng.choice(n, size=n_neg, replace=False)
    if strategy == "hard":
        return order[:n_neg]
    if strategy == "easy":
        return order[-n_neg:]
    # semihard: the middle of the ranking
    start = max(0, (n - n_neg) // 2)
    return order[start : start + n_neg]


def build_training_set(
    model: FCMModel,
    triplets: list[Triplet],
    table_encs: dict[str, TableEncoding],
    tables: dict[str, LakeTable],
    *,
    n_neg: int = N_NEG,
    strategy: str = STRATEGY,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise (X, y) from positive triplets + sampled negatives."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    order = rng.permutation(len(triplets))
    batches = [order[s : s + BATCH_SIZE] for s in range(0, len(order), BATCH_SIZE)]
    # Rel(D, T) of each triplet against its batch-mates' tables, for all
    # batches in one call so the DTW kernel's stacks span the whole set
    tids = sorted({t.table_id for t in triplets})
    col = {tid: j for j, tid in enumerate(tids)}
    mask = np.zeros((len(triplets), len(tids)), dtype=bool)
    for batch in batches:
        own = [col[triplets[i].table_id] for i in batch]
        mask[np.ix_(batch, own)] = True
        mask[batch, own] = False
    rel = rel_scores(
        [t.data for t in triplets], [tables[tid] for tid in tids],
        band=NEG_BAND, max_len=NEG_MAX_LEN, mask=mask,
    )
    for batch in batches:
        ids = [triplets[i].table_id for i in batch]
        for i in batch:
            t = triplets[i]
            xs.append(model.match(t.query, table_encs[t.table_id]).features)
            ys.append(1.0)
            cand = [c for c in ids if c != t.table_id]
            if not cand:
                continue
            rels = rel[i, [col[c] for c in cand]]
            for idx in select_negatives(rels, n_neg, strategy, rng):
                xs.append(model.match(t.query, table_encs[cand[idx]]).features)
                ys.append(0.0)
    if not xs:
        raise ValueError("no training pairs produced")
    return np.vstack(xs), np.asarray(ys)


def fit_head(
    x: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int = EPOCHS,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
    seed: int = 0,
) -> TrainResult:
    """Gradient descent on the class-balanced NLL of Eq. (2).

    Features are standardized (the transform is baked into the returned
    head) — the raw matcher statistics span very different scales, and an
    unstandardized logistic fit undertrains the small-scale channels.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean = x.mean(axis=0)
    x_scale = x.std(axis=0)
    x_scale[x_scale < 1e-9] = 1.0
    x = (x - x_mean) / x_scale
    if x_val is not None:
        x_val = (np.asarray(x_val, dtype=np.float64) - x_mean) / x_scale
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(x.shape[1]) * 0.01
    b = 0.0
    sw = _class_weights(y)
    history: list[dict] = []
    for epoch in range(1, epochs + 1):
        p = sigmoid(x @ w + b)
        grad_z = sw * (p - y)
        w -= LR * (x.T @ grad_z + L2 * w)
        b -= LR * float(grad_z.sum())
        entry = {"epoch": epoch, "train_loss": _nll(p, y, sw)}
        if x_val is not None and y_val is not None and len(np.asarray(y_val)):
            pv = sigmoid(x_val @ w + b)
            entry["val_loss"] = _nll(pv, y_val, _class_weights(y_val))
            entry["val_acc"] = float(((pv > 0.5) == (y_val > 0.5)).mean())
        else:
            entry["val_loss"] = entry["train_loss"]
        history.append(entry)
    return TrainResult(
        head=LogisticHead(w=w, b=b, x_mean=x_mean, x_scale=x_scale),
        history=history,
    )


def train_model(
    model: FCMModel,
    triplets: list[Triplet],
    table_encs: dict[str, TableEncoding],
    tables: dict[str, LakeTable],
    *,
    n_neg: int = N_NEG,
    strategy: str = STRATEGY,
    epochs: int = EPOCHS,
    seed: int = 0,
) -> TrainResult:
    """End-to-end: sample negatives, split train/val, fit, install head."""
    x, y = build_training_set(
        model, triplets, table_encs, tables,
        n_neg=n_neg, strategy=strategy, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    idx = rng.permutation(len(y))
    n_val = int(len(y) * VAL_FRAC)
    val, tr = idx[:n_val], idx[n_val:]
    result = fit_head(
        x[tr], y[tr], epochs=epochs,
        x_val=x[val] if n_val else None,
        y_val=y[val] if n_val else None,
        seed=seed,
    )
    model.head = result.head
    return result


def _class_weights(y: np.ndarray) -> np.ndarray:
    """Eq. (2)'s class balance: each example weighs 1 / (size of its
    class)."""
    n_pos = max(1.0, float(y.sum()))
    n_neg = max(1.0, float((1 - y).sum()))
    return np.where(y > 0.5, 1.0 / n_pos, 1.0 / n_neg)


def _nll(p: np.ndarray, y: np.ndarray, sw: np.ndarray) -> float:
    eps = 1e-9
    return float(-(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))).sum())
