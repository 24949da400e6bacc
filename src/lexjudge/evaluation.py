"""Agreement and ranking metrics over judgment records.

Reliability is the mean pairwise Cohen's Kappa across repeated runs of the
same pairs; validity is Kappa against gold labels, reported per fact layer
(binary) and on the full four-level scale. Ranking quality uses NDCG@k over
standard run files.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from ._util import atomic_write_text, read_text
from .corpus import Qrels, gold_fact_flags
from .engine import JudgmentRecord
from .errors import (
    AlignmentError,
    DomainError,
    EmptyRunError,
    IntegrityError,
    MissingGoldError,
    ParseError,
)

logger = logging.getLogger(__name__)


class DegenerateSeriesWarning(UserWarning):
    """Both raters were constant; chance agreement is undefined."""


@dataclass(frozen=True, slots=True)
class LabelSeries:
    """Labels for a fixed sequence of (query_id, candidate_id) items."""

    ids: tuple[tuple[str, str], ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.labels):
            raise DomainError("ids and labels must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise IntegrityError("label series repeats an item id")

    def __len__(self) -> int:
        return len(self.ids)


def _align(a: LabelSeries, b: LabelSeries) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(a) == 0 or len(b) == 0:
        raise DomainError("label series must be non-empty")
    if a.ids == b.ids:
        return a.labels, b.labels
    if set(a.ids) != set(b.ids):
        raise AlignmentError("label series cover different item sets")
    order = {item: i for i, item in enumerate(b.ids)}
    return a.labels, tuple(b.labels[order[item]] for item in a.ids)


def cohens_kappa(a: LabelSeries, b: LabelSeries) -> float:
    """Cohen's Kappa over the union of observed classes.

    Degenerate conventions: both raters constant on the same class gives
    1.0; both constant on different classes gives 0.0 with a warning.
    """
    labels_a, labels_b = _align(a, b)
    n = len(labels_a)
    classes = sorted(set(labels_a) | set(labels_b))
    p_o = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    p_e = sum(
        (labels_a.count(c) / n) * (labels_b.count(c) / n) for c in classes
    )
    if p_e == 1.0:
        return 1.0
    if len(set(labels_a)) == 1 and len(set(labels_b)) == 1:
        warnings.warn(
            "both raters are constant on different classes; returning 0.0",
            DegenerateSeriesWarning,
            stacklevel=2,
        )
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def reliability_kappa(runs: Sequence[LabelSeries]) -> tuple[float, list[tuple[int, int, float]]]:
    """Mean pairwise Kappa across aligned runs, plus every pair's value."""
    if len(runs) < 2:
        raise DomainError("reliability needs at least two runs")
    per_pair: list[tuple[int, int, float]] = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            per_pair.append((i, j, cohens_kappa(runs[i], runs[j])))
    mean = sum(k for _, _, k in per_pair) / len(per_pair)
    return mean, per_pair


def _ok_records(records: Sequence[JudgmentRecord]) -> list[JudgmentRecord]:
    ok = [r for r in records if r.status == "ok"]
    dropped = len(records) - len(ok)
    if dropped:
        logger.warning("excluding %d failed pair(s) from agreement metrics", dropped)
    return ok


# The value each series kind reads from a successful record, in report order.
_SERIES_VALUES: dict[str, Callable[[JudgmentRecord], int]] = {
    "mf": lambda r: int(r.mf_verdict.relevant),
    "lf": lambda r: int(r.lf_verdict.relevant),
    "label": lambda r: int(r.label),
}


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """counts[i][j] = items judged classes[i] whose gold label is classes[j]."""

    classes: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]

    def to_csv(self) -> str:
        header = "," + ",".join(str(c) for c in self.classes)
        rows = [
            f"{cls}," + ",".join(str(v) for v in row)
            for cls, row in zip(self.classes, self.counts)
        ]
        return "\n".join([header, *rows]) + "\n"


def confusion_matrix(a: LabelSeries, b: LabelSeries, classes: Sequence[int]) -> ConfusionMatrix:
    labels_a, labels_b = _align(a, b)
    index = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for x, y in zip(labels_a, labels_b):
        if x not in index or y not in index:
            raise DomainError(f"label outside classes {tuple(classes)}: ({x}, {y})")
        counts[index[x]][index[y]] += 1
    return ConfusionMatrix(
        classes=tuple(classes),
        counts=tuple(tuple(row) for row in counts),
    )


# ---------------------------------------------------------------------------
# run files and NDCG


@dataclass(frozen=True, slots=True)
class RunFile:
    """Per-query rankings: ordered (candidate_id, score) lists."""

    entries: dict[str, list[tuple[str, float]]]


def load_run(path: str | Path) -> RunFile:
    """Parse a standard six-column run file and check its ordering.

    Ranks must count up from 1 and scores must never increase within a
    query.
    """
    entries: dict[str, list[tuple[str, float]]] = {}
    expected_rank: dict[str, int] = {}
    last_score: dict[str, float] = {}
    seen: set[tuple[str, str]] = set()
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError("run line must have 6 columns", path=str(path), line=line_no)
        qid, _, cid, rank_s, score_s, _ = parts
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise ParseError("bad rank or score", path=str(path), line=line_no) from None
        if (qid, cid) in seen:
            raise IntegrityError(f"run repeats candidate {cid!r} for query {qid!r}")
        seen.add((qid, cid))
        want = expected_rank.get(qid, 1)
        if rank != want:
            raise IntegrityError(f"query {qid!r}: rank {rank} where {want} expected")
        expected_rank[qid] = want + 1
        if qid in last_score and score > last_score[qid]:
            raise IntegrityError(f"query {qid!r}: scores increase at rank {rank}")
        last_score[qid] = score
        entries.setdefault(qid, []).append((cid, score))
    if not entries:
        raise EmptyRunError(f"run file {path} holds no entries")
    return RunFile(entries=entries)


def save_run(path: str | Path, run: RunFile, tag: str = "lexjudge") -> None:
    lines = []
    for qid, ranking in run.entries.items():
        for rank, (cid, score) in enumerate(ranking, start=1):
            lines.append(f"{qid} Q0 {cid} {rank} {score:.6f} {tag}")
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True, slots=True)
class NdcgResult:
    mean: float
    per_query: dict[str, float]
    skipped: tuple[str, ...]


def _dcg(rels: Sequence[int]) -> float:
    return sum((2.0 ** rel - 1.0) / math.log2(i + 1) for i, rel in enumerate(rels, start=1))


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int) -> NdcgResult:
    """NDCG@k per query and its mean over scoreable queries.

    Candidates absent from the gold labels count as label 0. The ideal
    ordering ranks the query's gold labels descending. Queries whose ideal
    gain is zero are skipped and reported, not averaged as zeros.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not run.entries:
        raise EmptyRunError("run holds no queries")
    per_query: dict[str, float] = {}
    skipped: list[str] = []
    for qid, ranking in run.entries.items():
        if qid not in qrels.entries:
            raise MissingGoldError(f"run query {qid!r} has no gold labels")
        gold_row = qrels.entries[qid]
        rels = [gold_row.get(cid, 0) for cid, _ in ranking[:k]]
        ideal = sorted(gold_row.values(), reverse=True)[:k]
        idcg = _dcg(ideal)
        if idcg == 0.0:
            skipped.append(qid)
            continue
        per_query[qid] = _dcg(rels) / idcg
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return NdcgResult(mean=mean, per_query=per_query, skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# report assembly


def build_validity_report(
    records: Sequence[JudgmentRecord], qrels: Qrels
) -> tuple[dict, dict[str, str]]:
    """Kappa of judged labels against gold, per layer and on the full scale.

    Returns the report dict and the confusion heatmaps as CSV texts.
    Failed records are excluded (with a logged count); every remaining pair
    must carry a gold label.
    """
    ok = _ok_records(records)
    if not ok:
        raise DomainError("no successfully judged pairs to evaluate")
    ids = []
    gold_labels = []
    for record in ok:
        gold = qrels.label(record.query_id, record.candidate_id)
        if gold is None:
            raise MissingGoldError(
                f"no gold label for pair ({record.query_id!r}, {record.candidate_id!r})"
            )
        ids.append((record.query_id, record.candidate_id))
        gold_labels.append(gold)
    id_tuple = tuple(ids)
    gold_flags = [gold_fact_flags(g) for g in gold_labels]
    gold = {
        "mf": tuple(int(f.mf_relevant) for f in gold_flags),
        "lf": tuple(int(f.lf_relevant) for f in gold_flags),
        "label": tuple(gold_labels),
    }
    series = {
        kind: (LabelSeries(id_tuple, tuple(map(value, ok))), LabelSeries(id_tuple, gold[kind]))
        for kind, value in _SERIES_VALUES.items()
    }
    report = {
        "kappa_mf": cohens_kappa(*series["mf"]),
        "kappa_lf": cohens_kappa(*series["lf"]),
        "kappa_4level": cohens_kappa(*series["label"]),
        "pairs_compared": len(ok),
        "failed_excluded": len(records) - len(ok),
    }
    heatmaps = {
        "heatmap_4x4": confusion_matrix(*series["label"], (0, 1, 2, 3)).to_csv(),
        "heatmap_mf": confusion_matrix(*series["mf"], (0, 1)).to_csv(),
        "heatmap_lf": confusion_matrix(*series["lf"], (0, 1)).to_csv(),
    }
    return report, heatmaps


def build_reliability_report(records_per_run: Sequence[Sequence[JudgmentRecord]]) -> dict:
    """Mean pairwise Kappa across runs for each series kind.

    Runs are restricted to the pairs every run judged successfully, so a
    failure in one run drops that pair everywhere. Runs must come from one
    configuration: records carrying more than one config_fingerprint raise
    IntegrityError naming them, since their agreement measures the change
    of configuration, not the judge's reliability.
    """
    if len(records_per_run) < 2:
        raise DomainError("reliability needs at least two runs")
    fingerprints = sorted({r.config_fingerprint for records in records_per_run for r in records})
    if len(fingerprints) > 1:
        raise IntegrityError(f"reliability needs runs of one configuration, got fingerprints {', '.join(fingerprints)}")
    ok_maps = []
    for records in records_per_run:
        ok = _ok_records(records)
        ok_maps.append({(r.query_id, r.candidate_id): r for r in ok})
    common = set(ok_maps[0])
    for m in ok_maps[1:]:
        common &= set(m)
    if not common:
        raise DomainError("no pair was judged successfully in every run")
    order = sorted(common)
    report: dict = {"pairs_compared": len(order), "runs": len(records_per_run)}
    for kind, value in _SERIES_VALUES.items():
        series = [
            LabelSeries(tuple(order), tuple(value(m[pair]) for pair in order))
            for m in ok_maps
        ]
        mean, per_pair = reliability_kappa(series)
        report[f"kappa_{kind}"] = {
            "mean": mean,
            "pairs": [{"run_a": i, "run_b": j, "kappa": k} for i, j, k in per_pair],
        }
    return report
