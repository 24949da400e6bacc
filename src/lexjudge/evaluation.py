"""Agreement and ranking metrics over judgment records.

Reliability is the mean pairwise Cohen's Kappa across repeated runs of the
same pairs; validity is Kappa against gold labels, reported per fact layer
(binary) and on the full four-level scale. Every kappa is read from one
ConfusionMatrix of the two label series. Ranking quality uses NDCG@k over
standard run files.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

from ._util import atomic_write_text, read_text
from .corpus import Qrels, gold_fact_flags
from .engine import JudgmentRecord
from .errors import DomainError, EmptyRunError, IntegrityError, MissingGoldError, ParseError

logger = logging.getLogger(__name__)


class DegenerateSeriesWarning(UserWarning):
    """Both raters were constant, on different classes.

    Observed and chance agreement are then both 0, so kappa reads 0.0, a
    value that says nothing about how the raters agree.
    """


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """counts[i][j] = items rater a put in classes[i] and rater b in classes[j].

    In a validity heatmap rater a is the judge and rater b is gold.
    """

    classes: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]

    def kappa(self) -> float:
        """Cohen's kappa: p_o from the diagonal, p_e from the row and column totals in class order.

        Degenerate conventions: both raters constant on the same class gives
        1.0; both constant on different classes (one nonzero cell, off the
        diagonal) gives 0.0 with a DegenerateSeriesWarning.
        """
        n = sum(map(sum, self.counts))
        p_o = sum(row[i] for i, row in enumerate(self.counts)) / n
        p_e = sum((sum(row) / n) * (sum(col) / n) for row, col in zip(self.counts, zip(*self.counts)))
        if p_e == 1.0:
            return 1.0
        if sum(1 for row in self.counts for v in row if v) == 1:
            message = "both raters are constant on different classes; returning 0.0"
            warnings.warn(message, DegenerateSeriesWarning, stacklevel=2)
            return 0.0
        return (p_o - p_e) / (1.0 - p_e)

    def to_csv(self) -> str:
        rows = [("", *self.classes), *((c, *row) for c, row in zip(self.classes, self.counts))]
        return "".join(",".join(map(str, row)) + "\n" for row in rows)


def confusion_matrix(a: Sequence[int], b: Sequence[int], classes: Sequence[int]) -> ConfusionMatrix:
    """The counts of the label pairs (a[i], b[i]), rows and columns in the order of classes."""
    if len(a) == 0 or len(a) != len(b):
        raise DomainError(f"label sequences must be non-empty and of equal length, got {len(a)} and {len(b)}")
    cells = Counter(zip(a, b))
    for x, y in cells:
        if x not in classes or y not in classes:
            raise DomainError(f"label outside classes {tuple(classes)}: ({x}, {y})")
    return ConfusionMatrix(
        classes=tuple(classes),
        counts=tuple(tuple(cells[x, y] for y in classes) for x in classes),
    )


def cohens_kappa(a: Sequence[int], b: Sequence[int]) -> float:
    """Cohen's kappa over the sorted union of observed classes (see ConfusionMatrix.kappa)."""
    return confusion_matrix(a, b, sorted(set(a) | set(b))).kappa()


def reliability_kappa(runs: Sequence[Sequence[int]]) -> tuple[float, list[tuple[int, int, float]]]:
    """Mean pairwise kappa across runs labelling the same items, plus every pair's value."""
    if len(runs) < 2:
        raise DomainError("reliability needs at least two runs")
    per_pair = [(i, j, cohens_kappa(runs[i], runs[j])) for i, j in combinations(range(len(runs)), 2)]
    mean = sum(k for _, _, k in per_pair) / len(per_pair)
    return mean, per_pair


def _ok_by_pair(records: Sequence[JudgmentRecord], source: str) -> dict[tuple[str, str], JudgmentRecord]:
    """A run's successful records by (query_id, candidate_id), failed ones logged and left out.

    A failed line and then an ok one for a pair is a resumed checkpoint; a
    pair judged ok twice raises IntegrityError naming it and source, the run.
    """
    ok: dict[tuple[str, str], JudgmentRecord] = {}
    for record in records:
        if record.status != "ok":
            continue
        pair = (record.query_id, record.candidate_id)
        if pair in ok:
            raise IntegrityError(f"{source} judges pair {pair!r} more than once")
        ok[pair] = record
    dropped = len(records) - len(ok)
    if dropped:
        logger.warning("excluding %d failed pair(s) from agreement metrics", dropped)
    return ok


# Each series kind: the value it reads from a successful record, and its
# classes; in report order.
_SERIES: dict[str, tuple[Callable[[JudgmentRecord], int], tuple[int, ...]]] = {
    "mf": (lambda r: int(r.mf_verdict.relevant), (0, 1)),
    "lf": (lambda r: int(r.lf_verdict.relevant), (0, 1)),
    "label": (lambda r: r.label, (0, 1, 2, 3)),
}


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
    records: Sequence[JudgmentRecord], qrels: Qrels, source: str = "run"
) -> tuple[dict, dict[str, str]]:
    """Kappa of judged labels against gold, per layer and on the full scale.

    Returns the report dict and the confusion heatmaps as CSV texts.
    Failed records are excluded (with a logged count); every remaining pair
    must carry a gold label. source names the run in a refusal, such as its file.
    """
    ok = _ok_by_pair(records, source)
    if not ok:
        raise DomainError("no successfully judged pairs to evaluate")
    gold_labels = [qrels.label(*pair) for pair in ok]
    if None in gold_labels:
        query_id, candidate_id = list(ok)[gold_labels.index(None)]
        raise MissingGoldError(f"no gold label for pair ({query_id!r}, {candidate_id!r})")
    flags = [gold_fact_flags(g) for g in gold_labels]
    gold_series = {"mf": [int(f.mf_relevant) for f in flags], "lf": [int(f.lf_relevant) for f in flags],
                   "label": gold_labels}
    matrices = {
        kind: confusion_matrix([value(r) for r in ok.values()], gold_series[kind], classes)
        for kind, (value, classes) in _SERIES.items()
    }
    report = {
        "kappa_mf": matrices["mf"].kappa(),
        "kappa_lf": matrices["lf"].kappa(),
        "kappa_4level": matrices["label"].kappa(),
        "pairs_compared": len(ok),
        "failed_excluded": len(records) - len(ok),
    }
    heatmaps = {f"heatmap_{name}": matrices[kind].to_csv()
                for name, kind in (("4x4", "label"), ("mf", "mf"), ("lf", "lf"))}
    return report, heatmaps


def build_reliability_report(
    records_per_run: Sequence[Sequence[JudgmentRecord]], sources: Sequence[str] | None = None
) -> dict:
    """Mean pairwise Kappa across runs for each series kind.

    Runs are restricted to the pairs every run judged successfully, so a
    failure in one run drops that pair everywhere. Runs must come from one
    configuration: records carrying more than one config_fingerprint raise
    IntegrityError naming each run's, since their agreement measures the
    change of configuration, not the judge's reliability. Runs must also
    hold distinct run ids: a run id held by two runs raises IntegrityError
    naming the runs that hold it, since the run number is the requests'
    sample index, so two such runs may share replies through a cache.
    sources names the runs in a refusal, such as by their files; by
    default "run 1", "run 2" and so on.
    """
    if len(records_per_run) < 2:
        raise DomainError("reliability needs at least two runs")
    sources = sources or [f"run {i}" for i in range(1, len(records_per_run) + 1)]
    fingerprints = [sorted({r.config_fingerprint for r in records}) for records in records_per_run]
    if len(set().union(*fingerprints)) > 1:
        each = "; ".join(f"{', '.join(held)} in {source}" for held, source in zip(fingerprints, sources) if held)
        raise IntegrityError(f"reliability needs runs of one configuration, got fingerprints {each}")
    ok_maps = [_ok_by_pair(records, source) for records, source in zip(records_per_run, sources)]
    holders: dict[str, list[str]] = {}
    for records, source in zip(records_per_run, sources):
        for run_id in sorted({r.run_id for r in records}):
            holders.setdefault(run_id, []).append(source)
    shared = "; ".join(f"{run_id} in {', '.join(held)}" for run_id, held in sorted(holders.items()) if len(held) > 1)
    if shared:
        raise IntegrityError(f"reliability needs runs of distinct run ids, got run id {shared}")
    order = sorted(set(ok_maps[0]).intersection(*ok_maps[1:]))
    if not order:
        raise DomainError("no pair was judged successfully in every run")
    report: dict = {"pairs_compared": len(order), "runs": len(records_per_run)}
    for kind, (value, _) in _SERIES.items():
        mean, per_pair = reliability_kappa([[value(m[pair]) for pair in order] for m in ok_maps])
        pairs = [{"run_a": i, "run_b": j, "kappa": k} for i, j, k in per_pair]
        report[f"kappa_{kind}"] = {"mean": mean, "pairs": pairs}
    return report
