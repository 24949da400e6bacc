"""Case corpus: records, candidate pools, gold labels, ingestion.

A corpus is one JSONL file of cases (query cases and candidate cases live
in the same store), one JSON file of candidate pools, and optionally one
JSON file of graded labels. All text is normalized to NFC at ingest and
never lowercased.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ._util import read_json, read_jsonl
from .errors import DomainError, IntegrityError, ParseError

logger = logging.getLogger(__name__)

LABELS = (0, 1, 2, 3)


@dataclass(frozen=True, slots=True)
class Case:
    """One legal case: its identifier and the fact paragraph every pipeline stage reads."""

    id: str
    fact_text: str


@dataclass(frozen=True, slots=True)
class CandidatePool:
    query_id: str
    candidate_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class FactFlags:
    """Binary relevance of the two fact layers; label = 1*mf + 2*lf."""

    mf_relevant: bool
    lf_relevant: bool

    @property
    def label(self) -> int:
        return (1 if self.mf_relevant else 0) + (2 if self.lf_relevant else 0)


def gold_fact_flags(label: int) -> FactFlags:
    """Invert a graded label into its per-layer flags (bijective on 0..3)."""
    if label not in LABELS:
        raise DomainError(f"label must be one of {LABELS}, got {label!r}")
    return FactFlags(mf_relevant=bool(label & 1), lf_relevant=bool(label & 2))


def aggregate_label(mf_relevant: bool, lf_relevant: bool) -> int:
    """Combine layer verdicts into the graded label (inverse of gold_fact_flags)."""
    return FactFlags(mf_relevant, lf_relevant).label


class CaseStore:
    """Immutable mapping of case id to Case with insertion order preserved."""

    def __init__(self, cases: Iterable[Case]):
        self._cases: dict[str, Case] = {}
        for case in cases:
            if case.id in self._cases:
                raise IntegrityError(f"duplicate case id {case.id!r}")
            self._cases[case.id] = case

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._cases

    def __iter__(self) -> Iterator[Case]:
        return iter(self._cases.values())

    def ids(self) -> list[str]:
        return list(self._cases)

    def get(self, case_id: str) -> Case:
        try:
            return self._cases[case_id]
        except KeyError:
            raise IntegrityError(f"unknown case id {case_id!r}") from None


class Qrels:
    """Graded gold labels keyed by (query_id, candidate_id)."""

    def __init__(self, entries: Mapping[str, Mapping[str, int]]):
        self._entries: dict[str, dict[str, int]] = {}
        for qid, row in entries.items():
            for cid, label in row.items():
                if label not in LABELS:
                    raise DomainError(f"label for ({qid!r}, {cid!r}) must be in {LABELS}, got {label!r}")
            self._entries[qid] = dict(row)

    @property
    def entries(self) -> dict[str, dict[str, int]]:
        return self._entries

    def label(self, query_id: str, candidate_id: str) -> int | None:
        return self._entries.get(query_id, {}).get(candidate_id)

    def __len__(self) -> int:
        return sum(len(row) for row in self._entries.values())


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def validate_case(case: Case) -> list[str]:
    """Return human-readable constraint violations; empty list means valid."""
    problems: list[str] = []
    if not case.id:
        problems.append("id is empty")
    if not case.fact_text or not case.fact_text.strip():
        problems.append("fact_text is empty")
    return problems


def case_from_record(record: Mapping[str, object], *, path: str | None = None, line: int | None = None) -> Case:
    """Build a Case from one canonical JSONL record's id and fact_text, normalized to NFC; other keys are ignored."""
    try:
        case = Case(id=_nfc(str(record["id"])), fact_text=_nfc(str(record["fact_text"])))
    except KeyError as exc:
        raise ParseError(f"case record missing key {exc}", path=path, line=line) from None
    problems = validate_case(case)
    if problems:
        raise ParseError("invalid case: " + "; ".join(problems), path=path, line=line)
    return case


def load_cases(path: str | Path) -> CaseStore:
    path = Path(path)
    return CaseStore(case_from_record(rec, path=str(path), line=ln) for ln, rec in read_jsonl(path))


def load_pools(path: str | Path, store: CaseStore) -> list[CandidatePool]:
    path = Path(path)
    raw = read_json(path, list, "pools file")
    pools: list[CandidatePool] = []
    seen_queries: set[str] = set()
    for i, entry in enumerate(raw):
        if not (isinstance(entry, dict) and "query_id" in entry and isinstance(entry.get("candidate_ids"), list)):
            raise ParseError(f"pool #{i} must carry query_id and a candidate_ids array", path=str(path))
        qid = _nfc(str(entry["query_id"]))
        cids = [_nfc(str(c)) for c in entry["candidate_ids"]]
        if qid in seen_queries:
            raise IntegrityError(f"duplicate pool for query {qid!r}")
        seen_queries.add(qid)
        if qid not in store:
            raise IntegrityError(f"pool query id {qid!r} not in case store")
        if len(set(cids)) != len(cids):
            raise IntegrityError(f"pool for query {qid!r} repeats a candidate id")
        for cid in cids:
            if cid not in store:
                raise IntegrityError(f"pool candidate id {cid!r} not in case store")
        pools.append(CandidatePool(query_id=qid, candidate_ids=tuple(cids)))
    return pools


def load_qrels(path: str | Path, store: CaseStore | None = None) -> Qrels:
    path = Path(path)
    raw = read_json(path, dict, "qrels file")
    entries: dict[str, dict[str, int]] = {}
    for qid, row in raw.items():
        if not isinstance(row, dict):
            raise ParseError(f"qrels for query {qid!r} must be an object", path=str(path))
        qid = _nfc(str(qid))
        if store is not None and qid not in store:
            raise IntegrityError(f"qrels query id {qid!r} not in case store")
        entries[qid] = {}
        for cid, label in row.items():
            cid = _nfc(str(cid))
            if store is not None and cid not in store:
                raise IntegrityError(f"qrels candidate id {cid!r} not in case store")
            if not isinstance(label, int) or isinstance(label, bool):
                raise ParseError(f"label for ({qid!r}, {cid!r}) must be an integer", path=str(path))
            entries[qid][cid] = label
    return Qrels(entries)


def ingest_corpus(
    cases_path: str | Path,
    pools_path: str | Path,
    qrels_path: str | Path | None = None,
) -> tuple[CaseStore, list[CandidatePool], Qrels | None]:
    """Load and cross-validate a corpus.

    Every id referenced by a pool or a qrels entry must resolve to a case.
    A qrels entry for a candidate outside its query's pool is legal and
    only logged as a warning.
    """
    store = load_cases(cases_path)
    pools = load_pools(pools_path, store)
    qrels: Qrels | None = None
    if qrels_path is not None:
        qrels = load_qrels(qrels_path, store)
        pool_by_query = {p.query_id: set(p.candidate_ids) for p in pools}
        for qid, row in qrels.entries.items():
            pool = pool_by_query.get(qid)
            if pool is None:
                logger.warning("qrels query %s has no candidate pool", qid)
                continue
            outside = sorted(set(row) - pool)
            if outside:
                logger.warning(
                    "qrels for query %s label %d candidate(s) outside its pool: %s",
                    qid, len(outside), ", ".join(outside[:5]),
                )
    return store, pools, qrels
