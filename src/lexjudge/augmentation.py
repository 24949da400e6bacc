"""Synthetic dataset construction from judged case pairs.

The flow mirrors a funnel: sample pairs uniformly from the corpus, keep the
lexically closest slice, judge that slice with checkpointed progress, then
assemble training sets whose label histogram either matches a target
distribution (largest-remainder quotas) or is left to chance.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from ._util import OnceMemo, atomic_write_lines, atomic_write_text, read_json, read_jsonl
from .corpus import LABELS, Case, CaseStore, _nfc
from .engine import SYSTEM_TEXT, JudgeEngine, JudgmentRecord, judge_to_file
from .errors import (
    DomainError,
    ExhaustedError,
    InsufficientLabelError,
    IntegrityError,
    ParseError,
    ScorerError,
)
from .gateway import FACTS_BEGIN, FACTS_END, VERDICT_IRRELEVANT, VERDICT_RELEVANT
from .retrieval import bm25_score, build_bm25_index, rank_by_score, tokenize

logger = logging.getLogger(__name__)

DATASET_MODES = ("distribution_matched", "random")
EXPORT_FORMATS = ("label_only", "rationale")


@dataclass(frozen=True, slots=True)
class CasePair:
    """Unordered case pair stored canonically with left_id < right_id."""

    left_id: str
    right_id: str

    def __post_init__(self) -> None:
        if self.left_id >= self.right_id:
            raise DomainError(
                f"pair must be canonical (left < right), got ({self.left_id!r}, {self.right_id!r})"
            )

    def key(self) -> tuple[str, str]:
        return (self.left_id, self.right_id)


def _unrank_pair(r: int, n: int, total: int) -> tuple[int, int]:
    # Smallest m with C(m, 2) >= total - r gives the first index as n - m.
    s = total - r
    m = (1 + math.isqrt(1 + 8 * s)) // 2
    while m * (m - 1) // 2 < s:
        m += 1
    while (m - 1) * (m - 2) // 2 >= s:
        m -= 1
    i = n - m
    offset = r - (total - m * (m - 1) // 2)
    return i, i + 1 + offset


def sample_pairs(store: CaseStore, n: int, seed: int) -> list[CasePair]:
    """Sample n distinct unordered pairs uniformly from all C(|store|, 2).

    Deterministic in (store ids, n, seed) and independent of file order
    because ids are sorted before unranking.
    """
    if n < 0:
        raise DomainError("sample size must be >= 0")
    ids = sorted(store.ids())
    total = len(ids) * (len(ids) - 1) // 2
    if n > total:
        raise ExhaustedError(f"asked for {n} pairs but only {total} exist")
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), n))
    pairs = []
    for r in picks:
        i, j = _unrank_pair(r, len(ids), total)
        pairs.append(CasePair(ids[i], ids[j]))
    return pairs


def save_pairs(path: str | Path, pairs: Sequence[CasePair]) -> None:
    atomic_write_text(
        path,
        json.dumps([[p.left_id, p.right_id] for p in pairs], ensure_ascii=False) + "\n",
    )


def load_pairs(path: str | Path) -> list[CasePair]:
    path = Path(path)
    raw = read_json(path, list, "pairs file")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"pair #{i} must be a two-item array", path=str(path))
        pairs.append(CasePair(_nfc(str(item[0])), _nfc(str(item[1]))))
    return pairs


class PairScorer(Protocol):
    def score(self, left: Case, right: Case) -> float: ...


def _query_and_row(tokenizer_mode: str, k1: float, b: float, text: str) -> tuple[list[str], dict[str, float]]:
    tokens = list(map(sys.intern, tokenize(text, tokenizer_mode)))
    return tokens, build_bm25_index({text: tokens}, k1, b)[text]


class Bm25PairScorer:
    """Default pre-ranker: the left facts scored by BM25 against the right facts alone.

    Each pair is scored with bm25_score over a one-document index that
    holds only the right case. With one document, idf is the same constant
    for every term and the length norm cancels to k1, so the score is a
    saturated count of left tokens that occur in the right text, not corpus
    BM25 (the ROADMAP item "Prerank as real BM25" proposes one index).

    Each distinct fact text is tokenized once. The scorer's OnceMemo
    holds, per text, its interned tokens (the query role) and the row of
    build_bm25_index over that text alone (the document role). A text
    whose tokenization fails leaves no entry. The memo lives as long as
    the scorer and holds every text it has scored; the CLI builds one
    scorer per `augment prerank`, which bounds it by the cases of one
    pairs file.
    """

    def __init__(self, tokenizer_mode: str = "cjk_bigram", k1: float = 1.2, b: float = 0.75):
        if k1 < 0 or not 0 <= b <= 1:
            raise DomainError(f"bad BM25 parameters k1={k1} b={b}")
        self._memo = OnceMemo(partial(_query_and_row, tokenizer_mode, k1, b))

    def score(self, left: Case, right: Case) -> float:
        return bm25_score(self._memo[right.fact_text][1], self._memo[left.fact_text][0])


def prerank_pairs(
    pairs: Sequence[CasePair],
    store: CaseStore,
    scorer: PairScorer,
    top_n: int,
) -> list[CasePair]:
    """Keep the top_n highest-scoring pairs; ties break on the pair key.

    When pairs must be cut and every score is 0.0, the kept pairs are
    simply the first by pair key, so a warning is logged.
    """
    if top_n < 0:
        raise DomainError("top_n must be >= 0")
    scored = []
    for pair in pairs:
        try:
            value = scorer.score(store.get(pair.left_id), store.get(pair.right_id))
        except Exception as exc:
            raise ScorerError(f"scorer failed on pair {pair.key()}: {exc}") from exc
        scored.append((pair, value))
    if 0 < top_n < len(scored) and not any(value for _, value in scored):
        logger.warning(
            "all %d pairs scored 0.0, so the %d kept are the first by pair key; "
            "a tokenizer mode that does not split the fact texts scores nothing",
            len(scored),
            top_n,
        )
    return [pair for pair, _ in rank_by_score(scored, CasePair.key)[:top_n]]


def annotate_pairs(
    engine: JudgeEngine,
    store: CaseStore,
    pairs: Sequence[CasePair],
    checkpoint_path: str | Path,
) -> list[JudgmentRecord]:
    """Judge each pair once, checkpointing progress per finished pair (see engine.judge_to_file)."""
    return judge_to_file(engine, store, [pair.key() for pair in pairs], checkpoint_path)


def parse_distribution(raw: object) -> dict[int, float]:
    """{int label: float share} from a parsed JSON object; DomainError on any other input."""
    if not isinstance(raw, Mapping):
        raise DomainError(f"distribution must be an object of label shares, got {type(raw).__name__}")
    try:
        return {int(label): float(share) for label, share in raw.items()}
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad distribution entry: {exc}") from None


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Recipe for one training set build."""

    name: str
    size: int
    mode: str
    distribution: Mapping[int, float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("dataset name must be non-empty")
        if self.size < 1:
            raise DomainError("dataset size must be >= 1")
        if self.mode not in DATASET_MODES:
            raise DomainError(f"mode must be one of {DATASET_MODES}, got {self.mode!r}")
        if self.mode == "distribution_matched":
            if not self.distribution:
                raise DomainError("distribution_matched mode needs a distribution")
            for label, share in self.distribution.items():
                if label not in LABELS:
                    raise DomainError(f"distribution label {label!r} outside {LABELS}")
                if not 0 <= share <= 1:  # also false for NaN
                    raise DomainError(f"distribution share for {label} must be in [0, 1], got {share}")
            total = sum(self.distribution.values())
            if abs(total - 1.0) > 1e-6:
                raise DomainError(f"distribution must sum to 1, got {total}")

    def to_dict(self) -> dict:
        """The spec sidecar's fields; distribution labels become JSON keys."""
        return {
            "name": self.name,
            "size": self.size,
            "mode": self.mode,
            "distribution": {str(k): v for k, v in (self.distribution or {}).items()} or None,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: Mapping, path: str | Path) -> "DatasetSpec":
        """Rebuild a spec from its sidecar at path; ParseError naming it on any bad field."""
        for key, kind in (("name", str), ("size", int), ("mode", str), ("seed", int)):
            if key not in raw:
                raise ParseError(f"spec sidecar missing key {key!r}", path=str(path))
            if isinstance(raw[key], bool) or not isinstance(raw[key], kind):
                what = "a string" if kind is str else "an integer"
                raise ParseError(f"spec sidecar field {key!r} must be {what}", path=str(path))
        distribution = raw.get("distribution")
        try:
            if distribution:
                distribution = parse_distribution(distribution)
            return cls(raw["name"], raw["size"], raw["mode"], distribution or None, raw["seed"])
        except DomainError as exc:
            raise ParseError(f"bad spec sidecar: {exc}", path=str(path)) from None


def largest_remainder_quotas(size: int, distribution: Mapping[int, float]) -> dict[int, int]:
    """Integer quotas summing exactly to size, by the largest-remainder rule."""
    exact = {label: size * share for label, share in distribution.items()}
    quotas = {label: int(math.floor(v)) for label, v in exact.items()}
    remaining = size - sum(quotas.values())
    by_remainder = sorted(
        distribution, key=lambda label: (-(exact[label] - quotas[label]), label)
    )
    for label in by_remainder[:remaining]:
        quotas[label] += 1
    return quotas


def build_dataset(annotated: Sequence[JudgmentRecord], spec: DatasetSpec) -> list[JudgmentRecord]:
    """Select records for a training set; failed annotations never qualify.

    Selection draws from label pools sorted by pair key, so the result
    depends only on the annotated set and the seed, not on input order.
    """
    ok = sorted(
        (r for r in annotated if r.status == "ok"),
        key=lambda r: (r.query_id, r.candidate_id),
    )
    rng = random.Random(spec.seed)
    if spec.mode == "random":
        if spec.size > len(ok):
            raise ExhaustedError(f"asked for {spec.size} records but only {len(ok)} are usable")
        chosen = rng.sample(ok, spec.size)
    else:
        assert spec.distribution is not None
        quotas = largest_remainder_quotas(spec.size, spec.distribution)
        pools: dict[int, list[JudgmentRecord]] = {label: [] for label in quotas}
        for record in ok:
            if record.label in pools:
                pools[record.label].append(record)
        chosen = []
        for label in sorted(quotas):
            quota = quotas[label]
            pool = pools[label]
            if len(pool) < quota:
                raise InsufficientLabelError(label, quota - len(pool))
            chosen.extend(rng.sample(pool, quota))
    return sorted(chosen, key=lambda r: (r.query_id, r.candidate_id))


def _rationale_assistant_text(record: JudgmentRecord) -> str:
    mf_q, mf_c = record.mf_extractions
    lf_q, lf_c = record.lf_extractions
    parts = [
        f"Case A material facts:\n{FACTS_BEGIN}\n{mf_q.text}\n{FACTS_END}",
        f"Case B material facts:\n{FACTS_BEGIN}\n{mf_c.text}\n{FACTS_END}",
        f"Case A legal facts:\n{FACTS_BEGIN}\n{lf_q.text}\n{FACTS_END}",
        f"Case B legal facts:\n{FACTS_BEGIN}\n{lf_c.text}\n{FACTS_END}",
        "Material fact comparison: " + record.mf_verdict.reasoning,
        VERDICT_RELEVANT if record.mf_verdict.relevant else VERDICT_IRRELEVANT,
        "Legal fact comparison: " + record.lf_verdict.reasoning,
        VERDICT_RELEVANT if record.lf_verdict.relevant else VERDICT_IRRELEVANT,
        f"Overall relevance label: {record.label}",
    ]
    return "\n".join(parts)


def _export_row(record: JudgmentRecord, fmt: str, store: CaseStore) -> dict:
    query = store.get(record.query_id)
    cand = store.get(record.candidate_id)
    if fmt == "label_only":
        return {
            "query_id": record.query_id,
            "cand_id": record.candidate_id,
            "query_text": query.fact_text,
            "cand_text": cand.fact_text,
            "label": record.label,
        }
    return {
        "messages": [
            {"role": "system", "content": SYSTEM_TEXT},
            {
                "role": "user",
                "content": (
                    "Case A facts:\n" + query.fact_text + "\n\nCase B facts:\n"
                    + cand.fact_text + "\n\nExtract both layers of facts, compare "
                    "them, and state the graded relevance of case B to case A."
                ),
            },
            {"role": "assistant", "content": _rationale_assistant_text(record)},
        ],
        "label": record.label,
    }


def export_dataset(
    dataset: Sequence[JudgmentRecord],
    fmt: str,
    out_path: str | Path,
    store: CaseStore,
    spec: DatasetSpec | None = None,
    compare_path: str | Path | None = None,
) -> dict:
    """Write the dataset as JSONL plus a manifest; returns the manifest.

    label_only rows carry the pair texts and the graded label; rationale
    rows are chat-style with the full staged reasoning as the assistant
    turn. The manifest lands next to the dataset with a .manifest.json
    suffix and records the content hash, so two identical builds are
    byte-comparable. Every check, the compare file's read included, runs
    before the dataset is written, so bad input leaves no dataset file.
    """
    if fmt not in EXPORT_FORMATS:
        raise DomainError(f"format must be one of {EXPORT_FORMATS}, got {fmt!r}")
    for record in dataset:
        if record.status != "ok":
            raise DomainError(
                f"cannot export failed pair ({record.query_id!r}, {record.candidate_id!r})"
            )
    fingerprints = {r.config_fingerprint for r in dataset}
    if len(fingerprints) > 1:
        raise IntegrityError("dataset mixes records from different configurations")
    overlap = None
    if compare_path is not None:
        keys = {(r.query_id, r.candidate_id) for r in dataset}
        overlap = len(keys & _read_record_keys(Path(compare_path)))
    out_path = Path(out_path)
    digest = hashlib.sha256()

    def lines():
        for record in dataset:
            line = json.dumps(_export_row(record, fmt, store), ensure_ascii=False) + "\n"
            digest.update(line.encode("utf-8"))
            yield line

    atomic_write_lines(out_path, lines())
    histogram = {str(label): 0 for label in LABELS}
    for record in dataset:
        histogram[str(record.label)] += 1
    manifest = {
        "name": spec.name if spec else out_path.stem,
        "size": len(dataset),
        "mode": spec.mode if spec else None,
        "seed": spec.seed if spec else None,
        "format": fmt,
        "histogram": histogram,
        "config_fingerprint": next(iter(fingerprints)) if fingerprints else None,
        "sha256": digest.hexdigest(),
    }
    if overlap is not None:
        manifest["overlap_with_compare"] = overlap
    atomic_write_text(
        out_path.with_name(out_path.name + ".manifest.json"),
        json.dumps(manifest, ensure_ascii=False, indent=2) + "\n",
    )
    return manifest


def _read_record_keys(path: Path) -> set[tuple[str, str]]:
    # Accepts any JSONL whose rows carry query_id plus candidate_id or cand_id.
    keys = set()
    for _, row in read_jsonl(path):
        cand = row.get("candidate_id", row.get("cand_id"))
        if "query_id" in row and cand is not None:
            keys.add((row["query_id"], cand))
    return keys
