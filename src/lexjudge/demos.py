"""Expert demonstration store with adaptive matching.

Demonstrations live in four sets keyed by (stage, fact type). select
picks the top-k lexically closest demonstrations to the stage input by
BM25 over each set; the ablated variant samples uniformly instead, seeded
per call site so results do not depend on evaluation order.
"""

from __future__ import annotations

import hashlib
import json
import random
import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from ._util import OnceMemo, read_json
from .errors import EmptySetError, IntegrityError, ParseError
from .retrieval import build_bm25_index, tokenize, top_k_rank


class Stage(str, Enum):
    FE = "FE"  # fact extraction
    FA = "FA"  # fact annotation


class FactType(str, Enum):
    MF = "MF"  # material facts
    LF = "LF"  # legal facts


POLARITIES = ("relevant", "irrelevant")


@dataclass(frozen=True, slots=True)
class Demonstration:
    """One worked example: stage input paired with its exemplar output.

    polarity is required for annotation demos (relevant or irrelevant
    pair) and must be absent for extraction demos. A demo hashes by its
    id, which is unique within a library; equality compares every field.
    """

    id: str
    stage: Stage
    fact_type: FactType
    input_text: str
    exemplar_output: str
    polarity: str | None = None

    def __hash__(self) -> int:
        return hash(self.id)


# A set's demos best first, their scores, and its groups (see _groups) in that order.
Ranking = tuple[tuple[Demonstration, ...], tuple[float, ...], tuple[tuple[Demonstration, ...], ...]]


# The ranking memo's bound, in ranked demonstrations over all its entries:
# a few MiB, however many distinct queries a library serves.
RANKED_DEMOS_LIMIT = 1 << 15


def _index_terms(vocab: dict[str, str], tokenizer_mode: str, text: str) -> tuple[str, ...]:
    """The tokens of text that are index terms, in order, as vocab's strings."""
    return tuple(filter(None, map(vocab.get, tokenize(text, tokenizer_mode))))


class DemoLibrary:
    """Four demonstration sets, each with its own BM25 index.

    The library memoizes, per distinct query text, the text's tokens that
    occur in any set's index, in order, for the lifetime of the library;
    a text is tokenized at most once per library. Only those terms can
    score, and a term absent from a set's rows adds nothing there, so
    ranking them equals ranking every token. The four indexes and the
    memoized terms share one string per term.

    It also memoizes each set's ranking per (stage, fact type, query
    terms), the terms being what top_k_rank is given, so queries with one
    term sequence are ranked once per library. An entry is three tuples,
    which no caller can change: the set's demonstrations best first, their
    scores, and the groups select cuts from (see _groups) in ranked order.
    Kept as tuples rather than one pair per demo, an entry adds a few
    objects for the cycle collector to scan, not one per demo. The memo
    keeps at most RANKED_DEMOS_LIMIT ranked demos over all its rankings;
    past that, rankings are computed afresh and not kept. The groups in id
    order, which select draws from without a query, are made on first use.

    content_sha256 is the sha256 of every demo's fields in id order,
    taken once at construction, so a run's fingerprint can cover the
    library's content.
    """

    def __init__(
        self,
        demos: Iterable[Demonstration],
        *,
        tokenizer_mode: str = "cjk_bigram",
        k1: float = 1.2,
        b: float = 0.75,
    ):
        self.tokenizer_mode = tokenizer_mode
        self.k1 = k1
        self.b = b
        self._sets: dict[tuple[Stage, FactType], list[Demonstration]] = {
            (s, f): [] for s in Stage for f in FactType
        }
        self._by_id: dict[str, Demonstration] = {}
        for demo in demos:
            if demo.id in self._by_id:
                raise IntegrityError(f"duplicate demonstration id {demo.id!r}")
            self._by_id[demo.id] = demo
            if not demo.input_text.strip() or not demo.exemplar_output.strip():
                raise IntegrityError(f"demonstration {demo.id!r} has empty text")
            if demo.stage is Stage.FA:
                if demo.polarity not in POLARITIES:
                    raise IntegrityError(
                        f"annotation demo {demo.id!r} needs polarity in {POLARITIES}"
                    )
            elif demo.polarity is not None:
                raise IntegrityError(f"extraction demo {demo.id!r} must not carry polarity")
            self._sets[(demo.stage, demo.fact_type)].append(demo)
        for fact_type in FactType:
            fa_set = self._sets[(Stage.FA, fact_type)]
            for polarity in POLARITIES:
                if fa_set and not any(d.polarity == polarity for d in fa_set):
                    raise IntegrityError(
                        f"FA/{fact_type.value} set has no {polarity} demonstration"
                    )
        fields = [
            [d.id, d.stage.value, d.fact_type.value, d.input_text, d.exemplar_output, d.polarity]
            for _, d in sorted(self._by_id.items())
        ]
        self.content_sha256 = hashlib.sha256(json.dumps(fields, ensure_ascii=False).encode("utf-8")).hexdigest()
        vocab: dict[str, str] = {}
        self._indexes: dict[tuple[Stage, FactType], dict[str, dict[str, float]]] = {}
        for key, demo_list in self._sets.items():
            if demo_list:
                tokens = {d.id: tokenize(d.input_text, tokenizer_mode) for d in demo_list}
                docs = {doc_id: [vocab.setdefault(t, t) for t in doc] for doc_id, doc in tokens.items()}
                self._indexes[key] = build_bm25_index(docs, k1=k1, b=b)
        self._terms = OnceMemo(partial(_index_terms, vocab, tokenizer_mode))
        # Over the indexes, not self, so that library and memo form no reference cycle.
        largest = max(1, *map(len, self._sets.values()))
        self._rankings = OnceMemo(partial(_rank, self._indexes, self._by_id), limit=RANKED_DEMOS_LIMIT // largest)

    def counts(self) -> dict[str, int]:
        return {f"{s.value}_{f.value}": len(v) for (s, f), v in self._sets.items()}

    def __len__(self) -> int:
        return sum(len(v) for v in self._sets.values())

    @cached_property
    def _id_groups(self) -> dict[tuple[Stage, FactType], tuple[tuple[Demonstration, ...], ...]]:
        """Each set's groups (see _groups) in id order, which select draws from without a query."""
        return {key: _groups(key[0], sorted(demos, key=attrgetter("id"))) for key, demos in self._sets.items()}

    def _set(self, stage: Stage, fact_type: FactType) -> list[Demonstration]:
        demos = self._sets[stage, fact_type]
        if not demos:
            raise EmptySetError(f"no demonstrations for {stage.value}/{fact_type.value}")
        return demos

    def _ranked(self, x: str | tuple[str, str], stage: Stage, fact_type: FactType) -> Ranking:
        """Every demo of the set, best first, its BM25 score against x, and the set's groups so ranked."""
        self._set(stage, fact_type)
        # tokenize(f"{a}\n{b}") is a's tokens, then b's.
        query = self._terms[x] if isinstance(x, str) else self._terms[x[0]] + self._terms[x[1]]
        return self._rankings[stage, fact_type, query]


def _groups(stage: Stage, demos: Sequence[Demonstration]) -> tuple[tuple[Demonstration, ...], ...]:
    """What select cuts from, in demos' order: all of an FE set; an FA set's relevant, then irrelevant demos."""
    if stage is Stage.FE:
        return (tuple(demos),)
    return tuple(tuple(d for d in demos if d.polarity == p) for p in POLARITIES)


def _rank(
    indexes: dict[tuple[Stage, FactType], dict[str, dict[str, float]]],
    by_id: dict[str, Demonstration],
    key: tuple[Stage, FactType, tuple[str, ...]],
) -> Ranking:
    """A whole set ranked by top_k_rank against one query term sequence, and its groups."""
    stage, fact_type, query = key
    rows = indexes[stage, fact_type]
    ranked = top_k_rank(rows, query, len(rows))
    demos = tuple(by_id[doc_id] for doc_id, _ in ranked)
    return demos, tuple(score for _, score in ranked), _groups(stage, demos)


def select(
    library: DemoLibrary, stage: Stage, fact_type: FactType, k: int,
    x: str | tuple[str, str] | None = None, *, seed: int = 0, call_key: str = "",
) -> list[Demonstration]:
    """The demonstrations of one stage call: k for an FE set, k of each polarity for an FA set.

    An FA selection lists its relevant demos, then its irrelevant ones. A
    group smaller than k gives all its demos.

    Given x, a text or a pair's two fact texts (which rank as the texts
    joined by a newline), each group is the first k of the library's
    memoized BM25 ranking against x: descending score, ties by ascending
    demo id. Without x, each group, in id order, is sampled uniformly by an
    RNG derived from (seed, call_key, stage, fact type[, polarity]), so a
    draw is reproducible per call site and independent of scheduling.
    """
    picked: list[Demonstration] = []
    if x is not None:
        for group in library._ranked(x, stage, fact_type)[2]:
            picked += group[:k]
        return picked
    library._set(stage, fact_type)
    polarity_parts = [()] if stage is Stage.FE else [(p,) for p in POLARITIES]
    for polarity_part, group in zip(polarity_parts, library._id_groups[stage, fact_type]):
        key = "\x1f".join([call_key, stage.value, fact_type.value, *polarity_part]) + f"|{seed}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        picked += random.Random(int.from_bytes(digest[:8], "big")).sample(group, min(k, len(group)))
    return picked


def adm_select(library: DemoLibrary, x: str, stage: Stage, fact_type: FactType, k: int) -> list[Demonstration]:
    """The first k demonstrations of a set's BM25 ranking against x, of either polarity (see select)."""
    return list(library._ranked(x, stage, fact_type)[0][:k])


def adm_select_fa(
    library: DemoLibrary, x: str | tuple[str, str], fact_type: FactType, k_per_polarity: int
) -> tuple[list[Demonstration], list[Demonstration]]:
    """select's BM25 matching of an FA set, split into its relevant and its irrelevant demos."""
    demos = select(library, Stage.FA, fact_type, k_per_polarity, x)
    return tuple([d for d in demos if d.polarity == p] for p in POLARITIES)


def _demo_from_record(record: dict, *, path: str, index: int) -> Demonstration:
    required = ("id", "stage", "fact_type", "input_text", "exemplar_output")
    for key in required:
        if key not in record:
            raise ParseError(f"demonstration #{index} missing key {key!r}", path=path)
    try:
        stage = Stage(record["stage"])
        fact_type = FactType(record["fact_type"])
    except ValueError as exc:
        raise ParseError(f"demonstration #{index}: {exc}", path=path) from None
    polarity = record.get("polarity")
    nfc = lambda s: unicodedata.normalize("NFC", str(s))
    return Demonstration(
        id=nfc(record["id"]),
        stage=stage,
        fact_type=fact_type,
        input_text=nfc(record["input_text"]),
        exemplar_output=nfc(record["exemplar_output"]),
        polarity=str(polarity) if polarity is not None else None,
    )


def load_demo_library(
    path: str | Path,
    *,
    tokenizer_mode: str = "cjk_bigram",
    k1: float = 1.2,
    b: float = 0.75,
) -> DemoLibrary:
    """Load a demonstration library from a JSON array file."""
    path = Path(path)
    raw = read_json(path, list, "demonstration file")
    demos = []
    for i, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise ParseError(f"demonstration #{i} must be a JSON object", path=str(path))
        demos.append(_demo_from_record(rec, path=str(path), index=i))
    return DemoLibrary(demos, tokenizer_mode=tokenizer_mode, k1=k1, b=b)
