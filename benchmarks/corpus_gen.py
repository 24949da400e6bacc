"""Seeded corpus generator for the benchmark.

The corpus keeps the shape of the bundled toy corpus (see
scripts/make_toy_corpus.py, whose twelve crime families it reuses): every
family instance has a query and three candidates (a: surname changed,
b: crime term swapped, c: another narrative of the same offense), and each
query's pool holds its own three candidates plus seven borrowed from the
next three families, so candidates are shared across pools.

A corpus of scale ``s`` holds ``s`` replicas of the twelve families. Each
replica prefixes all of its texts with its own place phrase (a city and a
district, drawn by the seed), so every case has a distinct fact text and
text-keyed caches see no artificial repeats.

Every pair of a generated corpus is asserted to sit clear of the Jaccard
threshold margin, as make_toy_corpus.py asserts for its pools, so any pair
a workload judges has an unambiguous gold label.

Gold labels come from this module's own reference tokenizer and its own
statement of the mock judge's rules, never from ``lexjudge.gateway``:

* tokens: NFC, punctuation to spaces, overlapping bigrams inside CJK runs
  (a lone CJK character stays a unigram), whitespace tokens elsewhere;
* material facts relevant when the token-set Jaccard reaches 0.4;
* legal facts relevant when the two cases share a lexicon term.

Usage: python3 benchmarks/corpus_gen.py --scale 2 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import random
import re
import shutil
import unicodedata
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOY_DEMOS = REPO / "src" / "lexjudge" / "data" / "toy" / "demos.json"


def _load_toy_script():
    path = REPO / "scripts" / "make_toy_corpus.py"
    spec = importlib.util.spec_from_file_location("make_toy_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_toy = _load_toy_script()
FAMILIES = _toy.FAMILIES
LEXICON = frozenset(_toy.LEXICON)
THRESHOLD = _toy.THRESHOLD
MARGIN_LOW, MARGIN_HIGH = _toy.MARGIN_LOW, _toy.MARGIN_HIGH

CITIES = (
    "杭州", "苏州", "成都", "西安", "长沙", "武汉", "南京", "青岛",
    "厦门", "昆明", "贵阳", "兰州", "太原", "济南", "合肥", "南昌",
    "福州", "海口", "银川", "西宁", "大连", "沈阳", "长春", "温州",
)
DISTRICTS = (
    "东湖", "西城", "南山", "北塘", "新华", "长安", "和平", "解放",
    "胜利", "光明", "青山", "白云", "红旗", "金水", "江北", "湖滨",
    "河西", "城关", "开发", "高新",
)
# Pool layout of the toy corpus: own a/b/c, then borrowed candidates.
FILLERS = ((1, "abc"), (2, "abc"), (3, "a"))

# -- reference rules ----------------------------------------------------------

_CJK = "\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff\U00020000-\U0002fa1f"
_CHUNK_RE = re.compile(f"[{_CJK}]+|[^\\s{_CJK}]+")
_CJK_RUN_RE = re.compile(f"[{_CJK}]+")


def ref_tokens(text: str) -> set[str]:
    """Token set the mock rules compare, computed independently of lexjudge."""
    text = unicodedata.normalize("NFC", text)
    text = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    tokens: set[str] = set()
    for chunk in _CHUNK_RE.findall(text):
        if _CJK_RUN_RE.fullmatch(chunk) and len(chunk) > 1:
            tokens.update(chunk[i : i + 2] for i in range(len(chunk) - 1))
        else:
            tokens.add(chunk)
    return tokens


def ref_jaccard(a: str, b: str) -> float:
    sa, sb = ref_tokens(a), ref_tokens(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def ref_tags(text: str) -> set[str]:
    return ref_tokens(text) & LEXICON


def ref_label(a: str, b: str) -> int:
    """Graded label the mock rules must produce: 1 for MF, plus 2 for LF."""
    mf = ref_jaccard(a, b) >= THRESHOLD
    lf = bool(ref_tags(a) & ref_tags(b))
    return int(mf) + 2 * int(lf)


class MarginError(AssertionError):
    """A judged pair's Jaccard falls inside the threshold margin."""


# -- generation ---------------------------------------------------------------


@dataclass
class Corpus:
    """Generated files plus the texts and gold labels behind them."""

    root: Path
    texts: dict[str, str]
    pools: list[tuple[str, list[str]]]
    qrels: dict[str, dict[str, int]]

    @property
    def cases_path(self) -> Path:
        return self.root / "cases.jsonl"

    @property
    def pools_path(self) -> Path:
        return self.root / "pools.json"

    @property
    def qrels_path(self) -> Path:
        return self.root / "qrels.json"

    @property
    def demos_path(self) -> Path:
        return self.root / "demos.json"

    @property
    def lexicon_path(self) -> Path:
        return self.root / "lexicon.txt"

    def pair_count(self) -> int:
        return sum(len(cids) for _, cids in self.pools)

    def gold(self, a: str, b: str) -> int:
        return ref_label(self.texts[a], self.texts[b])

    def check_margin(self, pairs) -> None:
        """Raise MarginError if any (a, b) pair sits near the Jaccard threshold."""
        tokens: dict[str, set[str]] = {}
        for a, b in pairs:
            for case_id in (a, b):
                if case_id not in tokens:
                    tokens[case_id] = ref_tokens(self.texts[case_id])
            ta, tb = tokens[a], tokens[b]
            j = len(ta & tb) / len(ta | tb) if ta or tb else 1.0
            if MARGIN_LOW < j < MARGIN_HIGH:
                raise MarginError(f"{a}/{b}: jaccard {j:.4f} too close to {THRESHOLD}")


def _place_phrases(scale: int, seed: int) -> list[str]:
    combos = [city + district + "区" for city in CITIES for district in DISTRICTS]
    if scale > len(combos):
        raise ValueError(f"scale {scale} exceeds the {len(combos)} distinct place phrases")
    return random.Random(seed).sample(combos, scale)


def build(scale: int, seed: int) -> tuple[dict[str, str], dict[str, str], list[tuple[str, list[str]]]]:
    """Texts, crime tags and pools for ``scale`` replicas of the families."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    texts: dict[str, str] = {}
    crimes: dict[str, str] = {}
    n = scale * len(FAMILIES)
    for r, place in enumerate(_place_phrases(scale, seed)):
        for f, (_, crime, swap, name_q, name_a, base, other) in enumerate(FAMILIES):
            i = r * len(FAMILIES) + f
            variants = {
                f"q{i:04d}": (base, crime),
                f"c{i:04d}a": (base.replace(f"{name_q}某", f"{name_a}某"), crime),
                f"c{i:04d}b": (base.replace(crime, swap), swap),
                f"c{i:04d}c": (other, crime),
            }
            for case_id, (narrative, tag) in variants.items():
                text = place + narrative
                if ref_tags(text) != {tag}:
                    raise AssertionError(f"{case_id}: tags {ref_tags(text)} != {{{tag}}}")
                texts[case_id] = text
                crimes[case_id] = tag
    pools = []
    for i in range(n):
        cids = [f"c{i:04d}{s}" for s in "abc"]
        for offset, suffixes in FILLERS:
            cids.extend(f"c{(i + offset) % n:04d}{s}" for s in suffixes)
        pools.append((f"q{i:04d}", cids))
    if len(set(texts.values())) != len(texts):
        raise AssertionError("generated fact texts are not distinct")
    return texts, crimes, pools


def generate(out_dir: str | Path, scale: int, seed: int) -> Corpus:
    """Write cases, pools, gold labels, lexicon and demos; return the corpus."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts, crimes, pools = build(scale, seed)
    qrels = {qid: {cid: ref_label(texts[qid], texts[cid]) for cid in cids} for qid, cids in pools}
    corpus = Corpus(out, texts, pools, qrels)
    # Every pair of the corpus, not only the pooled ones: the augmentation
    # workload judges whichever pairs the sampler and pre-ranker pick.
    corpus.check_margin(itertools.combinations(texts, 2))
    with corpus.cases_path.open("w", encoding="utf-8") as fh:
        for case_id, text in texts.items():
            full = text + "。全文另含程序经过与裁判结果。" if case_id.startswith("q") else None
            row = {"id": case_id, "fact_text": text, "crime_tags": [crimes[case_id]], "full_text": full}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    corpus.pools_path.write_text(
        json.dumps([{"query_id": q, "candidate_ids": c} for q, c in pools], ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    corpus.qrels_path.write_text(json.dumps(qrels, ensure_ascii=False) + "\n", encoding="utf-8")
    corpus.lexicon_path.write_text(
        "# one legal-fact term per line\n" + "\n".join(sorted(LEXICON)) + "\n", encoding="utf-8"
    )
    shutil.copyfile(TOY_DEMOS, corpus.demos_path)
    return corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, required=True, help="replicas of the twelve families")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    corpus = generate(args.out, args.scale, args.seed)
    print(json.dumps({"cases": len(corpus.texts), "pools": len(corpus.pools), "pairs": corpus.pair_count()}))


if __name__ == "__main__":
    main()
