"""Independent reference implementations used to verify the package.

Everything here is written directly from the contracted formulas and rules,
without importing package internals, so agreement between the two is
meaningful evidence rather than a tautology. The prompt filler and the
reference pipeline take from lexjudge only its data types, templates,
parsers and mock judge.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import unicodedata
from dataclasses import asdict
from itertools import permutations

from lexjudge.demos import FactType, Stage
from lexjudge.engine import (
    DEFINITIONS,
    FA_REMINDER,
    FE_REMINDER,
    SYSTEM_TEXT,
    TASK_DESCRIPTIONS,
    FactExtraction,
    FactVerdict,
    JudgmentRecord,
    parse_facts_block,
    parse_verdict,
)
from lexjudge.errors import JudgeResponseUnparseable
from lexjudge.gateway import INPUT_A, INPUT_B, STAGE_PREFIX, TARGET_BEGIN, TARGET_END, JudgeRequest, mock_complete


# -- tokenization -------------------------------------------------------------

_CJK_SPANS = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF), (0x20000, 0x2FA1F))


def cjk(ch: str) -> bool:
    code = ord(ch)
    for lo, hi in _CJK_SPANS:
        if lo <= code <= hi:
            return True
    return False


def bigram_tokens(text: str) -> list[str]:
    """Reference CJK-bigram tokenizer: an index-walking scanner.

    CJK runs become overlapping bigrams (a single-character run stays a
    unigram); maximal non-CJK stretches are split on whitespace.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        if cjk(text[i]):
            j = i
            while j < n and cjk(text[j]):
                j += 1
            run = text[i:j]
            if len(run) == 1:
                out.append(run)
            else:
                out.extend(run[a : a + 2] for a in range(len(run) - 1))
            i = j
        else:
            j = i
            while j < n and not cjk(text[j]):
                j += 1
            out.extend(text[i:j].split())
            i = j
    return out


# -- BM25 ---------------------------------------------------------------------


def bm25_score_oracle(
    docs: dict[str, list[str]], query: list[str], doc_id: str, k1: float, b: float
) -> float:
    """Direct evaluation of the scoring formula, no index structure."""
    n_docs = len(docs)
    avg_len = sum(len(tokens) for tokens in docs.values()) / n_docs
    doc = docs[doc_id]
    length = len(doc)
    total = 0.0
    for term in query:
        tf = doc.count(term)
        if tf == 0:
            continue
        containing = sum(1 for tokens in docs.values() if term in tokens)
        idf = math.log(1.0 + (n_docs - containing + 0.5) / (containing + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * length / avg_len))
    return total


def twelve_sig(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.11e}")


def rank_oracle(
    docs: dict[str, list[str]], query: list[str], k: int, k1: float, b: float
) -> list[tuple[str, float]]:
    scored = [
        (doc_id, bm25_score_oracle(docs, query, doc_id, k1, b)) for doc_id in docs
    ]
    scored.sort(key=lambda item: (-twelve_sig(item[1]), item[0]))
    return scored[: min(k, len(scored))]


def selection_oracle(ranked: list, stage: str, k: int) -> list:
    """The demos one stage call takes from a set's ranking (best first).

    An FE call takes the first k. An FA call filters the whole ranking by
    polarity and takes the first k relevant, then the first k irrelevant.
    """
    if stage == "FE":
        return ranked[:k]
    return [d for d in ranked if d.polarity == "relevant"][:k] + [d for d in ranked if d.polarity == "irrelevant"][:k]


# -- Cohen's kappa ------------------------------------------------------------


def kappa_oracle(a: list, b: list) -> float:
    """Kappa from first principles over the union of observed classes."""
    assert len(a) == len(b) and a
    n = len(a)
    classes = sorted(set(a) | set(b))
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    p_e = 0.0
    for cls in classes:
        p_e += (a.count(cls) / n) * (b.count(cls) / n)
    if p_e == 1.0:
        return 1.0  # both raters constant on the same class
    return (p_o - p_e) / (1.0 - p_e)


def kappa_is_degenerate(a: list, b: list) -> bool:
    """True when both raters are constant but on different classes."""
    return len(set(a)) == 1 and len(set(b)) == 1 and a[0] != b[0]


# A graded label is mf + 2 * lf, so each layer's flag is one bit of it.
LAYER_BITS = {"mf": lambda label: label & 1, "lf": lambda label: label >> 1}


def heatmap_oracle(judged: list, gold: list, classes: tuple) -> str:
    """The heatmap CSV, each cell counted by a scan over every pair."""
    lines = ["," + ",".join(str(c) for c in classes)]
    for x in classes:
        cells = [sum(1 for a, b in zip(judged, gold) if a == x and b == y) for y in classes]
        lines.append(f"{x}," + ",".join(str(v) for v in cells))
    return "\n".join(lines) + "\n"


def validity_oracle(records: list, qrels) -> tuple[dict, dict] | None:
    """build_validity_report's (report, heatmaps) from kappa_oracle; None when no record is ok."""
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        return None
    gold = [qrels.entries[r.query_id][r.candidate_id] for r in ok]
    judged = [r.label for r in ok]
    layers = {"label": (judged, gold)}
    for layer, bit in LAYER_BITS.items():
        layers[layer] = ([bit(x) for x in judged], [bit(y) for y in gold])
    report = {
        "kappa_mf": kappa_oracle(*layers["mf"]),
        "kappa_lf": kappa_oracle(*layers["lf"]),
        "kappa_4level": kappa_oracle(*layers["label"]),
        "pairs_compared": len(ok),
        "failed_excluded": len(records) - len(ok),
    }
    heatmaps = {
        "heatmap_4x4": heatmap_oracle(*layers["label"], (0, 1, 2, 3)),
        "heatmap_mf": heatmap_oracle(*layers["mf"], (0, 1)),
        "heatmap_lf": heatmap_oracle(*layers["lf"], (0, 1)),
    }
    return report, heatmaps


def reliability_oracle(runs: list) -> dict | None:
    """build_reliability_report's dict from kappa_oracle; None when no pair is ok in every run."""
    labels = [{(r.query_id, r.candidate_id): r.label for r in run if r.status == "ok"} for run in runs]
    common = sorted(set.intersection(*(set(m) for m in labels)))
    if not common:
        return None
    report: dict = {"pairs_compared": len(common), "runs": len(runs)}
    series = {"mf": LAYER_BITS["mf"], "lf": LAYER_BITS["lf"], "label": lambda label: label}
    for kind, value in series.items():
        pairs = [
            {"run_a": i, "run_b": j, "kappa": kappa_oracle(
                [value(labels[i][p]) for p in common], [value(labels[j][p]) for p in common]
            )}
            for i in range(len(runs))
            for j in range(i + 1, len(runs))
        ]
        report[f"kappa_{kind}"] = {"mean": sum(p["kappa"] for p in pairs) / len(pairs), "pairs": pairs}
    return report


# -- NDCG ---------------------------------------------------------------------


def dcg_oracle(labels: list[int]) -> float:
    return sum(
        (2**rel - 1) / math.log2(position + 1)
        for position, rel in enumerate(labels, start=1)
    )


def ndcg_oracle(run_labels: list[int], pool_labels: list[int], k: int) -> float | None:
    """NDCG by exhaustively maximizing DCG over every ordering of the pool.

    run_labels: gold labels of the returned candidates, in run order.
    pool_labels: gold labels of the query's whole assessment pool (the ideal
    ranking may use any of them). Returns None when no ordering of the pool
    earns positive DCG (the skip case).
    """
    best = max(dcg_oracle(list(p)[:k]) for p in permutations(pool_labels))
    if best == 0.0:
        return None
    return dcg_oracle(run_labels[:k]) / best


# -- mock-judge rules and label composition -----------------------------------


def punctuation_to_spaces(text: str) -> str:
    """Replace each punctuation character (Unicode category P*) by a space."""
    cleaned = []
    for ch in text:
        cleaned.append(" " if unicodedata.category(ch).startswith("P") else ch)
    return "".join(cleaned)


def normalized_tokens(text: str) -> list[str]:
    """NFC, punctuation to spaces, bigram tokens, first-seen dedup."""
    tokens = []
    seen = set()
    for token in bigram_tokens(punctuation_to_spaces(unicodedata.normalize("NFC", text))):
        if token not in seen:
            seen.add(token)
            tokens.append(token)
    return tokens


def jaccard_oracle(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def mock_label_oracle(
    query_text: str, cand_text: str, lexicon: set[str], threshold: float = 0.4
) -> int:
    """Final 0-3 label the staged mock pipeline must produce for a pair."""
    q_tokens = set(normalized_tokens(query_text))
    c_tokens = set(normalized_tokens(cand_text))
    mf = 1 if jaccard_oracle(q_tokens, c_tokens) >= threshold else 0
    q_tags = q_tokens & lexicon
    c_tags = c_tokens & lexicon
    lf = 1 if q_tags & c_tags else 0
    return mf + 2 * lf


# -- quota arithmetic ---------------------------------------------------------


def quota_oracle(size: int, fractions: dict[int, float]) -> dict[int, int]:
    """Largest-remainder apportionment; ties go to the smaller label."""
    floors = {}
    remainders = []
    for label, fraction in fractions.items():
        exact = size * fraction
        floors[label] = int(exact)
        remainders.append((-(exact - int(exact)), label))
    short = size - sum(floors.values())
    remainders.sort()
    for _, label in remainders[:short]:
        floors[label] += 1
    return floors


# -- record lines -------------------------------------------------------------


def record_line_oracle(record) -> str:
    """A records-file line as the generic encoder writes the record's dict view."""
    return json.dumps(record.to_dict(), ensure_ascii=False) + "\n"


# -- prompts ------------------------------------------------------------------

PLACEHOLDER = re.compile(r"\{\{([a-z_]+)\}\}")


def serialize_demos_oracle(demos) -> str:
    """Each demo's input and exemplar output, numbered from 1, blocks parted by a blank line."""
    blocks = []
    for i, demo in enumerate(demos, start=1):
        tag = f" ({demo.polarity} pair)" if demo.polarity else ""
        out_word = "judgment" if demo.stage is Stage.FA else "extraction"
        blocks.append(
            f"Example {i}{tag} input:\n{demo.input_text}\nExample {i}{tag} {out_word}:\n{demo.exemplar_output}"
        )
    return "\n\n".join(blocks)


def prompt_oracle(templates, stage, fact_type, demos, target: str) -> str:
    """A stage template filled by one re.sub over it, so no filled-in text is scanned again.

    An unknown placeholder raises KeyError with its name.
    """
    values = {
        "task_description": TASK_DESCRIPTIONS[stage.value, fact_type.value],
        "definitions": DEFINITIONS[fact_type.value],
        "demos": serialize_demos_oracle(demos),
        "target": target,
    }
    template = templates[f"{stage.value}_{fact_type.value}".lower()]
    return PLACEHOLDER.sub(lambda m: values[m.group(1)], template)


def user_text_oracle(templates, stage, fact_type, demos, target: str) -> str:
    """A stage call's user text: the stage line, then the prompt with the target between its marker lines."""
    wrapped = f"{TARGET_BEGIN}\n{target}\n{TARGET_END}"
    stage_line = f"{STAGE_PREFIX}{stage.value}_{fact_type.value}\n"
    return stage_line + prompt_oracle(templates, stage, fact_type, demos, wrapped)


# -- the staged pipeline --------------------------------------------------------


def fingerprint_oracle(settings: dict, flags, templates, demos, k1: float, b: float) -> str:
    """A run's config fingerprint: the first 16 hex digits of a sha256 over every input that changes a record.

    The library is taken as tokenized by the default cjk_bigram mode.
    """
    fields = [[d.id, d.stage.value, d.fact_type.value, d.input_text, d.exemplar_output, d.polarity]
              for d in sorted(demos, key=lambda d: d.id)]
    payload = {
        **settings,
        "ablation": asdict(flags),
        "templates": {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in templates.items()},
        "tokenizer_mode": "cjk_bigram",
        "bm25": {"k1": float(k1), "b": float(b)},
        "demos": hashlib.sha256(json.dumps(fields, ensure_ascii=False).encode("utf-8")).hexdigest(),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def random_demos_oracle(demo_set, stage: str, fact_type: str, k: int, seed: int, call_key: str) -> list:
    """disable_adm's draw: each group in id order, sampled by an RNG seeded from the call site."""
    ordered = sorted(demo_set, key=lambda d: d.id)
    if stage == "FE":
        groups = [((), ordered)]
    else:
        groups = [((p,), [d for d in ordered if d.polarity == p]) for p in ("relevant", "irrelevant")]
    picked = []
    for polarity_part, group in groups:
        key = "\x1f".join([call_key, stage, fact_type, *polarity_part]) + f"|{seed}"
        rng = random.Random(int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"))
        picked += rng.sample(group, min(k, len(group)))
    return picked


def reference_judge_pools(
    store, pools, top_n, demos, templates, mock_cfg, flags, *, sampling_seed: int = 0, top_k_demos: int = 2,
    fa_demos_per_polarity: int = 2, model: str = "gpt-3.5-turbo", temperature: float = 0.4, max_tokens: int = 1024,
    retry: int = 2, k1: float = 1.2, b: float = 0.75, run_id: str = "r1",
) -> tuple[str, list[str], list[tuple[tuple[str, str], str | None]]]:
    """The run file a serial judge of the pools' first top_n candidates writes, the texts it sends, and their owners.

    Every stage call ranks its whole demo set with rank_oracle, or under
    disable_adm draws from it seeded by its stage, fact type and input
    texts, and only a (case, layer)'s extraction is kept, in a plain dict:
    the extraction, or the exception that ended it, which every later pair
    of the case raises.
    Each text's owner is the (query id, candidate id) being judged when it
    was sent, with the id of the case it extracts, or None for a comparison.
    """
    settings = {
        "model": model, "temperature": temperature, "max_tokens": max_tokens, "top_k_demos": top_k_demos,
        "fa_demos_per_polarity": fa_demos_per_polarity, "sampling_seed": sampling_seed,
    }
    fingerprint = fingerprint_oracle(settings, flags, templates, demos, k1, b)
    sets = {}
    for demo in demos:
        sets.setdefault((demo.stage.value, demo.fact_type.value), []).append(demo)
    sent: list[str] = []
    owners: list[tuple[tuple[str, str], str | None]] = []
    extractions: dict[tuple[str, str], FactExtraction | Exception] = {}

    def call(stage, fact_type, target: str, query: str, call_key: str, parse, case_id: str | None = None):
        demo_set = sets[stage.value, fact_type.value]
        k = top_k_demos if stage is Stage.FE else fa_demos_per_polarity
        if stage is Stage.FA and flags.disable_fa_demos:
            picked = []
        elif flags.disable_adm:
            picked = random_demos_oracle(demo_set, stage.value, fact_type.value, k, sampling_seed, call_key)
        else:
            docs = {d.id: bigram_tokens(d.input_text) for d in demo_set}
            by_id = {d.id: d for d in demo_set}
            ranked = [by_id[doc_id] for doc_id, _ in rank_oracle(docs, bigram_tokens(query), len(docs), k1, b)]
            picked = selection_oracle(ranked, stage.value, k)
        user_text = user_text_oracle(templates, stage, fact_type, picked, target)
        reminder = FE_REMINDER if stage is Stage.FE else FA_REMINDER
        for attempt in range(retry + 1):
            text = user_text if attempt == 0 else f"{user_text}\n\n{reminder}"
            sent.append(text)
            owners.append(((query_id, candidate_id), case_id))
            request = JudgeRequest(system_text=SYSTEM_TEXT, user_text=text, temperature=temperature, model=model,
                                   max_tokens=max_tokens)
            reply = mock_complete(request, mock_cfg).text
            try:
                return parse(reply), reply
            except JudgeResponseUnparseable as exc:
                error = exc
        raise JudgeResponseUnparseable(f"{error} after {retry + 1} attempt(s)")

    def facts(reply: str) -> str:
        text = parse_facts_block(reply)
        if not text:
            raise JudgeResponseUnparseable("empty facts block")
        return text

    def extract(case, fact_type) -> FactExtraction:
        key = (case.id, fact_type.value)
        if key not in extractions:
            if flags.disable_fe:
                extractions[key] = FactExtraction(case.fact_text, "")
            else:
                try:
                    target = case.fact_text if fact_type.value == "MF" else extract(case, FactType.MF).text
                    text, reply = call(Stage.FE, fact_type, target, target, f"FE:{fact_type.value}:{target}", facts,
                                       case.id)
                    extractions[key] = FactExtraction(text, reply)
                except Exception as exc:
                    extractions[key] = exc
        if isinstance(extractions[key], Exception):
            raise extractions[key]
        return extractions[key]

    def annotate(a: FactExtraction, b: FactExtraction, fact_type) -> FactVerdict:
        target = f"{INPUT_A}\n{a.text}\n{INPUT_B}\n{b.text}"
        call_key = f"FA:{fact_type.value}:{a.text}\x1f{b.text}"
        (relevant, reasoning), reply = call(Stage.FA, fact_type, target, f"{a.text}\n{b.text}", call_key, parse_verdict)
        return FactVerdict(relevant, reasoning, reply)

    lines = []
    pairs = dict.fromkeys((pool.query_id, cid) for pool in pools for cid in pool.candidate_ids[:top_n])
    for query_id, candidate_id in pairs:
        query, candidate = store.get(query_id), store.get(candidate_id)
        stage, fact_type = Stage.FE, FactType.MF
        try:
            mf_pair = extract(query, FactType.MF), extract(candidate, FactType.MF)
            fact_type = FactType.LF
            lf_pair = extract(query, FactType.LF), extract(candidate, FactType.LF)
            stage, fact_type = Stage.FA, FactType.MF
            mf_verdict = annotate(*mf_pair, FactType.MF)
            fact_type = FactType.LF
            lf_verdict = annotate(*lf_pair, FactType.LF)
            outcome = dict(status="ok", label=int(mf_verdict.relevant) + 2 * int(lf_verdict.relevant),
                           mf_extractions=mf_pair, lf_extractions=lf_pair, mf_verdict=mf_verdict, lf_verdict=lf_verdict)
        except Exception as exc:
            outcome = dict(status="failed", label=None, mf_extractions=None, lf_extractions=None, mf_verdict=None,
                           lf_verdict=None, error=f"{stage.value}_{fact_type.value}: {exc}")
        record = JudgmentRecord(query_id=query_id, candidate_id=candidate_id, run_id=run_id,
                                config_fingerprint=fingerprint, **outcome)
        lines.append(record_line_oracle(record))
    return "".join(lines), sent, owners
