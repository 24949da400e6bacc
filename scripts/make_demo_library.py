"""Write a demonstration library of N demos per (stage, fact type) set.

The bundled library (scripts/make_toy_corpus.py) holds only as many demos
per set as a stage prompt takes, so demo matching picks the whole set
every time. This script draws a larger library from the same twelve crime
families, for measuring matching on a library of realistic size:

    python3 scripts/make_demo_library.py --per-set 24 --out demos-24.json

Extraction demo i is family i % 12's base narrative (odd rounds: its other
narrative) led by county i // 12. An annotation set holds relevant pairs,
a text and its twin under another county, and irrelevant pairs, a text
and the next family's text; the mock judge's verdict on each is asserted
to match its polarity, and every text is asserted to carry its family's
crime term and no other lexicon term.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from make_toy_corpus import FAMILIES, LEXICON, mock_reply, tags  # noqa: E402  (also puts src/ on the path)

from lexjudge.gateway import INPUT_A, INPUT_B, MockJudgeConfig, mock_lf_tags, mock_tokens  # noqa: E402

# County phrases that lead the library's texts; none holds a lexicon term.
COUNTIES = ("青田", "永嘉", "宁海", "德清", "安吉", "桐庐", "淳安", "建德", "浦江", "武义")
MAX_PER_SET = len(COUNTIES) * len(FAMILIES)


def build_library(per_set: int, cfg: MockJudgeConfig) -> list[dict]:
    """per_set demos in each of the four sets, as demos.json records."""
    if not 2 <= per_set <= MAX_PER_SET:
        raise ValueError(f"demos per set must be in [2, {MAX_PER_SET}]")

    def text(i: int, county: int | None = None) -> str:
        _, crime, _, _, _, base, other = FAMILIES[i % len(FAMILIES)]
        r = i // len(FAMILIES)
        out = COUNTIES[r if county is None else county] + "县" + (base, other)[r % 2]
        assert tags(out) == {crime}, out
        return out

    def mf_text(sentence: str) -> str:
        return " ".join(mock_tokens(sentence))

    def lf_text(sentence: str) -> str:
        return " ".join(mock_lf_tags(mock_tokens(sentence), cfg.lexicon))

    demos: list[dict] = []
    for i in range(per_set):
        sentence = text(i)
        demos.append({"id": f"fe-mf-{i + 1}", "stage": "FE", "fact_type": "MF", "input_text": sentence,
                      "exemplar_output": mock_reply("FE_MF", sentence, cfg), "polarity": None})
        demos.append({"id": f"fe-lf-{i + 1}", "stage": "FE", "fact_type": "LF", "input_text": mf_text(sentence),
                      "exemplar_output": mock_reply("FE_LF", mf_text(sentence), cfg), "polarity": None})
    pairs = {
        "rel": [(text(i), text(i, len(COUNTIES) - 1 - i // len(FAMILIES))) for i in range((per_set + 1) // 2)],
        "irr": [(text(i), text(i - i % len(FAMILIES) + (i + 1) % len(FAMILIES))) for i in range(per_set // 2)],
    }
    for fact_type, form in (("MF", mf_text), ("LF", lf_text)):
        for short, polarity, verdict in (("rel", "relevant", "RELEVANT"), ("irr", "irrelevant", "IRRELEVANT")):
            for i, (a, b) in enumerate(pairs[short], start=1):
                input_text = f"{INPUT_A}\n{form(a)}\n{INPUT_B}\n{form(b)}"
                reply = mock_reply(f"FA_{fact_type}", input_text, cfg)
                assert reply.endswith(f"VERDICT: {verdict}"), (input_text, reply)
                demos.append({"id": f"fa-{fact_type.lower()}-{short}-{i}", "stage": "FA", "fact_type": fact_type,
                              "input_text": input_text, "exemplar_output": reply, "polarity": polarity})
    return demos


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-set", type=int, required=True, help=f"demos per set, 2 to {MAX_PER_SET}")
    parser.add_argument("--out", required=True, help="the library file to write")
    args = parser.parse_args()
    try:
        demos = build_library(args.per_set, MockJudgeConfig(lexicon=frozenset(LEXICON)))
    except ValueError as exc:
        parser.error(str(exc))
    Path(args.out).write_text(json.dumps(demos, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    print(f"demos: {len(demos)} ({args.per_set} per set)")


if __name__ == "__main__":
    main()
