import bench_paths  # noqa: F401  (must precede the benchmark imports)
import pytest

import corpus_gen
from corpus_gen import MarginError, build, generate, ref_jaccard, ref_label, ref_tokens


def test_same_seed_gives_identical_files(tmp_path):
    a = generate(tmp_path / "a", scale=2, seed=7)
    b = generate(tmp_path / "b", scale=2, seed=7)
    for name in ("cases.jsonl", "pools.json", "qrels.json", "lexicon.txt", "demos.json"):
        assert (a.root / name).read_bytes() == (b.root / name).read_bytes(), name


def test_other_seed_changes_texts_not_shape():
    texts_a, _, pools_a = build(scale=2, seed=1)
    texts_b, _, pools_b = build(scale=2, seed=2)
    assert texts_a != texts_b
    assert pools_a == pools_b


def test_shape_follows_the_toy_corpus():
    texts, crimes, pools = build(scale=3, seed=0)
    assert len(pools) == 36 and len(texts) == 36 * 4
    assert all(len(cids) == 10 and len(set(cids)) == 10 for _, cids in pools)
    uses = {}
    for _, cids in pools:
        for cid in cids:
            uses[cid] = uses.get(cid, 0) + 1
    assert max(uses.values()) > 1, "candidates must be shared across pools"
    assert len(set(texts.values())) == len(texts), "fact texts must be distinct"
    assert all(ref_tokens(texts[c]) & corpus_gen.LEXICON == {crimes[c]} for c in texts)


def test_every_label_occurs_in_every_pool(tmp_path):
    corpus = generate(tmp_path, scale=2, seed=3)
    for labels in corpus.qrels.values():
        assert sorted(set(labels.values())) == [0, 1, 2, 3]


def test_margin_check_rejects_a_near_threshold_pair(tmp_path):
    corpus = generate(tmp_path, scale=1, seed=0)
    # 4 shared of 9 distinct bigrams: jaccard 0.44, inside the margin.
    corpus.texts["x"] = "甲乙丙丁戊己庚"
    corpus.texts["y"] = "甲乙丙丁戊子丑寅"
    assert ref_jaccard(corpus.texts["x"], corpus.texts["y"]) == pytest.approx(4 / 9)
    with pytest.raises(MarginError):
        corpus.check_margin([("x", "y")])


def test_reference_tokens_handle_mixed_text():
    assert ref_tokens("案件：ab 盗窃，c") == {"案件", "ab", "盗窃", "c"}
    assert ref_tokens("甲") == {"甲"}


def test_reference_tokens_agree_with_the_mock_tokenizer():
    from lexjudge.gateway import mock_tokens

    texts, _, _ = build(scale=2, seed=9)
    for text in texts.values():
        assert set(mock_tokens(text)) == ref_tokens(text)


def test_mock_pipeline_reproduces_gold(tmp_path):
    from lexjudge.corpus import ingest_corpus
    from lexjudge.demos import load_demo_library
    from lexjudge.engine import JudgeEngine
    from lexjudge.gateway import MockJudge, MockJudgeConfig, load_lexicon

    corpus = generate(tmp_path, scale=1, seed=11)
    store, pools, qrels = ingest_corpus(corpus.cases_path, corpus.pools_path, corpus.qrels_path)
    judge = MockJudge(MockJudgeConfig(lexicon=load_lexicon(corpus.lexicon_path)))
    engine = JudgeEngine(judge, load_demo_library(corpus.demos_path))
    records = engine.judge_pools(store, pools)
    assert len(records) == corpus.pair_count()
    for r in records:
        assert r.status == "ok"
        assert r.label == qrels.label(r.query_id, r.candidate_id) == corpus.gold(r.query_id, r.candidate_id)
    assert ref_label(corpus.texts["q0000"], corpus.texts["c0000a"]) == 3
