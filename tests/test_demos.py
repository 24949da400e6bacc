"""Demonstration library: loading, invariants, adaptive and random selection."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexjudge.demos
from lexjudge.demos import (
    POLARITIES,
    DemoLibrary,
    Demonstration,
    FactType,
    Stage,
    adm_select,
    adm_select_fa,
    load_demo_library,
    select,
)
from lexjudge.errors import EmptySetError, IntegrityError
from lexjudge.retrieval import TOKENIZER_MODES, tokenize, top_k_rank
from lexjudge.toydata import toy_paths

from conftest import MIXED_ALPHABET
from oracles import rank_oracle, selection_oracle

# Words of the bundled annotation demos mixed with the CJK-boundary
# alphabet, so that fact texts share terms with the demo sets.
FA_DEMO_WORDS = sorted(
    {
        word
        for record in json.loads(toy_paths().demos.read_text(encoding="utf-8"))
        if record["stage"] == "FA"
        for word in record["input_text"].split()
    }
)
FACT_TEXT = st.lists(
    st.one_of(MIXED_ALPHABET, st.sampled_from(FA_DEMO_WORDS).map(lambda w: w + " ")), max_size=12
).map("".join)


def demo(
    demo_id: str,
    stage=Stage.FE,
    fact_type=FactType.MF,
    input_text="some facts",
    exemplar="an extraction",
    polarity=None,
) -> Demonstration:
    return Demonstration(
        id=demo_id,
        stage=stage,
        fact_type=fact_type,
        input_text=input_text,
        exemplar_output=exemplar,
        polarity=polarity,
    )


def fa_pair(prefix: str, fact_type=FactType.MF) -> list[Demonstration]:
    return [
        demo(f"{prefix}-rel", Stage.FA, fact_type, polarity="relevant"),
        demo(f"{prefix}-irr", Stage.FA, fact_type, polarity="irrelevant"),
    ]


class TestLibraryInvariants:
    def test_counts_from_bundled_library(self, toy_library):
        assert toy_library.counts() == {
            "FE_MF": 2,
            "FE_LF": 2,
            "FA_MF": 4,
            "FA_LF": 4,
        }

    def test_fe_demo_with_polarity(self):
        with pytest.raises(IntegrityError):
            DemoLibrary([demo("d1", polarity="relevant")])

    def test_fa_demo_without_polarity(self):
        with pytest.raises(IntegrityError):
            DemoLibrary([demo("d1", Stage.FA)])

    def test_fa_set_single_polarity(self):
        demos = [
            demo("d1", Stage.FA, FactType.MF, polarity="relevant"),
            demo("d2", Stage.FA, FactType.MF, polarity="relevant"),
        ]
        with pytest.raises(IntegrityError):
            DemoLibrary(demos)

    def test_duplicate_ids_across_sets(self):
        demos = [demo("same"), demo("same", fact_type=FactType.LF)]
        with pytest.raises(IntegrityError):
            DemoLibrary(demos)

    def test_empty_texts(self):
        with pytest.raises(IntegrityError):
            DemoLibrary([demo("d1", input_text="  ")])
        with pytest.raises(IntegrityError):
            DemoLibrary([demo("d1", exemplar="")])

    def test_load_bundled_file(self, toy):
        library = load_demo_library(toy.demos)
        assert len(library) == 12

    def test_load_rejects_bad_stage(self, tmp_path):
        path = tmp_path / "demos.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "d1",
                        "stage": "XX",
                        "fact_type": "MF",
                        "input_text": "t",
                        "exemplar_output": "o",
                        "polarity": None,
                    }
                ]
            ),
            encoding="utf-8",
        )
        with pytest.raises(Exception):
            load_demo_library(path)


class TestAdmSelect:
    def build(self, texts: dict[str, str]) -> DemoLibrary:
        return DemoLibrary([demo(demo_id, input_text=text) for demo_id, text in texts.items()])

    def test_dominant_match_first(self):
        library = self.build({"d1": "theft at the warehouse", "d2": "unrelated arson case"})
        picked = adm_select(library, "warehouse theft tonight", Stage.FE, FactType.MF, 1)
        assert [d.id for d in picked] == ["d1"]

    def test_k_larger_than_set(self):
        library = self.build({"d1": "a", "d2": "b"})
        assert len(adm_select(library, "a", Stage.FE, FactType.MF, 5)) == 2

    def test_empty_set(self):
        library = self.build({"d1": "a"})
        with pytest.raises(EmptySetError):
            adm_select(library, "a", Stage.FE, FactType.LF, 1)
        assert not library._terms and not library._rankings  # checked before any lookup

    def test_never_crosses_sets(self):
        demos = [
            demo("fe-mf", Stage.FE, FactType.MF, input_text="shared tokens here"),
            demo("fe-lf", Stage.FE, FactType.LF, input_text="shared tokens here"),
        ] + fa_pair("fa-mf")
        library = DemoLibrary(demos)
        picked = adm_select(library, "shared tokens here", Stage.FE, FactType.MF, 10)
        assert [d.id for d in picked] == ["fe-mf"]

    def test_order_matches_brute_force(self):
        rng = random.Random(5)
        vocabulary = [f"w{i}" for i in range(12)]
        for _ in range(150):
            texts = {
                f"d{i:02d}": " ".join(
                    rng.choice(vocabulary) for _ in range(rng.randint(1, 12))
                )
                for i in range(rng.randint(1, 12))
            }
            library = self.build(texts)
            query = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 6)))
            k = rng.randint(1, 6)
            got = [d.id for d in adm_select(library, query, Stage.FE, FactType.MF, k)]
            docs = {demo_id: text.split() for demo_id, text in texts.items()}
            want = [doc for doc, _ in rank_oracle(docs, query.split(), k, 1.2, 0.75)]
            assert got == want

    def test_deterministic(self, toy_library):
        first = adm_select(toy_library, "被告人某某盗窃", Stage.FE, FactType.MF, 2)
        second = adm_select(toy_library, "被告人某某盗窃", Stage.FE, FactType.MF, 2)
        assert [d.id for d in first] == [d.id for d in second]


class TestAdmSelectFa:
    def test_polarity_split(self, toy_library):
        relevant, irrelevant = adm_select_fa(toy_library, "被告 告人", FactType.MF, 2)
        assert len(relevant) == 2 and len(irrelevant) == 2
        assert all(d.polarity == "relevant" for d in relevant)
        assert all(d.polarity == "irrelevant" for d in irrelevant)

    def test_k_caps_each_class(self, toy_library):
        relevant, irrelevant = adm_select_fa(toy_library, "text", FactType.LF, 1)
        assert len(relevant) == 1 and len(irrelevant) == 1

    @given(x=FACT_TEXT, fact_type=st.sampled_from(FactType), k=st.integers(1, 14))
    @settings(max_examples=60, deadline=None)
    def test_is_select_split_by_polarity(self, large_library_path, x, fact_type, k):
        library = load_demo_library(large_library_path)
        selected = select(library, Stage.FA, fact_type, k, x)
        relevant, irrelevant = adm_select_fa(library, x, fact_type, k)
        assert selected == relevant + irrelevant
        assert {d.polarity for d in relevant} == {"relevant"}
        assert {d.polarity for d in irrelevant} == {"irrelevant"}

    def test_class_ranking_respects_whole_set_order(self):
        demos = [
            demo("rel-far", Stage.FA, FactType.MF, "totally different words", polarity="relevant"),
            demo("rel-near", Stage.FA, FactType.MF, "query words overlap strongly", polarity="relevant"),
            demo("irr-1", Stage.FA, FactType.MF, "nothing alike", polarity="irrelevant"),
        ]
        library = DemoLibrary(demos)
        relevant, _ = adm_select_fa(library, "query words overlap strongly", FactType.MF, 1)
        assert [d.id for d in relevant] == ["rel-near"]


def scored(ranking) -> list[tuple[str, float]]:
    """A ranking entry as top_k_rank returns it, (demo id, score) pairs, once its groups are checked.

    The groups must be the ranked demos as select cuts them with k = the set's size.
    """
    demos, scores, groups = ranking
    stage = demos[0].stage.value
    assert [d for group in groups for d in group] == selection_oracle(list(demos), stage, len(demos))
    assert len(groups) == (1 if stage == "FE" else 2)
    return [(demo.id, score) for demo, score in zip(demos, scores, strict=True)]


class TestRankingFromParts:
    """FA matching ranks a pair from its two fact texts, not their join."""

    @pytest.mark.parametrize("mode", TOKENIZER_MODES)
    @given(a=FACT_TEXT, b=FACT_TEXT, fact_type=st.sampled_from(FactType))
    @settings(max_examples=150, deadline=None)
    def test_parts_rank_as_the_joined_text(self, toy, mode, a, b, fact_type):
        library = load_demo_library(toy.demos, tokenizer_mode=mode)
        rows = library._indexes[(Stage.FA, fact_type)]
        joined = f"{a}\n{b}"
        want = top_k_rank(rows, tokenize(joined, mode), len(rows))
        cold = library._ranked((a, b), Stage.FA, fact_type)
        warm = library._ranked((a, b), Stage.FA, fact_type)
        # Lists of (demo id, score): the scores compare with ==.
        assert scored(cold) == want
        assert scored(warm) == want
        assert scored(library._ranked(joined, Stage.FA, fact_type)) == want
        assert adm_select_fa(library, (a, b), fact_type, 2) == adm_select_fa(library, joined, fact_type, 2)

    def test_memo_holds_only_postings_terms(self, toy):
        library = load_demo_library(toy.demos)
        library._ranked(("被告人某某抢夺 zz", "赌博"), Stage.FA, FactType.LF)
        # One memo for the library, over the terms of all four indexes.
        postings = {term for rows in library._indexes.values() for row in rows.values() for term in row}
        assert library._terms == {
            text: tuple(t for t in tokenize(text) if t in postings) for text in ("被告人某某抢夺 zz", "赌博")
        }
        assert library._terms["被告人某某抢夺 zz"] == ("被告", "告人", "抢夺")
        rows = [row for index in library._indexes.values() for row in index.values()]
        for term in library._terms["被告人某某抢夺 zz"]:  # the indexes' own strings
            assert all(next(key for key in row if key == term) is term for row in rows if term in row)


STAGE_SETS = [(stage, fact_type) for stage in Stage for fact_type in FactType]


class TestRankingMemo:
    """Each (stage, fact type, query term sequence) is ranked once per library, exactly as afresh."""

    @pytest.mark.parametrize("mode", TOKENIZER_MODES)
    @pytest.mark.parametrize("library_name", ["bundled", "24-per-set"])
    @given(
        data=st.data(),
        queries=st.lists(st.tuples(FACT_TEXT, FACT_TEXT), min_size=1, max_size=4),
        stage_set=st.sampled_from(STAGE_SETS),
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_rankings_equal_a_fresh_library(
        self, toy, large_library_path, library_name, mode, data, queries, stage_set
    ):
        stage, fact_type = stage_set
        path = toy.demos if library_name == "bundled" else large_library_path
        library = load_demo_library(path, tokenizer_mode=mode)
        fresh = load_demo_library(path, tokenizer_mode=mode)
        rows = fresh._indexes[stage_set]
        polarity = {demo_id: demo.polarity for demo_id, demo in fresh._by_id.items()}
        for a, b in queries * 2:  # the second pass is warm throughout
            joined = f"{a}\n{b}"
            want = top_k_rank(rows, tokenize(joined, mode), len(rows))
            ranked = [fresh._by_id[doc_id] for doc_id, _ in want]
            k = data.draw(st.integers(1, len(ranked)), label="k")
            assert scored(library._ranked((a, b), stage, fact_type)) == want
            assert scored(library._ranked(joined, stage, fact_type)) == want
            picked = adm_select(library, joined, stage, fact_type, k)
            assert [demo.id for demo in picked] == [doc_id for doc_id, _ in want[:k]]
            picked.clear()  # a caller's list is its own: the memo is not changed through it
            for x in ((a, b), joined):
                selected = select(library, stage, fact_type, k, x)
                assert selected == selection_oracle(ranked, stage.value, k)
                selected.clear()
                if stage is Stage.FA:
                    by_polarity = [[doc_id for doc_id, _ in want if polarity[doc_id] == p][:k] for p in POLARITIES]
                    chosen = adm_select_fa(library, x, fact_type, k)
                    assert [[demo.id for demo in demos] for demos in chosen] == by_polarity
                    for demos in chosen:
                        demos.clear()
            assert scored(library._ranked(joined, stage, fact_type)) == want

    def test_texts_with_one_term_sequence_share_an_entry(self, toy):
        library = load_demo_library(toy.demos)
        first = library._ranked("被告人某某抢夺 zz", Stage.FE, FactType.MF)
        second = library._ranked("被告人 抢夺 yy", Stage.FE, FactType.MF)
        assert library._terms["被告人某某抢夺 zz"] == library._terms["被告人 抢夺 yy"] == ("被告", "告人", "抢夺")
        assert second is first
        assert list(library._rankings) == [(Stage.FE, FactType.MF, ("被告", "告人", "抢夺"))]

    def test_one_entry_per_distinct_stage_and_term_sequence(self, toy, monkeypatch):
        calls = []
        monkeypatch.setattr(
            lexjudge.demos, "top_k_rank", lambda index, query, k: calls.append(query) or top_k_rank(index, query, k)
        )
        library = load_demo_library(toy.demos)
        texts = ["被告人某某抢夺 zz", "被告人 抢夺 yy", "赌博", "no index terms", "", "赌博", "被告人盗窃"]
        for stage, fact_type in STAGE_SETS:
            for text in texts:
                adm_select(library, text, stage, fact_type, 2)
            adm_select_fa(library, ("赌博", "被告人"), FactType.MF, 2)
        want = {
            (stage, fact_type, library._terms[text]) for stage, fact_type in STAGE_SETS for text in texts
        } | {(Stage.FA, FactType.MF, library._terms["赌博"] + library._terms["被告人"])}
        assert set(library._rankings) == want
        assert len(calls) == len(want)  # each computed once

    def test_memo_keeps_at_most_its_ranked_demos_limit(self, toy, monkeypatch):
        roomy = load_demo_library(toy.demos)
        monkeypatch.setattr(lexjudge.demos, "RANKED_DEMOS_LIMIT", 9)  # the largest set holds 4: two rankings
        library = load_demo_library(toy.demos)
        texts = ["被告人某某抢夺 zz", "赌博", "被告人盗窃", "爆炸", "拐卖"]
        for text in texts * 2:
            for stage, fact_type in STAGE_SETS:
                assert library._ranked(text, stage, fact_type) == roomy._ranked(text, stage, fact_type)
        assert list(library._rankings) == [(*stage_set, library._terms[texts[0]]) for stage_set in STAGE_SETS[:2]]
        assert len(roomy._rankings) == len(STAGE_SETS) * len(texts)

    def test_an_entry_gives_the_cycle_collector_a_few_objects_not_one_per_demo(self, toy, large_library_path):
        for path, fa_size, fe_size in [(toy.demos, 4, 2), (large_library_path, 24, 24)]:
            library = load_demo_library(path)
            adm_select_fa(library, ("被告人王某盗窃", "被告人许某盗窃"), FactType.MF, 2)
            adm_select(library, "被告人王某盗窃", Stage.FE, FactType.MF, 2)
            gc.collect()  # untracks every tuple that holds no tracked object, such as the scores
            (fa_key, fa_entry), (fe_key, fe_entry) = library._rankings.items()
            demos, scores, (relevant, irrelevant) = fa_entry
            assert len(demos) == len(scores) == len(relevant) * 2 == len(irrelevant) * 2 == fa_size
            tracked = (fa_key, fa_key[2], fa_entry, demos, scores, fa_entry[2], relevant, irrelevant)
            assert sum(map(gc.is_tracked, tracked)) == 6
            # An FE entry's one group is its ranking, not a copy.
            demos, scores, (group,) = fe_entry
            assert group is demos and len(demos) == fe_size
            assert sum(map(gc.is_tracked, (fe_key, fe_key[2], fe_entry, demos, scores, fe_entry[2]))) == 4

    def test_library_is_freed_without_the_cycle_collector(self, toy):
        library = load_demo_library(toy.demos)
        adm_select_fa(library, ("赌博", "被告人"), FactType.MF, 2)
        freed = weakref.ref(library)
        gc.disable()
        try:
            del library
            assert freed() is None
        finally:
            gc.enable()


def sampled(library, stage, fact_type, k, seed, call_key) -> list[str]:
    """The ids select draws without a query."""
    return [d.id for d in select(library, stage, fact_type, k, seed=seed, call_key=call_key)]


class TestRandomSelect:
    """select without a query: the seeded uniform draw of the disable_adm ablation."""

    def test_deterministic_per_call_key(self, toy_library):
        a = sampled(toy_library, Stage.FE, FactType.MF, 2, 0, "FE:MF:c1")
        b = sampled(toy_library, Stage.FE, FactType.MF, 2, 0, "FE:MF:c1")
        assert a == b

    def test_independent_of_call_order(self, toy_library):
        first = sampled(toy_library, Stage.FE, FactType.MF, 2, 0, "k1")
        sampled(toy_library, Stage.FE, FactType.MF, 2, 0, "other")
        again = sampled(toy_library, Stage.FE, FactType.MF, 2, 0, "k1")
        assert first == again

    def test_seed_changes_selection_somewhere(self):
        demos = [demo(f"d{i:02d}", input_text=f"text {i}") for i in range(8)]
        library = DemoLibrary(demos)
        differing = [
            key
            for key in (f"case-{i}" for i in range(12))
            if sampled(library, Stage.FE, FactType.MF, 2, 0, key) != sampled(library, Stage.FE, FactType.MF, 2, 1, key)
        ]
        assert differing, "changing the seed never changed any selection"

    def test_fa_split_sizes(self, toy_library):
        demos = select(toy_library, Stage.FA, FactType.MF, 2, seed=3, call_key="FA:MF:a|b")
        relevant, irrelevant = demos[:2], demos[2:]
        assert len(relevant) == 2 and len(irrelevant) == 2
        assert {d.polarity for d in relevant} == {"relevant"}
        assert {d.polarity for d in irrelevant} == {"irrelevant"}

    def test_empty_set(self):
        library = DemoLibrary([demo("d1")])
        with pytest.raises(EmptySetError, match="FE/LF"):
            select(library, Stage.FE, FactType.LF, 1, seed=0, call_key="k")

    @pytest.mark.parametrize("stage_set", STAGE_SETS)
    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    def test_draw_is_the_seeded_sample_of_each_group_in_id_order(self, large_library_path, stage_set, k):
        # Groups of 12 and 24 demos: sample(group, n)[:k] would draw differently from sample(group, k)
        # once a group holds more than 21.
        stage, fact_type = stage_set
        library = load_demo_library(large_library_path)
        demos = sorted(
            (d for d in json.loads(large_library_path.read_text(encoding="utf-8")) if d["stage"] == stage.value),
            key=lambda d: d["id"],
        )
        for seed, call_key in [(0, "FE:MF:c1"), (7, "FA:LF:q|c")]:
            want = []
            for polarity in (None,) if stage is Stage.FE else POLARITIES:
                group = [d["id"] for d in demos if d["fact_type"] == fact_type.value and d.get("polarity") == polarity]
                parts = [call_key, stage.value, fact_type.value] + ([polarity] if polarity else [])
                digest = hashlib.sha256(("\x1f".join(parts) + f"|{seed}").encode("utf-8")).digest()
                want += random.Random(int.from_bytes(digest[:8], "big")).sample(group, min(k, len(group)))
            assert sampled(library, stage, fact_type, k, seed, call_key) == want

    def test_diverges_from_bm25_on_forcing_fixture(self):
        # d1/d2 dominate the BM25 ranking for this query by construction;
        # seed 0 sampling picks a different pair for at least one call key.
        demos = [
            demo("d1", input_text="alpha beta gamma"),
            demo("d2", input_text="alpha beta delta"),
            demo("d3", input_text="unrelated one"),
            demo("d4", input_text="unrelated two"),
            demo("d5", input_text="unrelated three"),
            demo("d6", input_text="unrelated four"),
        ]
        library = DemoLibrary(demos)
        query = "alpha beta gamma"
        bm25_pick = [d.id for d in select(library, Stage.FE, FactType.MF, 2, query)]
        assert bm25_pick == ["d1", "d2"]
        random_picks = [sampled(library, Stage.FE, FactType.MF, 2, 0, f"pair-{i}") for i in range(6)]
        assert any(pick != bm25_pick for pick in random_picks)
