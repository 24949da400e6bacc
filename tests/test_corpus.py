"""Case model, label algebra, ingestion, and file validation."""

from __future__ import annotations

import json
import logging

import pytest

from lexjudge.corpus import (
    LABELS,
    Case,
    CaseStore,
    FactFlags,
    aggregate_label,
    case_from_record,
    gold_fact_flags,
    ingest_corpus,
    load_cases,
    load_pools,
    load_qrels,
    validate_case,
)
from lexjudge.errors import IntegrityError, ParseError


class TestLabelAlgebra:
    def test_bijection_forward_then_back(self):
        for mf in (False, True):
            for lf in (False, True):
                label = aggregate_label(mf, lf)
                flags = gold_fact_flags(label)
                assert (flags.mf_relevant, flags.lf_relevant) == (mf, lf)

    def test_bijection_back_then_forward(self):
        for label in LABELS:
            flags = gold_fact_flags(label)
            assert aggregate_label(flags.mf_relevant, flags.lf_relevant) == label

    def test_named_values(self):
        assert aggregate_label(False, False) == 0
        assert aggregate_label(True, False) == 1
        assert aggregate_label(False, True) == 2
        assert aggregate_label(True, True) == 3

    def test_flags_label_property(self):
        assert FactFlags(mf_relevant=True, lf_relevant=True).label == 3

    def test_out_of_range_label(self):
        with pytest.raises(Exception):
            gold_fact_flags(4)


class TestCaseValidation:
    def test_well_formed(self):
        case = Case(id="c1", fact_text="something happened")
        assert validate_case(case) == []

    def test_blank_fact_text(self):
        case = Case(id="c1", fact_text="   ")
        problems = validate_case(case)
        assert any("fact_text" in p for p in problems)

    def test_empty_id(self):
        case = Case(id="", fact_text="x")
        problems = validate_case(case)
        assert any("id" in p for p in problems)

    def test_record_is_nfc_normalized(self):
        # "e" + combining acute composes to a single code point under NFC
        record = {"id": "c1", "fact_text": "café", "crime_tags": [], "full_text": None}
        case = case_from_record(record)
        assert case.fact_text == "café"

    def test_record_missing_field(self):
        with pytest.raises(ParseError):
            case_from_record({"id": "c1"})


class TestStore:
    def test_duplicate_id(self):
        cases = [
            Case(id="c1", fact_text="a"),
            Case(id="c1", fact_text="b"),
        ]
        with pytest.raises(IntegrityError):
            CaseStore(cases)

    def test_get_unknown(self):
        with pytest.raises(IntegrityError):
            CaseStore([]).get("missing")

    def test_iteration_preserves_insertion_order(self):
        cases = [Case(id=f"c{i}", fact_text="x") for i in (3, 1, 2)]
        store = CaseStore(cases)
        assert store.ids() == ["c3", "c1", "c2"]
        assert [case.id for case in store] == ["c3", "c1", "c2"]


class TestFiles:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_load_cases_happy(self, tmp_path):
        path = self.write(
            tmp_path,
            "cases.jsonl",
            '{"id": "a", "fact_text": "x", "crime_tags": [], "full_text": null}\n'
            '{"id": "b", "fact_text": "y", "crime_tags": ["盗窃"], "full_text": "full"}\n',
        )
        store = load_cases(path)
        assert len(store) == 2
        assert store.get("b") == Case(id="b", fact_text="y")

    @pytest.mark.parametrize("tags", ['"x"', '[""]'])
    def test_load_cases_reads_id_and_fact_text_only(self, tags, tmp_path):
        plain = load_cases(self.write(tmp_path, "plain.jsonl", '{"id": "a", "fact_text": "x"}\n'))
        tagged = f'{{"id": "a", "fact_text": "x", "crime_tags": {tags}, "full_text": "full"}}\n'
        extended = load_cases(self.write(tmp_path, "extended.jsonl", tagged))
        assert list(extended) == list(plain) == [Case(id="a", fact_text="x")]

    def test_load_cases_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "cases.jsonl",
            '{"id": "a", "fact_text": "x", "crime_tags": [], "full_text": null}\n'
            "{broken\n",
        )
        with pytest.raises(ParseError) as err:
            load_cases(path)
        assert err.value.line == 2

    def test_load_cases_duplicate(self, tmp_path):
        line = '{"id": "a", "fact_text": "x", "crime_tags": [], "full_text": null}\n'
        path = self.write(tmp_path, "cases.jsonl", line + line)
        with pytest.raises(IntegrityError):
            load_cases(path)

    def test_load_pools_unresolved_candidate(self, tmp_path, toy):
        pools_path = self.write(
            tmp_path,
            "pools.json",
            json.dumps([{"query_id": "q01", "candidate_ids": ["ghost"]}]),
        )
        store = load_cases(toy.cases)
        with pytest.raises(IntegrityError):
            load_pools(pools_path, store)

    def test_load_pools_duplicate_query(self, tmp_path, toy):
        store = load_cases(toy.cases)
        pools_path = self.write(
            tmp_path,
            "pools.json",
            json.dumps(
                [
                    {"query_id": "q01", "candidate_ids": ["c01a"]},
                    {"query_id": "q01", "candidate_ids": ["c01b"]},
                ]
            ),
        )
        with pytest.raises(IntegrityError):
            load_pools(pools_path, store)

    def test_load_qrels_types(self, tmp_path):
        path = self.write(tmp_path, "qrels.json", '{"q": {"c": true}}')
        with pytest.raises(ParseError):
            load_qrels(path)

    def test_load_qrels_range(self, tmp_path):
        path = self.write(tmp_path, "qrels.json", '{"q": {"c": 7}}')
        with pytest.raises(Exception):
            load_qrels(path)

    def test_qrels_lookup(self, toy_corpus):
        _, _, qrels = toy_corpus
        assert qrels.label("q01", "c01a") == 3
        assert qrels.label("q01", "no-such-candidate") is None


class TestIngest:
    def test_idempotent(self, toy):
        first = ingest_corpus(toy.cases, toy.pools, toy.qrels)
        second = ingest_corpus(toy.cases, toy.pools, toy.qrels)
        assert list(first[0].ids()) == list(second[0].ids())
        assert [p.query_id for p in first[1]] == [p.query_id for p in second[1]]
        assert first[2].entries == second[2].entries

    def test_without_qrels(self, toy):
        store, pools, qrels = ingest_corpus(toy.cases, toy.pools)
        assert qrels is None
        assert len(store) == 48 and len(pools) == 12

    def test_qrels_outside_pool_warns(self, tmp_path, toy, caplog):
        qrels_path = tmp_path / "qrels.json"
        qrels_path.write_text('{"q01": {"c05a": 0}}', encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            ingest_corpus(toy.cases, toy.pools, qrels_path)
        assert any("pool" in message for message in caplog.messages)

    def test_toy_shape(self, toy_corpus):
        store, pools, qrels = toy_corpus
        assert len(store) == 48
        assert len(pools) == 12
        assert all(len(pool.candidate_ids) == 10 for pool in pools)
        assert len(qrels) == 120
        labels = {
            label for per in qrels.entries.values() for label in per.values()
        }
        assert labels == {0, 1, 2, 3}
