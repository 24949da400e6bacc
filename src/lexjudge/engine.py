"""Staged relevance judging.

A pair is judged in six steps, material facts always before legal facts:
extract the material facts of the query and the candidate, derive the legal
facts of each from its extracted material facts, then annotate relevance
per fact layer and combine the two binary verdicts into the graded label
(1 point for material facts, 2 for legal facts).

Every prompt is assembled from an editable template plus adaptively
matched demonstrations. Three ablation switches exist: disable_adm swaps
matching for seeded random sampling, disable_fe forwards raw fact text
without extraction prompts, disable_fa_demos drops the polarity
demonstrations from annotation prompts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from functools import partial
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from ._util import OnceMemo, atomic_write_lines, read_jsonl, read_text
from .config import AblationFlags
from .corpus import Case, CandidatePool, CaseStore, aggregate_label
from .demos import DemoLibrary, Demonstration, FactType, Stage, select
from .errors import (
    AuthError,
    DomainError,
    IntegrityError,
    JudgeResponseUnparseable,
    ParseError,
    TemplateError,
)
from .gateway import (
    FACTS_BEGIN,
    FACTS_END,
    INPUT_A,
    INPUT_B,
    STAGE_PREFIX,
    TARGET_BEGIN,
    TARGET_END,
    VERDICT_IRRELEVANT,
    VERDICT_RELEVANT,
    Judge,
    JudgeRequest,
)

SYSTEM_TEXT = (
    "You are a careful legal annotator comparing criminal cases. "
    "Follow the requested output format exactly."
)

TASK_DESCRIPTIONS = {
    ("FE", "MF"): (
        "Read the case below and extract its Material Facts as a concise "
        "sequence of key elements."
    ),
    ("FE", "LF"): (
        "Read the extracted Material Facts below and state the Legal Facts "
        "they support."
    ),
    ("FA", "MF"): (
        "Decide whether the Material Facts of case A are relevant to the "
        "Material Facts of case B."
    ),
    ("FA", "LF"): (
        "Decide whether the Legal Facts of case A are relevant to the "
        "Legal Facts of case B."
    ),
}

DEFINITIONS = {
    "MF": (
        "Material Facts are the objective elements of a case: the parties, "
        "the cause of the dispute, how the conduct unfolded, its outcome, "
        "and when and where it took place."
    ),
    "LF": (
        "Legal Facts are the legal evaluation of the Material Facts, such "
        "as the actor's intent, any fault of the victim, and the causal "
        "link between the conduct and the harm."
    ),
}

FE_REMINDER = f"Reminder: output the facts between a line {FACTS_BEGIN} and a line {FACTS_END}."
FA_REMINDER = f"Reminder: end with one line reading exactly {VERDICT_RELEVANT} or {VERDICT_IRRELEVANT}."

TEMPLATE_NAMES = ("fe_mf", "fe_lf", "fa_mf", "fa_lf")
_PLACEHOLDER_RE = re.compile(r"\{\{([a-z_]+)\}\}")
_KNOWN_PLACEHOLDERS = {"task_description", "definitions", "demos", "target"}
_VERDICT_RE = re.compile(r"^\s*VERDICT:\s*(RELEVANT|IRRELEVANT)\s*$", re.IGNORECASE)
_RUN_ID_RE = re.compile(r"r([1-9][0-9]*)")
_T = TypeVar("_T")

logger = logging.getLogger(__name__)


def load_templates(templates_dir: str | Path | None = None) -> dict[str, str]:
    """Read the four prompt templates, validating their placeholders."""
    templates: dict[str, str] = {}
    for name in TEMPLATE_NAMES:
        if templates_dir is None:
            ref = resources.files("lexjudge").joinpath(f"templates/{name}.txt")
            if not ref.is_file():
                raise TemplateError(f"packaged template {name}.txt is missing")
        else:
            ref = Path(templates_dir) / f"{name}.txt"
            if not ref.is_file():
                raise TemplateError(f"template file not found: {ref}")
        text = read_text(ref)
        found = set(_PLACEHOLDER_RE.findall(text))
        unknown = found - _KNOWN_PLACEHOLDERS
        if unknown:
            raise TemplateError(f"template {name} has unknown placeholder(s): {sorted(unknown)}")
        missing = _KNOWN_PLACEHOLDERS - found
        if missing:
            raise TemplateError(f"template {name} lacks placeholder(s): {sorted(missing)}")
        templates[name] = text
    return templates


def _demo_block(key: tuple[Demonstration, int]) -> str:
    """A demo's block at a 1-based position, led by the blank line that parts it from the one before."""
    demo, i = key
    tag = f" ({demo.polarity} pair)" if demo.polarity else ""
    out_word = "judgment" if demo.stage is Stage.FA else "extraction"
    blank = "" if i == 1 else "\n\n"
    return (
        f"{blank}Example {i}{tag} input:\n{demo.input_text}\n"
        f"Example {i}{tag} {out_word}:\n{demo.exemplar_output}"
    )


Frame = tuple[str, tuple[tuple[str, str], ...]]


def _frame(templates: Mapping[str, str], marked: bool, key: tuple[Stage, FactType]) -> Frame:
    """A stage's template split once by _PLACEHOLDER_RE: (text before the first slot, ((slot, text after it), ...)).

    The task description and definitions are filled in; the demo and target
    slots are left open. Marked, the text starts with the stage line and
    each target slot sits between the target marker lines. An unknown
    placeholder raises the KeyError a single re.sub over the template would.
    """
    stage, fact_type = key
    name = f"{stage.value}_{fact_type.value}"
    values = {"task_description": TASK_DESCRIPTIONS[stage.value, fact_type.value],
              "definitions": DEFINITIONS[fact_type.value]}
    head, before, after = (f"{STAGE_PREFIX}{name}\n", f"{TARGET_BEGIN}\n", f"\n{TARGET_END}") if marked else ("",) * 3
    pieces = _PLACEHOLDER_RE.split(templates[name.lower()])
    texts = [head + pieces[0]]
    slots = []
    for slot, text in zip(pieces[1::2], pieces[2::2]):
        if slot == "demos":
            slots.append(slot)
            texts.append(text)
        elif slot == "target":
            slots.append(slot)
            texts[-1] += before
            texts.append(after + text)
        else:
            texts[-1] += values[slot] + text
    return texts[0], tuple(zip(slots, texts[1:]))


def _fill(frame: Frame, blocks: Sequence[str], target: str) -> str:
    """The frame with blocks in each demo slot and target in each target slot, in one join."""
    head, slots = frame
    parts = [head]
    for slot, text in slots:
        if slot == "demos":
            parts += blocks
        else:
            parts.append(target)
        parts.append(text)
    return "".join(parts)


def assemble_prompt(
    stage: Stage, fact_type: FactType, demos: Sequence[Demonstration], target: str, *,
    templates: Mapping[str, str] | None = None,
) -> str:
    """Fill a stage template as the engine does, without its stage line and target marker lines.

    The target always lands after the demos, and braces inside case text
    or demonstrations are never expanded.
    """
    frame = _frame(load_templates() if templates is None else templates, False, (stage, fact_type))
    return _fill(frame, [_demo_block((demo, i)) for i, demo in enumerate(demos, start=1)], target)


def parse_facts_block(raw_text: str) -> str:
    lines = raw_text.splitlines()
    stripped = [line.strip() for line in lines]
    try:
        start = stripped.index(FACTS_BEGIN)
        end = stripped.index(FACTS_END, start + 1)
    except ValueError:
        raise JudgeResponseUnparseable("no facts block between sentinels") from None
    return "\n".join(lines[start + 1 : end]).strip()


def parse_verdict(raw_text: str) -> tuple[bool, str]:
    lines = raw_text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if not lines[i].strip():
            continue
        match = _VERDICT_RE.match(lines[i])
        if match:
            reasoning = "\n".join(lines[:i]).strip()
            return match.group(1).upper() == "RELEVANT", reasoning
        break
    raise JudgeResponseUnparseable("reply does not end with a verdict line")


@dataclass(frozen=True, slots=True)
class FactExtraction:
    """One fact layer extracted from a text; a record's mf or lf block says which, its position whose."""

    text: str
    raw_response: str


@dataclass(frozen=True, slots=True)
class FactVerdict:
    relevant: bool
    reasoning: str
    raw_response: str


def _extraction(reply: str) -> FactExtraction:
    text = parse_facts_block(reply)
    if not text:
        raise JudgeResponseUnparseable("empty facts block")
    return FactExtraction(text, reply)


def _verdict(reply: str) -> FactVerdict:
    return FactVerdict(*parse_verdict(reply), reply)


@dataclass(frozen=True, slots=True)
class JudgmentRecord:
    """Full audit trail of one judged pair; failed pairs keep status and error."""

    query_id: str
    candidate_id: str
    status: str
    label: int | None
    mf_extractions: tuple[FactExtraction, FactExtraction] | None
    lf_extractions: tuple[FactExtraction, FactExtraction] | None
    mf_verdict: FactVerdict | None
    lf_verdict: FactVerdict | None
    run_id: str
    config_fingerprint: str
    error: str | None = None

    def to_dict(self) -> dict:
        def ex(pair: tuple[FactExtraction, FactExtraction] | None) -> dict | None:
            if pair is None:
                return None
            return {
                "query": {"text": pair[0].text, "raw_response": pair[0].raw_response},
                "candidate": {"text": pair[1].text, "raw_response": pair[1].raw_response},
            }

        def ve(v: FactVerdict | None) -> dict | None:
            if v is None:
                return None
            return {"relevant": v.relevant, "reasoning": v.reasoning, "raw_response": v.raw_response}

        return {
            "query_id": self.query_id,
            "candidate_id": self.candidate_id,
            "status": self.status,
            "label": self.label,
            "mf": {"extractions": ex(self.mf_extractions), "verdict": ve(self.mf_verdict)},
            "lf": {"extractions": ex(self.lf_extractions), "verdict": ve(self.lf_verdict)},
            "run_id": self.run_id,
            "config_fingerprint": self.config_fingerprint,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping, shared: dict | None = None) -> "JudgmentRecord":
        """Rebuild a record from its to_dict form.

        Calls that pass one shared dict get one object back for each equal
        id, status, run id, fingerprint, extraction and verdict, so an
        extraction copied into many records is held once. All of these are
        immutable, so sharing them changes no value. A verdict whose
        relevant is not a JSON boolean raises TypeError, and so does an ok
        record without its label, a verdict or an extraction pair, or whose
        label is not the int its verdicts give.
        """
        table = {} if shared is None else shared
        same = table.setdefault
        qid = data["query_id"]
        cid = data["candidate_id"]
        qid, cid = same(qid, qid), same(cid, cid)
        status, run_id, fingerprint = data["status"], data["run_id"], data["config_fingerprint"]
        # Positional, in field order; the arguments are read in the order the errors of a bad row rely on.
        record = cls(
            qid,
            cid,
            same(status, status),
            data["label"],
            _shared_extractions(table, data["mf"]["extractions"]),
            _shared_extractions(table, data["lf"]["extractions"]),
            _shared_verdict(table, data["mf"]["verdict"]),
            _shared_verdict(table, data["lf"]["verdict"]),
            same(run_id, run_id),
            same(fingerprint, fingerprint),
            data.get("error"),
        )
        if status == "ok":
            for name in _OK_PARTS:
                if getattr(record, name) is None:
                    raise TypeError(f"ok record lacks {name}")
            label = aggregate_label(record.mf_verdict.relevant, record.lf_verdict.relevant)
            if type(record.label) is not int or record.label != label:
                raise TypeError(f"ok record label {record.label!r} is not {label}, the label of its verdicts")
        return record


# What every successfully judged record carries.
_OK_PARTS = ("label", "mf_extractions", "lf_extractions", "mf_verdict", "lf_verdict")


def _shared(table: dict, cls: type[_T], *fields) -> _T:
    """The one cls(*fields) that table holds, made and kept on first request."""
    key = (cls, *fields)
    found = table.get(key)
    if found is None:
        found = table[key] = cls(*fields)
    return found


def _shared_extractions(table: dict, block: Mapping | None):
    """The (query, candidate) extraction pair of a to_dict block, each looked up in table."""
    if block is None:
        return None
    q, c = block["query"], block["candidate"]
    return (
        _shared(table, FactExtraction, q["text"], q["raw_response"]),
        _shared(table, FactExtraction, c["text"], c["raw_response"]),
    )


def _shared_verdict(table: dict, v: Mapping | None) -> FactVerdict | None:
    """A to_dict verdict looked up in table; its relevant must be a JSON boolean."""
    if v is None:
        return None
    if type(v["relevant"]) is not bool:
        raise TypeError(f"verdict relevant {v['relevant']!r} is not a boolean")
    return _shared(table, FactVerdict, v["relevant"], v["reasoning"], v["raw_response"])


def check_demo_sets(library: DemoLibrary, flags: AblationFlags) -> None:
    """Raise EmptySetError for the first empty demo set a run under flags draws from.

    Those are FE_MF and FE_LF unless disable_fe, and FA_MF and FA_LF unless
    disable_fa_demos.
    """
    for stage, ablated in ((Stage.FE, flags.disable_fe), (Stage.FA, flags.disable_fa_demos)):
        if not ablated:
            for fact_type in FactType:
                library._set(stage, fact_type)


class JudgeEngine:
    """Drives the staged workflow against any judge backend.

    A run sends each distinct first-attempt prompt once, in every ablation.
    Every stage call goes through one OnceMemo, keyed by what fixes its
    prompt: (stage, fact type, *input texts), that is (FE, MF, a case's fact
    text), (FE, LF, its extracted material facts) and (FA, fact type, a
    pair's two fact texts of that layer). Demos are selected from the key
    alone, so parallel pairs that ask one call share its one result object.
    The memo keeps what _call_once returns, a failure included, so every
    pair that needs a failed call fails with its one error until a rerun on
    a new engine (as each CLI command builds) tries it again; with a
    sampling backend, a pair that might have succeeded waits for that rerun.
    judge_pair is the memo's one reader, and reuse its one refill: a resumed
    run or annotation fills it from its checkpoint first, so the once holds
    across the resumes too. An AuthError is kept by nothing: every later
    call would meet it too, so it ends the run. An empty demo set that the
    flags draw from is refused at construction, before any call.

    run_id reads r<n>; n, the run number, is each request's sample_index,
    so runs with different run ids never send an equal request.

    config_fingerprint is the first 16 hex digits of a sha256 over every
    input that changes a record: the request settings (model, temperature,
    max_tokens), the demo counts, the ablation sampling seed and flags,
    each template's sha256, and the demo library: its tokenizer mode, BM25
    k1 and b, and content sha256. Case texts are not covered: a checkpoint
    is resumed against the cases file it was started with.
    """

    def __init__(
        self,
        judge: Judge,
        library: DemoLibrary,
        *,
        model: str = "gpt-3.5-turbo",
        temperature: float = 0.4,
        max_tokens: int = 1024,
        top_k_demos: int = 2,
        fa_demos_per_polarity: int = 2,
        retry: int = 2,
        flags: AblationFlags | None = None,
        templates_dir: str | Path | None = None,
        sampling_seed: int = 0,
        parallelism: int = 1,
        run_id: str | None = None,
    ):
        if top_k_demos < 1 or fa_demos_per_polarity < 1:
            raise DomainError("demo counts must be >= 1")
        if retry < 0:
            raise DomainError("retry budget must be >= 0")
        if parallelism < 1:
            raise DomainError("parallelism must be >= 1")
        self.judge = judge
        self.library = library
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.top_k_demos = top_k_demos
        self.fa_demos_per_polarity = fa_demos_per_polarity
        self.retry = retry
        self.flags = flags or AblationFlags()
        check_demo_sets(library, self.flags)
        self.templates = load_templates(templates_dir)
        self.sampling_seed = sampling_seed
        self.parallelism = parallelism
        fingerprinted = {
            "model": model,
            "temperature": temperature,
            "max_tokens": max_tokens,
            "top_k_demos": top_k_demos,
            "fa_demos_per_polarity": fa_demos_per_polarity,
            "sampling_seed": sampling_seed,
            "ablation": asdict(self.flags),
            "templates": {
                name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for name, text in sorted(self.templates.items())
            },
            "tokenizer_mode": library.tokenizer_mode,
            "bm25": {"k1": float(library.k1), "b": float(library.b)},
            "demos": library.content_sha256,
        }
        blob = json.dumps(fingerprinted, sort_keys=True, ensure_ascii=False)
        self.config_fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        self.run_id = run_id if run_id is not None else "r1"
        run_number = _RUN_ID_RE.fullmatch(self.run_id)
        if run_number is None:
            raise DomainError(f"run_id must read r<n> with n >= 1, got {self.run_id!r}")
        self.sample_index = int(run_number.group(1))
        # Weakly, so engine and memo form no cycle: a finished engine frees its calls' results at once.
        self._calls = OnceMemo(partial(JudgeEngine._call_once, weakref.proxy(self)))
        self._frames = OnceMemo(partial(_frame, self.templates, True))
        self._demo_blocks = OnceMemo(_demo_block)
        self.extractions_reused = 0  # cases reuse filled
        self.pairs_resumed = 0  # pairs judge_to_file read back as finished

    # -- prompting ---------------------------------------------------------

    def _user_text(self, stage: Stage, fact_type: FactType, demos: Sequence[Demonstration], target: str) -> str:
        """The stage line, then assemble_prompt's text with the target between its marker lines.

        Fills the stage's frame with each demo's block, both made once per engine.
        """
        blocks = [self._demo_blocks[demo, i] for i, demo in enumerate(demos, start=1)]
        return _fill(self._frames[stage, fact_type], blocks, target)

    def _demos(self, stage: Stage, fact_type: FactType, inputs: tuple[str, ...]) -> list[Demonstration]:
        """The demos of one stage call, matched to its input texts by BM25.

        This is the one place that reads the demo ablations: disable_adm
        draws them with the sampling seed under the call key "stage:fact
        type:" + the input texts joined by "\\x1f" instead, and
        disable_fa_demos leaves annotation prompts without any. Either way
        the demos follow from the call's memo key alone.
        """
        k = self.top_k_demos if stage is Stage.FE else self.fa_demos_per_polarity
        if stage is Stage.FA and self.flags.disable_fa_demos:
            return []
        if self.flags.disable_adm:
            call_key = f"{stage.value}:{fact_type.value}:" + "\x1f".join(inputs)
            return select(self.library, stage, fact_type, k, seed=self.sampling_seed, call_key=call_key)
        return select(self.library, stage, fact_type, k, inputs[0] if stage is Stage.FE else inputs)

    # -- stages ------------------------------------------------------------

    def _call_once(self, key: tuple) -> FactExtraction | FactVerdict | Exception:
        """The memo's computation: one stage call, asked until its reply parses.

        The call's demos and target follow from its key, and attempts after
        the first append the stage's reminder. Only an unparseable reply
        earns another attempt; the last parse error is reported. Returns the
        call's FactExtraction or FactVerdict, or the exception that ended it
        with its traceback cleared: returned, not raised, so the memo keeps
        it, and cleared, since the traceback would hold the engine's frames
        in a cycle through the memo. This is the one place a failure is
        kept. An AuthError is raised instead, and kept by nothing: every
        call would meet it. Under disable_fe an extraction forwards its
        input text, with no call.
        """
        stage, fact_type, inputs = key[0], key[1], key[2:]
        if stage is Stage.FE:
            if self.flags.disable_fe:
                return FactExtraction(inputs[0], "")
            target, parse, reminder = inputs[0], _extraction, FE_REMINDER
        else:
            target, parse, reminder = f"{INPUT_A}\n{inputs[0]}\n{INPUT_B}\n{inputs[1]}", _verdict, FA_REMINDER
        demos = self._demos(stage, fact_type, inputs)
        try:
            user_text = self._user_text(stage, fact_type, demos, target)
            for attempt in range(self.retry + 1):
                request = JudgeRequest(
                    system_text=SYSTEM_TEXT,
                    user_text=user_text if attempt == 0 else f"{user_text}\n\n{reminder}",
                    temperature=self.temperature,
                    model=self.model,
                    max_tokens=self.max_tokens,
                    sample_index=self.sample_index,
                )
                reply = self.judge.complete(request).text
                try:
                    return parse(reply)
                except JudgeResponseUnparseable as exc:
                    error = str(exc)  # the text, not the exception, whose traceback would hold this frame
        except AuthError:
            raise
        except Exception as exc:
            return exc.with_traceback(None)
        return JudgeResponseUnparseable(f"{error} after {self.retry + 1} attempt(s)")

    # -- pair and pool drivers ----------------------------------------------

    def reuse(self, records: Iterable[JudgmentRecord], cases: Iterable[Case]) -> None:
        """Fill the memo from finished records, in one pass over the ok ones, selecting no demos.

        judge_to_file calls this before judging, so a call that a finished
        pair made is not made again. Each case of cases takes its material
        facts, and the legal facts derived from them, from the first ok
        record that holds its id; extractions_reused counts these cases.
        Each comparison takes the verdict of the first ok record that asks
        it. What the memo already holds is left as it is, and a case in no
        ok record is left to extract as usual. The records must come from
        this configuration (judge_to_file checks the fingerprint first) and
        from the cases' present text.
        """
        calls = self._calls
        wanted = {case.id: case for case in cases if (Stage.FE, FactType.MF, case.fact_text) not in calls}
        for record in records:
            if record.status != "ok":
                continue
            (mf_q, mf_c), (lf_q, lf_c) = record.mf_extractions, record.lf_extractions
            for case_id, mf, lf in ((record.query_id, mf_q, lf_q), (record.candidate_id, mf_c, lf_c)):
                case = wanted.pop(case_id, None)
                if case is not None:
                    calls.setdefault((Stage.FE, FactType.MF, case.fact_text), mf)
                    calls.setdefault((Stage.FE, FactType.LF, mf.text), lf)
                    self.extractions_reused += 1
            calls.setdefault((Stage.FA, FactType.MF, mf_q.text, mf_c.text), record.mf_verdict)
            calls.setdefault((Stage.FA, FactType.LF, lf_q.text, lf_c.text), record.lf_verdict)

    def judge_pair(self, query: Case, candidate: Case) -> JudgmentRecord:
        """Judge one pair through all six stages, material facts first.

        Each stage's result is read from the memo under its call's key; a
        case's legal-fact key holds its extracted material facts. The first
        stage that fails ends the pair in a failed record whose error names
        it: "<stage>_<fact type>: <message>", the one failure the memo keeps
        for that call. An AuthError, which every later call would meet too,
        is raised, not recorded.
        """

        def failed(stage: Stage, fact_type: FactType, exc: Exception) -> JudgmentRecord:
            return JudgmentRecord(query.id, candidate.id, "failed", None, None, None, None, None, self.run_id,
                                  self.config_fingerprint, f"{stage.value}_{fact_type.value}: {exc}")

        calls = self._calls
        extractions = []
        for fact_type in (FactType.MF, FactType.LF):
            for i, case in enumerate((query, candidate)):
                source = case.fact_text if fact_type is FactType.MF else extractions[i].text
                extraction = calls[Stage.FE, fact_type, source]
                if isinstance(extraction, Exception):
                    return failed(Stage.FE, fact_type, extraction)
                extractions.append(extraction)
        mf_q, mf_c, lf_q, lf_c = extractions
        verdicts = []
        for fact_type, a, b in ((FactType.MF, mf_q, mf_c), (FactType.LF, lf_q, lf_c)):
            verdict = calls[Stage.FA, fact_type, a.text, b.text]
            if isinstance(verdict, Exception):
                return failed(Stage.FA, fact_type, verdict)
            verdicts.append(verdict)
        mf_verdict, lf_verdict = verdicts
        label = aggregate_label(mf_verdict.relevant, lf_verdict.relevant)
        return JudgmentRecord(query.id, candidate.id, "ok", label, (mf_q, mf_c), (lf_q, lf_c), mf_verdict, lf_verdict,
                              self.run_id, self.config_fingerprint)

    def judge_pairs(
        self,
        pairs: Sequence[tuple[Case, Case]],
        on_record: Callable[[JudgmentRecord], None] | None = None,
    ) -> list[JudgmentRecord]:
        """Judge (query, candidate) pairs; records come back in input order.

        A pair that fails becomes a failed record rather than aborting the
        batch; an AuthError aborts it. on_record sees each record as soon as
        its pair finishes, on the thread that judged the pair: in parallel,
        that is a pool thread, so on_record must be thread-safe, and it sees
        records in completion order. On an error or interrupt, pairs not yet
        started are dropped, pairs already running finish and reach
        on_record, and then the first error is raised.
        """

        def judge(query: Case, candidate: Case) -> JudgmentRecord:
            record = self.judge_pair(query, candidate)
            if on_record is not None:
                on_record(record)
            return record

        if self.parallelism == 1 or len(pairs) < 2:
            return [judge(query, candidate) for query, candidate in pairs]
        with ThreadPoolExecutor(max_workers=self.parallelism) as executor:
            futures = [executor.submit(judge, q, c) for q, c in pairs]
            try:
                for future in as_completed(futures):
                    future.result()  # raises the first error to end
            finally:
                for future in futures:
                    future.cancel()
        return [future.result() for future in futures]

    def judge_pools(
        self,
        store: CaseStore,
        pools: Sequence[CandidatePool],
        top_n: int | None = None,
    ) -> list[JudgmentRecord]:
        """Judge the pairs of pool_pairs(pools, top_n) in one scheduler, so a slow pool holds back no other."""
        return self.judge_pairs([(store.get(q), store.get(c)) for q, c in pool_pairs(pools, top_n)])


def pool_pairs(pools: Sequence[CandidatePool], top_n: int | None = None) -> list[tuple[str, str]]:
    """(query id, candidate id) of each pool's first top_n candidates, in pool then candidate order.

    top_n None takes every candidate.
    """
    if top_n is not None and top_n < 1:
        raise DomainError(f"top_n must be >= 1, got {top_n}")
    return [(pool.query_id, cid) for pool in pools for cid in pool.candidate_ids[:top_n]]


def _json_value(value) -> str:
    """value as json.dumps(value, ensure_ascii=False) writes it."""
    if type(value) is str:
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, ensure_ascii=False)


def _json_extractions(pair: tuple[FactExtraction, FactExtraction] | None) -> str:
    if pair is None:
        return "null"
    q, c = pair
    return (
        f'{{"query": {{"text": {_json_value(q.text)}, "raw_response": {_json_value(q.raw_response)}}}, '
        f'"candidate": {{"text": {_json_value(c.text)}, "raw_response": {_json_value(c.raw_response)}}}}}'
    )


def _json_verdict(v: FactVerdict | None) -> str:
    if v is None:
        return "null"
    return (
        f'{{"relevant": {_json_value(v.relevant)}, "reasoning": {_json_value(v.reasoning)}, '
        f'"raw_response": {_json_value(v.raw_response)}}}'
    )


def record_line(record: JudgmentRecord) -> str:
    """One JSON-lines line of a records file, newline included.

    The line is json.dumps(record.to_dict(), ensure_ascii=False) + "\\n",
    byte for byte, built field by field: each string goes through json's C
    string encoder, without the dict and the generic encoder around it.
    """
    return (
        f'{{"query_id": {_json_value(record.query_id)}, "candidate_id": {_json_value(record.candidate_id)}, '
        f'"status": {_json_value(record.status)}, "label": {_json_value(record.label)}, '
        f'"mf": {{"extractions": {_json_extractions(record.mf_extractions)}, '
        f'"verdict": {_json_verdict(record.mf_verdict)}}}, '
        f'"lf": {{"extractions": {_json_extractions(record.lf_extractions)}, '
        f'"verdict": {_json_verdict(record.lf_verdict)}}}, '
        f'"run_id": {_json_value(record.run_id)}, "config_fingerprint": {_json_value(record.config_fingerprint)}, '
        f'"error": {_json_value(record.error)}}}\n'
    )


def write_records_jsonl(path: str | Path, records: Iterable[JudgmentRecord]) -> None:
    atomic_write_lines(path, map(record_line, records))


def read_records_jsonl(path: str | Path) -> list[JudgmentRecord]:
    """Read a records file; its records share equal parts (see JudgmentRecord.from_dict)."""
    path = Path(path)
    shared: dict = {}
    records = []
    for line_no, row in read_jsonl(path):
        try:
            records.append(JudgmentRecord.from_dict(row, shared))
        except KeyError as exc:
            raise ParseError(f"record missing key {exc}", path=str(path), line=line_no) from None
        except TypeError as exc:
            raise ParseError(f"malformed record: {exc}", path=str(path), line=line_no) from None
    return records


def _read_checkpoint(checkpoint: Path) -> list[JudgmentRecord]:
    """A checkpoint's records, once a last line without its newline is repaired in place.

    Such a line that parses as a record is kept and given its newline; any
    other was cut short by an interrupted append, so it is logged and cut
    off, and its pair is judged again. An error on an earlier line is
    raised with the file as it was. Nothing is copied: a repair writes at
    most one byte, so it needs no free disk.
    """
    try:
        records, error = read_records_jsonl(checkpoint), None
    except ParseError as exc:
        records, error = [], exc
    with checkpoint.open("rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))  # the last byte, if any
        torn = fh.read(1) not in (b"", b"\n")
        if torn:
            fh.seek(0)
            for line_no, last in enumerate(fh, start=1):
                pass
            start = fh.tell() - len(last)
    if error is not None and (not torn or error.line != line_no):
        raise error
    if not torn:
        return records
    if error is None and not last.isspace():
        with checkpoint.open("ab") as fh:
            fh.write(b"\n")
        return records
    logger.warning("%s:%d: dropping a line cut short by an interrupted write", checkpoint, line_no)
    os.truncate(checkpoint, start)
    return read_records_jsonl(checkpoint)


def judge_to_file(
    engine: JudgeEngine,
    store: CaseStore,
    pairs: Iterable[tuple[str, str]],
    path: str | Path,
) -> list[JudgmentRecord]:
    """Judge each (query id, candidate id) pair once, appending each finished pair to path at once.

    A rerun skips pairs whose line is ok and judges failed ones again (a
    key's ok line wins, then its last failed line); it refuses a file from
    another configuration, drops a last line an interrupt cut short, and
    hands the finished records to engine.reuse, the one refill of its
    memo, assuming the cases have not changed since, so the run makes the
    calls of one uninterrupted run. Only pending pairs' cases are looked up.
    An AuthError ends the run, as in judge_pairs, with every finished pair
    already in the file.
    The file ends as the requested pairs in input order, then any others in
    file order, and is rewritten atomically only if its lines differ from
    that (after a parallel run or a superseded line). Returns one record per
    distinct pair in input order.
    """
    unique = dict.fromkeys(pairs)
    kept: dict[tuple[str, str], JudgmentRecord] = {}  # the line each key keeps, in first-seen order
    path = Path(path)
    written = _read_checkpoint(path) if path.exists() else []  # the file's lines

    def keep(record: JudgmentRecord) -> None:
        key = (record.query_id, record.candidate_id)
        held = kept.get(key)
        if held is None or held.status != "ok":
            kept[key] = record

    for record in written:
        if record.config_fingerprint != engine.config_fingerprint:
            raise IntegrityError(f"{path} was written under a different configuration")
        keep(record)
    todo = [(store.get(q), store.get(c)) for q, c in unique if (q, c) not in kept or kept[q, c].status != "ok"]
    if todo:
        engine.reuse(written, [case for pair in todo for case in pair])
    engine.pairs_resumed += len(unique) - len(todo)
    write_lock = threading.Lock()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as sink:

        def finish(record: JudgmentRecord) -> None:
            line = record_line(record)
            with write_lock:
                sink.write(line)
                sink.flush()
                written.append(record)
                keep(record)

        # finish sees pairs in completion order, on the threads that judged
        # them, so a slow pair holds back no finished line, and a pair still
        # running at an error or interrupt is written before it is raised;
        # pairs not yet started are dropped rather than judged with nowhere
        # to record them.
        engine.judge_pairs(todo, on_record=finish)
    records = [kept[key] for key in unique]
    lines = records + [record for key, record in kept.items() if key not in unique]
    if written != lines:
        atomic_write_lines(path, map(record_line, lines))
    return records
