"""Rule checks and the five-criteria critic; an item survives only when
every applicable flag is true.

The critic judges a group of items in a single call, each on its own source
block: ``validate_item`` runs the rule checks per item, then sends every item
that passes them to ``llm_validate`` together. ``prompts.validate_user`` writes
each distinct source once per call. A call on several sources writes a topic
its items share once, in its head; when every source is a path source, the call
opens with a node block that writes each node's excerpt line and description
once, and each source block gives only its path and its start and end nodes'
names. A direct item's source is the one evidence passage it cites, so a
``rag_val`` call whose items cite several passages writes each of them once, as
a numbered source. No item gets a default verdict: every critic flag of a kept
item comes from the critic's reply. The reply holds one numbered five-line
block per item, read by ``prompts.parse_critic_response``. A block that is
missing, appears twice or does not parse costs only its own item
(``parse_failed``); a ``GatewayError`` from the call costs the whole group, and
the caller's map decides what else it costs."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, fields

from .config import PipelineConfig
from .errors import ValidationParseError
from .gateway import ChatGateway, ChatRequest
from .prompts import (
    VALIDATE_LABELS, VALIDATE_SYSTEM, Verdicts, parse_critic_response, validate_user,
)
from .qgen import McqItem

log = logging.getLogger(__name__)


@dataclass
class ValidationReport:
    grammar_fluency: bool = False
    single_correct_key: bool = False
    option_uniqueness: bool = False
    answerable_from_source: bool = False
    topic_relevant: bool | None = None  # None = not applicable
    rule_four_options: bool = False
    rule_one_key: bool = False
    rule_options_distinct: bool = False
    kept: bool = False
    parse_failed: bool = False

    _CRITERIA = tuple(label.lower() for label in VALIDATE_LABELS)
    _RULES = ("rule_four_options", "rule_one_key", "rule_options_distinct")

    def applicable_flags(self) -> list[bool]:
        flags = [getattr(self, name) for name in self._RULES + self._CRITERIA]
        return [flag for flag in flags if flag is not None]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ValidationReport":
        """Unknown keys are ignored; a flag must be a bool (``topic_relevant`` may be None)."""
        flags = {f.name: raw[f.name] for f in fields(cls) if f.name in raw}
        for name, value in flags.items():
            if not isinstance(value, bool) and (value is not None or name != "topic_relevant"):
                raise ValueError(f"flag {name} is {value!r}, not a bool")
        return cls(**flags)


def token_jaccard(a: str, b: str) -> float:
    ta = set(a.lower().split())
    tb = set(b.lower().split())
    if not ta or not tb:
        return 1.0 if ta == tb else 0.0
    return len(ta & tb) / len(ta | tb)


def rule_checks(item: McqItem, delta_option: float) -> ValidationReport:
    """Structural screens that need no model call: four options, each with
    a word; one key; distinct options. Option distinctness uses token
    Jaccard, so surface near-duplicates are caught here while abbreviation
    pairs are left to the critic."""
    report = ValidationReport()
    report.rule_four_options = len(item.options) == 4 and all(
        text.split() for text in item.options.values()
    )
    report.rule_one_key = list(item.options).count(item.answer_key) == 1
    texts = [item.options[k] for k in sorted(item.options)]
    report.rule_options_distinct = all(
        token_jaccard(texts[i], texts[j]) < delta_option
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
    )
    return report


def llm_validate(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> list[Verdicts | ValidationParseError]:
    """One critic call for ``items``, each judged on its own source block:
    each item's verdicts or ``ValidationParseError``, as ``complete_items`` reads them."""
    request = ChatRequest(
        system_prompt=VALIDATE_SYSTEM,
        user_prompt=validate_user(items),
        temperature=config.temp_triples,
        task_tag="validate",
    )
    return gateway.complete_items(
        request, [parse_critic_response] * len(items), ValidationParseError
    )


def keep(report: ValidationReport) -> bool:
    """The retention gate: every applicable flag must be true."""
    return all(report.applicable_flags())


def validate_item(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> list[ValidationReport]:
    """Full validation pass for a group of items, whatever their source
    blocks, one report per item. An item failing the rules gets no critic
    verdict, as does one whose critic block does not parse
    (``parse_failed``); neither is kept. Every other item takes its critic
    flags from its own block of one critic call shared by all the items
    that pass the rules. ``kept`` is the gate over the rule and critic
    flags."""
    reports = [rule_checks(item, config.delta_option) for item in items]
    passed = [
        index
        for index, report in enumerate(reports)
        if all(getattr(report, name) for name in ValidationReport._RULES)
    ]
    if not passed:
        return reports
    replies = llm_validate(gateway, [items[i] for i in passed], config)
    for index, verdicts in zip(passed, replies):
        item, report = items[index], reports[index]
        if isinstance(verdicts, ValidationParseError):
            log.warning("critic response unparseable for %s: %s", item.id, verdicts)
            report.parse_failed = True
            continue
        for label in VALIDATE_LABELS:
            setattr(report, label.lower(), verdicts[label])
        report.kept = keep(report)
    return reports
