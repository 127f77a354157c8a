"""Rule checks and the five-criteria critic; an item survives only when
every applicable flag is true."""

from __future__ import annotations

import logging
import random
import re
from dataclasses import asdict, dataclass, fields

from .config import PipelineConfig
from .errors import ValidationParseError
from .gateway import ChatGateway, ChatRequest
from .prompts import VALIDATE_LABELS, VALIDATE_SYSTEM, validate_user
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
    llm_skipped: bool = False
    parse_failed: bool = False

    _CRITERIA = (
        "grammar_fluency",
        "single_correct_key",
        "option_uniqueness",
        "answerable_from_source",
        "topic_relevant",
    )
    _RULES = ("rule_four_options", "rule_one_key", "rule_options_distinct")

    def applicable_flags(self) -> list[bool]:
        flags = [getattr(self, name) for name in self._RULES]
        for name in self._CRITERIA:
            value = getattr(self, name)
            if value is None:
                continue
            flags.append(value)
        return flags

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ValidationReport":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in raw.items() if k in known})


def token_jaccard(a: str, b: str) -> float:
    ta = set(a.lower().split())
    tb = set(b.lower().split())
    if not ta or not tb:
        return 1.0 if ta == tb else 0.0
    return len(ta & tb) / len(ta | tb)


def rule_checks(item: McqItem, delta_option: float) -> ValidationReport:
    """Structural screens that need no model call. Option distinctness uses
    token Jaccard, so surface near-duplicates are caught here while
    abbreviation pairs are left to the critic."""
    report = ValidationReport()
    report.rule_four_options = len(item.options) == 4
    report.rule_one_key = list(item.options).count(item.answer_key) == 1
    texts = [item.options[k] for k in sorted(item.options)]
    report.rule_options_distinct = all(
        token_jaccard(texts[i], texts[j]) < delta_option
        for i in range(len(texts))
        for j in range(i + 1, len(texts))
    )
    return report


_LINE_RE = re.compile(r"^\s*([A-Za-z_]+)\s*:\s*(YES|NO|N/A)\s*$", re.IGNORECASE)


def parse_critic_response(text: str) -> dict[str, bool | None]:
    """Parse exactly the five labeled lines, in order. YES -> True,
    NO -> False, N/A -> None (allowed only on the topic line)."""
    found: list[tuple[str, str]] = []
    for line in text.splitlines():
        match = _LINE_RE.match(line)
        if match:
            found.append((match.group(1), match.group(2).upper()))
    labels = [label for label, _ in found]
    if labels != list(VALIDATE_LABELS):
        raise ValidationParseError(
            f"expected the five check lines {VALIDATE_LABELS}, got {labels}"
        )
    out: dict[str, bool | None] = {}
    for label, verdict in found:
        if verdict == "N/A":
            if label != "Topic_Relevant":
                raise ValidationParseError(f"N/A is only valid for Topic_Relevant, not {label}")
            out[label] = None
        else:
            out[label] = verdict == "YES"
    return out


def llm_validate(
    gateway: ChatGateway,
    item: McqItem,
    source_context: str,
    config: PipelineConfig,
) -> dict[str, bool | None]:
    response = gateway.complete(
        ChatRequest(
            system_prompt=VALIDATE_SYSTEM,
            user_prompt=validate_user(
                item.question, item.options, item.answer_key, item.topic or None, source_context
            ),
            temperature=config.temp_triples,
            task_tag="validate",
        )
    )
    return parse_critic_response(response.text)


def keep(report: ValidationReport) -> bool:
    """The retention gate: every applicable flag must be true."""
    return all(report.applicable_flags())


def sample_gate(rate: float, item_index: int, rng_seed: int) -> bool:
    """Seeded per-item Bernoulli draw deciding whether the critic runs."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate {rate} outside [0, 1]")
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    rng = random.Random(f"{rng_seed}:{item_index}")
    return rng.random() < rate


def validate_item(
    gateway: ChatGateway,
    item: McqItem,
    item_index: int,
    config: PipelineConfig,
) -> ValidationReport:
    """Full validation pass for one item. An item failing the rules returns
    at once, with no critic call, as does one whose critic reply does not
    parse (``parse_failed``); neither is kept. Otherwise the critic flags
    come from a label-to-verdict table: the critic's reply when the sample
    gate selects the item, else true by default (the topic flag not
    applicable without a topic) with ``llm_skipped`` set. ``kept`` is the
    gate over the rule and critic flags."""
    report = rule_checks(item, config.delta_option)
    if not (report.rule_four_options and report.rule_one_key and report.rule_options_distinct):
        return report

    if sample_gate(config.validation_sample_rate, item_index, config.rng_seed):
        try:
            verdicts = llm_validate(gateway, item, item.source_context, config)
        except ValidationParseError as exc:
            log.warning("critic response unparseable for %s: %s", item.id, exc)
            report.parse_failed = True
            return report
    else:
        verdicts = dict.fromkeys(VALIDATE_LABELS, True)
        verdicts["Topic_Relevant"] = True if item.topic else None
        report.llm_skipped = True

    for name, label in zip(ValidationReport._CRITERIA, VALIDATE_LABELS):
        setattr(report, name, verdicts[label])
    report.kept = keep(report)
    return report
