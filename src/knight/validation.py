"""Rule checks and the five-criteria critic; an item survives only when
every applicable flag is true.

The critic judges a group of items that share one source block in a single
call: ``validate_item`` runs the rule checks and the sample gate per item,
then sends the items that need the critic to ``llm_validate`` together. The
reply holds one numbered five-line block per item. A block that is missing,
appears twice or does not parse costs only its own item (``parse_failed``);
a ``GatewayError`` from the call costs the whole group, and the caller's map
decides what else it costs."""

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


Verdicts = dict[str, bool | None]

_LINE_RE = re.compile(r"^\s*([A-Za-z_]+)\s*:\s*(YES|NO|N/A)\s*$", re.IGNORECASE)


def parse_critic_response(text: str) -> Verdicts:
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
    out: Verdicts = {}
    for label, verdict in found:
        if verdict == "N/A":
            if label != "Topic_Relevant":
                raise ValidationParseError(f"N/A is only valid for Topic_Relevant, not {label}")
            out[label] = None
        else:
            out[label] = verdict == "YES"
    return out


_ITEM_RE = re.compile(r"^[^\w\n]*Item\s+(\d+)[^\w\n]*$", re.IGNORECASE | re.MULTILINE)


def parse_critic_blocks(text: str, count: int) -> list[Verdicts | ValidationParseError]:
    """Split a reply into its "Item N" blocks and parse blocks 1 to ``count``
    with ``parse_critic_response``. An item whose block is missing, appears
    twice or does not parse gets the ``ValidationParseError`` in its place."""
    parts = _ITEM_RE.split(text)  # text before the first header, then (N, block) pairs
    numbers = [int(number) for number in parts[1::2]]
    blocks = dict(zip(numbers, parts[2::2]))
    out: list[Verdicts | ValidationParseError] = []
    for number in range(1, count + 1):
        found = numbers.count(number)
        if found != 1:
            out.append(ValidationParseError(f"reply has {found} blocks for item {number}"))
            continue
        try:
            out.append(parse_critic_response(blocks[number]))
        except ValidationParseError as exc:
            out.append(exc)
    return out


def llm_validate(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> list[Verdicts | ValidationParseError]:
    """One critic call for ``items``, which share their source block; see
    ``parse_critic_blocks`` for what it returns."""
    response = gateway.complete(
        ChatRequest(
            system_prompt=VALIDATE_SYSTEM,
            user_prompt=validate_user(items, items[0].source_context),
            temperature=config.temp_triples,
            task_tag="validate",
        )
    )
    return parse_critic_blocks(response.text, len(items))


def keep(report: ValidationReport) -> bool:
    """The retention gate: every applicable flag must be true."""
    return all(report.applicable_flags())


def sample_gate(rate: float, item_id: str, rng_seed: int) -> bool:
    """Seeded per-item Bernoulli draw deciding whether the critic runs. It
    reads the item's id, not its position, so dropping one item leaves
    every other item's draw as it was."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate {rate} outside [0, 1]")
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    rng = random.Random(f"{rng_seed}:{item_id}")
    return rng.random() < rate


def validate_item(
    gateway: ChatGateway, items: list[McqItem], config: PipelineConfig
) -> list[ValidationReport]:
    """Full validation pass for a group of items that share a source block,
    one report per item. An item failing the rules gets no critic verdict,
    as does one whose critic block does not parse (``parse_failed``);
    neither is kept. Otherwise the critic flags come from a label-to-verdict
    table: the critic's block when the sample gate selects the item, else
    true by default (the topic flag not applicable without a topic) with
    ``llm_skipped`` set. The items the gate selects share one critic call.
    ``kept`` is the gate over the rule and critic flags."""
    reports = [rule_checks(item, config.delta_option) for item in items]
    passed = [
        index
        for index, report in enumerate(reports)
        if report.rule_four_options and report.rule_one_key and report.rule_options_distinct
    ]
    rate, seed = config.validation_sample_rate, config.rng_seed
    judged = [index for index in passed if sample_gate(rate, items[index].id, seed)]
    replies = {}
    if judged:
        replies = dict(zip(judged, llm_validate(gateway, [items[i] for i in judged], config)))

    for index in passed:
        item, report = items[index], reports[index]
        verdicts = replies.get(index)
        if isinstance(verdicts, ValidationParseError):
            log.warning("critic response unparseable for %s: %s", item.id, verdicts)
            report.parse_failed = True
            continue
        if verdicts is None:
            verdicts = dict.fromkeys(VALIDATE_LABELS, True)
            verdicts["Topic_Relevant"] = True if item.topic else None
            report.llm_skipped = True
        for name, label in zip(ValidationReport._CRITERIA, VALIDATE_LABELS):
            setattr(report, name, verdicts[label])
        report.kept = keep(report)
    return reports
