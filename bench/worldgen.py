"""Seeded synthetic fixture worlds for the benchmark.

A world is a planted tree of terms. Each term at level k < depth names
exactly ``branches`` child terms at level k + 1, so a build with
``max_branches == branches`` and ``d_max == depth`` expands every term and
has exactly ``branches ** depth`` paths of ``depth`` hops from the seed. The
other facts of a term are there to exercise the build layers without changing
that shape:

* near-duplicate pairs: two facts to an ancestor whose relations differ by
  one suffix, so ``dedup_triples`` must drop one of each pair;
* alias facts: the tail is a planted alias of an ancestor (the embedding
  table scores the pair above ``tau_alias``), so curation re-attributes it;
* duplicate facts: the tail is an ancestor's own name;
* filler facts: tails that the ontology, NLI or policy table rejects.

Cross links only ever point at ancestors, which adds no simple path from
the seed and keeps every node at its planted level. Any two facts of one
term that are not a planted near-duplicate pair stay further apart than
``lambda_max``, so dedup drops nothing else.

``write_world`` writes the tables ``load_world`` and ``FixtureWikiSource``
read, and returns the ``Planted`` facts the output checks compare against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

LAMBDA_MAX = 0.15
ALIAS_COSINE = 0.95
NLI_MARKER = "disputed"
POLICY_MARKER = "forbidden"
TYPED_RELATION = "located_in"

# Every generated word has three consonant-vowel syllables and every
# relation is two such words, so all seeds give keys of the same lengths and
# the edit-distance work of dedup does not depend on the seed.
_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
# The mock gloss repeats these headings; pages carry them so the
# traceability gate sees them in the evidence.
_TEMPLATE_WORDS = (
    "definition scope domains use subfields disciplines key concepts mechanisms "
    "real world applications case studies examples related overlapping terms "
    "current research trends closely relationship parent sits within"
).split()


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one synthetic world; every count is per term."""

    depth: int = 3
    branches: int = 2
    near_dup_pairs: int = 0
    aliases: int = 0
    duplicates: int = 0
    fillers: int = 0
    topic_facts: int = 0  # extra child facts on the seed only (direct generation)
    page_words: int = 1000
    paragraph_words: int = 100
    leaf_page_words: int | None = None  # pages of the deepest level, if shorter


@dataclass
class Planted:
    """What the generator planted, for checks made apart from the program."""

    seed: str
    facts: set[tuple[str, str, str]] = field(default_factory=set)
    aliases: dict[str, str] = field(default_factory=dict)
    near_dups: list[tuple[tuple[str, str, str], tuple[str, str, str]]] = field(default_factory=list)
    names: dict[str, str] = field(default_factory=dict)
    seed_tails: list[str] = field(default_factory=list)

    reattributed: set[tuple[str, str, str]] = field(default_factory=set)

    def allows_edge(self, head: str, relation: str, tail: str) -> bool:
        """An edge between node ids is a planted fact, or the alias
        re-attribution of one."""
        edge = (head, relation, tail)
        return edge in self.facts or edge in self.reattributed


def key(name: str) -> str:
    """Node id of a generated name. Generated names have no leading article
    and never end in "s" (every word ends in a vowel), so lowercasing and collapsing whitespace is the
    program's normalization."""
    return " ".join(name.lower().split())


def within(a: str, b: str, k: int) -> bool:
    """True iff the edit distance of ``a`` and ``b`` is at most ``k``
    (banded dynamic program)."""
    if abs(len(a) - len(b)) > k:
        return False
    big = k + 1
    prev = [j if j <= k else big for j in range(len(b) + 1)]
    for i in range(1, len(a) + 1):
        lo, hi = max(1, i - k), min(len(b), i + k)
        cur = [big] * (len(b) + 1)
        cur[0] = i if i <= k else big
        for j in range(lo, hi + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost, big)
        if min(cur) > k:
            return False
        prev = cur
    return prev[len(b)] <= k


def _near(a: tuple[str, str, str], b: tuple[str, str, str]) -> bool:
    ka, kb = "|".join(a), "|".join(b)
    return within(ka, kb, int(LAMBDA_MAX * max(len(ka), len(kb))))


class _Namer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        return "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(3))

    def name(self, prefix: str = "") -> str:
        while True:
            name = " ".join(w for w in (prefix, self.word().title(), self.word().title()) if w)
            if key(name) not in self.used:
                self.used.add(key(name))
                return name

    def relation(self) -> str:
        while True:
            rel = f"{self.word()}_{self.word()}"
            if rel not in self.used:
                self.used.add(rel)
                return rel


@dataclass
class _Term:
    name: str
    level: int
    ancestors: list[str]
    triples: list[tuple[str, str, str]] = field(default_factory=list)


def _plant_term(term: _Term, spec: WorldSpec, namer: _Namer, rng: random.Random,
                planted: Planted, children: list[str]) -> None:
    facts: list[tuple[str, str, str]] = [(term.name, namer.relation(), c) for c in children]
    pairs: list[tuple[tuple[str, str, str], tuple[str, str, str]]] = []
    if term.ancestors:
        for _ in range(spec.near_dup_pairs):
            target = rng.choice(term.ancestors)
            while True:
                rel = namer.relation()
                pair = ((term.name, rel, target), (term.name, rel + "ed", target))
                if not any(_near(pair[0], f) for p in pairs for f in p):
                    break
            pairs.append(pair)
        for _ in range(spec.aliases):
            alias = namer.name()
            planted.aliases[key(alias)] = key(rng.choice(term.ancestors))
            facts.append((term.name, namer.relation(), alias))
        for _ in range(spec.duplicates):
            facts.append((term.name, namer.relation(), rng.choice(term.ancestors)))
    kinds = ("type", "nli", "policy")
    for i in range(spec.fillers):
        kind = kinds[i % len(kinds)]
        if kind == "type":
            facts.append((term.name, TYPED_RELATION, namer.name()))
        elif kind == "nli":
            facts.append((term.name, namer.relation(), namer.name(NLI_MARKER.title())))
        else:
            facts.append((term.name, namer.relation(), namer.name(POLICY_MARKER.title())))
    # Keep unrelated facts of one term apart: a fact is redrawn until no
    # fact placed before it, and no planted pair, lies within lambda_max.
    placed = [f for pair in pairs for f in pair]
    for a, b in pairs:
        if not _near(a, b):
            raise AssertionError(f"planted near-duplicate pair too far apart: {a} {b}")
        planted.near_dups.append(((key(a[0]), a[1], key(a[2])), (key(b[0]), b[1], key(b[2]))))
    for fact in facts:
        while any(_near(fact, other) for other in placed):
            if fact[1] == TYPED_RELATION:
                fact = (fact[0], fact[1], namer.name())
            else:
                fact = (fact[0], namer.relation(), fact[2])
        placed.append(fact)
    facts = placed
    rng.shuffle(facts)
    term.triples = facts


def _paragraph(term: _Term, rng: random.Random, filler: list[str], words: int) -> str:
    sentences: list[str] = []
    count = 0
    facts = term.triples or [(term.name, "is", term.name)]
    while count < words:
        h, r, t = facts[rng.randrange(len(facts))]
        sentence = f"{h} {r.replace('_', ' ')} {t}."
        if rng.random() < 0.5:
            body = [rng.choice(filler) for _ in range(rng.randint(6, 12))]
            body.insert(rng.randrange(len(body) + 1), term.name)
            sentence += " " + " ".join(body).capitalize() + "."
        sentences.append(sentence)
        count += len(sentence.split())
    return " ".join(sentences)


def _page(term: _Term, spec: WorldSpec, rng: random.Random, filler: list[str]) -> str:
    words = spec.page_words
    if term.level == spec.depth and spec.leaf_page_words is not None:
        words = spec.leaf_page_words
    paragraphs = [
        _paragraph(term, rng, filler, min(words, spec.paragraph_words))
        for _ in range(max(1, words // spec.paragraph_words))
    ]
    return "\n\n".join(paragraphs) + "\n"


def write_world(root: Path, spec: WorldSpec, seed: int) -> Planted:
    """Write the world for ``seed`` under ``root`` and return what it planted."""
    rng = random.Random(f"world:{seed}")
    namer = _Namer(rng)
    seed_name = namer.name()
    planted = Planted(seed=key(seed_name))
    filler = [namer.word() for _ in range(200)] + _TEMPLATE_WORDS * 4

    terms: list[_Term] = []
    level_terms = [_Term(seed_name, 0, [])]
    while level_terms:
        next_level: list[_Term] = []
        for term in level_terms:
            extra = spec.topic_facts if term.level == 0 else 0
            width = spec.branches + extra if term.level < spec.depth else spec.branches
            children = [namer.name() for _ in range(width)]
            _plant_term(term, spec, namer, rng, planted, children)
            terms.append(term)
            if term.level < spec.depth:
                next_level.extend(
                    _Term(c, term.level + 1, term.ancestors + [term.name]) for c in children
                )
        level_terms = next_level

    for term in terms:
        planted.names[key(term.name)] = term.name
        for h, r, t in term.triples:
            planted.facts.add((key(h), r, key(t)))
    planted.reattributed = {
        (h, r, planted.aliases[t]) for h, r, t in planted.facts if t in planted.aliases
    }
    planted.seed_tails = [t for _h, _r, t in terms[0].triples]

    corpus = root / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    world_terms, search, titles = {}, {}, {}
    for i, term in enumerate(terms):
        world_terms[key(term.name)] = {
            "name": term.name,
            "hint": f"a level {term.level} concept in the study of {seed_name}",
            "triples": [list(t) for t in term.triples],
        }
        filename = f"page{i:05d}.txt"
        search[key(term.name)] = [term.name]
        titles[term.name] = filename
        (corpus / filename).write_text(_page(term, spec, rng, filler), encoding="utf-8")

    type_fail = {key(t): "person" for term in terms for _h, r, t in term.triples if r == TYPED_RELATION}
    tables = {
        "world.json": {"version": 1, "terms": world_terms},
        "search_index.json": {"version": 1, "search": search, "titles": titles,
                              "disambiguation": []},
        "embeddings.json": {"version": 1, "pairs": [
            [alias, target, ALIAS_COSINE] for alias, target in planted.aliases.items()
        ]},
        "nli.json": {"version": 1, "identity_score": 1.0, "default": 0.9, "rules": [
            {"hypothesis_contains": NLI_MARKER, "score": 0.1},
        ]},
        "ontology.json": {"version": 1, "term_types": type_fail,
                          "relation_types": {TYPED_RELATION: ["city", "place"]}},
        "policy.json": {"version": 1, "blocked_terms": [POLICY_MARKER]},
    }
    for name, doc in tables.items():
        (root / name).write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
    return planted
