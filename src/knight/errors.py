"""Exception hierarchy shared across the pipeline, and ``abort_label``."""

from __future__ import annotations


class KnightError(Exception):
    """Base class for every error this package raises deliberately."""


def abort_label(exc: Exception) -> str:
    """A cut-short command's ``aborted_reason``: the error's class, then its message."""
    return f"{type(exc).__name__}: {exc}"


class ConfigError(KnightError):
    """Invalid or incomplete configuration (bad values, missing env vars)."""


class GraphError(KnightError):
    """Structural graph violation: unknown node, dangling edge endpoint."""


class GatewayError(KnightError):
    """Base class for chat-backend failures."""


class AuthError(GatewayError):
    """Backend rejected the credentials; never retried."""


class RetriesExhaustedError(GatewayError):
    """Transient failures persisted past the retry budget."""


class EmptyResponseError(GatewayError):
    """Backend returned no usable text."""


class RetrievalError(KnightError):
    """Wiki search or fetch failed; never retried (``choose_titles`` or
    ``retrieve_evidence`` logs it)."""


class PageNotFoundError(KnightError):
    """Requested source page does not exist."""


class AmbiguousTitleError(KnightError):
    """Title is a disambiguation page; ``retrieve_evidence`` logs it and tries no other title."""


class ExtractionError(KnightError):
    """A gloss or triples reply block is missing, empty or has no parseable
    triple payload."""


class GenerationRejected(KnightError):
    """A generated item failed a structural contract (parse or key placement)."""


class ValidationParseError(KnightError):
    """Critic response did not contain the five expected check lines."""


class AdapterError(KnightError):
    """An auxiliary scoring adapter (embedding, NLI, ontology, policy) failed."""


class SnapshotFormatError(KnightError):
    """Snapshot file cannot be read, is not a JSON object, or has a missing or
    malformed field; ``cli.main`` reports it as an ``error:`` line."""


class SnapshotVersionError(KnightError):
    """Snapshot schema version is not supported; an ``error:`` line too."""


class JsonlError(KnightError):
    """Malformed JSONL line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class StoreError(KnightError):
    """Graph store backend failure: missing driver, unreachable server, auth,
    or a failed write while mirroring the graph."""
