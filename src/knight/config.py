"""Pipeline configuration: defaults, file/env/flag merging, redacted dumps.

Precedence when merging: CLI flag > environment variable > config file >
built-in default. Environment keys use the ``KNIGHT_`` prefix (for example
``KNIGHT_D_MAX=3``); credentials keep their conventional names
(``OPENAI_API_KEY``, ``NEO4J_URI``, ``NEO4J_USER``, ``NEO4J_PASS``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .errors import ConfigError

PIPELINE_MODES = ("plain", "rag", "rag_kg", "rag_val", "knight")

_SECRET_MARKERS = ("key", "pass", "token", "secret")

_ENV_PREFIX = "KNIGHT_"

# Credential env vars read without the prefix.
_CREDENTIAL_ENV = {
    "openai_api_key": "OPENAI_API_KEY",
    "neo4j_uri": "NEO4J_URI",
    "neo4j_user": "NEO4J_USER",
    "neo4j_pass": "NEO4J_PASS",
}


@dataclass
class PipelineConfig:
    d_max: int = 2
    max_branches: int = 2
    eta_overlap: float = 0.35
    lambda_max: float = 0.15
    tau_alias: float = 0.90
    delta_option: float = 0.85
    score_floor: float = 0.15
    temp_desc: float = 0.4
    temp_triples: float = 0.1
    max_tokens_triples: int = 2000
    chunk_size: int = 1000
    chunk_overlap: int = 100
    search_limit: int = 5
    summary_char_limit: int = 1000
    validation_sample_rate: float = 1.0
    pipeline_mode: str = "knight"
    rng_seed: int = 0
    # Artifact knobs beyond the core defaults.
    first_stage_cut: int = 50
    nli_threshold: float = 0.5
    max_inflight: int = 1
    retry_attempts: int = 3
    strict_adapters: bool = False
    backend: str = "mock"  # mock | openai
    graph_backend: str = "memory"  # memory | bolt
    openai_base_url: str = "https://api.openai.com/v1"
    openai_model: str = "gpt-4o-mini"
    openai_api_key: str = ""
    neo4j_uri: str = ""
    neo4j_user: str = ""
    neo4j_pass: str = ""
    fixture_dir: str = ""  # empty -> packaged fixtures

    def validate(self) -> "PipelineConfig":
        if self.d_max < 1:
            raise ConfigError("d_max must be >= 1")
        if self.max_branches < 1:
            raise ConfigError("max_branches must be >= 1")
        if self.chunk_overlap >= self.chunk_size:
            raise ConfigError("chunk_overlap must be smaller than chunk_size")
        for name in ("eta_overlap", "lambda_max", "tau_alias", "delta_option",
                     "validation_sample_rate", "nli_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.temp_desc <= 1.0 or not 0.0 <= self.temp_triples <= 1.0:
            raise ConfigError("temperatures must be in [0, 1]")
        if self.pipeline_mode not in PIPELINE_MODES:
            raise ConfigError(
                f"pipeline_mode must be one of {PIPELINE_MODES}, got {self.pipeline_mode!r}"
            )
        if self.backend not in ("mock", "openai"):
            raise ConfigError(f"backend must be mock or openai, got {self.backend!r}")
        if self.graph_backend not in ("memory", "bolt"):
            raise ConfigError(f"graph_backend must be memory or bolt, got {self.graph_backend!r}")
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        return self

    def to_dict(self, redact: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if redact and isinstance(value, str) and value and _is_secret(f.name):
                value = "••••"
            out[f.name] = value
        return out


def _is_secret(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in _SECRET_MARKERS)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse the ``key = value`` config format; ``#`` starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().lower()] = value.strip().strip("\"'")
    return values


def _coerce(name: str, raw: Any, target_type: type) -> Any:
    if isinstance(raw, target_type) and not (target_type is int and isinstance(raw, bool)):
        return raw
    text = str(raw).strip()
    try:
        if target_type is bool:
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        return target_type(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def build_config(
    flag_values: Mapping[str, Any] | None = None,
    env: Mapping[str, str] | None = None,
    config_file: str | Path | None = None,
) -> PipelineConfig:
    """Merge the three override layers onto the defaults and validate."""
    env = os.environ if env is None else env
    merged: dict[str, Any] = {}
    file_values = parse_config_file(config_file) if config_file else {}

    field_types = get_type_hints(PipelineConfig)
    for name, target in field_types.items():
        if name in file_values:
            merged[name] = _coerce(name, file_values[name], target)
        env_key = _CREDENTIAL_ENV.get(name, _ENV_PREFIX + name.upper())
        if env_key in env and env[env_key] != "":
            merged[name] = _coerce(name, env[env_key], target)
        if flag_values and name in flag_values and flag_values[name] is not None:
            merged[name] = _coerce(name, flag_values[name], target)

    unknown = set(file_values) - set(field_types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**merged).validate()
