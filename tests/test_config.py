from __future__ import annotations

import pytest

from knight.config import PipelineConfig, build_config, parse_config_file
from knight.errors import ConfigError


def test_defaults_match_documented_values():
    cfg = PipelineConfig().validate()
    assert cfg.temp_desc == 0.4
    assert cfg.temp_triples == 0.1
    assert cfg.max_tokens_triples == 2000
    assert cfg.chunk_size == 1000
    assert cfg.chunk_overlap == 100
    assert cfg.search_limit == 5
    assert cfg.summary_char_limit == 1000
    assert cfg.max_branches == 2
    assert cfg.validation_sample_rate == 1.0
    assert cfg.eta_overlap == 0.35
    assert cfg.score_floor == 0.15
    assert cfg.tau_alias == 0.90
    assert cfg.lambda_max == 0.15
    assert cfg.delta_option == 0.85
    assert cfg.first_stage_cut == 50


@pytest.mark.parametrize(
    "overrides",
    [
        {"d_max": 0},
        {"max_branches": 0},
        {"chunk_overlap": 1000},
        {"eta_overlap": 1.5},
        {"pipeline_mode": "turbo"},
        {"backend": "llama"},
        {"graph_backend": "sqlite"},
        {"temp_desc": 2.0},
        {"max_inflight": 0},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        PipelineConfig(**overrides).validate()


def test_parse_config_file(tmp_path):
    path = tmp_path / "knight.conf"
    path.write_text(
        "# a comment\n"
        "d_max = 3\n"
        'pipeline_mode = "rag"\n'
        "\n"
        "eta_overlap = 0.5  # trailing comment\n",
        encoding="utf-8",
    )
    values = parse_config_file(path)
    assert values == {"d_max": "3", "pipeline_mode": "rag", "eta_overlap": "0.5"}


def test_parse_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("warp_speed = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        build_config(env={}, config_file=path)


def test_precedence_flag_env_file(tmp_path):
    path = tmp_path / "knight.conf"
    path.write_text("d_max = 3\nmax_branches = 4\nrng_seed = 1\n", encoding="utf-8")
    env = {"KNIGHT_D_MAX": "5", "KNIGHT_RNG_SEED": "2"}
    cfg = build_config(flag_values={"d_max": 7}, env=env, config_file=path)
    assert cfg.d_max == 7  # flag beats env beats file
    assert cfg.rng_seed == 2  # env beats file
    assert cfg.max_branches == 4  # file beats default


def test_credential_env_names():
    cfg = build_config(env={"OPENAI_API_KEY": "sk-test", "NEO4J_URI": "bolt://x:7687"})
    assert cfg.openai_api_key == "sk-test"
    assert cfg.neo4j_uri == "bolt://x:7687"


def test_secret_redaction():
    cfg = PipelineConfig(openai_api_key="sk-secret", neo4j_pass="hunter2")
    dumped = cfg.to_dict(redact=True)
    assert dumped["openai_api_key"] == "••••"
    assert dumped["neo4j_pass"] == "••••"
    assert "sk-secret" not in str(dumped)
    # unset secrets stay empty rather than being masked
    assert PipelineConfig().to_dict(redact=True)["openai_api_key"] == ""


def test_bool_coercion():
    assert build_config(env={"KNIGHT_STRICT_ADAPTERS": "true"}).strict_adapters is True
    assert build_config(env={"KNIGHT_STRICT_ADAPTERS": "0"}).strict_adapters is False
    with pytest.raises(ConfigError):
        build_config(env={"KNIGHT_STRICT_ADAPTERS": "maybe"})
