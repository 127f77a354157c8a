"""Topic-scoped knowledge-graph construction and difficulty-calibrated MCQ
dataset generation."""

from .builder import BuildReport, build_kg
from .config import PIPELINE_MODES, PipelineConfig, build_config
from .curation import CurationOutcome, content_filter, curate
from .graph import (
    Edge,
    KnowledgeGraph,
    Node,
    PathSample,
    Topic,
    Triple,
    add_curated,
    enumerate_paths,
    normalize_name,
)
from .pipeline import MODE_TASK_TAGS, PipelineResult, build_services, run_pipeline
from .qgen import McqItem, generate_mcq, parse_mcq_output, sample_paths, verbalize
from .synthesis import dedup_triples, extract_triples, gate_gloss, generate_gloss, overlap
from .validation import ValidationReport, keep, llm_validate, rule_checks

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "build_kg",
    "PIPELINE_MODES",
    "PipelineConfig",
    "build_config",
    "CurationOutcome",
    "content_filter",
    "curate",
    "Edge",
    "KnowledgeGraph",
    "Node",
    "PathSample",
    "Topic",
    "Triple",
    "add_curated",
    "enumerate_paths",
    "normalize_name",
    "MODE_TASK_TAGS",
    "PipelineResult",
    "build_services",
    "run_pipeline",
    "McqItem",
    "generate_mcq",
    "parse_mcq_output",
    "sample_paths",
    "verbalize",
    "dedup_triples",
    "extract_triples",
    "gate_gloss",
    "generate_gloss",
    "overlap",
    "ValidationReport",
    "keep",
    "llm_validate",
    "rule_checks",
    "__version__",
]
