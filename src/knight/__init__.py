"""Topic-scoped knowledge-graph construction and difficulty-calibrated MCQ
dataset generation."""

from .config import build_config
from .graph import Topic
from .pipeline import MODE_TASK_TAGS, build_services, run_pipeline

__all__ = ["Topic", "build_config", "build_services", "MODE_TASK_TAGS", "run_pipeline"]
