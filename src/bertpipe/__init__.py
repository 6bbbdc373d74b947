"""bertpipe: a one-command, YAML-configured BERT pretraining pipeline.

Stages: environment check, dataset preprocessing (ingest, shuffle/shard under
a memory budget, pre-masked instance generation), pretraining with a
warmup + elastic-step-decay learning-rate schedule, finetuning with
hyperparameter search and STILT chaining, and GLUE-style result collection.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, get_default_config, load_config, parse_config, validate
from .pipeline import PipelineOptions, Workspace, run_pipeline
from .schedule import ScheduleSpec, esd_value, schedule_value
from .sharding import ShardPlan, shard_corpus
from .instances import MaskingPolicy, generate_instances
from .trainer import ExternalCommandTrainer, SimulationTrainer

__all__ = [
    "PipelineConfig",
    "get_default_config",
    "load_config",
    "parse_config",
    "validate",
    "PipelineOptions",
    "Workspace",
    "run_pipeline",
    "ScheduleSpec",
    "esd_value",
    "schedule_value",
    "ShardPlan",
    "shard_corpus",
    "MaskingPolicy",
    "generate_instances",
    "ExternalCommandTrainer",
    "SimulationTrainer",
]
