"""bertpipe: a one-command, YAML-configured BERT pretraining pipeline.

Stages: environment check, dataset preprocessing (ingest, shuffle/shard under
a memory budget, pre-masked instance generation), pretraining with a
warmup + elastic-step-decay learning-rate schedule, finetuning with
hyperparameter search and STILT chaining, and GLUE-style result collection.

The public names below are imported from their modules on first use (PEP 562),
so ``import bertpipe.cli`` loads no stage code.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "PipelineConfig": "config",
    "get_default_config": "config",
    "load_config": "config",
    "parse_config": "config",
    "validate": "config",
    "Workspace": "pipeline",
    "run_pipeline": "pipeline",
    "ScheduleSpec": "schedule",
    "schedule_value": "schedule",
    "ShardPlan": "sharding",
    "shard_corpus": "sharding",
    "MaskingPolicy": "instances",
    "generate_instances": "instances",
    "ExternalCommandTrainer": "trainer",
    "SimulationTrainer": "trainer",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
