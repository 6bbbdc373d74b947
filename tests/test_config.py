from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bertpipe.config import (
    ConfigParseError,
    ConfigValidationError,
    PipelineConfig,
    get_default_config,
    parse_config,
    serialize_config,
    validate,
    with_overrides,
)
from bertpipe.records import DEFAULT_SEED, MaskingPolicy, ScheduleSpec, SearchSpace, ShardPlan

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


class TestDefaults:
    def test_num_steps(self):
        assert get_default_config().pretrain.num_steps == 23000

    def test_all_stages_enabled(self):
        cfg = get_default_config()
        assert cfg.dataset.enabled
        assert cfg.pretrain.enabled
        assert cfg.finetune.enabled
        assert cfg.result_collection.enabled

    def test_max_memory(self):
        assert get_default_config().system.max_memory_in_gb == 64

    def test_record_keys_take_the_record_defaults(self):
        cfg = get_default_config()
        plan, policy, grid = ShardPlan(), MaskingPolicy(), SearchSpace()
        assert cfg.dataset.seed == plan.seed == policy.seed == DEFAULT_SEED
        assert (cfg.dataset.num_train_shards, cfg.dataset.num_test_shards,
                cfg.dataset.frac_test) == (plan.num_train_shards, plan.num_test_shards,
                                           plan.frac_test)
        assert (cfg.dataset.dup_factor, cfg.dataset.masked_lm_prob, cfg.dataset.max_seq_length,
                cfg.dataset.max_predictions_per_seq) == (
            policy.dup_factor, policy.masked_lm_prob, policy.max_seq_length,
            policy.max_predictions_per_seq)
        assert (cfg.pretrain.schedule, cfg.pretrain.eta0) == (ScheduleSpec.kind, ScheduleSpec.eta0)
        assert (cfg.finetune.learning_rates, cfg.finetune.batch_sizes, cfg.finetune.epochs) == (
            grid.learning_rates, grid.batch_sizes, grid.epochs)
        assert len(cfg.finetune.tasks) == 9

    def test_tokenizer_and_datasets(self):
        cfg = get_default_config()
        assert cfg.tokenizer.name_or_path == "bert-large-uncased"
        assert cfg.dataset.customized_datasets == ()
        assert cfg.dataset.huggingface_datasets == ()


class TestParse:
    def test_bert_large_example(self):
        cfg = parse_config((DATA_DIR / "bert-large.yaml").read_text())
        assert cfg.system.num_gpus == 8
        assert cfg.dataset.huggingface_datasets == (
            ("wikipedia", "20220301.en"),
            ("bookcorpusopen", "plain_text"),
        )
        assert cfg.pretrain.num_steps == 57500
        assert cfg.tokenizer.name_or_path == "bert-large-uncased"

    def test_customized_example(self):
        cfg = parse_config((DATA_DIR / "bert-customized.yaml").read_text())
        assert cfg.system.max_memory_in_gb == 16
        assert "/home/user/data/pile/" in cfg.dataset.customized_datasets
        assert cfg.wandb.api_key == "x" * 40

    def test_stage_disabling_examples(self):
        preprocess = parse_config((DATA_DIR / "data-preprocess.yaml").read_text())
        assert preprocess.dataset.enabled
        assert not preprocess.pretrain.enabled
        assert not preprocess.finetune.enabled
        assert not preprocess.result_collection.enabled

        train = parse_config((DATA_DIR / "train.yaml").read_text())
        assert not train.dataset.enabled
        assert train.pretrain.enabled and train.finetune.enabled

    def test_empty_document_is_default(self):
        assert parse_config("") == get_default_config()

    def test_case_insensitive_sections(self):
        cfg = parse_config("system:\n  num_gpus: 4\nPretrain:\n  Num_Steps: 5\n")
        assert cfg.system.num_gpus == 4
        assert cfg.pretrain.num_steps == 5

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigValidationError, match="SYSTM"):
            parse_config("SYSTM:\n  NUM_GPUS: 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigValidationError, match="PRETRAIN.NUM_STEP"):
            parse_config("PRETRAIN:\n  NUM_STEP: 100\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigValidationError, match="NUM_STEPS"):
            parse_config("PRETRAIN:\n  NUM_STEPS: lots\n")
        with pytest.raises(ConfigValidationError, match="ENABLED"):
            parse_config("DATASET:\n  ENABLED: maybe\n")

    @pytest.mark.parametrize("text, key_path", [
        ("FINETUNE:\n  ENABLED: 1\n", "FINETUNE.ENABLED"),
        ("SYSTEM:\n  NUM_GPUS: 1.5\n", "SYSTEM.NUM_GPUS"),
        ("SYSTEM:\n  MAX_MEMORY_IN_GB: true\n", "SYSTEM.MAX_MEMORY_IN_GB"),
        ("TOKENIZER:\n  NAME_OR_PATH: null\n", "TOKENIZER.NAME_OR_PATH"),
        ("WANDB:\n  API_KEY: 5\n", "WANDB.API_KEY"),
        ("DATASET:\n  CUSTOMIZED_DATASETS: [1]\n", "DATASET.CUSTOMIZED_DATASETS"),
        ("DATASET:\n  HUGGINGFACE_DATASETS: wikipedia\n", "DATASET.HUGGINGFACE_DATASETS"),
        ("DATASET:\n  SEED: 1.5\n", "DATASET.SEED"),
        ("FINETUNE:\n  TASKS: MNLI\n", "FINETUNE.TASKS"),
        ("FINETUNE:\n  LEARNING_RATES: [fast]\n", "FINETUNE.LEARNING_RATES"),
        ("FINETUNE:\n  BATCH_SIZES: [16.0]\n", "FINETUNE.BATCH_SIZES"),
        ("FINETUNE:\n  EPOCHS: [true]\n", "FINETUNE.EPOCHS"),
        ("PRETRAIN:\n  ETA0: '1e-3'\n", "PRETRAIN.ETA0"),
    ])
    def test_each_field_type_rejects_a_wrong_value(self, text, key_path):
        with pytest.raises(ConfigValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.key_path == key_path

    def test_exponent_without_a_dot_is_a_number(self):
        # YAML 1.1, which yaml.SafeLoader implements, reads these as text.
        cfg = parse_config("PRETRAIN:\n  ETA0: 1e-3\nFINETUNE:\n  LEARNING_RATES: [1e-5, 3E-5]\n")
        assert cfg.pretrain.eta0 == 1e-3 and isinstance(cfg.pretrain.eta0, float)
        assert cfg.finetune.learning_rates == (1e-5, 3e-5)
        assert all(isinstance(lr, float) for lr in cfg.finetune.learning_rates)
        # Text of that form stays text: it is written quoted.
        cfg = parse_config("DATASET:\n  ID: '1e5'\n")
        assert cfg.dataset.id == "1e5" and parse_config(serialize_config(cfg)) == cfg

    def test_number_lists_by_field_type(self):
        cfg = parse_config("FINETUNE:\n  LEARNING_RATES: [1, 2.5e-5]\n  BATCH_SIZES: [8]\n"
                           "  EPOCHS: null\n")
        assert cfg.finetune.learning_rates == (1.0, 2.5e-5)
        assert isinstance(cfg.finetune.learning_rates[0], float)
        assert cfg.finetune.batch_sizes == (8,) and cfg.finetune.epochs == ()

    def test_null_and_integer_values_by_field_type(self):
        cfg = parse_config("SYSTEM:\n  MAX_MEMORY_IN_GB: 16\nDATASET:\n  ID: null\n"
                           "  CUSTOMIZED_DATASETS: null\n  HUGGINGFACE_DATASETS: null\n")
        assert cfg.system.max_memory_in_gb == 16.0
        assert isinstance(cfg.system.max_memory_in_gb, float)
        assert cfg.dataset == get_default_config().dataset

    def test_malformed_yaml_reports_line(self):
        bad = "SYSTEM:\n  NUM_GPUS: 8\n   bad_indent: { unclosed\n"
        with pytest.raises(ConfigParseError) as excinfo:
            parse_config(bad)
        assert excinfo.value.line is not None

    def test_hf_pairs_must_be_pairs(self):
        with pytest.raises(ConfigValidationError, match="HUGGINGFACE_DATASETS"):
            parse_config("DATASET:\n  HUGGINGFACE_DATASETS:\n    - [only_one]\n")

    def test_parse_is_pure(self):
        text = (DATA_DIR / "bert-customized.yaml").read_text()
        assert parse_config(text) == parse_config(text)


class TestValidate:
    def test_default_config_missing_datasets(self):
        violations = validate(get_default_config())
        assert len(violations) == 1
        assert violations[0].key_path == "DATASET"

    def test_bert_large_example_valid(self):
        cfg = parse_config((DATA_DIR / "bert-large.yaml").read_text())
        assert validate(cfg) == []

    def test_zero_steps(self):
        cfg = parse_config(
            "DATASET:\n  CUSTOMIZED_DATASETS: [/data]\nPRETRAIN:\n  NUM_STEPS: 0\n"
        )
        paths = [v.key_path for v in validate(cfg)]
        assert paths == ["PRETRAIN.NUM_STEPS"]

    def test_disabled_stage_relaxes_invariant(self):
        cfg = parse_config("DATASET:\n  ENABLED: False\n")
        assert validate(cfg) == []

    def test_disabled_stage_records_are_not_built(self):
        # A grid that SearchSpace rejects does no harm while no stage reads it.
        cfg = parse_config("DATASET:\n  CUSTOMIZED_DATASETS: [/data]\n"
                           "FINETUNE:\n  ENABLED: False\n  LEARNING_RATES: [1.0e-5, 1.0e-5]\n"
                           "RESULT_COLLECTION:\n  ENABLED: False\n")
        assert validate(cfg) == []
        errors = validate(with_overrides(cfg, {"FINETUNE.ENABLED": True}))
        assert [str(error) for error in errors] == [
            "FINETUNE.LEARNING_RATES: learning rate 1e-05 is repeated in the grid"]


# -- Round-trip property --------------------------------------------------

_names = st.text(st.characters(min_codepoint=48, max_codepoint=122), min_size=1, max_size=12)


@st.composite
def pipeline_configs(draw) -> PipelineConfig:
    from bertpipe.config import (
        DatasetConfig,
        FinetuneConfig,
        PretrainConfig,
        ResultCollectionConfig,
        SystemConfig,
        TokenizerConfig,
        WandbConfig,
    )

    return PipelineConfig(
        system=SystemConfig(
            num_gpus=draw(st.integers(1, 64)),
            max_memory_in_gb=draw(st.floats(0.1, 1024, allow_nan=False)),
        ),
        wandb=WandbConfig(api_key=draw(st.none() | _names)),
        dataset=DatasetConfig(
            enabled=draw(st.booleans()),
            id=draw(st.none() | _names),
            customized_datasets=tuple(draw(st.lists(_names, max_size=3))),
            huggingface_datasets=tuple(draw(st.lists(st.tuples(_names, _names), max_size=3))),
            seed=draw(st.integers(0, 2**63)),
            frac_test=draw(st.floats(0, 1, exclude_max=True)),
        ),
        pretrain=PretrainConfig(
            enabled=draw(st.booleans()), num_steps=draw(st.integers(1, 10**6)),
            schedule=draw(st.sampled_from(("esd", "linear"))),
            eta0=draw(st.floats(1e-9, 1.0)),
        ),
        finetune=FinetuneConfig(
            enabled=draw(st.booleans()),
            tasks=tuple(draw(st.lists(_names, max_size=3))),
            learning_rates=tuple(draw(st.lists(st.floats(1e-9, 1.0), max_size=3))),
            batch_sizes=tuple(draw(st.lists(st.integers(1, 512), max_size=3))),
        ),
        result_collection=ResultCollectionConfig(enabled=draw(st.booleans())),
        tokenizer=TokenizerConfig(name_or_path=draw(_names)),
    )


@given(pipeline_configs())
def test_serialize_parse_round_trip(cfg: PipelineConfig):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    # A second round trip is a fixed point.
    assert serialize_config(parse_config(text)) == text


@given(st.booleans(), st.booleans())
def test_defaulting_is_monotone(pretrain_present: bool, dataset_present: bool):
    """Keys absent from the text always take the default value."""
    parts = []
    if pretrain_present:
        parts.append("PRETRAIN:\n  NUM_STEPS: 777\n")
    if dataset_present:
        parts.append("DATASET:\n  ENABLED: False\n")
    cfg = parse_config("".join(parts))
    default = get_default_config()
    assert cfg.pretrain.num_steps == (777 if pretrain_present else default.pretrain.num_steps)
    assert cfg.dataset.enabled == (False if dataset_present else default.dataset.enabled)
    assert cfg.system == default.system
    assert cfg.tokenizer == default.tokenizer


def test_with_overrides_coerces_like_the_yaml():
    cfg = parse_config("DATASET:\n  DUP_FACTOR: 3\nFINETUNE:\n  TASKS: [CoLA]\n")
    changed = with_overrides(cfg, {"DATASET.SEED": 7, "FINETUNE.LEARNING_RATES": (1, 3e-5)})
    assert changed == parse_config("DATASET:\n  DUP_FACTOR: 3\n  SEED: 7\nFINETUNE:\n"
                                   "  TASKS: [CoLA]\n  LEARNING_RATES: [1, 3.0e-5]\n")
    assert with_overrides(cfg, {}) == cfg
    with pytest.raises(ConfigValidationError) as excinfo:
        with_overrides(cfg, {"FINETUNE.BATCH_SIZES": ("16",)})
    assert excinfo.value.key_path == "FINETUNE.BATCH_SIZES"


def test_with_overrides_sets_stage_flags():
    cfg = with_overrides(get_default_config(), {"PRETRAIN.ENABLED": False,
                                                "FINETUNE.ENABLED": False})
    assert cfg.dataset.enabled and not cfg.pretrain.enabled and not cfg.finetune.enabled
    assert cfg.result_collection.enabled
    for key_path in ("SYSTEM.ENABLED", "TOKENIZER.ENABLED", "COLLECT.ENABLED"):
        with pytest.raises(ConfigValidationError, match=f"{key_path}: unknown key"):
            with_overrides(cfg, {key_path: False})
