"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight data
criteria (4, 5, 7) build their corpora in a session temp directory; the whole
module stays within the documented runtime budgets on laptop-class hardware.
"""

from __future__ import annotations

import hashlib
import time
import zipfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import mpmath
import pytest

from bertpipe.config import parse_config, with_stage_flags
from bertpipe.ingest import CorpusSource, enumerate_corpus_files, iter_documents
from bertpipe.instances import MaskingPolicy, generate_instances, mask_rate_report
from bertpipe.pipeline import (
    COMPLETED,
    SKIPPED_DISABLED,
    SKIPPED_DONE,
    PipelineOptions,
    Workspace,
    run_pipeline,
)
from bertpipe.schedule import ScheduleSpec, esd_value, schedule_value, stage_table, warmup_steps
from bertpipe.search import SearchSpace
from bertpipe.sharding import ShardPlan, dataset_id, read_shard, shard_corpus
from bertpipe.synthdata import generate_corpus
from bertpipe.tokenization import load_vocab, resolve_vocab
from bertpipe.trainer import EarlyStopPolicy, SimulationTrainer, TrainerJob, build_pretrain_job
from bertpipe.collect import collect_best_val, summarize_val, translate_test_result

mpmath.mp.dps = 60

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({name}): PASS")


def oracle_stage_map(eta0: float, ell: int, T: int) -> list[tuple[int, int, float]]:
    """High-precision (60-digit) stage map for r = 2^(-1/2); see test_schedule."""
    r = mpmath.mpf(2) ** mpmath.mpf("-0.5")
    factor = 1 / (2 * r)

    def boundary(k: int):
        return (1 - r**k) * T

    rows = [(0, int(mpmath.floor(boundary(ell))), eta0)]
    i = ell + 1
    while int(mpmath.ceil(boundary(i - 1))) < T:
        rows.append(
            (
                int(mpmath.floor(boundary(i - 1))) + 1,
                int(mpmath.floor(boundary(i))),
                float(eta0 * factor ** (i - ell)),
            )
        )
        i += 1
    first, _, value = rows[-1]
    rows[-1] = (first, T, value)
    return rows


def test_criterion_1_scheduler_exactness():
    with criterion(1, "scheduler exactness"):
        eta0, ell = 2e-3, 6
        impl_elapsed = 0.0
        for budget in (23000, 57500):
            T = budget - warmup_steps(budget, 0.06)
            spec = ScheduleSpec(eta0=eta0, total_steps=T)
            rows = oracle_stage_map(eta0, ell, T)

            t0 = time.perf_counter()
            values = [esd_value(t, spec) for t in range(T + 1)]
            impl_elapsed += time.perf_counter() - t0

            row_iter = iter(rows)
            first, last, expected = next(row_iter)
            for t, got in enumerate(values):
                while t > last:
                    first, last, expected = next(row_iter)
                if first <= t:  # inside a stage (empty rows are skipped)
                    assert abs(got - expected) <= 1e-12 * expected, (budget, t)

            # Constant phase ends at the first integer step past (1 - r^ell) T.
            boundary = (1 - mpmath.mpf(2) ** mpmath.mpf(-ell * 0.5)) * T
            first_decay = int(mpmath.floor(boundary)) + 1
            assert values[first_decay - 1] == eta0
            assert values[first_decay] < eta0

            table = stage_table(spec)
            for prev, cur in zip(table, table[1:]):
                ratio = cur.lr / prev.lr
                assert abs(ratio - 2**-0.5) <= 1e-12
        assert impl_elapsed < 1.0, f"evaluation took {impl_elapsed:.3f}s"


def test_criterion_2_warmup_contract():
    with criterion(2, "warmup contract"):
        for budget, eta0 in ((23000, 2e-3), (57500, 1e-3)):
            w = round(0.06 * budget)
            spec = ScheduleSpec(eta0=eta0, total_steps=budget - w)
            assert warmup_steps(budget, 0.06) == w
            assert schedule_value(0, budget, spec) == 0.0
            assert schedule_value(w, budget, spec) == eta0
            for k in range(1, w):
                expected = eta0 * k / w
                assert abs(schedule_value(k, budget, spec) - expected) <= 1e-15 * expected


@pytest.fixture(scope="module")
def vocab():
    return load_vocab(resolve_vocab("mini-uncased"))


def test_criterion_3_masking_statistics(tmp_path_factory, vocab):
    with criterion(3, "masking statistics"):
        tmp = tmp_path_factory.mktemp("mask_stats")
        generate_corpus(tmp / "corpus", 5 * 2**20 + 2**19, seed=33, n_files=4)
        total = sum(p.stat().st_size for p in (tmp / "corpus").glob("*.txt"))
        assert total >= 5 * 2**20

        files = enumerate_corpus_files([CorpusSource("local_directory", str(tmp / "corpus"))])
        plan = ShardPlan(num_train_shards=4, num_test_shards=2, frac_test=0.005,
                         max_memory_bytes=2 * 2**30, seed=42)
        sharding = shard_corpus(files, plan, tmp / "spill", tmp / "shards")
        policy = MaskingPolicy(masked_lm_prob=0.15, max_predictions_per_seq=20,
                               max_seq_length=128, dup_factor=10, seed=42)
        generation = generate_instances(sharding.shards, policy, vocab, tmp / "proc",
                                        "stats", n_workers=2)
        report = mask_rate_report([f.path for f in generation.files], vocab)

        assert 0.14 <= report.mask_fraction <= 0.16
        assert abs(report.action_mask_fraction - 0.8) <= 0.02
        assert abs(report.action_random_fraction - 0.1) <= 0.02
        assert abs(report.action_keep_fraction - 0.1) <= 0.02
        assert report.max_masked_in_instance <= 20


def test_criterion_4_sharding_conservation_and_budget(tmp_path_factory):
    with criterion(4, "sharding conservation + memory budget"):
        started = time.perf_counter()
        tmp = tmp_path_factory.mktemp("gib")
        generate_corpus(tmp / "corpus", 2**30, seed=4, n_files=8,
                        article_sentences=(20, 60))
        files = enumerate_corpus_files([CorpusSource("local_directory", str(tmp / "corpus"))])

        input_digests: Counter = Counter()
        for doc in iter_documents(files):
            input_digests[hashlib.blake2b(doc.text.encode(), digest_size=16).digest()] += 1

        budget = 256 * 2**20
        plan = ShardPlan(num_train_shards=256, num_test_shards=128, frac_test=0.005,
                         max_memory_bytes=budget, seed=42)
        result = shard_corpus(files, plan, tmp / "spill", tmp / "shards")

        assert result.peak_accounted_bytes <= budget, (
            f"high-water {result.peak_accounted_bytes} exceeds budget {budget}"
        )
        output_digests: Counter = Counter()
        for shard in result.shards:
            for _, text in read_shard(shard.path):
                output_digests[hashlib.blake2b(text.encode(), digest_size=16).digest()] += 1
        assert output_digests == input_digests
        assert sum(output_digests.values()) == result.num_documents
        elapsed = time.perf_counter() - started
        assert elapsed < 600, f"took {elapsed:.0f}s"
        print(f"  [criterion 4: {result.num_documents} docs, "
              f"peak {result.peak_accounted_bytes / 2**20:.0f} MiB, {elapsed:.0f}s]")


def test_criterion_5_worker_count_determinism(tmp_path_factory, vocab):
    with criterion(5, "determinism across worker counts"):
        started = time.perf_counter()
        tmp = tmp_path_factory.mktemp("det")
        generate_corpus(tmp / "corpus", 6 * 2**20, seed=55, n_files=8)
        files = enumerate_corpus_files([CorpusSource("local_directory", str(tmp / "corpus"))])
        plan = ShardPlan(num_train_shards=8, num_test_shards=4, frac_test=0.05,
                         max_memory_bytes=2 * 2**30, seed=42)
        policy = MaskingPolicy(dup_factor=3, seed=42)

        results = {}
        for workers in (1, 8):
            shards = shard_corpus(files, plan, tmp / f"spill{workers}",
                                  tmp / f"shards{workers}", n_workers=workers)
            instances = generate_instances(shards.shards, policy, vocab,
                                           tmp / f"proc{workers}", dataset_id(shards.shards),
                                           n_workers=workers)
            results[workers] = (shards, instances)

        shards1, inst1 = results[1]
        shards8, inst8 = results[8]
        for a, b in zip(shards1.shards, shards8.shards):
            assert a.path.read_bytes() == b.path.read_bytes(), (a.split, a.index)
        assert shards1.manifest_path.read_bytes() == shards8.manifest_path.read_bytes()
        for a, b in zip(inst1.files, inst8.files):
            assert a.path.read_bytes() == b.path.read_bytes(), (a.split, a.index)
        assert dataset_id(shards1.shards) == dataset_id(shards8.shards)
        assert time.perf_counter() - started < 300


def test_criterion_6_config_fidelity():
    with criterion(6, "config and argv fidelity"):
        large = parse_config((DATA_DIR / "bert-large.yaml").read_text())
        assert large.system.num_gpus == 8
        assert large.pretrain.num_steps == 57500
        assert large.dataset.huggingface_datasets == (
            ("wikipedia", "20220301.en"), ("bookcorpusopen", "plain_text"),
        )
        assert large.tokenizer.name_or_path == "bert-large-uncased"

        customized = parse_config((DATA_DIR / "bert-customized.yaml").read_text())
        assert customized.system.max_memory_in_gb == 16
        assert "/home/user/data/pile/" in customized.dataset.customized_datasets

        preprocess = parse_config((DATA_DIR / "data-preprocess.yaml").read_text())
        assert (preprocess.pretrain.enabled, preprocess.finetune.enabled,
                preprocess.result_collection.enabled) == (False, False, False)
        train = parse_config((DATA_DIR / "train.yaml").read_text())
        assert train.dataset.enabled is False

        # The documented pretraining command, flag by flag. Regenerated argv
        # must contain every one of them with a matching value.
        printed_command = {
            "--model_type": "bert-mlm",
            "--tokenizer_name": "bert-large-uncased",
            "--hidden_act": "gelu",
            "--hidden_size": "1024",
            "--num_hidden_layers": "24",
            "--num_attention_heads": "16",
            "--intermediate_size": "4096",
            "--hidden_dropout_prob": "0.1",
            "--attention_probs_dropout_prob": "0.1",
            "--encoder_ln_mode": "pre-ln",
            "--lr": "1e-3",
            "--train_batch_size": "4096",
            "--train_micro_batch_size_per_gpu": "32",
            "--lr_schedule": "time",
            "--curve": "linear",
            "--warmup_proportion": "0.06",
            "--gradient_clipping": "0.0",
            "--optimizer_type": "adamw",
            "--weight_decay": "0.01",
            "--adam_beta1": "0.9",
            "--adam_beta2": "0.98",
            "--adam_eps": "1e-6",
            "--total_training_time": "24.0",
            "--early_exit_time_marker": "24.0",
            "--print_steps": "100",
            "--num_epochs_between_checkpoints": "10000",
            "--job_name": "pretraining_experiment",
            "--project_name": "budget-bert-pretraining",
            "--validation_epochs": "3",
            "--validation_epochs_begin": "1",
            "--validation_epochs_end": "1",
            "--validation_begin_proportion": "0.05",
            "--validation_end_proportion": "0.01",
            "--validation_micro_batch": "16",
            "--deepspeed": None,
            "--data_loader_type": "dist",
            "--do_validation": None,
            "--use_early_stopping": None,
            "--early_stop_time": "180",
            "--early_stop_eval_loss": "6",
            "--seed": "42",
            "--fp16": None,
        }
        spec = ScheduleSpec(kind="linear", eta0=1e-3,
                            total_steps=57500 - warmup_steps(57500, 0.06))
        job = build_pretrain_job(
            large, spec, "d1", dataset_path=Path("data/processed"),
            output_dir=Path("saved_models/pretrain/d1"),
        )
        argv = list(job.argv)
        for flag, expected in printed_command.items():
            assert flag in argv, f"missing {flag}"
            if expected is None:
                continue
            got = argv[argv.index(flag) + 1]
            try:
                assert float(got) == float(expected), (flag, got, expected)
            except ValueError:
                assert got == expected, (flag, got, expected)


NINE_TSVS = [
    "CoLA.tsv", "MNLI-m.tsv", "MRPC.tsv", "QNLI.tsv", "QQP.tsv",
    "RTE.tsv", "SST-2.tsv", "STS-B.tsv", "WNLI.tsv",
]


def test_criterion_7_end_to_end(tmp_path_factory, vocab):
    with criterion(7, "end-to-end pipeline"):
        started = time.perf_counter()
        tmp = tmp_path_factory.mktemp("e2e")
        generate_corpus(tmp / "corpus", 10 * 2**20, seed=77, n_files=4)
        base_yaml = (
            f"SYSTEM:\n  MAX_MEMORY_IN_GB: 0.5\n"
            f"DATASET:\n  CUSTOMIZED_DATASETS:\n    - {tmp / 'corpus'}\n"
            f"PRETRAIN:\n  NUM_STEPS: 300\n"
            f"TOKENIZER:\n  NAME_OR_PATH: mini-uncased\n"
        )
        options = PipelineOptions(
            n_workers=2,
            num_train_shards=4,
            num_test_shards=2,
            frac_test=0.05,
            dup_factor=3,
            search_space=SearchSpace(learning_rates=(1e-5, 3e-5), batch_sizes=(16,), epochs=(3,)),
        )
        ws = Workspace(tmp / "ws")

        # Stage disabling, preprocess-only shape: dataset runs, rest skipped.
        preprocess_cfg = with_stage_flags(
            parse_config(base_yaml), pretrain=False, finetune=False, result_collection=False
        )
        report_a = run_pipeline(preprocess_cfg, ws, options=options)
        assert [s.status for s in report_a.stages] == [
            COMPLETED, COMPLETED, SKIPPED_DISABLED, SKIPPED_DISABLED, SKIPPED_DISABLED,
        ]

        # Train shape: dataset disabled, preprocessed data picked up.
        train_cfg = with_stage_flags(parse_config(base_yaml), dataset=False)
        report_b = run_pipeline(train_cfg, ws, options=options)
        statuses = {s.name: s.status for s in report_b.stages}
        assert statuses["dataset"] == SKIPPED_DISABLED
        assert statuses["pretrain"] == statuses["finetune"] == statuses["collect"] == COMPLETED
        did = report_b.dataset_id
        assert did == report_a.dataset_id

        zip_path = ws.translated_dir(did) / "glue_submission.zip"
        with zipfile.ZipFile(zip_path) as zf:
            assert zf.namelist() == NINE_TSVS

        # Reproducible: re-translating the same results gives identical bytes.
        summary = summarize_val(ws.log_root, did, ws.output_root)
        best = collect_best_val(summary.results)
        again = translate_test_result(best, tmp / "zip_again")
        assert again.read_bytes() == zip_path.read_bytes()

        # Resume: a second identical invocation performs no work.
        report_c = run_pipeline(train_cfg, ws, options=options)
        assert all(
            s.status in (SKIPPED_DISABLED, SKIPPED_DONE) for s in report_c.stages
        )
        assert sum(s.status == SKIPPED_DONE for s in report_c.stages) == 4
        elapsed = time.perf_counter() - started
        assert elapsed < 300, f"took {elapsed:.0f}s"
        print(f"  [criterion 7: {elapsed:.0f}s]")


def test_criterion_8_early_stopping():
    with criterion(8, "early stopping truth table"):
        from bertpipe.trainer import check_early_stop

        policy = EarlyStopPolicy(early_stop_time_minutes=180, early_stop_eval_loss=6)
        assert check_early_stop(179, 7.0, policy) is False
        assert check_early_stop(181, 7.0, policy) is True
        assert check_early_stop(181, 5.9, policy) is False


def test_criterion_9_schedule_effect_directional(tmp_path_factory):
    with criterion(9, "schedule effect (directional)"):
        import math

        tmp = tmp_path_factory.mktemp("sched_fx")
        budget = 2000
        outcomes = {}
        for kind in ("esd", "linear"):
            spec = ScheduleSpec(kind=kind, eta0=2e-3,
                                total_steps=budget - warmup_steps(budget, 0.06))
            trainer = SimulationTrainer()
            job = TrainerJob(
                kind="pretrain",
                job_id=f"pretrain/{kind}",
                argv=(),
                hyperparams={"num_steps": budget, "schedule": spec,
                             "early_stop": EarlyStopPolicy(enabled=False)},
                output_dir=tmp / kind / "model",
                log_dir=tmp / kind / "log",
            )
            outcome = trainer.run(job)
            mass = sum(schedule_value(k, budget, spec) for k in range(budget))
            expected = trainer.loss_start * math.exp(-trainer.decay_per_lr * mass)
            assert abs(outcome.eval_loss - (expected + trainer.loss_floor)) <= 1e-9
            outcomes[kind] = (mass, outcome.eval_loss)

        (esd_mass, esd_loss), (lin_mass, lin_loss) = outcomes["esd"], outcomes["linear"]
        assert (esd_mass > lin_mass) == (esd_loss < lin_loss)
        assert esd_mass != lin_mass
