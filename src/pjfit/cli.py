"""Command-line entry points.

Subcommands: ``synth`` (generate a dataset directory), ``augment``
(rewrite short JDs through a completion client), ``train`` (fit and
checkpoint a model, reporting test metrics), ``eval`` (score a test split
from a checkpoint), ``rank`` (order candidates for one job).

Every command is deterministic given its seed and inputs. Output files
embed no timestamps except in a leading ``#`` header line, which also
carries wall-clock timings; everything after that line is byte-stable
across reruns.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 runtime,
divergence or internal error (an operand shape mismatch inside the model,
or a ``KeyError``: every data path turns a missing id or key into a data
error, so one that reaches ``main`` is a fault of the program).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import pjfit
from pjfit.augment import (
    CompletionError,
    MockCompletionClient,
    HttpCompletionClient,
    TemplateError,
    augment_batch,
    default_library,
    load_template_dir,
    original_jd_texts,
)
from pjfit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pjfit.config import ABLATIONS, TrainConfig, train_config_from_dict
from pjfit.domain import Dataset, DatasetError, load_data_dir, validate_records
from pjfit.domain.records import save_data_dir
from pjfit.metrics import UndefinedMetricError
from pjfit.numerics import DimensionError, TrainingDivergedError
from pjfit.synth import SynthConfig, generate_dataset, synth_config_from_dict
from pjfit.training import evaluate, rank_candidates, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ------------------------------------------------------------ reports


def version_string() -> str:
    """git-describe when available, package version otherwise."""
    try:
        out = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"pjfit-{pjfit.__version__}"


def write_report(path, command: str, payload: dict, elapsed_ms: float) -> None:
    """Header line carries the only volatile content (time, duration)."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    header = f"# pjfit {command} generated={stamp} elapsed_ms={elapsed_ms:.1f}\n"
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(header + body, encoding="utf-8")


# ------------------------------------------------------------ commands


def cmd_synth(args) -> int:
    overrides = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = synth_config_from_dict(overrides)
    except TypeError as exc:
        # only the config file can hold a value of the wrong type
        raise DatasetError(f"config {args.config}: {exc}") from exc
    dataset, meta = generate_dataset(cfg)
    save_data_dir(dataset, meta, args.out)
    baseline = meta["baseline_cosine_auc"]
    # the baseline is undefined when the test split lacks a label
    shown = "n/a" if baseline is None else f"{baseline:.3f}"
    print(f"wrote {meta['n_candidates']} candidates, {meta['n_jobs']} jobs, "
          f"{meta['n_pairs']} pairs to {args.out} (baseline cosine AUC {shown})")
    return 0


def cmd_augment(args) -> int:
    started = time.perf_counter()
    dataset, meta = load_data_dir(args.data)
    if args.template_dir:
        templates = load_template_dir(args.template_dir, dataset.vocab.names)
    else:
        templates = default_library(dataset.vocab.names)
    if args.client == "mock":
        client = MockCompletionClient(seed=args.mock_seed,
                                      failure_rate=args.mock_failure_rate,
                                      keyword_drop_rate=args.mock_keyword_drop_rate)
    else:
        client = HttpCompletionClient()
    updated, records = augment_batch(dataset, client, templates,
                                     threshold=args.threshold,
                                     parallelism=args.parallelism)
    meta = dict(meta)
    meta["augment_threshold"] = args.threshold
    meta["augmented_jobs"] = sum(1 for r in records if r.accepted)
    save_data_dir(updated, meta, args.out)
    log_path = Path(args.out) / "augment_log.jsonl"
    log_path.write_text(
        "".join(json.dumps(dataclasses.asdict(r), ensure_ascii=False, sort_keys=True) + "\n"
                for r in records),
        encoding="utf-8")
    elapsed = (time.perf_counter() - started) * 1000
    accepted = sum(1 for r in records if r.accepted)
    print(f"augmented {accepted}/{len(records)} selected JDs in {elapsed:.0f} ms; "
          f"log at {log_path}")
    return 0


def _resolve_train_config(args, dataset: Dataset) -> TrainConfig:
    """Defaults, overlaid by the config file, overlaid by CLI flags.

    d_model and the category count follow the dataset unless the config
    file pins them explicitly.
    """
    doc = _load_json(args.config) if args.config else {}
    model_doc = doc.pop("model", {})
    if not isinstance(model_doc, dict):
        raise DatasetError(f"config {args.config}: \"model\" must be a JSON object")
    if args.ablation is not None:
        model_doc["ablation"] = args.ablation
    model_doc.setdefault("d_model", dataset.embedding_dim)
    model_doc.setdefault("n_categories", len(dataset.vocab))
    if args.seed is not None:
        doc["seed"] = args.seed

    try:
        return train_config_from_dict({**doc, "model": model_doc})
    except TypeError as exc:
        # only the config file can hold a value of the wrong type
        raise DatasetError(f"config {args.config}: {exc}") from exc


def _split(dataset: Dataset, meta: dict) -> tuple[Dataset, Dataset]:
    if "split_ts" not in meta:
        raise DatasetError("data directory has no split_ts in meta.json; "
                           "cannot derive the temporal train/test split")
    return dataset.split_temporal(meta["split_ts"])


def cmd_train(args) -> int:
    started = time.perf_counter()
    dataset, meta = load_data_dir(args.data)
    config = _resolve_train_config(args, dataset)
    if args.jd_text == "original":
        dataset = original_jd_texts(dataset)
    train_ds, test_ds = _split(dataset, meta)
    result = train(train_ds, config)
    save_checkpoint(result.store, config.model, args.checkpoint_out)
    # evaluate from the stored 32-bit weights so `eval` reproduces exactly
    reloaded, cfg = load_checkpoint(args.checkpoint_out)
    metrics = evaluate(test_ds, reloaded, cfg)
    payload = {
        "command": "train",
        "config": dataclasses.asdict(config),
        "data": str(args.data),
        "jd_text": args.jd_text,
        "n_train_pairs": len(train_ds.pairs),
        "n_test_pairs": len(test_ds.pairs),
        "dataset_report": dataclasses.asdict(validate_records(
            train_ds, config.short_jd_threshold)),
        "metrics": metrics,
        "loss_trace": result.losses,
        "skipped_positives": result.skipped_positives,
        "checkpoint": str(args.checkpoint_out),
        "version": version_string(),
    }
    elapsed = (time.perf_counter() - started) * 1000
    write_report(args.report_out, "train", payload, elapsed)
    print(f"trained {result.steps} steps; test metrics: "
          + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items() if k != "n_pairs"))
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    store, cfg = load_checkpoint(args.checkpoint)
    dataset, meta = load_data_dir(args.data)
    _, test_ds = _split(dataset, meta)
    metrics = evaluate(test_ds, store, cfg)
    elapsed = (time.perf_counter() - started) * 1000
    payload = {
        "command": "eval",
        "checkpoint": str(args.checkpoint),
        "data": str(args.data),
        "model": dataclasses.asdict(cfg),
        "metrics": metrics,
        "n_test_pairs": len(test_ds.pairs),
        "version": version_string(),
    }
    write_report(args.report_out, "eval", payload, elapsed)
    print(", ".join(f"{k}={v:.4f}" for k, v in metrics.items() if k != "n_pairs"))
    return 0


def cmd_rank(args) -> int:
    started = time.perf_counter()
    store, cfg = load_checkpoint(args.checkpoint)
    dataset, _ = load_data_dir(args.data)
    candidate_ids = (args.candidates.split(",") if args.candidates
                     else sorted(dataset.candidates))
    ranking = rank_candidates(args.job, candidate_ids, store, cfg, dataset)
    elapsed = (time.perf_counter() - started) * 1000
    per_pair = elapsed / max(len(ranking), 1)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [f"# pjfit rank job={args.job} generated={stamp} "
             f"elapsed_ms={elapsed:.1f} ms_per_pair={per_pair:.2f}\n"]
    lines += [f"{cid}\t{score!r}\n" for cid, score in ranking]
    Path(args.out).write_text("".join(lines), encoding="utf-8")
    print(f"ranked {len(ranking)} candidates for {args.job} "
          f"({per_pair:.1f} ms/pair); top: {ranking[0][0]}")
    return 0


# ------------------------------------------------------------ wiring


def _load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"config {path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def build_parser() -> _Parser:
    parser = _Parser(prog="pjfit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.add_argument("--out", required=True, help="output data directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="rewrite short job descriptions")
    p.add_argument("--data", required=True, help="input data directory")
    p.add_argument("--template-dir", help="directory of prompt template files")
    p.add_argument("--threshold", type=int, default=200,
                   help="character-length threshold for low-quality JDs (default 200)")
    p.add_argument("--client", choices=("mock", "http"), default="mock")
    p.add_argument("--parallelism", type=int, default=4,
                   help="max in-flight completion requests (default 4)")
    p.add_argument("--mock-seed", type=int, default=0)
    p.add_argument("--mock-failure-rate", type=float, default=0.0)
    p.add_argument("--mock-keyword-drop-rate", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output data directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file with training/model settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--ablation", choices=ABLATIONS, default=None,
                   help="none | no_moe (single-FFN head) | no_category (zeroed gate input) | "
                        "simple_match (binary category feature, single head) | "
                        "no_fine_interaction (passed-resume-evaluation stage only)")
    p.add_argument("--jd-text", choices=("augmented", "original"), default="augmented",
                   help="JD texts to train and evaluate on (default: augmented)")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="rank candidates for one job")
    p.add_argument("--job", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--candidates", help="comma-separated ids (default: all candidates)")
    p.add_argument("--out", required=True, help="output table file")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DimensionError, KeyError) as exc:
        # a bug in the program, not bad input; caught before ValueError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, CheckpointError, TemplateError, UndefinedMetricError,
            ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, CompletionError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
