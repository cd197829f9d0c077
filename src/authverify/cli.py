"""Command-line surface.

Subcommands: `synthetic` (generate a benchmark corpus plus embeddings),
`train` (fit one model on an 80/10/10 split), `verify` (compare two text
files under a checkpoint; `--explain` adds what the encoder read of each),
`cross-validate` (k-fold report), `gradcheck` (finite-difference suite).

All randomness flows from `--seed`; `train` draws its split and its fit
from two independent `SeedSequence` children of it.  Report output
carries no timestamps, so two runs with the same seed write identical
bytes.  An input the program rejects where it reads it (a config, an
embedding file, a corpus, a checkpoint, a text with no sentence), an
input file that does not exist, or a corpus too small for its split is a
usage error of the subcommand: exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .embeddings import EmbeddingFormatError, load_embeddings
from .evaluate import (
    Model,
    cross_validate,
    load_checkpoint,
    save_checkpoint,
    verify_pair,
)
from .gradcheck import run_suite
from .numeric import make_rng
from .preprocess import (
    CorpusFormatError,
    EmptyDocumentError,
    encode_document,
    load_corpus,
    normalize_text,
    segment_sentences,
    tokenize,
)
from .synthetic import SyntheticSpec, write_synthetic
from .train import SplitError, TrainConfig, fit, make_cv_splits

__all__ = ["main", "build_parser"]


def _load_config(args) -> TrainConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = TrainConfig.from_dict(json.load(fh))
            except ValueError as exc:  # not JSON, unknown keys, a bad value
                args.usage_error(f"{args.config}: {exc}")
    else:
        config = TrainConfig()
    if args.seed is not None:
        config = config.updated(seed=args.seed)
    return config


def _load_embeddings(args, config: TrainConfig):
    try:
        return load_embeddings(args.embeddings, config.d_w)
    except EmbeddingFormatError as exc:
        args.usage_error(f"{args.embeddings}: {exc}; the config's d_w is {config.d_w}")


def _load_corpus(args):
    try:
        return load_corpus(args.corpus)
    except CorpusFormatError as exc:
        args.usage_error(f"{args.corpus}: {exc}")


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_synthetic(args) -> int:
    try:
        spec = SyntheticSpec(n_authors=args.authors, n_instances=args.instances)
    except ValueError as exc:
        args.usage_error(str(exc))
    instances = write_synthetic(
        args.corpus, args.embeddings, spec, seed=args.seed if args.seed is not None else 0
    )
    print(
        f"wrote {len(instances)} instances to {args.corpus} and "
        f"{spec.vocab_size} embeddings to {args.embeddings}"
    )
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    table = _load_embeddings(args, config)
    instances = _load_corpus(args)
    split_seed, fit_seed = np.random.SeedSequence(config.seed).spawn(2)
    split = make_cv_splits(len(instances), k=10, rng=make_rng(split_seed))[0]
    result = fit(
        [instances[i] for i in split.train_ids],
        [instances[i] for i in split.dev_ids],
        table,
        config,
        rng=make_rng(fit_seed),
    )
    save_checkpoint(args.checkpoint, result.params, config)
    log_text = "\n".join(json.dumps(entry) for entry in result.log)
    _write_or_print(log_text, args.out)
    print(
        f"best dev accuracy {result.best_dev_accuracy:.4f} at epoch "
        f"{result.best_epoch}; checkpoint written to {args.checkpoint}",
        file=sys.stderr,
    )
    return 0


def _explain(text: str, model: Model) -> dict[str, int]:
    """What the encoder reads of one text under the model's caps, and what
    the caps cut; distinct tokens are distinct embedding rows, so every
    OOV token counts once, and are the rows level 1 projects."""
    caps = (model.config.max_words, model.config.max_sentences)
    sentences = segment_sentences(normalize_text(text))
    doc = encode_document(text, model.table, *caps)
    return {
        "sentences": doc.num_sentences,
        "tokens": doc.token_count,
        "distinct_tokens": len(np.unique(doc.ids)),
        "oov_tokens": doc.oov_count,
        "sentences_cut": len(sentences) - doc.num_sentences,
        "tokens_cut": sum(len(tokenize(s)) for s in sentences) - doc.token_count,
    }


def _cmd_verify(args) -> int:
    try:
        params, config = load_checkpoint(args.checkpoint)
    except ValueError as exc:  # not a checkpoint, or its config or dims rejected
        args.usage_error(f"{args.checkpoint}: {exc}")
    table = _load_embeddings(args, config)
    with open(args.doc_a, encoding="utf-8") as fh:
        doc_a = fh.read()
    with open(args.doc_b, encoding="utf-8") as fh:
        doc_b = fh.read()
    model = Model(params, config, table)
    try:
        payload = verify_pair(model, doc_a, doc_b).to_json_dict()
    except EmptyDocumentError as exc:  # a text with no sentence to encode
        args.usage_error(f"{args.doc_a} or {args.doc_b}: {exc}")
    payload["tau"] = config.thresholds.midpoint
    if args.explain:
        payload["explain"] = {
            "doc_a": _explain(doc_a, model), "doc_b": _explain(doc_b, model)
        }
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_cross_validate(args) -> int:
    config = _load_config(args)
    threads = 1 if args.deterministic else args.threads
    table = _load_embeddings(args, config)
    instances = _load_corpus(args)
    report = cross_validate(instances, table, config, k=args.folds, threads=threads)
    _write_or_print(report.to_json(), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_suite(
        n_lstm_configs=args.configs, seed=args.seed if args.seed is not None else 0
    )
    worst = 0
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(f"{status:4s} {report.label} ({report.checked} partials)")
        for failure in report.failures[:5]:
            print(
                f"     {failure.array}{failure.index}: analytic={failure.analytic:.3e} "
                f"numeric={failure.numeric:.3e} err={failure.error:.3e}"
            )
        worst = max(worst, len(report.failures))
    return 0 if worst == 0 else 1


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authverify",
        description="Authorship verification with a hierarchical recurrent "
        "Siamese document encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON file of TrainConfig overrides")
        p.add_argument("--seed", type=int, default=None, help="master random seed")

    p = sub.add_parser("synthetic", help="generate a synthetic benchmark corpus")
    p.add_argument("--corpus", required=True, help="output corpus JSONL path")
    p.add_argument("--embeddings", required=True, help="output embeddings path")
    p.add_argument("--instances", type=_int_at_least(1), default=800)
    p.add_argument("--authors", type=_int_at_least(2), default=40)
    add_common(p, config=False)
    p.set_defaults(func=_cmd_synthetic)

    p = sub.add_parser("train", help="train one model on an 80/10/10 split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", required=True, help="output checkpoint .npz")
    p.add_argument("--out", help="training log path (JSON lines); stdout if absent")
    add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("verify", help="compare two text files under a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("doc_a", help="first text file")
    p.add_argument("doc_b", help="second text file")
    p.add_argument("--out", help="decision JSON path; stdout if absent")
    p.add_argument(
        "--explain",
        action="store_true",
        help="add each side's sentences, tokens, distinct tokens and OOV "
        "tokens, and the sentences and tokens cut by the caps",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cross-validate", help="k-fold cross-validation report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument(
        "--threads",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="processes doing fold work: this one runs folds too and forks "
        "N-1 children",
    )
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="run the folds serially in this process (reports are "
        "seed-deterministic either way)",
    )
    p.add_argument("--out", help="report JSON path; stdout if absent")
    add_common(p)
    p.set_defaults(func=_cmd_cross_validate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument(
        "--configs", type=_int_at_least(0), default=20, help="random LSTM configs"
    )
    add_common(p, config=False)
    p.set_defaults(func=_cmd_gradcheck)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SplitError as exc:  # a corpus too small for its split
        args.usage_error(str(exc))
    except FileNotFoundError as exc:  # an input file that is not there
        args.usage_error(f"{exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
