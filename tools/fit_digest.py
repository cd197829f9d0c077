"""Bitwise fingerprint of training and cross-validation, for checking that a
refactor keeps `fit` and `cross_validate` output bit for bit.

Prints one JSON line of sha256 digests:

- `fit`: criterion 6's corpus and first split, trained with
  `bench_config(7).updated(max_epochs=3)`;
- `fit_paper_loss`: the same with the paper's recipe,
  `in_batch_weight=0, learn_scale=False, max_epochs=2`;
- `fit_paper_dims`: one epoch under `TrainConfig()` (the paper dims,
  300/150/75, dropout 0.3, so every document has its own masks) on the
  first split of a 20-instance 300-d corpus of ten-sentence documents,
  one known text each: 16 pairs in one batch, 2 dev pairs, the shape
  of perfbench's train-paper workload;
- `cv`: criterion 7's `cross_validate` report (its corpus,
  `bench_config().updated(max_epochs=2, patience=2)`, seed 42,
  `threads=1`) with its `config` object removed; `cv_config_keys` lists that
  object's keys, the one part expected to change when a config field is
  added or retired.  The same report is also built with `threads=2`
  and `threads=3`, and the script exits non-zero unless each has the
  bytes of the `threads=1` report;
- `verify`: `verify_pair` distances on 20 pairs of a 300-d corpus, two
  known texts joined against the unknown one, under `TrainConfig()`
  (the paper dims, 300/150/75) with initial weights drawn from seed 0.
  It covers the BLAS kernels of the paper dims, which the bench dims of
  the other digests do not reach;
- `pipeline`: the text pipeline alone, on criterion 9's
  `fuzz_documents(1000)` and every text of criterion 6's corpus: each
  text's normalized form, sentences and tokens, and its
  `encode_document` ids, sentence lengths, OOV counts and caps at the
  bench caps (12 words x 15 sentences) and the paper caps (33 x 123),
  resolved against criterion 6's embedding table.  A change to the
  pipeline that keeps its output byte for byte keeps this digest.

A fit digest covers the parameter bytes, the training log without its
`seconds` timings, `best_epoch`, `best_dev_accuracy` and `dev_distances`.
Each fit config also prints a `<name>_training` digest of what training
alone decides: the parameter bytes, each epoch's `train_loss`,
`grad_norm_mean` and `dev_accuracy`, and `best_epoch`.  Training and the
tape-free runs that score dev and test pairs both take GEMMs, whose
last bits can depend on the other documents of a call, so the batch a
document is trained or scored in is part of what the digests cover.  A
change to the tape-free runs alone moves the digests that hash distances
(`fit`, `fit_paper_*`, `cv`, `verify`) and keeps the `_training` ones.
The configs come from `tests/test_acceptance.py`, so the two cannot drift.

Run it against any source tree and compare the lines:

    PYTHONPATH=<tree>/src python tools/fit_digest.py

Without an importable `authverify` it falls back to the `src/` of its
own tree, and it prints the `authverify.__file__` it digested to stderr,
so a comparison of two trees can tell that it did not read one tree
twice.  It pins BLAS to one thread itself and takes 6-8 s on a
2-CPU host.  It is not part of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

# One BLAS thread, set before numpy loads, as perfbench/worker.py does:
# with more threads, BLAS may take kernels that round differently.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))
try:
    import authverify
except ModuleNotFoundError:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import authverify
print(f"digesting {os.path.realpath(authverify.__file__)}", file=sys.stderr)

from test_acceptance import bench_config, fuzz_documents  # noqa: E402

import authverify as av  # noqa: E402
from authverify.synthetic import (  # noqa: E402
    SyntheticSpec,
    generate_corpus,
    write_embeddings,
)


def load_table(tmp: str, spec: SyntheticSpec, seed: int):
    """The corpus of `spec` and its embedding table, read back from text
    as the acceptance tests and the CLI read it."""
    instances, words, emb = generate_corpus(spec, seed=seed)
    path = os.path.join(tmp, f"embeddings_{seed}.txt")
    write_embeddings(path, words, emb)
    return instances, av.load_embeddings(path, spec.emb_dim)


# Log keys that a change to the tape-free runs alone keeps: the loss and
# gradient norms come from taped runs, and a dev accuracy moves only if a
# last-bit change carries a dev distance across the threshold.
TRAINING_KEYS = ("train_loss", "grad_norm_mean", "dev_accuracy")


def fit_digests(instances, table, config) -> tuple[str, str]:
    """The full digest of a fit, and its training-only digest: the
    parameter bytes, each epoch's TRAINING_KEYS and `best_epoch`."""
    split = av.make_cv_splits(len(instances), k=10, rng=av.make_rng(config.seed))[0]
    result = av.fit(
        [instances[i] for i in split.train_ids],
        [instances[i] for i in split.dev_ids],
        table,
        config,
    )
    full, training = hashlib.sha256(), hashlib.sha256()
    for name, a in result.params.arrays().items():
        for h in (full, training):
            h.update(name.encode())
            h.update(a.tobytes())
    record = {
        "log": [{k: v for k, v in e.items() if k != "seconds"} for e in result.log],
        "best_epoch": result.best_epoch,
        "best_dev_accuracy": result.best_dev_accuracy,
        "dev_distances": result.dev_distances,
    }
    full.update(json.dumps(record, sort_keys=True).encode())
    training.update(json.dumps({
        "log": [{k: e[k] for k in TRAINING_KEYS} for e in result.log],
        "best_epoch": result.best_epoch,
    }, sort_keys=True).encode())
    return full.hexdigest(), training.hexdigest()


def pipeline_digest(instances, table) -> str:
    texts = fuzz_documents(1000)
    for x in instances:
        texts.extend(x.known_docs)
        texts.append(x.unknown_doc)
    h = hashlib.sha256()
    for text in texts:
        normalized = av.normalize_text(text)
        sentences = av.segment_sentences(normalized)
        h.update(json.dumps(
            [normalized, sentences, [av.tokenize(s) for s in sentences]]
        ).encode())
        for max_words, max_sentences in ((12, 15), (33, 123)):
            try:
                doc = av.encode_document(text, table, max_words, max_sentences)
            except av.EmptyDocumentError:
                h.update(b"empty")
                continue
            for a in (doc.ids, doc.sent_lengths, doc.sent_oov):
                h.update(a.tobytes())
            h.update(json.dumps([doc.max_words, doc.max_sentences]).encode())
    return h.hexdigest()


def verify_digest(tmp: str) -> str:
    instances, table = load_table(
        tmp, SyntheticSpec(emb_dim=300, n_instances=20, min_known=2, max_known=2),
        seed=5,
    )
    config = av.TrainConfig()
    params = av.init_encoder_params(
        config.d_w, config.d_s, config.d_d, config.init_lo, config.init_hi,
        rng=av.make_rng(0),
    )
    model = av.Model(params, config, table)
    distances = [
        av.verify_pair(model, "\n".join(x.known_docs), x.unknown_doc).distance
        for x in instances
    ]
    return hashlib.sha256(json.dumps(distances).encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        instances, table = load_table(tmp, SyntheticSpec(), seed=0)
        config = bench_config(7).updated(max_epochs=3)
        out = {"pipeline": pipeline_digest(instances, table)}
        out["fit"], out["fit_training"] = fit_digests(instances, table, config)
        out["fit_paper_loss"], out["fit_paper_loss_training"] = fit_digests(
            instances, table,
            config.updated(in_batch_weight=0.0, learn_scale=False, max_epochs=2),
        )
        instances, table = load_table(tmp, SyntheticSpec(
            emb_dim=300, n_instances=20, min_sentences=10, max_sentences=10,
            min_known=1, max_known=1,
        ), seed=3)
        out["fit_paper_dims"], out["fit_paper_dims_training"] = fit_digests(
            instances, table, av.TrainConfig(max_epochs=1, patience=1)
        )
        instances, table = load_table(tmp, SyntheticSpec(n_instances=120), seed=11)
        cv_config = bench_config().updated(max_epochs=2, patience=2, seed=42)
        report = av.cross_validate(instances, table, cv_config, k=10, threads=1)
        for threads in (2, 3):
            forked = av.cross_validate(
                instances, table, cv_config, k=10, threads=threads
            )
            if forked.to_json() != report.to_json():
                sys.exit(f"cross_validate(threads={threads}) differs from threads=1")
        payload = report.to_json_dict()
        out["cv_config_keys"] = sorted(payload.pop("config"))
        out["cv"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        out["verify"] = verify_digest(tmp)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
