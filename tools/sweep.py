"""Acceptance criterion 6's procedure over a list of seeds, for one or more
training recipes, so that a recipe is ranked by its spread over seeds and
not by the one seed the criterion runs.

For each recipe and seed it runs what `tests/test_acceptance.py` runs:
`SyntheticSpec()` with corpus seed 0, its embeddings read back from text,
`bench_config(seed)` with the recipe's overrides, split 0 of
`make_cv_splits(..., rng=make_rng(seed))`, and `fit` with its default
generator.  `bench_config` is imported from that file, so the two cannot
drift.  Per seed it reports:

- `accuracy` and `tp`/`fp`/`tn`/`fn` on the test pairs at the midpoint
  threshold, the figures criterion 6 asserts on;
- `auc`, the test pairs' ROC AUC (`evaluate.roc_auc`), for ranking alone;
- `accuracy_dev_calibrated`: test accuracy at `calibrate_tau` over the
  selected epoch's dev distances, as `cross_validate` reports per fold;
- `margin`: mean different-author minus mean same-author test distance;
- `fp_collision`, `fp_corner` and `fp_other`: the false positives split
  by distance into collisions (d < 0.5: two authors mapped to one
  point), corners (1.8 <= d < 2.0, just under the midpoint, where two
  saturated embeddings one coordinate apart lie) and the rest;
- `saturation`: the share of the test documents' level-2 output
  coordinates with |h| > 0.99, the embedding being s * h;
- `scale`: the trained output scale s of the selected epoch's
  parameters (1.0 when `learn_scale` is off);
- `epochs`, `best_epoch` and `seconds` (corpus, fit and test scoring);
- `mean_vector_accuracy`: a baseline without training, the Euclidean
  distance of each side's mean word vector, thresholded by `calibrate_tau`
  on the same split's dev pairs.

Usage:

    python tools/sweep.py --seeds 7-13 --recipe "" --recipe in_batch_weight=0 \\
        --out SWEEP_<label>.json

A recipe is a comma-separated list of `TrainConfig` overrides, each value
read as JSON (`""` is `bench_config` itself).  Seeds take single values
and inclusive ranges (`7-13 20`).  The runs go two processes at a time,
each with BLAS pinned to one thread, and the whole sweep is written as one
JSON file, with one line per run printed as it finishes.  Without an
importable `authverify` the tool falls back to the `src/` of its own tree.
It is not part of the test suite; seeds 7-13 of both recipes above take
about a minute on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed

# One BLAS thread, set before numpy loads and inherited by the workers:
# two workers share the host's CPUs, and more threads would contend.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tests"))
try:
    import authverify
except ModuleNotFoundError:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import authverify

import numpy as np  # noqa: E402

import authverify as av  # noqa: E402
from authverify.synthetic import (  # noqa: E402
    SyntheticSpec,
    generate_corpus,
    write_embeddings,
)
from test_acceptance import bench_config  # noqa: E402

PROCESSES = 2
COLLISION = 0.5  # false positives closer than this are collisions
CORNER = (1.8, 2.0)  # ... in this band, corners of the box one coordinate apart
SATURATED = 0.99  # a level-2 output coordinate beyond this is saturated
FP_BUCKETS = ("fp_collision", "fp_corner", "fp_other")


def parse_recipe(text: str) -> dict:
    """`key=value,...` as TrainConfig overrides, each value read as JSON."""
    overrides = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, sep, value = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"override {item!r} is not key=value")
        overrides[key.strip()] = json.loads(value)
    bench_config().updated(**overrides)  # an unknown field raises here
    return overrides


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def criterion6_corpus():
    """Criterion 6's corpus and its embedding table, read back from text."""
    instances, words, emb = generate_corpus(SyntheticSpec(), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "embeddings.txt")
        write_embeddings(path, words, emb)
        return instances, av.load_embeddings(path, SyntheticSpec().emb_dim)


def mean_vector_distances(pairs) -> list[float]:
    return [
        av.distance(*(d.matrix[d.ids].mean(axis=0) for d in (p.known, p.unknown)))
        for p in pairs
    ]


def false_positive_buckets(distances, labels, tau: float) -> dict:
    """The false positives at `tau` by distance: collision, corner, other."""
    buckets = Counter(
        "fp_collision" if d < COLLISION
        else "fp_corner" if CORNER[0] <= d < CORNER[1] else "fp_other"
        for d, label in zip(distances, labels) if label == 0 and d < tau
    )
    return {k: buckets[k] for k in FP_BUCKETS}


def run_seed(overrides: dict, seed: int) -> dict:
    started = time.perf_counter()
    instances, table = criterion6_corpus()
    config = bench_config(seed).updated(**overrides)
    split = av.make_cv_splits(len(instances), k=10, rng=av.make_rng(config.seed))[0]
    result = av.fit(
        [instances[i] for i in split.train_ids],
        [instances[i] for i in split.dev_ids],
        table,
        config,
    )
    test = [av.encode_instance(instances[i], table, config) for i in split.test_ids]
    dev = [av.encode_instance(instances[i], table, config) for i in split.dev_ids]
    distances, labels = av.pair_distances(result.params, test)
    dev_labels = [p.label for p in dev]
    counts = av.counts_at_threshold(distances, labels, config.thresholds.midpoint)
    tau = av.calibrate_tau(result.dev_distances, dev_labels)
    d, y = np.array(distances), np.array(labels)
    x = av.embed_documents(
        result.params, [doc for p in test for doc in (p.known, p.unknown)]
    )
    seconds = time.perf_counter() - started

    base_tau = av.calibrate_tau(mean_vector_distances(dev), dev_labels)
    base = av.counts_at_threshold(mean_vector_distances(test), labels, base_tau)
    return {
        "seed": seed,
        "accuracy": av.confusion_metrics(counts).accuracy,
        "tp": counts.tp, "fp": counts.fp, "tn": counts.tn, "fn": counts.fn,
        "auc": av.roc_auc(distances, labels),
        "accuracy_dev_calibrated": av.confusion_metrics(
            av.counts_at_threshold(distances, labels, tau)
        ).accuracy,
        "margin": float(d[y == 0].mean() - d[y == 1].mean()),
        **false_positive_buckets(distances, labels, config.thresholds.midpoint),
        "saturation": float(np.mean(np.abs(x) > SATURATED * result.params.scale[0])),
        "scale": float(result.params.scale[0]),
        "epochs": len(result.log),
        "best_epoch": result.best_epoch,
        "seconds": round(seconds, 2),
        "mean_vector_accuracy": av.confusion_metrics(base).accuracy,
    }


def summary(runs: list[dict]) -> dict:
    return {
        "accuracy_mean": float(np.mean([r["accuracy"] for r in runs])),
        "at_least_0.90": sum(r["accuracy"] >= 0.90 for r in runs),
        "auc_mean": float(np.mean([r["auc"] for r in runs])),
        "accuracy_dev_calibrated_mean": float(
            np.mean([r["accuracy_dev_calibrated"] for r in runs])
        ),
        **{k: sum(r[k] for r in runs) for k in FP_BUCKETS},
        "saturation_mean": float(np.mean([r["saturation"] for r in runs])),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["7-13"],
                        help="seeds and inclusive ranges, e.g. 7-13 20")
    parser.add_argument("--recipe", action="append", type=parse_recipe,
                        help="TrainConfig overrides key=value,...; repeatable")
    parser.add_argument("--out", required=True, help="the sweep's JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    recipes = args.recipe or [{}]
    print(f"sweeping {os.path.realpath(av.__file__)}", file=sys.stderr)

    runs: dict[tuple[int, int], dict] = {}
    with ProcessPoolExecutor(
        max_workers=PROCESSES, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        futures = {
            pool.submit(run_seed, overrides, seed): (k, seed)
            for k, overrides in enumerate(recipes)
            for seed in seeds
        }
        for future in as_completed(futures):
            k, seed = futures[future]
            runs[k, seed] = run = future.result()
            print(f"recipe {k} {json.dumps(recipes[k])}: {json.dumps(run)}", flush=True)

    out = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "blas_threads": 1,
            "processes": PROCESSES,
        },
        "seeds": seeds,
        "recipes": [],
    }
    for k, overrides in enumerate(recipes):
        rows = [runs[k, seed] for seed in seeds]
        out["recipes"].append(
            {"overrides": overrides, "summary": summary(rows), "runs": rows}
        )
        print(f"recipe {k} {json.dumps(overrides)}: {json.dumps(summary(rows))}")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
