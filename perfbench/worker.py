"""One workload process of the authverify benchmark.

    python3 perfbench/worker.py gen     --workload W --seed N --dir D
    python3 perfbench/worker.py setup   --workload W --dir D
    python3 perfbench/worker.py measure --workload W --dir D --seconds S --trace 0|1

`gen` writes the workload's inputs (corpus, embedding and checkpoint or
config files) from the seed; `authverify.synthetic` is used only here
and is never timed.  `setup` times the program's start-up alone.
`measure` starts up, runs the workload's operation in a closed loop
with one client for S seconds, checks the outputs outside the timed
region, and prints one JSON object.  Run from the root of a checkout:
the program is imported from its `src/` directory.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One BLAS thread, set before numpy loads, so that cv's fold threads
# are the only parallelism (2-thread OpenBLAS next to another process
# ran recurrent GEMMs several times slower than 1 thread).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

BENCH_DIMS = dict(d_w=20, d_s=10, d_d=5, max_words=12, max_sentences=15)
SETUP_PROBES = 10  # start-ups timed in fresh processes during a run
FIXED_SHAPE = dict(min_known=1, max_known=1)

# Workload definitions.  `spec` overrides SyntheticSpec defaults; `config`
# overrides TrainConfig defaults (whose dims are the paper's: 300/150/75,
# 33 words x 123 sentences, batch 32, dropout 0.3); `min_ops` is the least
# number of operations an untraced run makes, whatever --seconds says.
WORKLOADS = {
    # Acceptance-suite shape (criterion 6's corpus and dims), 64 train /
    # 16 dev pairs (two batches) per fit, label-balanced so dev_loss is
    # comparable across seeds.  Per-call Python overhead dominates.  Short
    # fits give about twenty repeats a run, so the fastest one is taken
    # in a fast moment of the host.
    "train-small": dict(kind="train", spec={}, n_train=64, n_dev=16, min_ops=4,
                        config=dict(BENCH_DIMS, max_epochs=1, patience=1)),
    # Paper dims on one batch of 8 pairs: arithmetic-bound,
    # backward-dominated, and the padded (123, 33, 300) tensors cost
    # memory.  Fixed document counts and lengths keep the work per run
    # nearly equal across seeds; a 1.5 s fit repeats about fifteen times.
    "train-paper": dict(kind="train", spec=dict(emb_dim=300, n_instances=40,
                                                min_sentences=10, max_sentences=10,
                                                **FIXED_SHAPE),
                        n_train=8, n_dev=2, min_ops=2,
                        config=dict(max_epochs=1, patience=1)),
    # Inference on raw text at the paper dims, untrained init weights.
    # Two known documents and four sentences a document keep the work of
    # a pair nearly the same across seeds, and >= 1000 calls (so ten lie
    # beyond p99) inside one run; each of the 50 pairs is verified 25
    # times or more, so its fastest repeat is taken in a fast moment.
    "verify": dict(kind="verify", min_ops=1000,
                   spec=dict(emb_dim=300, n_instances=50, min_sentences=4,
                             max_sentences=4, min_known=2, max_known=2),
                   config={}),
    # The fold loop and its thread pool, one epoch per fold; 40
    # instances give each fold one batch of 32 train, 4 dev and 4 test
    # pairs, and four-sentence documents let a run repeat it several times.
    "cv": dict(kind="cv", spec=dict(n_instances=40, min_sentences=4, max_sentences=4,
                                    **FIXED_SHAPE), folds=10,
               min_ops=3,
               config=dict(BENCH_DIMS, max_epochs=1, patience=1)),
}


def _import_authverify():
    import authverify

    if not os.path.realpath(authverify.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"authverify imported from {authverify.__file__}, not {SRC}")
    return authverify


# ----------------------------------------------------------------- inputs


def _balanced(instances, n_dev, n_train):
    """Label-balanced dev and train subsets, each in corpus order."""
    pos = [i for i, x in enumerate(instances) if x.label == 1]
    neg = [i for i, x in enumerate(instances) if x.label == 0]
    hd, ht = n_dev // 2, n_train // 2
    if len(pos) < hd + ht or len(neg) < hd + ht:
        raise ValueError("corpus too small for the requested split")
    dev = sorted(pos[:hd] + neg[:hd])
    train = sorted(pos[hd:hd + ht] + neg[hd:hd + ht])
    return [instances[i] for i in train], [instances[i] for i in dev]


def gen(workload: str, seed: int, out: str) -> None:
    _import_authverify()
    from authverify.encoder import init_encoder_params
    from authverify.evaluate import save_checkpoint
    from authverify.numeric import make_rng
    from authverify.preprocess import save_corpus
    from authverify.synthetic import SyntheticSpec, generate_corpus, write_embeddings
    from authverify.train import TrainConfig

    w = WORKLOADS[workload]
    spec = SyntheticSpec(**w["spec"])
    config = TrainConfig(**w["config"], seed=seed)
    instances, words, emb = generate_corpus(spec, seed=seed)
    os.makedirs(out, exist_ok=True)
    write_embeddings(os.path.join(out, "embeddings.txt"), words, emb)
    if w["kind"] == "train":
        train, dev = _balanced(instances, w["n_dev"], w["n_train"])
        save_corpus(train, os.path.join(out, "train.jsonl"))
        save_corpus(dev, os.path.join(out, "dev.jsonl"))
    else:
        save_corpus(instances, os.path.join(out, "corpus.jsonl"))
    if w["kind"] == "verify":
        params = init_encoder_params(
            config.d_w, config.d_s, config.d_d, config.init_lo, config.init_hi,
            make_rng(seed),
        )
        save_checkpoint(os.path.join(out, "checkpoint.npz"), params, config)
    else:
        with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, sort_keys=True)


# ----------------------------------------------------------------- set-up


def setup(workload: str, d: str) -> dict:
    """Import the program and load the workload's files; returns the state
    plus `setup_s` (from this process's first statement) and part times."""
    parts = {}
    t = time.perf_counter()
    av = _import_authverify()
    parts["import_s"] = time.perf_counter() - t
    kind = WORKLOADS[workload]["kind"]
    state = {"av": av, "kind": kind}
    t = time.perf_counter()
    if kind == "train":
        state["train"] = av.load_corpus(os.path.join(d, "train.jsonl"))
        state["dev"] = av.load_corpus(os.path.join(d, "dev.jsonl"))
    else:
        state["corpus"] = av.load_corpus(os.path.join(d, "corpus.jsonl"))
    parts["load_corpus_s"] = time.perf_counter() - t
    if kind == "verify":
        t = time.perf_counter()
        params, config = av.load_checkpoint(os.path.join(d, "checkpoint.npz"))
        parts["load_checkpoint_s"] = time.perf_counter() - t
        state["params"] = params
    else:
        with open(os.path.join(d, "config.json"), encoding="utf-8") as fh:
            config = av.TrainConfig.from_dict(json.load(fh))
    state["config"] = config
    t = time.perf_counter()
    state["table"] = av.load_embeddings(os.path.join(d, "embeddings.txt"), config.d_w)
    parts["load_embeddings_s"] = time.perf_counter() - t
    if kind == "verify":
        state["model"] = av.Model(state["params"], config, state["table"])
    state["setup_s"] = time.perf_counter() - _T0
    state["setup_parts"] = parts
    return state


# ----------------------------------------------------------------- workloads


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


class TrainWorkload:
    """One operation is one `train.fit` call with a fixed epoch count."""

    op_span = "train.fit"

    def __init__(self, state, w):
        self.s = state
        self.batches = math.ceil(len(state["train"]) / state["config"].batch_size)
        self.one_pass = 1  # operations that cover every input once

    def op(self, i):
        s = self.s
        return s["av"].fit(s["train"], s["dev"], s["table"], s["config"])

    def attempted(self, result):
        return self.batches * len(result.log)

    def pairs(self, result):
        return len(self.s["train"]) * len(result.log)

    @staticmethod
    def digest(result):
        log = [{k: v for k, v in e.items() if k != "seconds"} for e in result.log]
        arrays = result.params.arrays()
        return _sha(*[arrays[k].tobytes() for k in sorted(arrays)], log,
                    result.best_epoch, result.best_dev_accuracy)

    def run_digest(self, results):
        return self.digest(results[0])

    def readings(self, results):
        r = results[0]
        return {"dev_loss": r.log[r.best_epoch - 1]["dev_loss"],
                "dev_accuracy": r.best_dev_accuracy}

    def check(self, results):
        av, s = self.s["av"], self.s
        failures = []
        if len({self.digest(r) for r in results}) != 1:
            failures.append("repeated fits gave different outputs")
        r = results[0]
        for e in r.log:
            if not (math.isfinite(e["train_loss"]) and math.isfinite(e["dev_loss"])):
                failures.append(f"non-finite loss in epoch {e['epoch']}")
        dev_pairs = [av.encode_instance(x, s["table"], s["config"]) for x in s["dev"]]
        counts = av.evaluate_pairs(r.params, dev_pairs, s["config"].thresholds)
        accuracy = (counts.tp + counts.tn) / counts.total
        if accuracy != r.best_dev_accuracy:
            failures.append(f"evaluate_pairs accuracy {accuracy!r} != fit's "
                            f"best_dev_accuracy {r.best_dev_accuracy!r}")
        return failures


class VerifyWorkload:
    """One operation is one `evaluate.verify_pair` call; the loop cycles
    over the corpus pairs (known documents joined with a newline against
    the unknown document)."""

    op_span = "evaluate.verify_pair"

    def __init__(self, state, w):
        self.s = state
        corpus = state["corpus"]
        self.texts = [("\n".join(x.known_docs), x.unknown_doc) for x in corpus]
        self.one_pass = len(self.texts)

    def op(self, i):
        a, b = self.texts[i % len(self.texts)]
        return i % len(self.texts), self.s["av"].verify_pair(self.s["model"], a, b)

    def attempted(self, result):
        return 1

    def pairs(self, result):
        return 1

    def scores(self, results):
        first = {}
        for idx, score in results:
            first.setdefault(idx, score)
        return [first[i] for i in range(len(self.texts))]

    def run_digest(self, results):
        return _sha([(sc.distance, sc.decision, sc.margin)
                     for sc in self.scores(results)])

    def readings(self, results):
        return {}

    def check(self, results):
        av, s = self.s["av"], self.s
        failures = []
        scores = self.scores(results)
        for idx, score in results:
            if score != scores[idx]:
                failures.append(f"pair {idx} scored differently on a repeat")
                break
        for idx, sc in enumerate(scores):
            if not math.isfinite(sc.distance):
                failures.append(f"pair {idx}: non-finite distance")
            if (sc.decision == av.SAME_AUTHOR) != (sc.margin < 0):
                failures.append(f"pair {idx}: decision {sc.decision} vs margin {sc.margin}")
        for idx, x in enumerate(s["corpus"][:50]):  # the slow reference path
            pair = av.encode_instance(x, s["table"], s["config"])
            (dist,), _ = av.pair_distances(s["params"], [pair])
            if dist != scores[idx].distance:
                failures.append(f"pair {idx}: verify_pair distance "
                                f"{scores[idx].distance!r} != pair_distances {dist!r}")
        return failures


class CvWorkload:
    """One operation is one `evaluate.cross_validate` call with one fold
    thread per CPU."""

    op_span = "evaluate.cross_validate"

    def __init__(self, state, w):
        self.s = state
        self.k = w["folds"]
        self.threads = len(os.sched_getaffinity(0))
        self.one_pass = 1

    def op(self, i):
        s = self.s
        return s["av"].cross_validate(s["corpus"], s["table"], s["config"],
                                      k=self.k, threads=self.threads)

    def attempted(self, result):
        return self.k

    def pairs(self, result):
        return len(self.s["corpus"])

    @staticmethod
    def digest(report):
        return _sha(report.to_json())

    def run_digest(self, results):
        return self.digest(results[0])

    def readings(self, results):
        return {"cv_accuracy": results[0].aggregate["accuracy"]["mean"]}

    def check(self, results):
        report = results[0]
        failures = []
        if len({self.digest(r) for r in results}) != 1:
            failures.append("repeated cross-validations gave different outputs")
        if len(report.folds) != self.k:
            failures.append(f"{len(report.folds)} folds, expected {self.k}")
        tested = sum(f.counts.total for f in report.folds)
        if tested != len(self.s["corpus"]):
            failures.append(f"{tested} test decisions for {len(self.s['corpus'])} instances")
        for f in report.folds:
            if not all(0.0 <= v <= 1.0 for v in f.metrics.as_dict().values()):
                failures.append(f"fold {f.fold_index}: metric outside [0, 1]")
        return failures


KINDS = {"train": TrainWorkload, "verify": VerifyWorkload, "cv": CvWorkload}


# ----------------------------------------------------------------- measuring


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _loop(wl, seconds, min_ops, traced=None, probe=None, n_probes=0, mark=0):
    """Closed loop, one client: run operations back to back until the next
    one would end past `seconds` (and at least `min_ops` have run).

    `traced`, if given, is a Tracer that is enabled for every other pass
    over the inputs, so that traced and untraced operations alternate
    under the same host conditions.  `probe()`, if given, runs `n_probes`
    times at evenly spaced points of the loop's time, between operations;
    its time is left out of the loop's.  Returns (traced, duration,
    result) for each operation, the probe results, and the peak RSS read
    after operation `mark`.
    """
    ops, probes = [], []
    peak = None
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        on = traced is not None and (i // wl.one_pass) % 2 == 1
        if on:
            traced.enable()
        try:
            with traced.span(wl.op_span) if on else contextlib.nullcontext():
                t = time.perf_counter()
                out = wl.op(i)
                d = time.perf_counter() - t
        finally:
            if on:
                traced.disable()
        ops.append((on, d, out))
        i += 1
        if i == mark:
            peak = _peak_rss_mb()
        elapsed = time.perf_counter() - start - paused
        done = i >= min_ops and elapsed + elapsed / i > seconds
        while probe is not None and len(probes) < n_probes and (
                done or elapsed >= (len(probes) + 0.5) * seconds / n_probes):
            t = time.perf_counter()
            probes.append(probe())
            paused += time.perf_counter() - t
        if done:
            return ops, probes, peak


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def reference_kernel_ms() -> float:
    """Median time of a fixed GEMV loop: a host-speed diagnostic that
    scales no metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    w, v = rng.random((256, 256)), rng.random(256)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(1000):
            v = w @ v
            v /= v[0]
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def _best(durations, n_inputs):
    """Mean over the distinct inputs of each one's fastest repeat.

    Operation i works on input i % n_inputs.  The host's speed changes
    within a second by up to a factor of two while the work stays the
    same, so the fastest repeat of an input holds far steadier from run
    to run than a median does.  The mean over verify's pairs moves less
    with the seed than the median pair's length.
    """
    fastest = {}
    for i, d in enumerate(durations):
        k = i % n_inputs
        fastest[k] = min(fastest.get(k, d), d)
    return statistics.fmean(fastest.values())


def _percentile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _setup_probe(workload: str, d: str) -> float:
    """Set-up time and its parts in a fresh process that only starts up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", "--workload", workload,
         "--dir", d], capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, d: str, seconds: float, trace: bool) -> dict:
    state = setup(workload, d)
    w = WORKLOADS[workload]
    out = {"setup_s": state["setup_s"], "setup_parts": state["setup_parts"],
           "env": environment(), "ref_kernel_ms": reference_kernel_ms(),
           "failures": [], "attempted": 0, "setup_samples": [state["setup_s"]],
           "setup_part_samples": [state["setup_parts"]]}
    wl = KINDS[w["kind"]](state, w)
    tracer = probe = None
    if trace:
        from spans import Tracer, wrap_authverify, layer_metrics, shares

        tracer = Tracer()
        cfg = state["config"]
        wrap_authverify(tracer, {cfg.d_w: 1, cfg.d_s: 2})
        min_ops = 2 * wl.one_pass  # one untraced and one traced pass
    else:
        min_ops = max(wl.one_pass, w["min_ops"])
        # start-ups are timed between operations, spread over the run, so
        # that their median covers the run rather than one moment of the host
        probe = lambda: _setup_probe(workload, d)  # noqa: E731
    ticks = _cpu_ticks()
    try:
        ops, probes, peak = _loop(wl, seconds, min_ops, tracer, probe, SETUP_PROBES,
                                  mark=wl.one_pass)
    except Exception:
        traceback.print_exc()
        out["failures"].append("an operation raised")
        ops, probes, peak = [], [], None
    # the share of CPU time the hypervisor gave to other guests during the
    # loop: a host diagnostic, like the reference kernel, that scales nothing
    after = _cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        out["steal_frac"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    out["setup_samples"] += [p["setup_s"] for p in probes]
    out["setup_part_samples"] += [p["setup_parts"] for p in probes]
    if peak is not None:
        out["peak_rss_mb"] = peak
    out["attempted"] = sum(wl.attempted(r) for _, _, r in ops) or 1
    all_results = []
    stats = {}
    for phase, on in (("untraced", False), ("traced", True)):
        durations = [dur for t, dur, _ in ops if t == on]
        results = [r for t, _, r in ops if t == on]
        if not durations:
            continue
        all_results.append(results)
        stats[phase] = {
            "ops": len(durations),
            "p50_s": statistics.median(durations),
            "best_s": _best(durations, wl.one_pass),
            "p99_s": _percentile(durations, 0.99),
            "pairs_per_op": wl.pairs(results[0]),
        }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, stats.get("traced", {}).get("ops", 0),
                                      wl.op_span)
        out["shares"] = shares(tracer, wl.op_span)
        out["absent"] = tracer.absent
        tracer.write(os.path.join(d, "spans.csv"))
    out["stats"] = stats
    # the high-water mark of the whole loop, before the output checks
    # (which hold more documents at once than the workload does)
    out["peak_rss_run_mb"] = _peak_rss_mb()
    results = [r for _, _, r in ops]
    if results:
        digests = {wl.run_digest(rs) for rs in all_results if rs}
        if len(digests) != 1:
            out["failures"].append("traced and untraced outputs differ")
        out["digest"] = digests.pop()
        try:
            out["failures"] += wl.check(results)
            out["readings"] = wl.readings(results)
        except Exception:
            traceback.print_exc()
            out["failures"].append("output check raised")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", choices=("gen", "setup", "measure"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.command == "gen":
        gen(args.workload, args.seed, args.dir)
        return 0
    if args.command == "setup":
        state = setup(args.workload, args.dir)
        result = {"setup_s": state["setup_s"], "setup_parts": state["setup_parts"]}
    else:
        result = measure(args.workload, args.dir, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
