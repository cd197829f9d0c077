import json
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest

import authverify.evaluate
import authverify.train
from authverify.embeddings import EmbeddingTable
from authverify.encoder import embed_documents, init_encoder_params
from authverify.evaluate import (
    ConfusionCounts,
    CvReport,
    FoldResult,
    Model,
    calibrate_tau,
    confusion_metrics,
    counts_at_threshold,
    cross_validate,
    evaluate_pairs,
    load_checkpoint,
    pair_distances,
    roc_auc,
    save_checkpoint,
    verify_pair,
)
from authverify.numeric import ShapeError, make_rng
from authverify.preprocess import EmptyDocumentError, VerificationInstance
from authverify.preprocess import encode_document as encode_text
from authverify.siamese import SAME_AUTHOR, Thresholds, distance
from authverify.synthetic import SyntheticSpec, generate_corpus
from authverify.train import EncodedPair, TrainConfig, encode_instance

from test_encoder import random_doc
from test_train import synthetic_instance, tiny_config, word_table


class TestConfusionMetrics:
    def test_perfect_classifier(self):
        m = confusion_metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert m.flags == ()

    def test_degenerate_zero_positive_predictions(self):
        m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert "precision_undefined" in m.flags
        assert "f1_undefined" in m.flags

    def test_hand_computed_fixture(self):
        m = confusion_metrics(ConfusionCounts(tp=3, fp=1, tn=4, fn=2))
        assert m.precision == 0.75
        assert m.recall == 0.6
        assert abs(m.f1 - 2.0 / 3.0) < 1e-15
        assert m.accuracy == 0.7

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            confusion_metrics(ConfusionCounts())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestCheckpoint:
    def test_round_trip_value_exact(self, tmp_path):
        rng = make_rng(3)
        params = init_encoder_params(4, 3, 2, rng=rng)
        config = tiny_config(d_w=4, d_s=3, d_d=2)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), params, config)
        loaded_params, loaded_config = load_checkpoint(str(path))
        assert loaded_config == config
        for key, a in params.arrays().items():
            np.testing.assert_array_equal(loaded_params.arrays()[key], a)

    def test_config_thresholds_survive(self, tmp_path):
        params = init_encoder_params(4, 3, 2, rng=make_rng(0))
        config = tiny_config(d_w=4, d_s=3, d_d=2, tau1=0.25, tau2=7.5)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), params, config)
        _, loaded = load_checkpoint(str(path))
        assert loaded.thresholds == Thresholds(0.25, 7.5)

    def test_dims_other_than_config_rejected_on_load(self, tmp_path):
        params = init_encoder_params(4, 3, 2, rng=make_rng(0))
        path = tmp_path / "model.npz"
        for dims in ((5, 3, 2), (4, 2, 2), (4, 3, 1)):
            config = tiny_config(d_w=dims[0], d_s=dims[1], d_d=dims[2])
            save_checkpoint(str(path), params, config)
            with pytest.raises(ShapeError, match=r"\(4, 3, 2\)"):
                load_checkpoint(str(path))

    @staticmethod
    def check_legacy_field_loads(tmp_path, field: str, value) -> None:
        params = init_encoder_params(4, 3, 2, rng=make_rng(0))
        config = tiny_config(d_w=4, d_s=3, d_d=2)
        path = tmp_path / "model.npz"
        save_checkpoint(str(path), params, config)
        with np.load(path) as archive:
            payload = dict(archive)
        legacy = {**config.to_dict(), field: value}
        payload["config_json"] = np.array(json.dumps(legacy, sort_keys=True))
        np.savez(path, **payload)
        loaded_params, loaded_config = load_checkpoint(str(path))
        assert loaded_config == config
        for key, a in params.arrays().items():
            assert loaded_params.arrays()[key].tobytes() == a.tobytes(), key

    def test_legacy_float64_dtype_loads(self, tmp_path):
        # checkpoints written while TrainConfig had a dtype field
        self.check_legacy_field_loads(tmp_path, "dtype", "float64")

    def test_legacy_augment_true_loads(self, tmp_path):
        # checkpoints written while TrainConfig had an augment field
        self.check_legacy_field_loads(tmp_path, "augment", True)


class TestEvaluatePairs:
    def test_counts_sum_to_total(self):
        rng = make_rng(8)
        params = init_encoder_params(3, 2, 2, rng=rng)
        pairs = [
            EncodedPair(
                random_doc(rng, 3, [2], 3, 3), random_doc(rng, 3, [1, 2], 3, 3),
                int(rng.integers(2)),
            )
            for _ in range(12)
        ]
        counts = evaluate_pairs(params, pairs, Thresholds(1.0, 3.0))
        assert counts.total == 12


class TestCalibrateTau:
    def test_perfectly_separable(self):
        distances = [0.1, 0.2, 0.3, 2.0, 2.5, 3.0]
        labels = [1, 1, 1, 0, 0, 0]
        tau = calibrate_tau(distances, labels)
        counts = counts_at_threshold(distances, labels, tau)
        assert confusion_metrics(counts).accuracy == 1.0
        assert 0.3 < tau < 2.0

    def test_overlapping_classes_picks_best(self):
        distances = [0.5, 1.5, 2.5, 1.0, 2.0, 3.0]
        labels = [1, 1, 1, 0, 0, 0]
        tau = calibrate_tau(distances, labels)
        best = confusion_metrics(counts_at_threshold(distances, labels, tau))
        for other in np.linspace(0.0, 4.0, 101):
            counts = counts_at_threshold(distances, labels, float(other))
            assert best.accuracy >= confusion_metrics(counts).accuracy

    def test_deterministic_tie_break(self):
        distances = [1.0, 2.0]
        labels = [1, 0]
        assert calibrate_tau(distances, labels) == calibrate_tau(distances, labels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_tau([], [])


class TestRocAuc:
    # (distances, labels, AUC), each worked out by hand over every
    # (same-author, different-author) pair, a tie counting half
    TABLE = [
        ([0.1, 0.4, 0.4, 0.8], [1, 0, 1, 0], 3.5 / 4),  # (.4, .4) ties
        ([0.1, 0.2, 3.0, 4.0], [1, 1, 0, 0], 1.0),
        ([3.0, 4.0, 0.1, 0.2], [1, 1, 0, 0], 0.0),
        ([1.0, 1.0, 1.0], [1, 0, 0], 0.5),
        ([0.5, 2.0, 1.0, 0.3, 2.0, 1.5], [1, 1, 0, 0, 0, 1], 3.5 / 9),
    ]

    @pytest.mark.parametrize("distances,labels,expected", TABLE)
    def test_hand_computed_table(self, distances, labels, expected):
        assert roc_auc(distances, labels) == expected

    def test_needs_both_classes_and_binary_labels(self):
        for labels in ([1, 1], [0, 0], [1, 2]):
            with pytest.raises(ValueError):
                roc_auc([0.5, 1.0], labels)


class TestVerifyPair:
    def make_model(self):
        params = init_encoder_params(3, 2, 2, rng=make_rng(5))
        return Model(params, tiny_config(), word_table())

    def test_self_comparison_is_same_author(self):
        model = self.make_model()
        doc = "W1 w2 w3. W4 w5."
        score = verify_pair(model, doc, doc)
        assert score.distance == 0.0
        assert score.decision == SAME_AUTHOR

    def test_symmetric_distance(self):
        model = self.make_model()
        a = "W1 w2 w3. W4 w5 w6."
        b = "W9 w8. W7 w6 w5."
        assert verify_pair(model, a, b).distance == verify_pair(model, b, a).distance

    def test_deterministic(self):
        model = self.make_model()
        a, b = "W1 w2.", "W3 w4."
        s1 = verify_pair(model, a, b)
        s2 = verify_pair(model, a, b)
        assert s1 == s2

    def test_matches_padded_encoding_bit_for_bit(self):
        # padding invariance, and the same GEMM rows: verify_pair embeds
        # the two unpadded encodings in one call, as this does the padded
        model = self.make_model()
        a, b = "W1 w2 w3. W4 w5.", "W9 w8. W7 w6 w5. W1."
        caps = (model.config.max_words, model.config.max_sentences)
        x_a, x_b = embed_documents(
            model.params, [encode_text(t, model.table, *caps) for t in (a, b)]
        )
        assert verify_pair(model, a, b).distance == distance(x_a, x_b)

    def test_distance_equals_pair_distances_bit_for_bit(self):
        # both embed the pair's two documents in one call, so the GEMMs of
        # the tape-free run see the same rows; the benchmark's verify
        # check compares the two paths bit for bit
        instances, words, emb = generate_corpus(
            SyntheticSpec(n_instances=10), seed=2
        )
        table = EmbeddingTable(20, dict(zip(words, emb)))
        config = TrainConfig(d_w=20, d_s=10, d_d=5, max_words=12, max_sentences=15)
        params = init_encoder_params(20, 10, 5, rng=make_rng(0))
        model = Model(params, config, table)
        for x in instances:
            (expected,), _ = pair_distances(params, [encode_instance(x, table, config)])
            score = verify_pair(model, "\n".join(x.known_docs), x.unknown_doc)
            assert score.distance == expected

    def test_empty_document_propagates(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="empty document"):
            verify_pair(model, "   ", "W1 w2.")


def quick_cv_config(**kw):
    defaults = dict(
        d_w=3, d_s=2, d_d=2, max_words=3, max_sentences=3, batch_size=8,
        max_epochs=1, patience=0, dropout_rate=0.0, seed=3,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_corpus(n=40):
    rng = make_rng(7)
    return [synthetic_instance(rng, label=i % 2) for i in range(n)]


class TestCrossValidate:
    def test_report_structure(self):
        report = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        assert len(report.folds) == 4
        payload = report.to_json_dict()
        assert {"precision", "recall", "f1", "accuracy"} <= set(payload["aggregate"])
        for fold in payload["folds"]:
            assert {
                "fold", "tp", "fp", "tn", "fn", "metrics", "flags",
                "calibrated_tau", "metrics_calibrated",
            } <= set(fold)
            assert fold["calibrated_tau"] > 0.0

    def test_fold_test_ids_disjoint_by_construction(self):
        report = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        totals = sum(f.counts.total for f in report.folds)
        assert totals == 40

    def test_aggregate_matches_fold_mean(self):
        report = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        for name in ("precision", "recall", "f1", "accuracy"):
            values = [getattr(f.metrics, name) for f in report.folds]
            assert report.aggregate[name]["mean"] == pytest.approx(
                float(np.mean(values)), abs=1e-12
            )

    def test_percent_is_100x_fraction(self):
        report = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        payload = report.to_json_dict()
        for name, stats in payload["aggregate"].items():
            assert payload["aggregate_percent"][name]["mean"] == pytest.approx(
                100.0 * stats["mean"]
            )

    def test_deterministic_json(self):
        a = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        b = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=4)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_text_encoded_once(self, monkeypatch, threads):
        # a fold worker that encodes a text raises, and its fold re-raises here
        corpus = small_corpus()
        parent, calls = os.getpid(), []

        def counting(text, *args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a fold worker encoded a text")
            calls.append(text)
            return encode_text(text, *args, **kwargs)

        monkeypatch.setattr(authverify.train, "encode_document", counting)
        cross_validate(corpus, word_table(), quick_cv_config(), k=4, threads=threads)
        texts = Counter(t for x in corpus for t in x.known_docs + [x.unknown_doc])
        assert Counter(calls) == texts

    def test_threaded_matches_sequential(self):
        # (2, 8): more workers asked for than there are folds
        for k, threads in ((4, 3), (2, 8)):
            seq = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=k)
            par = cross_validate(
                small_corpus(), word_table(), quick_cv_config(), k=k, threads=threads
            )
            assert seq.to_json() == par.to_json()
            assert multiprocessing.active_children() == []

    def test_failed_fold_reraises_and_leaves_no_worker(self):
        corpus = small_corpus()
        corpus[5] = VerificationInstance(corpus[5].known_docs, "", corpus[5].label)
        with pytest.raises(EmptyDocumentError):
            cross_validate(corpus, word_table(), quick_cv_config(), k=4, threads=2)
        assert multiprocessing.active_children() == []

    @staticmethod
    def fail_outside_caller(monkeypatch, fail):
        """Patch `_run_fold` so that every fold run outside the calling
        process sets an inherited event and then calls `fail(split)`, while
        the caller's folds wait on that event: some fold certainly runs in
        a child, whichever process claims which fold."""
        run_fold, caller = authverify.evaluate._run_fold, os.getpid()
        child_ran = multiprocessing.get_context("fork").Event()

        def patched(split, *args):
            if os.getpid() != caller:
                child_ran.set()
                fail(split)
            assert child_ran.wait(timeout=60), "no fold ran outside the caller"
            return run_fold(split, *args)

        monkeypatch.setattr(authverify.evaluate, "_run_fold", patched)

    def test_fold_failing_in_a_worker_reraises_and_leaves_no_worker(
        self, monkeypatch
    ):
        def fail(split):
            raise FloatingPointError(
                f"fold {split.fold_index} failed in process {os.getpid()}"
            )

        self.fail_outside_caller(monkeypatch, fail)
        with pytest.raises(FloatingPointError, match="failed in process") as failure:
            cross_validate(
                small_corpus(), word_table(), quick_cv_config(), k=4, threads=2
            )
        assert int(str(failure.value).split()[-1]) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_worker_dying_without_report_raises_and_leaves_no_worker(
        self, monkeypatch
    ):
        self.fail_outside_caller(monkeypatch, lambda split: os._exit(3))
        with pytest.raises(RuntimeError):
            cross_validate(
                small_corpus(), word_table(), quick_cv_config(), k=4, threads=2
            )
        assert multiprocessing.active_children() == []

    def test_leave_one_out_in_three_processes_matches_sequential(self):
        # more processes than CPUs, uneven claiming, many folds per child
        seq = cross_validate(small_corpus(), word_table(), quick_cv_config(), k=40)
        par = cross_validate(
            small_corpus(), word_table(), quick_cv_config(), k=40, threads=3
        )
        assert seq.to_json() == par.to_json()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            cross_validate(
                small_corpus(), word_table(), quick_cv_config(), k=4, threads=threads
            )


class TestCvReportAggregation:
    def make_report(self, metric_values):
        folds = []
        for i, acc in enumerate(metric_values):
            tp = int(round(acc * 10))
            counts = ConfusionCounts(tp=tp, fp=0, tn=0, fn=10 - tp)
            folds.append(
                FoldResult(
                    fold_index=i,
                    counts=counts,
                    metrics=confusion_metrics(counts),
                    best_epoch=1,
                    epochs_run=1,
                )
            )
        return CvReport(folds=folds, seed=0, config=quick_cv_config())

    def test_sample_std_uses_n_minus_one(self):
        values = [0.5, 0.6, 0.7, 0.8]
        report = self.make_report(values)
        expected = float(np.std(values, ddof=1))
        assert report.aggregate["accuracy"]["std"] == pytest.approx(expected)

    def test_single_fold_std_is_zero(self):
        report = self.make_report([0.5])
        assert report.aggregate["accuracy"]["std"] == 0.0

    def test_json_serializable(self):
        report = self.make_report([0.4, 0.9])
        parsed = json.loads(report.to_json())
        assert parsed["num_folds"] == 2
