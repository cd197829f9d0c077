import itertools

import numpy as np
import pytest

import authverify.encoder
import authverify.train
from authverify.embeddings import EmbeddingTable
from authverify.encoder import (
    EncoderParams,
    document_gradients,
    embed_documents,
    encode_documents,
    init_encoder_params,
    sample_dropout_masks,
)
from authverify.evaluate import Model, cross_validate, verify_pair
from authverify.gradcheck import compare_grads, numeric_gradient
from authverify.lstm import LstmParams
from authverify.numeric import clip_by_global_norm, make_rng
from authverify.preprocess import (
    EmptyDocumentError,
    EncodedDocument,
    VerificationInstance,
    join_encoded,
)
from authverify.preprocess import encode_document as encode_text
from authverify.siamese import (
    Thresholds,
    contrastive_loss,
    contrastive_loss_grad,
    distance,
    in_batch_negative_loss,
)
from authverify.train import (
    AdadeltaState,
    EncodedPair,
    SplitError,
    TrainConfig,
    adadelta_update,
    augment_epoch,
    batch_gradients,
    encode_instance,
    fit,
    make_cv_splits,
    pair_distances,
    train_step,
)

from test_encoder import random_doc

# scalar first Adadelta step at g=1, rho=0.95, eps=1e-6, lr=1:
# -sqrt(1e-6)/sqrt(0.05 + 1e-6)
ADADELTA_FIRST_STEP = -0.004472091234310839


def pair_gradients(
    params: EncoderParams,
    pair: EncodedPair,
    thresholds: Thresholds,
    masks_known=None,
    masks_unknown=None,
) -> tuple[float, EncoderParams]:
    """Loss and shared-weight gradients for one pair.

    Both branches run with the same `params`, each document encoded and
    walked back alone; the returned gradient container is the sum of the
    two branch contributions.
    """
    (x1,), tape1 = encode_documents(params, [pair.known], masks_known, record=True)
    (x2,), tape2 = encode_documents(params, [pair.unknown], masks_unknown, record=True)
    loss = contrastive_loss(x1, x2, pair.label, thresholds)
    g1, g2 = contrastive_loss_grad(x1, x2, pair.label, thresholds)
    (grads,) = document_gradients(params, tape1, g1[None])
    (unknown,) = document_gradients(params, tape2, g2[None])
    grads.add_(unknown)
    return loss, grads


def per_document_gradients(
    params: EncoderParams, batch: list[EncodedPair], config: TrainConfig, rng
) -> tuple[float, EncoderParams]:
    """`batch_gradients` with `in_batch_weight` > 0, one document at a
    time: each document encoded alone with a tape and its own dropout
    masks (drawn known before unknown, pair by pair), the in-batch
    gradient added to its pair gradient, each walked back alone, and the
    gradients summed known plus unknown, then into the total, pair by
    pair."""
    dims = (config.d_w, config.d_s, config.d_d)
    thresholds = config.thresholds
    n = len(batch)
    docs = [doc for pair in batch for doc in (pair.known, pair.unknown)]
    encoded = [
        encode_documents(
            params, [doc],
            sample_dropout_masks(dims, config.dropout_rate, rng)
            if config.dropout_rate > 0.0 else None,
            record=True,
        )
        for doc in docs
    ]
    x = np.concatenate([e for e, _ in encoded])
    cross_loss, cross_grad = in_batch_negative_loss(
        x, np.repeat(np.arange(n), 2), thresholds
    )
    cross_grad *= n * config.in_batch_weight
    total = EncoderParams.zeros(*dims)
    loss_sum = 0.0
    for k, pair in enumerate(batch):
        ((x1,), tape1), ((x2,), tape2) = encoded[2 * k], encoded[2 * k + 1]
        loss_sum += contrastive_loss(x1, x2, pair.label, thresholds)
        g1, g2 = contrastive_loss_grad(x1, x2, pair.label, thresholds)
        (grads,) = document_gradients(params, tape1, (g1 + cross_grad[2 * k])[None])
        (unknown,) = document_gradients(
            params, tape2, (g2 + cross_grad[2 * k + 1])[None]
        )
        grads.add_(unknown)
        total.add_(grads)
    for a in total.arrays().values():
        a /= n
    return loss_sum / n + config.in_batch_weight * cross_loss, total


def one_matrix(docs):
    """The documents with their word vectors moved into one matrix, which
    they then share as the encodings of one embedding table do."""
    matrix = np.concatenate([np.zeros((1, docs[0].dim))] + [d.matrix[d.ids] for d in docs])
    ends = np.cumsum([d.token_count for d in docs]) + 1
    return [
        EncodedDocument(
            sent_lengths=d.sent_lengths, ids=np.arange(end - d.token_count, end),
            matrix=matrix, max_words=d.max_words, max_sentences=d.max_sentences,
        )
        for d, end in zip(docs, ends)
    ]


def tiny_config(**kw):
    defaults = dict(
        d_w=3, d_s=2, d_d=2, max_words=3, max_sentences=3, batch_size=4,
        max_epochs=2, patience=2, dropout_rate=0.0, seed=1,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def word_table():
    rng = make_rng(99)
    tokens = [f"w{i}" for i in range(30)] + ["."]
    return EmbeddingTable(3, {t: rng.uniform(-1, 1, 3) for t in tokens})


def synthetic_instance(rng, label, n_known=1):
    def doc(offset):
        sents = []
        for _ in range(int(rng.integers(1, 4))):
            words = [f"w{int(rng.integers(offset, offset + 10))}" for _ in range(2)]
            sents.append(" ".join(words).capitalize() + ".")
        return " ".join(sents)

    offset = 0 if label == 1 else 15
    return VerificationInstance(
        [doc(0) for _ in range(n_known)], doc(offset), label
    )


class TestTrainConfig:
    def test_defaults_match_recipe(self):
        c = TrainConfig()
        assert (c.d_w, c.d_s, c.d_d) == (300, 150, 75)
        assert (c.max_words, c.max_sentences) == (33, 123)
        assert c.batch_size == 32
        assert c.clip_norm == 5.0
        assert c.dropout_rate == 0.3
        assert c.adadelta_lr == 1.0
        assert (c.tau1, c.tau2) == (1.0, 3.0)

    def test_in_batch_negatives_on_by_default(self):
        assert TrainConfig().in_batch_weight > 0.0
        with pytest.raises(ValueError):
            tiny_config(in_batch_weight=-1.0)

    def test_round_trip_dict(self):
        c = tiny_config(tau1=0.5, tau2=2.5)
        assert TrainConfig.from_dict(c.to_dict()) == c

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"not_a_field": 1})

    def test_legacy_float64_dtype_dropped(self):
        c = tiny_config(tau1=0.5, tau2=2.5)
        assert TrainConfig.from_dict({**c.to_dict(), "dtype": "float64"}) == c
        assert "dtype" not in c.to_dict()

    def test_other_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            TrainConfig.from_dict({**tiny_config().to_dict(), "dtype": "float32"})

    def test_legacy_augment_true_dropped(self):
        c = tiny_config(tau1=0.5, tau2=2.5)
        assert TrainConfig.from_dict({**c.to_dict(), "augment": True}) == c
        assert "augment" not in c.to_dict()

    def test_augment_false_rejected(self):
        with pytest.raises(ValueError, match="augment"):
            TrainConfig.from_dict({**tiny_config().to_dict(), "augment": False})

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(tau1=3.0, tau2=1.0)
        with pytest.raises(ValueError):
            tiny_config(dropout_rate=1.0)
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        # Adadelta's update rule: a positive step, a decay in [0, 1), a
        # positive epsilon (0 never moves a zero-initialized parameter)
        for bad in (dict(adadelta_lr=0.0), dict(adadelta_lr=-1.0),
                    dict(adadelta_rho=-0.5), dict(adadelta_rho=1.0),
                    dict(adadelta_eps=0.0), dict(adadelta_eps=-1e-6)):
            with pytest.raises(ValueError, match="adadelta"):
                tiny_config(**bad)
        assert tiny_config(adadelta_rho=0.0).adadelta_rho == 0.0

    @pytest.mark.parametrize("lo,hi", [(0.05, 0.05), (0.05, -0.05)])
    def test_init_range_must_be_ordered(self, lo, hi):
        with pytest.raises(ValueError, match="init_lo < init_hi"):
            tiny_config(init_lo=lo, init_hi=hi)
        with pytest.raises(ValueError, match="init_lo < init_hi"):
            TrainConfig.from_dict(dict(TrainConfig().to_dict(), init_lo=lo, init_hi=hi))

    @pytest.mark.parametrize("field,value", [
        ("d_s", "x"), ("d_s", 4.0), ("batch_size", True), ("tau2", "3"),
        ("dropout_rate", None), ("learn_scale", 1), ("learn_scale", "false"),
    ])
    def test_value_of_the_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"config field '{field}' must be of type"):
            TrainConfig.from_dict({**TrainConfig().to_dict(), field: value})

    def test_int_accepted_for_a_float(self):
        c = TrainConfig.from_dict({"tau1": 0, "tau2": 2, "learn_scale": False})
        assert (c.tau1, c.tau2, c.learn_scale) == (0, 2, False)

    def test_tau1_must_be_non_negative(self):
        with pytest.raises(ValueError, match="0 <= tau1"):
            tiny_config(tau1=-0.5)
        with pytest.raises(ValueError, match="0 <= tau1"):
            TrainConfig.from_dict(dict(TrainConfig().to_dict(), tau1=-0.5))
        assert tiny_config(tau1=0.0).thresholds.tau1 == 0.0


class TestAdadelta:
    def test_zero_gradient_zero_update_state_unchanged(self):
        grads = {"p": np.zeros(3)}
        state = AdadeltaState.zeros_like(grads)
        deltas, new_state = adadelta_update(state, grads)
        assert np.all(deltas["p"] == 0.0)
        assert np.all(new_state.sq_grad_avg["p"] == 0.0)
        assert np.all(new_state.sq_update_avg["p"] == 0.0)

    def test_scalar_first_step(self):
        grads = {"p": np.array([1.0])}
        state = AdadeltaState.zeros_like(grads)
        deltas, new_state = adadelta_update(state, grads, lr=1.0, rho=0.95, eps=1e-6)
        assert deltas["p"][0] == pytest.approx(ADADELTA_FIRST_STEP, abs=1e-9)
        assert new_state.sq_grad_avg["p"][0] == pytest.approx(0.05)

    def test_repeated_steps_grow(self):
        grads = {"p": np.array([1.0])}
        state = AdadeltaState.zeros_like(grads)
        d1, state = adadelta_update(state, grads)
        d2, state = adadelta_update(state, grads)
        assert abs(d2["p"][0]) > abs(d1["p"][0])

    def test_learning_rate_scales_delta(self):
        grads = {"p": np.array([1.0])}
        state = AdadeltaState.zeros_like(grads)
        full, _ = adadelta_update(state, grads, lr=1.0)
        state = AdadeltaState.zeros_like(grads)
        half, _ = adadelta_update(state, grads, lr=0.5)
        assert half["p"][0] == pytest.approx(0.5 * full["p"][0])

    def test_shape_mismatch_rejected(self):
        state = AdadeltaState.zeros_like({"p": np.zeros(3)})
        with pytest.raises(Exception):
            adadelta_update(state, {"p": np.zeros(4)})
        with pytest.raises(Exception):
            adadelta_update(state, {"q": np.zeros(3)})


class TestPairGradients:
    def make_pair(self, seed, label):
        rng = make_rng(seed)
        doc1 = random_doc(rng, 3, [2, 2], 3, 3)
        doc2 = random_doc(rng, 3, [2, 1], 3, 3)
        return EncodedPair(doc1, doc2, label)

    def test_update_direction_matches_finite_difference(self):
        rng = make_rng(31)
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        pair = self.make_pair(32, label=0)
        thr = Thresholds(0.01, 10.0)  # keep label 0 in the active region

        def loss():
            return pair_gradients(params, pair, thr)[0]

        _, grads = pair_gradients(params, pair, thr)
        analytic = grads.arrays()
        for name, target in params.arrays().items():
            numeric = numeric_gradient(loss, target)
            failures = compare_grads(name, analytic[name], numeric)
            assert not failures, (name, failures[:3])

    def test_swap_symmetry(self):
        rng = make_rng(41)
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        pair = self.make_pair(42, label=0)
        swapped = EncodedPair(pair.unknown, pair.known, pair.label)
        thr = Thresholds(0.1, 5.0)
        loss_a, _ = pair_gradients(params, pair, thr)
        loss_b, _ = pair_gradients(params, swapped, thr)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)


class TestBatchGradients:
    def make_batch(self, rng):
        return [
            EncodedPair(
                random_doc(rng, 3, [2, 1], 3, 3), random_doc(rng, 3, [2, 2], 3, 3), l
            )
            for l in (0, 1, 0, 1)
        ]

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
    def test_update_direction_matches_finite_difference(self, dropout_rate):
        rng = make_rng(33)
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        batch = self.make_batch(rng)
        docs = [doc for p in batch for doc in (p.known, p.unknown)]
        # the masks batch_gradients draws from make_rng(0), one row per document
        masks = (
            sample_dropout_masks((3, 2, 2), dropout_rate, make_rng(0), len(docs))
            if dropout_rate > 0.0 else None
        )
        xs = embed_documents(params, docs, masks)
        d = np.linalg.norm(xs[:, None] - xs[None, :], axis=-1)
        off_diagonal = d[~np.eye(len(xs), dtype=bool)]
        # every pair and cross pair strictly between tau1 and tau2: the
        # curved region of both loss terms
        config = tiny_config(
            tau1=0.5 * off_diagonal.min(), tau2=off_diagonal.max() + 1.0,
            in_batch_weight=2.0, dropout_rate=dropout_rate,
        )

        def loss():
            return batch_gradients(params, batch, config, make_rng(0))[0]

        _, grads = batch_gradients(params, batch, config, make_rng(0))
        analytic = grads.arrays()
        for name, target in params.arrays().items():
            numeric = numeric_gradient(loss, target)
            failures = compare_grads(name, analytic[name], numeric)
            assert not failures, (name, failures[:3])

    def test_weight_zero_is_the_paper_recipe(self):
        # pair_gradients summed over the batch, divided by its size, then
        # clip and Adadelta, with the same dropout draws; the batch's GEMMs
        # round otherwise than one pair's, so the two agree to rounding
        rng = make_rng(34)
        config = tiny_config(
            tau1=0.001, tau2=5.0, dropout_rate=0.3, clip_norm=0.01,
            in_batch_weight=0.0,
        )
        dims = (config.d_w, config.d_s, config.d_d)
        params = init_encoder_params(*dims, rng=rng)
        batch = self.make_batch(rng)

        def reference_step(params, opt, rng):
            total = EncoderParams.zeros(*dims)
            loss_sum = 0.0
            for pair in batch:
                mk = sample_dropout_masks(dims, config.dropout_rate, rng)
                mu = sample_dropout_masks(dims, config.dropout_rate, rng)
                loss, grads = pair_gradients(params, pair, config.thresholds, mk, mu)
                loss_sum += loss
                total.add_(grads)
            arrays = total.arrays()
            keys = list(arrays)
            clipped, norm = clip_by_global_norm(
                [arrays[k] / len(batch) for k in keys], config.clip_norm
            )
            deltas, opt = adadelta_update(
                opt, dict(zip(keys, clipped)), config.adadelta_lr,
                config.adadelta_rho, config.adadelta_eps,
            )
            for k in keys:
                params.arrays()[k] += deltas[k]
            return loss_sum / len(batch), norm, opt

        ref_params = params.copy()
        opt = AdadeltaState.zeros_like(params.arrays())
        ref_opt = AdadeltaState.zeros_like(params.arrays())
        rng_a, rng_b = make_rng(5), make_rng(5)
        for _ in range(3):
            loss, norm, opt = train_step(params, opt, batch, config, rng_a)
            ref_loss, ref_norm, ref_opt = reference_step(ref_params, ref_opt, rng_b)
            np.testing.assert_allclose((loss, norm), (ref_loss, ref_norm),
                                       rtol=1e-12, atol=1e-15)
        assert norm > config.clip_norm  # the clip path was taken
        close = dict(rtol=1e-12, atol=1e-15)
        for k, a in params.arrays().items():
            np.testing.assert_allclose(a, ref_params.arrays()[k], err_msg=k, **close)
        for state, ref in ((opt.sq_grad_avg, ref_opt.sq_grad_avg),
                           (opt.sq_update_avg, ref_opt.sq_update_avg)):
            for k in state:
                np.testing.assert_allclose(state[k], ref[k], err_msg=k, **close)

    def test_default_recipe_matches_per_document_passes(self):
        # in-batch negatives and dropout: documents of 1-3 sentences, known
        # sides joined from two texts; equal to rounding, as above
        rng = make_rng(36)
        params = init_encoder_params(3, 2, 2, -0.5, 0.5, rng=rng)

        def doc(*lengths):
            return random_doc(rng, 3, list(lengths), 3, 3)

        docs = one_matrix([
            doc(2, 1), doc(3), doc(1), doc(3, 2, 1), doc(2, 3),
            doc(1), doc(2, 2), doc(1, 3), doc(1), doc(3, 1),
        ])
        batch = [
            EncodedPair(join_encoded(docs[0:2]), docs[2], 1),
            EncodedPair(docs[3], docs[4], 0),
            EncodedPair(join_encoded(docs[5:7]), docs[7], 1),
            EncodedPair(docs[8], docs[9], 0),
        ]
        # every pair and cross pair active in both terms
        config = tiny_config(dropout_rate=0.3, in_batch_weight=2.0, tau1=1e-3, tau2=9.0)
        loss, grads = batch_gradients(params, batch, config, make_rng(0))
        ref_loss, ref = per_document_gradients(params, batch, config, make_rng(0))
        close = dict(rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(loss, ref_loss, **close)
        assert loss != batch_gradients(
            params, batch, config.updated(in_batch_weight=0.0), make_rng(0)
        )[0]
        for name, a in grads.arrays().items():
            np.testing.assert_allclose(a, ref.arrays()[name], err_msg=name, **close)


class TestTapeFreeRuns:
    """An embedding pass takes one run per level for all its documents,
    not two per document: tape-free where no gradient is needed, taped
    in training."""

    @pytest.fixture
    def runs(self, monkeypatch):
        levels = []
        run = authverify.encoder.lstm_run

        def counting(params, *args, **kwargs):
            if not kwargs.get("record"):
                levels.append(1 if params.d_in == 3 else 2)
            return run(params, *args, **kwargs)

        monkeypatch.setattr(authverify.encoder, "lstm_run", counting)
        return levels

    def make_case(self, repeats=1):
        rng = make_rng(35)
        params = init_encoder_params(3, 2, 2, rng=rng)
        batch = [p for _ in range(repeats) for p in TestBatchGradients().make_batch(rng)]
        return params, batch

    @pytest.mark.parametrize("weight", [0.0, 2.0])
    def test_one_taped_run_per_level_per_batch(self, monkeypatch, weight):
        # the in-batch term reads the taped pass's embeddings
        runs = []
        run = authverify.encoder.lstm_run

        def counting(params, *args, **kwargs):
            runs.append((1 if params.d_in == 3 else 2, kwargs.get("record")))
            return run(params, *args, **kwargs)

        monkeypatch.setattr(authverify.encoder, "lstm_run", counting)
        params, batch = self.make_case()
        config = tiny_config(dropout_rate=0.3, in_batch_weight=weight)
        batch_gradients(params, batch, config, make_rng(0))
        assert runs == [(1, True), (2, True)]

    @pytest.mark.parametrize("repeats", [1, 9])
    def test_one_run_per_level_per_chunk_of_pairs(self, runs, repeats):
        # 4 pairs, then 36: one chunk of EVAL_CHUNK_PAIRS and a partial one
        params, batch = self.make_case(repeats)
        distances, _ = pair_distances(params, batch)
        chunks = -(-len(batch) // authverify.train.EVAL_CHUNK_PAIRS)
        assert runs == [1, 2] * chunks
        assert distances == [
            distance(
                encode_documents(params, [p.known], record=True)[0][0],
                encode_documents(params, [p.unknown], record=True)[0][0],
            )
            for p in batch
        ]


class TestTrainStep:
    def test_flat_region_batch_gives_zero_update(self):
        rng = make_rng(51)
        config = tiny_config(tau1=50.0, tau2=100.0)
        params = init_encoder_params(3, 2, 2, rng=rng)
        before = {k: a.copy() for k, a in params.arrays().items()}
        opt = AdadeltaState.zeros_like(params.arrays())
        batch = [
            EncodedPair(random_doc(rng, 3, [2], 3, 3), random_doc(rng, 3, [2], 3, 3), 1)
        ]
        # d << tau1 for label 1: satisfied constraint, loss 0, no movement
        loss, grad_norm, _ = train_step(params, opt, batch, config, rng)
        assert loss == 0.0
        assert grad_norm == 0.0
        for k, a in params.arrays().items():
            np.testing.assert_array_equal(a, before[k])

    def test_shared_weights_swap_invariance(self):
        rng = make_rng(61)
        config = tiny_config()
        params = init_encoder_params(3, 2, 2, rng=rng)
        opt = AdadeltaState.zeros_like(params.arrays())
        pairs = [
            EncodedPair(
                random_doc(rng, 3, [2, 1], 3, 3), random_doc(rng, 3, [1], 3, 3), l
            )
            for l in (0, 1, 0)
        ]
        params_b = params.copy()
        opt_b = AdadeltaState.zeros_like(params_b.arrays())
        swapped = [EncodedPair(p.unknown, p.known, p.label) for p in pairs]
        loss_a, _, _ = train_step(params, opt, pairs, config, make_rng(0))
        loss_b, _, _ = train_step(params_b, opt_b, swapped, config, make_rng(0))
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_clipped_norm_bound(self):
        rng = make_rng(71)
        config = tiny_config(tau1=0.001, tau2=1000.0, clip_norm=0.01)
        params = init_encoder_params(3, 2, 2, rng=rng)
        opt = AdadeltaState.zeros_like(params.arrays())
        batch = [
            EncodedPair(
                random_doc(rng, 3, [2, 2], 3, 3), random_doc(rng, 3, [2], 3, 3), 0
            )
        ]
        # the loss is active; train_step must clip to clip_norm internally
        loss, grad_norm, _ = train_step(params, opt, batch, config, rng)
        assert loss > 0.0
        assert grad_norm > 0.0  # returned value is the pre-clip norm

    def test_empty_batch_rejected(self):
        config = tiny_config()
        params = init_encoder_params(3, 2, 2, rng=make_rng(0))
        opt = AdadeltaState.zeros_like(params.arrays())
        with pytest.raises(ValueError):
            train_step(params, opt, [], config, make_rng(0))

    def test_first_step_descends_on_fixed_batch(self):
        # dropout off, fixed batch: loss after the update is lower than
        # before it (or the gradient was already zero)
        rng = make_rng(81)
        config = tiny_config(tau1=0.001, tau2=5.0)
        params = init_encoder_params(3, 2, 2, rng=rng)
        opt = AdadeltaState.zeros_like(params.arrays())
        batch = [
            EncodedPair(
                random_doc(rng, 3, [2, 1], 3, 3), random_doc(rng, 3, [2], 3, 3), l
            )
            for l in (0, 1, 0, 1)
        ]
        def batch_loss():
            return sum(
                pair_gradients(params, p, config.thresholds)[0] for p in batch
            ) / len(batch)

        before = batch_loss()
        _, grad_norm, _ = train_step(params, opt, batch, config, make_rng(0))
        after = batch_loss()
        assert after < before or grad_norm < 1e-12

    def test_weight_sharing_single_storage(self):
        # both branches of a pair read checksummed-identical parameters:
        # encoding doc A then doc B leaves the parameter bytes untouched
        rng = make_rng(91)
        params = init_encoder_params(3, 2, 2, rng=rng)
        pair = EncodedPair(
            random_doc(rng, 3, [2], 3, 3), random_doc(rng, 3, [1, 2], 3, 3), 0
        )
        checksums = []
        for doc in (pair.known, pair.unknown):
            encode_documents(params, [doc], record=True)
            checksums.append(
                tuple(a.tobytes() for a in params.arrays().values())
            )
        assert checksums[0] == checksums[1]


class TestAugmentEpoch:
    def test_single_known_unchanged(self, rng):
        known = [synthetic_instance(make_rng(i), 1).known_docs for i in range(5)]
        state = rng.bit_generator.state
        assert augment_epoch(known, rng) == known
        assert rng.bit_generator.state == state  # nothing drawn

    def test_all_orders_observed(self):
        rng = make_rng(77)
        seen = {}
        for _ in range(600):
            out = tuple(augment_epoch([["a", "b", "c"]], rng)[0])
            seen[out] = seen.get(out, 0) + 1
        assert len(seen) == 6
        for count in seen.values():
            assert 65 <= count <= 135  # 100 +- 35

    def test_labels_and_unknown_preserved(self, monkeypatch):
        # on fit's path: every epoch's pairs keep their instance's label and
        # unknown side, and join the known texts in one of their orders
        train, dev = TestFit().make_data()
        table, config = word_table(), tiny_config(max_epochs=3, batch_size=64)
        expected = []
        for inst in train:
            knowns = {
                encode_instance(
                    VerificationInstance(list(docs), inst.unknown_doc, inst.label),
                    table, config,
                ).known.words.tobytes()
                for docs in itertools.permutations(inst.known_docs)
            }
            unknown = encode_instance(inst, table, config).unknown.words.tobytes()
            expected.append((unknown, inst.label, knowns))
        batches = []
        step = authverify.train.train_step

        def recording(params, opt_state, batch, *args):
            batches.append(batch)
            return step(params, opt_state, batch, *args)

        monkeypatch.setattr(authverify.train, "train_step", recording)
        fit(train, dev, table, config)
        assert len(batches) == 3  # one batch per epoch
        for batch in batches:
            sides = [(p.unknown.words.tobytes(), p.label) for p in batch]
            assert sorted(sides) == sorted((u, label) for u, label, _ in expected)
            for (unknown, label), pair in zip(sides, batch):
                known = pair.known.words.tobytes()
                assert any(
                    (u, l) == (unknown, label) and known in ks for u, l, ks in expected
                )


class TestMakeCvSplits:
    def test_80_10_10(self):
        splits = make_cv_splits(100, k=10, rng=make_rng(5))
        assert len(splits) == 10
        for s in splits:
            assert len(s.test_ids) == 10
            assert len(s.dev_ids) == 10
            assert len(s.train_ids) == 80

    def test_partition_property(self):
        splits = make_cv_splits(100, k=10, rng=make_rng(6))
        all_test = [i for s in splits for i in s.test_ids]
        assert sorted(all_test) == list(range(100))
        for s in splits:
            combined = set(s.train_ids) | set(s.dev_ids) | set(s.test_ids)
            assert combined == set(range(100))
            assert not set(s.train_ids) & set(s.dev_ids)
            assert not set(s.train_ids) & set(s.test_ids)
            assert not set(s.dev_ids) & set(s.test_ids)

    def test_uneven_sizes_differ_by_at_most_one(self):
        splits = make_cv_splits(103, k=10, rng=make_rng(7))
        sizes = [len(s.test_ids) for s in splits]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_deterministic(self):
        a = make_cv_splits(50, k=5, rng=make_rng(8))
        b = make_cv_splits(50, k=5, rng=make_rng(8))
        assert a == b

    def test_too_small_corpus_rejected(self):
        with pytest.raises(SplitError, match="smaller than k"):
            make_cv_splits(5, k=10, rng=make_rng(0))
        # fold 0 holds 2 of 3 instances: the one left goes to dev
        with pytest.raises(SplitError, match="empty train set"):
            make_cv_splits(3, k=2, rng=make_rng(0))
        assert all(s.train_ids for s in make_cv_splits(4, k=2, rng=make_rng(0)))


class TestFit:
    def make_data(self, n=24):
        rng = make_rng(123)
        instances = [
            synthetic_instance(rng, label=i % 2, n_known=1 + i % 2) for i in range(n)
        ]
        return instances[: n - 6], instances[n - 6 :]

    def test_patience_zero_runs_exactly_one_epoch(self):
        train, dev = self.make_data()
        result = fit(train, dev, word_table(), tiny_config(patience=0, max_epochs=9))
        assert len(result.log) == 1

    def test_deterministic_log(self):
        # identical apart from wall-clock seconds
        train, dev = self.make_data()
        config = tiny_config(max_epochs=2, dropout_rate=0.3)
        log_a = fit(train, dev, word_table(), config).log
        log_b = fit(train, dev, word_table(), config).log
        strip = lambda log: [
            {k: v for k, v in e.items() if k != "seconds"} for e in log
        ]
        assert strip(log_a) == strip(log_b)

    def test_log_schema(self):
        train, dev = self.make_data()
        result = fit(train, dev, word_table(), tiny_config())
        for entry in result.log:
            assert set(entry) == {
                "epoch", "train_loss", "dev_loss", "dev_accuracy",
                "grad_norm_mean", "seconds",
            }

    def test_empty_sets_rejected(self):
        train, dev = self.make_data()
        with pytest.raises(ValueError, match="empty train set"):
            fit([], dev, word_table(), tiny_config())
        with pytest.raises(ValueError, match="empty dev set"):
            fit(train, [], word_table(), tiny_config())

    def test_each_text_encoded_once(self, monkeypatch):
        train, dev = self.make_data()
        assert any(len(inst.known_docs) > 1 for inst in train)
        calls = []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return encode_text(text, *args, **kwargs)

        monkeypatch.setattr(authverify.train, "encode_document", counting)
        result = fit(train, dev, word_table(), tiny_config(max_epochs=3, patience=3))
        assert len(result.log) == 3
        texts = [t for x in train + dev for t in x.known_docs + [x.unknown_doc]]
        assert sorted(calls) == sorted(texts)

    def test_no_path_builds_the_padded_tensor(self, monkeypatch):
        # a padded (max_sentences, max_words, d_w) tensor at the default
        # caps is 9.7 MB a document: training, cross-validation and
        # verification must run without ever asking for one
        def refuse(doc):
            raise AssertionError("EncodedDocument.words was built")

        monkeypatch.setattr(EncodedDocument, "words", property(refuse))
        train, dev = self.make_data()
        table, config = word_table(), tiny_config()
        assert len(fit(train, dev, table, config).log) == 2
        report = cross_validate(train + dev, table, config, k=3, threads=1)
        assert len(report.folds) == 3
        model = Model(init_encoder_params(3, 2, 2, rng=make_rng(5)), config, table)
        verify_pair(model, train[0].unknown_doc, dev[0].unknown_doc)

    def test_dev_distances_are_those_of_the_best_params(self):
        train, dev = self.make_data()
        result = fit(train, dev, word_table(), tiny_config(max_epochs=3, patience=3))
        pairs = [encode_instance(x, word_table(), tiny_config()) for x in dev]
        assert result.dev_distances == pair_distances(result.params, pairs)[0]

    @pytest.mark.parametrize("learn_scale", [False, True])
    def test_scale_trained_only_when_asked(self, learn_scale):
        train, dev = self.make_data()
        config = tiny_config(max_epochs=3, patience=3, dropout_rate=0.3,
                             learn_scale=learn_scale)
        result = fit(train, dev, word_table(), config)
        assert len(result.log) == 3
        if learn_scale:
            assert result.params.scale[0] != 1.0
        else:  # every step exactly zero
            assert result.params.scale.tobytes() == np.ones(1).tobytes()

    def test_best_params_copied_not_aliased(self):
        train, dev = self.make_data()
        result = fit(train, dev, word_table(), tiny_config(max_epochs=1, patience=0))
        arrays = result.params.arrays()
        snapshot = {k: a.copy() for k, a in arrays.items()}
        result.params.level1.w += 1.0
        assert not np.array_equal(arrays["level1.w"], snapshot["level1.w"])


class TestEncodeInstance:
    def test_encodes_both_sides(self):
        inst = synthetic_instance(make_rng(7), 1, n_known=2)
        pair = encode_instance(inst, word_table(), tiny_config())
        assert pair.known.words.shape == (3, 3, 3)
        assert pair.unknown.words.shape == (3, 3, 3)
        assert pair.label == 1

    def test_known_side_is_the_newline_joined_text(self):
        # the empty text adds nothing; the caps cut a sentence and a word
        inst = VerificationInstance(["W1 w2. W3.", "  ", "W4 w5 w6 w7. W8."], "W9.", 0)
        pair = encode_instance(inst, word_table(), tiny_config())
        joined = encode_text("\n".join(inst.known_docs), word_table(), 3, 3)
        assert pair.known.words.tobytes() == joined.words.tobytes()
        assert pair.known.sent_lengths.tolist() == [3, 2, 3]
        assert joined.sent_lengths.tolist() == [3, 2, 3]

    def test_all_known_texts_empty_is_an_error(self):
        inst = VerificationInstance(["", " \n "], "W1.", 1)
        with pytest.raises(EmptyDocumentError):
            encode_instance(inst, word_table(), tiny_config())
