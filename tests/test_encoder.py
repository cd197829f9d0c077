from dataclasses import fields

import numpy as np
import pytest

import authverify.lstm
from authverify.encoder import (
    DropoutMasks,
    EncoderParams,
    embed_documents,
    encode_document,
    document_gradients,
    encode_documents,
    init_encoder_params,
    sample_dropout_masks,
)
from authverify.gradcheck import (
    check_pipeline_config,
    compare_grads,
    numeric_gradient,
)
from authverify.lstm import LstmParams, lstm_run, lstm_run_backward
from authverify.numeric import ShapeError, make_rng
from authverify.preprocess import EncodedDocument


def random_doc(rng, d_w, sent_lengths, max_words, max_sentences):
    words = np.zeros((max_sentences, max_words, d_w))
    for k, n in enumerate(sent_lengths):
        words[k, :n] = rng.uniform(-1, 1, size=(n, d_w))
    return EncodedDocument(
        words=words,
        sent_lengths=np.array(sent_lengths, dtype=np.int64),
        num_sentences=len(sent_lengths),
    )


def id_doc(matrix, sentences):
    """A document of token ids into `matrix`, one list per sentence."""
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    return EncodedDocument(
        sent_lengths=lengths, matrix=matrix, max_words=int(lengths.max()),
        max_sentences=len(lengths),
        ids=np.array([i for s in sentences for i in s], dtype=np.int32),
    )


def shared_word_docs(rng, d_w):
    """Documents that repeat words and share ids: three over one matrix
    (two of them the same ids), two over another matrix with the same ids
    as the first, and one with its own matrix (criterion 3's padding)."""
    first, second = rng.uniform(-1, 1, size=(2, 6, d_w))
    sentences = [[1, 2, 1, 0], [3, 1], [2, 2, 2, 5, 1]]
    return [
        id_doc(first, sentences),
        id_doc(first, sentences),
        id_doc(second, sentences),
        id_doc(first, [[4, 4], [0, 5, 0]]),
        random_doc(rng, d_w, [2, 3], max_words=33, max_sentences=123),
        id_doc(second, sentences[1:]),
    ]


class TestEncoderParams:
    def test_level_dims_must_chain(self):
        with pytest.raises(ShapeError):
            EncoderParams(
                level1=LstmParams.zeros(5, 4), level2=LstmParams.zeros(3, 2)
            )

    def test_default_dims_halve(self, rng):
        params = init_encoder_params(rng=rng)
        assert (params.d_w, params.d_s, params.d_d) == (300, 150, 75)

    def test_init_range(self, rng):
        params = init_encoder_params(6, 4, 2, rng=rng)
        for name, a in params.arrays().items():
            if name == "scale":  # set, not drawn
                assert a.tobytes() == np.ones(1).tobytes()
            else:
                assert np.all(a >= -0.05) and np.all(a < 0.05)

    def test_arrays_order_stable(self, rng):
        params = init_encoder_params(6, 4, 2, rng=rng)
        assert list(params.arrays()) == [
            "level1.w", "level1.u", "level1.b",
            "level2.w", "level2.u", "level2.b",
            "scale",
        ]


class TestEncodeDocument:
    def test_zero_params_zero_embedding(self, rng):
        params = EncoderParams(LstmParams.zeros(3, 2), LstmParams.zeros(2, 2))
        doc = random_doc(rng, 3, [2, 3], max_words=4, max_sentences=5)
        np.testing.assert_array_equal(encode_document(params, doc), np.zeros(2))

    def test_padding_invariance_across_dims(self, rng):
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        lengths = [2, 4, 1]
        tight = random_doc(make_rng(0), 3, lengths, max_words=4, max_sentences=3)
        words = np.zeros((123, 33, 3))
        words[:3, :4] = tight.words
        padded = EncodedDocument(
            words=words,
            sent_lengths=tight.sent_lengths.copy(),
            num_sentences=3,
        )
        a = encode_document(params, tight)
        b = encode_document(params, padded)
        np.testing.assert_array_equal(a, b)

    def test_distinct_documents_distinct_embeddings(self, rng):
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        doc1 = random_doc(make_rng(1), 3, [3, 2], 4, 4)
        doc2 = random_doc(make_rng(2), 3, [3, 2], 4, 4)
        assert not np.array_equal(
            encode_document(params, doc1), encode_document(params, doc2)
        )

    def test_inference_deterministic(self, rng):
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        doc = random_doc(make_rng(3), 3, [2, 2], 4, 4)
        np.testing.assert_array_equal(
            encode_document(params, doc), encode_document(params, doc)
        )

    def test_dimension_contract(self, rng):
        params = EncoderParams(
            LstmParams.init_uniform(4, 3, -0.5, 0.5, rng),
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
        )
        doc = random_doc(make_rng(4), 4, [2], 3, 3)
        x_d, tape = encode_documents(params, [doc], record=True)
        assert x_d.shape == (1, 2)
        assert tape.level2_tape.x_in.shape == (1, 3)  # the sentence embeddings

    def test_tape_holds_only_real_steps(self, rng):
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        doc = random_doc(make_rng(5), 3, [2, 4, 1], max_words=33, max_sentences=123)
        _, tape = encode_documents(params, [doc], record=True)
        level1 = tape.level1_tape
        for a in (level1.gates, level1.h_in, level1.c):
            assert a.shape[0] == doc.token_count


def mask_row(masks, j):
    """Document j's masks of a many-document draw, as one-row masks."""
    return DropoutMasks(*(getattr(masks, f.name)[j : j + 1] for f in fields(masks)))


class TestEmbedDocuments:
    def mixed_docs(self, rng, d_w):
        """Different sentence counts, a one-sentence document, and tight
        and padded word axes (criterion 3's shapes) in one list."""
        docs = [
            random_doc(rng, d_w, lengths, max(lengths), len(lengths))
            for lengths in ([3, 1, 4], [2], [5, 5, 1, 2, 7, 3], [1, 1])
        ]
        padded = random_doc(rng, d_w, [2, 6, 4], max_words=33, max_sentences=123)
        return docs[:2] + [padded] + docs[2:] + [docs[1]]

    @pytest.mark.parametrize("with_masks", [False, True])
    def test_rows_match_encode_document_training(self, with_masks):
        rng = make_rng(31)
        dims = (20, 10, 5)
        params = init_encoder_params(*dims, rng=rng)
        docs = self.mixed_docs(rng, dims[0])
        masks = sample_dropout_masks(dims, 0.3, rng, len(docs)) if with_masks else None
        x = embed_documents(params, docs, masks)
        assert x.shape == (len(docs), dims[2])
        # a run without a tape takes GEMMs, whose last bits depend on the
        # other documents of the call; the same call gives the same bytes
        assert embed_documents(params, docs, masks).tobytes() == x.tobytes()
        for j, doc in enumerate(docs):
            # the taped encoding of the document alone
            (ref,), _ = encode_documents(
                params, [doc], mask_row(masks, j) if with_masks else None, record=True
            )
            np.testing.assert_allclose(
                x[j], ref, rtol=1e-12, atol=1e-15, err_msg=f"row {j}"
            )
        if with_masks:
            np.testing.assert_allclose(
                encode_document(params, docs[2], mask_row(masks, 2)), x[2],
                rtol=1e-12, atol=1e-15,
            )

    def test_no_documents(self, rng):
        params = init_encoder_params(4, 3, 2, rng=rng)
        assert embed_documents(params, []).shape == (0, 2)

    @pytest.mark.parametrize("record", [False, True])
    def test_shared_words_keep_each_documents_mask_and_matrix(self, record):
        # the same ids under different masks, and over different matrices,
        # must not share a level-1 input row across documents
        rng = make_rng(33)
        dims = (20, 10, 5)
        params = init_encoder_params(*dims, rng=rng)
        docs = shared_word_docs(rng, dims[0])
        masks = sample_dropout_masks(dims, 0.3, rng, len(docs))
        x, tape = encode_documents(params, docs, masks, record=record)
        assert (tape is not None) == record
        plain, _ = encode_documents(params, docs, record=record)

        def check(row, untaped, taped, j):
            # every run takes GEMMs: a row agrees with the document encoded
            # alone, with or without a tape, to rounding
            close = dict(rtol=1e-12, atol=1e-15, err_msg=f"row {j}")
            np.testing.assert_allclose(row, untaped, **close)
            np.testing.assert_allclose(row, taped, **close)

        for j, doc in enumerate(docs):
            (alone,), _ = encode_documents(params, [doc], mask_row(masks, j), record=True)
            check(x[j], encode_document(params, doc, mask_row(masks, j)), alone, j)
            (alone,), _ = encode_documents(params, [doc], record=True)
            check(plain[j], encode_document(params, doc), alone, j)

    @pytest.mark.parametrize("record", [False, True])
    def test_level1_projects_each_distinct_document_word_once(self, monkeypatch, record):
        rng = make_rng(34)
        dims = (20, 10, 5)
        params = init_encoder_params(*dims, rng=rng)
        docs = shared_word_docs(rng, dims[0])
        masks = sample_dropout_masks(dims, 0.3, rng, len(docs))
        projected = []

        def counting(product):
            def count(a, rows, out=None):
                if a is params.level1.u:
                    projected.append(len(rows))
                return product(a, rows, out)
            return count

        monkeypatch.setattr(
            authverify.lstm, "_gemm", counting(authverify.lstm._gemm)
        )
        _, tape = encode_documents(params, docs, masks, record=record)
        distinct = sum(len(np.unique(doc.ids)) for doc in docs)
        tokens = sum(doc.token_count for doc in docs)
        assert distinct < tokens
        assert sum(projected) == distinct
        if record:
            # the tape keeps the distinct rows and an index, not a row per token
            assert tape.level1_tape.x_in.shape == (distinct, dims[0])
            assert tape.level1_tape.x_index.shape == (tokens,)


class TestSampleDropoutMasks:
    def test_rate_zero_identity(self, rng):
        masks = sample_dropout_masks((4, 3, 2), 0.0, rng)
        for m in (masks.input1, masks.recurrent1, masks.input2, masks.recurrent2):
            np.testing.assert_array_equal(m, np.ones_like(m))

    def test_statistical_rate(self):
        masks = sample_dropout_masks((10000, 10000, 10000), 0.3, make_rng(8))
        zero_fraction = float(np.mean(masks.input1 == 0.0))
        assert abs(zero_fraction - 0.3) < 0.02

    def test_scaling_of_kept_entries(self, rng):
        masks = sample_dropout_masks((1000, 10, 10), 0.3, rng)
        kept = masks.input1[masks.input1 != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)

    def test_deterministic(self):
        a = sample_dropout_masks((5, 4, 3), 0.3, make_rng(21))
        b = sample_dropout_masks((5, 4, 3), 0.3, make_rng(21))
        np.testing.assert_array_equal(a.input1, b.input1)
        np.testing.assert_array_equal(a.recurrent2, b.recurrent2)

    def test_rejects_rate_one(self, rng):
        with pytest.raises(ValueError):
            sample_dropout_masks((2, 2, 2), 1.0, rng)

    @staticmethod
    def one_document_draws(dims, rate, rng):
        """The earlier body of `sample_dropout_masks`, one document's masks
        by four draws in field order: the reference of the n-row draw."""
        keep = 1.0 - rate
        return [(rng.random(dim) >= rate).astype(np.float64) / keep
                for dim in (dims[0], dims[1], dims[1], dims[2])]

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 32])
    def test_n_documents_are_n_one_document_draws(self, n, rate):
        dims = (20, 10, 5)
        rng, ref_rng = make_rng(41), make_rng(41)
        masks = sample_dropout_masks(dims, rate, rng, n)
        ref = [self.one_document_draws(dims, rate, ref_rng) for _ in range(n)]
        for k, (f, dim) in enumerate(zip(fields(masks), (20, 10, 10, 5))):
            got = getattr(masks, f.name)
            assert got.shape == (n, dim), f.name
            expected = np.stack([doc[k] for doc in ref])
            assert got.tobytes() == expected.tobytes(), f.name
        # the generator is left where the n one-document draws leave it
        assert rng.random() == ref_rng.random()


class TestEncoderBackward:
    def make_setup(self, seed=0):
        rng = make_rng(seed)
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        doc = random_doc(rng, 3, [2, 2], max_words=2, max_sentences=2)
        return params, doc

    def test_zero_upstream_zero_grads(self):
        params, doc = self.make_setup()
        _, tape = encode_documents(params, [doc], record=True)
        (grads,) = document_gradients(params, tape, np.zeros(2)[None])
        for a in grads.arrays().values():
            assert np.all(a == 0.0)

    def test_finite_difference_full_encoder(self):
        params, doc = self.make_setup(seed=3)
        d_xd = make_rng(4).normal(size=2)

        def loss():
            (x_d,), _ = encode_documents(params, [doc], record=True)
            return float(np.dot(d_xd, x_d))

        _, tape = encode_documents(params, [doc], record=True)
        (grads,) = document_gradients(params, tape, d_xd[None])
        analytic = grads.arrays()
        for name, target in params.arrays().items():
            numeric = numeric_gradient(loss, target)
            failures = compare_grads(name, analytic[name], numeric)
            assert not failures, (name, failures[:3])

    def test_single_sentence_reduction(self):
        """A document whose only real sentence is sentence 1 has the same
        parameter gradients as encoding that sentence alone."""
        params, _ = self.make_setup(seed=5)
        rng = make_rng(6)
        one = random_doc(rng, 3, [2], max_words=2, max_sentences=1)
        words = np.zeros((7, 2, 3))
        words[0] = one.words[0]
        padded = EncodedDocument(
            words=words,
            sent_lengths=one.sent_lengths.copy(),
            num_sentences=1,
        )
        d_xd = np.array([0.3, -0.7])
        for doc_a, doc_b in ((one, padded),):
            _, tape_a = encode_documents(params, [doc_a], record=True)
            _, tape_b = encode_documents(params, [doc_b], record=True)
            (ga,) = document_gradients(params, tape_a, d_xd[None])
            (gb,) = document_gradients(params, tape_b, d_xd[None])
            for name, a in ga.arrays().items():
                np.testing.assert_array_equal(a, gb.arrays()[name])

    def test_masks_fixed_still_finite_difference_consistent(self):
        params, equal = self.make_setup(seed=9)
        # unequal sentences, not in length order, padded to (5, 5)
        unequal = random_doc(make_rng(13), 3, [3, 1, 4], max_words=5, max_sentences=5)
        masks = sample_dropout_masks((3, 2, 2), 0.3, make_rng(10))
        d_xd = np.array([1.0, -0.5])
        for doc in (equal, unequal):

            def loss():
                (x_d,), _ = encode_documents(params, [doc], masks, record=True)
                return float(np.dot(d_xd, x_d))

            _, tape = encode_documents(params, [doc], masks, record=True)
            (grads,) = document_gradients(params, tape, d_xd[None])
            analytic = grads.arrays()
            for name, target in params.arrays().items():
                numeric = numeric_gradient(loss, target)
                failures = compare_grads(name, analytic[name], numeric)
                assert not failures, (doc.sent_lengths, name, failures[:3])

    def test_repeated_words_under_masks_finite_difference_consistent(self):
        rng = make_rng(14)
        params = EncoderParams(
            LstmParams.init_uniform(3, 2, -0.5, 0.5, rng),
            LstmParams.init_uniform(2, 2, -0.5, 0.5, rng),
        )
        doc = id_doc(rng.uniform(-1, 1, size=(4, 3)), [[1, 2, 1], [3, 1, 1, 0], [2]])
        masks = sample_dropout_masks((3, 2, 2), 0.3, make_rng(15))
        d_xd = np.array([0.8, -0.6])

        def loss():
            (x_d,), _ = encode_documents(params, [doc], masks, record=True)
            return float(np.dot(d_xd, x_d))

        _, tape = encode_documents(params, [doc], masks, record=True)
        (grads,) = document_gradients(params, tape, d_xd[None])
        analytic = grads.arrays()
        for name, target in params.arrays().items():
            numeric = numeric_gradient(loss, target)
            failures = compare_grads(name, analytic[name], numeric)
            assert not failures, (name, failures[:3])

    def test_level1_matches_per_sentence_backward(self):
        # reference: each sentence run and walked back as a one-row batch,
        # its gradients summed
        rng = make_rng(11)
        params = EncoderParams(
            LstmParams.init_uniform(3, 4, -0.5, 0.5, rng),
            LstmParams.init_uniform(4, 2, -0.5, 0.5, rng),
        )
        doc = random_doc(rng, 3, [3, 1, 4], max_words=5, max_sentences=4)
        masks = sample_dropout_masks((3, 4, 2), 0.3, make_rng(12))
        d_xd = np.array([0.4, -1.1])
        _, tape = encode_documents(params, [doc], masks, record=True)
        (grads,) = document_gradients(params, tape, d_xd[None])

        _, ref_tape = encode_documents(params, [doc], masks, record=True)
        _, d_sent, _, _ = lstm_run_backward(
            params.level2, ref_tape.level2_tape, d_xd[None], np.zeros((1, 2))
        )
        # the encoder masks level 2's input, so it masks that input's gradient
        d_sent *= masks.input2
        ref = LstmParams.zeros(3, 4)
        for k, n in enumerate(doc.sent_lengths):
            _, sent_tape = lstm_run(
                params.level1, doc.words[k, :n] * masks.input1, [n],
                rec_mask=masks.recurrent1, record=True,
            )
            g, _, _, _ = lstm_run_backward(
                params.level1, sent_tape, d_sent[k : k + 1], np.zeros((1, 4))
            )
            for name, a in g.arrays().items():
                ref.arrays()[name] += a
        for name, a in grads.level1.arrays().items():
            np.testing.assert_allclose(a, ref.arrays()[name], rtol=1e-12, atol=1e-15)

    def test_pipeline_gradcheck_both_labels(self):
        for label, seed in ((1, 101), (0, 102)):
            report = check_pipeline_config(seed=seed, label_value=label)
            assert report.ok, report.failures[:5]
