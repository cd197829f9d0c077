import numpy as np
import pytest

from authverify.embeddings import load_embeddings
from authverify.preprocess import load_corpus, segment_sentences, tokenize
from authverify.synthetic import (
    SyntheticSpec,
    generate_corpus,
    write_embeddings,
    write_synthetic,
)


class TestGenerateCorpus:
    def test_instance_count_and_balance(self):
        spec = SyntheticSpec(n_instances=100)
        instances, _, _ = generate_corpus(spec, seed=0)
        assert len(instances) == 100
        labels = [i.label for i in instances]
        assert sum(labels) == 50

    def test_vocabulary_size_and_embeddings(self):
        spec = SyntheticSpec()
        _, words, emb = generate_corpus(spec, seed=0)
        assert len(words) == 200
        assert emb.shape == (200, 20)
        assert words[-1] == "."

    def test_document_geometry(self):
        spec = SyntheticSpec(n_instances=60)
        instances, _, _ = generate_corpus(spec, seed=1)
        for inst in instances:
            for doc in inst.known_docs + [inst.unknown_doc]:
                sentences = segment_sentences(doc)
                assert spec.min_sentences <= len(sentences) <= spec.max_sentences
                for s in sentences:
                    n_tokens = len(tokenize(s))
                    assert spec.min_tokens <= n_tokens <= spec.max_tokens

    def test_pair_documents_share_sentence_count(self):
        spec = SyntheticSpec(n_instances=40)
        instances, _, _ = generate_corpus(spec, seed=2)
        for inst in instances:
            n_unknown = len(segment_sentences(inst.unknown_doc))
            for doc in inst.known_docs:
                assert len(segment_sentences(doc)) == n_unknown

    def test_deterministic(self):
        spec = SyntheticSpec(n_instances=30)
        a = generate_corpus(spec, seed=5)
        b = generate_corpus(spec, seed=5)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[2], b[2])

    def test_all_tokens_in_vocabulary(self):
        spec = SyntheticSpec(n_instances=30)
        instances, words, _ = generate_corpus(spec, seed=3)
        vocab = set(words)
        for inst in instances:
            for doc in inst.known_docs + [inst.unknown_doc]:
                for sentence in segment_sentences(doc):
                    for token in tokenize(sentence):
                        assert token.lower() in vocab

    def test_known_count_in_range(self):
        spec = SyntheticSpec(n_instances=60)
        instances, _, _ = generate_corpus(spec, seed=4)
        counts = {len(i.known_docs) for i in instances}
        assert counts <= set(range(spec.min_known, spec.max_known + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_authors=1)
        with pytest.raises(ValueError):
            SyntheticSpec(min_tokens=1)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_fewer_than_one_instance(self, n):
        with pytest.raises(ValueError, match="n_instances"):
            SyntheticSpec(n_instances=n)


class TestWriteSynthetic:
    def test_written_files_loadable(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        emb_path = tmp_path / "emb.txt"
        spec = SyntheticSpec(n_instances=20)
        written = write_synthetic(str(corpus_path), str(emb_path), spec, seed=0)
        loaded = load_corpus(str(corpus_path))
        assert loaded == written
        table = load_embeddings(str(emb_path), spec.emb_dim)
        assert len(table) == spec.vocab_size

    def test_no_oov_after_round_trip(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        emb_path = tmp_path / "emb.txt"
        spec = SyntheticSpec(n_instances=20)
        write_synthetic(str(corpus_path), str(emb_path), spec, seed=0)
        table = load_embeddings(str(emb_path), spec.emb_dim)
        oov = [
            token
            for inst in load_corpus(str(corpus_path))
            for doc in inst.known_docs + [inst.unknown_doc]
            for sentence in segment_sentences(doc)
            for token in tokenize(sentence)
            if token not in table
        ]
        assert oov == []

    def test_embedding_file_round_trips_values(self, tmp_path):
        emb_path = tmp_path / "emb.txt"
        rng = np.random.default_rng(0)
        words = ["a", "b", "."]
        emb = rng.uniform(-2, 2, size=(3, 4))
        write_embeddings(str(emb_path), words, emb)
        table = load_embeddings(str(emb_path), 4)
        for i, w in enumerate(words):
            np.testing.assert_array_equal(table.lookup(w), emb[i])
