import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from authverify.embeddings import EmbeddingTable
from authverify.preprocess import (
    ABBREVIATIONS,
    _email_sub,
    _phone_sub,
    _url_sub,
    CorpusFormatError,
    EmptyDocumentError,
    EncodedDocument,
    VerificationInstance,
    concatenate_known,
    encode_document,
    join_encoded,
    load_corpus,
    normalize_text,
    save_corpus,
    segment_sentences,
    tokenize,
)
from authverify.numeric import make_rng


class TestNormalizeText:
    def test_url_replacement(self):
        assert normalize_text("see http://a.b/c now") == "see <url> now"

    def test_no_matches_unchanged(self):
        text = "a perfectly plain sentence, nothing to scrub"
        assert normalize_text(text) == text

    def test_repeated_emails(self):
        assert (
            normalize_text("mail a@b.com or a@b.com")
            == "mail <email> or <email>"
        )

    def test_phone_variants(self):
        assert normalize_text("call 555-123-4567 now") == "call <phone> now"
        assert normalize_text("call +49 30 12345678.") == "call <phone>."
        assert normalize_text("ring (0171) 234-5678!") == "ring <phone>!"

    def test_number_like_text_left_alone(self):
        for text in (
            "in 1914 1918 they fought",
            "budget of 1 000 000 dollars",
            "pi is 3.14159 and e is 2.71828",
            "from 2020-06-01 to 2021-03-12",
            "a dozen is 12 and a gross 144",
        ):
            assert normalize_text(text) == text

    def test_trailing_punctuation_survives(self):
        assert normalize_text("go to www.example.com/x.") == "go to <url>."
        assert normalize_text("write me: x.y@z.org, thanks") == "write me: <email>, thanks"

    def test_idempotent_on_samples(self):
        samples = [
            "see http://a.b/c and mail a@b.com or call 555-123-4567",
            "nothing here",
            "<url> already replaced; <email> too; <phone> as well",
        ]
        for text in samples:
            once = normalize_text(text)
            assert normalize_text(once) == once

    def test_urls_with_www_prefix(self):
        assert normalize_text("at www.foo.org/bar?q=1 today") == "at <url> today"

    def test_url_prefixes_in_capitals(self):
        assert (
            normalize_text("see WWW.Example.com/x. and HTTP://A.b now")
            == "see <url>. and <url> now"
        )

    def test_url_prefix_letters_have_no_other_case_forms(self):
        # _URL_RE opens with the plain class [hHwW] before its
        # case-insensitive rest.
        matches = [c for c in map(chr, range(sys.maxunicode + 1))
                   if re.fullmatch(r"(?i)[hw]", c)]
        assert matches == ["H", "W", "h", "w"]

    def test_phone_in_arabic_indic_digits(self):
        assert normalize_text("call ٥٥٥-١٢٣-٤٥٦٧ now") == "call <phone> now"

    def test_phone_start_characters_alone_unchanged(self):
        assert normalize_text("a + b ( c ) 12 + 3") == "a + b ( c ) 12 + 3"


class TestSegmentSentences:
    def test_two_plain_sentences(self):
        assert segment_sentences("A b. C d.") == ["A b.", "C d."]

    def test_no_terminator(self):
        assert segment_sentences("No terminator here") == ["No terminator here"]

    def test_abbreviation_stop_list(self):
        assert segment_sentences("Dr. Smith left. He ran.") == [
            "Dr. Smith left.",
            "He ran.",
        ]

    def test_space_before_period_splits_after_abbreviation(self):
        assert segment_sentences("Ask Dr . Who knows.") == ["Ask Dr .", "Who knows."]
        assert segment_sentences("Ask Dr. Who knows.") == ["Ask Dr. Who knows."]

    def test_single_letter_initial(self):
        assert segment_sentences("J. Smith wrote. K agreed.") == [
            "J. Smith wrote.",
            "K agreed.",
        ]

    def test_lowercase_continuation_does_not_split(self):
        assert segment_sentences("wait... then nothing") == ["wait... then nothing"]

    def test_newline_is_hard_boundary(self):
        assert segment_sentences("one line\nanother line") == [
            "one line",
            "another line",
        ]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_whitespace_only_sentences_dropped(self):
        assert segment_sentences("  \n   \nA.") == ["A."]

    def test_concatenation_reproduces_text_modulo_whitespace(self):
        texts = [
            "A b. C d.",
            "Dr. Smith left. He ran.",
            "one\ntwo. Three? Four!",
            "No terminator",
        ]
        for text in texts:
            joined = "".join("".join(s.split()) for s in segment_sentences(text))
            assert joined == "".join(text.split())


class TestTokenize:
    def test_punctuation_is_a_token(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_universal_tokens_atomic(self):
        assert tokenize("<url> rocks") == ["<url>", "rocks"]
        assert tokenize("ping <email>, then <phone>.") == [
            "ping", "<email>", ",", "then", "<phone>", ".",
        ]

    def test_no_interior_whitespace(self):
        rng = make_rng(0)
        alphabet = list("abc <>.!?@#123\t")
        for _ in range(100):
            text = "".join(rng.choice(alphabet) for _ in range(40))
            for token in tokenize(text):
                assert token == token.strip()
                assert not any(ch.isspace() for ch in token)


class TestVerificationInstance:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            VerificationInstance(["doc"], "doc", 2)

    def test_known_docs_non_empty(self):
        with pytest.raises(ValueError):
            VerificationInstance([], "doc", 1)


class TestConcatenateKnown:
    def test_singleton_identity(self):
        inst = VerificationInstance(["only doc"], "u", 1)
        assert concatenate_known(inst, [0]) == "only doc"

    def test_order_applied(self):
        inst = VerificationInstance(["A", "B"], "u", 0)
        assert concatenate_known(inst, [1, 0]) == "B\nA"

    def test_permutations_keep_sentence_multiset(self):
        docs = ["First doc.", "Second doc.", "Third doc."]
        inst = VerificationInstance(docs, "u", 1)
        fwd = segment_sentences(concatenate_known(inst, [0, 1, 2]))
        rev = segment_sentences(concatenate_known(inst, [2, 1, 0]))
        assert fwd != rev
        assert sorted(fwd) == sorted(rev)

    def test_rejects_non_permutation(self):
        inst = VerificationInstance(["A", "B"], "u", 1)
        with pytest.raises(ValueError):
            concatenate_known(inst, [0, 0])
        with pytest.raises(ValueError):
            concatenate_known(inst, [0])


class TestEncodeDocument:
    def test_simple_document(self, tiny_table):
        doc = "The cat sat. The mat sat."
        enc = encode_document(doc, tiny_table, max_words=33, max_sentences=123)
        assert enc.words.shape == (123, 33, 3)
        assert enc.num_sentences == 2
        assert list(enc.sent_lengths) == [4, 4]
        np.testing.assert_array_equal(enc.words[0, 0], tiny_table.lookup("the"))

    def test_token_truncation(self, tiny_table):
        doc = " ".join(["cat"] * 40) + "."
        enc = encode_document(doc, tiny_table, max_words=33, max_sentences=123)
        assert enc.sent_lengths[0] == 33

    def test_sentence_truncation(self, tiny_table):
        doc = " ".join(["The cat sat."] * 130)
        enc = encode_document(doc, tiny_table, max_words=33, max_sentences=123)
        assert enc.num_sentences == 123

    def test_empty_document_is_error(self, tiny_table):
        with pytest.raises(EmptyDocumentError, match="empty document"):
            encode_document("   \n  ", tiny_table, 10, 10)

    def test_padding_positions_are_zero(self, tiny_table):
        enc = encode_document("The cat. The mat.", tiny_table, 5, 4)
        for k in range(4):
            for t in range(5):
                real = k < enc.num_sentences and t < enc.sent_lengths[min(k, 1)]
                if not real:
                    np.testing.assert_array_equal(enc.words[k, t], np.zeros(3))

    def test_shape_fixed_regardless_of_input(self, tiny_table):
        for doc in ("Cat.", " ".join(["The cat sat on the mat."] * 50)):
            enc = encode_document(doc, tiny_table, 7, 9)
            assert enc.words.shape == (9, 7, 3)

    def test_oov_tokens_counted(self, tiny_table):
        enc = encode_document("The zebra sat.", tiny_table, 10, 10)
        assert enc.oov_count == 1
        assert enc.token_count == 4


class TestEncodeDocumentThreads:
    def test_oov_counts_per_document_across_threads(self, tiny_table):
        oov, known = "The zebra sat.", "The cat, the yak and the mat."
        docs = [" ".join([oov] * k + [known] * (5 - k)) for k in range(6)]
        expected = [encode_document(d, tiny_table, 33, 123).oov_count for d in docs]
        assert len(set(expected)) == 6

        def encode_all():
            return [
                [encode_document(d, tiny_table, 33, 123).oov_count for d in docs]
                for _ in range(40)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(encode_all) for _ in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for rounds in results:
            assert rounds == [expected] * 40


# Criterion 9's fuzz vocabulary (tests/test_acceptance.py) plus pieces of
# URLs and phone numbers that would join into one across a boundary.
FUZZ_PARTS = [
    "http://example.com/a/b?c=1", "https://x.y.z/path#frag", "www.site.org/q",
    "first.last@mail.com", "a+tag@sub.domain.io",
    "555-123-4567", "+49 30 12345678", "(0171) 234-5678",
    "alpha", "Beta", "gamma", "DELTA", "epsilon", "Zeta90", "…", "naïve",
    "word", "кошка", "猫", "e.g.", "Dr.", "No.", "3.14", "10,000", "2021",
    ".", "!", "?", ",", ";", ":", "—", "(", ")", '"', "'", "\n",
    "555-123", "4567", "+49 30", "12345678", "http://example", ".com/a",
]
FUZZ_TEXT = st.one_of(
    st.sampled_from(["", "   ", "\n"]),
    st.lists(st.sampled_from(FUZZ_PARTS), min_size=1, max_size=25).map(" ".join),
)


def fuzz_table():
    rng = make_rng(9)
    vocab = ["alpha", "beta", "word", "кошка", "<url>", "<phone>", ".", ",", "("]
    return EmbeddingTable(3, {t: rng.uniform(-1, 1, 3) for t in vocab})


def lookup_words(text, table, max_words, max_sentences):
    """`EncodedDocument.words` by one `table.lookup` per kept token."""
    sentences = segment_sentences(normalize_text(text))[:max_sentences]
    words = np.zeros((max_sentences, max_words, table.dim))
    for k, sentence in enumerate(sentences):
        for t, token in enumerate(tokenize(sentence)[:max_words]):
            words[k, t] = table.lookup(token)
    return words


class TestTokenIds:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        text=FUZZ_TEXT,
        max_words=st.integers(1, 6),
        max_sentences=st.integers(1, 5),
    )
    def test_words_are_the_looked_up_vectors(self, text, max_words, max_sentences):
        # a non-zero OOV vector, and "Beta" beside its lowercase form
        rng = make_rng(10)
        vocab = ["alpha", "beta", "Beta", "word", "кошка", "<url>", ".", ","]
        table = EmbeddingTable(
            3, {t: rng.uniform(-1, 1, 3) for t in vocab}, np.array([7.0, -7.0, 0.5])
        )
        try:
            enc = encode_document(text, table, max_words, max_sentences)
        except EmptyDocumentError:
            return
        expected = lookup_words(text, table, max_words, max_sentences)
        assert enc.words.shape == expected.shape
        assert enc.words.tobytes() == expected.tobytes()
        assert enc.matrix is table.matrix
        assert enc.oov_count == int(np.sum(enc.ids == 0))

    def test_tensor_form_keeps_its_real_vectors(self):
        rng = make_rng(4)
        words = np.zeros((4, 3, 2))
        words[0, :2] = rng.uniform(-1, 1, (2, 2))
        words[1, :3] = rng.uniform(-1, 1, (3, 2))
        doc = EncodedDocument(
            words=words, sent_lengths=np.array([2, 3]), num_sentences=2
        )
        assert doc.token_count == 5 and doc.matrix[0].tolist() == [0.0, 0.0]
        assert doc.words.tobytes() == words.tobytes()

    def test_join_rejects_parts_over_different_matrices(self, tiny_table):
        other = EmbeddingTable(3, {"the": np.ones(3)})
        parts = [encode_document("The cat.", t, 5, 5) for t in (tiny_table, other)]
        with pytest.raises(ValueError, match="different embedding matrices"):
            join_encoded(parts)


class TestJoinEncoded:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        texts=st.lists(FUZZ_TEXT, min_size=1, max_size=3),
        max_words=st.integers(1, 6),
        max_sentences=st.integers(1, 5),
    )
    def test_equals_encoding_the_newline_joined_text(
        self, texts, max_words, max_sentences
    ):
        table = fuzz_table()

        def encode(text):
            try:
                return encode_document(text, table, max_words, max_sentences)
            except EmptyDocumentError:
                return None

        parts = [encode(t) for t in texts]
        expected = encode("\n".join(texts))
        if expected is None:
            with pytest.raises(EmptyDocumentError):
                join_encoded(parts)
            return
        joined = join_encoded(parts)
        assert (joined.max_sentences, joined.max_words) == (max_sentences, max_words)
        assert joined.words.shape == expected.words.shape
        assert joined.words.tobytes() == expected.words.tobytes()
        assert joined.sent_lengths.tobytes() == expected.sent_lengths.tobytes()
        assert joined.num_sentences == expected.num_sentences
        assert joined.token_count == expected.token_count
        assert joined.oov_count == expected.oov_count


# Reference text pipeline, the plain forms of normalize_text,
# _is_abbreviation and _split_line and of their patterns: case-insensitive
# URL prefixes, an email local part that gives characters back, no
# opening-character lookahead for phones, "[.!?]+" at sentence ends, and
# the abbreviation tail as the last piece of re.split over the whole
# sentence so far.
REFERENCE_URL_RE = re.compile(r"(?:https?://|www\.)[^\s<>]+", re.IGNORECASE)
REFERENCE_EMAIL_RE = re.compile(
    r"[A-Za-z0-9][A-Za-z0-9._%+-]*@[A-Za-z0-9](?:[A-Za-z0-9.-]*[A-Za-z0-9])?"
    r"\.[A-Za-z]{2,}"
)
REFERENCE_PHONE_RE = re.compile(
    r"""
    (?<![\w.+-])                     # not glued to a word or number
    (?:\+\d{1,3}[ -]?)?              # optional country code
    (?:\(\d{1,4}\)[ -]?|\d{1,4}[ -])?   # optional area code
    \d{2,4}[ -]?\d{2,4}(?:[ -]?\d{1,4}){0,2}
    (?![\w-])
    """,
    re.VERBOSE,
)
REFERENCE_SENT_BOUNDARY_RE = re.compile(r"([.!?]+[\"')\]]*)(\s+|$)")


def reference_normalize_text(raw: str) -> str:
    text = REFERENCE_URL_RE.sub(_url_sub, raw)
    text = REFERENCE_EMAIL_RE.sub(_email_sub, text)
    text = REFERENCE_PHONE_RE.sub(_phone_sub, text)
    return text


def reference_is_abbreviation(before: str) -> bool:
    word = before.rstrip(".")
    if not word:
        return False
    tail = re.split(r"\s", word)[-1] if word else ""
    tail = tail.strip("(\"'[")
    if not tail:
        return False
    if len(tail) == 1 and tail.isalpha() and tail.isupper():
        return True  # single-letter initial, "J. Smith"
    return tail.lower() in ABBREVIATIONS


def reference_split_line(line: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    for match in REFERENCE_SENT_BOUNDARY_RE.finditer(line):
        terminator, gap = match.group(1), match.group(2)
        end = match.start() + len(terminator)
        if gap:  # boundary mid-line: require a sentence-opening character
            nxt = line[match.end()] if match.end() < len(line) else ""
            if not (nxt.isupper() or nxt.isdigit() or nxt in "\"'(["):
                continue
        if terminator == "." and reference_is_abbreviation(line[start:end]):
            continue
        chunk = line[start:end].strip()
        if chunk:
            sentences.append(chunk)
        start = match.end()
    rest = line[start:].strip()
    if rest:
        sentences.append(rest)
    return sentences


def reference_segment_sentences(text: str) -> list[str]:
    return [s for line in text.split("\n") for s in reference_split_line(line)]


# Pieces that put whitespace, brackets, quotes or capitals beside an
# abbreviation's period, capital URL prefixes, lone phone-start and email
# characters, and a phone number in Arabic-Indic digits.
ORACLE_PARTS = FUZZ_PARTS + [
    "Dr .", " Dr.", "(Dr.", "'e.g.", "DR.", "J.", "WWW.Site.org", "HTTP://A.b",
    "@", "+", "(", "٥٥٥-١٢٣-٤٥٦٧", "\t",
]
ORACLE_TEXT = st.one_of(
    FUZZ_TEXT,
    st.builds(
        str.join,
        st.sampled_from([" ", "", "\t"]),
        st.lists(st.sampled_from(ORACLE_PARTS), min_size=1, max_size=25),
    ),
)


class TestReferencePipeline:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(
        text=ORACLE_TEXT,
        max_words=st.integers(1, 6),
        max_sentences=st.integers(1, 5),
    )
    def test_pipeline_equals_the_reference_byte_for_byte(
        self, text, max_words, max_sentences
    ):
        normalized = reference_normalize_text(text)
        assert normalize_text(text) == normalized
        sentences = reference_segment_sentences(normalized)
        assert segment_sentences(normalized) == sentences
        table = fuzz_table()
        if not sentences:
            with pytest.raises(EmptyDocumentError):
                encode_document(text, table, max_words, max_sentences)
            return
        tokens = [tokenize(s)[:max_words] for s in sentences[:max_sentences]]
        ids = [table.ids(t) for t in tokens]
        enc = encode_document(text, table, max_words, max_sentences)
        assert enc.ids.tobytes() == np.array(sum(ids, []), dtype=np.int32).tobytes()
        assert enc.sent_lengths.tobytes() == np.array([len(t) for t in tokens]).tobytes()
        assert enc.sent_oov.tobytes() == np.array(
            [i.count(0) for i in ids], dtype=np.int64
        ).tobytes()
        assert enc.max_sentences == max_sentences
        assert enc.max_words == max_words


class TestEncodedDocumentValidation:
    def test_rejects_zero_sentences(self):
        with pytest.raises(ValueError):
            EncodedDocument(
                words=np.zeros((2, 3, 4)),
                sent_lengths=np.array([], dtype=np.int64),
                num_sentences=0,
            )

    def test_rejects_overlong_sentence(self):
        with pytest.raises(ValueError):
            EncodedDocument(
                words=np.zeros((2, 3, 4)),
                sent_lengths=np.array([5]),
                num_sentences=1,
            )


class TestCorpusIO:
    def make_instances(self):
        return [
            VerificationInstance(["Known one.", "Known two."], "Unknown doc.", 1),
            VerificationInstance(["Only known, with ünïcode."], "Other doc?", 0),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(self.make_instances(), str(path))
        loaded = load_corpus(str(path))
        assert loaded == self.make_instances()

    def test_texts_preserved_byte_exactly(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        originals = self.make_instances()
        save_corpus(originals, str(path))
        loaded = load_corpus(str(path))
        for orig, back in zip(originals, loaded):
            assert back.unknown_doc == orig.unknown_doc
            assert back.known_docs == orig.known_docs

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"known": ["a"], "unknown": "b", "label": 1}\nnot json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(str(path))

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"known": [], "unknown": "b", "label": 1}) + "\n")
        with pytest.raises(CorpusFormatError, match="known"):
            load_corpus(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"known": ["a"], "unknown": "b", "label": 3}) + "\n"
        )
        with pytest.raises(CorpusFormatError, match="label"):
            load_corpus(str(path))

    @pytest.mark.parametrize("label", ["true", "false", "1.0", "0.0"])
    def test_non_integer_label_rejected(self, tmp_path, label):
        # True == 1 and 1.0 == 1 in Python; the file must hold the integer
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"known": ["a"], "unknown": "b", "label": 1}\n'
            f'{{"known": ["a"], "unknown": "b", "label": {label}}}\n'
        )
        with pytest.raises(CorpusFormatError, match="line 2: `label`"):
            load_corpus(str(path))
