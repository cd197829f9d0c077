"""Raw text to encoder input: token ids into one embedding matrix.

Pipeline: noise normalization with universal tokens, rule-based sentence
segmentation, tokenization, truncation to (max sentences, max words per
sentence) bounds, and resolution of each kept token to its row of the
embedding table's matrix.  A document is stored as those ids and its
sentence lengths under the caps; the padded tensor of its word vectors
is built only when asked for (`EncodedDocument.words`).

The normalization and segmentation rules are deliberately simple,
versioned patterns (no external NLP dependency):

* URLs, email addresses and phone numbers become the universal tokens
  ``<url>``, ``<email>`` and ``<phone>``; trailing sentence punctuation
  is kept outside the replacement so segmentation still sees it.  A
  phone number is a digit sequence with common separators carrying 7-15
  digits in total.
* Sentences split after ``.``, ``!`` or ``?`` (plus closing quotes or
  brackets) when followed by whitespace and an uppercase letter, a
  digit or an opening quote, or at end of text.  Newlines are hard
  boundaries.  A single ``.`` does not split after a known abbreviation
  (see ABBREVIATIONS) or a single uppercase initial.
* Tokens are runs of word characters, single punctuation marks, or the
  universal tokens kept atomic.
* Truncation keeps the prefix: the first max_sentences sentences and the
  first max_words tokens of each sentence.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import EmbeddingTable

__all__ = [
    "ABBREVIATIONS",
    "VerificationInstance",
    "EncodedDocument",
    "EmptyDocumentError",
    "CorpusFormatError",
    "normalize_text",
    "segment_sentences",
    "tokenize",
    "concatenate_known",
    "encode_document",
    "join_encoded",
    "load_corpus",
    "save_corpus",
]

URL_TOKEN = "<url>"
EMAIL_TOKEN = "<email>"
PHONE_TOKEN = "<phone>"

# A pattern that opens with a plain character class lets the regex engine
# scan ahead to a possible start instead of trying a match at every
# position; case-insensitive "h" and "w" match no other code point.
_URL_RE = re.compile(r"[hHwW](?i:(?<=h)ttps?://|(?<=w)ww\.)[^\s<>]+")
# "*+" gives back nothing: "@" is not in its class, so no shorter run of
# it is followed by "@" either.
_EMAIL_RE = re.compile(
    r"[A-Za-z0-9][A-Za-z0-9._%+-]*+@[A-Za-z0-9](?:[A-Za-z0-9.-]*[A-Za-z0-9])?"
    r"\.[A-Za-z]{2,}"
)
_PHONE_RE = re.compile(
    r"""
    (?<![\w.+-])                     # not glued to a word or number
    (?=[+(\d])                       # fail at once if no "+", "(" or digit
    (?:\+\d{1,3}[ -]?)?              # optional country code
    (?:\(\d{1,4}\)[ -]?|\d{1,4}[ -])?   # optional area code
    \d{2,4}[ -]?\d{2,4}(?:[ -]?\d{1,4}){0,2}
    (?![\w-])
    """,
    re.VERBOSE,
)
_PHONE_GROUPS_RE = re.compile(r"[ ()+-]+")
_YEAR_GROUP_RE = re.compile(r"^(?:19|20)\d\d$")
_TRAILING_PUNCT_RE = re.compile(r"[.,;:!?)\]'\"]+$")

# Words after which a single period never ends a sentence.  Dotted forms
# are matched with their internal dots stripped of the final period only
# ("e.g." -> "e.g").
ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
        "e.g", "i.e", "cf", "ca", "al", "fig", "eq", "sec", "no", "vol",
        "pp", "ed", "eds", "inc", "ltd", "co", "corp", "dept", "univ",
        "approx", "resp", "min", "max",
    }
)

# "[.!?][.!?]*" rather than "[.!?]+": a plain class first scans ahead.
_SENT_BOUNDARY_RE = re.compile(r"([.!?][.!?]*[\"')\]]*)(\s+|$)")
_TOKEN_RE = re.compile(r"<url>|<email>|<phone>|\w+|[^\w\s]")


class EmptyDocumentError(ValueError):
    """A document normalized and segmented down to nothing."""


class CorpusFormatError(ValueError):
    """A corpus file line is not a valid verification instance."""


def _replace_keeping_trailing_punct(token: str):
    def sub(match: re.Match) -> str:
        matched = match.group(0)
        trail = _TRAILING_PUNCT_RE.search(matched)
        if trail:
            return token + matched[trail.start():]
        return token

    return sub


_url_sub = _replace_keeping_trailing_punct(URL_TOKEN)
_email_sub = _replace_keeping_trailing_punct(EMAIL_TOKEN)


def _looks_like_phone(matched: str) -> bool:
    """Guards against number-like text the candidate regex also matches:
    requires 7-15 digits, rejects year groups (dates) unless the match
    carries a country code, and requires space-only groupings to contain
    one long group (keeps thousand-separated figures intact)."""
    digits = sum(ch.isdigit() for ch in matched)
    if not 7 <= digits <= 15:
        return False
    has_prefix = matched.lstrip().startswith(("+", "("))
    groups = [g for g in _PHONE_GROUPS_RE.split(matched) if g]
    if not has_prefix and any(_YEAR_GROUP_RE.match(g) for g in groups):
        return False
    if " " in matched and "-" not in matched and not has_prefix:
        if max(len(g) for g in groups) < 5:
            return False
    return True


def _phone_sub(match: re.Match) -> str:
    matched = match.group(0)
    if not _looks_like_phone(matched):
        return matched
    trail = _TRAILING_PUNCT_RE.search(matched)
    if trail:
        return PHONE_TOKEN + matched[trail.start():]
    return PHONE_TOKEN


def normalize_text(raw: str) -> str:
    """Replace URLs, email addresses and phone numbers with universal tokens.

    Everything else is left unchanged; applying the function twice gives
    the same result because the universal tokens match none of the
    patterns.
    """
    text = _URL_RE.sub(_url_sub, raw)
    text = _EMAIL_RE.sub(_email_sub, text)
    text = _PHONE_RE.sub(_phone_sub, text)
    return text


def _is_abbreviation(before: str) -> bool:
    """True when `before`, the sentence so far up to a terminator that is a
    lone '.', ends in a word after which that period must not close it."""
    if not before or before[-1].isspace():
        return False  # "Dr ." closes its sentence
    tail = before.rsplit(None, 1)[-1].strip("(\"'[")
    if not tail:
        return False
    if len(tail) == 1 and tail.isalpha() and tail.isupper():
        return True  # single-letter initial, "J. Smith"
    return tail.lower() in ABBREVIATIONS


def _split_line(line: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    for match in _SENT_BOUNDARY_RE.finditer(line):
        terminator, gap = match.group(1), match.group(2)
        end = match.start() + len(terminator)
        if gap:  # boundary mid-line: require a sentence-opening character
            nxt = line[match.end()] if match.end() < len(line) else ""
            if not (nxt.isupper() or nxt.isdigit() or nxt in "\"'(["):
                continue
        if terminator == "." and _is_abbreviation(line[start:end - 1]):
            continue
        chunk = line[start:end].strip()
        if chunk:
            sentences.append(chunk)
        start = match.end()
    rest = line[start:].strip()
    if rest:
        sentences.append(rest)
    return sentences


def segment_sentences(text: str) -> list[str]:
    """Split text into sentences; whitespace-only pieces are dropped.

    Joining the result (modulo whitespace) reproduces the input; text
    with no terminator at all comes back as a single sentence.
    """
    sentences: list[str] = []
    for line in text.split("\n"):
        sentences.extend(_split_line(line))
    return sentences


def tokenize(sentence: str) -> list[str]:
    """Words, single punctuation marks, and atomic universal tokens."""
    return _TOKEN_RE.findall(sentence)


@dataclass
class VerificationInstance:
    """One verification problem: documents of a known author, a document
    in question, and the label (1 = same author, 0 = different authors)."""

    known_docs: list[str]
    unknown_doc: str
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if not self.known_docs:
            raise ValueError("known_docs must be non-empty")


def concatenate_known(instance: VerificationInstance, order: list[int]) -> str:
    """Join the known documents in the given order with newline separators.

    The newline keeps segmentation from ever merging sentences across
    document boundaries.  `order` must be a permutation of the document
    indices.
    """
    n = len(instance.known_docs)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order!r} is not a permutation of range({n})")
    return "\n".join(instance.known_docs[k] for k in order)


class EncodedDocument:
    """One document as token ids into one embedding matrix.

    ids: (token_count,) rows of `matrix` (rows, dim), sentence after
    sentence, with row 0 the OOV vector; sent_lengths holds the token
    count of each real sentence (1 to max_words) and sent_oov its
    out-of-vocabulary count (zeros if not given).  `words` is built on
    demand at the caps it was encoded under: the (max_sentences,
    max_words, dim) tensor of word vectors, zero in every padded
    position.  The id form is built by `encode_document` and
    `join_encoded`, and is not checked again.

    `EncodedDocument(words, sent_lengths, num_sentences)` takes such a
    tensor instead, checked: its real vectors, packed behind a zero row,
    become the document's own matrix.
    """

    def __init__(self, words=None, sent_lengths=None, num_sentences=None, sent_oov=None,
                 *, ids=None, matrix=None, max_words=0, max_sentences=0) -> None:
        if words is not None:
            if words.ndim != 3 or sent_lengths.shape != (num_sentences,):
                raise ValueError(f"words {words.shape} must be 3-D, sent_lengths "
                                 f"{sent_lengths.shape} ({num_sentences},)")
            max_sentences, max_words, dim = words.shape
            if not 1 <= num_sentences <= max_sentences:
                raise ValueError(
                    f"num_sentences {num_sentences} outside [1, {max_sentences}]"
                )
            if np.any(sent_lengths < 1) or np.any(sent_lengths > max_words):
                raise ValueError("per-sentence lengths must lie in [1, max_words]")
            real = np.arange(max_words) < sent_lengths[:, None]
            matrix = np.concatenate([np.zeros((1, dim)), words[:num_sentences][real]])
            ids = np.arange(1, len(matrix))
        self.ids = ids
        self.sent_lengths = sent_lengths
        self.matrix = matrix
        self.max_words = max_words
        self.max_sentences = max_sentences
        if sent_oov is None:
            sent_oov = np.zeros(len(sent_lengths), dtype=np.int64)
        self.sent_oov = sent_oov

    @property
    def words(self) -> np.ndarray:
        """A new zero-padded (max_sentences, max_words, dim) word tensor."""
        words = np.zeros((self.max_sentences, self.max_words, self.dim))
        real = np.arange(self.max_words) < self.sent_lengths[:, None]
        words[: self.num_sentences][real] = self.matrix[self.ids]
        return words

    @property
    def num_sentences(self) -> int:
        return len(self.sent_lengths)

    @property
    def token_count(self) -> int:
        return len(self.ids)

    @property
    def oov_count(self) -> int:
        return int(self.sent_oov.sum())

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def encode_document(
    text: str, table: EmbeddingTable, max_words: int, max_sentences: int
) -> EncodedDocument:
    """Normalize, segment, tokenize, and resolve a document to token ids
    into `table.matrix`.

    Keeps the first max_sentences sentences and the first max_words
    tokens of each; the document's `words` view is
    (max_sentences, max_words, table.dim).
    """
    if max_words < 1 or max_sentences < 1:
        raise ValueError("max_words and max_sentences must be >= 1")
    sentences = segment_sentences(normalize_text(text))
    if not sentences:
        raise EmptyDocumentError("empty document")
    tokens = [tokenize(sentence)[:max_words] for sentence in sentences[:max_sentences]]
    lengths = np.array([len(t) for t in tokens])
    ids = np.array(table.ids(chain.from_iterable(tokens)), dtype=np.int32)
    starts = np.cumsum(lengths) - lengths
    oov = np.add.reduceat(ids == 0, starts, dtype=np.int64)
    return EncodedDocument(
        sent_lengths=lengths, sent_oov=oov, ids=ids, matrix=table.matrix,
        max_words=max_words, max_sentences=max_sentences,
    )


def join_encoded(parts: list[EncodedDocument | None]) -> EncodedDocument:
    """`encode_document` of texts joined by newlines, from each text's
    `encode_document` at the same caps (None if it segments to nothing):
    their sentences in order, cut to the parts' `max_sentences`; a lone
    part is returned itself.  Exact because a newline is a hard sentence
    boundary that no normalization pattern crosses.  The parts must index
    one matrix."""
    parts = [p for p in parts if p is not None]
    if not parts:
        raise EmptyDocumentError("empty document")
    if len(parts) == 1:
        return parts[0]
    matrix = parts[0].matrix
    if any(p.matrix is not matrix for p in parts):
        raise ValueError("parts index different embedding matrices")
    cap = parts[0].max_sentences
    lengths = np.concatenate([p.sent_lengths for p in parts])[:cap]
    return EncodedDocument(
        sent_lengths=lengths,
        sent_oov=np.concatenate([p.sent_oov for p in parts])[:cap],
        ids=np.concatenate([p.ids for p in parts])[: lengths.sum()],
        matrix=matrix,
        max_words=parts[0].max_words,
        max_sentences=cap,
    )


def load_corpus(path: str) -> list[VerificationInstance]:
    """Read a corpus file: one JSON object per line with fields `known`
    (array of strings), `unknown` (string) and `label` (0 or 1)."""
    instances: list[VerificationInstance] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON at line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"line {lineno} is not a JSON object")
            known = obj.get("known")
            unknown = obj.get("unknown")
            label = obj.get("label")
            if (
                not isinstance(known, list)
                or not known
                or not all(isinstance(d, str) for d in known)
            ):
                raise CorpusFormatError(
                    f"line {lineno}: `known` must be a non-empty array of strings"
                )
            if not isinstance(unknown, str):
                raise CorpusFormatError(f"line {lineno}: `unknown` must be a string")
            # bool is an int subclass and 1.0 == 1, so test the type too
            if type(label) is not int or label not in (0, 1):
                raise CorpusFormatError(
                    f"line {lineno}: `label` must be the integer 0 or 1, got {label!r}"
                )
            instances.append(VerificationInstance(list(known), unknown, label))
    return instances


def save_corpus(instances: list[VerificationInstance], path: str) -> None:
    """Write instances in the line-JSON corpus format, UTF-8, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(
                json.dumps(
                    {
                        "known": inst.known_docs,
                        "unknown": inst.unknown_doc,
                        "label": inst.label,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")
