"""Synthetic verification corpus for end-to-end separability checks.

Authorship signal is carried entirely by word choice: each author owns a
private subset of the vocabulary (the subsets partition the word types)
and draws words from a Dirichlet-weighted unigram distribution over that
subset.  Word embeddings are random but clustered: every word vector is
its author's direction vector plus isotropic noise, with the author
directions taken from stacked random orthonormal bases so that distinct
authors stay well separated in embedding space.  A correctly wired
encoder, loss, and optimizer must therefore separate same-author from
different-author pairs; nothing else in the corpus predicts the label.

Documents are rendered as real text: sentences of space-separated word
tokens, first word capitalized, closed by a period that counts as one
token and has its own (unclustered) embedding.  Both documents of a pair
share one sentence-count draw, so document length carries no label
information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import make_rng
from .preprocess import VerificationInstance, save_corpus

__all__ = ["SyntheticSpec", "generate_corpus", "write_embeddings", "write_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator knobs; the defaults define the standard small benchmark:
    40 authors over a 200-type vocabulary with 20-dim embeddings and 800
    balanced instances."""

    n_authors: int = 40
    vocab_size: int = 200  # word types including the sentence-final period
    emb_dim: int = 20
    n_instances: int = 800
    min_sentences: int = 5
    max_sentences: int = 15
    min_tokens: int = 4  # per sentence, period included
    max_tokens: int = 12
    min_known: int = 1
    max_known: int = 3
    support_size: int = 4  # word types private to each author
    dirichlet_alpha: float = 2.0
    emb_scale: float = 3.0
    cluster_noise: float = 0.1  # word spread around the author direction

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must leave room for the period token")
        if self.n_authors < 2:
            raise ValueError("need at least 2 authors to form label-0 pairs")
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.min_tokens < 2:
            raise ValueError("min_tokens must be >= 2 (one word plus the period)")
        if self.n_authors * self.support_size > self.vocab_size - 1:
            raise ValueError(
                "author supports cannot partition the content vocabulary: "
                f"{self.n_authors} x {self.support_size} > {self.vocab_size - 1}"
            )


def _vocabulary(spec: SyntheticSpec) -> list[str]:
    words = [f"w{i:03d}" for i in range(spec.vocab_size - 1)]
    return words + ["."]


def _author_directions(
    n_authors: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Author style directions: rows of stacked random orthonormal bases,
    scaled to the norm of a +-1 sign vector (sqrt(dim)), so directions
    within a basis are exactly orthogonal and cross-basis correlations
    stay small."""
    blocks = []
    total = 0
    while total < n_authors:
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        blocks.append(q.T * np.sqrt(dim))
        total += dim
    return np.vstack(blocks)[:n_authors]


def _sample_document(
    author_dist: np.ndarray,
    words: list[str],
    spec: SyntheticSpec,
    rng: np.random.Generator,
    n_sentences: int,
) -> str:
    sentences = []
    for _ in range(n_sentences):
        n_words = int(rng.integers(spec.min_tokens, spec.max_tokens + 1)) - 1
        idx = rng.choice(len(words), size=n_words, p=author_dist)
        tokens = [words[j] for j in idx]
        tokens[0] = tokens[0].capitalize()
        sentences.append(" ".join(tokens) + ".")
    return " ".join(sentences)


def generate_corpus(
    spec: SyntheticSpec = SyntheticSpec(), seed: int = 0
) -> tuple[list[VerificationInstance], list[str], np.ndarray]:
    """Build (instances, vocabulary, embedding matrix).

    Labels are balanced: even-indexed draws pair an author with itself,
    odd-indexed draws pair two different authors.  The instance list is
    shuffled before returning.
    """
    rng = make_rng(seed)
    words = _vocabulary(spec)
    n_content = spec.vocab_size - 1

    directions = _author_directions(spec.n_authors, spec.emb_dim, rng)
    embeddings = np.zeros((len(words), spec.emb_dim))
    author_dists = np.zeros((spec.n_authors, n_content))
    support_perm = rng.permutation(n_content)
    used: set[int] = set()
    for a in range(spec.n_authors):
        support = support_perm[
            a * spec.support_size : (a + 1) * spec.support_size
        ]
        used.update(int(w) for w in support)
        author_dists[a, support] = rng.dirichlet(
            np.full(spec.support_size, spec.dirichlet_alpha)
        )
        for w in support:
            embeddings[w] = spec.emb_scale * (
                directions[a] + spec.cluster_noise * rng.normal(size=spec.emb_dim)
            )
    # words outside every author's support, and the period, get plain
    # random sign vectors
    for w in range(n_content):
        if w not in used:
            embeddings[w] = spec.emb_scale * rng.choice(
                [-1.0, 1.0], size=spec.emb_dim
            )
    embeddings[-1] = spec.emb_scale * rng.choice([-1.0, 1.0], size=spec.emb_dim)

    content_words = words[:-1]
    instances: list[VerificationInstance] = []
    for i in range(spec.n_instances):
        author = int(rng.integers(spec.n_authors))
        same = i % 2 == 0
        if same:
            other = author
        else:
            other = int(rng.integers(spec.n_authors - 1))
            if other >= author:
                other += 1
        n_known = int(rng.integers(spec.min_known, spec.max_known + 1))
        n_sentences = int(rng.integers(spec.min_sentences, spec.max_sentences + 1))
        known = [
            _sample_document(
                author_dists[author], content_words, spec, rng, n_sentences
            )
            for _ in range(n_known)
        ]
        unknown = _sample_document(
            author_dists[other], content_words, spec, rng, n_sentences
        )
        instances.append(
            VerificationInstance(
                known_docs=known, unknown_doc=unknown, label=1 if same else 0
            )
        )
    order = rng.permutation(len(instances))
    return [instances[j] for j in order], words, embeddings


def write_embeddings(path: str, words: list[str], embeddings: np.ndarray) -> None:
    """Write the token embeddings in the plain-text embedding format."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in zip(words, embeddings):
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec))
            fh.write("\n")


def write_synthetic(
    corpus_path: str,
    embeddings_path: str,
    spec: SyntheticSpec = SyntheticSpec(),
    seed: int = 0,
) -> list[VerificationInstance]:
    """Generate and write both the corpus and its embedding file."""
    instances, words, embeddings = generate_corpus(spec, seed)
    save_corpus(instances, corpus_path)
    write_embeddings(embeddings_path, words, embeddings)
    return instances
