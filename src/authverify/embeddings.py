"""Pretrained word-embedding ingestion and lookup.

Reads the plain-text format: UTF-8, one entry per line, a token followed
by its vector components, single-space separated.  Lookup tries the exact
token first, then its lowercase form; anything else is out of vocabulary
and resolves to the OOV vector (all zeros by default, which is inert
under matrix-vector products).  The table keeps no usage state: OOV
counts are kept per document, on `preprocess.EncodedDocument`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmbeddingTable", "EmbeddingFormatError", "load_embeddings"]


class EmbeddingFormatError(ValueError):
    """An embedding file line does not match the expected format."""


class EmbeddingTable:
    """Token -> vector map with an explicit OOV policy.

    The table is read-only after construction, so any number of threads
    may look tokens up in it at once.
    """

    def __init__(
        self,
        dim: int,
        vectors: dict[str, np.ndarray],
        oov_vector: np.ndarray | None = None,
        duplicate_count: int = 0,
    ) -> None:
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        for token, vec in vectors.items():
            if vec.shape != (dim,):
                raise ValueError(
                    f"vector for {token!r} has shape {vec.shape}, expected ({dim},)"
                )
        self.dim = dim
        self.vectors = vectors
        self.oov_vector = (
            np.zeros(dim, dtype=np.float64) if oov_vector is None else oov_vector
        )
        if self.oov_vector.shape != (dim,):
            raise ValueError(
                f"oov_vector shape {self.oov_vector.shape} must be ({dim},)"
            )
        self.duplicate_count = duplicate_count

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors or token.lower() in self.vectors

    def lookup(self, token: str) -> np.ndarray:
        """Vector for `token`: exact match, then lowercase, then OOV."""
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors.get(token.lower(), self.oov_vector)
        return vec


def load_embeddings(path: str, expected_dim: int) -> EmbeddingTable:
    """Load a text embedding file, checking every line against expected_dim.

    Duplicate tokens keep the last occurrence; the number of overwrites
    is reported on the returned table.
    """
    vectors: dict[str, np.ndarray] = {}
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            token, values = parts[0], parts[1:]
            if len(values) != expected_dim:
                raise EmbeddingFormatError(
                    f"expected {expected_dim} values, got {len(values)} "
                    f"at line {lineno}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"unparseable number at line {lineno}: {exc}"
                ) from None
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"non-finite value at line {lineno}")
            if token in vectors:
                duplicates += 1
            vectors[token] = vec
    if not vectors:
        raise EmbeddingFormatError(f"embedding file {path!r} contains no entries")
    return EmbeddingTable(expected_dim, vectors, duplicate_count=duplicates)
