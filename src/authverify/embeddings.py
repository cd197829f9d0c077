"""Pretrained word-embedding ingestion and lookup.

Reads the plain-text format: UTF-8, one entry per line, a token followed
by its vector components, single-space separated.  The vectors are rows
of one (vocab + 1, dim) matrix whose row 0 is the OOV vector (all zeros
by default, which is inert under matrix-vector products).  A token
resolves to its row: the exact token first, then its lowercase form,
then row 0.  The table keeps no usage state: OOV counts are kept per
document, on `preprocess.EncodedDocument`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["EmbeddingTable", "EmbeddingFormatError", "load_embeddings"]


class EmbeddingFormatError(ValueError):
    """An embedding file line does not match the expected format."""


class EmbeddingTable:
    """Token -> row of one embedding matrix, with an explicit OOV policy.

    `matrix` is (len(rows) + 1, dim): row 0 is `oov_vector`, and `rows`
    maps each token to its row.  The table is read-only after
    construction, so any number of threads may look tokens up in it at
    once.
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
        vecs = [np.zeros(dim) if oov_vector is None else oov_vector, *vectors.values()]
        for name, vec in zip(["oov_vector", *vectors], vecs):
            if vec.shape != (dim,):
                raise ValueError(f"{name!r} has shape {vec.shape}, expected ({dim},)")
        matrix = np.array(vecs, dtype=np.float64)
        self._fill(matrix, dict(zip(vectors, range(1, len(vecs)))), duplicate_count)

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, rows: dict[str, int], duplicate_count: int = 0
    ) -> "EmbeddingTable":
        """Table over a filled matrix: row 0 the OOV vector, and `rows`
        each token's row."""
        table = cls.__new__(cls)
        table._fill(matrix, rows, duplicate_count)
        return table

    def _fill(self, matrix: np.ndarray, rows: dict[str, int], duplicate_count: int):
        self.dim = matrix.shape[1]
        self.matrix = matrix
        self.rows = rows
        self.oov_vector = matrix[0]
        self.duplicate_count = duplicate_count

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, token: str) -> bool:
        return self.ids([token]) != [0]

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """Row of each token: exact match, then lowercase, then 0 (OOV)."""
        get = self.rows.get
        return [get(token) or get(token.lower(), 0) for token in tokens]

    def lookup(self, token: str) -> np.ndarray:
        """Vector for `token`, a row of `matrix` (`oov_vector` itself if OOV)."""
        (row,) = self.ids([token])
        return self.matrix[row] if row else self.oov_vector


def load_embeddings(path: str, expected_dim: int) -> EmbeddingTable:
    """Load a text embedding file, checking every line against expected_dim.

    Each line's vector is parsed straight into the table's matrix.
    Duplicate tokens keep the last occurrence; the number of overwrites
    is reported on the returned table.
    """
    rows: dict[str, int] = {}
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        matrix = np.zeros((sum(1 for _ in fh) + 1, expected_dim))
        fh.seek(0)
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
            duplicates += token in rows
            row = rows.setdefault(token, len(rows) + 1)
            try:
                matrix[row] = [float(v) for v in values]
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"unparseable number at line {lineno}: {exc}"
                ) from None
            if not np.all(np.isfinite(matrix[row])):
                raise EmbeddingFormatError(f"non-finite value at line {lineno}")
    if not rows:
        raise EmbeddingFormatError(f"embedding file {path!r} contains no entries")
    return EmbeddingTable.from_matrix(matrix[: len(rows) + 1], rows, duplicates)
