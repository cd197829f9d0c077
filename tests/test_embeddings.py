import numpy as np
import pytest

from authverify.embeddings import EmbeddingFormatError, EmbeddingTable, load_embeddings


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadEmbeddings:
    def test_loads_all_entries(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for token in ("alpha", "beta"):
            values = rng.uniform(-1, 1, 300)
            lines.append(token + " " + " ".join(repr(float(v)) for v in values))
        path = tmp_path / "emb.txt"
        write_lines(path, lines)
        table = load_embeddings(str(path), 300)
        assert len(table) == 2
        assert table.dim == 300

    def test_round_trips_vectors_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        tokens = [f"t{i}" for i in range(20)]
        vectors = {t: rng.uniform(-2, 2, 5) for t in tokens}
        path = tmp_path / "emb.txt"
        write_lines(
            path,
            [
                t + " " + " ".join(repr(float(v)) for v in vec)
                for t, vec in vectors.items()
            ],
        )
        table = load_embeddings(str(path), 5)
        for t, vec in vectors.items():
            np.testing.assert_array_equal(table.lookup(t), vec)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="no entries"):
            load_embeddings(str(path), 3)

    def test_wrong_value_count_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_lines(path, ["the 0.1 0.2"])
        with pytest.raises(
            EmbeddingFormatError, match="expected 3 values, got 2 at line 1"
        ):
            load_embeddings(str(path), 3)

    def test_unparseable_number_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        write_lines(path, ["ok 0.1 0.2", "broken 0.1 zzz"])
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(str(path), 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        write_lines(path, ["ok 0.1 0.2", f"broken 0.1 {value}"])
        with pytest.raises(EmbeddingFormatError, match="non-finite value at line 2"):
            load_embeddings(str(path), 2)

    def test_duplicates_last_wins_and_counted(self, tmp_path):
        path = tmp_path / "dup.txt"
        write_lines(path, ["a 1.0 2.0", "a 3.0 4.0"])
        table = load_embeddings(str(path), 2)
        assert table.duplicate_count == 1
        np.testing.assert_array_equal(table.lookup("a"), np.array([3.0, 4.0]))

    def test_matrix_rows_in_file_order_behind_the_oov_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_lines(path, ["b 1.0 2.0", "", "a 3.0 4.0", "b 5.0 6.0"])
        table = load_embeddings(str(path), 2)
        assert table.rows == {"b": 1, "a": 2}
        assert table.matrix.tolist() == [[0.0, 0.0], [5.0, 6.0], [3.0, 4.0]]
        assert table.oov_vector.base is table.matrix.base


class TestLookup:
    def make_table(self):
        return EmbeddingTable(
            2,
            {
                "Cat": np.array([1.0, 2.0]),
                "dog": np.array([3.0, 4.0]),
            },
        )

    def test_present_token(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.lookup("dog"), np.array([3.0, 4.0]))

    def test_absent_token_gets_zero_vector(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.lookup("bird"), np.zeros(2))
        assert table.lookup("bird") is table.oov_vector

    def test_exact_match_wins_over_case_fold(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.lookup("Cat"), np.array([1.0, 2.0]))

    def test_case_fold_fallback(self):
        table = self.make_table()
        np.testing.assert_array_equal(table.lookup("DOG"), np.array([3.0, 4.0]))
        assert "DOG" in table

    def test_contains(self):
        table = self.make_table()
        assert "dog" in table and "DOG" in table
        assert "bird" not in table

    def test_custom_oov_vector(self):
        table = EmbeddingTable(
            2, {"a": np.zeros(2)}, oov_vector=np.array([9.0, 9.0])
        )
        np.testing.assert_array_equal(table.lookup("zzz"), np.array([9.0, 9.0]))

    def test_rows_resolve_exact_then_lowercase_then_oov(self):
        oov = np.array([9.0, 9.0])
        table = EmbeddingTable(
            2,
            {"Cat": np.array([1.0, 2.0]), "cat": np.array([5.0, 6.0]),
             "dog": np.array([3.0, 4.0])},
            oov_vector=oov,
        )
        rows = {"Cat": 1, "cat": 2, "CAT": 2, "DOG": 3, "bird": 0, "Bird": 0}
        assert table.ids(rows) == list(rows.values())
        assert table.matrix[0].tobytes() == oov.tobytes()
        for token, row in rows.items():
            assert table.lookup(token).tobytes() == table.matrix[row].tobytes()
        assert table.lookup("bird") is table.oov_vector

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(3, {"a": np.zeros(2)})
