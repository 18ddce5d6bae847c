"""MatrixMarket / edge-list I/O tests."""

import numpy as np
import pytest

from repro.graphs import io
from repro.graphs.graph import Graph
from tests.conftest import random_graph


class TestMatrixMarket:
    def test_directed_roundtrip(self, tmp_path):
        g = random_graph(30, 0.1, directed=True, seed=3)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        back = io.read_matrix_market(path)
        assert back.directed
        assert back.n == g.n and back.m == g.m
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)

    def test_undirected_roundtrip_symmetric_storage(self, tmp_path):
        g = random_graph(30, 0.1, directed=False, seed=4)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        text = path.read_text()
        assert "symmetric" in text.splitlines()[0]
        back = io.read_matrix_market(path)
        assert not back.directed
        assert back.m == g.m

    def test_header_declares_pattern(self, tmp_path):
        g = Graph([0], [1], 2, directed=True)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        assert path.read_text().startswith("%%MatrixMarket matrix coordinate pattern")

    def test_read_rejects_non_mm(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            io.read_matrix_market(path)

    def test_read_rejects_dense(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(ValueError, match="coordinate"):
            io.read_matrix_market(path)

    def test_read_rejects_rectangular(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n")
        with pytest.raises(ValueError, match="square"):
            io.read_matrix_market(path)

    def test_read_with_comments(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n% another\n3 3 2\n1 2\n2 3\n"
        )
        g = io.read_matrix_market(path)
        assert g.m == 2
        assert g.src.tolist() == [0, 1]

    def test_empty_graph(self, tmp_path):
        g = Graph([], [], 4, directed=True)
        path = tmp_path / "g.mtx"
        io.write_matrix_market(g, path)
        back = io.read_matrix_market(path)
        assert back.n == 4 and back.m == 0


class TestEdgeList:
    def test_roundtrip_directed(self, tmp_path):
        g = random_graph(25, 0.12, directed=True, seed=5)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path, n=g.n, directed=True)
        assert back.m == g.m
        assert np.array_equal(back.src, g.src)

    def test_roundtrip_undirected(self, tmp_path):
        g = random_graph(25, 0.12, directed=False, seed=6)
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path, n=g.n, directed=False)
        assert back.m == g.m

    def test_infers_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 5\n2 3\n")
        g = io.read_edge_list(path)
        assert g.n == 6

    def test_comment_written(self, tmp_path):
        g = Graph([0], [1], 2, directed=True, name="tiny")
        path = tmp_path / "g.txt"
        io.write_edge_list(g, path, comment="hello")
        assert "hello" in path.read_text()


class TestGraphFormatError:
    """Every reader fault is a GraphFormatError naming the file and line."""

    @pytest.mark.parametrize("reader, body, line, reason", [
        ("el", "0 1\n1 x\n", 2, "not an integer"),
        ("el", "0 1\n\n-3 1\n", 3, "below 0"),
        ("el", "4294967296 1\n", 1, "int32 index range"),
        ("el", "7\n", 1, "expected two vertex ids"),
        ("mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 1\n", 3,
         "below 1"),
        ("mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 4\n", 3,
         "outside the declared size 3"),
        ("mtx", "%%MatrixMarket matrix coordinate pattern general\n% c\n3 three 1\n", 3,
         "malformed size line"),
        ("mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n", 0,
         "expected 2 entries, found 1"),
    ])
    def test_reader_faults(self, tmp_path, reader, body, line, reason):
        path = tmp_path / f"g.{'txt' if reader == 'el' else 'mtx'}"
        path.write_text(body)
        read = io.read_edge_list if reader == "el" else io.read_matrix_market
        with pytest.raises(io.GraphFormatError, match=reason) as info:
            read(path)
        assert (info.value.path, info.value.line) == (str(path), line)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff\xfe 2\n")
        with pytest.raises(io.GraphFormatError, match="UTF-8"):
            io.read_edge_list(path)

    def test_extra_tokens_and_either_comment_marker(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# snap\n0 1 0.5\n% other\n1 2 7\n")
        g = io.read_edge_list(path)
        assert g.src.tolist() == [0, 1] and g.dst.tolist() == [1, 2]
