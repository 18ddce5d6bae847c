"""Graph I/O: MatrixMarket (.mtx, the SuiteSparse interchange format) and
plain whitespace edge lists (the SNAP interchange format).

Only the coordinate / pattern-or-value flavours of MatrixMarket that occur in
the paper's benchmark collections are supported; values are discarded because
the paper treats every graph as unweighted.  A file that does not parse
raises :class:`GraphFormatError`, naming the file and the line.
"""

from __future__ import annotations

import io as _io
import warnings
from pathlib import Path

import numpy as np

from repro.formats.base import INDEX_DTYPE
from repro.graphs.graph import Graph

#: The largest vertex id the int32 index arrays can hold.
_MAX_ID = int(np.iinfo(INDEX_DTYPE).max)


class GraphFormatError(ValueError):
    """A graph file that does not parse.

    ``line`` is the 1-based line of the fault, or 0 when it belongs to the
    file as a whole (a missing entry, undecodable bytes).
    """

    def __init__(self, path, line: int, reason: str):
        self.path, self.line, self.reason = str(path), line, reason
        super().__init__(f"{path}:{line}: {reason}" if line else f"{path}: {reason}")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError:
        raise GraphFormatError(path, 0, "not a UTF-8 text file") from None


def _vertex_id(path, line: int, token: str, base: int, n: int | None) -> int:
    """A ``base``-numbered vertex id as a zero-based one, range-checked."""
    try:
        v = int(token) - base
    except ValueError:
        raise GraphFormatError(path, line, f"vertex id {token!r} is not an integer") from None
    if v < 0:
        raise GraphFormatError(path, line, f"vertex id {token} is below {base}")
    if v > (_MAX_ID if n is None else n - 1):
        limit = "the int32 index range" if n is None else f"the declared size {n}"
        raise GraphFormatError(path, line, f"vertex id {token} is outside {limit}")
    return v


def _scan_edges(path, lines, first: int, *, base: int, n: int | None,
                limit: int | None) -> np.ndarray:
    """:func:`_edges` line by line: the lines start at 1-based line
    ``first``, and the first bad one raises :class:`GraphFormatError`."""
    pairs = []
    for line, text in enumerate(lines, start=first):
        if limit is not None and len(pairs) == limit:
            break
        parts = text.split()
        if not parts or parts[0].startswith(("#", "%")):
            continue
        if len(parts) < 2:
            raise GraphFormatError(path, line, f"expected two vertex ids, got {text.strip()!r}")
        pairs.append(tuple(_vertex_id(path, line, t, base, n) for t in parts[:2]))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _edges(path, text: str, skip: int, *, base: int, comment: str,
           n: int | None = None, limit: int | None = None) -> np.ndarray:
    """The zero-based ``(k, 2)`` vertex-id pairs of the entry lines after the
    first ``skip`` lines of ``text``: blank and ``#``/``%`` comment lines are
    skipped, tokens after the first two (values, weights) ignored, and
    reading stops after ``limit`` pairs.

    ``np.loadtxt`` parses a well-formed body in C (with the format's one
    ``comment`` marker: a second one takes it off its fast path); whatever it
    rejects, or an id out of range, is re-read line by line, which accepts
    the other marker's comment lines too and names a bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            pairs = np.loadtxt(_io.StringIO(text), dtype=np.int64, comments=comment,
                               usecols=(0, 1), ndmin=2, skiprows=skip,
                               max_rows=limit).reshape(-1, 2) - base
        if not pairs.size or (pairs.min() >= 0
                              and pairs.max() <= (_MAX_ID if n is None else n - 1)):
            return pairs
    except ValueError:
        pass
    return _scan_edges(path, text.split("\n")[skip:], skip + 1, base=base, n=n, limit=limit)


def write_matrix_market(graph: Graph, path) -> None:
    """Write the graph's adjacency pattern as a MatrixMarket coordinate file.

    Undirected graphs are written with ``symmetric`` storage (lower triangle
    only), matching SuiteSparse convention; directed graphs as ``general``.
    """
    path = Path(path)
    sym = "general" if graph.directed else "symmetric"
    with path.open("w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate pattern {sym}\n")
        fh.write(f"% written by repro (TurboBC reproduction): {graph.name}\n")
        if graph.directed:
            src, dst = graph.src, graph.dst
        else:
            keep = graph.src >= graph.dst  # lower triangle incl. diagonal
            src, dst = graph.src[keep], graph.dst[keep]
        fh.write(f"{graph.n} {graph.n} {src.size}\n")
        # one-based indices, row column order
        np.savetxt(fh, np.column_stack([src + 1, dst + 1]), fmt="%d")


def read_matrix_market(path, *, name: str = "") -> Graph:
    """Read a MatrixMarket coordinate file as an unweighted graph.

    ``symmetric`` / ``skew-symmetric`` / ``hermitian`` storage produces an
    undirected graph; ``general`` produces a directed one.
    """
    path = Path(path)
    text = _read_text(path)
    fh = _io.StringIO(text)
    header = fh.readline()
    if not header.startswith("%%MatrixMarket"):
        raise GraphFormatError(path, 1, "not a MatrixMarket file")
    fields = header.strip().lower().split()
    if "coordinate" not in fields:
        raise GraphFormatError(path, 1, "only coordinate MatrixMarket files are supported")
    symmetric = any(f in fields for f in ("symmetric", "skew-symmetric", "hermitian"))
    size_line, size_at = fh.readline(), 2  # size_at: its 1-based line number
    while size_line.startswith("%"):
        size_line, size_at = fh.readline(), size_at + 1
    try:
        n_rows, n_cols, nnz = (int(p) for p in size_line.split())
    except ValueError:
        raise GraphFormatError(path, size_at,
                               f"malformed size line {size_line!r}") from None
    if min(n_rows, n_cols, nnz) < 0:
        raise GraphFormatError(path, size_at, f"negative size in {size_line!r}")
    if n_rows != n_cols:
        raise GraphFormatError(path, size_at,
                               f"adjacency matrix must be square, got {n_rows}x{n_cols}")
    body = _edges(path, text, size_at, base=1, comment="%", n=n_rows, limit=nnz)
    if body.shape[0] != nnz:
        raise GraphFormatError(path, 0, f"expected {nnz} entries, found {body.shape[0]}")
    return Graph(body[:, 0], body[:, 1], n_rows, directed=not symmetric,
                 name=name or path.stem)


def write_edge_list(graph: Graph, path, *, comment: str = "") -> None:
    """Write a SNAP-style whitespace edge list (zero-based vertex ids)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# {graph.name or 'graph'}: n={graph.n} m={graph.m}"
                 f" {'directed' if graph.directed else 'undirected'}\n")
        if comment:
            fh.write(f"# {comment}\n")
        if graph.directed:
            src, dst = graph.src, graph.dst
        else:
            keep = graph.src < graph.dst
            src, dst = graph.src[keep], graph.dst[keep]
        np.savetxt(fh, np.column_stack([src, dst]), fmt="%d")


def read_edge_list(path, *, n: int | None = None, directed: bool = True, name: str = "") -> Graph:
    """Read a SNAP-style whitespace edge list (``#`` comment lines skipped).

    If ``n`` is omitted it is inferred as ``max vertex id + 1``.
    """
    path = Path(path)
    edges = _edges(path, _read_text(path), 0, base=0, comment="#", n=n)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph(edges[:, 0], edges[:, 1], n, directed=directed, name=name or path.stem)
