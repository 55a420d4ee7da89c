"""File formats: dense tri-state CSV, sparse triplets, covariates, GraphML.

Dense format: header-free n x n comma-separated tokens ``0``, ``1``, ``NA``;
the diagonal must be ``NA`` or ``0`` and is ignored either way.  Triplet
format: whitespace-separated lines ``i j v`` with 1-based indices and
``v`` in {0, 1, NA}; unlisted dyads default to 0, or to missing when
requested.  Real numbers are always written with 17 significant digits.

Every writer streams its file through ``write_pieces``: it opens the file once
and writes the text a piece at a time, so no writer holds the whole file as
text.  A piece is at most ``SLAB`` entries of a network (``max(1, SLAB // n)``
rows, each block tokenised in one vectorised pass), one row of reals, one line
of a CSV or label file, or one chunk of the JSON encoder.  The bytes are those
of joining the lines with newlines and ending the file with one.

Every comma-separated reader (dense, covariate, labels, vector, float
matrix) parses its lines in one loop, ``_read_rows``: blank lines are
skipped, and an error names ``path:line``, lines counted from the file's
first.

GraphML: the first ``<graph>``, tags in the root's namespace (none for a bare
``<graphml>``); nodes in document order, then undeclared nodes that edges name;
0/1 edges (self-loops count towards ``drop_isolated``'s degree), symmetrised
unless ``directed`` and ``edgedefault="directed"``; an edge's ``directed`` must
agree with ``edgedefault``.  Only the label attribute is read, cast by its
``<key>``'s ``attr.type`` before ``str()`` (a double "1" reads "1.0").
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InputError
from .network import SLAB, CovariateSet, PartialAdjacency, check_dense_size


def format_real(x: float) -> str:
    return format(float(x), ".17g")


def write_pieces(path, pieces) -> None:
    """Write the strings ``pieces``, each of whole newline-ended lines, to ``path`` one at a
    time; a file of no lines is one newline, as ``"\\n".join([]) + "\\n"`` is."""
    with open(path, "w") as fh:
        if not sum(map(fh.write, pieces)):
            fh.write("\n")


def _row_blocks(adj: PartialAdjacency):
    """``(first row, rows)`` of ``adj.matrix`` in blocks of ``max(1, SLAB // n)`` rows."""
    step = max(1, SLAB // adj.n)
    return ((start, adj.matrix[start:start + step]) for start in range(0, adj.n, step))


_TRISTATE = {"0": 0.0, "1": 1.0, "NA": np.nan}
_NOT_REAL = "{where}: expected a real number"
_INVALID_TOKEN = "invalid token {token!r} in {where} (expected 0, 1 or NA)"


def _read_rows(path, parse, error: str) -> np.ndarray:
    """The non-blank lines of a comma-separated file as the rows of a float
    matrix, ``parse(tokens)`` of each, all of the first row's length.

    A line that ``parse`` refuses with a KeyError or ValueError raises
    ``error`` formatted with ``where`` (``path:line``, lines counted from
    the file's first) and ``token`` (the exception's first argument).  The
    matrix is filled a row at a time, so only one row's token strings are
    alive at once.
    """
    lines = Path(path).read_text().splitlines()
    out, count = None, 0
    for k, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = parse(line.split(","))
        except (KeyError, ValueError) as exc:
            raise InputError(error.format(where=f"{path}:{k}", token=exc.args[0])) from None
        if out is None:
            check_dense_size(len(row))
            out = np.empty((len(lines), len(row)))
        elif len(row) != out.shape[1]:
            raise InputError(f"{path}:{k}: row has {len(row)} entries, the first row {out.shape[1]}")
        out[count] = row
        count += 1
    if out is None:
        raise InputError(f"{path}: empty file")
    return out[:count]


def read_dense_csv(path, directed: bool = False) -> PartialAdjacency:
    mat = _read_rows(path, lambda tokens: [_TRISTATE[t.strip()] for t in tokens], _INVALID_TOKEN)
    if mat.shape[0] != mat.shape[1]:
        raise InputError(f"{path}: adjacency must be square, got {mat.shape}")
    diag = np.diag(mat)
    if not np.all(np.isnan(diag) | (diag == 0.0)):
        raise InputError(f"{path}: diagonal entries must be NA or 0")
    try:
        return PartialAdjacency(mat, directed=directed)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_dense_csv(path, adj: PartialAdjacency) -> None:
    def blocks():
        for _, m in _row_blocks(adj):
            tokens = np.where(np.isnan(m), "NA", np.where(m == 1, "1", "0"))
            yield "".join([",".join(row) + "\n" for row in tokens.tolist()])

    write_pieces(path, blocks())


def read_triplets(path, n: int | None = None, directed: bool = False,
                  default_missing: bool = False) -> PartialAdjacency:
    entries: dict[tuple[int, int], float] = {}
    max_index = 0
    for k, raw in enumerate(Path(path).read_text().splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{k + 1}: expected 'i j v'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}:{k + 1}: node indices must be integers") from None
        if i < 1 or j < 1:
            raise InputError(f"{path}:{k + 1}: indices are 1-based")
        if i == j:
            raise InputError(f"{path}:{k + 1}: self-dyads are not allowed")
        if parts[2] not in _TRISTATE:
            raise InputError(_INVALID_TOKEN.format(token=parts[2], where=f"{path}:{k + 1}"))
        v = _TRISTATE[parts[2]]
        key = (i - 1, j - 1)
        if not directed:
            key = (min(key), max(key))
        if key in entries and not (entries[key] == v or (np.isnan(entries[key]) and np.isnan(v))):
            raise InputError(f"{path}:{k + 1}: conflicting duplicate entry for dyad {i} {j}")
        entries[key] = v
        max_index = max(max_index, i, j)
    if n is None:
        n = max_index
    if n < max_index:
        raise InputError(f"{path}: node index {max_index} exceeds declared node count {n}")
    if n == 0:
        raise InputError(f"{path}: no dyads and no node count given")
    check_dense_size(n)
    fill = np.nan if default_missing else 0.0
    mat = np.full((n, n), fill)
    for (i, j), v in entries.items():
        mat[i, j] = v
        if not directed:
            mat[j, i] = v
    return PartialAdjacency(mat, directed=directed)


def write_triplets(path, adj: PartialAdjacency) -> None:
    """Write edges and missing dyads, in canonical dyad order; unlisted
    dyads are absent (0)."""
    def blocks():
        columns = np.arange(adj.n)
        for start, m in _row_blocks(adj):
            diagonal = np.arange(start, start + len(m))[:, None]
            # edges and missing (NaN) dyads, off the diagonal; above it when undirected
            rows, cols = np.nonzero((m != 0) & (columns != diagonal if adj.directed else columns > diagonal))
            tokens = np.where(m[rows, cols] == 1, "1", "NA")
            yield "".join([f"{i} {j} {v}\n" for i, j, v in
                           zip((rows + start + 1).tolist(), (cols + 1).tolist(), tokens.tolist())])

    write_pieces(path, blocks())


def read_network(path, fmt: str = "dense-csv", directed: bool = False,
                 n: int | None = None, default_missing: bool = False,
                 label_attribute: str | None = None, drop_isolated: bool = False):
    """Load a network in any supported format.

    Returns ``(PartialAdjacency, labels_or_None)``; only GraphML inputs can
    carry reference labels.
    """
    if fmt == "dense-csv":
        return read_dense_csv(path, directed=directed), None
    if fmt == "triplet":
        return read_triplets(path, n=n, directed=directed, default_missing=default_missing), None
    if fmt == "graphml":
        return load_graphml(path, label_attribute=label_attribute,
                            drop_isolated=drop_isolated, directed=directed)
    raise InputError(f"unknown network format {fmt!r}")


_GRAPHML_TYPES = {"string": str, "int": int, "integer": int, "long": int, "float": float, "double": float,
                  "boolean": lambda text: {"true": True, "false": False, "1": True, "0": False}[text.lower()]}


def load_graphml(path, label_attribute: str | None = None,
                 drop_isolated: bool = False, directed: bool = False):
    """``(PartialAdjacency, labels)``, labels the ``label_attribute`` strings in node order or None."""
    from xml.etree import ElementTree

    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as exc:
        raise InputError(f"{path}: cannot parse GraphML ({exc})") from None
    ns = root.tag[:-len("graphml")]   # "{uri}", or "" for a bare <graphml> header
    graph = root.find(ns + "graph") if root.tag.endswith("graphml") else None
    if graph is None:
        raise InputError(f"{path}: cannot parse GraphML (no <graph> element)")
    casts = {key.get("id"): key.get("attr.type", "string") for key in root.iterfind(ns + "key")
             if label_attribute is not None and key.get("attr.name") == label_attribute}
    index, labels = {}, {}
    for node in graph.iterfind(ns + "node"):
        k = index.setdefault(str(node.get("id")), len(index))
        for data in node.iterfind(ns + "data"):
            cast, text = casts.get(data.get("key")), data.text
            if cast is not None:
                try:
                    labels[k] = "" if text is None else str(_GRAPHML_TYPES[cast](text))
                except (KeyError, ValueError):
                    raise InputError(f"{path}: cannot read {text!r} as a GraphML {cast}") from None
    file_directed = graph.get("edgedefault") == "directed"
    edges = list(graph.iterfind(ns + "edge"))
    if any(edge.get("directed") == ("false" if file_directed else "true") for edge in edges):
        raise InputError(f"{path}: an edge's directed attribute contradicts the graph's edgedefault")
    ends = np.array([index.setdefault(str(edge.get(end)), len(index)) for edge in edges
                     for end in ("source", "target")], dtype=np.intp)
    keep, ends = np.unique(ends, return_inverse=True) if drop_isolated else (np.arange(len(index)), ends)
    if keep.size == 0:
        raise InputError(f"{path}: graph has no nodes left")
    check_dense_size(keep.size)
    rows, cols = ends.reshape(-1, 2).T
    mat = np.zeros((keep.size, keep.size))
    mat[rows, cols] = 1.0
    if not (directed and file_directed):
        mat[cols, rows] = 1.0
    names = None if label_attribute is None else [labels.get(k) for k in keep.tolist()]
    if names is not None and None in names:
        raise InputError(f"{path}: node attribute {label_attribute!r} not present on every node")
    return PartialAdjacency(mat, directed=directed), names


def read_covariate_csv(path) -> np.ndarray:
    """One covariate per file: n x 1 (nodal) or n x n (dyadic)."""
    arr = read_float_matrix(path)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: covariate must be n x 1 or n x n, got {arr.shape}")
    return arr


def load_covariates(paths) -> CovariateSet | None:
    """Build a covariate set from one CSV per covariate (all nodal or all dyadic)."""
    if not paths:
        return None
    arrays = [read_covariate_csv(p) for p in paths]
    dims = {a.ndim for a in arrays}
    if dims == {1}:
        return CovariateSet.from_nodal(arrays)
    if dims == {2}:
        return CovariateSet.from_dyadic(arrays)
    raise InputError("covariate files mix nodal (n x 1) and dyadic (n x n) shapes")


def read_labels_csv(path) -> np.ndarray:
    """Read a one-column vector of 1-based block labels (returned 0-based)."""
    labels = _read_rows(path, lambda tokens: [int(tokens[0])], "{where}: labels must be integers")
    labels = labels[:, 0].astype(int)
    if labels.min() < 1:
        raise InputError(f"{path}: labels are 1-based")
    return labels - 1


def write_labels_csv(path, labels: np.ndarray) -> None:
    write_pieces(path, (f"{int(v) + 1}\n" for v in labels))


def read_vector_csv(path) -> np.ndarray:
    """Read a one-column vector of reals."""
    return _read_rows(path, lambda tokens: [float(tokens[0])], _NOT_REAL)[:, 0]


def write_float_matrix(path, matrix: np.ndarray) -> None:
    """One row at a time, each entry as ``format_real`` writes it."""
    write_pieces(path, (",".join([format(v, ".17g") for v in row.tolist()]) + "\n"
                        for row in np.asarray(matrix, dtype=float)))


def read_float_matrix(path) -> np.ndarray:
    return _read_rows(path, lambda tokens: [float(t) for t in tokens], _NOT_REAL)


def write_json(path, data) -> None:
    """``json.dumps(data, indent=2, sort_keys=True)`` and a newline, written a chunk at a time."""
    write_pieces(path, chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(data), ["\n"]))


def read_json(path):
    """Parsed contents of a JSON file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None


def write_csv_rows(path, fieldnames, rows) -> None:
    """Deterministic CSV writer; reals at 17 significant digits."""
    def fmt(v):
        if v is None:
            return "NA"
        if isinstance(v, float):
            return format_real(v) if np.isfinite(v) else "NA"
        return str(v)

    lines = (",".join(fmt(row[k]) for k in fieldnames) + "\n" for row in rows)
    write_pieces(path, chain([",".join(fieldnames) + "\n"], lines))
