"""File formats: dense tri-state CSV, sparse triplets, covariates, GraphML.

Dense format: header-free n x n comma-separated tokens ``0``, ``1``, ``NA``;
the diagonal must be ``NA`` or ``0`` and is ignored either way.  Triplet
format: whitespace-separated lines ``i j v`` with 1-based indices and
``v`` in {0, 1, NA}; unlisted dyads default to 0, or to missing when
requested.  Real numbers are always written with 17 significant digits.

Every comma-separated reader (dense, covariate, labels, vector, float
matrix) parses its lines in one loop, ``_read_rows``: blank lines are
skipped, and an error names ``path:line``, lines counted from the file's
first.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .network import CovariateSet, PartialAdjacency


def format_real(x: float) -> str:
    return format(float(x), ".17g")


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
    m = adj.matrix
    tokens = np.where(np.isnan(m), "NA", np.where(m == 1, "1", "0"))
    Path(path).write_text("\n".join(map(",".join, tokens.tolist())) + "\n")


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
    rows, cols = adj.pairs
    values = adj.matrix[rows, cols]
    listed = values != 0   # edges and missing (NaN) dyads
    lines = [f"{i + 1} {j + 1} {'1' if v == 1 else 'NA'}" for i, j, v in
             zip(rows[listed].tolist(), cols[listed].tolist(), values[listed].tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


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


def load_graphml(path, label_attribute: str | None = None,
                 drop_isolated: bool = False, directed: bool = False):
    """Load an attributed graph; optionally extract node labels.

    ``label_attribute`` names the node attribute holding reference classes
    (returned as a list of strings in node order).  ``drop_isolated``
    removes degree-0 nodes before building the adjacency.
    """
    import networkx as nx

    try:
        graph = nx.read_graphml(path)
    except Exception as exc:
        raise InputError(f"{path}: cannot parse GraphML ({exc})") from exc
    if directed:
        graph = graph.to_directed()
    else:
        graph = graph.to_undirected()
    if drop_isolated:
        graph.remove_nodes_from([v for v, d in graph.degree() if d == 0])
    nodes = list(graph.nodes())
    if not nodes:
        raise InputError(f"{path}: graph has no nodes left")
    mat = nx.to_numpy_array(graph, nodelist=nodes, weight=None)
    mat = (mat != 0).astype(float)
    labels = None
    if label_attribute is not None:
        try:
            labels = [str(graph.nodes[v][label_attribute]) for v in nodes]
        except KeyError:
            raise InputError(f"{path}: node attribute {label_attribute!r} not present on every node") from None
    return PartialAdjacency(mat, directed=directed), labels


def read_covariate_csv(path) -> np.ndarray:
    """One covariate per file: n x 1 (nodal) or n x n (dyadic)."""
    arr = read_float_matrix(path)
    if arr.shape[1] == 1:
        return arr[:, 0]
    if arr.shape[0] != arr.shape[1]:
        raise InputError(f"{path}: covariate must be n x 1 or n x n, got {arr.shape}")
    return arr


def load_covariates(paths, similarity="l1") -> CovariateSet | None:
    """Build a covariate set from one CSV per covariate (all nodal or all dyadic)."""
    if not paths:
        return None
    arrays = [read_covariate_csv(p) for p in paths]
    dims = {a.ndim for a in arrays}
    if dims == {1}:
        return CovariateSet.from_nodal(arrays, similarity=similarity)
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
    Path(path).write_text("\n".join(str(int(v) + 1) for v in labels) + "\n")


def read_vector_csv(path) -> np.ndarray:
    """Read a one-column vector of reals."""
    return _read_rows(path, lambda tokens: [float(tokens[0])], _NOT_REAL)[:, 0]


def write_float_matrix(path, matrix: np.ndarray) -> None:
    lines = [",".join(format_real(v) for v in row) for row in np.asarray(matrix, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_float_matrix(path) -> np.ndarray:
    return _read_rows(path, lambda tokens: [float(t) for t in tokens], _NOT_REAL)


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

    lines = [",".join(fieldnames)]
    lines.extend(",".join(fmt(row[k]) for k in fieldnames) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
