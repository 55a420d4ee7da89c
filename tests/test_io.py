import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sbm_miss import InputError, PartialAdjacency
from sbm_miss import io

from util import adjacency_from_edges, random_partial


def test_dense_round_trip_token_exact(tmp_path):
    adj = adjacency_from_edges(4, [(0, 1), (2, 3)], missing=[(1, 2)])
    path = tmp_path / "net.csv"
    io.write_dense_csv(path, adj)
    text_once = path.read_text()
    again = io.read_dense_csv(path)
    io.write_dense_csv(path, again)
    assert path.read_text() == text_once
    assert again == adj


def test_dense_rejects_bad_tokens(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,2\n2,0\n")
    with pytest.raises(InputError):
        io.read_dense_csv(path)


def test_dense_names_the_first_bad_token_and_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("NA, 1,0\n1,NA,x\n0,y,NA\n")
    with pytest.raises(InputError, match=rf"invalid token 'x' in {path}:2 "):
        io.read_dense_csv(path)


def test_dense_counts_lines_from_the_first_of_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\nNA,1\n1,x\n")
    with pytest.raises(InputError, match=rf"invalid token 'x' in {path}:3 "):
        io.read_dense_csv(path)
    path.write_text("\nNA,1\n\n1,NA\n\n")
    assert io.read_dense_csv(path).entry(0, 1) == 1


def test_dense_rejects_a_ragged_row_by_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("NA,1,0\n1,NA\n0,0,NA\n")
    with pytest.raises(InputError, match=rf"{path}:2: row has 2 entries"):
        io.read_dense_csv(path)


def test_dense_rejects_one_on_diagonal(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("1,0\n0,NA\n")
    with pytest.raises(InputError):
        io.read_dense_csv(path)


def test_dense_zero_diagonal_accepted(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1\n1,0\n")
    adj = io.read_dense_csv(path)
    assert adj.entry(0, 1) == 1


def test_triplet_defaults_to_absent(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("1 2 1\n2 3 NA\n")
    adj = io.read_triplets(path, n=4)
    assert adj.entry(0, 1) == 1
    assert adj.entry(1, 2) is None
    assert adj.entry(0, 3) == 0


def test_triplet_default_missing_flag(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("1 2 1\n1 3 0\n")
    adj = io.read_triplets(path, n=3, default_missing=True)
    assert adj.entry(0, 1) == 1
    assert adj.entry(0, 2) == 0
    assert adj.entry(1, 2) is None


def test_triplet_conflicting_duplicate(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("1 2 1\n2 1 0\n")
    with pytest.raises(InputError):
        io.read_triplets(path)


def test_triplet_round_trip(tmp_path):
    adj = adjacency_from_edges(5, [(0, 4), (1, 2)], missing=[(3, 4)])
    path = tmp_path / "net.txt"
    io.write_triplets(path, adj)
    again = io.read_triplets(path, n=5)
    assert again == adj


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("seed", [1, 2])
def test_writers_match_dyad_loop(tmp_path, directed, seed):
    adj = random_partial(11, directed, seed)
    triplets = []
    for i, j in adj.dyads():
        value = adj.entry(i, j)
        if value != 0:
            triplets.append(f"{i + 1} {j + 1} {'NA' if value is None else value}")
    dense = [",".join("NA" if i == j or adj.entry(i, j) is None else str(adj.entry(i, j))
                      for j in range(adj.n)) for i in range(adj.n)]
    path = tmp_path / "net"
    io.write_triplets(path, adj)
    assert path.read_text() == "\n".join(triplets) + "\n"
    io.write_dense_csv(path, adj)
    assert path.read_text() == "\n".join(dense) + "\n"


@st.composite
def tristate_networks(draw):
    """A network of n <= 12 nodes, directed or not, with random edges and missing dyads."""
    n, directed = draw(st.integers(1, 12)), draw(st.booleans())
    mat = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, np.nan]), min_size=n * n, max_size=n * n)))
    mat = mat.reshape(n, n)
    if not directed:
        mat = np.triu(mat, 1) + np.triu(mat, 1).T
    return PartialAdjacency(mat, directed=directed)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tristate_networks())
@example(PartialAdjacency(np.zeros((2, 2))))   # no dyad listed: the triplet file is one newline
def test_network_writers_round_trip(tmp_path, adj):
    path = tmp_path / "net"
    io.write_dense_csv(path, adj)
    assert io.read_dense_csv(path, directed=adj.directed) == adj
    io.write_triplets(path, adj)
    assert io.read_triplets(path, n=adj.n, directed=adj.directed) == adj
    text = path.read_text()   # one newline ends the file, and is the whole file when no dyad is listed
    assert text.endswith("\n") and (text == "\n" or not text.endswith("\n\n"))


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_network_writers_round_trip_across_blocks(tmp_path, directed):
    # 8192 // 100 = 81 rows per block: the second block starts inside the file
    adj = random_partial(100, directed, 5)
    path = tmp_path / "net"
    io.write_dense_csv(path, adj)
    assert len(path.read_text().splitlines()) == 100
    assert io.read_dense_csv(path, directed=directed) == adj
    io.write_triplets(path, adj)
    assert io.read_triplets(path, n=100, directed=directed) == adj


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=st.floats(allow_nan=False)))
@example(np.array([[1 / 3, 5e-324, -0.0], [0.0, 1e308, -2.2250738585072014e-308]]))
def test_float_matrix_round_trip_is_bit_exact(tmp_path, matrix):
    path = tmp_path / "m.csv"
    io.write_float_matrix(path, matrix)
    np.testing.assert_array_equal(io.read_float_matrix(path).view(np.int64), matrix.view(np.int64))


def test_writers_hold_no_whole_file_as_text(tmp_path):
    # one 600 x 600 float matrix is 2.88 MB, and its text several times that; a writer holds one
    # block of at most sbm_miss.network.SLAB entries, or one row of reals, at a time
    adj = random_partial(600, False, 3)
    imputed = np.random.default_rng(3).random((600, 600))
    for write, value in ((io.write_float_matrix, imputed), (io.write_dense_csv, adj), (io.write_triplets, adj)):
        tracemalloc.start()
        try:
            write(tmp_path / "out", value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{write.__name__} peaked at {peak} bytes"


def test_covariate_readers(tmp_path):
    nodal = tmp_path / "x1.csv"
    nodal.write_text("1.5\n2.0\n-1.0\n")
    assert io.read_covariate_csv(nodal).tolist() == [1.5, 2.0, -1.0]
    dyadic = tmp_path / "x2.csv"
    dyadic.write_text("0,1\n1,0\n")
    assert io.read_covariate_csv(dyadic).shape == (2, 2)
    cov = io.load_covariates([str(nodal)])
    assert cov.kind == "nodal" and cov.m_nodal == 1
    with pytest.raises(InputError):
        io.load_covariates([str(nodal), str(dyadic)])
    ragged = tmp_path / "x3.csv"
    ragged.write_text("0,1,2\n1,0\n2,1,0\n")
    with pytest.raises(InputError, match=rf"{ragged}:2: row has 2 entries, the first row 3"):
        io.read_covariate_csv(ragged)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    io.write_labels_csv(path, np.array([0, 2, 1]))
    assert path.read_text() == "1\n3\n2\n"
    np.testing.assert_array_equal(io.read_labels_csv(path), [0, 2, 1])


def test_float_matrix_round_trip(tmp_path):
    mat = np.array([[0.0, 1 / 3], [2 / 3, 1.0]])
    path = tmp_path / "m.csv"
    io.write_float_matrix(path, mat)
    np.testing.assert_array_equal(io.read_float_matrix(path), mat)
    assert "0.33333333333333331" in path.read_text()


def test_readers_name_the_line_of_a_bad_row(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("\n\n1.5\ny\n")
    with pytest.raises(InputError, match=rf"^{path}:4: expected a real number$"):
        io.read_covariate_csv(path)
    path.write_text("0,1\n1\n")
    with pytest.raises(InputError, match=rf"^{path}:2: row has 1 entries, the first row 2$"):
        io.read_float_matrix(path)
    path.write_text("1\n\n2.5\n")
    with pytest.raises(InputError, match=rf"^{path}:3: labels must be integers$"):
        io.read_labels_csv(path)
    path.write_text("\n \n")
    with pytest.raises(InputError, match=rf"^{path}: empty file$"):
        io.read_vector_csv(path)


def test_graphml_loader(tmp_path):
    import networkx as nx

    g = nx.Graph()
    for node, party in [(0, "left"), (1, "left"), (2, "right"), (3, "right"), (4, "none")]:
        g.add_node(node, party=party)
    g.add_edges_from([(0, 1), (1, 2), (2, 3)])  # node 4 isolated
    path = tmp_path / "g.graphml"
    nx.write_graphml(g, path)

    adj, labels = io.load_graphml(path, label_attribute="party")
    assert adj.n == 5 and labels[4] == "none"
    adj, labels = io.load_graphml(path, label_attribute="party", drop_isolated=True)
    assert adj.n == 4
    assert labels == ["left", "left", "right", "right"]
    assert adj.entry(1, 2) == 1
    with pytest.raises(InputError):
        io.load_graphml(path, label_attribute="nope")


def networkx_load(path, label_attribute=None, drop_isolated=False, directed=False):
    """The GraphML reader this package had when it read through networkx: the oracle of
    ``io.load_graphml``."""
    import networkx as nx

    try:
        graph = nx.read_graphml(path)
    except Exception as exc:
        raise InputError(f"{path}: cannot parse GraphML ({exc})") from exc
    graph = graph.to_directed() if directed else graph.to_undirected()
    if drop_isolated:
        graph.remove_nodes_from([v for v, d in graph.degree() if d == 0])
    nodes = list(graph.nodes())
    if not nodes:
        raise InputError(f"{path}: graph has no nodes left")
    mat = (nx.to_numpy_array(graph, nodelist=nodes, weight=None) != 0).astype(float)
    labels = None
    if label_attribute is not None:
        try:
            labels = [str(graph.nodes[v][label_attribute]) for v in nodes]
        except KeyError:
            raise InputError(f"{path}: node attribute {label_attribute!r} not present on every node") from None
    return PartialAdjacency(mat, directed=directed), labels


# label texts valid for some attr.types and not for others ("" is written as an empty <data>),
# and two valid for all: the reader casts only the attribute it reads, networkx every one
LABEL_TEXTS = ["0", "1", "-2", "0.5", "true", "False", "x", "", " a"]
ANY_TYPE_TEXTS = ["0", "1"]


@st.composite
def graphml_cases(draw):
    """A hand-written GraphML file and the label attribute to read: declared nodes in any order,
    repeated or not, labelled or not; edges with self-loops, parallel edges, undeclared nodes and,
    now and then, a ``directed`` attribute against the ``edgedefault``; a namespaced or a bare
    header."""
    n = draw(st.integers(1, 6))
    label_attribute = draw(st.sampled_from([None, "label", "label", "label", "other"]))
    texts = LABEL_TEXTS if label_attribute == "label" else ANY_TYPE_TEXTS
    header = draw(st.sampled_from(['<graphml xmlns="http://graphml.graphdrawing.org/xmlns">', "<graphml>"]))
    attr_type = draw(st.sampled_from(["int", "long", "float", "double", "boolean", "string", None]))
    key_type = "" if attr_type is None else f' attr.type="{attr_type}"'
    default = draw(st.sampled_from(["", "<default>0</default>"]))
    edgedefault = draw(st.sampled_from(["", ' edgedefault="directed"', ' edgedefault="undirected"']))
    lines = [header, f'<key id="d0" for="node" attr.name="label"{key_type}>{default}</key>',
             f"<graph{edgedefault}>"]
    # nodes 0 .. n-1 declared in any order, some twice; node n only by the edges that name it
    for node in draw(st.permutations(range(n))) + draw(st.lists(st.integers(0, n - 1), max_size=2)):
        text = draw(st.sampled_from([None, *texts, *ANY_TYPE_TEXTS]))
        data = "" if text is None else f'<data key="d0">{text}</data>'
        lines.append(f'<node id="n{node}">{data}</node>')
    edges = st.tuples(st.integers(0, n), st.integers(0, n), st.sampled_from([""] * 18 + ["true", "false"]))
    for source, target, edge_directed in draw(st.lists(edges, max_size=8)):
        attribute = edge_directed and f' directed="{edge_directed}"'
        lines.append(f'<edge source="n{source}" target="n{target}"{attribute}/>')
    return "\n".join([*lines, "</graph>", "</graphml>"]) + "\n", label_attribute


def graphml_outcome(load, path, **options):
    try:
        adj, labels = load(path, **options)
    except InputError:
        return "InputError"
    return adj.n, np.nan_to_num(adj.matrix, nan=-1.0).tolist(), labels


@pytest.mark.filterwarnings("ignore:No key type")   # networkx on a key without attr.type
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphml_cases(), st.booleans(), st.booleans())
@example(case=('<graphml><graph edgedefault="directed"><node id="a"><data key="k">x</data></node><node id="b">'
               '<data key="k">y</data></node><edge source="a" target="b"/></graph><key id="k" attr.name="c"/>'
               '</graphml>', "c"),
         directed=True, drop_isolated=False)   # a bare header, whose tags have no namespace
@example(case=('<graphml><graph><node id="a"/><edge source="a" target="b" directed="true"/></graph></graphml>',
               None), directed=False, drop_isolated=False)   # an edge against the edgedefault
@example(case=('<graphml><graph><edge source="a" target="b"/><edge source="b" target="a"/><edge source="a" '
               'target="a"/><node id="c"/></graph></graphml>', None), directed=True, drop_isolated=True)
def test_graphml_reader_agrees_with_networkx(tmp_path, case, directed, drop_isolated):
    text, label_attribute = case
    path = tmp_path / "g.graphml"
    path.write_text(text)
    options = dict(directed=directed, drop_isolated=drop_isolated, label_attribute=label_attribute)
    assert graphml_outcome(io.load_graphml, path, **options) == graphml_outcome(networkx_load, path, **options)


def test_graphml_refuses_an_oversized_network_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "g.graphml"
    nodes = "".join(f'<node id="n{k}"/>' for k in range(100))
    path.write_text(f'<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph>{nodes}</graph></graphml>')
    assert io.load_graphml(path)[0].n == 100
    # a budget of 64 KB: one 100 x 100 float matrix needs 80,000 bytes
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}[name])
    with pytest.raises(InputError, match="100 nodes need 80000 bytes"):
        io.load_graphml(path)


def test_dense_csv_refuses_an_oversized_network_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "net.csv"
    io.write_dense_csv(path, random_partial(100, False, 1))
    assert io.read_dense_csv(path).n == 100
    # a budget of 64 KB: one 100 x 100 float matrix needs 80,000 bytes
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}[name])
    with pytest.raises(InputError, match="100 nodes need 80000 bytes"):
        io.read_dense_csv(path)
