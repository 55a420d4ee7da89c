import numpy as np
import pytest

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
