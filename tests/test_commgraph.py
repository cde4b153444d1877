import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import random_strong_graph, reference_export, relabel
from reference import Lifting, walk_matrix


def barbell_expected_intensity(n, eps):
    w = 1.0 / (2 * (n + eps))
    I = np.zeros((2 * n, 2 * n))
    I[:n, :n] = w / n
    I[n:, n:] = w / n
    I[0, n] = I[n, 0] = eps * w / 2
    I[0, 0] += eps * w / 2
    I[n, n] += eps * w / 2
    return I


def test_barbell_block_structure(barbell4, barbell40):
    for pipe, n in ((barbell4, 4), (barbell40, 40)):
        expected = barbell_expected_intensity(n, 0.1)
        assert np.abs(pipe.K.intensity - expected).max() <= 1e-12


def test_ring_communication_is_complete_uniform():
    pipe = cf.Pipeline(cf.ring(5))
    assert np.allclose(pipe.K.intensity, 1 / 25, atol=1e-14)


def test_chain_intensities(chain3):
    G = chain3.G
    I = chain3.K.intensity
    a, b, c = (G.index(v) for v in "abc")
    assert I[a, b] == pytest.approx(1 / 8, abs=1e-14)
    assert I[b, c] == pytest.approx(1 / 8, abs=1e-14)
    assert I[a, c] == 0.0
    assert I[b, b] == pytest.approx(1 / 4, abs=1e-14)


def test_intensity_consistency_with_lifted_chain(barbell40):
    implied = barbell40.pi[:, None] * Lifting(barbell40.dec).P_lift
    assert np.abs(barbell40.K.intensity - implied).max() <= 1e-10


def test_cycle_graph_barbell(barbell4):
    Bc = cf.cycle_graph(barbell4.dec)
    cycles = list(barbell4.dec.weights)
    j_l = cycles.index(tuple(range(4)))
    j_c = cycles.index((0, 4))
    j_r = cycles.index(tuple(range(4, 8)))
    eps = 0.1
    w = 1.0 / (2 * (4 + eps))
    assert Bc.intensity[j_l, j_c] == pytest.approx(w * eps / (1 + eps), abs=1e-14)
    assert Bc.intensity[j_c, j_r] == pytest.approx(w * eps / (1 + eps), abs=1e-14)
    # the two rings exchange nothing directly: a 3-node path off the diagonal
    assert Bc.intensity[j_l, j_r] == 0.0
    assert np.array_equal(Bc.intensity, Bc.intensity.T)


def test_cycle_graph_chain(chain3):
    Bc = cf.cycle_graph(chain3.dec)
    assert Bc.intensity[0, 1] == pytest.approx(1 / 8, abs=1e-14)
    assert np.allclose(Bc.mass / Bc.mass.sum(), [0.5, 0.5], atol=1e-13)


def test_cycle_graph_labels(barbell4):
    # each vertex is labelled by its cycle's node ids, in canonical cycle order
    labels = cf.cycle_graph(barbell4.dec).nodes
    assert labels == ("(l0,l1,l2,l3)", "(l0,r0)", "(r0,r1,r2,r3)")


def test_cycle_graph_names_escape_commas_and_backslashes():
    # unescaped, both cycles would be named "(a,b,c)"; the names come from the arrays
    dec = cf.CycleDecomposition({(0, 2): 0.5, (1, 3): 0.25, (3, 4): 0.25}, kind="iterative",
                                n_nodes=5, nodes=("a", "a,b", "b,c", "c", "d\\"))
    assert cf.cycle_graph(dec).nodes == ("(a,b\\,c)", "(a\\,b,c)", "(c,d\\\\)")
    cf.decomposition_to_json(dec)
    assert "cycles" not in vars(dec)  # neither built the tuple view


def test_cycle_graph_ring_single_node():
    # one cycle: the whole flux recirculates, so the self-exchange is mu = 1
    pipe = cf.Pipeline(cf.ring(4))
    Bc = cf.cycle_graph(pipe.dec)
    assert Bc.intensity.shape == (1, 1)
    assert Bc.intensity[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_peeled_dust_cycles_keep_their_entries():
    # 395 peeled cycles, 33 of them with weight below 1e-9: their products in
    # K and W fall below 1e-15 but are real, as X and Z are non-negative
    pipe = cf.Pipeline(random_strong_graph(np.random.default_rng(3), 200, extra=400))
    dec = pipe.dec
    assert dec.lengths.size == 395 and np.count_nonzero(dec.w < 1e-9) == 33
    W = cf.cycle_graph(dec)
    assert np.abs(walk_matrix(W) - Lifting(dec).Q_lift).max() <= 1e-12
    # the shared-spectrum claim, read off the two undirected graphs
    nonzero = []
    for graph in (pipe.K, W):
        vals = np.linalg.eigvalsh(graph.normalized)
        nonzero.append(np.sort(vals[np.abs(vals) > 1e-8]))
    assert nonzero[0].size == nonzero[1].size == 193
    assert np.abs(nonzero[0] - nonzero[1]).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_marginals_property(seed):
    pipe = cf.Pipeline(random_strong_graph(np.random.default_rng(seed)))
    I = pipe.K.intensity
    assert np.array_equal(I, I.T)
    assert I.min() >= 0.0
    assert np.abs(I.sum(axis=1) - pipe.pi).max() <= 1e-10
    assert I.sum() == pytest.approx(1.0, abs=1e-10)
    W = cf.cycle_graph(pipe.dec).intensity
    assert np.array_equal(W, W.T)
    assert W.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.abs(W.sum(axis=1) - Lifting(pipe.dec).mu).max() <= 1e-10


# ------------------------------------------------------------------- export

def test_export_tsv_ordering(chain3):
    text = cf.export_graph(chain3.K, "tsv")
    rows = [line.split("\t") for line in text.strip().split("\n")]
    assert all(len(r) == 3 for r in rows)
    pairs = [(r[0], r[1]) for r in rows]
    assert pairs == sorted(pairs)  # deterministic, lower index first
    assert ("a", "b") in pairs and ("b", "a") not in pairs


def test_export_dot_and_json(barbell4):
    dot = cf.export_graph(barbell4.K, "dot")
    assert dot.startswith("graph G {")
    assert '"l0" -- "r0"' in dot
    no_loops = cf.export_graph(barbell4.K, "dot", include_self_loops=False)
    assert '"l0" -- "l0"' not in no_loops
    obj = json.loads(cf.export_graph(barbell4.K, "json"))
    assert obj["nodes"][0] == "l0"
    assert all(e["weight"] > 0 for e in obj["edges"])


def test_export_dot_escapes_quotes():
    """Node ids and cycle labels with a double quote stay one DOT ID each: DOT's one
    escape inside a quoted ID is \\"."""
    G = relabel(cf.barbell(4, 0.1), {"l0": 'b"q', "r0": "a,1"})
    pipe = cf.Pipeline(G)
    quoted = r'"((?:[^"\\]|\\.)*)"'
    edge = re.compile(rf"  {quoted} -- {quoted} \[weight=[^\]]+\];")
    for graph in (pipe.K, cf.cycle_graph(pipe.dec)):
        lines = cf.export_graph(graph, "dot").split("\n")
        assert lines[0] == "graph G {" and lines[-2:] == ["}", ""]
        ends = [edge.fullmatch(line).groups() for line in lines[1:-2]]
        ids = {v.replace('\\"', '"') for pair in ends for v in pair}
        assert ids == set(graph.nodes)
        assert any('"' in v for v in ids)
    assert '  "b\\"q" -- "a,1" [weight=' in cf.export_graph(pipe.K, "dot")


def test_export_dot_refuses_trailing_backslash():
    """A quoted DOT ID cannot end in a backslash: it would escape the closing quote."""
    K = cf.CommunicationGraph(intensity=np.array([[0.0, 1.0], [1.0, 0.0]]), nodes=("a\\", "b"))
    with pytest.raises(ValueError, match=re.escape("node id 'a\\\\' ends in a backslash")):
        cf.export_graph(K, "dot")
    assert cf.export_graph(K, "tsv") == "a\\\tb\t1.0\n"
    assert json.loads(cf.export_graph(K, "json"))["nodes"] == ["a\\", "b"]
    inner = cf.CommunicationGraph(intensity=K.intensity, nodes=("a\\b", "b"))
    assert '  "a\\b" -- "b" [weight=1.0];' in cf.export_graph(inner, "dot")


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "#a"])
def test_export_tsv_refuses_ids_that_do_not_read_back(bad):
    """TSV lines are edge-list lines; no communication graph holds an id they could not
    carry, so none is exported."""
    with pytest.raises(ValueError, match="would not read back"):
        cf.CommunicationGraph(intensity=np.array([[0.0, 1.0], [1.0, 0.0]]), nodes=(bad, "c"))


def test_graph_refuses_node_ids_not_one_per_node():
    with pytest.raises(ValueError, match="2 node ids for 3 nodes"):
        cf.CommunicationGraph(np.eye(3), nodes=("a", "b"))


def test_export_cycle_graph_and_errors(barbell4):
    H = cf.cycle_graph(barbell4.dec)
    text = cf.export_graph(H, "tsv", include_self_loops=False)
    assert len(text.strip().split("\n")) == 2  # the 3-node path has 2 edges
    with pytest.raises(ValueError):
        cf.export_graph(barbell4.K, "gexf")
    with pytest.raises(TypeError):
        cf.export_graph(object(), "tsv")


def test_export_deterministic(barbell4):
    assert cf.export_graph(barbell4.K, "json") == cf.export_graph(barbell4.K, "json")


@pytest.mark.parametrize("which", ["communication", "cycle"])
@pytest.mark.parametrize("include_self_loops", [True, False])
def test_export_json_matches_json_dumps(which, include_self_loops):
    pipe = cf.Pipeline(random_strong_graph(np.random.default_rng(5), 12))
    graph = pipe.K if which == "communication" else cf.cycle_graph(pipe.dec)
    M = graph.intensity
    assert np.all(np.diag(M) > 0)  # self-loops to keep or drop
    text = cf.export_graph(graph, "json", include_self_loops=include_self_loops)
    assert text == reference_export(graph, "json", include_self_loops)


def assert_same_text(got, want):
    """Equal texts; a mismatch names its first differing line, as a diff of
    megabytes of text would take pytest minutes."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {k + 1} differs: {a[k:k + 1]} != {b[k:k + 1]} "
                    f"({len(a)} and {len(b)} lines)")


@pytest.fixture(scope="module")
def export_graphs():
    peeled = cf.Pipeline(random_strong_graph(np.random.default_rng(3), 200))
    sampled = cf.Pipeline(cf.barbell(40, 0.1), T=200_000)
    # a decomposition without node ids: vertices are labelled by index
    dec = cf.iterative_decomposition(cf.Pipeline(cf.barbell(4, 0.1)).F)
    unnamed = SimpleNamespace(K=cf.communication_graph(dec), dec=dec)
    return {"random200-peeled": peeled, "barbell40-sampled": sampled, "barbell4-unnamed": unnamed}


@pytest.mark.parametrize("pipeline", ["random200-peeled", "barbell40-sampled",
                                      "barbell4-unnamed"])
@pytest.mark.parametrize("which", ["communication", "cycle"])
@pytest.mark.parametrize("fmt", ["tsv", "dot", "json"])
@pytest.mark.parametrize("include_self_loops", [True, False])
@pytest.mark.parametrize("block", [None, 1000])
def test_export_matches_reference(export_graphs, monkeypatch, pipeline, which, fmt,
                                  include_self_loops, block):
    if block is not None:  # these graphs fit in one block of the default size
        monkeypatch.setattr("cycleflow.commgraph._EXPORT_BLOCK", block)
    pipe = export_graphs[pipeline]
    graph = pipe.K if which == "communication" else cf.cycle_graph(pipe.dec)
    if pipeline == "barbell4-unnamed" and which == "cycle":
        assert graph.nodes == ("(0,1,2,3)", "(0,4)", "(4,5,6,7)")
    assert_same_text(cf.export_graph(graph, fmt, include_self_loops),
                     reference_export(graph, fmt, include_self_loops))


def hand_built_graphs():
    """Intensity matrices that probe the export's corners."""
    repeated = np.array([[0.5, 0.25, 0.0, 0.1],
                         [0.25, 0.5, 0.1, 0.25],
                         [0.0, 0.1, 0.0, 0.0],   # row 2: nothing in the upper triangle
                         [0.1, 0.25, 0.0, 0.5]])
    # weights one ulp apart, which must not share a text
    a = 0.1
    b = np.nextafter(a, 1.0)
    c = np.nextafter(b, 1.0)
    close = np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
    diagonal = np.diag([0.5, 0.25, 0.25])  # no off-diagonal entry
    with_inf = np.array([[1.0, np.inf], [np.inf, 2.0]])
    return {"repeated": repeated, "close": close, "diagonal": diagonal, "inf": with_inf}


@pytest.mark.parametrize("name", ["repeated", "close", "diagonal", "inf"])
@pytest.mark.parametrize("which", ["communication", "cycle"])
@pytest.mark.parametrize("fmt", ["tsv", "dot", "json"])
@pytest.mark.parametrize("include_self_loops", [True, False])
@pytest.mark.parametrize("block", [None, 2])
def test_export_hand_built_matches_reference(monkeypatch, name, which, fmt,
                                             include_self_loops, block):
    if block is not None:
        monkeypatch.setattr("cycleflow.commgraph._EXPORT_BLOCK", block)
    M = hand_built_graphs()[name]
    n = M.shape[0]
    if which == "communication":
        graph = cf.CommunicationGraph(intensity=M, nodes=tuple(f"v{k}" for k in range(n)))
    else:
        graph = cf.CommunicationGraph(intensity=M,
                                      nodes=tuple(f"({k},{(k + 1) % n})" for k in range(n)))
    assert_same_text(cf.export_graph(graph, fmt, include_self_loops),
                     reference_export(graph, fmt, include_self_loops))


def test_export_corner_texts():
    graphs = hand_built_graphs()
    no_edges = cf.CommunicationGraph(intensity=graphs["diagonal"])
    assert cf.export_graph(no_edges, "tsv", include_self_loops=False) == "\n"
    assert cf.export_graph(no_edges, "dot", include_self_loops=False) == "graph G {\n}\n"
    assert json.loads(cf.export_graph(no_edges, "json", include_self_loops=False))["edges"] == []
    with_inf = cf.CommunicationGraph(intensity=graphs["inf"])
    assert cf.export_graph(with_inf, "tsv") == "0\t0\t1.0\n0\t1\tinf\n1\t1\t2.0\n"
    assert '"weight": Infinity' in cf.export_graph(with_inf, "json")
    close = cf.export_graph(cf.CommunicationGraph(intensity=graphs["close"]), "tsv")
    assert len({line.split("\t")[2] for line in close.split("\n")[:-1]}) == 3
