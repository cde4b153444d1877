import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import build_pipeline, random_strong_graph


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
    pipe = build_pipeline(cf.ring(5))
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
    implied = barbell40.pi[:, None] * barbell40.P_lift
    assert np.abs(barbell40.K.intensity - implied).max() <= 1e-10


def test_cycle_graph_barbell(barbell4):
    Bc = cf.cycle_graph(barbell4.dec)
    cycles = barbell4.dec.cycles
    j_l = cycles.index(tuple(range(4)))
    j_c = cycles.index((0, 4))
    j_r = cycles.index(tuple(range(4, 8)))
    eps = 0.1
    w = 1.0 / (2 * (4 + eps))
    assert Bc.exchange[j_l, j_c] == pytest.approx(w * eps / (1 + eps), abs=1e-14)
    assert Bc.exchange[j_c, j_r] == pytest.approx(w * eps / (1 + eps), abs=1e-14)
    # the two rings exchange nothing directly: a 3-node path off the diagonal
    assert Bc.exchange[j_l, j_r] == 0.0
    assert np.array_equal(Bc.exchange, Bc.exchange.T)


def test_cycle_graph_chain(chain3):
    Bc = cf.cycle_graph(chain3.dec)
    assert Bc.exchange[0, 1] == pytest.approx(1 / 8, abs=1e-14)
    assert np.allclose(Bc.mu, [0.5, 0.5], atol=1e-13)


def test_cycle_graph_ring_single_node():
    # one cycle: the whole flux recirculates, so the self-exchange is mu = 1
    pipe = build_pipeline(cf.ring(4))
    Bc = cf.cycle_graph(pipe.dec)
    assert Bc.exchange.shape == (1, 1)
    assert Bc.exchange[0, 0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_marginals_property(seed):
    pipe = build_pipeline(random_strong_graph(np.random.default_rng(seed)))
    I = pipe.K.intensity
    assert np.array_equal(I, I.T)
    assert I.min() >= 0.0
    assert np.abs(I.sum(axis=1) - pipe.pi).max() <= 1e-10
    assert I.sum() == pytest.approx(1.0, abs=1e-10)
    W = cf.cycle_graph(pipe.dec).exchange
    assert np.array_equal(W, W.T)
    assert W.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.abs(W.sum(axis=1) - pipe.mu).max() <= 1e-10


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


def json_dumps_graph(M, ids, include_self_loops):
    """Reference JSON export: the whole object through json.dumps(..., indent=2)."""
    edges = [(i, j) for i in range(M.shape[0]) for j in range(M.shape[0])
             if j >= i + (not include_self_loops) and M[i, j] != 0.0]
    obj = {"nodes": list(ids),
           "edges": [{"source": ids[i], "target": ids[j], "weight": float(M[i, j])}
                     for i, j in edges]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("which", ["communication", "cycle"])
@pytest.mark.parametrize("include_self_loops", [True, False])
def test_export_json_matches_json_dumps(which, include_self_loops):
    pipe = build_pipeline(random_strong_graph(np.random.default_rng(5), 12))
    graph = pipe.K if which == "communication" else cf.cycle_graph(pipe.dec)
    M = graph.intensity if which == "communication" else graph.exchange
    assert np.all(np.diag(M) > 0)  # self-loops to keep or drop
    text = cf.export_graph(graph, "json", include_self_loops=include_self_loops)
    assert text == json_dumps_graph(M, graph.node_ids(), include_self_loops)
