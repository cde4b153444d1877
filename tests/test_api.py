"""The shipped package: what each layer module exports, and which reference
constructions stay in the test suite's `reference` module instead."""

import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import cycleflow as cf
from cycleflow import cli

LAYERS = ("graph", "cycles", "lifted", "commgraph", "clustering", "modularity")

# defining module -> names that only tests read, kept in tests/reference.py
TEST_ONLY = {
    "cycles": ["reverse_cycle", "simple_cycles", "exact_cycle_weights"],
    "lifted": ["node_to_cycle_matrix", "cycle_to_node_matrix", "cycle_stationary",
               "detailed_balance_residual", "_symmetrize", "spectrum_reversible",
               "SpectralMatchReport", "verify_spectral_match", "entropy_production_edge",
               "entropy_production_cycle"],
    "modularity": ["check_symmetrization_invariance", "enumerate_set_partitions",
                   "_EXHAUSTIVE_CAP"],
}


@pytest.mark.parametrize("layer", sorted(TEST_ONLY))
def test_reference_constructions_are_not_shipped(layer):
    mod = importlib.import_module(f"cycleflow.{layer}")
    for name in TEST_ONLY[layer]:
        assert not hasattr(mod, name), name
        assert not hasattr(cf, name), name


def test_pipeline_holds_only_what_commands_read():
    for name in ("B", "V", "P_lift", "Q_lift", "pi_lift", "mu"):
        assert not hasattr(cf.Pipeline, name), name
    assert not hasattr(cf.CommunicationGraph, "walk_matrix")


def test_spectra_are_plain_arrays():
    assert not hasattr(cf, "SpectrumReport")
    assert not hasattr(cf.lifted, "SpectrumReport")
    P = cf.transition_matrix(cf.ring(4))
    assert isinstance(cf.spectrum(P), np.ndarray)


def test_maximize_has_no_mode():
    assert "mode" not in inspect.signature(cf.maximize).parameters


def test_clustering_holds_only_what_cmsm_reads():
    for name in ("FuzzyPartition", "fuzzy_partition"):
        assert not hasattr(cf.clustering, name), name
        assert not hasattr(cf, name), name
    cores = cf.find_cores(cf.Pipeline(cf.barbell(4, 0.1)).K, 2, 0.9)
    for name in ("memberships", "theta"):
        assert not hasattr(cores, name), name


def test_public_names_are_the_layers():
    # the package re-exports each layer's __all__, the same objects, and nothing else
    layers = [importlib.import_module(f"cycleflow.{m}") for m in (*LAYERS, "generators")]
    submodules = {m.name for m in pkgutil.iter_modules(cf.__path__) if not m.name.startswith("_")}
    public = {name for name in vars(cf) if not name.startswith("_")}
    assert public == set().union(*(mod.__all__ for mod in layers)) | submodules
    for mod in layers:
        for name in mod.__all__:
            assert getattr(cf, name) is getattr(mod, name), name
    assert cf.__version__ == "0.1.0"


def test_nodes_are_named_once():
    # every node-indexed object holds its ids in .nodes, each index as a string if unnamed
    P = cf.transition_matrix(cf.ring(3))
    ids = ("0", "1", "2")
    dec = cf.CycleDecomposition({(0, 1, 2): 0.5}, kind="iterative", n_nodes=3)
    for obj in (cf.Trajectory(states=np.array([0, 1, 2])), cf.Walk(P, 0, 5, 0), dec,
                cf.CommunicationGraph(np.eye(3))):
        assert obj.nodes == ids, type(obj).__name__
    for cls in (cf.CycleDecomposition, cf.CommunicationGraph):
        assert not hasattr(cls, "node_ids"), cls.__name__


@pytest.mark.parametrize("layer", LAYERS)
def test_all_lists_names_the_module_defines(layer):
    # a benchmark tracer wraps every function named in a layer's __all__
    mod = importlib.import_module(f"cycleflow.{layer}")
    for name in mod.__all__:
        value = getattr(mod, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == mod.__name__, name


def test_names_the_benchmark_calls(tmp_path):
    # perfbench builds its random graphs from a node list and an edge dict, and its
    # checks read the written input back and look nodes up by id
    G = cf.DirectedGraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 0.5})
    cf.write_edge_list(G, tmp_path / "g.tsv")
    H = cf.read_edge_list(str(tmp_path / "g.tsv"))
    assert H.edges == G.edges and [H.index(v) for v in "abc"] == [0, 1, 2]
    assert not hasattr(cf.DirectedGraph, "from_edge_list")
    # they rebuild the decomposition from decomposition.json through the keyword
    # constructor, each cycle's ids mapped to indices by canonical_cycle on a generator,
    # and the tracer counts cycles off the weights view
    G = cf.barbell(4, 0.1)
    pipe = cf.Pipeline(G)
    written = json.loads(cf.decomposition_to_json(pipe.dec))
    weights = {cf.canonical_cycle(G.index(v) for v in e["cycle"]): e["weight"]
               for e in written["cycles"]}
    dec = cf.CycleDecomposition(weights=weights, kind=written["kind"], n_nodes=G.n,
                                nodes=G.nodes)
    assert len(dec.weights) == dec.lengths.size == 3
    assert dec.weights == pipe.dec.weights
    assert dec.node_mass().shape == (G.n,)
    K = cf.communication_graph(dec, pipe.pi)  # pi passed positionally
    assert K.intensity.shape == (G.n, G.n)
    # those are the only tuple forms left: every command reads the arrays
    assert list(inspect.signature(cf.CycleDecomposition).parameters) == [
        "weights", "kind", "n_nodes", "nodes"]
    assert not hasattr(cf.cycles, "Cycle") and not hasattr(cf, "Cycle")
    for name in ("cycles", "counts", "weight"):
        assert not hasattr(cf.CycleDecomposition, name), name
    assert callable(cli._load_pipeline)
