"""The shipped package: what each layer module exports, and which reference
constructions stay in the test suite's `reference` module instead."""

import importlib
import inspect

import pytest

import cycleflow as cf

LAYERS = ("graph", "cycles", "lifted", "commgraph", "clustering", "modularity")

# defining module -> names that only tests read, kept in tests/reference.py
TEST_ONLY = {
    "cycles": ["reverse_cycle"],
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


def test_maximize_has_no_mode():
    assert "mode" not in inspect.signature(cf.maximize).parameters


@pytest.mark.parametrize("layer", LAYERS)
def test_all_lists_names_the_module_defines(layer):
    # a benchmark tracer wraps every function named in a layer's __all__
    mod = importlib.import_module(f"cycleflow.{layer}")
    for name in mod.__all__:
        value = getattr(mod, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == mod.__name__, name
