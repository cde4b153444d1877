import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.cli import RunConfig, _build_parser, main

from conftest import dict_erasure, random_strong_graph, relabel


@pytest.fixture()
def barbell_tsv(tmp_path):
    path = tmp_path / "barbell.tsv"
    assert main(["generate", "barbell", "--n", "4", "--eps", "0.1",
                 "--output", str(path)]) == 0
    return path


def test_generate_counts(tmp_path):
    out = tmp_path / "g.tsv"
    assert main(["generate", "barbell", "--n", "40", "--eps", "0.1",
                 "--output", str(out)]) == 0
    G = cf.read_edge_list(out)
    assert G.n == 80 and len(G.edges) == 82

    assert main(["generate", "wheel-switch", "--n", "10", "--p", "0.7",
                 "--output", str(out)]) == 0
    G = cf.read_edge_list(out)
    assert G.n == 20 and len(G.edges) == 24

    assert main(["generate", "ring", "--n", "5", "--output", str(out)]) == 0
    assert len(cf.read_edge_list(out).edges) == 5


def test_generate_validation(tmp_path):
    out = tmp_path / "g.tsv"
    assert main(["generate", "barbell", "--n", "2", "--eps", "0.1",
                 "--output", str(out)]) == 2
    assert main(["generate", "barbell", "--n", "4", "--output", str(out)]) == 2
    assert main(["generate", "wheel-switch", "--n", "7", "--p", "0.5",
                 "--output", str(out)]) == 2


def test_generate_refuses_ids_that_do_not_read_back(tmp_path, monkeypatch, capsys):
    # refused as the generator builds its graph, before anything is written
    monkeypatch.setattr(cf.generators, "ring", lambda n: cf.DirectedGraph(
        ["#a", "b"], {("#a", "b"): 1.0, ("b", "#a"): 1.0}))
    out = tmp_path / "g.tsv"
    assert main(["generate", "ring", "--n", "2", "--output", str(out)]) == 2
    assert "would not read back" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generator, unread", [
    (["ring", "--n", "4"], ["--eps", "0.3"]),
    (["ring", "--n", "4"], ["--p", "0.3"]),
    (["barbell", "--n", "4", "--eps", "0.1"], ["--p", "0.3"]),
    (["wheel-switch", "--n", "10", "--p", "0.7"], ["--eps", "0.1"]),
], ids=["ring-eps", "ring-p", "barbell-p", "wheel-switch-eps"])
def test_generate_refuses_a_parameter_its_generator_does_not_read(tmp_path, capsys,
                                                                  generator, unread):
    out = tmp_path / "new" / "g.tsv"
    assert main(["generate", *generator, *unread, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {unread[0]} and {generator[0]} exclude each other\n")
    assert not out.parent.exists()


def test_generate_creates_its_directory(tmp_path):
    # generate writes as every command does: its directory is made on the first write,
    # and a command refused before then leaves none
    out = tmp_path / "new" / "g.tsv"
    assert main(["generate", "ring", "--n", "4", "--output", str(out)]) == 0
    assert len(cf.read_edge_list(out).edges) == 4
    refused = tmp_path / "refused" / "g.tsv"
    assert main(["generate", "barbell", "--n", "4", "--output", str(refused)]) == 2
    assert not refused.parent.exists()


def test_decompose_iterative(barbell_tsv, tmp_path):
    outdir = tmp_path / "dec"
    assert main(["decompose", "--input", str(barbell_tsv),
                 "--decomposer", "iterative", "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "decomposition.json").read_text())
    assert len(obj["cycles"]) == 3
    assert obj["flow_residual"] <= 1e-12
    assert obj["config"]["decomposer"] == "iterative"
    assert len(obj["input_sha256"]) == 64
    w = 1 / (2 * 4.1)
    assert obj["cycles"][0]["weight"] == pytest.approx(w, abs=1e-12)


def test_decompose_sampled_deterministic(barbell_tsv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["decompose", "--input", str(barbell_tsv), "--T", "50000", "--seed", "3"]
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    assert (out1 / "decomposition.json").read_bytes() == \
        (out2 / "decomposition.json").read_bytes()


def test_decompose_trajectory_mode(tmp_path):
    traj_file = tmp_path / "traj.txt"
    P = cf.transition_matrix(cf.ring(4))
    traj = cf.simulate(P, 0, 41, seed=0)
    traj = cf.Trajectory(states=traj.states, nodes=cf.ring(4).nodes)
    cf.write_trajectory(traj, traj_file)
    outdir = tmp_path / "dec"
    assert main(["decompose", "--trajectory", str(traj_file),
                 "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "decomposition.json").read_text())
    assert len(obj["cycles"]) == 1
    assert obj["cycles"][0]["count"] == 10

    # many cycles, self-loops among them, on ids whose sorted order is not the graph's
    G = random_strong_graph(np.random.default_rng(5), 30)
    G = cf.DirectedGraph(G.nodes, {**G.edges, ("x7", "x7"): 1.0, ("x21", "x21"): 0.5})
    traj = cf.simulate(cf.transition_matrix(G), 0, 5_000, seed=2)
    cf.write_trajectory(cf.Trajectory(states=traj.states, nodes=G.nodes), traj_file)
    assert main(["decompose", "--trajectory", str(traj_file),
                 "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "decomposition.json").read_text())
    read = cf.read_trajectory(traj_file)
    counts = dict_erasure(read.states.tolist())
    assert (obj["T"], obj["n_nodes"]) == (5_000, 30)
    assert obj["cycles"] == [
        {"count": counts[c], "cycle": [read.nodes[v] for v in c], "weight": counts[c] / 5_000}
        for c in sorted(counts, key=lambda c: (-counts[c], c))]
    assert any(len(c) == 1 for c in counts) and len(counts) > 100


def test_decompose_refuses_input_with_trajectory(barbell_tsv, tmp_path, capsys):
    # one source per run: the artifact's input, input_sha256 and n_nodes name one file
    walk = tmp_path / "walk.txt"
    G = cf.read_edge_list(barbell_tsv)
    traj = cf.simulate(cf.transition_matrix(G), 0, 200, seed=0)
    cf.write_trajectory(cf.Trajectory(states=traj.states, nodes=G.nodes), walk)
    outdir = tmp_path / "dec"
    # a stored walk is not drawn: the decomposer and walk options would be echoed, unused
    for flag, value in (("--input", str(barbell_tsv)), ("--decomposer", "iterative"),
                        ("--T", "5"), ("--seed", "9"), ("--start", "r2")):
        assert main(["decompose", flag, value, "--trajectory", str(walk),
                     "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {flag} and --trajectory exclude each other\n"
        assert not outdir.exists()
    assert main(["decompose", "--trajectory", str(walk), "--output-dir", str(outdir)]) == 0
    # the echo names no walk option, as nothing drew the stored walk
    config = json.loads((outdir / "decomposition.json").read_text())["config"]
    assert (config["T"], config["seed"], config["decomposer"], config["start"]) == (None,) * 4
    assert (config["trajectory"], config["input"]) == (str(walk), None)
    # with the graph, the peel accepts them unused: the benchmark's peeled job passes them
    assert main(["decompose", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--T", "5", "--seed", "9", "--output-dir", str(tmp_path / "peeled")]) == 0


def test_options_the_run_does_not_read_are_refused(barbell_tsv, tmp_path, capsys):
    # refused before the graph is read: the input named here does not exist
    missing, outdir = str(tmp_path / "missing.tsv"), tmp_path / "out"
    refused = [(["decompose", "--decomposer", "iterative", "--start", "nope"],
                "--start and --decomposer iterative")]
    refused += [(["cluster", "--method", method, flag, value], f"{flag} and --method {method}")
                for method in ("qbar-max", "q-max")
                for flag, value in (("--m", "2"), ("--m-max", "5"), ("--theta", "0.8"))]
    for argv, err in refused:
        assert main([*argv, "--input", missing, "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == f"error: {err} exclude each other\n"
        assert not outdir.exists()
    # where the run reads them, they are accepted
    assert main(["decompose", "--input", str(barbell_tsv), "--start", "r2", "--T", "2000",
                 "--output-dir", str(tmp_path / "sampled")]) == 0
    assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--method", "cmsm", "--m", "2", "--m-max", "5", "--theta", "0.8",
                 "--output-dir", str(tmp_path / "cmsm")]) == 0


@pytest.mark.parametrize("G, T", [
    (cf.barbell(5, 0.1), 20_000),
    (random_strong_graph(np.random.default_rng(4), 30), 50_000),
], ids=["barbell5", "random30"])
def test_stored_walk_decomposes_as_drawn(G, T, tmp_path):
    # the stored walk is simulate's realization of the walk decompose draws, so both
    # runs erase the same states
    graph, walk = tmp_path / "g.tsv", tmp_path / "walk.txt"
    cf.write_edge_list(G, graph)
    G = cf.read_edge_list(graph)  # node order as read back: sorted ids
    traj = cf.simulate(cf.transition_matrix(G), 0, T, seed=7)
    assert np.unique(traj.states).size == G.n  # every node visited: one index space
    cf.write_trajectory(cf.Trajectory(states=traj.states, nodes=G.nodes), walk)
    assert main(["decompose", "--trajectory", str(walk), "--output-dir", str(tmp_path / "s")]) == 0
    assert main(["decompose", "--input", str(graph), "--T", str(T), "--seed", "7",
                 "--output-dir", str(tmp_path / "d")]) == 0
    stored, drawn = (json.loads((tmp_path / d / "decomposition.json").read_text())
                     for d in ("s", "d"))
    assert len(drawn["cycles"]) > 2
    for key in ("cycles", "T", "n_nodes", "kind"):
        assert stored[key] == drawn[key], key
    # only the graph gives a reference flow
    assert stored["flow_residual"] is None and "max_flow" not in stored and "max_flow" in drawn


def test_decompose_rejects_disconnected(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t1.0\n")
    assert main(["decompose", "--input", str(bad),
                 "--output-dir", str(tmp_path / "x")]) == 2


def test_spectrum_outputs(barbell_tsv, tmp_path):
    # the lifted spectrum is solved on K's symmetric form, built from K's own row
    # sums, so a sampled run's top eigenvalue is 1 to rounding, as a peeled run's is
    for name, decomposer in (("iterative", ["--decomposer", "iterative"]),
                             ("sample", ["--decomposer", "sample", "--T", "100000"])):
        outdir = tmp_path / name
        assert main(["spectrum", "--input", str(barbell_tsv), *decomposer,
                     "--output-dir", str(outdir)]) == 0
        walk = (outdir / "spectrum_walk.csv").read_text().strip().split("\n")
        lifted = (outdir / "spectrum_lifted.csv").read_text().strip().split("\n")
        assert walk[0] == "re,im" and len(walk) == 9
        re0, im0 = (float(x) for x in lifted[1].split(","))
        assert re0 == pytest.approx(1.0, abs=1e-10) and im0 == 0.0


def test_spectrum_k_range(barbell_tsv, tmp_path, capsys):
    # k below 1 is refused before the graph is read: the input need not even exist
    for k in ("0", "-3"):
        assert main(["spectrum", "--input", str(tmp_path / "missing.tsv"), "--k", k,
                     "--output-dir", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"
    assert not (tmp_path / "s").exists()
    # k above the node count needs the graph to be known
    assert main(["spectrum", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--k", "9", "--output-dir", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: k=9 out of range for dimension 8\n"
    assert main(["spectrum", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--k", "2", "--output-dir", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "spectrum_walk.csv").read_text().count("\n") == 3


@pytest.mark.parametrize("graph", [cf.barbell(4, 0.1),
                                   random_strong_graph(np.random.default_rng(4), 12)],
                         ids=["barbell4", "random12"])
def test_spectrum_artifacts_match_a_reference(graph, tmp_path):
    # every line is the repr of an eigenvalue of numpy's own solve, sorted here by
    # modulus, real part, then imaginary part, descending: whatever order the host's
    # LAPACK returns, the artifacts hold the same text
    path = tmp_path / "g.tsv"
    cf.write_edge_list(graph, path)
    pipe = cf.Pipeline(cf.read_edge_list(path))

    def ordered(vals):
        return sorted(vals.astype(complex).tolist(), key=lambda z: (abs(z), z.real, z.imag),
                      reverse=True)

    expected = {"walk": ordered(np.linalg.eigvals(pipe.P)),
                "lifted": ordered(np.linalg.eigvalsh(pipe.K.normalized))}
    for k in (None, 3):
        outdir = tmp_path / f"k{k}"
        assert main(["spectrum", "--input", str(path), "--decomposer", "iterative",
                     *([] if k is None else ["--k", str(k)]), "--output-dir", str(outdir)]) == 0
        for name, vals in expected.items():
            assert (outdir / f"spectrum_{name}.csv").read_text() == "".join(
                ["re,im\n", *(f"{z.real!r},{z.imag!r}\n" for z in vals[:k])])
        top = json.loads((outdir / "spectrum.json").read_text())
        assert top["walk_top"] == [[z.real, z.imag] for z in expected["walk"][:k][:10]]
        assert top["lifted_top"] == [z.real for z in expected["lifted"][:k][:10]]
        assert top["lifted_max_imag"] == 0.0


def test_one_solve_of_K_per_command(barbell_tsv, tmp_path, monkeypatch):
    calls = Counter()
    for name in ("eigh", "eigvalsh", "eigvals"):
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    common = ["--input", str(barbell_tsv), "--decomposer", "iterative"]
    # the module count and the embedding share one eigendecomposition of K
    assert main(["cluster", *common, "--method", "cmsm", "--m", "auto",
                 "--output-dir", str(tmp_path / "clu")]) == 0
    assert dict(calls) == {"eigh": 1}
    # the lifted spectrum needs no vectors: one values-only solve, besides the walk's
    calls.clear()
    assert main(["spectrum", *common, "--output-dir", str(tmp_path / "spec")]) == 0
    assert dict(calls) == {"eigvalsh": 1, "eigvals": 1}


def test_cluster_cmsm(barbell_tsv, tmp_path):
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--method", "cmsm", "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "partition.json").read_text())
    assert obj["m"] == 2
    assert sorted(map(sorted, obj["cores"])) == [
        ["l0", "l1", "l2", "l3"], ["r0", "r1", "r2", "r3"]]
    assert obj["transition_region"] == []
    assert obj["committors"]["l1"] == [1.0, 0.0]
    csv_lines = (outdir / "partition.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "node,label,tie,q0,q1"
    assert len(csv_lines) == 9
    assert csv_lines[1].startswith("l0,0,0,")


@pytest.mark.parametrize("graph, source, csv_sha256, json_sha256", [
    (["barbell", "--n", "5", "--eps", "0.1"], ["--decomposer", "iterative"],
     "364d79dd63001a7aa32279b5dd9eb38c3ee90707621002aa569422bdfe6abc2c",
     "d407a837c865fc151679030db27bdaf6ae541196a2a86464b1f85d61bf6474b6"),
    (["wheel-switch", "--n", "10", "--p", "0.3"], ["--T", "20000"],
     "da42383a5cf475c1e9ffe1668acf2614c79bb7f2a7cab77fa98fbbdfde20f591",
     "6a43df858ec337bc093ffd76a75f4ec641155144b27a50079efa8603ef4fa89d"),
])
def test_cluster_cmsm_artifacts_pinned(graph, source, csv_sha256, json_sha256, tmp_path):
    """cmsm's partition.csv, and its partition.json but for the config echo, which
    names the temporary paths, keep the bytes pinned here."""
    path, outdir = tmp_path / "g.tsv", tmp_path / "clu"
    assert main(["generate", *graph, "--output", str(path)]) == 0
    assert main(["cluster", "--input", str(path), *source, "--method", "cmsm",
                 "--output-dir", str(outdir)]) == 0
    assert hashlib.sha256((outdir / "partition.csv").read_bytes()).hexdigest() == csv_sha256
    obj = json.loads((outdir / "partition.json").read_text())
    del obj["config"]
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == json_sha256


def test_cluster_cmsm_csv_quotes_ids(tmp_path):
    """Ids holding a comma or a double quote are quoted in partition.csv, inner quotes
    doubled, so that a CSV reader gets one field per column; plain ids stay bare."""
    G = relabel(cf.barbell(4, 0.1), {"l0": "a,1", "r0": 'b"q'})
    path = tmp_path / "g.tsv"
    cf.write_edge_list(G, path)
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(path), "--decomposer", "iterative",
                 "--method", "cmsm", "--output-dir", str(outdir)]) == 0
    text = (outdir / "partition.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["node", "label", "tie", "q0", "q1"]
    assert all(len(row) == 5 for row in rows)
    nodes = cf.read_edge_list(path).nodes
    assert [row[0] for row in rows[1:]] == list(nodes)
    lines = dict(zip(nodes, text.split("\n")[1:]))
    assert lines["a,1"].startswith('"a,1",') and lines['b"q'].startswith('"b""q",')
    assert lines["l1"].startswith("l1,")
    committors = json.loads((outdir / "partition.json").read_text())["committors"]
    assert [[float(q) for q in row[3:]] for row in rows[1:]] == [committors[v] for v in nodes]


def test_cluster_qbar_max(barbell_tsv, tmp_path):
    for method, objective, value in (("qbar-max", "qbar", 0.5 - 0.05 / 4.1),
                                     ("q-max", "q", 0.5 - 0.1 / 4.1)):
        outdir = tmp_path / method
        assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                     "--method", method, "--output-dir", str(outdir)]) == 0
        obj = json.loads((outdir / "partition.json").read_text())
        assert obj["objective"] == objective
        assert obj["value"] == pytest.approx(value, abs=1e-10)
        assert sorted(map(sorted, obj["partition"])) == [
            ["l0", "l1", "l2", "l3"], ["r0", "r1", "r2", "r3"]]
    # q-max reads only the walk: a sample too short to cover every node is no error
    runs = []
    for name, T in (("short", ["--T", "8"]), ("default", [])):
        outdir = tmp_path / name
        assert main(["cluster", "--input", str(barbell_tsv), *T,
                     "--method", "q-max", "--output-dir", str(outdir)]) == 0
        runs.append(json.loads((outdir / "partition.json").read_text()))
    for key in ("partition", "value", "merge_history"):
        assert runs[0][key] == runs[1][key]


def test_cluster_cmsm_wheel_fuzzy(tmp_path):
    graph = tmp_path / "wheel.tsv"
    assert main(["generate", "wheel-switch", "--n", "10", "--p", "0.7",
                 "--output", str(graph)]) == 0
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(graph), "--method", "cmsm", "--m", "2",
                 "--T", "200000", "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "partition.json").read_text())
    assert sorted(map(sorted, obj["cores"])) == [
        ["i0", "i1", "o0", "o1"], ["i5", "i6", "o5", "o6"]]
    assert len(obj["transition_region"]) == 12
    for v in obj["transition_region"]:
        assert obj["committors"][v] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert sorted(obj["ties"]) == sorted(obj["transition_region"])


def test_cluster_explicit_m(barbell_tsv, tmp_path):
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--method", "cmsm", "--m", "2", "--output-dir", str(outdir)]) == 0
    assert main(["cluster", "--input", str(barbell_tsv), "--m", "1",
                 "--output-dir", str(outdir)]) == 2


def test_cluster_more_modules_than_nodes_exit_code(barbell_tsv, tmp_path, capsys):
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(barbell_tsv), "--method", "cmsm", "--m", "20",
                 "--output-dir", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: cannot form 20 modules on 8 nodes\n"
    assert not outdir.exists()


def test_modularity_command(barbell_tsv, tmp_path):
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"l{k}\t0\n" for k in range(4))
                    + "".join(f"r{k}\t1\n" for k in range(4)))
    outdir = tmp_path / "mod"
    assert main(["modularity", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--partition", str(part), "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "modularity.json").read_text())
    assert obj["q_directed"] == pytest.approx(0.5 - 0.1 / 4.1, abs=1e-10)
    assert obj["qbar"] == pytest.approx(0.5 - 0.05 / 4.1, abs=1e-10)


def test_modularity_rejects_partial_partition(barbell_tsv, tmp_path):
    part = tmp_path / "part.tsv"
    part.write_text("l0\t0\n")
    assert main(["modularity", "--input", str(barbell_tsv),
                 "--partition", str(part), "--output-dir", str(tmp_path / "m")]) == 2


@pytest.mark.parametrize("bad_line, message", [
    ("r0\tone", "module index 'one' is not an integer"),
    ("r0\t-1", "negative module index -1 for node 'r0'"),
    ("l2\t1", "node 'l2' listed again (first on line 3)"),
    ("x9\t1", "unknown node 'x9'"),
], ids=["non-integer", "negative", "listed-twice", "unknown-node"])
def test_modularity_partition_file_errors(barbell_tsv, tmp_path, capsys, bad_line, message):
    part = tmp_path / "part.tsv"
    lines = [f"l{k}\t0" for k in range(4)] + [bad_line] + [f"r{k}\t1" for k in range(4)]
    part.write_text("\n".join(lines) + "\n")
    assert main(["modularity", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--partition", str(part), "--output-dir", str(tmp_path / "m")]) == 2
    assert f"{part}:5: {message}" in capsys.readouterr().err


def test_modularity_reads_partition_before_sampling(barbell_tsv, tmp_path, monkeypatch, capsys):
    # a malformed partition file is refused before the walk is drawn and erased
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the partition file was read")
    monkeypatch.setattr(cf.commgraph, "sample_decomposition", no_sampling)
    part = tmp_path / "part.tsv"
    part.write_text("l0\tzero\n")
    assert main(["modularity", "--input", str(barbell_tsv), "--partition", str(part),
                 "--output-dir", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == (
        f"error: {part}:1: module index 'zero' is not an integer\n")
    assert not (tmp_path / "m").exists()


def test_export_graph_formats(barbell_tsv, tmp_path):
    out = tmp_path / "new" / "dir" / "K.tsv"  # made on write, as --output-dir is
    assert main(["export-graph", "--input", str(barbell_tsv), "--decomposer",
                 "iterative", "--format", "tsv", "--output", str(out)]) == 0
    rows = [r.split("\t") for r in out.read_text().strip().split("\n")]
    assert ["l0", "r0"] in [r[:2] for r in rows]

    out_dot = tmp_path / "H.dot"
    assert main(["export-graph", "--input", str(barbell_tsv), "--decomposer",
                 "iterative", "--which", "cycle", "--format", "dot",
                 "--no-self-loops", "--output", str(out_dot)]) == 0
    assert out_dot.read_text().count("--") == 2  # cycle graph is a 3-node path


def test_export_graph_dot_refuses_trailing_backslash(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text("a\\\tb\t1\nb\ta\\\t1\n")
    argv = ["export-graph", "--input", str(graph), "--decomposer", "iterative"]
    out = tmp_path / "dot" / "K.dot"
    assert main([*argv, "--format", "dot", "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("error: node id 'a\\\\' ends in a backslash, "
                                       "which a DOT ID cannot hold\n")
    assert not out.parent.exists()
    for fmt in ("tsv", "json"):
        assert main([*argv, "--format", fmt, "--output", str(tmp_path / f"K.{fmt}")]) == 0


@pytest.mark.parametrize("command", [
    ["decompose", "--output-dir"], ["cluster", "--output-dir"],
    ["export-graph", "--format", "tsv", "--output"]], ids=lambda c: c[0])
def test_ids_that_do_not_read_back_are_refused_on_read(tmp_path, capsys, command):
    # a field keeps the whitespace inside its line: read, `a ` would be an id that no
    # edge list or export could carry
    graph, out = tmp_path / "g.tsv", tmp_path / "out"
    graph.write_text("a \tb\t1\nb\ta \t1\n")
    assert main([command[0], "--input", str(graph), "--decomposer", "iterative",
                 *command[1:], str(out / "K")]) == 2
    assert capsys.readouterr().err.startswith("error: node id 'a ' would not read back")
    assert not out.exists()
    graph.write_text("a\t b\t1\n b\ta\t1\n")  # as typed, a space after the tab
    assert main([command[0], "--input", str(graph), *command[1:], str(out / "K")]) == 2
    assert capsys.readouterr().err.startswith("error: node id ' b' would not read back")
    assert not out.exists()


def test_a_byte_order_mark_is_dropped(barbell_tsv, tmp_path):
    """An edge list, walk or partition file that starts with a UTF-8 byte-order mark
    reads as it does without one."""
    def bommed(path):
        copy = path.with_name("bom-" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def run(command, *argv):  # each command writes one JSON artifact, into its own dir
        assert main([command, *map(str, argv), "--output-dir", str(tmp_path / command)]) == 0
        obj = json.loads(next((tmp_path / command).glob("*.json")).read_text())
        del obj["config"], obj["input_sha256"]
        obj.pop("partition_sha256", None)  # a file's hash is of its bytes, the mark included
        return obj

    G = cf.read_edge_list(barbell_tsv)
    walk = tmp_path / "walk.txt"
    traj = cf.simulate(cf.transition_matrix(G), 0, 2_000, seed=0)
    cf.write_trajectory(cf.Trajectory(states=traj.states, nodes=G.nodes), walk)
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"{v}\t{v[0] == 'r':d}\n" for v in G.nodes))
    iterative = ["--decomposer", "iterative"]
    for plain, bom in [(["decompose", "--input", barbell_tsv, *iterative],
                        ["decompose", "--input", bommed(barbell_tsv), *iterative]),
                       (["decompose", "--trajectory", walk],
                        ["decompose", "--trajectory", bommed(walk)]),
                       (["modularity", "--input", barbell_tsv, *iterative, "--partition", part],
                        ["modularity", "--input", barbell_tsv, *iterative,
                         "--partition", bommed(part)])]:
        expected = run(*plain)
        assert run(*bom) == expected
        if plain[0] == "decompose":  # no phantom id '\ufeffl0'
            assert expected["n_nodes"] == 8
    assert cf.read_trajectory(bommed(walk)).nodes == G.nodes


def test_byte_identical_reruns(barbell_tsv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert main(["cluster", "--input", str(barbell_tsv), "--method", "cmsm",
                     "--T", "20000", "--output-dir", str(outdir)]) == 0
    assert (a / "partition.json").read_bytes() == (b / "partition.json").read_bytes()


def test_every_option_is_a_config_field():
    """Each subcommand's dests but its handler and output are RunConfig fields, and each
    field but `command` is set by some subcommand: a dest with no field would silently
    drop out of the config echo."""
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    set_by_some = set()
    for name, command in sub.choices.items():
        dests = {a.dest for a in command._actions if a.dest != "help"} | set(command._defaults)
        assert {"run", "out"} <= dests, name
        assert dests - {"run", "out"} <= fields, name
        set_by_some |= dests
    assert set_by_some - {"run", "out"} == fields - {"command"}


def test_validation_exit_codes(tmp_path):
    assert main(["decompose", "--output-dir", str(tmp_path / "x")]) == 2  # no input
    missing = tmp_path / "missing.tsv"
    assert main(["decompose", "--input", str(missing),
                 "--output-dir", str(tmp_path / "y")]) == 2
    good = tmp_path / "g.tsv"
    assert main(["generate", "ring", "--n", "4", "--output", str(good)]) == 0
    assert main(["cluster", "--input", str(good), "--theta", "1.5",
                 "--output-dir", str(tmp_path / "z")]) == 2
    assert main(["cluster", "--input", str(good), "--m-max", "1",
                 "--output-dir", str(tmp_path / "z")]) == 2
    assert main(["decompose", "--input", str(good), "--T", "0",
                 "--output-dir", str(tmp_path / "w")]) == 2
    # q-max never samples, yet rejects the T every other command rejects
    assert main(["cluster", "--input", str(good), "--method", "q-max", "--T", "1",
                 "--output-dir", str(tmp_path / "u")]) == 2
    assert main(["decompose", "--input", str(good), "--start", "nope",
                 "--output-dir", str(tmp_path / "v")]) == 2


def test_negative_seed_exit_code(barbell_tsv, tmp_path, capsys):
    # refused before any input is read, as --T is: a missing input file is never opened
    for path in (barbell_tsv, tmp_path / "missing.tsv"):
        for source in ([], ["--decomposer", "iterative"]):
            assert main(["decompose", "--input", str(path), *source, "--seed", "-1",
                         "--output-dir", str(tmp_path / "d")]) == 2
            assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "d").exists()


def test_peel_names_its_tolerance_for_an_uncovered_node(tmp_path, capsys):
    # a birth-death chain with a 9:1 drift: the flow through v00, about 1e-27, lies
    # below the peel's tolerance, so the peel keeps no cycle through it
    path = tmp_path / "chain.tsv"
    path.write_text("".join(f"v{i:02d}\tv{i + 1:02d}\t9\nv{i + 1:02d}\tv{i:02d}\t1\n"
                            for i in range(29)))
    assert main(["cluster", "--input", str(path), "--decomposer", "iterative",
                 "--output-dir", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == (
        "error: node 'v00' is covered by no cycle, so the decomposition does not span the "
        "graph; the peel keeps only cycles heavier than its tolerance 4.44e-13, and none "
        "through this node was\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("lines, message", [
    # two finite out-weights whose sum overflows
    (["a\tb\t1.7e308", "a\tc\t1.7e308", "b\ta\t1", "c\ta\t1"],
     "node 'a' has out-weights summing to inf; the sum must be finite"),
    # duplicate edge lines whose aggregate overflows
    (["a\tb\t1e308", "a\tb\t1e308", "b\ta\t1"],
     "edge (a, b) has weight inf; weights must be finite and positive"),
])
def test_overflowing_weights_exit_code(tmp_path, capsys, lines, message):
    path = tmp_path / "huge.tsv"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompose", "--input", str(path), "--decomposer", "iterative",
                     "--output-dir", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("weight", ["0", "-1", "nan", "inf"])
def test_line_weight_out_of_range_exit_code(tmp_path, capsys, weight):
    # the lines a b 2, b a 1, a b -1 once read as a b 1
    path = tmp_path / "g.tsv"
    path.write_text(f"a\tb\t2\nb\ta\t1\na\tb\t{weight}\n")
    outdir = tmp_path / "d"
    assert main(["decompose", "--input", str(path), "--output-dir", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:3: bad weight {weight!r}; weights must be finite and positive\n")
    assert not outdir.exists()


def test_underflowing_probability_exit_code(tmp_path, capsys):
    # P[a, c] = 1e-300 / 1e300 is below the float range: the walk would lose node c
    path = tmp_path / "tiny.tsv"
    path.write_text("a\tb\t1e300\na\tc\t1e-300\nb\ta\t1\nc\ta\t1\n")
    part = tmp_path / "part.tsv"
    part.write_text("a\t0\nb\t0\nc\t1\n")
    out = ["--output-dir", str(tmp_path / "o")]
    commands = [["decompose", *out], ["decompose", "--decomposer", "iterative", *out],
                ["spectrum", *out],
                *(["cluster", "--method", m, *out] for m in ("cmsm", "qbar-max", "q-max")),
                ["modularity", "--partition", str(part), *out],
                ["export-graph", "--output", str(tmp_path / "g.tsv")]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in commands:
            assert main([*command, "--input", str(path), "--T", "1000"]) == 2, command
            assert capsys.readouterr().err == (
                "error: edge (a, c) has probability 1e-300 / 1e+300, which underflows "
                "to 0; it must be a positive float\n")
    assert not (tmp_path / "o").exists()


def test_walk_too_short_to_cover_exit_code(barbell_tsv, tmp_path, capsys):
    # 10 steps from l0 close no cycle through the r ring
    for command in (["spectrum"], ["cluster", "--method", "qbar-max"]):
        assert main([*command, "--input", str(barbell_tsv), "--T", "10", "--seed", "0",
                     "--output-dir", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "node 'r0' is covered by no cycle" in err and "larger --T" in err
    assert not (tmp_path / "s").exists()


def test_disconnected_communication_graph_exit_code(tmp_path, capsys):
    # three directed 4-rings chained by reciprocal bridges; this walk crosses a bridge
    # without ever closing its 2-cycle, so K falls apart into 3 components, and the
    # 2 leading eigenvectors vanish on the nodes of one of them
    path = tmp_path / "rings.tsv"
    lines = [f"{r}{i}\t{r}{(i + 1) % 4}\t1.0" for r in "abc" for i in range(4)]
    lines += ["a0\tb0\t0.1", "b0\ta0\t0.1", "b0\tc0\t0.1", "c0\tb0\t0.1"]
    path.write_text("\n".join(lines) + "\n")
    assert main(["cluster", "--input", str(path), "--m", "2", "--T", "100", "--seed", "22",
                 "--output-dir", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: degenerate spectral embedding (zero row) at node 'c0': "
        "the communication graph K is disconnected\n")
    assert not (tmp_path / "c").exists()


def test_out_of_memory_exit_code(barbell_tsv, tmp_path, monkeypatch, capsys):
    for exc in (MemoryError("Unable to allocate 7.45 GiB for an array"), MemoryError()):
        def no_memory(*args, exc=exc, **kwargs):
            raise exc
        monkeypatch.setattr("cycleflow.cli.Pipeline", no_memory)
        assert main(["spectrum", "--input", str(barbell_tsv),
                     "--output-dir", str(tmp_path / "s")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1


def test_eigensolver_failure_exit_code(barbell_tsv, tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, yet it is a numerical failure, not a validation one
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--output-dir", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"


def decode_cycle_name(name):
    """The node ids a cycle-graph vertex name lists: "(" ids ")", joined by ",", each
    "\\" and "," inside an id escaped by a backslash."""
    assert name[0] == "(" and name[-1] == ")"
    ids, chars = [""], iter(name[1:-1])
    for ch in chars:
        if ch == ",":
            ids.append("")
        else:
            ids[-1] += next(chars) if ch == "\\" else ch
    return tuple(ids)


@pytest.mark.parametrize("source", [["--decomposer", "iterative"],
                                    ["--T", "20000", "--seed", "3"]])
def test_cycle_export_names_decode_to_their_cycles(tmp_path, source):
    # unescaped, "(a,b,c)" would name both (a, "b,c") and ("a,b", c)
    pairs = {("a", "b,c"), ("a,b", "c"), ("a", "a,b"), ("c", "d\\")}
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{x}\t{y}\t1\n{y}\t{x}\t1\n" for x, y in sorted(pairs)))
    outdir, out = tmp_path / "d", tmp_path / "cycle.tsv"
    assert main(["decompose", "--input", str(path), *source, "--output-dir", str(outdir)]) == 0
    cycles = json.loads((outdir / "decomposition.json").read_text())["cycles"]
    assert {tuple(c["cycle"]) for c in cycles} == pairs
    assert main(["export-graph", "--input", str(path), *source, "--which", "cycle",
                 "--output", str(out)]) == 0
    names = {v for line in out.read_text().split("\n")[:-1] for v in line.split("\t")[:2]}
    assert len(names) == len(pairs)  # every cycle has a self-loop, so each name shows
    assert {decode_cycle_name(v) for v in names} == pairs
    assert {"(a,b\\,c)", "(a\\,b,c)", "(c,d\\\\)"} <= names


@pytest.mark.parametrize("fmt, sha256", [
    ("tsv", "d53e446c3265cf30dfe6dd752014e243b2fb9f6c974635a955dae4186f1a3c42"),
    ("dot", "6c7dafa19d6b717c64fdb5020cb66a49cc0f470285053a6471e517efe8e4b6b8"),
    ("json", "b0f9c6c9b6afd9af188646943372d4bf9da9fe56895d142c26c7075f04495d08"),
])
def test_cycle_export_of_plain_ids_pinned(barbell_tsv, tmp_path, fmt, sha256):
    """Names of cycles whose ids hold no backslash or comma keep their bytes."""
    out = tmp_path / f"cycle.{fmt}"
    assert main(["export-graph", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--which", "cycle", "--format", fmt, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("script, args", [
    ("run_barbell.py", ["--n", "4", "--T", "20000"]),
    ("run_wheel_switch.py", ["--n", "6", "--T", "20000"]),
])
def test_scripts_run(script, args, tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / script
    monkeypatch.setattr(sys, "argv", [str(path), *args, "--out", str(tmp_path)])
    runpy.run_path(str(path), run_name="__main__")
    assert any(tmp_path.glob("*.csv"))
    assert capsys.readouterr().out


def test_artifact_digests_script(barbell_tsv, tmp_path):
    root = Path(__file__).resolve().parent.parent
    walk = tmp_path / "walk.txt"
    G = cf.read_edge_list(barbell_tsv)
    traj = cf.simulate(cf.transition_matrix(G), 0, 2_000, seed=1)
    cf.write_trajectory(cf.Trajectory(states=traj.states, nodes=G.nodes), walk)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def digests(*args):
        run = subprocess.run([sys.executable, str(root / "scripts" / "artifact_digests.py"),
                              str(barbell_tsv), *args], capture_output=True, text=True,
                             env=env, check=True)
        lines = [line for line in run.stdout.split("\n") if line]
        assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
        return lines

    for args, expected in (
            (["--decomposer", "iterative", "--exports"],
             {"decomposition.json", "communication.tsv", "cmsm/partition.json",
              "exports/communication.json", "exports/cycle.json",
              "exports/cycle-no-self-loops.dot", "exports/spectrum-k3/spectrum_walk.csv",
              "exports/spectrum-k3/spectrum_lifted.csv", "generate/barbell.tsv",
              "generate/wheel-switch.tsv", "generate/ring.tsv"}),
            (["--T", "20000", "--trajectory", str(walk)],
             {"decomposition.json", "communication.tsv", "trajectory/decomposition.json"})):
        lines = digests(*args)
        assert expected <= {line.split("  ")[1] for line in lines}
        assert digests(*args) == lines
