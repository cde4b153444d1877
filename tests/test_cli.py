import json

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.cli import main


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


def test_decompose_rejects_disconnected(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t1.0\n")
    assert main(["decompose", "--input", str(bad),
                 "--output-dir", str(tmp_path / "x")]) == 2


def test_spectrum_outputs(barbell_tsv, tmp_path):
    # a sampled run's lifted chain is reversible wrt its node mass, not pi:
    # symmetrized with pi, its top eigenvalue misses 1 by the sampling error
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


def test_cluster_qbar_max(barbell_tsv, tmp_path):
    outdir = tmp_path / "clu"
    assert main(["cluster", "--input", str(barbell_tsv), "--decomposer", "iterative",
                 "--method", "qbar-max", "--output-dir", str(outdir)]) == 0
    obj = json.loads((outdir / "partition.json").read_text())
    assert obj["objective"] == "qbar"
    assert obj["value"] == pytest.approx(0.5 - 0.05 / 4.1, abs=1e-10)
    assert sorted(map(sorted, obj["partition"])) == [
        ["l0", "l1", "l2", "l3"], ["r0", "r1", "r2", "r3"]]


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


def test_export_graph_formats(barbell_tsv, tmp_path):
    out = tmp_path / "K.tsv"
    assert main(["export-graph", "--input", str(barbell_tsv), "--decomposer",
                 "iterative", "--format", "tsv", "--output", str(out)]) == 0
    rows = [r.split("\t") for r in out.read_text().strip().split("\n")]
    assert ["l0", "r0"] in [r[:2] for r in rows]

    out_dot = tmp_path / "H.dot"
    assert main(["export-graph", "--input", str(barbell_tsv), "--decomposer",
                 "iterative", "--which", "cycle", "--format", "dot",
                 "--no-self-loops", "--output", str(out_dot)]) == 0
    assert out_dot.read_text().count("--") == 2  # cycle graph is a 3-node path


def test_byte_identical_reruns(barbell_tsv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert main(["cluster", "--input", str(barbell_tsv), "--method", "cmsm",
                     "--T", "20000", "--output-dir", str(outdir)]) == 0
    assert (a / "partition.json").read_bytes() == (b / "partition.json").read_bytes()


def test_validation_exit_codes(tmp_path):
    assert main(["decompose", "--output-dir", str(tmp_path / "x")]) == 2  # no input
    missing = tmp_path / "missing.tsv"
    assert main(["decompose", "--input", str(missing),
                 "--output-dir", str(tmp_path / "y")]) == 2
    good = tmp_path / "g.tsv"
    assert main(["generate", "ring", "--n", "4", "--output", str(good)]) == 0
    assert main(["cluster", "--input", str(good), "--theta", "1.5",
                 "--output-dir", str(tmp_path / "z")]) == 2
    assert main(["decompose", "--input", str(good), "--T", "0",
                 "--output-dir", str(tmp_path / "w")]) == 2
    assert main(["decompose", "--input", str(good), "--start", "nope",
                 "--output-dir", str(tmp_path / "v")]) == 2
