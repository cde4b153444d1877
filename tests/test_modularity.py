import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import build_pipeline, random_strong_graph, two_triangles


def ring_split_labels(n):
    """Two rings, the first split into halves: three modules."""
    return np.concatenate([np.zeros(n // 2, dtype=int),
                           np.ones(n - n // 2, dtype=int),
                           np.full(n, 2, dtype=int)])


# ------------------------------------------------------------------- scoring

def test_closed_form_scores(barbell40):
    n, eps = 40, 0.1
    two = np.array([0] * n + [1] * n)
    q = cf.score_q_directed(barbell40.P, barbell40.pi, two)
    qbar = cf.score_qbar(barbell40.K.intensity, barbell40.pi, two)
    assert q == pytest.approx(0.5 - eps / (n + eps), abs=1e-12)
    assert qbar == pytest.approx(0.5 - 0.5 * eps / (n + eps), abs=1e-12)


def test_one_module_partition_scores_zero(barbell4, chain3):
    for pipe in (barbell4, chain3):
        lab = np.zeros(pipe.G.n, dtype=int)
        assert cf.score_q_directed(pipe.P, pipe.pi, lab) == pytest.approx(0.0, abs=1e-12)
        assert cf.score_qbar(pipe.K.intensity, pipe.pi, lab) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 40])
@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_split_difference_signs(n, eps):
    pipe = build_pipeline(cf.barbell(n, eps))
    two = np.array([0] * n + [1] * n)
    three = ring_split_labels(n)
    dq = (cf.score_q_directed(pipe.P, pipe.pi, three)
          - cf.score_q_directed(pipe.P, pipe.pi, two))
    dqbar = (cf.score_qbar(pipe.K.intensity, pipe.pi, three)
             - cf.score_qbar(pipe.K.intensity, pipe.pi, two))
    assert dq > 0          # splitting a ring in half pays off for the directed score
    assert dqbar < 0       # but never for the communication-graph score
    # the measured differences equal the leading-order closed forms minus
    # an exact eps^2/(8 (n+eps)^2) correction from the bridge mass
    corr = eps**2 / (8 * (n + eps) ** 2)
    assert dq == pytest.approx(1 / 8 - 1 / (n + eps) - corr, abs=1e-12)
    assert dqbar == pytest.approx(1 / 8 - n / (4 * (n + eps)) - corr, abs=1e-12)


def test_partition_validation(barbell4):
    with pytest.raises(ValueError):
        cf.score_q_directed(barbell4.P, barbell4.pi, np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        cf.score_qbar(barbell4.K.intensity, barbell4.pi, np.full(8, -1))
    with pytest.raises(ValueError):
        cf.labels_from_modules([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        cf.labels_from_modules([[0, 1]], 3)
    lab = cf.labels_from_modules([[0, 2], [1]], 3)
    assert lab.tolist() == [0, 1, 0]


# ------------------------------------------------------------ symmetrization

def test_symmetrization_invariance_barbell(barbell40):
    n = 40
    parts = [np.array([0] * n + [1] * n), ring_split_labels(n)]
    assert cf.check_symmetrization_invariance(barbell40.P, barbell40.pi, parts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_symmetrization_invariance_property(seed):
    rng = np.random.default_rng(seed)
    G = random_strong_graph(rng)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    parts = [rng.integers(0, 3, G.n) for _ in range(10)]
    assert cf.check_symmetrization_invariance(P, pi, parts)


# ---------------------------------------------------------------- maximizers

def test_exhaustive_enumeration_counts():
    # Bell numbers for small n
    assert sum(1 for _ in cf.enumerate_set_partitions(3)) == 5
    assert sum(1 for _ in cf.enumerate_set_partitions(5)) == 52


def test_exhaustive_refuses_large():
    pipe = build_pipeline(cf.barbell(7, 0.1))
    with pytest.raises(ValueError):
        cf.maximize("q", pi=pipe.pi, P=pipe.P, mode="exhaustive")


def test_greedy_matches_exhaustive_two_triangles():
    pipe = build_pipeline(two_triangles())
    for objective, kw in (("q", {"P": pipe.P}), ("qbar", {"I": pipe.K.intensity})):
        lg, sg, _ = cf.maximize(objective, pi=pipe.pi, mode="greedy", **kw)
        le, se, _ = cf.maximize(objective, pi=pipe.pi, mode="exhaustive", **kw)
        assert sg == pytest.approx(se, abs=1e-12)
        assert cf.modules_from_labels(lg) == [[0, 1, 2], [3, 4, 5]]


def test_greedy_matches_exhaustive_barbell(barbell4):
    for objective, kw in (("q", {"P": barbell4.P}), ("qbar", {"I": barbell4.K.intensity})):
        lg, sg, _ = cf.maximize(objective, pi=barbell4.pi, mode="greedy", **kw)
        le, se, _ = cf.maximize(objective, pi=barbell4.pi, mode="exhaustive", **kw)
        assert sg == pytest.approx(se, abs=1e-12)
        assert cf.modules_from_labels(lg) == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_qbar_maximization_keeps_rings_whole(barbell40):
    labels, score, _ = cf.maximize("qbar", pi=barbell40.pi,
                                   I=barbell40.K.intensity, mode="greedy")
    assert cf.modules_from_labels(labels) == [list(range(40)), list(range(40, 80))]
    two = np.array([0] * 40 + [1] * 40)
    assert score == pytest.approx(
        cf.score_qbar(barbell40.K.intensity, barbell40.pi, two), abs=1e-12)


def test_q_maximization_overpartitions_rings(barbell40):
    labels, score, _ = cf.maximize("q", pi=barbell40.pi, P=barbell40.P, mode="greedy")
    sizes = [len(m) for m in cf.modules_from_labels(labels)]
    two = np.array([0] * 40 + [1] * 40)
    assert score > cf.score_q_directed(barbell40.P, barbell40.pi, two)
    assert len(sizes) > 2
    assert max(sizes) <= 10  # stalls at arcs of 8 to 10 nodes


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_greedy_never_below_trivial(seed):
    pipe = build_pipeline(random_strong_graph(np.random.default_rng(seed)))
    for objective, kw in (("q", {"P": pipe.P}), ("qbar", {"I": pipe.K.intensity})):
        _, score, _ = cf.maximize(objective, pi=pipe.pi, mode="greedy", **kw)
        assert score >= -1e-12  # the one-module partition scores exactly zero


def rebuilt_greedy(E, pi, sweep=True):
    """Reference greedy: rebuilds and compacts the k x k gain matrix every merge."""
    n = len(pi)
    modules = [[i] for i in range(n)]
    agg_e = E.copy()
    agg_pi = pi.copy()
    history = []
    while len(modules) > 1:
        gains = 2.0 * (agg_e - np.outer(agg_pi, agg_pi))
        np.fill_diagonal(gains, -np.inf)
        best = float(gains.max())
        if best <= 1e-15:
            break
        a, b = np.unravel_index(int(np.argmax(gains)), gains.shape)
        a, b = (int(min(a, b)), int(max(a, b)))
        history.append(best)
        modules[a] = sorted(modules[a] + modules[b])
        del modules[b]
        agg_e[a, :] += agg_e[b, :]
        agg_e[:, a] += agg_e[:, b]
        agg_e = np.delete(np.delete(agg_e, b, axis=0), b, axis=1)
        agg_pi[a] += agg_pi[b]
        agg_pi = np.delete(agg_pi, b)
    labels = np.empty(n, dtype=int)
    for j, mod in enumerate(modules):
        labels[mod] = j
    if sweep and len(modules) > 1:
        for x in range(n):
            a = int(labels[x])
            own_wo = np.flatnonzero(labels == a)
            own_wo = own_wo[own_wo != x]
            loss = 2.0 * (E[x, own_wo].sum() - pi[x] * pi[own_wo].sum())
            best_gain = 1e-15
            best_mod = -1
            for b in np.unique(labels):
                if b == a:
                    continue
                tgt = np.flatnonzero(labels == b)
                gain = 2.0 * (E[x, tgt].sum() - pi[x] * pi[tgt].sum()) - loss
                if gain > best_gain:
                    best_gain = gain
                    best_mod = int(b)
            if best_mod >= 0:
                labels[x] = best_mod
    # relabel by first appearance
    first = {}
    return np.array([first.setdefault(lab, len(first)) for lab in labels]), history


def assert_greedy_matches_rebuilt(pipe, sweep_moves=False):
    F = cf.edge_flow(pipe.P, pipe.pi)
    for objective, kw, E in (("qbar", {"I": pipe.K.intensity}, pipe.K.intensity),
                             ("q", {"P": pipe.P}, 0.5 * (F + F.T))):
        labels, _, history = cf.maximize(objective, pi=pipe.pi, mode="greedy", **kw)
        ref_labels, ref_history = rebuilt_greedy(np.asarray(E, dtype=float), pipe.pi)
        assert labels.tolist() == ref_labels.tolist(), objective
        assert history == ref_history, objective
        if sweep_moves:  # the sweep moved at least one node
            merged, _ = rebuilt_greedy(np.asarray(E, dtype=float), pipe.pi, sweep=False)
            assert merged.tolist() != ref_labels.tolist(), objective


@pytest.mark.parametrize("n", [5, 12, 60])
@pytest.mark.parametrize("seed", range(8))
def test_greedy_matches_rebuilt_random(n, seed):
    assert_greedy_matches_rebuilt(
        build_pipeline(random_strong_graph(np.random.default_rng(seed), n)))


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_matches_rebuilt_n200(seed):
    # both objectives, and on these graphs the sweep moves nodes for both
    assert_greedy_matches_rebuilt(
        build_pipeline(random_strong_graph(np.random.default_rng(seed), 200)),
        sweep_moves=True)


@pytest.mark.parametrize("G", [cf.ring(6), cf.barbell(4, 0.1), two_triangles()],
                         ids=["ring6", "barbell4", "two_triangles"])
def test_greedy_matches_rebuilt_ties(G):
    # symmetric inputs: many merges tie on the largest gain
    assert_greedy_matches_rebuilt(build_pipeline(G))


def test_greedy_matches_rebuilt_exact_ties():
    # couplings and masses on a 1/64 grid: gains are exact, so merged modules
    # often tie with a row's best partner and the smaller index must win
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 6, 8, 12, 16]))
        A = rng.integers(0, int(rng.choice([2, 3, 5])), (n, n)) / 64
        E = np.triu(A, 1) + np.triu(A, 1).T
        if rng.random() < 0.5:
            pi = rng.integers(1, 4, n).astype(float)
            pi /= 2.0 ** np.ceil(np.log2(pi.sum()))
        else:
            pi = np.full(n, 1.0 / n)
        labels, _, history = cf.maximize("qbar", pi=pi, I=E, mode="greedy")
        ref_labels, ref_history = rebuilt_greedy(E, pi)
        assert labels.tolist() == ref_labels.tolist(), seed
        assert history == ref_history, seed


def test_greedy_tie_with_merged_module_keeps_earlier_column():
    # Gains in units of 1/128.  The first merge joins 3 and 5 (gain 10).  Row 0
    # then gains 6 both at column 1 and at the merged module 3, and the smaller
    # pair (0, 1) must merge next.
    E = np.array([[0, 3, 0, 2, 1, 2],
                  [3, 0, 0, 1, 3, 2],
                  [0, 0, 0, 0, 2, 1],
                  [2, 1, 0, 0, 0, 4],
                  [1, 3, 2, 0, 0, 1],
                  [2, 2, 1, 4, 1, 0]]) / 64
    pi = np.array([2, 3, 2, 2, 2, 3]) / 16
    labels, _, history = cf.maximize("qbar", pi=pi, I=E, mode="greedy")
    ref_labels, ref_history = rebuilt_greedy(E, pi)
    assert history[:2] == [10 / 128, 6 / 128]
    assert labels.tolist() == ref_labels.tolist()
    assert history == ref_history


def test_greedy_matches_rebuilt_barbell40(barbell40):
    assert_greedy_matches_rebuilt(barbell40)
    # acceptance criterion 7 stays red, with the same module sizes
    labels, _, _ = cf.maximize("q", pi=barbell40.pi, P=barbell40.P, mode="greedy")
    sizes = [len(m) for m in cf.modules_from_labels(labels)]
    assert (f"largest module has {max(sizes)} nodes (sizes {sorted(set(sizes))})"
            == "largest module has 10 nodes (sizes [8, 10])")


def test_maximize_validation(barbell4):
    with pytest.raises(ValueError):
        cf.maximize("qbar", pi=barbell4.pi, mode="greedy")
    with pytest.raises(ValueError):
        cf.maximize("q", pi=barbell4.pi, mode="greedy")
    with pytest.raises(ValueError):
        cf.maximize("nope", pi=barbell4.pi, P=barbell4.P)
    with pytest.raises(ValueError):
        cf.maximize("q", pi=barbell4.pi, P=barbell4.P, mode="annealing")


def test_greedy_refuses_asymmetric_intensity(barbell4):
    I = barbell4.K.intensity.copy()
    assert I[0, 1] > 0
    I[0, 1] = np.nextafter(I[0, 1], 1.0)  # one ulp off its mirror entry
    with pytest.raises(ValueError, match="symmetric"):
        cf.maximize("qbar", pi=barbell4.pi, I=I, mode="greedy")
    cf.maximize("qbar", pi=barbell4.pi, I=I, mode="exhaustive")  # scores any I


def test_wheel_equal_cuts_are_degenerate():
    # every equal-size two-module cut that keeps both 4-cycles whole scores
    # the same directed modularity, regardless of where the arcs are cut
    G = cf.wheel_switch(10, 0.7)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    cuts = [
        ["o0", "o1", "o2", "o3", "o4", "i0", "i1", "i2", "i3", "i4"],
        ["o9", "o0", "o1", "o2", "o3", "i9", "i0", "i1", "i2", "i3"],
        ["o0", "o1", "o2", "o8", "o9", "i0", "i1", "i2", "i8", "i9"],
    ]
    scores = []
    for mod0 in cuts:
        labels = np.ones(20, dtype=int)
        for v in mod0:
            labels[G.index(v)] = 0
        scores.append(cf.score_q_directed(P, pi, labels))
    assert np.ptp(scores) <= 1e-12


def test_scores_bounded(barbell40):
    rng = np.random.default_rng(0)
    for _ in range(20):
        lab = rng.integers(0, 5, 80)
        q = cf.score_q_directed(barbell40.P, barbell40.pi, lab)
        qb = cf.score_qbar(barbell40.K.intensity, barbell40.pi, lab)
        assert -1 <= q <= 1 and -1 <= qb <= 1
