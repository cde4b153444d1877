import json
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf
from cycleflow._floattext import reprs
from cycleflow.cycles import _json_floats

from conftest import random_strong_graph


def assert_reprs(x):
    x = np.asarray(x, dtype=float)
    want = [repr(v) for v in x.tolist()]
    got = reprs(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad and len(got) == len(want), bad[:5]


def test_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 1 << 64, 1_000_000, dtype=np.uint64,
                                              endpoint=False)
    biased = bits >> 52 & 0x7FF
    # both signs, every exponent, subnormals, zeros aside, and inf/nan patterns
    assert (bits >> 63).min() == 0 and (bits >> 63).max() == 1
    assert np.unique(biased).size == 2048
    assert_reprs(bits.view(np.float64))


def test_powers_of_two_and_their_neighbours():
    x = np.ldexp(1.0, np.arange(-1074, 1024))
    assert x[0] == 5e-324 and np.all(np.isfinite(x))
    assert_reprs(np.concatenate([x, -x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]))


def test_layout_boundaries_and_special_values():
    boundaries = [1e-05, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 1e22,
                  123456789012345680.0, 0.1, 0.5, 1.0, 10.0, 1234.5, 1e15, 1e17]
    tiny = 2.2250738585072014e-308
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, tiny,
               float(np.nextafter(tiny, 0.0)), 1.7976931348623157e308]
    assert_reprs(boundaries + [-v for v in boundaries] + special)
    assert reprs(np.array([1e16, 1e-05, 0.0001, -0.0, math.nan])) == [
        "1e+16", "1e-05", "0.0001", "-0.0", "nan"]
    assert reprs(np.array([])) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_matches_repr_on_any_floats(xs):
    assert_reprs(xs)


def test_json_floats_writes_what_json_writes():
    x = np.array([0.1, math.inf, -math.inf, math.nan, -2.5e-300])
    assert _json_floats(x) == [json.dumps(v) for v in x.tolist()]
    assert _json_floats(x)[1:4] == ["Infinity", "-Infinity", "NaN"]


def test_memory_peak_on_peeled_weights():
    """The kernel's chunked buffers keep its peak at or below that of rendering the
    same weights by one repr of their list, which the graph export used to do."""
    K = cf.Pipeline(random_strong_graph(np.random.default_rng(1), 500, extra=1000)).K
    values = np.unique(K.intensity[np.triu(K.intensity != 0.0)])
    assert values.size > 50_000

    def peak(render):
        tracemalloc.start()
        try:
            out = render()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    kernel, got = peak(lambda: reprs(values))
    old, want = peak(lambda: repr(values.tolist())[1:-1].split(", "))
    assert got == want
    assert kernel <= old
