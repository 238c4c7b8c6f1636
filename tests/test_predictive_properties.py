"""Property tests for per-draw quantile inversion at extreme block parameters."""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shmev.predictive as predictive
from shmev.predictive import BlockDraws, MaximaCdfEstimate, PredictiveConfig, invert_quantiles

from .oracles import per_draw_quantiles_reference

TOL = PredictiveConfig().cdf_tol


@st.composite
def estimates(draw, m=None):
    b = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8)) if m is None else m

    def block(elements):
        return draw(hnp.arrays(float, (b, m), elements=elements))

    gamma = block(st.floats(0.3, 3.0))
    delta = 10.0 ** block(st.floats(-1.0, 3.0))
    n = draw(hnp.arrays(np.int64, (b, m), elements=st.integers(0, 366)))
    dry = draw(hnp.arrays(bool, b))
    n[dry] = 0
    return MaximaCdfEstimate(
        y=np.geomspace(0.01, 5e3, 16),
        blocks=BlockDraws(gamma=gamma, delta=delta, n=n),
        config=PredictiveConfig(blocks_per_draw=m),
    )


@st.composite
def probabilities(draw):
    probs = draw(st.lists(st.floats(1e-4, 1.0 - 1e-6), min_size=1, max_size=6))
    dup = draw(st.lists(st.sampled_from(probs), max_size=2))
    return np.array(draw(st.permutations(probs + dup)))


@settings(max_examples=60, deadline=None)
@given(est=estimates(), probs=probabilities(), data=st.data())
def test_per_draw_quantiles_properties(est, probs, data):
    q = est.per_draw_quantiles(probs)
    assert q.shape == (est.n_draws, probs.size)

    for i, p in enumerate(probs):
        g = est.cdf_at(q[:, i])
        # the bracket collapses onto 0 only where the cdf never falls to p:
        # dry blocks hold it at or above their share of the draw
        collapsed = (q[:, i] <= 1e-12) & (g >= p)
        assert np.all((np.abs(g - p) < TOL) | collapsed)

    order = np.argsort(probs, kind="stable")
    assert np.all(np.diff(q[:, order], axis=1) >= 0.0)

    perm = np.array(data.draw(st.permutations(range(probs.size))))
    assert est.per_draw_quantiles(probs[perm]).tobytes() == q[:, perm].tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 8), budget=st.integers(1, 60))
def test_row_chunks_equal_the_per_estimate_reference(data, m, budget):
    ests = data.draw(st.lists(estimates(m=m), min_size=1, max_size=4))
    for est in ests:  # each with its own bracket
        lo = data.draw(st.floats(1e-3, 1.0))
        est.y = np.array([lo, lo * data.draw(st.floats(2.0, 1e5))])
    probs = [data.draw(probabilities()) for _ in ests]
    with mock.patch.object(predictive, "_CHUNK_ELEMENTS", budget):
        got = list(invert_quantiles(zip(ests, probs)))
    for est, p, q in zip(ests, probs, got, strict=True):
        assert q.tobytes() == per_draw_quantiles_reference(est, p).tobytes()
