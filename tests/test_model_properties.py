"""Property tests for the three targets (ROADMAP item 4): at points near the
initial vector and at extreme unconstrained values, the log posterior is
finite or ``-inf`` and never NaN, the gradient is finite, and where the value
is finite and moderate the gradient matches central finite differences to
acceptance criterion 1's tolerance."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shmev.ingest import elicit_hmev_priors, elicit_priors
from shmev.model import GevPriorSpec, GevTarget, HmevTarget, ShmevTarget
from shmev.simulate import ScenarioConfig, simulate_scenario

from .oracles import central_difference

STEP = 1e-5  # criterion 1's finite-difference step and tolerance
TOL = 1e-5
MODERATE = 5e4  # criterion 1's bound on |logp|, which keeps the FD roundoff below TOL

_SYNTH = simulate_scenario(ScenarioConfig(n_sites=3, train_blocks=3, test_blocks=20, seed=8))
_MAXIMA = _SYNTH.test_maxima[0][np.isfinite(_SYNTH.test_maxima[0])]
_BLOCKS = _SYNTH.train.events[0]
TARGETS = {
    "shmev": ShmevTarget(_SYNTH.train, elicit_priors(_SYNTH.train)),
    "hmev": HmevTarget(_BLOCKS, _SYNTH.train.trials_per_block, elicit_hmev_priors(_BLOCKS, 366)),
    "gev": GevTarget(_MAXIMA, GevPriorSpec.from_maxima(_MAXIMA)),
}


@st.composite
def points(draw, target):
    """Either the initial vector moved by at most 0.3 per coordinate, or a
    vector whose coordinates lie anywhere in [-30, 30]."""
    init = target.initial_vector()
    if draw(st.booleans()):
        shift = draw(hnp.arrays(float, init.size, elements=st.floats(-0.3, 0.3)))
        return init + shift
    return draw(hnp.arrays(float, init.size, elements=st.floats(-30.0, 30.0)))


def check(target, v) -> tuple[int, int]:
    """Asserts the properties at ``v``; returns how many coordinates the
    finite-difference comparison judged and how many it could have."""
    logp, grad = target(v)
    assert not np.isnan(logp)
    assert np.isfinite(logp) or logp == -np.inf
    assert grad.shape == v.shape
    assert np.all(np.isfinite(grad))
    assert target.value(v) == logp
    if not (np.isfinite(logp) and abs(logp) < MODERATE):
        return 0, 0
    fd = np.array(central_difference(target.value, v, STEP))
    half = np.array(central_difference(target.value, v, STEP / 2))
    # the difference quotient's own error is about 4/3 of its move between
    # the step and half of it; where that is not well below TOL, it cannot
    # judge the gradient
    settled = np.abs(fd - half) < TOL / 4 * np.maximum(1.0, np.abs(fd))
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    assert np.all(rel[settled] < TOL), (rel.max(), v)
    return int(settled.sum()), v.size


@pytest.mark.parametrize("name", TARGETS)
def test_value_and_gradient_are_well_formed(name):
    target = TARGETS[name]
    judged = np.zeros(2, int)

    @settings(max_examples=60, deadline=None)
    @given(points(target))
    def run(v):
        judged[:] += check(target, v)

    run()
    # the gradient check must not pass by judging almost nothing
    settled, moderate = judged
    assert moderate > 0
    assert settled >= 0.5 * moderate, judged


def test_gev_shape_gradient_below_the_series_threshold():
    # hypothesis seldom draws a shape below the model's series threshold
    # (1e-5); at loc 0, scale 1 the maxima sit near z = 100, where the
    # series needs its first-order term to meet the tolerance
    for shape in (6e-8, -6e-8, 9e-6, -9e-6):
        assert check(TARGETS["gev"], np.array([0.0, 0.0, shape])) == (3, 3)
