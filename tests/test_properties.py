"""Property tests of the scheme parameters over finite and non-finite inputs."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellbidir.channels import SCHEMES, analytic_channel, weight_from_choi
from bellbidir.cli import CHOI_TOL, simulated_choi
from bellbidir.errors import OutOfRange
from bellbidir.protocols import DIRECTIONS, SchemeParams

UNIT = st.floats(0.0, 1.0)
ANGLE = st.floats(-4.0 * math.pi, 4.0 * math.pi)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
OUTSIDE_UNIT = st.one_of(NON_FINITE, st.floats(max_value=0.0, exclude_max=True), st.floats(min_value=1.0, exclude_min=True))
PARAMS = st.one_of(
    st.builds(SchemeParams.from_probabilities, p1=UNIT, p2=UNIT, p=UNIT, t=UNIT),
    st.builds(SchemeParams, theta1=ANGLE, theta2=ANGLE, theta=ANGLE, t=UNIT),
)


@settings(deadline=None, max_examples=60)
@given(PARAMS, st.sampled_from(SCHEMES), st.sampled_from(DIRECTIONS))
def test_closed_form_weight_matches_simulation(params, scheme, direction):
    q = analytic_channel(scheme, params, direction)
    assert 0.0 <= q <= 1.0
    assert abs(weight_from_choi(simulated_choi(scheme, params, direction)) - q) <= CHOI_TOL


@settings(deadline=None, max_examples=60)
@given(OUTSIDE_UNIT, st.sampled_from(["p1", "p2", "p", "t"]))
def test_probability_outside_unit_interval_raises(value, name):
    with pytest.raises(OutOfRange):
        SchemeParams.from_probabilities(**{name: value})


@settings(deadline=None, max_examples=30)
@given(NON_FINITE, st.sampled_from(["theta1", "theta2", "theta"]))
def test_non_finite_angle_raises(value, name):
    with pytest.raises(OutOfRange):
        SchemeParams(**{name: value})
