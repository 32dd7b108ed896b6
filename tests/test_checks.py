import math

import numpy as np
import pytest

from quantlink._checks import check_nonnegative_finite, check_positive_finite, is_finite


def _big(value, name):
    return pytest.param(value, id=name)


@pytest.mark.parametrize(
    "value", [0, -3, 1.5, 1e308, np.float64(2.0), _big(10**308, "10**308"), _big(-(10**308), "-10**308")]
)
def test_finite_numbers_are_finite(value):
    assert is_finite(value)


@pytest.mark.parametrize(
    "value",
    [_big(10**400, "10**400"), _big(-(10**400), "-10**400"), _big(2**1024, "2**1024")]
    + [math.inf, -math.inf, math.nan, True, "1", None],
)
def test_what_is_no_finite_float_is_not_finite(value):
    # an int beyond the float range used to raise OverflowError here
    assert not is_finite(value)


@pytest.mark.parametrize("check", [check_positive_finite, check_nonnegative_finite])
def test_an_int_beyond_the_float_range_is_refused_by_name(check):
    with pytest.raises(ValueError, match="^spacing_hz must be"):
        check("spacing_hz", 10**400)
