"""Each numeric function has one return form: what its numpy expression gives.

A Python-scalar argument gives a numpy value (np.generic or a 0-d ndarray),
never a Python scalar, and that value is bit for bit element 0 of the same
call on a one-element array.
"""

import numpy as np
import pytest

from quantlink.allocator import target_distortion
from quantlink.gaussian import inv_q_function, inv_std_normal_cdf, q_function, std_normal_cdf, std_normal_pdf
from quantlink.library import gamma_increments_convex
from quantlink.modem import ber_approx, demodulate, modulate
from quantlink.quantizer import dequantize, design_lloyd_max, quantize

Q3 = design_lloyd_max(3)

CALLS = {
    "std_normal_pdf": (std_normal_pdf, 0.7),
    "std_normal_cdf": (std_normal_cdf, -1.3),
    "q_function": (q_function, 2.1),
    "inv_q_function": (inv_q_function, 0.01),
    "inv_std_normal_cdf": (inv_std_normal_cdf, 0.3),
    "modulate": (lambda w: modulate(w, 4), 5),
    "demodulate": (lambda s: demodulate(s, 4), 0.3 - 0.9j),
    "ber_approx": (lambda g: ber_approx(4, g), 10.0),
    "target_distortion": (target_distortion, 0.5),
    "quantize": (lambda y: quantize(y, 0.1, 1.3, Q3), 0.37),
    "dequantize": (lambda c: dequantize(c, 0.1, 1.3, Q3), 3),
}


def _assert_numpy_element(got, want):
    assert isinstance(got, (np.generic, np.ndarray)) and np.ndim(got) == 0
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_scalar_argument_gives_element_zero_of_the_array_call(name):
    fn, x = CALLS[name]
    _assert_numpy_element(fn(x), fn(np.array([x]))[0])


def test_gamma_increments_convex_vector_is_its_one_column_table():
    for steps in (np.array([0.0, 1.0, 2.5, 4.0, 8.0]), np.array([0.0, 1.0, 1.5, 3.0, 6.0])):
        _assert_numpy_element(gamma_increments_convex(steps), gamma_increments_convex(steps[:, None])[0])
