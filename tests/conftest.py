import sys

import pytest

# CPython's default cap on the decimal digits of a printed int
DEFAULT_INT_DIGITS = 4300


@pytest.fixture
def default_digit_limit():
    """Run under the interpreter's default int-printing limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on printing ints")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_INT_DIGITS)
    yield
    sys.set_int_max_str_digits(previous)
