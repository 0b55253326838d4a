import math

import pytest

from iterzeta.errors import IterzetaError


def _refusal(call, value):
    """The class and message of the refusal call(value) raises."""
    with pytest.raises(IterzetaError) as err:
        call(value)
    return type(err.value), str(err.value)


@pytest.fixture
def refused_as_infinity():
    """check(call): call(10**400) and call(-10**400), Python ints past
    the float range, raise the refusals of call(inf) and call(-inf),
    class and message alike.  Returns those two refusals."""
    def check(call):
        out = []
        for big, inf in ((10 ** 400, math.inf), (-10 ** 400, -math.inf)):
            out.append(_refusal(call, big))
            assert out[-1] == _refusal(call, inf)
        return out
    return check
