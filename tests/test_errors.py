"""The one refusal rule, errors.capped and errors.within_cap, and the
library's refusals of integer arguments."""

import time

import pytest

from trlab.checks import gowers_norm_power
from trlab.errors import CapExceeded, LabError, capped, within_cap
from trlab.forms import PolynomialFn, gen_diagonal, gen_random
from trlab.gfq import field_new
from trlab.linalg import Matrix
from trlab.pencils import kronecker_block, max_rank_reduction
from trlab.ranks import generic_max_rank

F3 = field_new(3, 1)
MATS = [Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [0, 0]])]
X1X2 = PolynomialFn(F3, 2, (((1, 1), 1),))


def test_capped_boundary():
    assert capped("points", 81, 3, 4) == 81 and within_cap(81, 3, 4)
    with pytest.raises(CapExceeded) as exc:
        capped("points", 80, 3, 4)
    assert exc.value.size == 81 and "3^4" in str(exc.value) and not within_cap(80, 3, 4)
    assert capped("rank tests", 41, 41) == 41
    with pytest.raises(CapExceeded) as exc:
        capped("rank tests", 40, 41)
    assert exc.value.size == 41 and "41, cap is 40" in str(exc.value)


class _NoPower(int):
    def __pow__(self, k):
        raise AssertionError(f"took the power {k}")


def test_capped_refuses_past_the_bit_length_without_the_power():
    cap = 2 ** 10  # 11 bits: every base >= 2 has base^12 >= 2^12 > cap
    assert capped("points", cap, 2, 10) == cap
    with pytest.raises(CapExceeded) as exc:  # within the bit length: the size is known
        capped("points", cap, 2, cap.bit_length())
    assert exc.value.size == 2 ** 11
    with pytest.raises(CapExceeded) as exc:
        capped("points", cap, 2, cap.bit_length() + 1)
    assert exc.value.size is None and not within_cap(cap, 2, cap.bit_length() + 1)
    with pytest.raises(CapExceeded) as exc:
        capped("points", cap, _NoPower(3), cap.bit_length() + 1)
    assert exc.value.size is None and "3^12" in str(exc.value)


@pytest.mark.parametrize("call", [
    lambda: gen_random(F3, (-1, 2), 0),
    lambda: gen_diagonal(F3, 2, 2 ** 63),
    lambda: gen_diagonal(F3, -1, 3),
    lambda: gen_diagonal(F3, 2, -1),
    lambda: kronecker_block(F3, "Ln", 2 ** 63),
    lambda: max_rank_reduction(MATS, samples=-1),
    lambda: generic_max_rank(MATS, samples=-1),
    lambda: gowers_norm_power(X1X2, 0),
    lambda: gowers_norm_power(X1X2, -2),
], ids=["random-negative-dim", "diagonal-d-2^63", "diagonal-negative-n", "diagonal-negative-d",
        "kronecker-n-2^63", "reduction-samples-minus-1", "generic-samples-minus-1",
        "gowers-d-0", "gowers-d-minus-2"])
def test_integer_arguments_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(LabError):
        call()
    assert time.perf_counter() - start < 1.0
