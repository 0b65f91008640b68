"""The one refusal rule: errors.capped and errors.within_cap."""

import pytest

from trlab.errors import CapExceeded, capped, within_cap


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
