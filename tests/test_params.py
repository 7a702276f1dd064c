import pytest

from regpack.errors import BadParams
from regpack.params import ParamSet, g


def test_derived_constants():
    p = ParamSet(k=1, Delta_R=1)
    assert p.K == 4
    assert p.w == 4 ** 2 * 1 * 2
    p = ParamSet(k=2, Delta_R=1)
    assert p.K == 9
    p = ParamSet(k=1, Delta_R=2)
    assert p.K == 8
    assert p.w == 64 * 4 * 3


def test_xi_clamped_and_monotone():
    p = ParamSet(eps=0.05)
    xs = [p.xi(t) for t in range(0, 40)]
    assert xs[0] == pytest.approx(0.1)
    assert all(x <= p.xi_max for x in xs)
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    # unclamped iterate exceeds the clamp almost immediately
    assert g(0.1) > 0.9


def test_rejects_bad_eps():
    with pytest.raises(BadParams):
        ParamSet(eps=0.0)
    with pytest.raises(BadParams):
        ParamSet(k=0)
