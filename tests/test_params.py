import pytest

from regpack.errors import BadParams
from regpack.params import ParamSet, g, xi


def test_xi_clamped_and_monotone():
    p = ParamSet(eps=0.05)
    xs = [xi(p.eps, t) for t in range(0, 40)]
    assert xs[0] == pytest.approx(0.1)
    assert all(x <= p.xi_max for x in xs)
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    # unclamped iterate exceeds the clamp almost immediately
    assert g(0.1) > 0.9


@pytest.mark.parametrize("eps", [5e-324, 1e-200, 1e-10, 0.05, 0.368, 0.5, 0.99])
def test_xi_two_steps_equal_the_full_iteration(eps):
    a = 2 * eps
    for t in range(201):
        assert xi(eps, t) == min(a, ParamSet.xi_max)
        a = g(a)


def test_rejects_bad_eps():
    with pytest.raises(BadParams):
        ParamSet(eps=0.0)
    with pytest.raises(BadParams):
        ParamSet(k=0)


@pytest.mark.parametrize("cap", [0, -1])
def test_rejects_a_retry_cap_below_one(cap):
    with pytest.raises(BadParams, match=f"embed_retry_cap must be at least 1, got {cap}"):
        ParamSet(embed_retry_cap=cap)
