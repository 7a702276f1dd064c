import pytest

from regpack.errors import BadParams
from regpack.params import ParamSet
from regpack.slender import XI, round_xi


def g(a: float) -> float:
    """The paper's tolerance step, kept as the reference of ``round_xi``."""
    return a ** (1 / 300)


def test_xi_clamped_and_monotone():
    p = ParamSet(eps=0.05)
    xs = [round_xi(p.eps, t) for t in range(0, 40)]
    assert xs[0] == pytest.approx(0.1)
    assert all(x <= XI for x in xs)
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    # unclamped iterate exceeds the clamp almost immediately
    assert g(0.1) > 0.9


@pytest.mark.parametrize("eps", [1.3e-181, 1e-100, 1e-10, 1e-6, 0.01, 0.05, 0.12, 0.368, 0.5, 0.99])
def test_xi_two_steps_equal_the_full_iteration(eps):
    # class certificates read XI, the value of every round past the first
    assert XI == 0.25
    a = 2 * eps
    for t in range(201):
        assert round_xi(eps, t) == min(a, 0.25)
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


@pytest.mark.parametrize("field,value", [
    ("alpha", -1.0), ("alpha", -1e-9), ("alpha", 1.0), ("alpha", 2.5),
    ("delta", -0.5), ("delta", 1.0), ("delta", 3.0),
])
def test_rejects_alpha_and_delta_outside_the_unit_interval(field, value):
    with pytest.raises(BadParams, match=f"{field} must lie in \\[0, 1\\), got {value}"):
        ParamSet(**{field: value})

