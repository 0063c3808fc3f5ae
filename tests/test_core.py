import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.core import (GroundSet, WeightFunction, inner_product,
                            lp_norm, make_measure)


def test_cyclic_bijection():
    g = GroundSet.cyclic(11)
    assert g.size == 11
    assert [g.element(i) for i in range(11)] == list(range(11))
    for i in range(g.size):
        assert g.index(g.element(i)) == i


def test_cyclic_exclude_zero():
    g = GroundSet.cyclic(7, exclude_zero=True)
    assert g.size == 6
    assert [g.element(i) for i in range(g.size)] == [1, 2, 3, 4, 5, 6]
    assert g.index(1) == 0 and g.element(5) == 6
    with pytest.raises(ValueError):
        g.index(0)


def test_grid_bijection():
    g = GroundSet.grid(4, 3)
    assert g.size == 64
    seen = set()
    for i in range(64):
        e = g.element(i)
        assert g.index(e) == i
        seen.add(e)
    assert len(seen) == 64


def test_ksubsets_lexicographic():
    g = GroundSet.ksubsets(5, 2)
    assert g.size == 10
    elems = [g.element(i) for i in range(g.size)]
    assert elems == sorted(elems)
    assert elems[0] == (0, 1) and elems[-1] == (3, 4)
    for i, e in enumerate(elems):
        assert g.index(e) == i


def test_ksubsets_larger_roundtrip():
    g = GroundSet.ksubsets(9, 4)
    for i in range(g.size):
        assert g.index(g.element(i)) == i


def test_characteristic_measure_z10():
    g = GroundSet.cyclic(10)
    f = make_measure(g, [0, 1, 2], "characteristic")
    assert f.dense()[0] == pytest.approx(10 / 3)
    assert f.dense()[5] == 0.0
    assert lp_norm(f, 1) == pytest.approx(1.0, abs=1e-12)


def test_associated_measure_norm():
    g = GroundSet.cyclic(20)
    mu = make_measure(g, [3, 7, 8, 15], "associated", p=0.25)
    # |U| / (p |X|) = 4 / 5
    assert lp_norm(mu, 1) == pytest.approx(0.8)
    assert lp_norm(mu, math.inf) == pytest.approx(4.0)


def test_measure_errors():
    g = GroundSet.cyclic(10)
    with pytest.raises(ValueError):
        make_measure(g, [], "characteristic")
    with pytest.raises(ValueError):
        make_measure(g, [0, 0, 1], "characteristic")
    with pytest.raises(ValueError):
        make_measure(g, [0], "associated")  # missing p
    with pytest.raises(ValueError):
        make_measure(g, [11], "characteristic")
    with pytest.warns(UserWarning):
        z = make_measure(g, [], "associated", p=0.5)
    assert lp_norm(z, 1) == 0.0


def test_domain_mismatch_is_an_error():
    f = WeightFunction(GroundSet.cyclic(5), values=np.ones(5))
    g = WeightFunction(GroundSet.cyclic(6), values=np.ones(6))
    with pytest.raises(ValueError):
        inner_product(f, g)


finite_vals = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=40)


@given(finite_vals)
@settings(max_examples=60, deadline=None)
def test_norm_ordering(vals):
    g = GroundSet.cyclic(len(vals))
    f = WeightFunction(g, values=vals)
    n1, n2, ninf = lp_norm(f, 1), lp_norm(f, 2), lp_norm(f, math.inf)
    assert n1 <= n2 + 1e-9
    assert n2 <= ninf + 1e-9


def test_inner_product_is_expectation_of_product():
    g = GroundSet.cyclic(6)
    f = WeightFunction(g, values=[1, 2, 3, 0, -1, 4.0])
    h = WeightFunction(g, values=[2, 0, 1, 1, 5, -2.0])
    manual = sum(f.dense()[i] * h.dense()[i] for i in range(6)) / 6
    assert inner_product(f, h) == pytest.approx(manual)


def test_weightfunction_is_readonly():
    f = WeightFunction(GroundSet.cyclic(4), values=[1, 2, 3, 4.0])
    with pytest.raises(ValueError):
        f.dense()[0] = 99
