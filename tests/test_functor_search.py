"""The positional functor search against the oracle on generated categories:
``enumerate_functors`` lists the oracle's functors in the oracle's order,
and ``find_isomorphism`` finds the first bijective functor on that list, or
None when there is none.

The oracle filters every assignment of arrows for each object map, in
declaration order, so its list is in the canonical order and checks every
composition entry, identity factors included.
"""

from hypothesis import given, settings, strategies as st

import oracle
from catfrac import FinCategory, enumerate_functors, find_isomorphism
from test_generated import build, categories, redeclared, targets


def first_bijection(rawc, rawx):
    """The first functor on the oracle's list that is a bijection on objects
    and on arrows, or None."""
    if (len(rawc["objects"]), len(rawc["arrows"])) != (len(rawx["objects"]), len(rawx["arrows"])):
        return None
    for o, m in oracle.functors(rawc, rawx):
        if len(set(o.values())) == len(o) and len(set(m.values())) == len(m):
            return o, m
    return None


def found(C: FinCategory, X: FinCategory):
    witness = find_isomorphism(C, X)
    return None if witness is None else (witness.forward.on_objects, witness.forward.on_arrows)


@settings(max_examples=80, deadline=5000)
@given(categories, targets)
def test_functors_are_the_oracle_list_in_order(rawc, rawx):
    listed = [(F.on_objects, F.on_arrows) for F in enumerate_functors(build(rawc), build(rawx))]
    assert listed == oracle.functors(rawc, rawx)


@settings(max_examples=80, deadline=5000)
@given(categories, categories, st.data())
def test_isomorphism_is_the_first_bijection_on_the_oracle_list(rawc, other, data):
    # a redeclaration of C always has one; another drawn category may not
    for rawx in (redeclared(rawc, data), redeclared(other, data)):
        assert found(build(rawc), build(rawx)) == first_bijection(rawc, rawx)
