import pytest

import corpus
from catfrac import (
    LaxTransformation,
    Modification,
    NatTrans,
    Pseudofunctor,
    derive_unit_compositors,
    enumerate_modifications,
    enumerate_transformations,
    identity_functor,
    strictify,
    validate_modification,
    validate_pseudofunctor,
    validate_transformation,
)
from catfrac.diagram import (
    compositor_inverse_component,
    expected_endpoints,
    _not_invertible_at,
    compose_modifications,
    identity_two_cell,
    identity_modification,
    two_cell_endpoints,
    unitor_inverse_component,
)
from catfrac.errors import DomainError, InputError


@pytest.mark.parametrize("name,D", corpus.oplax_diagrams())
def test_corpus_diagrams_valid(name, D):
    assert validate_pseudofunctor(D).ok


def test_expected_endpoints_by_variance():
    Dc = corpus.diag_cov_two()
    assert expected_endpoints(Dc, "f") == (Dc.cat("a"), Dc.cat("b"))
    Dx = corpus.diag_contra_two()
    assert expected_endpoints(Dx, "f") == (Dx.cat("b"), Dx.cat("a"))


def test_unitor_and_compositor_inverses():
    D = corpus.diag_swap_one()
    # unitor at a is v, so its inverse is u
    assert D.unitors["*"].components["a"] == "v"
    assert unitor_inverse_component(D, "*", "a") == "u"
    delta = D.compositor("id:*", "id:*")
    assert compositor_inverse_component(D, "id:*", "id:*", "a") != delta.components["a"]


def test_derived_unit_compositors_of_swap():
    D = corpus.diag_swap_one()
    # delta_{1;1} at x inverts D(1)(unitor_x): D(1)(v)=u so the cell at a is v
    assert D.compositor("id:*", "id:*").components == {"a": "v", "b": "u"}


def test_derive_refuses_missing_nonunit_pair():
    D = corpus.diag_contra_chain()
    with pytest.raises(InputError):
        derive_unit_compositors(D.index, D.variance, D.on_arrows, D.unitors, {})



@pytest.mark.parametrize("check", [
    validate_pseudofunctor,
    lambda D: derive_unit_compositors(D.index, D.variance, D.on_arrows, D.unitors, {}),
], ids=["validate", "derive"])
def test_index_that_breaks_a_law_is_a_structural_gap(check):
    # the composite of f and id:b placed in hom(a, a): both read cells off
    # the index's composites, so both refuse it before reading any cell
    D = corpus.diag_contra_two()
    D.index.composition[("f", "id:b")] = "id:a"
    with pytest.raises(InputError) as exc:
        check(D)
    assert str(exc.value) == (
        "index: composite ('f','id:b')='id:a' lands in hom('a','a'), expected hom('a','b')"
    )


def test_strictify_rejects_nonstrict():
    I = corpus.iso()
    sw = corpus.swap_iso(I)
    with pytest.raises(InputError):
        strictify(
            corpus.chain3(),
            {"x": I, "y": I, "z": I},
            {
                "id:x": identity_functor(I),
                "id:y": identity_functor(I),
                "id:z": identity_functor(I),
                "f": sw,
                "g": sw,
                "h": sw,  # sw;sw = id != sw
            },
        )


def test_validator_catches_bad_unitor():
    D = corpus.diag_swap_one()
    D.unitors["*"] = NatTrans(
        D.unitors["*"].src, D.unitors["*"].tgt, {"a": "id:a", "b": "id:b"}
    )
    assert not validate_pseudofunctor(D).ok


def test_validator_catches_bad_compositor():
    D = corpus.diag_contra_swap()
    delta = D.compositor("f", "id:b")
    # right typing exists only for the genuine cells; swapping the two
    # components keeps arrows but breaks the endpoint equations
    D.compositors[("f", "id:b")] = NatTrans(
        delta.src, delta.tgt, {"a": delta.components["b"], "b": delta.components["a"]}
    )
    assert not validate_pseudofunctor(D).ok


def test_validator_catches_nonfunctorial_value():
    D = corpus.diag_cov_two()
    D.on_arrows["f"].on_arrows["f"] = "id:*"  # fine: still id:*; break objects instead
    D.on_arrows["f"].on_objects["a"] = "*"
    assert validate_pseudofunctor(D).ok  # unchanged values; sanity
    D.on_arrows["id:a"].on_arrows["f"] = "id:a"
    assert not validate_pseudofunctor(D).ok


def test_validator_names_a_functor_with_missing_images():
    # as for unitors and compositors, a structural defect names its entry
    D = corpus.diag_cov_two()
    del D.on_arrows["f"].on_arrows["f"]
    with pytest.raises(InputError) as exc:
        validate_pseudofunctor(D)
    assert str(exc.value) == "functor at 'f': functor arrow mapping not total: missing 'f'"


def _with_compositor(D: Pseudofunctor, pair: tuple, components) -> Pseudofunctor:
    cell = D.compositors[pair]
    D.compositors[pair] = NatTrans(cell.src, cell.tgt, components(cell))
    return D


def _twisted(cell: NatTrans) -> dict:
    """Each component followed by the central twist at its target: still
    natural and invertible, so only the coherence laws can object."""
    T = cell.tgt.cod
    return {x: T.composition[(f, "t:" + T.tgt[f])] for x, f in cell.components.items()}


CHAIN_Z2_CONTROLS = [
    (("0<1", "1<2"), [
        "associativity coherence fails at ('0<1', '1<2', '2<3', '*')",
    ]),
    (("0<0", "0<1"), [
        "left unit coherence fails at ('0<1', '*')",
        "associativity coherence fails at ('0<0', '0<0', '0<1', '*')",
        "associativity coherence fails at ('0<0', '0<1', '1<2', '*')",
        "associativity coherence fails at ('0<0', '0<1', '1<3', '*')",
    ]),
    (("2<3", "3<3"), [
        "right unit coherence fails at ('2<3', '*')",
        "associativity coherence fails at ('0<2', '2<3', '3<3', '*')",
        "associativity coherence fails at ('1<2', '2<3', '3<3', '*')",
        "associativity coherence fails at ('2<3', '3<3', '3<3', '*')",
    ]),
]


@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
@pytest.mark.parametrize("pair,problems", CHAIN_Z2_CONTROLS)
def test_coherence_controls_over_chain(variance, pair, problems):
    # one compositor of the strict Z/2 diagram set to the generator: natural
    # and invertible, so each law reports exactly where it reads that cell
    D = _with_compositor(corpus.diag_chain_z2(variance), pair, lambda cell: {"*": "s"})
    assert validate_pseudofunctor(D).problems == problems


TWISTED_CONTROLS = [
    (("id:a", "f"), [
        "left unit coherence fails at ('f', 'a')",
        "left unit coherence fails at ('f', 'b')",
        "associativity coherence fails at ('id:a', 'id:a', 'f', 'a')",
        "associativity coherence fails at ('id:a', 'id:a', 'f', 'b')",
    ]),
    (("f", "id:b"), [
        "right unit coherence fails at ('f', 'a')",
        "right unit coherence fails at ('f', 'b')",
        "associativity coherence fails at ('f', 'id:b', 'id:b', 'a')",
        "associativity coherence fails at ('f', 'id:b', 'id:b', 'b')",
    ]),
    (("id:b", "id:b"), [
        "left unit coherence fails at ('id:b', 'a')",
        "right unit coherence fails at ('id:b', 'a')",
        "left unit coherence fails at ('id:b', 'b')",
        "right unit coherence fails at ('id:b', 'b')",
        "associativity coherence fails at ('f', 'id:b', 'id:b', 'a')",
        "associativity coherence fails at ('f', 'id:b', 'id:b', 'b')",
    ]),
]


@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_coherence_whiskers_with_the_swap(variance):
    # whiskering a unitor or compositor of the twisted diagram with the swap
    # from the wrong side moves it by the twist at every fibre object, so
    # this valid diagram would fail every law that whiskers with D(f)
    assert validate_pseudofunctor(corpus.diag_twisted(variance)).problems == []


@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
@pytest.mark.parametrize("pair,problems", TWISTED_CONTROLS)
def test_coherence_controls_with_the_swap(variance, pair, problems):
    D = _with_compositor(corpus.diag_twisted(variance), pair, _twisted)
    assert validate_pseudofunctor(D).problems == problems


def test_transformations_over_point_are_functors():
    from catfrac import enumerate_functors

    D = corpus.diag_contra_one()
    X = corpus.two()
    found = enumerate_transformations(D, X)
    assert len(found) == len(enumerate_functors(D.cat("*"), X)) == 3
    for x in found:
        assert validate_transformation(x).ok
        forced = identity_two_cell(D, x.components, "*")
        assert x.two_cells["id:*"] == forced


def test_transformation_counts_into_iso():
    assert len(enumerate_transformations(corpus.diag_swap_one(), corpus.iso())) == 4
    assert len(enumerate_transformations(corpus.diag_cov_two(), corpus.iso())) == 8
    assert len(enumerate_transformations(corpus.diag_contra_two(), corpus.iso())) == 8


def not_pseudo_at(x: LaxTransformation):
    """The first (index arrow, object) where a two-cell of x has no inverse,
    read with the enumerator's own check; None when x is pseudo."""
    for phi in x.source.index.arrows:
        obj = _not_invertible_at(x.target, x.two_cells[phi])
        if obj is not None:
            return phi, obj
    return None


def test_pseudo_filter():
    D = corpus.diag_swap_one()
    lax = enumerate_transformations(D, corpus.iso(), kind="lax")
    pseudo = enumerate_transformations(D, corpus.iso(), kind="pseudo")
    assert len(lax) == len(pseudo) == 4
    for x in pseudo:
        assert not_pseudo_at(x) is None

    Dt = corpus.diag_contra_two()
    lax_t = enumerate_transformations(Dt, corpus.two(), kind="lax")
    pseudo_t = enumerate_transformations(Dt, corpus.two(), kind="pseudo")
    assert len(pseudo_t) < len(lax_t)
    assert [x for x in lax_t if not_pseudo_at(x) is None] == pseudo_t


def test_two_cell_endpoints_variance():
    D = corpus.diag_contra_two()
    x = enumerate_transformations(D, corpus.two())[0]
    src, tgt = two_cell_endpoints(D, x.components, "f")
    assert src.dom == D.cat("b") and tgt.dom == D.cat("b")


def test_validate_transformation_catches_corruption():
    D = corpus.diag_contra_two()
    X = corpus.iso()
    x = enumerate_transformations(D, X)[0]
    cell = x.two_cells["f"]
    other = "u" if cell.components["*"] != "u" else "v"
    x.two_cells["f"] = NatTrans(cell.src, cell.tgt, {"*": other})
    assert not validate_transformation(x).ok


@pytest.mark.parametrize("variance", ["covariant", "contravariant"])
def test_validate_transformation_names_composition_incoherence(variance):
    # the strict Z/2 diagram over chain(4): the cell at 0<2 set to the
    # generator stays natural and meets the identity law, but disagrees with
    # the composite of the identity cells at 0<1 and 1<2, and its composite
    # with the cell at 2<3 disagrees with the identity cell at 0<3
    x = enumerate_transformations(corpus.diag_chain_z2(variance), corpus.z2())[0]
    cell = x.two_cells["0<2"]
    x.two_cells["0<2"] = NatTrans(cell.src, cell.tgt, {"*": "s"})
    assert validate_transformation(x).problems == [
        "composition coherence fails at ('0<1', '1<2', '*')",
        "composition coherence fails at ('0<2', '2<3', '*')",
    ]


def test_transformation_structural_gaps():
    D = corpus.diag_contra_one()
    X = corpus.two()
    x = enumerate_transformations(D, X)[0]
    broken = LaxTransformation(D, X, {}, x.two_cells)
    with pytest.raises(InputError):
        validate_transformation(broken)


def test_modifications_over_point_are_nat_trans():
    from catfrac import enumerate_nat_trans

    D = corpus.diag_contra_one()
    X = corpus.iso()
    xs = enumerate_transformations(D, X)
    for x in xs:
        for y in xs:
            mods = enumerate_modifications(x, y)
            nats = enumerate_nat_trans(x.components["*"], y.components["*"])
            assert len(mods) == len(nats)
            for m in mods:
                assert validate_modification(m).ok


def test_modification_identity_and_composition():
    D = corpus.diag_swap_one()
    X = corpus.iso()
    xs = enumerate_transformations(D, X)
    x = xs[0]
    ident = identity_modification(x)
    assert validate_modification(ident).ok
    assert compose_modifications(ident, ident) == ident
    for y in xs:
        for m in enumerate_modifications(x, y):
            assert compose_modifications(ident, m) == m


def test_modification_rejects_nonparallel():
    D = corpus.diag_swap_one()
    X = corpus.iso()
    xs = enumerate_transformations(D, X)
    m = identity_modification(xs[0])
    bad = Modification(xs[0], xs[1], m.components)
    report_or_err = None
    try:
        report_or_err = validate_modification(bad)
    except DomainError:
        return
    assert not report_or_err.ok


def test_ill_typed_two_cell_is_named_by_the_checked_compose():
    # over f : a -> b the cell at * of D(b) must start at x_a(D(f)(*)) = a;
    # id:b starts at b, so no table entry exists for the composite
    D = corpus.diag_contra_two()
    x = enumerate_transformations(D, corpus.two())[0]
    cell = x.two_cells["f"]
    x.two_cells["f"] = NatTrans(cell.src, cell.tgt, {"*": "id:b"})
    message = "non-composable pair ('id:a','id:b'): tgt 'a' != src 'b'"
    with pytest.raises(DomainError) as exc:
        validate_modification(identity_modification(x))
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        enumerate_modifications(x, x)
    assert str(exc.value) == message


def test_ill_typed_two_cell_of_a_covariant_diagram_is_named_by_the_checked_compose():
    # over f : a -> b the cell at a of D(a) must start at x_a(a) = a; id:b
    # starts at b, so no table entry exists for the composite
    D = corpus.diag_cov_two()
    x = enumerate_transformations(D, corpus.two())[0]
    cell = x.two_cells["f"]
    x.two_cells["f"] = NatTrans(cell.src, cell.tgt, {"a": "id:b", "b": "id:a"})
    message = "non-composable pair ('id:a','id:b'): tgt 'a' != src 'b'"
    with pytest.raises(DomainError) as exc:
        validate_modification(identity_modification(x))
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        enumerate_modifications(x, x)
    assert str(exc.value) == message


@pytest.mark.parametrize("D", [corpus.diag_contra_two(), corpus.diag_cov_two()],
                         ids=["contravariant", "covariant"])
def test_transformations_refuse_a_functor_off_the_wrong_category(D):
    # the two-cells at f are searched on the category where D(f) starts;
    # a D(f) off another category, into the right one, breaks D's laws,
    # and the search refuses it as the validator names it
    D.on_arrows["f"] = identity_functor(D.fun("f").cod)
    with pytest.raises(InputError) as exc:
        enumerate_transformations(D, corpus.two())
    assert str(exc.value) == f"functor at 'f' has wrong endpoints for {D.variance} variance"
