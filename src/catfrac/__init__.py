"""Finite categories of fractions.

Explicit-table finite categories, pseudofunctors into them, their element
categories, localization at a marked set of arrows by right fractions, and
the same constructions rebuilt inside finite sets, with verifiers that
check the universal properties by exhaustive enumeration on instances.
"""

from .errors import AxiomError, DomainError, InputError, IntegrityError
from .fincat import (
    FinCategory,
    Functor,
    IsoWitness,
    NatTrans,
    ValidationReport,
    check_shape,
    compose,
    compose_functors,
    compose_many,
    enumerate_functors,
    enumerate_nat_trans,
    find_isomorphism,
    identity_functor,
    identity_nat_trans,
    nat_trans_search,
    opposite,
    two_sided_inverse,
    validate_category,
    validate_functor,
    validate_nat_trans,
    vertical_compose,
)
from .verify import VerifierReport
from .diagram import (
    LaxTransformation,
    Modification,
    Pseudofunctor,
    derive_unit_compositors,
    enumerate_modifications,
    enumerate_transformations,
    strictify,
    validate_modification,
    validate_pseudofunctor,
    validate_transformation,
)
from .elements import (
    CleavageSet,
    ElementsCategory,
    canonical_cocone,
    cleavage,
    functor_to_transformation,
    grothendieck,
    transformation_to_functor,
    verify_oplax_colimit,
)
from .fractions import (
    AxiomReport,
    FractionsInput,
    LocalizedCategory,
    check_axioms,
    induced_functor,
    inverts,
    localize,
    shape_instances,
    span_compose,
    verify_localization_up,
    verify_pseudocolimit,
)
from .ambient import (
    FinSetMap,
    FinSetObject,
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    coequalize_reflexive,
    coequalizer_mediate,
    compose_maps,
    coproduct,
    coproduct_mediate,
    externalize,
    identity_map,
    internal_cleavage,
    internal_elements,
    internal_localize,
    internalize,
    pullback,
    pullback_mediate,
    validate_internal_category,
    validate_internal_functor,
    validate_internal_nat_trans,
    verify_cover_class,
    verify_pairs_coequalizer,
)

__version__ = "0.1.0"
