"""Exact kernel for Lie conformal algebras and their vertex-side structures."""

from .bialgebra import (
    check_delta_is_vertex_hom,
    coproduct,
    counit,
    is_primitive,
    primitives_up_to,
    tensor_nth,
)
from .core import (
    AxiomReport,
    CVec,
    GeneratorSpec,
    LcaPresentation,
    LMPoly,
    LPoly,
    build_presentation,
)
from .enveloping import EnvelopingAlgebra, UElem
from .errors import (
    AxiomFailure,
    NotNilpotent,
    OutsideBasis,
    SeriesDivergent,
    TruncationInsufficient,
)
from .filtration import AdaptedBasis, LowerCentralSeries, RawBasis, adapted_basis
from .lawtable import (
    LawTable,
    check_convergence_bound,
    check_identities,
    check_law_hom,
    check_law_jacobi,
    extract_law,
)
from .manifold import VertexManifold, integrate

__all__ = [
    "AxiomReport",
    "AxiomFailure",
    "AdaptedBasis",
    "CVec",
    "EnvelopingAlgebra",
    "GeneratorSpec",
    "LawTable",
    "LcaPresentation",
    "LMPoly",
    "LPoly",
    "LowerCentralSeries",
    "NotNilpotent",
    "OutsideBasis",
    "RawBasis",
    "SeriesDivergent",
    "TruncationInsufficient",
    "UElem",
    "VertexManifold",
    "adapted_basis",
    "build_presentation",
    "check_convergence_bound",
    "check_delta_is_vertex_hom",
    "check_identities",
    "check_law_hom",
    "check_law_jacobi",
    "coproduct",
    "counit",
    "extract_law",
    "integrate",
    "is_primitive",
    "primitives_up_to",
    "tensor_nth",
]
