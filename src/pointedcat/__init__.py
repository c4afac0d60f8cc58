"""Exact construction and verification of pointed modular data from even lattices.

Build the data of an even integral lattice, check every defining identity
with zero numerical tolerance, compute fusion rules and colored framed-link
invariants, and classify small-rank pointed data up to relabeling.
"""

from .cyclo import Cyclotomic, root_of_unity
from .enumeration import (
    ClassificationResult,
    CorpusSpec,
    ModularClass,
    classify,
    format_classification,
    generate_gram_matrices,
)
from .errors import (
    NoLatticeProvenance,
    NonIntegralFusion,
    NotInDiscriminantGroup,
    NotModular,
    NotProbabilistic,
    NotSymmetric,
    OddDiagonal,
    ParseError,
    PointedCatError,
    RankTooLarge,
    Singular,
    ValidationError,
)
from .lattice import (
    DiscriminantGroup,
    GramMatrix,
    SmithDecomposition,
    check_gram,
    direct_sum,
    discriminant_group,
    quadratic_mod2,
    smith_normal_form,
)
from .moddata import (
    FramedLink,
    FusionTensor,
    GaussData,
    ModularData,
    RelationCheck,
    RelationReport,
    canonical_form,
    check_modular_relations,
    check_unitarity,
    colored_link_invariant,
    dual_permutation,
    framed_link,
    from_lattice,
    fusion_probabilities,
    gauss_data,
    quantum_dimensions,
    verify_all,
    verlinde_fusion,
)
from .serialization import Document, parse, parse_gram_text, serialize

__version__ = "0.1.0"
