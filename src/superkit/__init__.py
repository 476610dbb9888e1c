"""superkit: exact-arithmetic computations with finite-dimensional Lie
superalgebras over the rationals.

Highlights: the classical families gl(m|n), sl(m|n), osp(1|2n) with their
defining representations; validation of the super axioms; the cone of odd
elements with semisimple square and the structural decision procedure that
certifies it is zero exactly for products of a reductive center and
orthosymplectic factors; PBW arithmetic in the enveloping algebra with both
one-sided coinvariant modules, the ghost element and the counit
semisimplicity criterion; Duflo-Serganova functors; and the constructive
splitting obstruction for odd derivations of supercommutative algebras.
"""

from .core import (
    EVEN,
    ODD,
    Decomposition,
    LieSuperalgebra,
    NotSemisimpleStructure,
    SuperkitError,
)
from .enveloping import (
    LEFT,
    NO_INVARIANT,
    NOT_SEMISIMPLE,
    RIGHT,
    SEMISIMPLE,
    CoinvariantElement,
    DjokovicReport,
    EnvelopingElement,
    GhostElement,
    coinvariant_project,
    djokovic_element,
    double_factorial_odd,
    ghost_criterion,
    invariants,
    module_action,
    pbw_normal_form,
    verify_djokovic,
)
from .families import (
    algebra_from_matrices,
    build_gl,
    build_osp1,
    build_product,
    build_sl,
    build_toy,
    osp_odd_indices,
    parse_family_spec,
    supertrace,
)
from .linalg import (
    Matrix,
    Q,
    is_squarefree,
    kernel_basis,
    minimal_polynomial,
    rational_eigenspaces,
    solve_linear,
)
from .reps import (
    DSResult,
    NotInG1ss,
    SuperModule,
    adjoint_module,
    direct_sum,
    ds_functor,
    ds_tensor_check,
    dual,
    has_integral_weights,
    induced_trivial,
    is_module_semisimple,
    tensor,
    trivial_module,
    validate_module,
)
from .roots import (
    CartanSearchFailed,
    ClassificationInconclusive,
    Inconclusive,
    NonSemisimpleCartanAction,
    Osp,
    Root,
    RootDatum,
    ScanReport,
    Witness,
    classify_simple,
    find_cartan,
    g1ss_structural_scan,
    root_decomposition,
)
from .supercomm import (
    NonSemisimpleSquare,
    SupercommAlgebra,
    Vanishing,
    catalog_pairs,
    coinvariant_dual_pair,
    exterior_algebra,
    is_nonvanishing,
    poly_quotient_algebra,
    splitting_witness,
    tensor_algebra,
    validate_algebra,
    validate_derivation,
    verify_no_splitting,
)

__version__ = "0.1.0"
