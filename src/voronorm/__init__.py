"""voronorm: exact certificates for the density of distance-1-avoiding sets
under parallelohedron norms (cube, A_n, D_n, planar hexagonal cells)."""

from .geometry import (
    AnLattice,
    DegenerateCell,
    DimensionMismatch,
    DnLattice,
    PlanarLattice,
    ReducedPlanarBasis,
    Vec,
    ZnLattice,
    reduce_planar_basis,
)
from .constructions import (
    CertificateError,
    GaugeNorm,
    HexagonPattern,
    InputOffHyperplane,
    PolytopeData,
    gauge_an,
    gauge_dn,
    gauge_planar,
    gauge_sup,
    hexagon_pattern,
    polytope_an,
    polytope_cube,
    polytope_dn,
)
from .graphs import (
    GeometricGraph,
    PropertyDReport,
    an_property_d,
    an_unit_distance_graph,
    build_unit_distance_graph,
    dn_property_d,
    hex_unit_distance_graph,
    hexagon_property_d,
)
from .density import (
    BoundViolated,
    ChainClique,
    CrossCheckMismatch,
    DensityCertificate,
    UnknownComponentType,
    an_neighborhood_size_formula,
    enumerate_chain_cliques,
    verify_an_bound,
    verify_dn_bound,
    verify_hexagon_bound,
)
from .independence import (
    MisResult,
    RatioSequence,
    counterexample_density_gap,
    counterexample_graph,
    cube_certificate,
    is_independent_set,
    max_independent_set,
    ratio_sequence_an,
)
from .coloring import (
    ChromaticReport,
    CosetColoring,
    chromatic_report,
    chromatic_witness_search,
    color,
    coset_coloring,
    verify_coloring,
)

__version__ = "0.1.0"
