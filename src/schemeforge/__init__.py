"""Exact computations for small Q-polynomial association schemes.

The library classifies partially metric Q-polynomial association schemes
whose first multiplicity is four.  It is organized as a pipeline:

- :mod:`schemeforge.exactnum` — exact arithmetic in Q and Q(sqrt(p))
- :mod:`schemeforge.graphs` — small graphs, generation, locally-H extension
- :mod:`schemeforge.schemes` — scheme axioms, spectra, cosines, Krein data
- :mod:`schemeforge.localclass` — feasible nearest-neighbourhood graphs
- :mod:`schemeforge.diagsearch` — relation-distribution diagram generation
- :mod:`schemeforge.catalogue` — the bundled schemes and the classified pairs
- :mod:`schemeforge.cli` — command-line surface and golden data files
"""

from .exactnum import (
    ExactMatrix,
    ExactPolynomial,
    FieldMismatchError,
    QuadNumber,
    bounded_algebraic_integers,
    char_poly,
    is_psd,
    nullspace,
    quad_sqrt,
    rank,
    split_integer_polynomial,
    squarefree_decompose,
)
from .graphs import (
    ExtensionResult,
    Graph,
    enumerate_regular_graphs,
    extend_locally,
    identify_graph,
    is_locally,
    named_graph,
    to_graph6,
)
from .schemes import (
    NoQPolynomialOrderingError,
    Scheme,
    SchemeRefutation,
    SchemeResult,
    Spectra,
    SplittingFieldError,
    krein_check,
    light_tail_bound,
    partially_metric_level,
    q_poly_orderings,
    qpolynomial_spectra,
    scheme_from_graph_distances,
    spectra,
    verify_scheme,
)
from .localclass import (
    LocalSolution,
    classify_local,
    delsarte_bound,
)
from .diagsearch import (
    KISSING_NUMBER_R4,
    CosineColumns,
    DistributionDiagram,
    SearchConfig,
    SearchOutcome,
    SearchResult,
    candidate_radicands,
    generate_diagrams,
    match_known,
)
from .catalogue import CATALOGUE, CLASSIFIED, catalogue_scheme

__version__ = "0.1.0"

__all__ = [
    "CATALOGUE",
    "CLASSIFIED",
    "CosineColumns",
    "DistributionDiagram",
    "ExactMatrix",
    "ExactPolynomial",
    "ExtensionResult",
    "FieldMismatchError",
    "Graph",
    "KISSING_NUMBER_R4",
    "LocalSolution",
    "NoQPolynomialOrderingError",
    "QuadNumber",
    "Scheme",
    "SchemeRefutation",
    "SchemeResult",
    "SearchConfig",
    "SearchOutcome",
    "SearchResult",
    "Spectra",
    "SplittingFieldError",
    "bounded_algebraic_integers",
    "candidate_radicands",
    "catalogue_scheme",
    "char_poly",
    "classify_local",
    "delsarte_bound",
    "enumerate_regular_graphs",
    "extend_locally",
    "generate_diagrams",
    "identify_graph",
    "is_locally",
    "is_psd",
    "krein_check",
    "light_tail_bound",
    "match_known",
    "named_graph",
    "nullspace",
    "partially_metric_level",
    "q_poly_orderings",
    "qpolynomial_spectra",
    "quad_sqrt",
    "rank",
    "scheme_from_graph_distances",
    "spectra",
    "split_integer_polynomial",
    "squarefree_decompose",
    "to_graph6",
    "verify_scheme",
]
