"""Programmatic constructors for the catalogue schemes bundled with the tool.

Each entry pairs a scheme id (position in the standard small-scheme tables)
with the graph carrying its first relation.  All schemes except the 24-cell
one are distance partitions; the 24-cell graph is not distance-regular (pairs
at inner product -1 already occur at graph distance 2), so that scheme is the
inner-product partition of the polytope's spherical embedding.
"""

from __future__ import annotations

from .graphs import cell24_vertices, named_graph
from .schemes import Scheme, scheme_from_graph_distances, verify_scheme


def cell24_scheme() -> Scheme:
    """Association scheme of the 24-cell: relations by inner product
    2, 1, 0, -1, -2 between the 24 vertices (+-1, +-1, 0, 0)."""
    verts = cell24_vertices()
    rel_of_ip = {2: 0, 1: 1, 0: 2, -1: 3, -2: 4}
    rel = [
        [
            rel_of_ip[sum(x * y for x, y in zip(verts[a], verts[b]))]
            for b in range(24)
        ]
        for a in range(24)
    ]
    s = verify_scheme(rel)
    assert isinstance(s, Scheme)
    return s


# scheme id -> (graph name of R_1, constructor)
CATALOGUE: dict[str, str] = {
    "AS05[1]": "K5",
    "AS06[3]": "K3,3",
    "AS08[2]": "K2,2,2,2",
    "AS09[3]": "K3xK3",
    "AS10[3]": "J(5,2)",
    "AS10[6]": "crown",
    "AS16[30]": "Q4",
    "AS24[43]": "24-cell",
}

# the six (graph, scheme) pairs of the main classification
CLASSIFIED: dict[str, str] = {
    "K3,3": "AS06[3]",
    "K2,2,2,2": "AS08[2]",
    "K3xK3": "AS09[3]",
    "J(5,2)": "AS10[3]",
    "crown": "AS10[6]",
    "Q4": "AS16[30]",
}


def catalogue_scheme(scheme_id: str) -> Scheme:
    if scheme_id not in CATALOGUE:
        raise KeyError(f"unknown scheme id {scheme_id!r}")
    if scheme_id == "AS24[43]":
        return cell24_scheme()
    result = scheme_from_graph_distances(named_graph(CATALOGUE[scheme_id]))
    assert isinstance(result, Scheme)
    return result
