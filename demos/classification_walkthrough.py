"""Walk through the classification of partially metric cometric schemes
with first multiplicity four, case by case.

Stage 1 finds the nine feasible nearest-neighbourhood graphs.  Stage 2
resolves each: either the neighbourhood determines the whole graph (a
bounded locally-H extension search plus a spectral screen), or the
relation-distribution diagram search enumerates every feasible scheme
directly.  Six schemes survive.

Run:  python demos/classification_walkthrough.py   (about a second)
"""

from schemeforge.diagsearch import SearchConfig, generate_diagrams
from schemeforge.graphs import extend_locally, identify_graph, named_graph
from schemeforge.localclass import LOCAL_CASES, classify_local
from schemeforge.schemes import (
    SchemeRefutation,
    partially_metric_level,
    qpolynomial_spectra,
    scheme_from_graph_distances,
)


def resolve_by_extension(case, n_max):
    ext = extend_locally(named_graph(case), n_max)
    for g in ext.graphs:
        name = identify_graph(g)
        scheme = scheme_from_graph_distances(g)
        if isinstance(scheme, SchemeRefutation):
            print(f"    {name}: not distance-regular -> excluded")
            continue
        sp, _ = qpolynomial_spectra(scheme)
        m1 = sp.multiplicities[1]
        if m1 != 4:
            print(f"    {name}: m1 = {m1} -> excluded")
            continue
        level = partially_metric_level(scheme, 1)
        if level < 2:
            print(f"    {name}: partially metric level {level} -> excluded")
            continue
        print(f"    {name}: survives (n = {scheme.n}, degree {scheme.d})")


def resolve_by_search(case):
    h = named_graph(case)
    k1, a1 = h.n, h.degree(0)
    config = SearchConfig(k1=k1, a1=a1)
    tag = ", light tail" if config.light_tail else ""
    print(f"    diagram search with k1 = {k1}, a1 = {a1}{tag}")
    outcome = generate_diagrams(config)
    for res in outcome.results:
        print(f"    -> |X| = {res.diagram.size()}, matches {res.matched}")


def main():
    print("stage 1: feasible neighbourhoods of a point")
    local = classify_local(9)
    names = [s.name for s in local]
    print(f"  {', '.join(names)}\n")
    print("stage 2: resolve each local case")
    for case in names:
        print(f"  local graph {case}:")
        n_max = LOCAL_CASES[case].n_max
        if n_max is None:
            resolve_by_search(case)
        else:
            resolve_by_extension(case, n_max)
    print("\nsurvivors: K3,3, K2,2,2,2, K3xK3, J(5,2), crown, Q4")


if __name__ == "__main__":
    main()
