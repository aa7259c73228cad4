"""Walk through the classification of partially metric cometric schemes
with first multiplicity four, case by case.

Stage 1 finds the nine feasible nearest-neighbourhood graphs.  Stage 2
resolves each: either the neighbourhood determines the whole graph (a
bounded locally-H extension search plus a spectral screen), or the
relation-distribution diagram search enumerates every feasible scheme
directly.  Six schemes survive.

Run:  python demos/classification_walkthrough.py   (a few seconds)
"""

from schemeforge.diagsearch import SearchConfig, generate_diagrams
from schemeforge.graphs import extend_locally, identify_graph, named_graph
from schemeforge.localclass import LOCAL_CASES, classify_local
from schemeforge.schemes import scheme_from_graph_distances, why_not_classified


def resolve_by_extension(case, n_max):
    ext = extend_locally(named_graph(case), n_max)
    for g in ext.graphs:
        name = identify_graph(g)
        scheme = scheme_from_graph_distances(g)
        reason = why_not_classified(scheme)
        if reason is None:
            print(f"    {name}: survives (n = {scheme.n}, degree {scheme.d})")
        else:
            print(f"    {name}: {reason} -> excluded")


def resolve_by_search(case):
    h = named_graph(case)
    k1, a1 = h.n, h.degree(0)
    config = SearchConfig(k1=k1, a1=a1, radicand=None)
    tag = ", light tail" if config.light_tail else ""
    print(f"    diagram search with k1 = {k1}, a1 = {a1}{tag}, over every field")
    outcome = generate_diagrams(config)
    for res in outcome.results:
        print(f"    -> |X| = {res.diagram.size()}, matches {res.matched}")


def main():
    print("stage 1: feasible neighbourhoods of a point")
    local = classify_local()
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
