"""Which graphs can appear as the neighbourhood of a point on a sphere in R^4?

A scheme with first multiplicity four places its points on the unit sphere
in R^4.  Projecting the neighbours of one point onto the tangent space
leaves a spherical 2-distance set in R^3: neighbours at cosine beta1,
non-neighbours at beta2 < beta1 < 1/2, with a positive semidefinite Gram
matrix of rank at most three.  Exhausting all regular graphs on at most
nine vertices (nine is the exact 2-distance bound in R^3) leaves only nine
feasible neighbourhood graphs, realizing six geometric configurations.

Run:  python demos/local_neighbourhoods.py
"""

from schemeforge.localclass import classify_local


def main():
    result = classify_local()
    print(f"{len(result)} feasible neighbourhood graphs:\n")
    for sol in result:
        kind = "family" if sol.family else "point"
        print(f"  {sol.name:<12} ({sol.geometric_label}, {kind})")
        for b1, b2 in sol.solutions:
            show = lambda b: "free" if b is None else str(b)
            print(f"      beta1 = {show(b1):<22} beta2 = {show(b2)}")
    labels = sorted({s.geometric_label for s in result})
    print(f"\ngeometric configurations: {', '.join(labels)}")


if __name__ == "__main__":
    main()
