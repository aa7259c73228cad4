"""Print the exact cosine table of the bundled schemes.

Every bundled scheme has first multiplicity four, so each one embeds on the
unit sphere in R^4 through its first primitive idempotent.  Each scheme is
read from its hash-checked golden file.  The cosine
column lists the exact inner products realized by each relation.

Run:  python demos/cosine_table.py
"""

from schemeforge.catalogue import CATALOGUE, load_bundled
from schemeforge.schemes import qpolynomial_spectra


def main():
    header = f"{'scheme':<10} {'graph':<10} {'|X|':>4} {'d':>2} {'m1':>3}  cosine column"
    print(header)
    print("-" * len(header))
    for sid in sorted(CATALOGUE):
        scheme = load_bundled(sid)
        sp, orderings = qpolynomial_spectra(scheme)
        cosines = ", ".join(str(sp.cosines[i][1]) for i in range(scheme.d + 1))
        print(
            f"{sid:<10} {CATALOGUE[sid]:<10} {scheme.n:>4} {scheme.d:>2} "
            f"{sp.multiplicities[1]:>3}  ({cosines})"
        )
        if len(orderings) > 1:
            print(f"{'':<10} {'':<10} {'':>4} {'':>2} {'':>3}  "
                  f"({len(orderings)} cometric orderings)")


if __name__ == "__main__":
    main()
