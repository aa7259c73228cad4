import pytest

from schemeforge.catalogue import CATALOGUE, load_bundled
from schemeforge.schemes import qpolynomial_spectra


@pytest.fixture(scope="session")
def catalogue():
    """All bundled schemes, keyed by id, as their golden files give them."""
    return {sid: load_bundled(sid) for sid in CATALOGUE}


@pytest.fixture(scope="session")
def catalogue_spectra(catalogue):
    """(Spectra under the first Q-polynomial ordering, all orderings) per id."""
    return {sid: qpolynomial_spectra(s) for sid, s in catalogue.items()}


@pytest.fixture(scope="session")
def two_triangles():
    """Relation map of the scheme on 6 points whose R1 joins the points inside
    each of two triangles: the graph of R1 is 2K3, that of R2 is K3,3."""
    return [[0 if x == y else 1 if x // 3 == y // 3 else 2 for y in range(6)]
            for x in range(6)]
