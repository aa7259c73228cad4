"""Exact arithmetic in Q and Q[sqrt(p)]: field axioms, matrices, bounds."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge import exactnum
from schemeforge.catalogue import CATALOGUE, catalogue_scheme
from schemeforge.exactnum import (
    ExactMatrix,
    ExactPolynomial,
    FieldMismatchError,
    QuadNumber,
    bounded_algebraic_integers,
    char_poly,
    is_algebraic_integer,
    is_psd,
    minimal_polynomial,
    nullspace,
    quad_sqrt,
    rank,
    split_integer_polynomial,
    squarefree_decompose,
)
from schemeforge.graphs import enumerate_regular_graphs, named_graph
from schemeforge.schemes import _GENERIC_COEFF_VECTORS, scheme_from_graph_distances

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def quads(draw, p=None):
    if p is None:
        p = draw(radicands)
    a = draw(fractions)
    b = draw(fractions) if p > 1 else Fraction(0)
    return QuadNumber(a, b, p)


class TestQuadNumber:
    def test_rational_normalizes_radicand(self):
        assert QuadNumber(Fraction(1, 2), 0, 5).p == 1
        assert QuadNumber(3).is_rational

    def test_square_factor_extracted(self):
        x = QuadNumber(0, 1, 12)  # sqrt(12) = 2*sqrt(3)
        assert (x.p, x.b) == (3, 2)

    def test_mixed_radicands_raise(self):
        with pytest.raises(FieldMismatchError):
            QuadNumber.sqrt(2) + QuadNumber.sqrt(3)

    def test_sqrt5_arithmetic(self):
        phi = (QuadNumber(1) + QuadNumber.sqrt(5)) / QuadNumber(2)
        assert phi * phi == phi + QuadNumber(1)

    @given(quads(), quads(p=1))
    def test_rationals_embed_in_any_field(self, x, r):
        assert (x + r) - r == x

    @given(st.data(), radicands)
    @settings(max_examples=60)
    def test_field_axioms(self, data, p):
        x = data.draw(quads(p=p))
        y = data.draw(quads(p=p))
        z = data.draw(quads(p=p))
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        if y != QuadNumber(0):
            assert (x / y) * y == x

    @given(st.data(), radicands)
    @settings(max_examples=60)
    def test_order_is_total_and_exact(self, data, p):
        x = data.draw(quads(p=p))
        y = data.draw(quads(p=p))
        assert (x < y) + (y < x) + (x == y) == 1
        assert x.sign() == (x > QuadNumber(0)) - (x < QuadNumber(0))

    @given(quads())
    def test_str_parse_round_trip(self, x):
        assert QuadNumber.parse(str(x)) == x

    def test_parse_examples(self):
        assert QuadNumber.parse("-3/4") == QuadNumber(Fraction(-3, 4))
        assert QuadNumber.parse("1/2-1/2*sqrt(5)") == QuadNumber(
            Fraction(1, 2), Fraction(-1, 2), 5
        )

    def test_conjugate_fixes_rationals(self):
        x = QuadNumber(2, 3, 7)
        assert x.conjugate() == QuadNumber(2, -3, 7)
        assert (x * x.conjugate()).is_rational


class TestPolynomialsAndMatrices:
    def test_char_poly_companion(self):
        # companion matrix of t^2 - t - 1
        m = ExactMatrix([[0, 1], [1, 1]])
        assert char_poly(m) == ExactPolynomial([-1, -1, 1])

    def test_char_poly_roots_annihilate(self):
        m = ExactMatrix([[2, 1], [1, 2]])
        chi = char_poly(m)
        assert chi(QuadNumber(1)) == QuadNumber(0)
        assert chi(QuadNumber(3)) == QuadNumber(0)

    def test_rank_and_nullspace(self):
        m = ExactMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert rank(m) == 2
        basis = nullspace(m)
        assert len(basis) == 1
        v = basis[0]
        for row in m.entries:
            assert sum((c * x for c, x in zip(row, v)), QuadNumber(0)) == QuadNumber(0)

    def test_is_psd(self):
        assert is_psd(ExactMatrix([[2, -1], [-1, 2]]))
        assert not is_psd(ExactMatrix([[1, 2], [2, 1]]))
        assert is_psd(ExactMatrix([[1, 1], [1, 1]]))  # semidefinite boundary

    def test_matmul_identity(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        assert m @ ExactMatrix.identity(2) == m


class TestNumberTheory:
    def test_squarefree_decompose(self):
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)
        assert squarefree_decompose(1) == (1, 1)

    def test_minimal_polynomial(self):
        x = QuadNumber(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
        assert minimal_polynomial(x) == ExactPolynomial([-1, -1, 1])
        assert is_algebraic_integer(x)
        assert not is_algebraic_integer(QuadNumber(Fraction(1, 2)))

    def test_bounded_algebraic_integers_rational(self):
        ints = bounded_algebraic_integers(3)
        assert ints == [QuadNumber(v) for v in range(-3, 4)]

    def test_bounded_algebraic_integers_quadratic(self):
        ints = bounded_algebraic_integers(2, radicand=5)
        phi = QuadNumber(Fraction(1, 2), Fraction(1, 2), 5)
        assert phi in ints
        for x in ints:
            assert is_algebraic_integer(x)
            assert all(abs(float(c)) <= 2 + 1e-9 for c in x.conjugates())

    @pytest.mark.parametrize("k", [1, 2, Fraction(5, 2), 4])
    @pytest.mark.parametrize("p", [2, 5, 13])
    def test_bounded_algebraic_integers_complete(self, k, p):
        # every root of an integer t^2 + b t + c whose discriminant has
        # square-free part p, when both roots lie in [-k, k]
        want = {QuadNumber(v) for v in range(-int(k), int(k) + 1)}
        for b in range(-20, 21):
            for c in range(-20, 21):
                disc = b * b - 4 * c
                if disc > 0 and squarefree_decompose(disc)[1] == p:
                    roots = [QuadNumber(Fraction(-b, 2), Fraction(sg, 2), disc) for sg in (-1, 1)]
                    if all(-k <= r <= k for r in roots):
                        want.update(roots)
        assert bounded_algebraic_integers(k, radicand=p) == sorted(want)

    def test_quad_sqrt(self):
        x = QuadNumber(3, 2, 2)  # (1 + sqrt(2))^2
        s = quad_sqrt(x)
        assert s is not None and s * s == x
        assert quad_sqrt(QuadNumber(2)) is None  # sqrt(2) is not in Q
        assert quad_sqrt(QuadNumber(0, 1, 3)) is None


# -- differential tests of the integer core ---------------------------------


class FractionPairQuad:
    """Reference a + b*sqrt(p) on a pair of Fractions, with the formulas
    QuadNumber used before it moved to plain ints.  Test-only."""

    def __init__(self, a=0, b=0, p=1):
        a, b = Fraction(a), Fraction(b)
        if p > 1:
            m, p = squarefree_decompose(p)
            b *= m
        if p == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            p = 1
        self.a, self.b, self.p = a, b, p

    def _radicand(self, other):
        if self.p == other.p or other.p == 1:
            return self.p
        if self.p == 1:
            return other.p
        raise FieldMismatchError

    def __add__(self, other):
        return FractionPairQuad(self.a + other.a, self.b + other.b, self._radicand(other))

    def __neg__(self):
        return FractionPairQuad(-self.a, -self.b, self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = self._radicand(other)
        return FractionPairQuad(
            self.a * other.a + self.b * other.b * p, self.a * other.b + self.b * other.a, p
        )

    def inverse(self):
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError
        norm = self.a * self.a - self.b * self.b * self.p
        return FractionPairQuad(self.a / norm, -self.b / norm, self.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def sign(self):
        a, b, p = self.a, self.b, self.p
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        if a > 0:
            return 1 if a * a > b * b * p else -1
        return -1 if a * a > b * b * p else 1

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __eq__(self, other):
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return (self.a, self.b, self.p) == (other.a, other.b, other.p)

    def __repr__(self):
        return f"QuadNumber({self.a!r}, {self.b!r}, {self.p})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b < 0:
            return f"{self.a}-{-self.b}*sqrt({self.p})"
        return f"{self.a}+{self.b}*sqrt({self.p})"


def assert_same(q: QuadNumber, r: FractionPairQuad):
    """q equals the reference value r in value, text and normal form, and
    hashes like every QuadNumber equal to it (like its Fraction if rational)."""
    assert (q.a, q.b, q.p) == (r.a, r.b, r.p)
    assert (str(q), repr(q)) == (str(r), repr(r))
    assert hash(q) == hash(QuadNumber(r.a, r.b, r.p))
    if q.is_rational:
        assert hash(q) == hash(r.a)
    x, y, d = q._x, q._y, q._d
    assert d > 0 and gcd(x, y, d) == 1 and (y == 0) == (q.p == 1)


def outcome(op, *args):
    """op(*args), or the type of the exception it raised."""
    try:
        return op(*args)
    except (ZeroDivisionError, FieldMismatchError) as err:
        return type(err)


@st.composite
def operand_pairs(draw):
    """A QuadNumber and its reference, over Q or Q[sqrt 5] (radicands 20 and 45
    reduce to 5; 2 exercises the field mismatch), from Fraction or int input."""
    p = draw(st.sampled_from([1, 5, 20, 45, 2]))
    a = draw(fractions | st.integers(-40, 40))
    b = draw(fractions | st.integers(-40, 40)) if p > 1 else 0
    return QuadNumber(a, b, p), FractionPairQuad(a, b, p)


class TestIntegerCoreAgainstFractionPairs:
    @given(operand_pairs(), operand_pairs())
    @settings(max_examples=300)
    def test_binary_operations(self, u, v):
        (x, rx), (y, ry) = u, v
        assert_same(x, rx)
        for op in (
            lambda s, t: s + t,
            lambda s, t: s - t,
            lambda s, t: s * t,
            lambda s, t: s / t,
        ):
            got, want = outcome(op, x, y), outcome(op, rx, ry)
            if isinstance(want, FractionPairQuad):
                assert_same(got, want)
            else:
                assert got is want
        assert outcome(lambda s, t: s < t, x, y) == outcome(lambda s, t: s < t, rx, ry)
        assert (x == y) == (rx == ry)
        assert x.sign() == rx.sign()

    @given(operand_pairs(), fractions | st.integers(-40, 40))
    def test_mixed_with_rationals(self, u, c):
        x, rx = u
        rc = FractionPairQuad(c)
        assert_same(x + c, rx + rc)
        assert_same(c - x, rc - rx)
        assert_same(c * x, rc * rx)
        if c:
            assert_same(x / c, rx / rc)
        if x:
            assert_same(c / x, rc / rx)
        assert (x < c, x <= c, x > c, x >= c) == (rx < rc, not rc < rx, rc < rx, not rx < rc)
        assert (x == c) == (rx == rc)

    @given(operand_pairs())
    def test_inverse_and_round_trip(self, u):
        x, rx = u
        if x:
            assert_same(x.inverse(), rx.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        assert_same(QuadNumber.parse(str(x)), rx)
        assert QuadNumber.parse(str(x)) == x

    def test_text_and_hash_examples(self):
        for args in [(0,), (3,), (Fraction(-7, 4),), (0, 1, 5), (Fraction(1, 2), Fraction(-1, 2), 5),
                     (2, Fraction(3, 4), 12)]:
            assert_same(QuadNumber(*args), FractionPairQuad(*args))
        assert hash(QuadNumber(3)) == hash(3) == hash(Fraction(3))
        assert hash(QuadNumber(Fraction(1, 3))) == hash(Fraction(1, 3))


def _generic_char_poly_coeffs(rows):
    """Integer char-poly coefficients through the generic QuadNumber path:
    A/2 has non-integer entries and det(tI - A/2) = 2^-n det(2t I - A)."""
    n = len(rows)
    half = char_poly(ExactMatrix([[Fraction(v, 2) for v in row] for row in rows]))
    return [c * 2 ** (n - i) for i, c in enumerate(half.coeffs)]


class TestIntegerCharPoly:
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=60)
    def test_random_integer_matrices(self, rows):
        coeffs = char_poly(ExactMatrix(rows)).coeffs
        assert list(coeffs) == _generic_char_poly_coeffs(rows)

    @pytest.mark.parametrize("name", ["K3xK3", "Q4", "24-cell"])
    def test_adjacency_matrices(self, name):
        g = named_graph(name)
        rows = [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
        coeffs = char_poly(ExactMatrix(rows)).coeffs
        assert all(c.is_integer for c in coeffs)
        assert list(coeffs) == _generic_char_poly_coeffs(rows)


def _sympy_split(coeffs):
    """split_integer_polynomial's answer, read off sympy's factor_list."""
    t = sympy.Symbol("t")
    roots, leftover = [], 0
    poly = sympy.Poly(list(reversed(coeffs)), t, domain=sympy.ZZ)
    for factor, mult in poly.factor_list()[1]:
        cs = [int(c) for c in factor.all_coeffs()]
        if len(cs) == 2:
            roots.append((QuadNumber(-cs[1]), mult))
        elif len(cs) == 3 and cs[1] ** 2 - 4 * cs[2] > 0:
            _, b, c = cs
            s, p = squarefree_decompose(b * b - 4 * c)
            for sign in (1, -1):
                roots.append((QuadNumber(Fraction(-b, 2), Fraction(sign * s, 2), p), mult))
        else:
            leftover += (len(cs) - 1) * mult
    return roots, leftover


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _adjacency_coeffs(g):
    rows = [[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)]
    return [int(c.as_fraction()) for c in char_poly(ExactMatrix(rows)).coeffs]


def _scheme_combo_coeffs():
    """Char polys of the six generic intersection-matrix combinations that
    ``spectra`` tries, for each catalogue scheme and four distance schemes."""
    schemes = [catalogue_scheme(sid) for sid in sorted(CATALOGUE)] + [
        scheme_from_graph_distances(named_graph(name))
        for name in ("C7", "petersen", "icosahedron", "cube")
    ]
    out = []
    for s in schemes:
        bmats = [s.intersection_matrix(i) for i in range(s.d + 1)]
        for make in _GENERIC_COEFF_VECTORS:
            c = make(s.d)
            combo = [
                [sum(c[i] * bmats[i][h][j] for i in range(s.d + 1)) for j in range(s.d + 1)]
                for h in range(s.d + 1)
            ]
            out.append([int(x.as_fraction()) for x in char_poly(ExactMatrix(combo)).coeffs])
    return out


linear_factors = st.tuples(st.integers(-12, 12), st.integers(1, 3)).map(
    lambda rm: ([-rm[0], 1], rm[1])
)
real_quadratic_factors = st.tuples(
    st.integers(-9, 9), st.integers(-40, 40), st.integers(1, 3)
).filter(
    lambda bcm: bcm[0] ** 2 - 4 * bcm[1] > 0
    and isqrt(bcm[0] ** 2 - 4 * bcm[1]) ** 2 != bcm[0] ** 2 - 4 * bcm[1]
).map(lambda bcm: ([bcm[1], bcm[0], 1], bcm[2]))
CUBIC = [1, -3, 0, 1]  # t^3 - 3t + 1, irreducible, three real roots


class TestSplitIntegerPolynomial:
    """Differential test against sympy's factorization, the test-only oracle."""

    def test_regular_graphs_up_to_nine_vertices(self):
        count = 0
        for n in range(1, 10):
            for k in range(n):
                for g in enumerate_regular_graphs(n, k):
                    coeffs = _adjacency_coeffs(g)
                    assert split_integer_polynomial(coeffs) == _sympy_split(coeffs), g
                    count += 1
        assert count == 74

    def test_generic_scheme_combinations(self):
        polys = _scheme_combo_coeffs()
        assert len(polys) == 72
        for coeffs in polys:
            assert split_integer_polynomial(coeffs) == _sympy_split(coeffs), coeffs

    @given(st.lists(st.one_of(linear_factors, real_quadratic_factors), max_size=5),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_products_of_factors(self, factors, with_cubic):
        coeffs = [1]
        for factor, mult in factors:
            for _ in range(mult):
                coeffs = _poly_mul(coeffs, factor)
        if with_cubic:
            coeffs = _poly_mul(coeffs, CUBIC)
        assert split_integer_polynomial(coeffs) == _sympy_split(coeffs)

    @pytest.mark.parametrize("coeffs", [
        [-545, 47, 1], [-379, 14, 1], [99, -48, 1], [130400, -25969, -2443, 3, 1],
    ])
    def test_roots_near_the_bound(self, coeffs):
        # roots close to the power-of-two bound R: with isolating intervals
        # of width 2/R instead of 1/(8R), midpoint rounding misses these
        assert split_integer_polynomial(coeffs) == _sympy_split(coeffs)

    def test_examples(self):
        r5 = QuadNumber.sqrt(5)
        # (t - 2)(t^2 + t - 1)^2: the adjacency char poly of C5
        c5 = _poly_mul([-2, 1], _poly_mul([-1, 1, 1], [-1, 1, 1]))
        assert split_integer_polynomial(c5) == (
            [(QuadNumber(2), 1), ((r5 - 1) / 2, 2), ((-r5 - 1) / 2, 2)],
            0,
        )
        assert split_integer_polynomial(CUBIC) == ([], 3)
        # complex roots stay in the leftover
        assert split_integer_polynomial(_poly_mul([1, 1, 1], [-3, 1])) == (
            [(QuadNumber(3), 1)], 2,
        )
        assert split_integer_polynomial([0, 0, 1]) == ([(QuadNumber(0), 2)], 0)
        assert split_integer_polynomial([1]) == ([], 0)
        with pytest.raises(ValueError):
            split_integer_polynomial([1, 2])


# -- quad_sqrt against the Fraction-only square root it replaced -------------


def reference_quad_sqrt(x: QuadNumber) -> QuadNumber | None:
    """quad_sqrt as it was before the integer norm test.  Test-only."""
    if x.sign() < 0:
        return None
    if not x:
        return QuadNumber(0)
    a, b, p = x.a, x.b, x.p
    if b == 0:
        # either sqrt(a) rational, or sqrt(a) = t*sqrt(p) with t rational
        r = _fraction_sqrt(a)
        if r is not None:
            return QuadNumber(r, 0, 1) if p == 1 else QuadNumber(r, 0, p)
        if p > 1:
            t = _fraction_sqrt(a / p)
            if t is not None:
                return QuadNumber(0, t, p)
        return None
    # s^2 + t^2 p = a, 2 s t = b  =>  s^2 solves u^2 - a u + b^2 p / 4 = 0
    disc = a * a - b * b * p
    rd = _fraction_sqrt(disc)
    if rd is None:
        return None
    for u in ((a + rd) / 2, (a - rd) / 2):
        if u < 0:
            continue
        s = _fraction_sqrt(u)
        if s is None or s == 0:
            continue
        t = b / (2 * s)
        cand = QuadNumber(s, t, p)
        if cand * cand == x:
            return cand if cand.sign() >= 0 else -cand
    return None


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rdn = isqrt(num), isqrt(den)
    if rn * rn == num and rdn * rdn == den:
        return Fraction(rn, rdn)
    return None


def _is_pure_surd(x: QuadNumber) -> bool:
    return x.a == 0 and x.b != 0


class TestQuadSqrt:
    @settings(max_examples=300)
    @given(st.one_of(quads(), quads().map(lambda s: s * s)))
    def test_matches_reference(self, x):
        assert quad_sqrt(x) == reference_quad_sqrt(x)

    @settings(max_examples=200)
    @given(quads())
    def test_root_of_a_square(self, s):
        # a pure surd t*sqrt(p) squares to a rational, whose root quad_sqrt
        # looks for in Q only (test_diagsearch.py: TestSolveCosines)
        if _is_pure_surd(s):
            return
        assert quad_sqrt(s * s) in (s, -s)

    @settings(max_examples=200)
    @given(quads().filter(lambda x: not x.is_rational))
    def test_non_square_norm_is_rejected_on_ints(self, x):
        # the norm of a square is a rational square
        if _fraction_sqrt(x.a * x.a - x.b * x.b * x.p) is not None:
            return

        def no_fraction_root(_x):
            raise AssertionError("a non-square norm reached the Fraction path")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactnum, "_fraction_sqrt", no_fraction_root)
            assert quad_sqrt(x) is None


# -- is_psd and squarefree_decompose against the slower routines they replace


def reference_is_psd(m: ExactMatrix) -> bool:
    """Exact PSD test by sign alternation of char-poly coefficients.

    For a symmetric matrix (real spectrum) all eigenvalues are >= 0 iff
    (-1)^(n-i) * c_i >= 0 for every coefficient c_i of t^i.
    """
    if not m.is_symmetric():
        raise ValueError("is_psd requires a symmetric matrix")
    poly = char_poly(m)
    n = m.rows
    for i, c in enumerate(poly.coeffs):
        s = c.sign()
        if s != 0 and s != (1 if (n - i) % 2 == 0 else -1):
            return False
    return True


def reference_squarefree_decompose(n: int) -> tuple[int, int]:
    """Trial division by every d with d*d <= what is left."""
    m, q, d = 1, n, 2
    while d * d <= q:
        while q % (d * d) == 0:
            q //= d * d
            m *= d
        d += 1
    return m, q


# small entries, zero often, so that zero pivots occur
small_rationals = st.sampled_from([Fraction(v, d) for v in range(-3, 4) for d in (1, 2)])
small_quads = st.one_of(
    small_rationals.map(QuadNumber),
    st.tuples(small_rationals, small_rationals).map(lambda ab: QuadNumber(*ab, 5)),
)


@st.composite
def symmetric_matrices(draw, entries):
    n = draw(st.integers(1, 5))
    rows = [[QuadNumber(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    return ExactMatrix(rows)


@st.composite
def gram_matrices(draw, entries):
    """B B^T for an n x r matrix B, r <= n, so rank <= r."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n))
    b = [[draw(entries) for _ in range(r)] for _ in range(n)]
    return ExactMatrix(
        [[sum((x * y for x, y in zip(u, v)), QuadNumber(0)) for v in b] for u in b]
    )


class TestIsPsd:
    @settings(max_examples=300)
    @given(st.one_of(symmetric_matrices(small_rationals), symmetric_matrices(small_quads)))
    def test_symmetric_matrices_match_reference(self, m):
        assert is_psd(m) == reference_is_psd(m)

    @settings(max_examples=200)
    @given(st.one_of(gram_matrices(small_rationals), gram_matrices(small_quads)))
    def test_gram_matrices_are_psd(self, g):
        assert is_psd(g) and reference_is_psd(g)

    @settings(max_examples=200)
    @given(
        st.one_of(gram_matrices(small_rationals), gram_matrices(small_quads)),
        st.data(),
    )
    def test_shifted_gram_matrices_match_reference(self, g, data):
        # g - c*e_i e_i^T leaves the PSD cone exactly when c is too large
        i = data.draw(st.integers(0, g.rows - 1))
        c = data.draw(small_rationals)
        rows = [row[:] for row in g.entries]
        rows[i][i] = rows[i][i] - c
        m = ExactMatrix(rows)
        assert is_psd(m) == reference_is_psd(m)

    def test_every_classify_local_gram_matches_reference(self, monkeypatch):
        from schemeforge import localclass

        seen = []

        def recording(m):
            seen.append(m)
            return is_psd(m)

        monkeypatch.setattr(localclass, "is_psd", recording)
        localclass.classify_local()
        assert seen
        for m in seen:
            assert is_psd(m) == reference_is_psd(m)

    def test_zero_pivot_with_a_non_zero_row(self):
        assert not is_psd(ExactMatrix([[0, 1], [1, 0]]))
        # the zero pivot appears only after the first elimination step
        assert not is_psd(ExactMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
        assert is_psd(ExactMatrix([[0, 0], [0, 1]]))

    def test_asymmetric_is_rejected(self):
        with pytest.raises(ValueError):
            is_psd(ExactMatrix([[1, 1], [0, 1]]))


class TestSquarefreeDecompose:
    def test_matches_trial_division_below_20000(self):
        for n in range(1, 20000):
            assert squarefree_decompose(n) == reference_squarefree_decompose(n), n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (1000003**2 * 7, (1000003, 7)),
            (1000003 * 1000033, (1, 1000003 * 1000033)),
            (36 * 1000003 * 1000033, (6, 1000003 * 1000033)),
            (1000033**3, (1000033, 1000033)),
            (10**18 + 3, (1, 10**18 + 3)),  # prime
        ],
    )
    def test_factors_above_the_cube_root(self, n, expected):
        m, q = squarefree_decompose(n)
        assert (m, q) == expected and m * m * q == n
