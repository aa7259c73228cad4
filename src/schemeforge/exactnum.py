"""Exact scalar and matrix arithmetic over Q and real quadratic fields Q[sqrt(p)].

Every eigenvalue, cosine, Krein parameter and Gram entry in this package is a
QuadNumber; no floating point enters any decision anywhere.

A QuadNumber is stored as four plain ints, (x + y*sqrt(p))/d with d > 0,
gcd(x, y, d) = 1, p square-free, and p = 1 exactly when y = 0; this form is
unique, so equality and hashing compare fields.  Arithmetic stays on ints and
reduces by one gcd; ``Fraction`` appears only at the public constructor and in
the ``a``/``b`` views.  ``char_poly`` takes integer matrices only (adjacency
matrices, integer combinations of intersection matrices): it runs
Faddeev-LeVerrier on Python ints, where every division is exact, and returns
int coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]


class FieldMismatchError(ValueError):
    """Arithmetic between two distinct quadratic fields is a hard error."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (m, q) with n = m**2 * q and q square-free.  Requires n >= 1."""
    if n < 1:
        raise ValueError("radicand must be positive")
    # trial division while d**3 <= rest; every prime factor of what is left
    # then exceeds its cube root, so rest is 1, p, p**2 or p*q
    m, q, rest, d = 1, 1, n, 2
    while d * d * d <= rest:
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        m *= d ** (e // 2)
        q *= d ** (e % 2)
        d += 1 if d == 2 else 2
    r = isqrt(rest)
    if r * r == rest:
        return m * r, q
    return m, q * rest


class QuadNumber:
    """Element (x + y*sqrt(p))/d of Q[sqrt(p)], p square-free (p = 1 means Q).

    The fields hold the normal form described in the module docstring; the
    read-only views ``a`` and ``b`` give the value as a + b*sqrt(p) with
    ``Fraction`` coefficients.
    """

    __slots__ = ("_x", "_y", "_d", "_p")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, p: int = 1):
        if type(a) is int and type(b) is int:
            x, y, d = a, b, 1
        else:
            a = Fraction(a)
            b = Fraction(b)
            d = lcm(a.denominator, b.denominator)
            x = a.numerator * (d // a.denominator)
            y = b.numerator * (d // b.denominator)
        if p < 1:
            raise ValueError("radicand must be >= 1")
        if p > 1:
            m, p = squarefree_decompose(p)
            y *= m
        if p == 1:
            x, y = x + y, 0
        g = gcd(x, y, d)
        self._x, self._y, self._d = x // g, y // g, d // g
        self._p = p if y else 1

    # -- views and predicates ----------------------------------------------

    @property
    def a(self) -> Fraction:
        """Rational part of a + b*sqrt(p)."""
        return Fraction(self._x, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(p) in a + b*sqrt(p)."""
        return Fraction(self._y, self._d)

    @property
    def p(self) -> int:
        return self._p

    @property
    def is_rational(self) -> bool:
        return not self._y

    @property
    def is_integer(self) -> bool:
        return not self._y and self._d == 1

    def as_fraction(self) -> Fraction:
        if self._y:
            raise ValueError(f"{self} is not rational")
        return Fraction(self._x, self._d)

    def conjugate(self) -> "QuadNumber":
        return _make(self._x, -self._y, self._d, self._p)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = _common_radicand(self._p, other._p)
        d, e = self._d, other._d
        if d == e:
            return _make(self._x + other._x, self._y + other._y, d, p)
        return _make(self._x * e + other._x * d, self._y * e + other._y * d, d * e, p)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._x, -self._y, self._d, self._p)

    def __sub__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = _common_radicand(self._p, other._p)
        d, e = self._d, other._d
        if d == e:
            return _make(self._x - other._x, self._y - other._y, d, p)
        return _make(self._x * e - other._x * d, self._y * e - other._y * d, d * e, p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = _common_radicand(self._p, other._p)
        x, y, u, v = self._x, self._y, other._x, other._y
        return _make(x * u + y * v * p, x * v + y * u, self._d * other._d, p)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        x, y, d = self._x, self._y, self._d
        if not x and not y:
            raise ZeroDivisionError("division by zero QuadNumber")
        # d/(x + y sqrt p) = d (x - y sqrt p) / norm, norm != 0 for p square-free
        norm = x * x - y * y * self._p
        if norm < 0:
            norm, d = -norm, -d
        return _make(d * x, -d * y, norm, self._p)

    def __truediv__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        u, e = other._x, other._d
        if other._y or not u:
            return self * other.inverse()
        if u < 0:
            u, e = -u, -e
        return _make(self._x * e, self._y * e, self._d * u, self._p)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- comparisons (exact) ----------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(p)."""
        return _sign(self._x, self._y, self._p)

    def _cmp(self, other):
        """Sign of self - other, or NotImplemented for a foreign type."""
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = _common_radicand(self._p, other._p)
        d, e = self._d, other._d
        return _sign(self._x * e - other._x * d, self._y * e - other._y * d, p)

    def __lt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s >= 0

    def __eq__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self._x == other._x
            and self._y == other._y
            and self._d == other._d
            and self._p == other._p
        )

    def __hash__(self):
        if not self._y:
            return hash(self._x) if self._d == 1 else hash(self.a)
        return hash((self._x, self._y, self._d, self._p))

    def __bool__(self):
        return bool(self._x or self._y)

    # -- conversions -------------------------------------------------------

    def __repr__(self):
        return f"QuadNumber({self.a!r}, {self.b!r}, {self._p})"

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        if b < 0:
            return f"{a}-{-b}*sqrt({self._p})"
        return f"{a}+{b}*sqrt({self._p})"

    @classmethod
    def parse(cls, text: str) -> "QuadNumber":
        """Inverse of ``str``: 'a/b' or 'a/b+c/d*sqrt(p)' (also with '-')."""
        text = text.strip()
        if "sqrt" not in text:
            return cls(Fraction(text))
        head, tail = text.split("*sqrt(", 1)
        p = int(tail.rstrip(")"))
        # split head into rational part and sqrt coefficient at the last +/-
        # that is not inside the leading sign or a fraction
        for i in range(len(head) - 1, 0, -1):
            if head[i] in "+-" and head[i - 1] not in "+-/":
                a = Fraction(head[:i])
                sgn = -1 if head[i] == "-" else 1
                b = sgn * Fraction(head[i + 1:])
                return cls(a, b, p)
        return cls(0, Fraction(head), p)


_new = object.__new__


def _make(x: int, y: int, d: int, p: int) -> QuadNumber:
    """(x + y*sqrt(p))/d in normal form; requires d > 0 and p square-free."""
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    q = _new(QuadNumber)
    q._x = x
    q._y = y
    q._d = d
    q._p = p if y else 1
    return q


def _coerce(v):
    if isinstance(v, QuadNumber):
        return v
    if isinstance(v, int):
        return _make(int(v), 0, 1, 1)
    if isinstance(v, Fraction):
        return _make(v.numerator, 0, v.denominator, 1)
    return NotImplemented


def _common_radicand(p: int, q: int) -> int:
    """The radicand of a sum or product of values of radicands p and q."""
    if p == q or q == 1:
        return p
    if p == 1:
        return q
    raise FieldMismatchError(f"mixed radicands: sqrt({p}) vs sqrt({q})")


def _sign(x: int, y: int, p: int) -> int:
    """Exact sign of x + y*sqrt(p), for p square-free or y = 0."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    # opposite signs: x^2 = y^2 p is impossible (sqrt(p) is irrational)
    return 1 if (x * x > y * y * p) == (x > 0) else -1


class ExactPolynomial:
    """Polynomial with int coefficients, ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)})"


class ExactMatrix:
    """Dense matrix of QuadNumbers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [
            [x if isinstance(x, QuadNumber) else QuadNumber(x) for x in row]
            for row in entries
        ]
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged matrix")
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        self.entries = grid

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def __repr__(self):
        return f"ExactMatrix({[[str(x) for x in row] for row in self.entries]})"


def char_poly(m: ExactMatrix) -> ExactPolynomial:
    """Monic characteristic polynomial det(tI - A) of a square integer matrix
    A, by ``integer_char_poly``.

    Raises ValueError if an entry is not a rational integer."""
    if m.rows != m.cols:
        raise ValueError("char_poly requires a square matrix")
    if not all(x.is_integer for row in m.entries for x in row):
        raise ValueError("char_poly requires an integer matrix")
    return ExactPolynomial(integer_char_poly([[x._x for x in row] for row in m.entries]))


def integer_char_poly(a: Sequence[Sequence[int]]) -> list[int]:
    """Ascending coefficients of det(tI - A) for a square int matrix A, by
    Faddeev-LeVerrier over Z: M_1 = A, M_k = A (M_(k-1) + c_(n-k+1) I) and
    c_(n-k) = -tr(M_k)/k, which is an integer for an integer matrix A.

    Row i of A M is the sum of the rows j of M with weight a_ij != 0, so a
    sparse A (an adjacency matrix: weights 1 over the neighbours) costs one
    row addition per non-zero entry."""
    n = len(a)
    support = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    coeffs = [0] * n + [1]
    mk, ck = [list(row) for row in a], 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += ck
            mk = [_row_combination(mk, terms, n) for terms in support]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(
                f"Faddeev-LeVerrier over Z: trace of M_{k} is not divisible by {k}"
            )
        coeffs[n - k] = ck
    return coeffs


def _row_combination(rows: list[list[int]], terms: list[tuple[int, int]], n: int) -> list[int]:
    """The sum of x * rows[j] over the (j, x) of terms, as a new row."""
    out = [0] * n
    for j, x in terms:
        row = rows[j]
        out = list(map(add, out, row)) if x == 1 else [o + x * y for o, y in zip(out, row)]
    return out


def _rref(m: ExactMatrix) -> tuple[list[list[QuadNumber]], list[int]]:
    """Reduced row echelon form over the field, with its pivot columns."""
    grid = [row[:] for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if grid[i][c]), None)
        if pivot is None:
            continue
        grid[r], grid[pivot] = grid[pivot], grid[r]
        inv = grid[r][c].inverse()
        grid[r] = [x * inv for x in grid[r]]
        for i in range(rows):
            if i != r and grid[i][c]:
                f = grid[i][c]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
    return grid, pivots


def rank(m: ExactMatrix) -> int:
    """Exact rank via Gaussian elimination over the field."""
    return len(_rref(m)[1])


def nullspace(m: ExactMatrix) -> list[list[QuadNumber]]:
    """Basis of the right nullspace, exact."""
    grid, pivots = _rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        vec = [QuadNumber(0)] * m.cols
        vec[fc] = QuadNumber(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -grid[pr][fc]
        basis.append(vec)
    return basis


def is_psd(m: ExactMatrix) -> bool:
    """Exact PSD test by symmetric Gaussian elimination, O(n^3).

    With pivot d = a[i][i], the matrix is PSD iff d > 0 and the Schur
    complement of d is PSD, or d = 0, row i is zero and the rest is PSD.
    A negative pivot, or a zero pivot with a non-zero entry in its row,
    therefore refutes it."""
    if not m.is_symmetric():
        raise ValueError("is_psd requires a symmetric matrix")
    a = [row[:] for row in m.entries]
    n = m.rows
    for i in range(n):
        d = a[i][i]
        if d < 0:
            return False
        if not d:
            if any(a[i][j] for j in range(i + 1, n)):
                return False
            continue
        for j in range(i + 1, n):
            if a[i][j]:
                f = a[i][j] / d
                for l in range(j, n):
                    a[j][l] -= f * a[i][l]
    return True


def split_integer_polynomial(
    coeffs: Sequence[int],
) -> tuple[list[tuple[QuadNumber, int]], int]:
    """Roots in Q and in real quadratic fields of a monic integer polynomial.

    ``coeffs`` are ascending.  Returns ``(roots, leftover)``: ``roots`` holds
    (root, multiplicity) once per integer root, and twice per irreducible
    factor t^2 + b*t + c with positive discriminant, the larger root first;
    ``leftover`` is the degree of what remains (irreducible factors of degree
    >= 3, and quadratics without real roots).  Factors come in the usual
    order of a factorization: by degree, then multiplicity, then coefficients
    from the leading one down.

    Every root has modulus below a power of two R.  The integer roots divide
    the constant term and are stripped by exact division.  The rest has no
    rational root, so Sturm sequences at dyadic points isolate each of its
    distinct real roots in an interval narrower than 1/(8R).  The midpoints
    m, m' of the intervals of the roots of t^2 + b*t + c give
    b = -round(m + m') and c = round(m*m'), each off by less than 1/8; so
    every pair of intervals names one candidate, kept if it divides exactly.
    A kept candidate is irreducible, as the rest has no rational root, and
    by those error bounds its discriminant exceeds -1, so it is positive.
    """
    f = list(coeffs)
    if not f or f[-1] != 1:
        raise ValueError("need a monic polynomial")
    r_max = _root_bound(f)
    linear = []  # (multiplicity, -root): the sort key of the factor t - root
    f, m = _strip(f, [0, 1])
    if m:
        linear.append((m, 0))
    for r in range(1, r_max):
        if len(f) == 1:
            break
        for root in (r, -r):
            if f[0] % root == 0:
                f, m = _strip(f, [-root, 1])
                if m:
                    linear.append((m, -root))
    quadratic = []  # (multiplicity, b, c)
    mids = [(a + b) / 2 for a, b in _isolate_real_roots(f, r_max)]
    for i, u in enumerate(mids):
        for v in mids[i + 1:]:
            b, c = -round(u + v), round(u * v)
            f, m = _strip(f, [c, b, 1])
            if m:
                quadratic.append((m, b, c))
    roots = [(QuadNumber(-neg), m) for m, neg in sorted(linear)]
    for m, b, c in sorted(quadratic):
        s, p = squarefree_decompose(b * b - 4 * c)
        roots += [(_make(-b, s, 2, p), m), (_make(-b, -s, 2, p), m)]
    return roots, len(f) - 1


def _root_bound(f: list[int]) -> int:
    """Least power of two R with R^n > sum of |f_i| R^i over i < n; by
    Cauchy's bound every root of the monic f has modulus below R."""
    n = len(f) - 1
    r = 1
    while r ** n <= sum(abs(c) * r ** i for i, c in enumerate(f[:-1])):
        r *= 2
    return r


def _strip(f: list[int], d: list[int]) -> tuple[list[int], int]:
    """(f / d^m, m) for the largest m with d^m dividing f; d is monic."""
    k = len(d) - 1
    m = 0
    while len(f) > k:
        rem = f[:]
        quot = [0] * (len(f) - k)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = rem[i + k]
            for j in range(k):
                rem[i + j] -= c * d[j]
        if any(rem[:k]):
            break
        f, m = quot, m + 1
    return f, m


def _isolate_real_roots(f: list[int], r_max: int) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b] narrower than 1/(8 r_max), one around each distinct
    real root of f, which has no rational root and no root of modulus
    r_max or more; a and b are dyadic, so f never vanishes there."""
    chain = _sturm_chain(f)
    width = Fraction(1, 8 * r_max)
    lo, hi = Fraction(-r_max), Fraction(r_max)
    pending = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    out = []
    while pending:
        a, va, b, vb = pending.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a < width:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _variations(chain, mid)
        pending += [(a, va, mid, vm), (mid, vm, b, vb)]
    return out


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f', then minus each remainder, every term scaled by a positive
    rational to primitive integer coefficients (signs are all that count)."""
    chain = [f, [i * c for i, c in enumerate(f)][1:]]
    while len(chain[-1]) > 1:
        rem = [Fraction(c) for c in chain[-2]]
        div = chain[-1]
        while len(rem) >= len(div):
            c = rem[-1] / div[-1]
            shift = len(rem) - len(div)
            for j, x in enumerate(div):
                rem[shift + j] -= c * x
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        scale = lcm(*(x.denominator for x in rem))
        ints = [-int(x * scale) for x in rem]
        g = gcd(*ints)
        chain.append([x // g for x in ints])
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    num, den = x.numerator, x.denominator
    signs = []
    for h in chain:
        acc, scale = 0, 1  # den^(deg h) * h(x), by Horner
        for c in reversed(h):
            acc = acc * num + c * scale
            scale *= den
        if acc:
            signs.append(acc > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def bounded_algebraic_integers(k: int, radicand: int = 1) -> list[QuadNumber]:
    """All algebraic integers of Q (radicand 1) or Q[sqrt(p)] with minimal
    polynomial degree <= 2 whose conjugates all lie in [-k, k], sorted and
    distinct.

    Rational case: the integers in [-k, k].  Quadratic case additionally
    every lambda = (x + y*sqrt(p))/2 with y != 0 and x = y (mod 2), x and y
    even unless p = 1 (mod 4); its conjugates (x +- y*sqrt(p))/2 lie in
    [-k, k] exactly when |x| + |y|*sqrt(p) <= 2k.

    They are sorted by the int floor(4k*lambda), which strictly increases:
    two distinct candidates differ by a non-zero algebraic integer whose
    conjugate is at most 2k, and so by at least 1/(2k).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if radicand == 1:
        return [QuadNumber(i) for i in range(-k, k + 1)]
    _, p = squarefree_decompose(radicand)
    if p == 1:
        raise ValueError("radicand must not be a perfect square")
    n = 2 * k  # 4k*lambda = n*(x + y*sqrt(p))
    keyed = [(2 * n * i, QuadNumber(i)) for i in range(-k, k + 1)]
    step = 1 if p % 4 == 1 else 2
    for x in range(-n, n + 1):
        if x % step:
            continue
        # |y|*sqrt(p) <= 2k - |x|, which no y meets with equality
        top = n - abs(x)
        for y in range(2 - x % 2, isqrt(top * top // p) + 1, 2):
            r = isqrt(n * n * y * y * p)  # floor(n*y*sqrt(p)), never exact
            keyed.append((n * x + r, _make(x, y, 2, p)))
            keyed.append((n * x - r - 1, _make(x, -y, 2, p)))
    keyed.sort(key=lambda pair: pair[0])
    return [lam for _key, lam in keyed]


def candidate_radicands(k1: int) -> list[int]:
    """Square-free parts p >= 2 of discriminants D of monic integer
    quadratics t^2 + b t + c whose roots both lie in [-k1, k1]: the possible
    splitting fields.

    The roots (-b +- sqrt(D))/2 lie in [-k1, k1] iff |b| + sqrt(D) <= 2k1,
    and D = b^2 (mod 4).  b = 0 gives every D = 4m with m <= k1^2, and an
    even b != 0 no more; an odd b gives D = 1 (mod 4) with sqrt(D) <= 2k1 - 1,
    whose square-free part is again 1 (mod 4), and b = 1 reaches each such
    D.  So p qualifies iff p <= k1^2, or p = 1 (mod 4) and p <= (2k1 - 1)^2.
    """
    return [
        p for p in range(2, (2 * k1 - 1) ** 2 + 1)
        if (p <= k1 * k1 or p % 4 == 1) and squarefree_decompose(p)[0] == 1
    ]


def is_algebraic_integer(x: QuadNumber) -> bool:
    """Is x = (u + v*sqrt(p))/d, in normal form, an algebraic integer?  A
    rational x must be an integer; otherwise the minimal polynomial
    t^2 - (2u/d)*t + (u^2 - p*v^2)/d^2 must have integer coefficients."""
    u, v, d = x._x, x._y, x._d
    if not v:
        return d == 1
    return 2 * u % d == 0 and (u * u - x._p * v * v) % (d * d) == 0


def quad_sqrt(x: QuadNumber) -> QuadNumber | None:
    """A square root of x inside its own field Q[sqrt(p)], or None.

    Solves (s + t*sqrt(p))^2 = (X + Y*sqrt(p))/d exactly, on ints.  A rational
    X/d, in lowest terms, is a square iff X and d are.  Otherwise
    s^2 + t^2 p = X/d and 2 s t = Y/d, so s^2 solves
    u^2 - (X/d) u + Y^2 p/(4 d^2) = 0, whose discriminant (X^2 - Y^2 p)/d^2
    must be a rational square r^2/d^2, and s^2 = (X +- r)/(2d).  At most one
    sign makes s rational, as the two values of s^2 multiply to Y^2 p/(4 d^2),
    which is no rational square.  With n = 2d(X +- r) = m^2, s = m/(2d) and
    t = Y/m, so the root is (n + 2dY*sqrt(p))/(2dm), taken non-negative."""
    X, Y, d, p = x._x, x._y, x._d, x._p
    if _sign(X, Y, p) < 0:
        return None
    if not Y:
        r, e = isqrt(X), isqrt(d)
        return _make(r, 0, e, 1) if r * r == X and e * e == d else None
    norm = X * X - Y * Y * p
    if norm < 0:
        return None
    r = isqrt(norm)
    if r * r != norm:
        return None
    for n in (2 * d * (X + r), 2 * d * (X - r)):
        m = isqrt(n) if n > 0 else 0
        if m and m * m == n:
            root = _make(n, 2 * d * Y, 2 * d * m, p)
            return root if root.sign() >= 0 else -root
    return None
