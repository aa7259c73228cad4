"""Exact scalar and matrix arithmetic over Q and real quadratic fields Q[sqrt(p)].

Every eigenvalue, cosine, Krein parameter and Gram entry in this package is a
QuadNumber; no floating point enters any decision anywhere.  Floats appear only
through ``float()`` conversions used by sanity tests.

A QuadNumber is stored as four plain ints, (x + y*sqrt(p))/d with d > 0,
gcd(x, y, d) = 1, p square-free, and p = 1 exactly when y = 0; this form is
unique, so equality and hashing compare fields.  Arithmetic stays on ints and
reduces by one gcd; ``Fraction`` appears only at the public constructor and in
the ``a``/``b`` views.  ``char_poly`` of a matrix whose entries are all rational
integers (adjacency matrices, integer combinations of intersection matrices)
runs Faddeev-LeVerrier on Python ints, where every division is exact;
any other matrix takes the generic QuadNumber path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, p: int) -> "QuadNumber":
        return cls(0, 1, p)

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

    def conjugates(self) -> tuple["QuadNumber", ...]:
        if not self._y:
            return (self,)
        return (self, self.conjugate())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not QuadNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = _common_radicand(self, other)
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
        p = _common_radicand(self, other)
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
        p = _common_radicand(self, other)
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

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadNumber(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        p = _common_radicand(self, other)
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

    def __float__(self):
        return float(self.a) + float(self.b) * self._p ** 0.5

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


def _common_radicand(u: QuadNumber, v: QuadNumber) -> int:
    p, q = u._p, v._p
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


ZERO = QuadNumber(0)
ONE = QuadNumber(1)


def as_quad(x) -> QuadNumber:
    if isinstance(x, QuadNumber):
        return x
    return QuadNumber(x)


class ExactPolynomial:
    """Polynomial with QuadNumber coefficients, ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [as_quad(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> QuadNumber:
        x = as_quad(x)
        acc = QuadNumber(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ExactPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            parts.append(f"({c})*t^{i}" if i else f"({c})")
        return " + ".join(parts)


class ExactMatrix:
    """Dense matrix of QuadNumbers."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        grid = [[as_quad(x) for x in row] for row in entries]
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged matrix")
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        self.entries = grid

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

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

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = as_quad(c)
        return ExactMatrix(
            [[x * c for x in row] for row in self.entries]
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out.append(
                [
                    sum((x * y for x, y in zip(row, col)), QuadNumber(0))
                    for col in ot
                ]
            )
        return ExactMatrix(out)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self @ other
        return self.scale(other)

    __rmul__ = scale

    def trace(self) -> QuadNumber:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), QuadNumber(0))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def __repr__(self):
        return f"ExactMatrix({[[str(x) for x in row] for row in self.entries]})"


def char_poly(m: ExactMatrix) -> ExactPolynomial:
    """Monic characteristic polynomial det(tI - m), exact (Faddeev-LeVerrier).

    A matrix of rational integers runs the recurrence on Python ints."""
    if m.rows != m.cols:
        raise ValueError("char_poly requires a square matrix")
    n = m.rows
    if n == 0:
        return ExactPolynomial([1])
    if all(not x._y and x._d == 1 for row in m.entries for x in row):
        return ExactPolynomial(_int_char_poly([[x._x for x in row] for row in m.entries]))
    coeffs = [QuadNumber(0)] * (n + 1)
    coeffs[n] = QuadNumber(1)
    mk = m
    ck = QuadNumber(1)
    for k in range(1, n + 1):
        if k > 1:
            shifted = ExactMatrix(
                [
                    [
                        mk.entries[i][j] + (ck if i == j else QuadNumber(0))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            )
            mk = m @ shifted
        ck = mk.trace() * Fraction(-1, k)
        coeffs[n - k] = ck
    return ExactPolynomial(coeffs)


def _int_char_poly(a: list[list[int]]) -> list[int]:
    """Faddeev-LeVerrier over Z: M_1 = A, M_k = A (M_(k-1) + c_(n-k+1) I) and
    c_(n-k) = -tr(M_k)/k, which is an integer for an integer matrix A."""
    n = len(a)
    coeffs = [0] * n + [1]
    mk, ck = a, 1
    for k in range(1, n + 1):
        if k > 1:
            shifted = [row[:] for row in mk]
            for i in range(n):
                shifted[i][i] += ck
            cols = list(zip(*shifted))
            mk = [[sum(map(mul, row, col)) for col in cols] for row in a]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(
                f"Faddeev-LeVerrier over Z: trace of M_{k} is not divisible by {k}"
            )
        coeffs[n - k] = ck
    return coeffs


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
    todo = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    out = []
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a < width:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _variations(chain, mid)
        todo += [(a, va, mid, vm), (mid, vm, b, vb)]
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


def _floor_fraction(x: Fraction) -> int:
    return x.numerator // x.denominator


def bounded_algebraic_integers(k: RationalLike, radicand: int = 1) -> list[QuadNumber]:
    """All algebraic integers of Q (radicand 1) or Q[sqrt(p)] with minimal
    polynomial degree <= 2 whose conjugates all lie in [-k, k].

    Rational case: the integers in [-k, k].  Quadratic case additionally the
    roots of t^2 + b t + c (b, c integers) with positive non-square
    discriminant whose square-free part is the radicand, both roots in [-k, k].
    """
    k = Fraction(k)
    if k <= 0:
        raise ValueError("k must be positive")
    hi = _floor_fraction(k)
    out = [QuadNumber(i) for i in range(-hi, hi + 1)]
    if radicand == 1:
        return out
    _, p = squarefree_decompose(radicand)
    if p == 1:
        raise ValueError("radicand must not be a perfect square")
    bmax = _floor_fraction(2 * k)
    kq = QuadNumber(k)
    for b in range(-bmax, bmax + 1):
        # roots of t^2 + b t + c in [-k, k]: need f(-k) >= 0, f(k) >= 0,
        # vertex -b/2 in [-k, k], and positive discriminant b^2 - 4c
        cmin_a = -k * k + k * b
        cmin_b = -k * k - k * b
        cmin = max(cmin_a, cmin_b)
        clo = cmin.numerator // cmin.denominator
        if clo < cmin:
            clo += 1
        chi = (b * b - 1) // 4  # discriminant > 0
        for c in range(clo, chi + 1):
            disc = b * b - 4 * c
            if disc <= 0 or disc % p:
                continue
            # the square-free part of disc is p iff disc/p is a square
            m = isqrt(disc // p)
            if m * m * p != disc:
                continue
            root_hi = _make(-b, m, 2, p)
            root_lo = _make(-b, -m, 2, p)
            if -kq <= root_lo and root_hi <= kq:
                out.extend([root_lo, root_hi])
    out.sort()
    return out


def minimal_polynomial(x: QuadNumber) -> ExactPolynomial:
    """Monic minimal polynomial of x over Q."""
    if x.is_rational:
        return ExactPolynomial([-x.a, 1])
    tr = 2 * x.a
    nrm = x.a * x.a - x.b * x.b * x.p
    return ExactPolynomial([nrm, -tr, 1])


def is_algebraic_integer(x: QuadNumber) -> bool:
    poly = minimal_polynomial(x)
    return all(c.is_integer for c in poly.coeffs)


def quad_sqrt(x: QuadNumber) -> QuadNumber | None:
    """A square root of x inside its own field Q[sqrt(p)], or None.

    Solves (s + t*sqrt(p))^2 = a + b*sqrt(p) exactly.
    """
    if x.sign() < 0:
        return None
    if not x:
        return QuadNumber(0)
    if not x._y:
        r = _fraction_sqrt(x.as_fraction())
        return None if r is None else QuadNumber(r)
    # s^2 + t^2 p = a, 2 s t = b  =>  s^2 solves u^2 - a u + b^2 p / 4 = 0,
    # whose discriminant a^2 - b^2 p = (x^2 - y^2 p)/d^2 must be a rational
    # square: decided on ints before any Fraction is built
    norm = x._x * x._x - x._y * x._y * x._p
    if norm < 0:
        return None
    r = isqrt(norm)
    if r * r != norm:
        return None
    a, b, p = x.a, x.b, x.p
    rd = Fraction(r, x._d)
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
