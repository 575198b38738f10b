"""Exact linear algebra over the rationals and over odd prime fields.

Scalars over the rationals are plain ints while they are integral and
`fractions.Fraction` otherwise; over the p-element field they are ints in the
range 0..p-1.  No floating point is used anywhere: `FieldSpec` rejects every
other input, and every division builds a Fraction or floor-divides by an
exact divisor, never `/` on ints.
Every rank, kernel, solve and determinant goes through one sparse forward
elimination, `_reduce`, over {column: scalar} rows.  Over the rationals it
is fraction-free: a row is an int row times the rational it was scaled by,
so a rank costs int arithmetic only.  There is one back substitution,
`_solutions`, which reads the reduced row echelon form off `_reduce`'s
fraction-free pivot rows one column set at a time, dividing each value by
its row's lead once, at the end.  There is one solve, `solve_augmented`:
it eliminates the rows of [A | b_1 ... b_m], plain sums that `_reduce`
coerces as they arrive, once for all the right-hand sides and
back-substitutes the right-hand-side columns alone, never the A part of
that form.
`ExactMatrix.echelonize` back-substitutes the free columns of A the same
way, and `PreparedSolver` the I part of [A | I], for a matrix that meets
many right-hand sides one at a time.  `det` multiplies the pivot scales
`_reduce` records and needs no back substitution; `rank_and_scale` takes
their lcm, which names the primes over which an integer matrix may lose
its rational rank.
`_reduce` takes its rows last to first, for every caller: that order fills
in least (the n=2 degree-3 bar differential keeps 3,366 pivot nonzeros over
F3 where arrival order made 7,669).  Only the order of its pivots, which
`det` alone reads, and the basis of its leftover rows depend on the order.
Vectors are sparse going in and coming out: `matvec`, `PreparedSolver.solve`
and `kernel_basis` take and return {index: nonzero field-canonical scalar}
dicts, so two vectors are equal exactly when their dicts are, and
`from_columns` builds a matrix from such vectors as they are.  Dense input
is only for the literal constructor `ExactMatrix(F, rows)` and for `det`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

Scalar = Union[Fraction, int]


class UnsupportedCharacteristicError(ValueError):
    pass


# The Miller-Rabin bases 2..41, the first 13 primes, decide primality
# exactly below this bound (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017): no composite below it is a
# strong pseudoprime to all of them.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime; exact for p < _MILLER_RABIN_BOUND."""
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0  # p - 1 = d 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 1 << r, p) for r in range(s)):
            return False  # a witnesses that p is composite
    return True


class FieldSpec:
    """Ground field: the rationals (characteristic 0) or F_p with p an odd prime.

    Characteristic 2 is rejected outright: every construction in this package
    is built under the standing hypothesis that 2 is invertible in the ground
    field, and several of them divide by 2.

    Soundness of int scalars over Q: an integral rational is held as a plain
    int, any other as a Fraction.  Python's mixed int/Fraction arithmetic is
    exact, and every division builds a Fraction, as `inv` builds
    `Fraction(1, a)`, never `1 / a`, which would be a float for an int a
    (`_reduce` floor-divides only by exact divisors).  So every value stays
    exact, and since `Fraction(k) == k` with equal hashes, every rank, pivot,
    solve and comparison is what all-Fraction arithmetic gives.  Only the
    serialized form tells the two apart, so certificates write scalars
    through `export`.

    Soundness of coercing once.  The exact kernels sum plain ints and
    Fractions and coerce each sum once.  Over F_p that equals adding the
    coerced terms in the field, since reduction mod p is a ring map on the
    rationals with denominators prime to p, the only ones that arise.  Over
    Q the values are equal too; an integral sum comes back an int where
    field addition could leave an integral Fraction, which compares and
    hashes equal, and `export` writes both alike.
    """

    # not a named tuple: each scalar coercion calls an instance, in the
    # innermost loops
    __slots__ = ("characteristic",)

    # the same ints in every characteristic; class attributes, not fields
    zero = 0
    one = 1

    def __init__(self, characteristic: int = 0):
        c = characteristic
        if c == 2:
            raise UnsupportedCharacteristicError(
                "characteristic 2 is unsupported: the engine assumes 2 is "
                "invertible in the ground field"
            )
        if c >= _MILLER_RABIN_BOUND:
            raise UnsupportedCharacteristicError(
                f"characteristic must lie below {_MILLER_RABIN_BOUND}, where "
                f"primality is decided exactly, got {c}"
            )
        if c != 0 and not _is_prime(c):
            raise UnsupportedCharacteristicError(
                f"characteristic must be 0 or an odd prime, got {c}"
            )
        object.__setattr__(self, "characteristic", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldSpec is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FieldSpec is read-only: cannot delete {name!r}")

    def __eq__(self, other):
        if type(other) is not FieldSpec:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    # -- scalar arithmetic ------------------------------------------------

    def __call__(self, x) -> Scalar:
        """Coerce an int or Fraction into a canonical scalar of this field.

        Any other input raises TypeError: a float may not be exact, and an int
        subclass such as bool is taken for a slip rather than a scalar.
        """
        p = self.characteristic
        if type(x) is int:
            return x % p if p else x
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
            if not p:
                return num if den == 1 else x
            if den % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return num * pow(den, -1, p) % p
        raise TypeError(f"{type(x).__name__} {x!r} is not an exact scalar")

    def export(self, x) -> Scalar:
        """x as a certificate writes it: a Fraction over Q, an int over F_p."""
        return x if self.characteristic else Fraction(x)

    def add(self, a, b):
        return a + b if self.characteristic == 0 else (a + b) % self.characteristic

    def sub(self, a, b):
        return a - b if self.characteristic == 0 else (a - b) % self.characteristic

    def mul(self, a, b):
        return a * b if self.characteristic == 0 else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        q = Fraction(1, a)
        return q.numerator if q.denominator == 1 else q

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


# -- the one elimination ------------------------------------------------------
#
# Soundness: every routine below reads its answer off `_reduce`, which takes
# pivots in a fill-reducing row order, last row first (Markowitz 1957; Duff,
# Erisman and Reid, "Direct Methods for Sparse Matrices").  The reduced row
# echelon form of a matrix is unique: its pivot columns are the leftmost
# columns independent of those before them, and each of its rows is fixed by
# them.  So the pivot columns, the kernel basis (one vector per free column)
# and the echelon-canonical solution (free variables zero) do not depend on
# the elimination order, and nothing serialized from them can move with it.
# What can move is the order of `pivots`, which only `det` reads (for the
# sign of the row permutation), and the basis of `rest`, whose span, the
# rows with vanishing part below `ncols`, does not move.


def _axpy(row: dict, f, prow: dict, lead, p: int):
    """row -= f * prow in place, skipping prow's leading column `lead`."""
    for k, v in prow.items():
        if k != lead:
            x = row.get(k, 0) - f * v
            if p:
                x %= p
            if x:
                row[k] = x
            else:
                del row[k]


def _reduce(rows: Iterable[dict], F: FieldSpec, ncols: Optional[int] = None):
    """Fraction-free forward elimination of {column: scalar} rows over F.

    The rows are taken last to first.  Each is coerced into F, reduced
    against the pivot rows found so far (keyed by leading column) and kept
    as a new pivot row if anything is left.  Only columns below `ncols` (any
    column when None) may carry a pivot; a row whose part below `ncols`
    vanishes while entries remain beyond it goes to `rest`.

    Over Q every row is held as an int row times a rational: a row with
    fractions is cleared of its denominators on arrival, and `mult` records
    the factor the row has been scaled by since.  A new pivot row is made
    primitive with a positive lead a.  Reducing a row whose entry at that
    column is b replaces it by (a/g)*row - (b/g)*pivot, g = gcd(a, b), and
    multiplies its mult by a/g.  Over F_p pivot rows are normalized to lead
    1 on arrival, so there, as for every pivot of lead 1 over Q, the step is
    row -= b*pivot.  A row of ints is taken as it comes, and a lead of +-1
    needs no gcd, so unit-lead eliminations pay no bookkeeping per row.

    Returns (pivots, rest) in that form: pivots maps each pivot column, in
    the order found, to (lead, row, num, den), where row has leading entry
    lead and the reduced row it stands for has leading entry num/den; rest
    holds (mult, row) pairs.  Ranks read the pivots off directly, with no
    division; `_solutions` divides only the values it returns, and `det`
    only the scales num/den.

    Soundness: scaling a row by a nonzero rational keeps its support, so it
    meets the same pivots in the same order, and it keeps the row space of
    the rows processed so far, so the rank and the pivot columns are those
    of the all-Fraction elimination.  At every step a row is a nonzero
    rational multiple of the row that elimination holds (mult while it is
    reduced), so dividing each pivot row by its lead gives that
    elimination's normalized rows, dividing each `rest` row by its mult
    gives its `rest` rows, and num/den is its scale: `det` multiplies the
    same exact scales.  The reduced row echelon form is unique besides, so
    every row built on these comes out byte-identical.
    """
    p = F.characteristic
    pivots: dict = {}
    rest = []
    for row in reversed(list(rows)):
        mult = 1
        if p:
            row = {c: x for c, v in row.items()
                   if (x := v % p if type(v) is int else F(v))}
        elif all(type(v) is int for v in row.values()):
            row = {c: v for c, v in row.items() if v}
        else:
            row = {c: x for c, v in row.items() if (x := F(v))}
            mult = lcm(*(x.denominator for x in row.values() if type(x) is not int))
            row = {c: x * mult if type(x) is int else x.numerator * (mult // x.denominator)
                   for c, x in row.items()}
        while row:
            c = min(row)
            if ncols is not None and c >= ncols:
                rest.append((mult, row))
                break
            hit = pivots.get(c)
            if hit is None:
                lead = num = row[c]
                if p:
                    if lead != 1:
                        inv = pow(lead, -1, p)
                        row = {k: inv * v % p for k, v in row.items()}
                        lead = 1
                elif lead != 1:
                    # the content divides the lead: a lead of -1 needs no gcd
                    g = 1 if lead == -1 else gcd(*row.values())
                    if lead < 0:
                        g = -g
                    if g != 1:
                        row = {k: v // g for k, v in row.items()}
                        lead //= g
                pivots[c] = (lead, row, num, mult)
                break
            a = hit[0]
            b = row.pop(c)
            if a != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                if a != 1:
                    row = {k: a * v for k, v in row.items()}
                    mult *= a
            _axpy(row, b, hit[1], c, p)
    return pivots, rest


def _quotient(x: int, d: int) -> Scalar:
    """x / d over Q for ints x and d != 0; an int when d divides x."""
    return x // d if x % d == 0 else Fraction(x, d)


def det(rows: Sequence[Sequence], field: FieldSpec) -> Scalar:
    """Exact determinant of a square matrix given as dense rows.

    The all-Fraction elimination only adds multiples of earlier rows to
    later ones, which keeps the determinant, and leaves row i with leading
    entry scale_i in pivot column c_i.  `_reduce` records that scale as
    num/den, which undoes the scaling of its fraction-free rows.  Sorted by
    pivot column the rows are triangular, so the determinant is the product
    of the scales times the sign of i -> c_i.  `_reduce` takes the rows last
    to first, so its pivot columns, reversed, are c_0, c_1, ...
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, _ = _reduce((dict(enumerate(row)) for row in rows), field)
    if len(pivots) < n:
        return field.zero
    d = field.one
    for _, _, num, den in pivots.values():
        d = field.mul(d, _quotient(num, den))
    cols = list(pivots)[::-1]  # every row gave a pivot: this is row order
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return field(-d if inversions % 2 else d)


def sparse_rank(row_dicts: Iterable[dict], field: FieldSpec) -> int:
    """Rank of a matrix given as an iterable of {column: scalar} rows.

    Columns may be any mutually comparable keys.  Exact over either kind of
    field; suited to the large, very sparse differential matrices.
    """
    return len(_reduce(row_dicts, field)[0])


def rank_mod_p(rows: Sequence[dict], p: int) -> int:
    """Rank over F_p of an integer matrix given as {column: int} rows."""
    return sparse_rank(rows, FieldSpec(p))


def rank_and_scale(rows: Iterable[dict]) -> Tuple[int, int]:
    """(rank over Q, scale) of an integer matrix given as {column: int} rows.

    The scale is the lcm of the leads `num` that `_reduce`'s pivot rows had
    before they were made primitive (1 for the zero matrix).  Over every
    prime field F_p with p not dividing it the rank is the same.

    Soundness: an integer matrix has rank_p <= rank_Q, since a minor that
    vanishes over Q vanishes mod p.  Each pivot row `_reduce` keeps is an
    integer combination of the input rows, divided only by the contents g
    of pivot rows (it is reduced by (a/g')*row - (b/g')*pivot, g' = gcd(a,
    b), in ints), and each g divides its pivot's num.  The pivot rows are in
    echelon form with leads num/g.  So if p divides no num, they stay
    p-integral combinations of the input rows with leads nonzero mod p:
    reduced mod p they are rank_Q independent rows of the row space over
    F_p, and rank_p >= rank_Q.
    """
    pivots, _ = _reduce(rows, FieldSpec(0))
    return len(pivots), lcm(*(num for _, _, num, _ in pivots.values()))


class EchelonForm(namedtuple("EchelonForm", "rank pivot_columns reduced")):
    """The result of `echelonize`: the rank, the pivot columns in order and
    the reduced matrix."""

    __slots__ = ()


class ExactMatrix:
    """Sparse matrix with exact entries over one FieldSpec.

    `rows[i]` is a {column: scalar} dict holding the nonzero entries of row
    i, the format `_reduce` eliminates.  Immutable by convention: the
    reduction routines return fresh objects, and the column view `columns`
    stays valid once built.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_columns")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence]):
        """A literal matrix from dense rows."""
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(row) != self.ncols for row in rows):
            raise ValueError("ragged rows")
        self.rows = [{j: fx for j, x in enumerate(row) if (fx := field(x)) != 0}
                     for row in rows]
        self._columns = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, field: FieldSpec, nrows: int, ncols: int, rows: list,
              columns: Optional[list] = None) -> "ExactMatrix":
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows, m._columns = field, nrows, ncols, rows, columns
        return m

    @classmethod
    def from_entries(cls, field: FieldSpec, nrows: int, ncols: int,
                     entries: Iterable[tuple]) -> "ExactMatrix":
        """Assemble from (row, column, value) triples, summed in the field.

        Each cell is summed as plain numbers and coerced into the field once.
        Entries that cancel are dropped, so two assemblies of one matrix
        compare equal however their terms were split.
        """
        rows: list = [{} for _ in range(nrows)]
        for i, j, x in entries:
            row = rows[i]
            row[j] = row.get(j, 0) + x
        return cls._wrap(field, nrows, ncols,
                         [{j: fx for j, x in row.items() if (fx := field(x)) != 0}
                          for row in rows])

    @classmethod
    def from_columns(cls, field: FieldSpec, nrows: int,
                     columns: Sequence[dict]) -> "ExactMatrix":
        """The matrix whose column j is columns[j], a canonical sparse vector.

        Each column is a {row: nonzero field-canonical scalar} dict, as every
        producer of vectors makes it, and is taken as it is: nothing is
        summed or coerced, and the columns seed the column view.
        """
        columns = list(columns)
        return cls._wrap(field, nrows, len(columns), _by_column(columns, nrows), columns)

    # -- basic ops ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    @property
    def columns(self) -> list:
        """The columns as {row: scalar} dicts: those `from_columns` was given,
        or else built from the rows on first use."""
        if self._columns is None:
            self._columns = _by_column(self.rows, self.ncols)
        return self._columns

    def matvec(self, v: dict) -> dict:
        """self @ v for a sparse {column: scalar} v, as a sparse {row: scalar}."""
        return _accumulate(self.columns, v, self.field)

    def is_zero(self) -> bool:
        return not any(self.rows)

    # -- elimination -------------------------------------------------------

    def echelonize(self) -> EchelonForm:
        """Reduced row echelon form; the zero rows come last."""
        F = self.field
        pivots, _ = _reduce(self.rows, F)
        x = _solutions(pivots, 0, F)
        cols = sorted(pivots)
        rows = [{c: F.one, **x.get(c, {})} for c in cols]
        rows += [{} for _ in range(self.nrows - len(cols))]
        return EchelonForm(rank=len(cols), pivot_columns=tuple(cols),
                           reduced=ExactMatrix._wrap(F, self.nrows, self.ncols, rows))

    def rank(self) -> int:
        return len(_reduce(self.rows, self.field)[0])

    def kernel_basis(self) -> list:
        """Basis of the right kernel as sparse {column: scalar} vectors; one
        vector per free column, ascending."""
        ech = self.echelonize()
        F = self.field
        pivot_rows = list(zip(ech.pivot_columns, ech.reduced.rows))
        free = sorted(set(range(self.ncols)).difference(ech.pivot_columns))
        return [{fc: F.one, **{pc: F.neg(row[fc]) for pc, row in pivot_rows if fc in row}}
                for fc in free]

    def solve_many(self, columns: Sequence[dict]) -> list:
        """Echelon-canonical solutions of self @ x = b for sparse {row:
        scalar} columns b, as `solve_augmented` gives them."""
        n = self.ncols
        aug = [dict(row) for row in self.rows]
        for j, col in enumerate(columns):
            for i, x in col.items():
                aug[i][n + j] = x
        return solve_augmented(aug, n, len(columns), self.field)


def solve_augmented(rows: Sequence[dict], n: int, m: int, F: FieldSpec) -> list:
    """Echelon-canonical solutions of A x = b_j from the rows of [A | b_1 ... b_m].

    Each row is a {column: number} dict, column n+j holding b_j; its entries
    may be any ints and Fractions, zeros among them, since `_reduce` coerces
    every row into F as it arrives.  Each solution is a {column: scalar}
    dict of its nonzero entries (free variables zero), or None where that
    b_j is inconsistent.  One elimination serves every column.  Its
    leftover rows, those whose A part vanished, span the values y.b_j over
    the left kernel y of A, so b_j is inconsistent exactly when one of them
    is nonzero at n+j.  For a consistent b_j = A x a reduced row r = y A of
    the reduced row echelon form carries y.b_j = r.x there, which does not
    depend on y: so column n+j of that form is the pivot part of the
    echelon-canonical solution, the same whatever the other columns are.

    Only those columns are back-substituted (`_solutions`): the A part of
    the form is never built.
    """
    pivots, rest = _reduce(rows, F, n)
    bad = {k - n for _, row in rest for k in row}
    x = _solutions(pivots, n, F)
    out = [{} if j not in bad else None for j in range(m)]
    for c in sorted(x):
        for j, v in x[c].items():
            if j not in bad:
                out[j][c] = v
    return out


def _solutions(pivots: dict, n: int, F: FieldSpec) -> dict:
    """The only back substitution: right-hand-side columns from `_reduce` pivots.

    A right-hand-side column is any column k >= n that carries no pivot;
    column k is b_j for j = k - n.  Returns {pivot column c: {j: x_c for b_j}}
    over the nonzero values, free variables zero, each field-canonical (an
    integral rational as an int), as `FieldSpec.__call__` makes it.

    With n the width of A, as `solve_augmented` eliminates
    [A | b_1 ... b_m] with pivots below n, every pivot lies in A and x_c is
    the pivot part of the echelon-canonical solution for b_j.  Soundness:
    the pivot row of c, divided by its lead, is e_c + (entries at later
    columns of A) + (entries at the b_j).  The later pivot columns are
    solved first (descending order), the free ones are zero, so
    x_c = (b part - sum over the later pivot columns k of a_k x_k) / lead is
    the value the reduced row echelon form carries at column n+j of the row
    of c: that form is unique, and its row of c is this row with the later
    pivot rows subtracted out.  Over Q the row is held fraction-free, so the
    one division by its lead comes last.

    With n = 0, as `ExactMatrix.echelonize` calls it, every free column k
    of A is a right-hand side.  The same induction, with the entries at the
    free columns in place of the b part, makes x[c][k] the entry at column k
    of the row of c in the reduced row echelon form of A; that row is e_c
    plus these entries, since it vanishes at every other pivot column.
    """
    p = F.characteristic
    x: dict = {}
    for c in sorted(pivots, reverse=True):
        lead, row, _, _ = pivots[c]
        acc: dict = {}
        for k, a in row.items():
            if k >= n and k not in pivots:
                acc[k - n] = acc.get(k - n, 0) + a
            elif (xk := x.get(k)) is not None:
                for j, v in xk.items():
                    acc[j] = acc.get(j, 0) - a * v
        if p:
            # every pivot row over F_p has lead 1
            vals = {j: r for j, s in acc.items() if (r := s % p)}
        else:
            vals = {j: _quotient(s, lead) if type(s) is int else F(s / lead)
                    for j, s in acc.items() if s}
        if vals:
            x[c] = vals
    return x


def _by_column(rows: Sequence[dict], ncols: int) -> list:
    """The {column: scalar} rows as ncols {row: scalar} columns; the same
    transpose takes sparse columns to rows, given the number of rows."""
    cols: list = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j][i] = a
    return cols


def _accumulate(columns: list, v: dict, F: FieldSpec) -> dict:
    """(matrix with these columns) @ v for a sparse v, as a sparse dict.

    Each entry is summed as a plain number and coerced into F once; the sums
    that cancel are dropped.
    """
    acc: dict = {}
    for j, x in v.items():
        for i, a in columns[j].items():
            acc[i] = acc.get(i, 0) + a * x
    return {i: fs for i, s in acc.items() if (fs := F(s))}


class PreparedSolver:
    """Repeated exact solves against one fixed matrix.

    The reduction of [A | I] is computed once.  Its first `rank` transform
    rows map b to the pivot variables; the rest span the left kernel of A,
    and b is consistent exactly when they all vanish on it.  Solutions are
    echelon-canonical (free variables zero), identical to `solve_augmented`'s,
    and sparse going in and out: b is a {row: scalar} dict and a solution a
    {pivot column: scalar} dict of its nonzero entries.
    """

    def __init__(self, matrix: "ExactMatrix"):
        F = matrix.field
        n = matrix.ncols
        self.field = F
        pivots, rest = _reduce(
            ({**row, n + i: F.one} for i, row in enumerate(matrix.rows)), F, n)
        x = _solutions(pivots, n, F)
        self.pivots = sorted(pivots)
        self.rank = len(self.pivots)
        # a leftover row is read only by its zero test, which scaling by a
        # nonzero rational keeps, so over Q it is not divided by its mult
        rows = [x.get(c, {}) for c in self.pivots]
        rows += [{k - n: v for k, v in row.items()} for _, row in rest]
        self._ntransform = len(rows)
        self._columns = _by_column(rows, matrix.nrows)

    @property
    def transform(self) -> list:
        """The transform as {b index: scalar} rows, rebuilt from its columns."""
        return _by_column(self._columns, self._ntransform)

    def solve(self, b: dict) -> Optional[dict]:
        """The solution for a sparse b, or None where b is inconsistent."""
        y = _accumulate(self._columns, b, self.field)
        if any(r >= self.rank for r in y):
            return None
        return {self.pivots[r]: v for r, v in y.items()}
