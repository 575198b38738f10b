import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj_hh.exactla import (EchelonForm, ExactMatrix, FieldSpec, PreparedSolver,
                                UnsupportedCharacteristicError, _MILLER_RABIN_BOUND, _axpy,
                                _by_column, _is_prime, _quotient, _reduce, det,
                                rank_and_scale, rank_mod_p, sparse_rank)
from conftest import dense, sparse

QQ = FieldSpec(0)
F5 = FieldSpec(5)
BIG_P = 4294967311  # the first prime above 2**32: products of residues overflow int64


def _reference_rank(rows, F):
    """Textbook dense forward elimination, kept apart from the package's."""
    m = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = F.inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            f = F.mul(m[i][c], inv)
            m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _cofactor_det(rows, F):
    if not rows:
        return F.one
    total = F.zero
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = F.mul(F(a), _cofactor_det(minor, F))
        total = F.sub(total, term) if j % 2 else F.add(total, term)
    return total


def _entries(m):
    """The matrix read back entry by entry, as dense rows."""
    return [[m.rows[i].get(j, 0) for j in range(m.ncols)] for i in range(m.nrows)]


def _transpose(m):
    return ExactMatrix.from_entries(m.field, m.ncols, m.nrows,
                                    ((j, i, x) for i, row in enumerate(m.rows)
                                     for j, x in row.items()))


def _solve(m, b):
    """Echelon-canonical dense solution of m @ x = b for a dense b, or None:
    one column of `solve_many`."""
    sol = m.solve_many([sparse(b)])[0]
    return None if sol is None else dense(sol, m.ncols)


def _typed_items(vec):
    """The sparse vector as sorted (index, type, value) triples."""
    return sorted((k, type(v), v) for k, v in vec.items())


def test_field_validation():
    assert FieldSpec(0).characteristic == 0
    assert FieldSpec(3).characteristic == 3
    with pytest.raises(UnsupportedCharacteristicError, match="characteristic 2"):
        FieldSpec(2)
    with pytest.raises(UnsupportedCharacteristicError):
        FieldSpec(9)
    with pytest.raises(UnsupportedCharacteristicError):
        FieldSpec(-3)


def _reference_is_prime(n):
    """Trial division, kept apart from the package's test."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def test_primality_agrees_with_trial_division_below_10_5():
    assert [n for n in range(-3, 10 ** 5) if _is_prime(n) != _reference_is_prime(n)] == []


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_strong_pseudoprimes_to_small_bases_are_composite(n):
    # strong pseudoprimes to the bases 2..7, 2..31 and 2..37 in turn
    assert not _is_prime(n)
    with pytest.raises(UnsupportedCharacteristicError):
        FieldSpec(n)


def test_large_primes_are_fields_up_to_the_exact_bound():
    for p in (2 ** 61 - 1, BIG_P, 3317044064679887385961813):
        assert _is_prime(p) and FieldSpec(p).characteristic == p
    # the bound is the least strong pseudoprime to every base 2..41, so
    # Miller-Rabin on those bases takes it for a prime: no field is made
    # there or above
    assert _is_prime(_MILLER_RABIN_BOUND)
    for c in (_MILLER_RABIN_BOUND, 2 ** 89 - 1):
        with pytest.raises(UnsupportedCharacteristicError, match="below"):
            FieldSpec(c)


def test_fields_are_equal_by_characteristic_and_read_only():
    assert FieldSpec(3) == FieldSpec(3) and hash(FieldSpec(3)) == hash(FieldSpec(3))
    assert FieldSpec() == FieldSpec(0) and hash(FieldSpec()) == hash(FieldSpec(0))
    assert FieldSpec(3) != FieldSpec(5) and FieldSpec(0) != FieldSpec(3)
    assert FieldSpec(3) != 3
    assert len({FieldSpec(3), FieldSpec(3), FieldSpec(5), FieldSpec(0)}) == 3
    F = FieldSpec(3)
    with pytest.raises(AttributeError):
        F.characteristic = 5
    with pytest.raises(AttributeError):
        del F.characteristic
    with pytest.raises(AttributeError):
        F.extra = 1
    assert F.characteristic == 3 and F(7) == 1


def test_scalar_coercion():
    assert QQ(3) == Fraction(3)
    assert F5(7) == 2
    assert F5(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ZeroDivisionError):
        F5(Fraction(1, 5))


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("x", [1.5, 0.1, 2.0, "1", None, complex(1, 0), True])
def test_scalar_coercion_rejects_inexact_input(char, x):
    with pytest.raises(TypeError):
        FieldSpec(char)(x)


def test_rational_inverse_is_exact_and_integral_where_it_can_be():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_export_writes_rationals_as_fractions():
    assert type(QQ.export(1)) is Fraction and QQ.export(1) == 1
    assert QQ.export(Fraction(1, 2)) == Fraction(1, 2)
    assert type(F5.export(3)) is int and F5.export(3) == 3


def test_echelonize_identity_and_zero():
    assert ExactMatrix(QQ, [[1, 0], [0, 1]]).echelonize().rank == 2
    assert ExactMatrix.from_entries(QQ, 3, 4, ()).echelonize().rank == 0


def test_from_entries_sums_and_drops_entries_that_cancel():
    plain = ExactMatrix.from_entries(QQ, 2, 3, [(0, 1, 2), (1, 2, 1)])
    assert plain == ExactMatrix(QQ, [[0, 2, 0], [0, 0, 1]])
    cancelled = ExactMatrix.from_entries(
        QQ, 2, 3, [(0, 1, 2), (1, 0, 3), (1, 2, 1), (1, 0, -3)])
    assert cancelled == plain
    split = ExactMatrix.from_entries(QQ, 2, 3, [(0, 1, 1), (1, 2, 1), (0, 1, 1)])
    assert split == plain
    # 2 + 3 vanishes mod 5 but not over Q
    terms = [(0, 0, 2), (0, 0, 3)]
    assert ExactMatrix.from_entries(F5, 1, 2, terms) == ExactMatrix.from_entries(F5, 1, 2, ())
    assert ExactMatrix.from_entries(F5, 1, 2, terms).is_zero()
    assert ExactMatrix.from_entries(QQ, 1, 2, terms) == ExactMatrix(QQ, [[5, 0]])
    # the shape belongs to the matrix even where every entry is zero
    assert ExactMatrix.from_entries(QQ, 2, 3, ()) != ExactMatrix.from_entries(QQ, 2, 4, ())
    assert ExactMatrix.from_entries(QQ, 2, 3, ()) != ExactMatrix.from_entries(QQ, 3, 3, ())


def test_rank_of_c_matrix_mod_5():
    # the multiplication-by-y matrix for two vertices drops to rank 1 when
    # the characteristic divides 2n+1 = 5
    m5 = ExactMatrix(F5, [[-2, 1], [1, -3]])
    assert m5.rank() == 1
    m0 = ExactMatrix(QQ, [[-2, 1], [1, -3]])
    assert m0.rank() == 2


def test_kernel_basis_examples():
    assert ExactMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_basis() == []
    kb = ExactMatrix.from_entries(QQ, 2, 2, ()).kernel_basis()
    assert kb == [{0: 1}, {1: 1}]
    kb = ExactMatrix(QQ, [[1, 1]]).kernel_basis()
    assert len(kb) == 1
    v = dense(kb[0], 2)
    assert v[0] == -v[1] != 0  # spans (1, -1)


def test_solve_examples():
    ident = ExactMatrix(QQ, [[1, 0], [0, 1]])
    assert _solve(ident, [3, 4]) == [3, 4]
    assert _solve(ExactMatrix.from_entries(QQ, 2, 2, ()), [1, 0]) is None
    assert _solve(ExactMatrix(QQ, [[2]]), [1]) == [Fraction(1, 2)]


matrix_strategy = st.integers(min_value=1, max_value=5).flatmap(
    lambda nr: st.integers(min_value=1, max_value=5).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4),
                     min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))

field_strategy = st.sampled_from([0, 3, 5, 7])


@given(rows=matrix_strategy, char=field_strategy)
@settings(max_examples=120, deadline=None)
def test_rank_transpose_and_kernel_count(rows, char):
    F = FieldSpec(char)
    m = ExactMatrix(F, rows)
    r = m.rank()
    assert r == _transpose(m).rank()
    kb = m.kernel_basis()
    assert m.ncols == r + len(kb)
    for v in kb:
        assert m.matvec(v) == {}


@given(rows=matrix_strategy, char=field_strategy, data=st.data())
@settings(max_examples=100, deadline=None)
def test_solve_consistency(rows, char, data):
    F = FieldSpec(char)
    m = ExactMatrix(F, rows)
    x = [F(data.draw(st.integers(min_value=-4, max_value=4)))
         for _ in range(m.ncols)]
    b = m.matvec(sparse(x))
    s = _solve(m, dense(b, m.nrows))
    assert s is not None
    assert m.matvec(sparse(s)) == b
    s2 = PreparedSolver(m).solve(b)
    assert s2 == sparse(s)


small_ints = st.integers(min_value=-4, max_value=4)


@given(rows=matrix_strategy, char=field_strategy, data=st.data())
@settings(max_examples=150, deadline=None)
def test_prepared_solve_matches_solve(rows, char, data):
    F = FieldSpec(char)
    m = ExactMatrix(F, rows)
    # an arbitrary right-hand side is often inconsistent, and then both must
    # say None; an image m @ x never is
    b = [F(x) for x in data.draw(st.lists(small_ints, min_size=m.nrows,
                                          max_size=m.nrows))]
    x = [F(x) for x in data.draw(st.lists(small_ints, min_size=m.ncols,
                                          max_size=m.ncols))]
    forward = PreparedSolver(m)
    for rhs in (b, dense(m.matvec(sparse(x)), m.nrows)):
        want = _solve(m, rhs)
        assert forward.solve(sparse(rhs)) == (None if want is None else sparse(want))
        if want is not None:
            assert dense(m.matvec(sparse(want)), m.nrows) == rhs
    assert forward.solve(m.matvec(sparse(x))) is not None


@given(rows=matrix_strategy, char=field_strategy, data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_storage_matches_dense_reference(rows, char, data):
    F = FieldSpec(char)
    m = ExactMatrix(F, rows)
    dense_rows = [[F(x) for x in row] for row in rows]
    nc = len(rows[0])
    assert _entries(m) == dense_rows
    assert m.is_zero() == all(x == 0 for row in dense_rows for x in row)
    assert _entries(_transpose(m)) == [list(col) for col in zip(*dense_rows)]
    v = [F(x) for x in data.draw(st.lists(small_ints, min_size=nc, max_size=nc))]
    assert m.matvec(sparse(v)) == sparse(F(sum(a * x for a, x in zip(row, v)))
                                         for row in dense_rows)
    # shifting entries by 0, 1 or the characteristic: equal exactly when the
    # dense rows agree in F
    shifts = st.sampled_from([0, 0, 1, char])
    twin = [[x + data.draw(shifts) for x in row] for row in rows]
    assert (ExactMatrix(F, twin) == m) == ([[F(x) for x in row] for row in twin] == dense_rows)


@given(rows=matrix_strategy, char=field_strategy)
@settings(max_examples=80, deadline=None)
def test_sparse_rank_matches_dense(rows, char):
    F = FieldSpec(char)
    m = ExactMatrix(F, rows)
    row_dicts = [{j: x for j, x in enumerate(row) if x != 0} for row in rows]
    assert sparse_rank(iter(row_dicts), F) == m.rank() == _reference_rank(rows, F)
    if char:
        assert rank_mod_p(row_dicts, char) == m.rank()


@given(rows=matrix_strategy)
@settings(max_examples=120, deadline=None)
def test_rank_and_scale_gives_the_rank_over_every_prime_off_the_scale(rows):
    # the rational rank holds mod every prime that divides no pivot scale;
    # a prime that does divide one may lose rank, never gain it
    row_dicts = [{j: x for j, x in enumerate(row) if x != 0} for row in rows]
    rank, scale = rank_and_scale(row_dicts)
    assert rank == sparse_rank(row_dicts, QQ) and scale >= 1
    for p in (3, 5, 7, 11, 13):
        rank_p = rank_mod_p(row_dicts, p)
        assert rank_p == rank if scale % p else rank_p <= rank


def test_rank_and_scale_examples():
    assert rank_and_scale([]) == (0, 1)
    assert rank_and_scale([{0: 2}, {1: 3}]) == (2, 6)
    assert rank_mod_p([{0: 2}, {1: 3}], 3) == 1
    # taken last to first, [0, 1] then [3, 1] leave the pivot 3, and mod 3
    # the rank drops; [3, 1] then [1, 0] leave it too, but the rank holds:
    # a prime dividing the scale only marks where to eliminate again
    assert rank_and_scale([{0: 3, 1: 1}, {1: 1}]) == (2, 3)
    assert rank_mod_p([{0: 3, 1: 1}, {1: 1}], 3) == 1
    assert rank_and_scale([{0: 1}, {0: 3, 1: 1}]) == (2, 3)
    assert rank_mod_p([{0: 1}, {0: 3, 1: 1}], 3) == 2
    assert rank_and_scale([{0: 3, 1: 1}, {0: 1}]) == (2, 1)


def test_rank_mod_p_near_a_large_prime():
    # rank-2 products U V mod p: the residues are the size of p, so every
    # elimination step multiplies two numbers whose product exceeds 64 bits
    rng = random.Random(0)
    F = FieldSpec(BIG_P)
    for _ in range(200):
        u = [[rng.randrange(BIG_P // 2, BIG_P) for _ in range(2)] for _ in range(5)]
        v = [[rng.randrange(BIG_P // 2, BIG_P) for _ in range(6)] for _ in range(2)]
        rows = [{j: sum(a * b for a, b in zip(ur, col)) % BIG_P
                 for j, col in enumerate(zip(*v))} for ur in u]
        assert rank_mod_p(rows, BIG_P) == sparse_rank(rows, F) == 2


square_strategy = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(rows=square_strategy, char=field_strategy)
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_expansion(rows, char):
    F = FieldSpec(char)
    d = det(rows, F)
    assert d == _cofactor_det(rows, F)
    assert (d == 0) == (_reference_rank(rows, F) < len(rows))


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2]], QQ)


rationals = st.one_of(small_ints, st.fractions(min_value=-4, max_value=4,
                                               max_denominator=4))


def _exact_scalars(values):
    return all(type(x) in (int, Fraction) for x in values)


@given(x=rationals)
def test_rational_coercion_is_int_exactly_when_integral(x):
    y = QQ(x)
    assert y == x
    assert (type(y) is int) == (Fraction(x).denominator == 1)
    assert type(y) in (int, Fraction)


@given(rows=st.integers(min_value=1, max_value=4).flatmap(
           lambda nr: st.integers(min_value=1, max_value=4).flatmap(
               lambda nc: st.lists(st.lists(rationals, min_size=nc, max_size=nc),
                                   min_size=nr, max_size=nr))),
       data=st.data())
@settings(max_examples=120, deadline=None)
def test_rational_results_hold_only_ints_and_fractions(rows, data):
    # int scalars over Q are sound only while no float creeps in: every
    # result is an int or a Fraction, never a float
    m = ExactMatrix(QQ, rows)
    pivots, _ = _divided(*_reduce(m.rows, QQ))
    for scale, row in pivots.values():
        assert _exact_scalars([scale, *row.values()])
    x = data.draw(st.lists(rationals, min_size=m.ncols, max_size=m.ncols))
    b = m.matvec(sparse(x))
    assert _exact_scalars(b.values())
    s = _solve(m, dense(b, m.nrows))
    assert s is not None and _exact_scalars(s)
    for solution in (sparse(s), PreparedSolver(m).solve(b)):
        assert solution is not None and _exact_scalars(solution.values())
        assert m.matvec(solution) == b
    for v in m.kernel_basis():
        assert _exact_scalars(v.values())
    k = min(m.nrows, m.ncols)
    square = [row[:k] for row in rows[:k]]
    assert _exact_scalars([det(square, QQ)])


# -- the all-Fraction back substitution, kept as the reference ---------------------
#
# `_reduce`'s output divided out into the normalized pivot rows and scales of
# an all-Fraction elimination (`_divided`), and the reduced row echelon form
# back-substituted from those over every column (`_back_substitute`).  The
# echelon forms, prepared solvers and determinants the package reads off
# `_reduce` through `_solutions` alone must agree with these.


def _divide(row, d):
    """row / d over Q for an int row and an int d != 0; ints stay ints."""
    if d == 1:
        return row
    return {k: v // d if v % d == 0 else Fraction(v, d) for k, v in row.items()}


def _divided(pivots, rest):
    """`_reduce`'s output divided out, as an all-Fraction elimination has it.

    Returns (pivots, rest): pivots maps each pivot column, in the order
    found, to (scale, row), where row is the reduced row divided by its
    leading entry `scale`; rest lists the reduced rows left beyond `ncols`.
    """
    return ({c: (_quotient(num, den), _divide(row, lead))
             for c, (lead, row, num, den) in pivots.items()},
            [_divide(row, mult) for mult, row in rest])


def _back_substitute(pivots, F):
    """Reduced row echelon form, {pivot column: row} ascending, from `_divided` pivots."""
    rref = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c][1]
        for k in [k for k in row if k in rref]:
            _axpy(row, row.pop(k), rref[k], k, F.characteristic)
        rref[c] = row
    return dict(reversed(rref.items()))


def _reference_echelonize(m):
    F = m.field
    rref = _back_substitute(_divided(*_reduce(m.rows, F))[0], F)
    rows = list(rref.values()) + [{} for _ in range(m.nrows - len(rref))]
    return EchelonForm(rank=len(rref), pivot_columns=tuple(rref),
                       reduced=ExactMatrix._wrap(F, m.nrows, m.ncols, rows))


def _reference_kernel_basis(m):
    F, ech = m.field, _reference_echelonize(m)
    basis = []
    for fc in range(m.ncols):
        if fc in ech.pivot_columns:
            continue
        v = [F.zero] * m.ncols
        v[fc] = F.one
        for pc, row in zip(ech.pivot_columns, ech.reduced.rows):
            if fc in row:
                v[pc] = F.neg(row[fc])
        basis.append(v)
    return basis


class _ReferencePreparedSolver(PreparedSolver):
    """The transform of [A | I] read off its full reduced row echelon form."""

    def __init__(self, matrix):
        F, n = matrix.field, matrix.ncols
        self.field = F
        pivots, rest = _divided(*_reduce(
            ({**row, n + i: F.one} for i, row in enumerate(matrix.rows)), F, n))
        rref = _back_substitute(pivots, F)
        self.rank, self.pivots = len(rref), list(rref)
        rows = list(rref.values()) + rest
        self._ntransform = len(rows)
        self._columns = _by_column(
            [{k - n: v for k, v in row.items() if k >= n} for row in rows], matrix.nrows)


def _reference_reduce(rows, ncols=None):
    """`_reduce` and `_divided` over Q the textbook way, in Fractions only.

    Same pivot order as the package's: the rows are taken last to first, and
    each in turn is reduced against the normalized pivot rows found so far
    and, if a leading entry below `ncols` remains, divided by it and kept.
    """
    pivots, rest = {}, []
    for row in reversed(rows):
        row = {c: Fraction(v) for c, v in row.items() if v != 0}
        while row:
            c = min(row)
            if ncols is not None and c >= ncols:
                rest.append(row)
                break
            if c not in pivots:
                pivots[c] = (row[c], {k: v / row[c] for k, v in row.items()})
                break
            f, prow = row[c], pivots[c][1]
            for k, v in prow.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return pivots, rest


# leads of every size and sign, and fractions of several denominators
lead_heavy = st.one_of(st.integers(min_value=-9, max_value=9),
                       st.fractions(min_value=-5, max_value=5, max_denominator=6))

rational_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda nr: st.integers(min_value=1, max_value=6).flatmap(
        lambda nc: st.lists(st.lists(lead_heavy, min_size=nc, max_size=nc),
                            min_size=nr, max_size=nr)))


@given(rows=rational_matrix, data=st.data())
@settings(max_examples=200, deadline=None)
def test_fraction_free_reduce_matches_all_fraction_elimination(rows, data):
    nc = len(rows[0])
    ncols = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=nc)))
    dicts = [dict(enumerate(row)) for row in rows]
    raw_pivots, raw_rest = _reduce(dicts, QQ, ncols)
    # the elimination itself runs in ints: int rows, positive int leads
    for lead, row, num, den in raw_pivots.values():
        assert type(lead) is int and lead > 0 and row[min(row)] == lead
        assert all(type(v) is int for v in row.values())
        assert type(num) is int and type(den) is int and den > 0
    for mult, row in raw_rest:
        assert type(mult) is int and all(type(v) is int for v in row.values())
    pivots, rest = _divided(raw_pivots, raw_rest)
    want_pivots, want_rest = _reference_reduce(dicts, ncols)
    # pivot order, scales and normalized rows, compared as ordered items
    assert list(pivots.items()) == list(want_pivots.items())
    assert rest == want_rest
    # integral values come out as ints, as FieldSpec holds them
    for scale, row in pivots.values():
        for x in [scale, *row.values()]:
            assert type(x) is int or x.denominator != 1
    # the input rows are left as they were
    assert dicts == [dict(enumerate(row)) for row in rows]


rational_square = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(lead_heavy, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(rows=rational_square)
@settings(max_examples=100, deadline=None)
def test_rational_det_matches_cofactor_expansion(rows):
    assert det(rows, QQ) == _cofactor_det(rows, QQ)
    ints = [[int(x) for x in row] for row in rows]
    assert det(ints, QQ) == _cofactor_det(ints, QQ)


def _count_fractions(monkeypatch):
    """Count every Fraction constructed from now on, arithmetic results too."""
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return made


NON_UNIT_PIVOTS = [[2, 3, 5, 7], [3, 2, 7, 5], [5, 7, 2, 3], [4, 6, 10, 14]]


def test_integer_ranks_over_q_construct_no_fraction(monkeypatch):
    # the elimination takes pivots of lead 2, 5 and 52, whose normalized rows
    # would hold fractions: a rank must not build any of them
    leads = sorted(lead for lead, *_ in _reduce(
        [dict(enumerate(row)) for row in NON_UNIT_PIVOTS], QQ)[0].values())
    assert leads[-1] > 1
    m = ExactMatrix(QQ, NON_UNIT_PIVOTS)
    rows = [dict(enumerate(row)) for row in NON_UNIT_PIVOTS]
    made = _count_fractions(monkeypatch)
    assert sparse_rank(rows, QQ) == m.rank() == 3
    assert made == []
    # the count sees a rational rank
    assert sparse_rank([{0: Fraction(1, 2)}], QQ) == 1 and made


@given(rows=matrix_strategy)
@settings(max_examples=80, deadline=None)
def test_random_integer_ranks_over_q_construct_no_fraction(rows):
    want = _reference_rank(rows, QQ)
    dicts = [{j: x for j, x in enumerate(row) if x} for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        made = _count_fractions(mp)
        assert sparse_rank(dicts, QQ) == want
        assert made == []


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("bad", [1.5, 2.0, 0.0, True, False])
def test_inexact_entries_still_raise_in_every_elimination(char, bad):
    # entries reach `_reduce` uncoerced: ints are taken inline, anything
    # else goes through FieldSpec, which refuses floats and bools
    F = FieldSpec(char)
    rows = [{0: 1, 1: 2}, {0: Fraction(1, 2), 1: bad}]
    with pytest.raises(TypeError):
        sparse_rank(rows, F)
    raw = ExactMatrix._wrap(F, 2, 2, rows)
    with pytest.raises(TypeError):
        raw.rank()
    with pytest.raises(TypeError):
        PreparedSolver(raw)


# -- the multi-column solve ------------------------------------------------------


def _reference_solve(rows, b, F):
    """Textbook dense Gauss-Jordan on [A | b], kept apart from the package's.

    The solution with every free variable zero, or None if b is inconsistent.
    """
    ncols = len(rows[0])
    m = [[F(x) for x in row] + [F(y)] for row, y in zip(rows, b)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if any(m[i][ncols] != 0 for i in range(len(pivots), len(m))):
        return None
    x = [F.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return x


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       char=field_strategy, data=st.data())
@settings(max_examples=200, deadline=None)
def test_solve_many_matches_dense_per_column_reference(shape, char, data):
    # over Q the entries are fractions; some rows are zeroed, and the
    # right-hand sides mix images (consistent), arbitrary vectors (often
    # inconsistent) and zero columns
    nr, nc = shape
    F = FieldSpec(char)
    entries = rationals if char == 0 else small_ints
    rows = data.draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                              min_size=nr, max_size=nr))
    zero_rows = data.draw(st.sets(st.integers(0, nr - 1)))
    rows = [[0] * nc if i in zero_rows else row for i, row in enumerate(rows)]
    m = ExactMatrix(F, rows)
    dense_b = []
    for kind in data.draw(st.lists(st.sampled_from(["image", "any", "zero"]),
                                   min_size=1, max_size=5)):
        if kind == "zero":
            dense_b.append([F.zero] * nr)
        elif kind == "image":
            x = data.draw(st.lists(entries, min_size=nc, max_size=nc))
            dense_b.append(dense(m.matvec(sparse(F(v) for v in x)), nr))
        else:
            dense_b.append([F(v) for v in data.draw(
                st.lists(entries, min_size=nr, max_size=nr))])
    got = m.solve_many([{i: v for i, v in enumerate(b) if v != 0} for b in dense_b])
    assert len(got) == len(dense_b)
    for b, sol in zip(dense_b, got):
        want = _reference_solve(rows, b, F)
        if want is None:
            assert sol is None
            continue
        assert sol == {c: v for c, v in enumerate(want) if v != 0}
        assert all(v != 0 and _canonical(v) for v in sol.values())
        assert _solve(m, b) == want


def test_solve_many_examples():
    # a zero row, a zero column, an inconsistent column and a free variable
    m = ExactMatrix(QQ, [[1, 2, 0], [0, 0, 0], [2, 4, 3]])
    got = m.solve_many([{}, {0: 1, 2: 2}, {1: 1}, {0: 1, 2: 5}, {0: 3}])
    assert got == [{}, {0: 1}, None, {0: 1, 2: 1}, {0: 3, 2: -2}]
    assert all(type(v) is int for sol in got if sol for v in sol.values())
    assert ExactMatrix(QQ, [[2]]).solve_many([{0: 1}]) == [{0: Fraction(1, 2)}]
    assert ExactMatrix.from_entries(F5, 2, 2, ()).solve_many([{}, {1: 3}]) == [{}, None]
    assert m.solve_many([]) == []


def _full_rref_solve_many(m, columns):
    """The solve that back-substitutes all of [A | b_1 ... b_m] into its
    reduced row echelon form and reads each solution off column n+j."""
    F, n = m.field, m.ncols
    aug = [dict(row) for row in m.rows]
    for j, col in enumerate(columns):
        for i, x in col.items():
            aug[i][n + j] = x
    pivots, rest = _reduce(aug, F, n)
    bad = {k - n for _, row in rest for k in row}
    rref = _back_substitute(_divided(pivots, [])[0], F)
    return [None if j in bad else
            {c: v if type(v) is int else F(v)
             for c, row in rref.items() if (v := row.get(n + j))}
            for j in range(len(columns))]


non_unit = st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6])


def _draw_free_column_rows(data, nr, nc, F, entries):
    """Rows of an nr x nc matrix over F and the set of rows zeroed in it.

    Columns that are combinations of earlier ones put free columns between
    the pivots.
    """
    cols = []
    for _ in range(nc):
        if cols and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entries, min_size=len(cols), max_size=len(cols)))
            cols.append([sum(a * col[i] for a, col in zip(coeffs, cols))
                         for i in range(nr)])
        else:
            cols.append(data.draw(st.lists(entries, min_size=nr, max_size=nr)))
    zero_rows = data.draw(st.sets(st.integers(0, nr - 1)))
    rows = [[0] * nc if i in zero_rows else [F(col[i]) for col in cols]
            for i in range(nr)]
    return rows, zero_rows


@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 7)),
       char=field_strategy, data=st.data())
@settings(max_examples=250, deadline=None)
def test_solve_many_back_substitutes_only_the_right_hand_sides(shape, char, data):
    # columns that are combinations of earlier ones put free columns between
    # the pivots; over Q the entries are fractions and non-unit leads.  The
    # right-hand sides mix images, zero columns, arbitrary vectors and
    # vectors that meet a zero row (inconsistent)
    nr, nc = shape
    F = FieldSpec(char)
    entries = st.one_of(rationals, non_unit) if char == 0 else st.one_of(small_ints, non_unit)
    rows, zero_rows = _draw_free_column_rows(data, nr, nc, F, entries)
    m = ExactMatrix(F, rows)
    columns = []
    for kind in data.draw(st.lists(st.sampled_from(["image", "any", "zero", "off"]),
                                   min_size=1, max_size=6)):
        if kind == "image":
            x = data.draw(st.lists(entries, min_size=nc, max_size=nc))
            b = dense(m.matvec(sparse(F(v) for v in x)), nr)
        elif kind == "any":
            b = [F(v) for v in data.draw(st.lists(entries, min_size=nr, max_size=nr))]
        else:
            b = [F.zero] * nr
            if kind == "off" and zero_rows:
                b[min(zero_rows)] = F.one
        columns.append({i: v for i, v in enumerate(b) if v != 0})
    rows_before = [dict(row) for row in m.rows]
    columns_before = [dict(col) for col in columns]
    got = m.solve_many(columns)
    want = _full_rref_solve_many(m, columns)
    assert m.rows == rows_before and columns == columns_before
    assert len(got) == len(want)
    for sol, ref in zip(got, want):
        if ref is None:
            assert sol is None
            continue
        assert [(c, type(v), v) for c, v in sol.items()] == \
            [(c, type(v), v) for c, v in ref.items()]


def _typed(values):
    return [(type(v), v) for v in values]


@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 7)),
       char=field_strategy, data=st.data())
@settings(max_examples=250, deadline=None)
def test_back_substitution_matches_the_all_fraction_reference(shape, char, data):
    # echelon forms, kernels and prepared solvers read off `_solutions`
    # against the full back substitution of `_divided` rows, and determinants
    # against the cofactor expansion.  The references can hold an integral
    # Fraction where the field holds an int, so their values are compared
    # coerced into the field; both sides then agree in value and in type
    nr, nc = shape
    F = FieldSpec(char)
    entries = st.one_of(rationals, non_unit) if char == 0 else st.one_of(small_ints, non_unit)
    rows, zero_rows = _draw_free_column_rows(data, nr, nc, F, entries)
    m = ExactMatrix(F, rows)

    got, want = m.echelonize(), _reference_echelonize(m)
    assert (got.rank, got.pivot_columns) == (want.rank, want.pivot_columns)
    assert [sorted((k, type(v), v) for k, v in row.items())
            for row in got.reduced.rows] == \
        [sorted((k, type(F(v)), v) for k, v in row.items()) for row in want.reduced.rows]
    assert [_typed(dense(v, nc)) for v in m.kernel_basis()] == \
        [_typed(F(x) for x in v) for v in _reference_kernel_basis(m)]

    solver, reference = PreparedSolver(m), _ReferencePreparedSolver(m)
    assert (solver.rank, solver.pivots) == (reference.rank, reference.pivots)
    x = [F(v) for v in data.draw(st.lists(entries, min_size=nc, max_size=nc))]
    off = [F.zero] * nr
    if zero_rows:
        off[min(zero_rows)] = F.one
    for b in (m.matvec(sparse(x)), sparse(F(v) for v in data.draw(
            st.lists(entries, min_size=nr, max_size=nr))), {}, sparse(off)):
        sol, ref = solver.solve(b), reference.solve(b)
        assert (sol is None) == (ref is None)
        if ref is not None:
            assert _typed_items(sol) == _typed_items(ref)
    if zero_rows:
        assert solver.solve(sparse(off)) is None

    k = min(nr, nc)
    for square in ([row[:k] for row in rows[:k]], [row[nc - k:] for row in rows[nr - k:]]):
        assert _typed([det(square, F)]) == _typed([F(_cofactor_det(square, F))])


@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 7)),
       char=field_strategy, data=st.data())
@settings(max_examples=200, deadline=None)
def test_results_do_not_depend_on_the_row_order(shape, char, data):
    # `_reduce` eliminates in a fixed fill-reducing order; the reduced row
    # echelon form is unique, so permuting the rows of A, and the entries of
    # each b with them, moves no rank, pivot, echelon form, kernel or
    # solution, and the determinant only by the sign of the permutation
    nr, nc = shape
    F = FieldSpec(char)
    entries = st.one_of(rationals, non_unit) if char == 0 else st.one_of(small_ints, non_unit)
    rows, _ = _draw_free_column_rows(data, nr, nc, F, entries)
    perm = data.draw(st.permutations(range(nr)))
    m, pm = ExactMatrix(F, rows), ExactMatrix(F, [rows[i] for i in perm])
    dense_b = [dense(m.matvec(sparse(F(v) for v in data.draw(
                   st.lists(entries, min_size=nc, max_size=nc)))), nr),
               [F(v) for v in data.draw(st.lists(entries, min_size=nr, max_size=nr))],
               [F.zero] * nr]

    def typed_dicts(dicts):
        return [None if d is None else _typed_items(d) for d in dicts]

    assert pm.rank() == m.rank() == sparse_rank(iter(pm.rows), F)
    got, want = pm.echelonize(), m.echelonize()
    assert (got.rank, got.pivot_columns) == (want.rank, want.pivot_columns)
    assert typed_dicts(got.reduced.rows) == typed_dicts(want.reduced.rows)
    assert typed_dicts(pm.kernel_basis()) == typed_dicts(m.kernel_basis())
    sols = m.solve_many([{i: v for i, v in enumerate(b) if v} for b in dense_b])
    psols = pm.solve_many([{k: b[i] for k, i in enumerate(perm) if b[i]} for b in dense_b])
    assert typed_dicts(psols) == typed_dicts(sols)
    solver, psolver = PreparedSolver(m), PreparedSolver(pm)
    assert (psolver.rank, psolver.pivots) == (solver.rank, solver.pivots)
    for b in dense_b:
        sol, psol = solver.solve(sparse(b)), psolver.solve(sparse(b[i] for i in perm))
        assert (psol is None) == (sol is None)
        if sol is not None:
            assert _typed_items(psol) == _typed_items(sol)
    k = min(nr, nc)
    square = [rows[i][:k] for i in perm[:k]]
    assert _typed([det(square, F)]) == _typed([F(_cofactor_det(square, F))])
