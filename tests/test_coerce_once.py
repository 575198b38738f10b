"""The coerce-once kernels against per-entry field arithmetic.

`ExactMatrix.from_entries`, `BimoduleMap.from_terms`, `algebra.multiply`
and `resolution.expand` (through `compose`) sum plain numbers and coerce each
entry into the field once.  Each is checked here against a reference that
coerces every term and adds in the field, as those kernels once did, over Q,
F3 and F5, on int and Fraction inputs and on entries that cancel to zero.
`ExactMatrix.from_columns` takes canonical columns without coercing them,
so the dualized differential coerces only in its pull-back.  The lifting
systems (`YonedaEngine._assemble`) stay plain sums until
`exactla.solve_augmented` eliminates them, and `_reduce` coerces them there.

A bimodule map is canonical by construction: every producer of one gives
each key a nonzero scalar in the field's own form, so maps compare by their
dicts.  The last tests pin that on every producer.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj_hh.algebra import build_algebra, multiply
from preproj_hh.exactla import ExactMatrix, FieldSpec, solve_augmented
from preproj_hh.cochain import canonical_cocycles
from preproj_hh.resolution import (BimoduleMap, compose, expand, projective_p,
                                   projective_q, tau_twist)
from preproj_hh.yoneda import YonedaEngine, _graded_triples
from conftest import canonical, context, dense, is_canonical, sparse, system_shapes

chars = st.sampled_from([0, 3, 5])
# denominators prime to 3 and 5, so every scalar lies in all three fields
scalars = st.one_of(st.integers(-6, 6),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4, 7])))
_TABLES = {}


def _table(char):
    if char not in _TABLES:
        _TABLES[char] = build_algebra(2, FieldSpec(char))
    return _TABLES[char]


def _with_cancellations(data, items, negate):
    """`items` plus the negation of a drawn sublist, so some sums vanish."""
    if not items:
        return items
    return items + [negate(it) for it in data.draw(st.lists(st.sampled_from(items)))]


# -- references: every term coerced, every sum taken in the field ---------------


def _reference_rows(F, nrows, entries):
    rows = [{} for _ in range(nrows)]
    for i, j, x in entries:
        rows[i][j] = F.add(rows[i].get(j, F.zero), F(x))
    return [{j: x for j, x in row.items() if x != 0} for row in rows]


def _reference_from_terms(F, term_lists):
    out = []
    for terms in term_lists:
        acc = {}
        for k, c, x, y in terms:
            acc[(k, x, y)] = F.add(acc.get((k, x, y), F.zero), F(c))
        out.append({key: c for key, c in acc.items() if c != 0})
    return out


def _reference_multiply(t, x, y):
    F = t.field
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            hit = t.mono_mul(m1, m2)
            if hit is not None:
                c, m3 = hit
                val = F.add(out.get(m3, F.zero), F.mul(F.mul(c1, c2), F(c)))
                if val == 0:
                    out.pop(m3, None)
                else:
                    out[m3] = val
    return out


def _reference_expand(f, k, x, y):
    """f on x (x) y of summand k as a fresh dict of unreduced sums."""
    out = {}
    for (k2, xd, yd), c in f.values[k].items():
        lhs, rhs = f.table.mono_mul(x, xd), f.table.mono_mul(yd, y)
        if lhs is not None and rhs is not None:
            key = (k2, lhs[1], rhs[1])
            out[key] = out.get(key, 0) + c * lhs[0] * rhs[0]
    return out


def _reference_compose(f, g):
    F = f.table.field
    values = []
    for terms in g.values:
        acc = {}
        for (k, x, y), c in terms.items():
            for key, v in _reference_expand(f, k, x, y).items():
                acc[key] = acc.get(key, 0) + c * v
        values.append({key: F(c) for key, c in acc.items() if F(c) != 0})
    return values


# -- strategies ------------------------------------------------------------------


def _values(data, t, source, target):
    """Value lists of a well-formed map from `source` to `target`, some keys
    repeated with negated coefficients: a term of source summand (s, tt) in
    target summand (s2, tt2) is c x (x) y with x in e_s L e_s2 and y in
    e_tt2 L e_tt, so every product `expand` takes composes."""
    values = []
    for s, tt in source.summands:
        keys = [(k2, x.mid, y.mid) for k2, (s2, tt2) in enumerate(target.summands)
                for x in t.by_ends.get((s, s2), ()) for y in t.by_ends.get((tt2, tt), ())]
        term = st.tuples(st.sampled_from(keys), scalars).map(
            lambda kc: (kc[0][0], kc[1], kc[0][1], kc[0][2]))
        values.append(_with_cancellations(data, data.draw(st.lists(term, max_size=8)),
                                          lambda tm: (tm[0], -tm[1], tm[2], tm[3])))
    return values


def _element(data, t, summand):
    """A basis element x (x) y of the summand L e_s (x) e_tt L."""
    s, tt = summand
    return (data.draw(st.sampled_from([m.mid for m in t.ending_at[s]])),
            data.draw(st.sampled_from([m.mid for m in t.starting_at[tt]])))


# -- tests -----------------------------------------------------------------------


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_from_entries_matches_per_entry_coercion(char, data):
    F = FieldSpec(char)
    entries = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), scalars),
                                 max_size=20))
    entries = _with_cancellations(data, entries, lambda e: (e[0], e[1], -e[2]))
    m = ExactMatrix.from_entries(F, 3, 4, entries)
    rows = _reference_rows(F, 3, entries)
    assert m.rows == rows
    assert all(canonical(F, x) for row in m.rows for x in row.values())
    # the same entries as canonical sparse columns, taken as they are
    columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(4)]
    c = ExactMatrix.from_columns(F, 3, columns)
    assert c == m and c.columns == m.columns
    v = sparse(data.draw(st.lists(scalars.map(F), min_size=4, max_size=4)))
    assert c.matvec(v) == m.matvec(v)


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_from_terms_matches_per_entry_coercion(char, data):
    t = _table(char)
    P = projective_p(t)
    terms = _values(data, t, P, P)
    m = BimoduleMap.from_terms(t, P, P, terms)
    assert m.values == _reference_from_terms(t.field, terms)
    assert is_canonical(m)


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_multiply_matches_per_entry_coercion(char, data):
    # inputs are field elements, as every caller's are; low degrees make
    # products collide on one monomial, where they may cancel
    t = _table(char)
    F = t.field
    low = [m.mid for m in t.basis if m.degree <= 2]
    element = st.dictionaries(st.sampled_from(low), scalars.map(F), max_size=6)
    x, y = data.draw(element), data.draw(element)
    got = multiply(t, x, y)
    assert got == _reference_multiply(t, x, y)
    assert all(canonical(F, c) for c in got.values())


def test_multiply_drops_a_coefficient_that_cancels():
    # two monomial pairs with one product monomial and no cross products on
    # it, weighted to cancel there: the monomial is absent, as in the
    # reference, over each field
    for char in (0, 3, 5):
        t = _table(char)
        F = t.field
        hits = [(m1, m2, hit) for m1 in range(t.dim) for m2 in range(t.dim)
                if (hit := t.mono_mul(m1, m2)) is not None]
        found = None
        for m1, m2, (c, m3) in hits:
            for n1, n2, (d, n3) in hits:
                crossed = [t.mono_mul(m1, n2), t.mono_mul(n1, m2)]
                if (n3 == m3 and n1 != m1 and n2 != m2
                        and all(h is None or h[1] != m3 for h in crossed)):
                    found = (m1, m2, n1, n2, c, d, m3)
        assert found is not None
        m1, m2, n1, n2, c, d, m3 = found
        x = {m1: F.one, n1: F(Fraction(-c, d))}
        y = {m2: F.one, n2: F.one}
        got = multiply(t, x, y)
        assert m3 not in got
        assert got == _reference_multiply(t, x, y)


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_expand_adds_scaled_values_into_the_callers_dict(char, data):
    t = _table(char)
    P, Q = projective_p(t), projective_q(t)
    f = BimoduleMap.from_terms(t, P, Q, _values(data, t, P, Q))
    k = data.draw(st.integers(0, len(P.summands) - 1))
    x, y = _element(data, t, P.summands[k])
    scale = data.draw(scalars)
    seed = {(0, t.e_ids[1], t.e_ids[1]): data.draw(scalars)}
    out = dict(seed)
    assert expand(f, k, x, y, scale, out) is out
    want = dict(seed)
    for key, v in _reference_expand(f, k, x, y).items():
        want[key] = want.get(key, 0) + scale * v
    assert out == want


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_compose_matches_the_returned_dict_path(char, data):
    t = _table(char)
    P, Q = projective_p(t), projective_q(t)
    f = BimoduleMap.from_terms(t, P, Q, _values(data, t, P, Q))
    g = BimoduleMap.from_terms(t, P, P, _values(data, t, P, P))
    got = compose(f, g)
    assert got.values == _reference_compose(f, g)
    assert is_canonical(got)


def test_dual_matrix_coerces_only_in_its_pullback(monkeypatch):
    # the canonical cochains `pullback` returns become the columns of d^i as
    # they are: building the matrix adds no coercion to the pull-back's own
    calls = []
    real = FieldSpec.__call__

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(FieldSpec, "__call__", counted)
    total = 0
    for char in (0, 3):
        cx = context(3, char).cx
        for i in range(cx.maxdeg):
            units = [{r: 1} for r in range(cx.spaces[i].dim)]
            calls.clear()
            columns = cx.pullback(cx.window.diffs[i + 1], i, i + 1, units)
            pulled = len(calls)
            calls.clear()
            dual = cx._dual_matrix(i)
            assert len(calls) == pulled, (char, i)
            assert dual.columns == columns and dual == cx.diffs[i]
            total += pulled
    assert total > 0


# -- lifting systems: plain sums, coerced where they are eliminated ------------------


def _reference_system(eng, k, s, tt, dv):
    """A lifting system built with `expand` per unknown and every entry
    coerced into the field, zeros dropped."""
    w, t = eng.window, eng.table
    F = t.field
    unknown_degree = dv - (w.gen_degrees[k] - w.gen_degrees[k - 1])
    eq_keys = _graded_triples(t, w.terms[k - 1], s, tt, dv)
    unknowns = _graded_triples(t, w.terms[k], s, tt, unknown_degree)
    eq_pos = {key: r for r, key in enumerate(eq_keys)}
    rows = [{} for _ in eq_keys]
    for col, (kt, x, y) in enumerate(unknowns):
        for key, c in expand(w.diffs[k], kt, x, y, 1, {}).items():
            if (fc := F(c)) != 0:
                rows[eq_pos[key]][col] = fc
    return rows, unknowns, eq_pos


def _systems(n, char):
    """A fresh engine and every (step, s, tt, rhs value degree) of its window."""
    ctx = context(n, char)
    eng = YonedaEngine(ctx.cx)
    return eng, [(k, s, tt, dv) for k in range(1, ctx.window.depth + 1)
                 for s, tt, dv in system_shapes(ctx.table, ctx.window)]


def test_assemble_coerces_nothing(monkeypatch):
    # every lifting system of n=1..3 over Q and F3 is assembled as plain
    # sums: no entry passes through the field until it is eliminated
    built = [_systems(n, char) for n in (1, 2, 3) for char in (0, 3)]
    calls = []
    real = FieldSpec.__call__

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(FieldSpec, "__call__", counted)
    assembled = [eng._assemble(k, s, tt, dv) for eng, systems in built
                 for k, s, tt, dv in systems]
    assert not calls
    assert sum(len(row) for rows, _, _ in assembled for row in rows) > 0


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_assembled_rows_coerced_per_entry_match_the_field_matrix(n, char):
    # the rows `_reduce` eliminates, each entry coerced and the zeros dropped
    # as it does on arrival, are the per-entry-coerced matrix, on the same
    # unknowns and equations
    F = FieldSpec(char)
    eng, systems = _systems(n, char)
    for k, s, tt, dv in systems:
        rows, unknowns, eq_pos = eng._assemble(k, s, tt, dv)
        ref_rows, ref_unknowns, ref_pos = _reference_system(eng, k, s, tt, dv)
        assert (unknowns, eq_pos) == (ref_unknowns, ref_pos)
        coerced = [{j: fx for j, x in row.items() if (fx := F(x)) != 0} for row in rows]
        assert coerced == ref_rows, (k, s, tt, dv)


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_augmented_elimination_of_plain_rows_matches_solve_many(char, data):
    # [A | b_1 ... b_m] as {column: plain sum} rows, with entries divisible
    # by p, sums outside 0..p-1 and sums that cancel to zero, one b_j = A x
    # so some column is consistent: `solve_augmented` on them gives what
    # `solve_many` gives on A and the b_j coerced entry by entry
    F = FieldSpec(char)
    nrows = data.draw(st.integers(1, 5), label="rows")
    n = data.draw(st.integers(1, 5), label="unknowns")
    m = data.draw(st.integers(0, 3), label="right-hand sides")
    number = st.one_of(scalars, st.sampled_from([15, -15, 30, 45]))
    entries = data.draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                           st.integers(0, n + m - 1), number),
                                 max_size=4 * nrows))
    entries = _with_cancellations(data, entries, lambda e: (e[0], e[1], -e[2]))
    rows = [{} for _ in range(nrows)]
    for i, j, x in entries:
        rows[i][j] = rows[i].get(j, 0) + x
    x = data.draw(st.lists(number, min_size=n, max_size=n), label="x")
    for row in rows:
        row[n + m] = sum(row.get(j, 0) * xj for j, xj in enumerate(x))
    a = ExactMatrix.from_entries(F, nrows, n, [e for e in entries if e[1] < n])
    columns = [{i: fv for i, row in enumerate(rows) if (fv := F(row.get(n + j, 0)))}
               for j in range(m + 1)]
    want = a.solve_many(columns)
    assert want[m] is not None
    assert solve_augmented(rows, n, m + 1, F) == want


# -- canonical by construction ------------------------------------------------------


@given(char=chars, data=st.data())
@settings(max_examples=150, deadline=None)
def test_built_maps_have_canonical_nonzero_coefficients(char, data):
    # from_terms on terms that repeat and cancel, compose of two such maps
    # and of consecutive differentials (whose sums all cancel), and both
    # signed twists of each: one nonzero field-canonical scalar per key, and
    # a twist negates exactly the keys of odd right factor
    t = _table(char)
    F = t.field
    P, Q = projective_p(t), projective_q(t)
    f = BimoduleMap.from_terms(t, P, Q, _values(data, t, P, Q))
    g = BimoduleMap.from_terms(t, P, P, _values(data, t, P, P))
    w = context(2, char).window
    maps = [f, g, compose(f, g)] + [compose(w.diffs[m], w.diffs[m + 1]) for m in (1, 2, 3)]
    for m in list(maps):
        for eps in (1, -1):
            twisted = tau_twist(m, eps)
            assert [set(terms) for terms in twisted.values] == \
                [set(terms) for terms in m.values]
            assert all(terms[key] == F(eps * (-1) ** t.basis[key[2]].degree * c)
                       for terms, mterms in zip(twisted.values, m.values)
                       for key, c in mterms.items())
            maps.append(twisted)
    assert all(is_canonical(m) for m in maps)


@given(char=chars, data=st.data())
@settings(max_examples=25, deadline=None)
def test_lifted_maps_have_canonical_nonzero_coefficients(char, data):
    # a cocycle of degree 1..6 at n=2, a drawn combination of the canonical
    # cocycles plus a drawn coboundary: step 0 (`_lift_cochain`) and every
    # step `lift_many` appends, solved or twisted, is canonical
    cx = context(2, char).cx
    F = cx.table.field
    degree = data.draw(st.integers(1, 6), label="degree")
    vectors = canonical_cocycles(cx, degree).vectors
    coeffs = data.draw(st.lists(scalars.map(F), min_size=len(vectors),
                                max_size=len(vectors)), label="coefficients")
    below = data.draw(st.lists(scalars.map(F), min_size=cx.spaces[degree - 1].dim,
                               max_size=cx.spaces[degree - 1].dim), label="cochain")
    image = dense(cx.diffs[degree - 1].matvec(sparse(below)), cx.spaces[degree].dim)
    vec = sparse(F(sum(c * v.get(i, 0) for c, v in zip(coeffs, vectors)) + b)
                 for i, b in enumerate(image))
    eng = YonedaEngine(cx)
    assert is_canonical(eng._lift_cochain(degree, vec))
    top = cx.maxdeg - 1
    seg = eng.lift_many([(vec, degree, top - degree)])[0]
    assert len(seg.maps) == top - degree + 1
    assert all(is_canonical(f) for f in seg.maps)
