from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj_hh.algebra import center_basis, multiply, socle_basis, x0_element
from preproj_hh.cochain import (CanonicalBasis, CanonicalBasisError, CochainComplex,
                                ComplexMismatchError, LOOPS, PARALLELS,
                                build_complex, canonical_cocycles,
                                commutator_quotient_dim, cyclic_dims, hh_dims,
                                homology_dims, zmodule_checks)
from preproj_hh.algebra import build_algebra
from preproj_hh.exactla import (ExactMatrix, FieldSpec, UnsupportedCharacteristicError,
                                sparse_rank)
from preproj_hh.yoneda import YonedaEngine
from conftest import (canonical, context, dense, is_canonical_vector, sparse,
                      term_lists)


def _class_coords(cx, degree, vec):
    coords = canonical_cocycles(cx, degree).coords(vec)
    assert coords is not None, "a cocycle outside the canonical span"
    return coords


@pytest.mark.parametrize("n", range(1, 6))
def test_space_shapes(n):
    cx = context(n).cx
    assert cx.spaces[0].kind == LOOPS and cx.spaces[0].dim == n * n + n
    assert cx.spaces[1].kind == PARALLELS and cx.spaces[1].dim == 2 * n * n
    for i in range(cx.maxdeg):
        assert cx.spaces[i].kind == (PARALLELS if i % 3 == 1 else LOOPS)


def test_explicit_equals_dual_is_enforced(monkeypatch):
    ctx = context(2)
    original = CochainComplex._explicit_image

    def tampered(self, step, comp, mid):
        out = original(self, step, comp, mid)
        if step == 1:
            out = [(key, -c) for key, c in out]
        return out

    monkeypatch.setattr(CochainComplex, "_explicit_image", tampered)
    with pytest.raises(ComplexMismatchError):
        build_complex(ctx.table, ctx.form, 7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_star_on_odd_eps_powers(n):
    # R^* doubles the even loop monomial; its twisted companion kills it
    ctx = context(n)
    t, cx = ctx.table, ctx.cx
    for m in range(1, n):
        mid = t.by_ijd[(1, 1, 2 * m - 1)]
        vec = cx.vector_from_terms(1, {(0, mid): 1})
        image = cx.diffs[1].matvec(vec)
        expected = cx.vector_from_terms(2, {(1, t.by_ijd[(1, 1, 2 * m)]): 2})
        assert image == expected
        vec4 = cx.vector_from_terms(4, {(0, mid): 1})
        assert cx.diffs[4].matvec(vec4) == {}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k_star_vanishes(n):
    cx = context(n).cx
    assert cx.diffs[2].is_zero()
    assert cx.diff_rank(2) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_image_dimensions(n):
    cx = context(n).cx
    assert cx.diff_rank(1) == n * n           # image of R^*
    assert cx.diff_rank(4) == n * n - n       # image of the twisted R^*
    assert cx.spaces[0].dim - cx.diff_rank(0) == 2 * n   # kernel of delta^*


@pytest.mark.parametrize("n", [2, 3, 4])
def test_socle_differences_are_twisted_coboundaries(n):
    ctx = context(n)
    t, cx = ctx.table, ctx.cx
    for j in range(1, n):
        vec = cx.vector_from_terms(
            5, {(j, t.socle_ids[j]): 1, (j + 1, t.socle_ids[j + 1]): -1})
        assert _class_coords(cx, 5, vec) == {}
    # but a single socle class is not
    vec = cx.vector_from_terms(5, {(1, t.socle_ids[1]): 1})
    assert _class_coords(cx, 5, vec) != {}


@pytest.mark.parametrize("n,char,expected0", [
    (1, 0, 2), (2, 0, 4), (3, 7, 6), (2, 5, 4), (4, 3, 8)])
def test_hh_dims(n, char, expected0):
    cx = context(n, char).cx
    dims = hh_dims(cx, 12)
    assert dims[0] == expected0 == 2 * n
    assert dims[1:] == [n] * 12


@pytest.mark.parametrize("n,char", [(1, 0), (2, 0), (2, 5), (3, 0), (3, 7)])
def test_homology_matches_cohomology(n, char):
    cx = context(n, char).cx
    assert homology_dims(cx, 8) == hh_dims(cx, 8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hh0_equals_commutator_quotient(n):
    cx = context(n).cx
    assert homology_dims(cx, 0)[0] == commutator_quotient_dim(cx.table)


@pytest.mark.parametrize("n", range(1, 6))
def test_cyclic_dims(n):
    cx = context(n).cx
    hc, b = cyclic_dims(cx, homology_dims(cx, 8))
    assert hc == [(2 * n if i % 2 == 0 else 0) for i in range(9)]
    assert b == [(n if i % 2 == 0 else 0) for i in range(9)]
    assert hc[0] == homology_dims(cx, 0)[0]


def test_cyclic_requires_characteristic_zero():
    cx = context(2, 3).cx
    with pytest.raises(UnsupportedCharacteristicError):
        cyclic_dims(cx, homology_dims(cx, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 7])
def test_canonical_cocycles_all_degrees(n, char):
    cx = context(n, char).cx
    for degree in range(0, 13):
        cb = canonical_cocycles(cx, degree)
        expected = 2 * n if degree == 0 else n
        assert len(cb.vectors) == expected
        for vec in cb.vectors:
            assert cx.is_cocycle(degree, vec)
    assert canonical_cocycles(cx, 7).labels == [
        lab + "*h" for lab in canonical_cocycles(cx, 1).labels]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("char", [0, 3, 5])
def test_class_coords_vanish_exactly_on_coboundaries(n, char):
    # reference: a fresh elimination of d^(i-1) alone decides "coboundary"
    ctx = context(n, char)
    t, cx = ctx.table, ctx.cx
    F = t.field
    central = [x0_element(t, 1), x0_element(t, n - 1)] + socle_basis(t)
    outcomes = set()
    for i in range(1, 13):
        basis = canonical_cocycles(cx, i)
        d = cx.diffs[i - 1]
        images = [[d.rows[r].get(col, 0) for r in range(d.nrows)] for col in range(d.ncols)]
        vectors = []
        for v in basis.vectors:
            vectors.append(v)
            vectors += [cx.scale_vector(i, z, v) for z in central]
            vectors += [sparse(F.add(a, b) for a, b in zip(dense(v, d.nrows), im))
                        for im in images]
        for vec in vectors:
            coords = basis.coords(vec)
            assert coords is not None
            coboundary = d.solve_many([vec])[0] is not None
            assert (coords == {}) == coboundary
            outcomes.add(coboundary)
    assert outcomes == {True, False}


def test_independence_is_checked_above_degree_six(monkeypatch):
    # degree 8 reuses the degree-2 vectors; a repeated one must be caught
    cx = context(2).cx
    base = canonical_cocycles(cx, 2)
    repeated = CanonicalBasis(base.degree, base.labels + base.labels[:1],
                              base.vectors + base.vectors[:1], base.solver)
    monkeypatch.setitem(cx._canonical_cache, 2, repeated)
    monkeypatch.delitem(cx._canonical_cache, 8, raising=False)
    with pytest.raises(CanonicalBasisError):
        canonical_cocycles(cx, 8)


@pytest.mark.parametrize("n,char", [(1, 0), (2, 3), (3, 5)])
def test_degrees_above_six_share_the_class_solver_of_degree_i_minus_6(n, char):
    cx = context(n, char).cx
    for i in range(7, 13):
        assert cx.diffs[i - 1] is cx.diffs[i - 7]
        assert canonical_cocycles(cx, i).solver is canonical_cocycles(cx, i - 6).solver


def test_a_differential_that_differs_gets_its_own_class_solver(monkeypatch):
    # -d7 has the image of d7, so degree 8 keeps its classes and its rank,
    # but [vectors | -d7] is not the degree-2 matrix: degree 8 eliminates it
    from preproj_hh.exactla import ExactMatrix
    cx = context(2, 3).cx
    d = cx.diffs[7]
    negated = ExactMatrix.from_entries(cx.table.field, d.nrows, d.ncols,
                                       ((i, j, -x) for i, row in enumerate(d.rows)
                                        for j, x in row.items()))
    assert negated != cx.diffs[1]
    monkeypatch.setattr(cx, "diffs", cx.diffs[:7] + [negated] + cx.diffs[8:])
    monkeypatch.delitem(cx._canonical_cache, 8, raising=False)
    own, base = canonical_cocycles(cx, 8), canonical_cocycles(cx, 2)
    assert own.solver is not base.solver
    assert own.solver.rank == base.solver.rank
    for k, vec in enumerate(own.vectors):
        assert own.coords(vec) == base.coords(vec) == {k: 1}


def test_degree_one_representative_is_arrow_sum():
    ctx = context(2)
    t, cx = ctx.table, ctx.cx
    cb = canonical_cocycles(cx, 1)
    space = cx.spaces[1]
    yhat = cb.vectors[0]
    for (comp, mid), c in zip(space.basis, dense(yhat, space.dim)):
        expected = 1 if t.basis[mid].degree == 1 else 0
        assert c == t.field(expected)
    assert cx.diffs[1].matvec(yhat) == {}


def test_degree_two_classes_are_vertex_residues():
    # Im R^* is the diagonal radical, so e_k spans HH^2 residues
    ctx = context(3)
    t, cx = ctx.table, ctx.cx
    # every diagonal radical element is a coboundary in degree 2
    for m in t.basis:
        if m.source == m.target and 0 < m.degree:
            vec = cx.vector_from_terms(2, {(m.source, m.mid): 1})
            assert _class_coords(cx, 2, vec) == {}
    for k in t.quiver.vertices:
        vec = cx.vector_from_terms(2, {(k, t.e_ids[k]): 1})
        assert _class_coords(cx, 2, vec) != {}


def test_degree_three_kernel_is_socle_span():
    ctx = context(3)
    cx = ctx.cx
    assert cx.spaces[3].dim - cx.diff_rank(3) == ctx.n


@pytest.mark.parametrize("n,char", [(1, 0), (2, 0), (2, 5), (3, 7)])
def test_zmodule_checks(n, char):
    rep = zmodule_checks(context(n, char).cx)
    assert rep["ok"], rep["failures"]


def test_zmodule_checks_multiply_once_per_period(monkeypatch):
    # degrees 7..12 share the canonical vectors and the class solver of
    # degree j-6, so only degrees 1..6 multiply; a degree whose vectors are
    # equal copies, not the shared list, is checked on its own
    ctx = context(2, 3)
    cx = build_complex(ctx.table, ctx.form, 13, ctx.window)
    seen = []
    real = CochainComplex.scale_vector

    def counted(self, degree, z, vec):
        seen.append(degree)
        return real(self, degree, z, vec)

    monkeypatch.setattr(CochainComplex, "scale_vector", counted)
    assert zmodule_checks(cx)["ok"]
    assert set(seen) == set(range(1, 7))
    seen.clear()
    base = canonical_cocycles(cx, 9)
    cx._canonical_cache[9] = CanonicalBasis(base.degree, base.labels,
                                            [dict(v) for v in base.vectors], base.solver)
    assert zmodule_checks(cx)["ok"]
    assert set(seen) == set(range(1, 7)) | {9}


def _reference_commutator_quotient_dim(t):
    """Brute force: a row m1 m2 - m2 m1 for every pair with m1 ending where m2 starts."""
    rows = []
    for m1 in t.basis:
        for u in t.quiver.vertices:
            for m2 in t.by_ends.get((m1.target, u), ()):
                ab = t.mono_mul(m1.mid, m2.mid)
                ba = t.mono_mul(m2.mid, m1.mid)
                row = {}
                if ab is not None:
                    row[ab[1]] = ab[0]
                if ba is not None:
                    row[ba[1]] = row.get(ba[1], 0) - ba[0]
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return t.dim - sparse_rank(rows, t.field)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("char", [0, 3, 5, 7])
def test_commutator_quotient_matches_all_pairs_rows(n, char):
    t = build_algebra(n, FieldSpec(char))
    assert commutator_quotient_dim(t) == _reference_commutator_quotient_dim(t)


def test_commutator_rows_are_generator_brackets(monkeypatch):
    # pinned at n=18 over F3: the rows [g, m], g an idempotent or an arrow,
    # number at most 25,000 (the pairs of composable monomials gave 328,776)
    import preproj_hh.cochain as cochain
    sizes = []
    true_rank = cochain.sparse_rank

    def counted(rows, field):
        rows = list(rows)
        sizes.append(len(rows))
        return true_rank(rows, field)

    monkeypatch.setattr(cochain, "sparse_rank", counted)
    assert commutator_quotient_dim(build_algebra(18, FieldSpec(3))) == 36
    assert len(sizes) == 1 and sizes[0] <= 25000


def _reference_pullback(cx, f, i, j, vec):
    """Brute force: phi o f for one cochain phi of V^i, every value term of f
    scanned for every entry of phi, each product through `mono_mul`."""
    t = cx.table
    src, tgt = cx.spaces[i], cx.spaces[j]
    acc = {}
    for r, v in vec.items():
        comp, mid = src.basis[r]
        comp_pos = comp if src.kind == PARALLELS else comp - 1
        for k, terms in enumerate(term_lists(f)):
            tkey = t.quiver.arrows[k].index if tgt.kind == PARALLELS else k + 1
            for k2, c, x, y in terms:
                if k2 != comp_pos:
                    continue
                lhs = t.mono_mul(x, mid)
                if lhs is None:
                    continue
                rhs = t.mono_mul(lhs[1], y)
                if rhs is None:
                    continue
                pos = tgt.pos[(tkey, rhs[1])]
                acc[pos] = acc.get(pos, 0) + v * c * lhs[0] * rhs[0]
    return {pos: t.field(c) for pos, c in acc.items() if t.field(c) != 0}


def _reference_dual_matrix(cx, i):
    """Brute force: the reference pull-back of every unit cochain along d_(i+1)."""
    d = cx.window.diffs[i + 1]
    src, tgt = cx.spaces[i], cx.spaces[i + 1]
    return ExactMatrix.from_entries(
        cx.table.field, tgt.dim, src.dim,
        [(r, col, c) for col in range(src.dim)
         for r, c in _reference_pullback(cx, d, i, i + 1, {col: 1}).items()])


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("char", [0, 3])
def test_dual_matrix_matches_scan_of_every_term(n, char):
    cx = context(n, char).cx
    for i in range(cx.maxdeg):
        got, want = cx._dual_matrix(i), _reference_dual_matrix(cx, i)
        assert got == want
        assert [list(row.items()) for row in got.rows] == \
            [list(row.items()) for row in want.rows]


@pytest.mark.parametrize("n", range(1, 6))
def test_spaces_match_filtering_the_whole_basis(n):
    from preproj_hh.cochain import _make_space, _tensor_space
    t = context(n).table
    for degree in range(6):
        space = _make_space(t, degree)
        if space.kind == LOOPS:
            want = [(i, m.mid) for i in t.quiver.vertices for m in t.basis
                    if m.source == i and m.target == i]
        else:
            want = [(a.index, m.mid) for a in t.quiver.arrows for m in t.basis
                    if m.source == a.source and m.target == a.target]
        assert space.basis == want
        # summand k = (s, tt) of P^-degree is component components[k], whose
        # entries are the monomials of e_s L e_tt in basis order
        summands = context(n).window.terms[degree].summands
        assert len(space.components) == len(summands)
        for comp, (s, tt) in zip(space.components, summands):
            assert [mid for c, mid in space.basis if c == comp] == [
                m.mid for m in t.basis if m.source == s and m.target == tt]
    for term in context(n).window.terms[:3]:
        assert _tensor_space(t, term) == [
            (k, m.mid) for k, (s, tt) in enumerate(term.summands)
            for m in t.basis if m.source == tt and m.target == s]


# -- once per period: brute-force reference, counts and negative controls -----------


def _brute_force(cx):
    """Every explicit and dual matrix built and compared, every d o d composed,
    every tensor rank and every one-sided rank taken, with no reuse.

    Returns (cochain differentials, HH^* dims, HH_* dims, exactness
    section); the exactness part is for a window that passes.
    """
    from preproj_hh.cochain import _tensor_matrix, _tensor_space
    from preproj_hh.resolution import (_SANDWICH_PRIME, _augmentation_columns, _rank,
                                       compose, flat_dim, one_sided_columns)
    t, w, top = cx.table, cx.window, cx.maxdeg - 1
    diffs = []
    for i in range(cx.maxdeg):
        explicit, dual = cx._explicit_matrix(i), cx._dual_matrix(i)
        assert explicit == dual
        diffs.append(explicit)
    for i in range(cx.maxdeg - 1):
        assert not any(map(diffs[i + 1].matvec, diffs[i].columns))
    ranks = [0] + [d.rank() for d in diffs]           # ranks[i + 1] is rank d^i
    hh = [cx.spaces[i].dim - ranks[i + 1] - ranks[i] for i in range(top + 1)]
    tensor = [0] + [_tensor_matrix(t, w, m).rank() for m in range(1, top + 2)]
    homology = [len(_tensor_space(t, w.terms[i])) - tensor[i] - tensor[i + 1]
                for i in range(top + 1)]

    periodic = all(w.diffs[m].equals(w.diffs[m + 6]) for m in range(1, w.depth - 5))
    dd = all(compose(w.diffs[m], w.diffs[m + 1]).is_zero() for m in range(1, w.depth))
    aug = True
    for terms in term_lists(w.diffs[1]):
        acc = {}
        for _, c, x, y in terms:
            if (hit := t.mono_mul(x, y)) is not None:
                acc[hit[1]] = acc.get(hit[1], 0) + c * hit[0]
        aug = aug and not any(t.field(v) != 0 for v in acc.values())
    minimal = not any(t.basis[x].degree == 0 and t.basis[y].degree == 0
                      for m in range(1, w.depth + 1)
                      for terms in w.diffs[m].values for _, x, y in terms)
    p = t.field.characteristic or _SANDWICH_PRIME
    maps = [_augmentation_columns(t, w.terms[0])]
    maps += [one_sided_columns(w.diffs[m]) for m in range(1, w.depth + 1)]
    r = [_rank(columns, p) for columns in maps]
    assert periodic and dd and aug and minimal
    assert r[0] == t.n and all(r[m] + r[m + 1] == len(maps[m]) for m in range(w.depth))
    dims = [flat_dim(t, term) for term in w.terms]
    flat = [0, dims[0] - t.dim]
    for m in range(1, w.depth):
        flat.append(dims[m] - flat[m])
    assert flat[6] == t.dim
    method = (f"native mod {p}" if t.field.characteristic else
              f"mod {p} ranks pinned by exact d.d = 0 and dimension counts")
    exactness = {"depth": w.depth, "dd_zero": dd, "augmentation_zero": aug,
                 "minimal": minimal, "periodic": periodic, "ranks": flat,
                 "flat_dims": dims, "exact_at": [True] * w.depth,
                 "syzygy6_dim": flat[6], "rank_method": method, "failures": [],
                 "ok": True}
    return diffs, hh, homology, exactness


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("char", [0, 3, 5])
def test_period_reuse_matches_the_brute_force_reference(n, char):
    from preproj_hh.resolution import certify_exact
    cx = context(n, char).cx
    diffs, hh, homology, exactness = _brute_force(cx)
    assert cx.diffs == diffs
    assert hh_dims(cx, cx.maxdeg - 1) == hh
    assert homology_dims(cx, cx.maxdeg - 1) == homology
    assert certify_exact(cx.window)[0] == exactness


@pytest.mark.parametrize("char", [3, 5])
def test_brute_force_reference_reduces_the_augmentation_into_the_field(char):
    # d1 holds -1 as p-1, coerced when it is built, so its u o d1 sums are
    # p as plain numbers and 0 only in the field
    from preproj_hh.resolution import build_resolution, certify_exact
    ctx = context(2, char)
    w = build_resolution(ctx.table, ctx.form, 13)
    assert any(c == char - 1 for terms in w.diffs[1].values for c in terms.values())
    cx = CochainComplex(ctx.table, ctx.form, 13, w)
    diffs, hh, homology, exactness = _brute_force(cx)
    assert cx.diffs == diffs
    assert hh_dims(cx, cx.maxdeg - 1) == hh
    assert homology_dims(cx, cx.maxdeg - 1) == homology
    assert certify_exact(w)[0] == exactness


def _count_period_work(monkeypatch):
    """Counters of the matrices built, composed and ranked per layer."""
    import collections
    import preproj_hh.cochain as C
    import preproj_hh.resolution as R
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_explicit_matrix", "_dual_matrix"):
        monkeypatch.setattr(C.CochainComplex, name,
                            counted(name, getattr(C.CochainComplex, name)))
    monkeypatch.setattr(C, "_tensor_matrix", counted("_tensor_matrix", C._tensor_matrix))
    monkeypatch.setattr(ExactMatrix, "matvec", counted("matvec", ExactMatrix.matvec))
    monkeypatch.setattr(ExactMatrix, "rank", counted("rank", ExactMatrix.rank))
    monkeypatch.setattr(R, "_rank", counted("_rank", R._rank))
    return counts


def test_period_work_is_done_once_per_distinct_map_at_n7(monkeypatch):
    # 13 explicit, dual and tensor matrices, 12 checks of d^(i+1) d^i = 0
    # and 14 one-sided ranks without the reuse; a check applies d^(i+1) to
    # each column of d^i, so 6 checks take half the matvecs of 12; the
    # cochain ranks count d^i and the tensor maps
    from preproj_hh.nakayama import associated_form
    from preproj_hh.resolution import build_resolution, certify_exact
    t = build_algebra(7, FieldSpec(3))
    form = associated_form(t)
    counts = _count_period_work(monkeypatch)
    w = build_resolution(t, form, 13)
    _, ranked = certify_exact(w)
    cx = CochainComplex(t, form, 13, w)
    hh_dims(cx, 12)
    homology_dims(cx, 12)
    checked = sum(cx.diffs[i].ncols for i in range(6))
    assert checked == sum(cx.diffs[i].ncols for i in range(12)) // 2
    assert dict(counts) == {"_explicit_matrix": 6, "_dual_matrix": 6, "_tensor_matrix": 6,
                            "matvec": checked, "_rank": 7, "rank": 12}
    assert cx.differentials_built == 6 and ranked == 7
    assert all(cx.diffs[i] is cx.diffs[i - 6] for i in range(6, 13))


def test_a_differential_that_breaks_the_period_is_built_and_cross_checked(monkeypatch):
    # d8 negated on one summand: d^7 dualizes d8, which is no longer d2, so
    # d^7 is built and compared with its own dual, and the two disagree.  d9
    # would not do: its dual is the zero map, which no sign change can move
    from preproj_hh.resolution import build_resolution
    from conftest import summand_negated
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[8] = summand_negated(w.diffs[8])
    counts = _count_period_work(monkeypatch)
    with pytest.raises(ComplexMismatchError, match="differential 7:"):
        CochainComplex(ctx.table, ctx.form, 13, w)
    assert counts["_dual_matrix"] == 7


def test_homology_over_a_window_that_breaks_the_period_ranks_that_map(monkeypatch):
    # the complex is built over the true window, then the window is swapped
    # for one with d8 negated on one summand: m = 8 takes its own tensor rank
    import copy
    from preproj_hh.cochain import _tensor_matrix, _tensor_space
    from preproj_hh.resolution import build_resolution
    from conftest import summand_negated
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[8] = summand_negated(w.diffs[8])
    cx = copy.copy(ctx.cx)
    cx.window = w
    t = cx.table
    tensor = [0] + [_tensor_matrix(t, w, m).rank() for m in range(1, 14)]
    brute = [len(_tensor_space(t, w.terms[i])) - tensor[i] - tensor[i + 1]
             for i in range(13)]
    assert _tensor_matrix(t, w, 8) != _tensor_matrix(t, w, 2)
    counts = _count_period_work(monkeypatch)
    assert homology_dims(cx, 12) == brute
    assert counts["_tensor_matrix"] == 7


def test_a_differential_listed_differently_is_still_reused(monkeypatch):
    from preproj_hh.resolution import build_resolution
    from conftest import relisted
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[8] = relisted(w.diffs[8])
    assert w.diffs[8].equals(w.diffs[2])
    want = homology_dims(ctx.cx, 12)
    counts = _count_period_work(monkeypatch)
    cx = CochainComplex(ctx.table, ctx.form, 13, w)
    assert homology_dims(cx, 12) == want
    assert cx.diffs == ctx.cx.diffs and cx.diffs[7] is cx.diffs[1]
    assert counts["_dual_matrix"] == counts["_tensor_matrix"] == 6


def test_a_product_with_a_differential_of_its_own_is_composed(monkeypatch):
    # d8 negated on the terms that land in target summand 1: d7 o d8 no
    # longer vanishes.  The explicit d^7 is made to agree with its dual, so
    # only the d o d check can see it: d^7 is no repeat, so d^7 d^6 is
    # composed although d^6 repeats d^0
    from preproj_hh.resolution import BimoduleMap, build_resolution, compose
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    f = w.diffs[8]
    w.diffs[8] = BimoduleMap.from_terms(
        f.table, f.source, f.target,
        [[(k, -c if k == 1 else c, x, y) for k, c, x, y in terms] for terms in term_lists(f)])
    assert not compose(w.diffs[7], w.diffs[8]).is_zero()
    original = CochainComplex._explicit_matrix
    monkeypatch.setattr(CochainComplex, "_explicit_matrix",
                        lambda self, i: self._dual_matrix(i) if i == 7 else original(self, i))
    with pytest.raises(ComplexMismatchError, match="d7 o d6 != 0"):
        CochainComplex(ctx.table, ctx.form, 13, w)


# scalars that vanish in some of Q, F3 and F5 (0, 3, 5, a zero Fraction) among
# ones that do not; denominators prime to 3 and 5
_term_values = st.one_of(st.sampled_from([0, 3, -3, 5, Fraction(0), 15]),
                         st.integers(-6, 6),
                         st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4, 7])))


@given(char=st.sampled_from([0, 3, 5]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_producer_gives_canonical_vectors(char, data):
    # the one vector format: every cochain a producer hands out is a dict of
    # basis positions to nonzero field-canonical scalars, whatever vanishing
    # terms it was fed, so equal vectors are equal dicts
    ctx = context(2, char)
    t, cx, F = ctx.table, ctx.cx, ctx.field
    degree = data.draw(st.integers(0, 6), label="degree")
    space = cx.spaces[degree]
    keys = data.draw(st.lists(st.sampled_from(space.basis), unique=True), label="keys")
    terms = {key: data.draw(_term_values) for key in keys}
    vec = cx.vector_from_terms(degree, terms)
    assert is_canonical_vector(cx, degree, vec)
    assert vec == {space.pos[key]: F(c) for key, c in terms.items() if F(c) != 0}
    comps = {}
    for (comp, mid), c in terms.items():
        comps.setdefault(comp, {})[mid] = c
    assert cx.vector_from_components(degree, comps) == vec
    assert cx.vector_from_components(degree, cx.component_values(degree, vec)) == vec
    diagonal = {mid: c for (_, mid), c in terms.items()}
    if space.kind == LOOPS:
        assert cx.diagonal_vector(degree, diagonal) == vec
    central = [x0_element(t, 1)] + socle_basis(t)
    for z in central:
        assert is_canonical_vector(cx, degree, cx.scale_vector(degree, z, vec))
    assert is_canonical_vector(cx, degree + 1, cx.diffs[degree].matvec(vec))
    for v in cx.diffs[degree].kernel_basis():
        assert is_canonical_vector(cx, degree, v)
        # a kernel vector's image cancels entry by entry: nothing is left
        assert cx.diffs[degree].matvec(v) == {}

    # a drawn combination of the canonical cocycles, which cancel in places
    basis = canonical_cocycles(cx, degree)
    for k in range(13):
        assert all(is_canonical_vector(cx, k, v) for v in canonical_cocycles(cx, k).vectors)
    coeffs = data.draw(st.lists(_term_values, min_size=len(basis.vectors),
                                max_size=len(basis.vectors)), label="coefficients")
    cocycle = cx.vector_from_terms(degree, {
        space.basis[i]: sum(c * v.get(i, 0) for c, v in zip(coeffs, basis.vectors))
        for i in range(space.dim)})
    assert is_canonical_vector(cx, degree, cocycle)
    assert cx.is_cocycle(degree, cocycle)
    sol = basis.solver.solve(cocycle)
    assert set(sol) <= set(basis.solver.pivots)
    assert all(canonical(F, x) for x in sol.values())
    assert basis.coords(cocycle) == sparse(F(c) for c in coeffs)
    name, gdeg, gvec = data.draw(st.sampled_from(ctx.engine.generators()), label="generator")
    classes = [(cocycle, degree)]
    for x, dx, y, dy in ((cocycle, degree, gvec, gdeg), (gvec, gdeg, cocycle, degree)):
        product = ctx.engine.cup_vec(x, dx, y, dy)
        assert is_canonical_vector(cx, dx + dy, product)
        classes.append((product, dx + dy))
    # class coordinates: a dict of canonical scalars at indices of the
    # canonical classes of their degree
    for v, d in classes:
        coords = ctx.engine.identify(v, d).coords
        k = len(canonical_cocycles(cx, d).vectors)
        assert type(coords) is dict and all(type(j) is int and 0 <= j < k for j in coords)
        assert all(canonical(F, x) for x in coords.values())
    # a batch pulled back along a lifted generator map and along d_(degree+1):
    # each output is the one its cochain gets alone and the term-by-term scan's
    batch = [vec] + basis.vectors + [{}, vec]
    for f, j in ((ctx.engine.lift(gvec, gdeg, degree).maps[degree], degree + gdeg),
                 (cx.window.diffs[degree + 1], degree + 1)):
        pulled = cx.pullback(f, degree, j, batch)
        assert len(pulled) == len(batch)
        for phi, out in zip(batch, pulled):
            assert is_canonical_vector(cx, j, out)
            assert out == cx.pullback(f, degree, j, [phi])[0]
            assert out == _reference_pullback(cx, f, degree, j, phi)

    # one vector built in two insertion orders is lifted once; a cocycle of
    # one entry has one order, and y stands in for it
    if degree == 0 or len(cocycle) < 2:
        degree, cocycle = 1, canonical_cocycles(cx, 1).vectors[0]
    eng = YonedaEngine(cx)
    first = eng.lift(cocycle, degree, 1)
    solved = eng.steps_solved
    reordered = dict(reversed(list(cocycle.items())))
    assert reordered == cocycle and list(reordered) != list(cocycle)
    assert eng.lift(reordered, degree, 1) is first
    assert eng.steps_solved == solved > 0


def _reference_scale(cx, degree, z, vec):
    """z times each component value, by `multiply` over every pair of terms."""
    return cx.vector_from_components(degree, {
        comp: multiply(cx.table, z, v) for comp, v in cx.component_values(degree, vec).items()})


@given(n=st.integers(1, 3), char=st.sampled_from([0, 3, 5]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_scale_vector_is_the_componentwise_algebra_product(n, char, data):
    # the one walk over the cochain equals `multiply` on every component,
    # for each central basis element and for drawn elements that are not
    # central.  A drawn monomial that ends where an entry starts is a cycle,
    # or the product would leave V^degree; the others start where entries
    # start, and a walk that matched z's sources would compose them
    cx = context(n, char).cx
    t, F = cx.table, cx.table.field
    degree = data.draw(st.integers(0, 6), label="degree")
    space = cx.spaces[degree]
    keys = data.draw(st.lists(st.sampled_from(space.basis), unique=True, max_size=4),
                     label="keys")
    vec = cx.vector_from_terms(degree, {key: data.draw(_term_values) for key in keys})
    starts = {t.sources[space.basis[r][1]] for r in vec}
    mids = data.draw(st.lists(st.integers(0, t.dim - 1), unique=True), label="z monomials")
    drawn = {m: fc for m in mids
             if (t.sources[m] == t.targets[m] or t.targets[m] not in starts)
             and (fc := F(data.draw(_term_values)))}
    for z in center_basis(t) + [drawn]:
        got = cx.scale_vector(degree, z, vec)
        assert is_canonical_vector(cx, degree, got)
        assert got == _reference_scale(cx, degree, z, vec)
