import itertools
from fractions import Fraction

import pytest

import preproj_hh.yoneda as ymod
from preproj_hh.algebra import x0_element
from preproj_hh.cochain import canonical_cocycles
from preproj_hh.exactla import ExactMatrix, FieldSpec
from preproj_hh.resolution import BimoduleMap, ResolutionWindow, build_resolution, compose
from preproj_hh.yoneda import (ChainMapSegment, LiftFailedError, NotACocycleError,
                               adjacency_matrix, c_matrix,
                               closed_form_c_matrix, combinatorial_c_matrix,
                               stable_structure_check, YonedaEngine,
                               _graded_triples)
from conftest import context, is_canonical, system_shapes, term_lists


def gen(ctx, name):
    return ctx.engine.generator_vector(name)


def classes_equal(c1, c2):
    return c1.degree == c2.degree and c1.coords == c2.coords


def verify_segment(engine, seg, vec) -> bool:
    """Symbolic check of the chain-map identities for a given segment, each
    side coerced into the engine's field: a segment of the integral lifts
    holds Q values, and is a lift over F_p as reduced mod p."""
    w, t = engine.window, engine.table
    degree = seg.base_degree

    def coerced(f):
        return f.source, f.target, [{key: fc for key, c in terms.items() if (fc := t.field(c))}
                                    for terms in f.values]

    comps = engine.cx.component_values(degree, vec)
    for ks, terms in enumerate(seg.maps[0].values):
        acc: dict = {}
        for (kt, x, y), c in terms.items():
            hit = t.mono_mul(x, y)
            if hit is not None:
                acc[hit[1]] = acc.get(hit[1], 0) + c * hit[0]
        want = comps.get(engine.cx.spaces[degree].components[ks], {})
        got = {m: t.field(c) for m, c in acc.items() if t.field(c) != 0}
        if got != want:
            return False
    for k in range(1, len(seg.maps)):
        lhs = compose(w.diffs[k], seg.maps[k])
        rhs = compose(seg.maps[k - 1], w.diffs[degree + k])
        if coerced(lhs) != coerced(rhs):
            return False
    return True


def test_lift_rejects_non_cocycles():
    ctx = context(2)
    t, cx = ctx.table, ctx.cx
    # a single arrow in the parallels space is not an R^*-cocycle
    vec = cx.vector_from_terms(1, {(1, t.arrow_ids[1]): 1})
    assert not cx.is_cocycle(1, vec)
    with pytest.raises(NotACocycleError):
        ctx.engine.lift(vec, 1, 1)
    with pytest.raises(NotACocycleError):
        ctx.engine.identify(vec, 1)


@pytest.mark.parametrize("n,char", [(3, 0), (4, 3)])
def test_graded_pieces_are_built_once_per_batch(n, char, monkeypatch):
    # the generator batch, lifted in the engine's field, builds each graded
    # piece once, and drops the lists when it ends; the lifts are those of an
    # engine that rebuilds every one
    ctx = context(n, char)
    top = ctx.cx.maxdeg - 1
    built = []

    def recorded(t, term, s, tt, degree):
        built.append((term.kind, s, tt, degree))
        return _graded_triples(t, term, s, tt, degree)

    monkeypatch.setattr(ymod, "_graded_triples", recorded)
    eng = YonedaEngine(ctx.cx)
    batch = [(v, d, top - d) for _, d, v in eng.generators()]
    eng.lift_many(batch)
    assert len(built) == len(set(built)) and eng._triples == {}
    asked = []

    class Rebuilding(YonedaEngine):
        def _graded(self, term, s, tt, degree):
            asked.append((term.kind, s, tt, degree))
            return _graded_triples(self.table, term, s, tt, degree)

    ref = Rebuilding(ctx.cx)
    ref.lift_many(batch)
    assert len(asked) > len(built) and set(asked) == set(built)
    assert [[m.values for m in seg.maps] for seg in eng._lift_cache.values()] == [
        [m.values for m in seg.maps] for seg in ref._lift_cache.values()]


def test_memos_keep_no_failure():
    # the window check runs before a call is counted, and a call that
    # raises stores nothing: a second one raises again
    ctx = context(2)
    t, cx = ctx.table, ctx.cx
    eng = YonedaEngine(cx)
    vec = cx.vector_from_terms(1, {(1, t.arrow_ids[1]): 1})
    dz, zv = eng.generator_vector("z1")
    dh, hv = eng.generator_vector("h")
    with pytest.raises(ValueError):
        eng.cup_vec(hv, dh, hv, dh + 1)
    assert eng.products == 0
    for _ in range(2):
        with pytest.raises(NotACocycleError):
            eng.cup_vec(zv, dz, vec, 1)
        with pytest.raises(NotACocycleError):
            eng.identify(vec, 1)
    assert eng.work()["products_evaluated"] == eng.work()["classes_identified"] == 0
    assert eng.products == 2


def _certificate(n, char, monkeypatch):
    """The engine, body and header `work` of one certificate, oracle off."""
    import preproj_hh.cli as cli
    engines = []

    class Kept(YonedaEngine):
        def __init__(self, cx):
            super().__init__(cx)
            engines.append(self)

    monkeypatch.setattr(cli, "YonedaEngine", Kept)
    cert = cli.compute_certificate(n, char, 13, 10000, False)
    assert cert["body"]["pass"]
    (engine,) = engines
    return engine, cert["body"], cert["header"]["work"]


def _certificate_engine(n, char, monkeypatch):
    """The product engine of one certificate, oracle off, after its run."""
    return _certificate(n, char, monkeypatch)[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("char", [0, 3, 5])
def test_memoized_products_and_classes_are_what_a_fresh_engine_computes(
        n, char, monkeypatch):
    # every product and class a certificate took, recomputed by an engine
    # with nothing cached: each query of it is a distinct one, so evaluated
    eng = _certificate_engine(n, char, monkeypatch)
    work = eng.work()
    assert work["products_evaluated"] == len(eng._products) < eng.products
    assert work["classes_identified"] == len(eng._classes)
    fresh = YonedaEngine(eng.cx)
    for ((dx, x), (dy, y)), vec in eng._products.items():
        assert fresh.cup_vec(dict(x), dx, dict(y), dy) == vec
    for (degree, items), cls in eng._classes.items():
        assert fresh.identify(dict(items), degree) == cls
    assert fresh.work()["products_evaluated"] == fresh.products == len(eng._products)
    assert fresh.work()["classes_identified"] == len(eng._classes)


@pytest.mark.parametrize("n,char", [(3, 0), (3, 3), (4, 5)])
def test_memo_entries_stay_as_stored(n, char):
    # the vectors and classes handed out are read, never changed: what the
    # memos held after the product table still holds after the relation
    # check, the spanning audit and the h-check have read them again
    import copy
    from preproj_hh.presentation import theorem_spec, verify
    ctx = context(n, char)
    eng = YonedaEngine(ctx.cx)
    c_matrix(ctx.table, eng)
    eng.product_table()
    products, classes = copy.deepcopy(eng._products), copy.deepcopy(eng._classes)
    calls = eng.products
    assert verify(theorem_spec(n, ctx.field), eng)["ok"]
    assert stable_structure_check(eng)["ok"]
    assert eng.products > calls and len(eng._products) > len(products)
    assert {key: eng._products[key] for key in products} == products
    assert {key: eng._classes[key] for key in classes} == classes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_of_h_is_identity_pattern(n):
    ctx = context(n)
    t = ctx.table
    dh, hv = gen(ctx, "h")
    seg = ctx.engine.lift(hv, dh, 2)
    for k in (0, 1, 2):
        for ks, terms in enumerate(seg.maps[k].values):
            s, tt = seg.maps[k].source.summands[ks]
            assert terms == {(ks, t.e_ids[s], t.e_ids[tt]): 1}


@pytest.mark.parametrize("n", [2, 3])
def test_lift_of_gamma_step_one_is_loop_indicator(n):
    ctx = context(n)
    t = ctx.table
    dg, gv = gen(ctx, "gamma")
    seg = ctx.engine.lift(gv, dg, 1)
    for ks, terms in enumerate(seg.maps[1].values):
        if ks == 0:
            assert terms == {(0, t.e_ids[1], t.e_ids[1]): 1}
        else:
            assert terms == {}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 7])
def test_lift_segments_verify(n, char):
    ctx = context(n, char)
    for name in ["y", "z1", "gamma", "h"]:
        d, v = gen(ctx, name)
        seg = ctx.engine.lift(v, d, min(6, 12 - d))
        assert verify_segment(ctx.engine, seg, v)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 3, 5])
def test_cached_lifts_stay_honest(n, char):
    # every segment the product table lifted through the prepared systems
    # satisfies the chain-map identities, checked symbolically
    engine = context(n, char).engine
    engine.product_table()
    assert engine._lift_cache
    for (degree, vec), seg in engine._lift_cache.items():
        assert verify_segment(engine, seg, dict(vec))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graded_triples_match_a_scan_of_the_basis(n):
    # the endpoint index walks the same pairs, in the same order, as
    # filtering the whole basis twice
    t = context(n).table
    w = context(n).window
    for term in w.terms[:3]:
        for s, tt in {*term.summands, *w.terms[1].summands}:
            for degree in range(0, 2 * t.top_degree + 1):
                scan = [(k, x.mid, y.mid) for k, (u, v) in enumerate(term.summands)
                        for x in t.basis if x.source == s and x.target == u
                        for y in t.basis if y.source == v and y.target == tt
                        and x.degree + y.degree == degree]
                assert _graded_triples(t, term, s, tt, degree) == scan


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identify_canonical_unit_vectors(n):
    ctx = context(n)
    for degree in range(0, 7):
        basis = canonical_cocycles(ctx.cx, degree)
        for idx, vec in enumerate(basis.vectors):
            cls = ctx.engine.identify(vec, degree)
            assert cls.coords == {idx: ctx.table.field.one}


@pytest.mark.parametrize("n", [2, 3])
def test_identify_socle_and_eps_power_products(n):
    ctx = context(n)
    t, cx, eng = ctx.table, ctx.cx, ctx.engine
    # w_1 as a degree-5 cocycle is the product x0^(n-1) y gamma
    vec = cx.vector_from_terms(5, {(1, t.socle_ids[1]): 1})
    cls = eng.identify(vec, 5)
    dy, yv = gen(ctx, "y")
    dg, gv = gen(ctx, "gamma")
    prod = eng.cup_vec(yv, dy, gv, dg)
    prod = cx.scale_vector(5, x0_element(t, n - 1), prod)
    assert classes_equal(cls, eng.identify(prod, 5))
    assert cls.nonzero_items() == [(("x0^" + str(n - 1) if n > 2 else "x0")
                                    + "*y.gamma", t.field.one)]
    # eps^(2n-2) as a degree-6 cocycle is x0^(n-1) h
    mid = t.by_ijd[(1, 1, 2 * n - 2)]
    vec6 = cx.vector_from_terms(6, {(1, mid): 1})
    cls6 = eng.identify(vec6, 6)
    assert [lab for lab, _ in cls6.nonzero_items()] == [
        ("x0^" + str(n - 1) if n > 2 else "x0") + "*h"]


@pytest.mark.parametrize("n,char", [(2, 0), (3, 0), (2, 5), (3, 7)])
def test_product_lemmas(n, char):
    ctx = context(n, char)
    eng = ctx.engine
    F = ctx.table.field
    table = eng.product_table()

    def coords_of(label, degree):
        return {canonical_cocycles(eng.cx, degree).labels.index(label): F.one}

    top = "x0^" + str(n - 1) if n > 2 else ("x0" if n == 2 else "")
    prefix = top + "*" if top else ""
    assert table[("y", "y")].is_zero()
    assert table[("gamma", "gamma")].coords == coords_of("z1*h", 8)
    for j in range(1, n + 1):
        expected = [(F((-1) ** j * (n - j + 1)), f"{prefix}h")]
        got = [(c, lab) for lab, c in table[(f"z{j}", "gamma")].nonzero_items()]
        expected = [(c, lab) for c, lab in expected if c != 0]
        assert got == expected
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            cls = table[(f"z{j}", f"t{k}")]
            if j == k:
                assert cls.nonzero_items() == [(f"{prefix}y.gamma", F.one)]
            else:
                assert cls.is_zero()
    for j in range(1, n + 1):
        cls = table[(f"t{j}", "gamma")]
        if j == 1:
            assert [lab for lab, _ in cls.nonzero_items()] == [f"{prefix}y*h"]
        else:
            assert cls.is_zero()
    # z_j z_k = (-1)^(k-j+1) (2j-1)(n-k+1) x0^(n-1) gamma for j <= k
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            coeff = F((-1) ** (k - j + 1) * (2 * j - 1) * (n - k + 1))
            cls = table[(f"z{j}", f"z{k}")]
            if coeff == 0:
                assert cls.is_zero()
            else:
                assert cls.nonzero_items() == [(f"{prefix}gamma", coeff)]
    # degree-3 times odd degrees vanishes
    for j in range(1, n + 1):
        assert table[(f"t{j}", "y")].is_zero()
        assert table[("y", f"t{j}")].is_zero()
        for k in range(1, n + 1):
            assert table[(f"t{j}", f"t{k}")].is_zero()


@pytest.mark.parametrize("n,char", [(2, 0), (3, 0), (2, 5)])
def test_graded_commutativity(n, char):
    ctx = context(n, char)
    eng = ctx.engine
    F = ctx.table.field
    gens = eng.generators()
    for (n1, d1, v1), (n2, d2, v2) in itertools.combinations(gens, 2):
        if d1 + d2 > 12:
            continue
        ab = eng.cup(v1, d1, v2, d2)
        ba = eng.cup(v2, d2, v1, d1)
        sign = F((-1) ** (d1 * d2))
        assert ab.coords == {j: F.mul(sign, c) for j, c in ba.coords.items()}


def test_associativity_on_generator_triples():
    ctx = context(2)
    eng = ctx.engine
    gens = eng.generators()
    for (n1, d1, v1), (n2, d2, v2), (n3, d3, v3) in itertools.product(gens, repeat=3):
        if d1 + d2 + d3 > 12:
            continue
        left = eng.cup_vec(eng.cup_vec(v1, d1, v2, d2), d1 + d2, v3, d3)
        right = eng.cup_vec(v1, d1, eng.cup_vec(v2, d2, v3, d3), d2 + d3)
        cl = eng.identify(left, d1 + d2 + d3)
        cr = eng.identify(right, d1 + d2 + d3)
        assert cl.coords == cr.coords, (n1, n2, n3)


@pytest.mark.parametrize("n,char", [(2, 0), (2, 5), (3, 0)])
def test_lift_independence(n, char, monkeypatch):
    # a second engine lists every graded piece in reverse.  Reversed equation
    # rows leave an echelon-canonical solution where it is; reversed unknowns
    # pick another particular solution, so some lifts differ, but the
    # classes of the products must not
    ctx = context(n, char)
    eng = ctx.engine
    monkeypatch.setattr(ymod, "_graded_triples",
                        lambda *a: _graded_triples(*a)[::-1])
    other = YonedaEngine(ctx.cx)
    lifts_differ = False
    for left, right in [("y", "z1"), ("z1", "gamma"), ("y", "gamma"),
                        ("gamma", "gamma"), ("z1", "t1")]:
        dl, vl = gen(ctx, left)
        dr, vr = gen(ctx, right)
        c1 = eng.identify(eng.cup_vec(vl, dl, vr, dr), dl + dr)
        c2 = other.identify(other.cup_vec(vl, dl, vr, dr), dl + dr)
        assert c1.coords == c2.coords
        f1, f2 = eng.lift(vr, dr, dl).maps[dl], other.lift(vr, dr, dl).maps[dl]
        lifts_differ = lifts_differ or not f1.equals(f2)
    assert lifts_differ


@pytest.mark.parametrize("n,char", [(2, 0), (3, 7)])
def test_central_scaling_commutes_with_cup(n, char):
    # lifting x0 * w is the x0-scaling of a lift of w, so the product with a
    # scaled class equals the scaled product; check it by direct computation
    ctx = context(n, char)
    eng, cx, t = ctx.engine, ctx.cx, ctx.table
    x0 = x0_element(t, 1)
    for left, right in [("y", "z1"), ("z1", "gamma"), ("y", "gamma")]:
        dl, vl = gen(ctx, left)
        dr, vr = gen(ctx, right)
        scaled_first = eng.cup_vec(vl, dl, cx.scale_vector(dr, x0, vr), dr)
        scaled_after = cx.scale_vector(dl + dr, x0, eng.cup_vec(vl, dl, vr, dr))
        assert (eng.identify(scaled_first, dl + dr).coords
                == eng.identify(scaled_after, dl + dr).coords)


@pytest.mark.parametrize("n,char", [(2, 0), (3, 0), (2, 5), (3, 7)])
def test_h_multiplication_is_coordinate_relabelling(n, char):
    ctx = context(n, char)
    eng = ctx.engine
    dh, hv = gen(ctx, "h")
    for degree in range(1, 7):
        basis = canonical_cocycles(eng.cx, degree)
        assert len(canonical_cocycles(eng.cx, degree + dh).vectors) == len(basis.vectors)
        for idx, vec in enumerate(basis.vectors):
            cls = eng.cup(vec, degree, hv, dh)
            assert cls.coords == {idx: eng.table.field.one}
    assert stable_structure_check(eng)["ok"]


@pytest.mark.parametrize("n", range(1, 7))
def test_c_matrix_three_ways(n):
    ctx = context(n)
    cm = c_matrix(ctx.table, ctx.engine)
    assert cm["entries"] == closed_form_c_matrix(n) == combinatorial_c_matrix(ctx.table)
    assert cm["rank"] == n
    assert abs(cm["det"]) == (2 * n + 1) ** (n - 1)
    assert cm["adjacency_identity"]


def test_c_matrix_example_n2():
    cm = c_matrix(context(2).table, context(2).engine)
    assert cm["entries"] == [[-2, 1], [1, -3]]
    assert cm["det"] == 5


@pytest.mark.parametrize("n,p", [(1, 3), (2, 5), (3, 7), (7, 3), (7, 5)])
def test_c_matrix_rank_drops_in_modular_characteristic(n, p):
    assert (2 * n + 1) % p == 0
    table = context(n, p).table if n <= 3 else None
    if table is not None:
        cm = c_matrix(table)
        assert cm["rank"] == 1
    else:
        mat = ExactMatrix(FieldSpec(p), closed_form_c_matrix(n))
        assert mat.rank() == 1


def test_adjacency_matrix_shape():
    D = adjacency_matrix(3)
    assert D == [[1, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_c_matrix_mismatch_detection(monkeypatch):
    # corrupting one computation route must be caught against the others
    ctx = context(2)
    monkeypatch.setattr(ymod, "combinatorial_c_matrix",
                        lambda table: [[-2, 1], [1, -2]])
    cm = ymod.c_matrix(ctx.table)
    # the section has no "ok": it passes exactly when it holds no failures
    assert "failures" in cm
    assert cm["failures"][0] == ("combinatorial and closed-form entries disagree: "
                                 "[[-2, 1], [1, -2]] vs [[-2, 1], [1, -3]]")
    # the failures are written into the section, next to the matrix fields
    assert set(cm) == {"entries", "rank", "det", "det_sign", "adjacency_identity",
                       "failures"}


# -- twist classes of lifting systems -------------------------------------------


def _sign(t, key):
    """(-1)^deg of the right tensor factor of a (summand, left, right) key."""
    return -1 if t.basis[key[2]].degree % 2 else 1


def _system_matrix(F, rows, unknowns):
    """The field matrix of `_assemble`'s rows of plain sums, each entry
    coerced into F and the zeros dropped."""
    return ExactMatrix.from_entries(
        F, len(rows), len(unknowns),
        ((i, j, x) for i, row in enumerate(rows) for j, x in row.items()))


class _SolvedEveryStep(YonedaEngine):
    """Reference engine: the period shortcut off, every step solved."""

    def _twisted_step(self, seg, k):
        return None


class _Recording:
    """Records (base degree, step) of every solved step, step 0 included, and
    the key of every assembled lifting system, on a lifter."""

    def __init__(self, *args):
        super().__init__(*args)
        self.solved = []
        self.assembled = []

    def _lift_cochain(self, degree, vec):
        self.solved.append((degree, 0))
        return super()._lift_cochain(degree, vec)

    def _solve_steps(self, k, segs):
        self.solved.extend((seg.base_degree, k) for seg in segs)
        return super()._solve_steps(k, segs)

    def _assemble(self, k, s, tt, rhs_value_degree):
        self.assembled.append((k, s, tt, rhs_value_degree))
        return super()._assemble(k, s, tt, rhs_value_degree)


class _RecordedSteps(_Recording, YonedaEngine):
    """An engine that records its lifting (`_Recording`)."""


def _certificate_lifters(n, char, monkeypatch):
    """The lifters of one certificate, oracle off, that lifted, and its
    header `work`: its engine, or the integral lifter the engine asked."""
    import preproj_hh.cli as cli
    lifters = []

    class Engine(_RecordedSteps):
        def __init__(self, cx):
            super().__init__(cx)
            lifters.append(self)

    class IntegralLifter(_Recording, ymod.Lifter):
        def __init__(self, *args):
            super().__init__(*args)
            lifters.append(self)

    monkeypatch.setattr(cli, "YonedaEngine", Engine)
    monkeypatch.setattr(ymod, "Lifter", IntegralLifter)
    cert = cli.compute_certificate(n, char, 13, 10000, False)
    assert cert["body"]["pass"]
    return [lifter for lifter in lifters if lifter.solved], cert["header"]["work"]


def _lift_generators(eng):
    top = eng.cx.maxdeg - 1
    return [(name, d, v, eng.lift(v, d, top - d)) for name, d, v in eng.generators()]


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twisted_systems_are_sign_conjugates_of_their_base(n, char):
    # every step k >= 4 is marked d_k = tau(d_(k-3)), and the step-k system
    # equals E M_(k-3) E, E the diagonal of signs (-1)^deg(right factor), on
    # the same unknowns and equations
    ctx = context(n, char)
    eng, t, w, F = ctx.engine, ctx.table, ctx.window, ctx.field
    for k in range(4, w.depth + 1):
        assert eng._twist[k] is True
        for s, tt, dv in system_shapes(t, w):
            rows, unknowns, eq_pos = eng._assemble(k, s, tt, dv)
            prev_rows, prev_unknowns, prev_eq_pos = eng._assemble(k - 3, s, tt, dv)
            eq_keys = list(eq_pos)
            assert (unknowns, eq_keys) == (prev_unknowns, list(prev_eq_pos))
            mat = _system_matrix(F, rows, unknowns)
            prev = _system_matrix(F, prev_rows, prev_unknowns)
            conj = ExactMatrix.from_entries(
                F, prev.nrows, prev.ncols,
                ((i, j, _sign(t, eq_keys[i]) * _sign(t, unknowns[j]) * x)
                 for i, row in enumerate(prev.rows) for j, x in row.items()))
            assert mat == conj, (k, s, tt, dv)


def test_a_step_that_is_no_twist_keeps_its_own_system():
    # d5 negated: d5 is no longer tau(d2), nor d8 tau(d5); d11 = tau(d8)
    # still holds.  The negated window is still a
    # resolution with the same cocycles (negating d5 keeps every kernel), so
    # every lift along it must satisfy the chain-map identities.  No step k
    # or degree+k in {5, 8} may be a twist of an earlier step: those steps
    # are solved, and the lifts match an engine that solves every step
    import copy
    from preproj_hh.yoneda import _twist_classes
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    f = w.diffs[5]
    w.diffs[5] = BimoduleMap.from_terms(
        f.table, f.source, f.target,
        [[(k, -c, x, y) for k, c, x, y in terms] for terms in term_lists(f)])
    classes = _twist_classes(w)
    assert classes[5] is False and classes[8] is False
    assert classes[11] is True
    assert classes[4] is True and classes[7] is True
    assert classes[6] is True and classes[12] is True
    cx = copy.copy(ctx.cx)
    cx.window = w
    eng, ref = _RecordedSteps(cx), _SolvedEveryStep(cx)
    assert eng._twist == classes
    top = cx.maxdeg - 1
    for name, d, v in eng.generators():
        seg = eng.lift(v, d, top - d)
        assert verify_segment(eng, seg, v), name
        assert [m.values for m in seg.maps] == [
            m.values for m in ref.lift(v, d, top - d).maps], name
        solved = {k for dd, k in eng.solved if dd == d}
        assert {k for k in range(len(seg.maps)) if k in (5, 8) or d + k in (5, 8)} <= solved
    assert {key[0] for key in eng.assembled} >= {5, 8}
    assert eng.steps_twisted > 0


@pytest.mark.parametrize("n,char,eliminations", [(6, 0, 98), (7, 3, 115)])
def test_distinct_lifting_systems_per_certificate(n, char, eliminations, monkeypatch):
    # pinned: 98 eliminations at n=6 over Q and 115 at n=7 over F3, and
    # each lifting system is assembled once per elimination, where it is
    # eliminated; step 0 is read off the grading and never assembled.  One
    # lifter lifts: the Q engine itself, or the integral lifter of the F3
    # engine, whose header counts that lifter's work
    (lifter,), work = _certificate_lifters(n, char, monkeypatch)
    assert type(lifter).__name__ == ("Engine" if char == 0 else "IntegralLifter")
    assert lifter.lift_eliminations == work["lifting_eliminations"] == eliminations
    assert len(lifter.assembled) == eliminations
    assert all(k > 0 for k, _, _, _ in lifter.assembled)


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twisted_steps_match_solved_steps(n, char):
    # every generator's lift through the whole window, map for map, against
    # an engine that solves every step; each lift verifies
    cx = context(n, char).cx
    eng, ref = YonedaEngine(cx), _SolvedEveryStep(cx)
    for (name, d, v, mine), (_, _, _, theirs) in zip(_lift_generators(eng),
                                                     _lift_generators(ref)):
        assert verify_segment(eng, mine, v), name
        assert len(mine.maps) == len(theirs.maps) == cx.maxdeg - d
        for k, (f, g) in enumerate(zip(mine.maps, theirs.maps)):
            assert f.values == g.values, (name, k)
    assert eng.steps_twisted > 0 and ref.steps_twisted == 0
    assert eng.steps_solved + eng.steps_twisted == ref.steps_solved


def _reference_step0(eng, degree, vec):
    """Step 0 as a lifting system: one equation u o f = c mid per monomial
    mid of the cocycle, over the graded value terms, solved by `solve_many`."""
    t, w, F = eng.table, eng.window, eng.table.field
    comps = eng.cx.component_values(degree, vec)
    values = []
    for (s, tt), comp in zip(w.terms[degree].summands, eng.cx.spaces[degree].components):
        out = []
        for mid, c in sorted(comps.get(comp, {}).items()):
            unknowns = _graded_triples(t, w.terms[0], s, tt, t.basis[mid].degree)
            entries = []
            for j, (_, x, y) in enumerate(unknowns):
                hit = t.mono_mul(x, y)
                if hit is not None:
                    assert hit[1] == mid
                    entries.append((0, j, hit[0]))
            matrix = ExactMatrix.from_entries(F, 1, len(unknowns), entries)
            sol = matrix.solve_many([{0: c}])[0]
            assert sol is not None
            out += [(kt, sol[j], x, y) for j, (kt, x, y) in enumerate(unknowns)
                    if j in sol]
        values.append(out)
    return BimoduleMap.from_terms(t, w.terms[degree], w.terms[0], values)


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_step0_read_off_the_grading_matches_its_lifting_system(n, char):
    # step 0 of every generator, and of x0*y and x0*gamma, against the
    # echelon-canonical solution of its one-row systems, map for map
    cx = context(n, char).cx
    eng = YonedaEngine(cx)
    cocycles = [(d, v) for _, d, v in eng.generators()]
    for degree, label in ((1, "x0*y"), (4, "x0*gamma")):
        basis = canonical_cocycles(cx, degree)
        if label in basis.labels:
            cocycles.append((degree, basis.vectors[basis.labels.index(label)]))
    assert len(cocycles) == len(eng.generators()) + (2 if n > 1 else 0)
    for degree, vec in cocycles:
        assert eng._lift_cochain(degree, vec).values == \
            _reference_step0(eng, degree, vec).values, degree


def test_a_lift_that_breaks_its_period_is_solved():
    # f_4 + d_5 o i, i the identity pattern P^-8 -> P^-5, still satisfies the
    # identity at step 4 (d_4 o d_5 = 0) but is no longer +-tau(f_1): step 5
    # cannot be twisted, its solve from that f_4 is used, and the segment
    # still verifies
    from preproj_hh.yoneda import ChainMapSegment
    ctx = context(2, 3)
    t, w = ctx.table, ctx.window
    eng = _RecordedSteps(ctx.cx)
    d, v = eng.generator_vector("gamma")
    clean = ChainMapSegment(d, eng.lift(v, d, 4).maps[:5])
    assert eng._twisted_step(clean, 5) is not None
    assert w.terms[8].summands == w.terms[5].summands
    ident = BimoduleMap.from_terms(t, w.terms[8], w.terms[5],
                                   [[(ks, 1, t.e_ids[s], t.e_ids[tt])]
                                    for ks, (s, tt) in enumerate(w.terms[8].summands)])
    f4, shift = clean.maps[4], compose(w.diffs[5], ident)
    corrupted = BimoduleMap.from_terms(
        t, f4.source, f4.target, [a + b for a, b in zip(term_lists(f4), term_lists(shift))])
    assert not corrupted.equals(f4)
    seg = ChainMapSegment(d, clean.maps[:4] + [corrupted])
    assert eng._twisted_step(seg, 5) is None
    eng.solved.clear()
    twisted = eng.steps_twisted
    seg.maps.extend(eng._solve_steps(5, [seg]))
    assert eng.solved == [(d, 5)] and eng.steps_twisted == twisted
    assert verify_segment(eng, seg, v)


@pytest.mark.parametrize("n,char,solved", [(6, 0, 63), (7, 3, 71)])
def test_lift_steps_solved_per_certificate(n, char, solved, monkeypatch):
    # pinned: the period shortcut leaves 63 solved steps at n=6 over Q and
    # 71 at n=7 over F3 (136 and 172 without it); past step 3 only the
    # degree-1 lifts, whose period starts at step 6, solve, and only through 6
    (lifter,), work = _certificate_lifters(n, char, monkeypatch)
    assert len(lifter.solved) == lifter.steps_solved == work["lift_steps_solved"] == solved
    assert {(d, k) for d, k in lifter.solved if k > 3} == {(1, 4), (1, 5), (1, 6)}


def _reference_twist_sign(later, earlier):
    """Brute force: build eps tau(earlier) from its terms, for both signs, by
    multiplying each coefficient by eps (-1)^deg y itself."""
    basis = earlier.table.basis
    for eps in (1, -1):
        signed = BimoduleMap.from_terms(earlier.table, earlier.source, earlier.target,
                                        [[(k, eps * (-1) ** basis[y].degree * c, x, y)
                                          for k, c, x, y in terms]
                                         for terms in term_lists(earlier)])
        if later.values == signed.values:
            return eps
    return None


@pytest.mark.parametrize("n,char", [(2, 0), (2, 3), (3, 5)])
def test_twist_sign_matches_both_full_twists(n, char):
    # _twist_sign against both twists built from terms, on every map of every
    # generator's lift and on variants: each sign, one coefficient negated,
    # one term dropped, one summand dropped
    from preproj_hh.resolution import tau_twist
    from preproj_hh.yoneda import _twist_sign
    ctx = context(n, char)
    t, F = ctx.table, ctx.field
    eng = YonedaEngine(ctx.cx)
    seen = {None: 0, 1: 0, -1: 0}
    for _, _, _, seg in _lift_generators(eng):
        for f in seg.maps:
            variants = [f, tau_twist(f, 1), tau_twist(f, -1)]
            for base in variants[1:]:
                for ks, terms in enumerate(term_lists(base)):
                    for i, (k, c, x, y) in enumerate(terms[:2]):
                        flipped = term_lists(base)
                        flipped[ks][i] = (k, F.neg(c), x, y)
                        dropped = term_lists(base)
                        del dropped[ks][i]
                        variants += [BimoduleMap.from_terms(t, f.source, f.target, vals)
                                     for vals in (flipped, dropped)]
                variants.append(BimoduleMap(t, f.source, f.target, base.values[:-1]))
            zero = BimoduleMap(t, f.source, f.target, [{} for _ in f.values])
            assert _twist_sign(zero, zero) == _reference_twist_sign(zero, zero) == 1
            for later in variants:
                want = _reference_twist_sign(later, f)
                assert _twist_sign(later, f) == want
                seen[want] += 1
                if want is not None:
                    assert tau_twist(f, want).values == later.values
    assert all(seen.values())


class _KeptSolvedMaps(YonedaEngine):
    """Keeps every map `_solve_steps` returns."""

    def __init__(self, cx):
        super().__init__(cx)
        self.solved_maps = []

    def _solve_steps(self, k, segs):
        maps = super()._solve_steps(k, segs)
        self.solved_maps += maps
        return maps


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recorded_twist_signs_give_the_maps_of_twist_sign(n, char):
    # a sign is recorded exactly at the steps appended as twists, and on each
    # the recorded sign gives the map that the sign `_twist_sign` finds gives;
    # every solved map is canonical, as `_solve_steps` claims
    from preproj_hh.resolution import tau_twist
    from preproj_hh.yoneda import _twist_sign
    eng = _KeptSolvedMaps(context(n, char).cx)
    recorded = 0
    for name, d, _, seg in _lift_generators(eng):
        for k, eps in seg.signs.items():
            assert eng._twist[k] and eng._twist[d + k], (name, k)
            found = _twist_sign(seg.maps[k - 1], seg.maps[k - 4])
            assert found is not None, (name, k)
            base = seg.maps[k - 3]
            assert tau_twist(base, eps).values == tau_twist(base, found).values \
                == seg.maps[k].values, (name, k)
        recorded += len(seg.signs)
    assert recorded == eng.steps_twisted > 0
    assert eng.solved_maps
    assert all(is_canonical(f) for f in eng.solved_maps)


# -- batched lifts ----------------------------------------------------------------


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_lifts_match_lone_lifts(n, char):
    # every generator lifted in one batch, as deep as a product reads it,
    # equals map for map its lift by a fresh engine lifting it alone, and
    # satisfies the chain-map identities
    cx = context(n, char).cx
    eng = YonedaEngine(cx)
    top = cx.maxdeg - 1
    gens = eng.generators()
    segs = eng.lift_many([(v, d, top - d) for _, d, v in gens])
    lone_eliminations = 0
    for (name, d, v), seg in zip(gens, segs):
        lone = YonedaEngine(cx)
        alone = lone.lift(v, d, top - d)
        lone_eliminations += lone.lift_eliminations
        assert len(seg.maps) == len(alone.maps) == top - d + 1
        assert [f.values for f in seg.maps] == [f.values for f in alone.maps], name
        assert verify_segment(eng, seg, v), name
    # a system shared by several generators at one step is eliminated once
    assert eng.lift_eliminations < lone_eliminations


def test_a_batch_lifts_each_new_cocycle_once_and_whole():
    # one cocycle asked for twice and one lifted earlier: the batch lifts
    # only the new one, once, through step maxdeg - 1 - degree, and returns
    # shared whole segments
    cx = context(2, 3).cx
    top = cx.maxdeg - 1
    eng = YonedaEngine(cx)
    (_, dy, y), (_, dz, z) = eng.generators()[:2]
    earlier = eng.lift(z, dz, 1)
    assert eng.steps_solved + eng.steps_twisted == len(earlier.maps) == top - dz + 1
    segs = eng.lift_many([(y, dy, 2), (z, dz, 4), (y, dy, 5), (y, dy, 1)])
    assert eng.steps_solved + eng.steps_twisted == (top - dz + 1) + (top - dy + 1)
    assert segs[0] is segs[2] is segs[3] and len(segs[0].maps) == top - dy + 1
    assert segs[1] is earlier
    assert all(verify_segment(eng, seg, v) for seg, v in zip(segs, (y, z)))
    assert [f.values for f in segs[0].maps] == [
        f.values for f in YonedaEngine(cx).lift(y, dy, 5).maps]
    with pytest.raises(ValueError, match="too shallow"):
        eng.lift(y, dy, top - dy + 1)


class _CorruptedRhs(YonedaEngine):
    """Adds the value term `key` to one summand of one cocycle's step-1 rhs.

    `_solve_steps` reads the step-k right-hand side f_(k-1) o d_(degree+k)
    off `compose`, which `monkeypatch` replaces for this engine's lifts: the
    rhs of step 1 is the one whose left factor is that cocycle's step 0.
    """

    def __init__(self, cx, vec, ks, key, monkeypatch):
        super().__init__(cx)
        self.target, self.ks, self.key = vec, ks, key
        self.target_step0 = None
        monkeypatch.setattr(ymod, "compose", self._compose)

    def _lift_cochain(self, degree, vec):
        f = super()._lift_cochain(degree, vec)
        if vec is self.target:
            self.target_step0 = f
        return f

    def _compose(self, f, g):
        rhs = compose(f, g)
        if f is not self.target_step0:
            return rhs
        F = self.table.field
        values = [dict(terms) for terms in rhs.values]
        c = F.add(values[self.ks].get(self.key, F.zero), F.one)
        values[self.ks][self.key] = c
        if not c:
            del values[self.ks][self.key]
        return BimoduleMap(rhs.table, rhs.source, rhs.target, values)


def _inconsistent_key(eng, k, s, tt):
    """A step-k equation key whose unit right-hand side has no solution."""
    for dv in range(0, 2 * eng.table.top_degree + 2):
        rows, unknowns, eq_pos = eng._assemble(k, s, tt, dv)
        mat = _system_matrix(eng.table.field, rows, unknowns)
        for key, r in eq_pos.items():
            if mat.solve_many([{r: 1}])[0] is None:
                return key
    return None


@pytest.mark.parametrize("n,char", [(2, 0), (3, 3), (3, 5)])
def test_an_inconsistent_block_fails_the_whole_batch_step(n, char, monkeypatch):
    # one corrupted right-hand side in a batch: LiftFailedError names the
    # step and the summand, and no segment of the batch enters the cache
    cx = context(n, char).cx
    gens = YonedaEngine(cx).generators()
    _, d, vec = gens[len(gens) // 2]
    ks = len(cx.window.terms[d + 1].summands) - 1
    s, tt = cx.window.terms[d + 1].summands[ks]
    key = _inconsistent_key(YonedaEngine(cx), 1, s, tt)
    assert key is not None
    eng = _CorruptedRhs(cx, vec, ks, key, monkeypatch)
    with pytest.raises(LiftFailedError, match=f"at step 1, summand {ks}$"):
        eng.lift_many([(v, dd, 3) for _, dd, v in gens])
    assert not eng._lift_cache
    assert eng.steps_solved == len(gens)
    # the same batch without the corruption lifts each segment whole
    clean = YonedaEngine(cx)
    segs = clean.lift_many([(v, dd, 3) for _, dd, v in gens])
    assert [len(seg.maps) for seg in segs] == [cx.maxdeg - dd for _, dd, _ in gens]


def test_lifting_prepares_no_solver(monkeypatch):
    # at n=7 over F3 the only prepared solvers are the canonical class
    # solvers, one per degree 0..6
    import preproj_hh.cli as cli
    import preproj_hh.exactla as exactla
    prepared = []
    true_init = exactla.PreparedSolver.__init__

    def counting_init(self, matrix):
        prepared.append(matrix.nrows)
        true_init(self, matrix)

    monkeypatch.setattr(exactla.PreparedSolver, "__init__", counting_init)
    assert cli.compute_certificate(7, 3, 13, 10000, False)["body"]["pass"]
    assert len(prepared) == 7


@pytest.mark.parametrize("fault", ["solve returns no map"])
def test_a_lifting_pass_that_appends_no_map_raises(monkeypatch, fault):
    # a step whose solve returns fewer maps than it was asked for raises
    # instead of leaving a segment short
    eng = YonedaEngine(context(2, 3).cx)
    _, dy, y = eng.generators()[0]
    monkeypatch.setattr(eng, "_solve_steps", lambda k, batch: [])
    with pytest.raises(ValueError, match="shorter"):
        eng.lift_many([(y, dy, 3)])
    assert not eng._lift_cache


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_products_match_lone_products(n, char, monkeypatch):
    # cup_vecs gives, product for product, what cup_vec of a fresh engine
    # gives, with the same counts, on batches that repeat an x, mix memo hits
    # with misses and take a degree-0 factor; a batch that misses a
    # positive-degree product lifts once and pulls back each distinct miss
    # once, in one walk
    cx = context(n, char).cx
    batched, lone = YonedaEngine(cx), YonedaEngine(cx)
    lifts, walks = [], []
    true_lift, true_pullback = batched.lift, cx.pullback

    def counted_lift(vec, degree, steps):
        lifts.append(degree)
        return true_lift(vec, degree, steps)

    def recorded_pullback(f, i, j, vecs):
        walks.append(len(vecs))
        return true_pullback(f, i, j, vecs)

    batched.lift = counted_lift
    monkeypatch.setattr(cx, "pullback", recorded_pullback)
    top = cx.maxdeg - 1
    rights = [(d, v) for _, d, v in batched.generators()]
    rights += [(0, v) for v in canonical_cocycles(cx, 0).vectors[1:3]]
    for dx in range(7):
        basis = canonical_cocycles(cx, dx).vectors
        xs = basis + basis[:1]
        for dy, y in rights:
            if dx + dy > top:
                continue
            # the last x is held already, the first repeats; then all are held
            batched.cup_vec(basis[-1], dx, y, dy)
            lone.cup_vec(basis[-1], dx, y, dy)
            for misses in (len(basis) - 1, 0):
                want = [lone.cup_vec(x, dx, y, dy) for x in xs]
                before = batched.work()["products_evaluated"]
                del lifts[:], walks[:]
                assert batched.cup_vecs(xs, dx, y, dy) == want
                new = batched.work()["products_evaluated"] - before
                assert new == misses
                if new and dx and dy:
                    assert (lifts, walks) == ([dy], [new])
                else:
                    assert (lifts, walks) == ([], [])
                assert batched.work()["products_evaluated"] == lone.work()["products_evaluated"]
    assert batched.products == lone.products
    assert batched.pullback_walks <= lone.pullback_walks


# -- integral generator lifts ---------------------------------------------------


def _coerced_values(F, f):
    """The value dicts of f with each coefficient coerced into F."""
    return [{key: fc for key, c in terms.items() if (fc := F(c))} for terms in f.values]


def _assert_lifted_in_its_field(eng):
    """Every generator segment of eng is the own-field lift, map for map."""
    top = eng.cx.maxdeg - 1
    ref = YonedaEngine(eng.cx)
    for name, d, v in eng.generators():
        mine = eng.lift(v, d, top - d)
        assert all(is_canonical(f) for f in mine.maps), name
        assert [f.values for f in mine.maps] == [
            f.values for f in ref.lift(v, d, top - d).maps], name


@pytest.mark.parametrize("n,char", [(2, 5), (3, 7), (4, 3), (3, 3)])
def test_integral_lifts_reduce_to_the_lifts_of_the_field(n, char, monkeypatch):
    # an F_p engine that meets no integral lifts lifts the generators over Q,
    # along a Q window of its own; each segment, coerced into F_p, is the
    # lift in F_p, map for map, where p divides 2n+1 (n=3 F7, n=4 F3) too.
    # A certificate that reads them has the body of one that lifts in F_p
    cx = context(n, char).cx
    F, top = cx.table.field, cx.maxdeg - 1
    eng = YonedaEngine(cx)
    eng._lift_generators()
    (lifts,) = ymod._INTEGRAL_LIFTS.values()
    assert lifts.window is not cx.window and lifts.window.table.field == FieldSpec(0)
    assert eng.steps_solved > 0 and eng.generator_lifts_reused == 0
    gens = eng.generators()
    own = YonedaEngine(cx).lift_many([(v, d, top - d) for _, d, v in gens])
    for (name, d, v), seg in zip(gens, own):
        integral = lifts.segments[eng._key(d, v)]
        assert eng.lift(v, d, top - d) is integral
        assert [_coerced_values(F, f) for f in integral.maps] == [
            f.values for f in seg.maps], name
    read, body, work = _certificate(n, char, monkeypatch)
    assert work["generator_lifts_reused"] == len(gens) and work["lift_steps_solved"] == 0
    monkeypatch.setattr(ymod.IntegralLifts, "reducible_to", lambda *args: False)
    _, own_body, own_work = _certificate(n, char, monkeypatch)
    assert own_work["generator_lifts_reused"] == 0 < own_work["lift_steps_solved"]
    assert body == own_body


def _negate_a_d3_coefficient(lifts):
    """The window of the lifts, d_3 with one coefficient negated."""
    w = lifts.window
    f = w.diffs[3]
    values = [dict(terms) for terms in f.values]
    key = next(iter(values[0]))
    values[0][key] = -values[0][key]
    lifts.window = ResolutionWindow(w.table, w.depth, w.terms,
                                    w.diffs[:3] + [BimoduleMap(f.table, f.source, f.target,
                                                               values)] + w.diffs[4:],
                                    w.gen_degrees)


def _put_a_denominator(lifts, p):
    """One value of a lifted map becomes 1/p."""
    f = next(f for seg in lifts.segments.values() for f in seg.maps[1:] if any(f.values))
    terms = next(terms for terms in f.values if terms)
    terms[next(iter(terms))] = Fraction(1, p)


@pytest.mark.parametrize("fault", ["another rule", "a d3 coefficient negated",
                                   "a value 1/p", "a generator not lifted"])
def test_a_point_whose_check_fails_lifts_in_its_own_field(fault, monkeypatch):
    # integral lifts of another rule, a window that differs from the point's
    # in one d3 coefficient, a value whose denominator p divides, or a
    # generator they do not hold: the F5 point lifts every generator in F5,
    # and its body is the body of a point that read sound lifts
    import copy
    import preproj_hh.cli as cli
    n, p = 3, 5
    _, clean, clean_work = _certificate(n, p, monkeypatch)
    assert clean_work["lift_steps_solved"] > 0
    monkeypatch.setattr(ymod, "_INTEGRAL_LIFTS", {})
    if fault == "another rule":
        # one entry more at the end of the rule: no product reads it, and
        # the integral tables of n have the rule without it
        real = cli.build_algebra

        def extended(n, field):
            t = copy.copy(real(n, field))
            t.rule = t.rule + [None]
            return t

        monkeypatch.setattr(cli, "build_algebra", extended)
    else:
        _certificate(n, 0, monkeypatch)
        (lifts,) = ymod._INTEGRAL_LIFTS.values()
        if fault == "a d3 coefficient negated":
            _negate_a_d3_coefficient(lifts)
        elif fault == "a value 1/p":
            _put_a_denominator(lifts, p)
        else:
            del lifts.segments[next(iter(lifts.segments))]
    eng, body, work = _certificate(n, p, monkeypatch)
    assert body == clean
    assert work == clean_work
    _assert_lifted_in_its_field(eng)
    if fault == "another rule":
        assert ymod._INTEGRAL_LIFTS == {}


def test_a_generator_inconsistent_over_q_is_lifted_in_its_field():
    # y plus a coboundary over F3 is a cocycle there, but its items taken as
    # ints are no cocycle over Q, so a step of the Q lift is inconsistent:
    # the engine keeps no integral lifts and lifts every generator in F3
    ctx, q = context(3, 3), context(3, 0)
    cx, F = ctx.cx, ctx.field
    y = canonical_cocycles(cx, 1).vectors[0]
    phi = next(v for col in cx.diffs[0].columns
               if not q.cx.is_cocycle(1, v := {i: s for i in y.keys() | col.keys()
                                               if (s := F(y.get(i, 0) + col.get(i, 0)))}))
    assert cx.is_cocycle(1, phi)

    class Swapped(YonedaEngine):
        def generators(self):
            return [(name, d, phi if name == "y" else v) for name, d, v in super().generators()]

    eng = Swapped(cx)
    eng._lift_generators()
    assert ymod._INTEGRAL_LIFTS == {}
    assert eng.generator_lifts_reused == 0
    _assert_lifted_in_its_field(eng)


def test_integral_lifts_hold_one_key_and_none_while_a_lift_runs(monkeypatch):
    # the slot is emptied before the lift for another n starts, so a grid
    # over n never holds two lifts; the n=3 F5 point reads n=3's and lifts
    # nothing
    held = []
    real = ymod.Lifter._lift_whole

    def recorded(self, cocycles):
        cocycles = list(cocycles)
        if cocycles:
            held.append(dict(ymod._INTEGRAL_LIFTS))
        return real(self, cocycles)

    monkeypatch.setattr(ymod.Lifter, "_lift_whole", recorded)
    kept = []
    for n, char in ((2, 3), (3, 0), (3, 5), (2, 0)):
        _, _, work = _certificate(n, char, monkeypatch)
        ((rule, maxdeg),) = ymod._INTEGRAL_LIFTS
        kept.append((rule[0], maxdeg, work["generator_lifts_reused"]))
    assert kept == [(2, 13, 0), (3, 13, 0), (3, 13, 9), (2, 13, 0)]
    assert held == [{}, {}, {}]
