import pytest

from preproj_hh.algebra import (build_algebra, elem_eq, elem_scale, multiply,
                                socle_basis)
from preproj_hh.exactla import FieldSpec
from preproj_hh.nakayama import (DegenerateFormError, associated_form,
                                 certify_dualizable)
from conftest import context, variant_socle_table


def chain(t, arrows):
    out = t.unit()
    for a in arrows:
        out = multiply(t, out, t.monomial_element(t.arrow_ids[a]))
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_vertex_pairings_vanish(n):
    ctx = context(n)
    for i in ctx.table.quiver.vertices:
        for j in ctx.table.quiver.vertices:
            ei = ctx.table.monomial_element(ctx.table.e_ids[i])
            ej = ctx.table.monomial_element(ctx.table.e_ids[j])
            assert ctx.form.pair(ei, ej) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_eps_pairs_with_complementary_power(n):
    ctx = context(n)
    t = ctx.table
    eps = chain(t, [0])
    other = chain(t, [0] * (2 * n - 2))
    assert ctx.form.pair(eps, other) == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_arrow_duals_match_closed_form(n):
    # a_i^* = (-1)^(i(i+1)/2) ab_i..ab_1 eps^(2(n-i-1)+1) a_1..a_{i-1}
    ctx = context(n)
    t = ctx.table
    for i in range(1, n):
        dual = ctx.form.dual_element(t.arrow_ids[2 * i - 1])
        expected = chain(t, [2 * r for r in range(i, 0, -1)]
                         + [0] * (2 * (n - i - 1) + 1)
                         + [2 * r - 1 for r in range(1, i)])
        expected = elem_scale(t, (-1) ** (i * (i + 1) // 2), expected)
        assert elem_eq(dual, expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_named_duals(n):
    ctx = context(n)
    t = ctx.table
    for i in t.quiver.vertices:
        # e_i^* = w_i and w_i^* = e_i
        s, m = ctx.form.dual[t.e_ids[i]]
        assert (s, m) == (t.field.one, t.socle_ids[i])
        s, m = ctx.form.dual[t.socle_ids[i]]
        assert (s, m) == (t.field.one, t.e_ids[i])
    # eps^* = eps^(2n-2)
    s, m = ctx.form.dual[t.arrow_ids[0]]
    assert s == t.field.one and t.basis[m].degree == 2 * n - 2 \
        and t.basis[m].source == t.basis[m].target == 1


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("char", [0, 3])
def test_certify_dualizable_passes(n, char):
    ctx = context(n, char)
    report = certify_dualizable(ctx.form)
    assert report["arrow_condition"]
    assert report["double_dual_condition"]
    assert report["symmetry_condition"]
    assert not report["witnesses"]


@pytest.mark.parametrize("n", range(1, 6))
def test_gram_symmetric_and_nakayama_permutation_trivial(n):
    ctx = context(n)
    t = ctx.table
    for b, row in ctx.form.gram.items():
        for c, v in row.items():
            assert ctx.form.gram[c].get(b) == v
    # partner of e_i sits in e_i L e_i: the permutation is the identity
    for i in t.quiver.vertices:
        _, m = ctx.form.dual[t.e_ids[i]]
        assert t.basis[m].source == t.basis[m].target == i


@pytest.mark.parametrize("n", range(1, 6))
def test_dagger_completion(n):
    # x in e_i B e_1 satisfies x x^dagger = (-1)^(i(i-1)/2) w_i with
    # x^dagger = (-1)^(i(i-1)/2) x^*
    ctx = context(n)
    t = ctx.table
    for m in t.basis:
        if m.target != 1:
            continue
        i = m.source
        sign = (-1) ** (i * (i - 1) // 2)
        dagger = elem_scale(t, sign, ctx.form.dual_element(m.mid))
        prod = multiply(t, t.monomial_element(m.mid), dagger)
        assert elem_eq(prod, elem_scale(t, sign, socle_basis(t)[i - 1]))


@pytest.mark.parametrize("n", range(2, 6))
def test_variant_basis_fails_with_witness(n):
    t = variant_socle_table(n)
    form = associated_form(t)
    report = certify_dualizable(form)
    assert report["witnesses"]
    assert not report["arrow_condition"]
    assert not report["symmetry_condition"]
    # witness: a_i^* a_i = (-1)^i w_{i+1} in the variant normalization
    socle = socle_basis(t)
    hits = 0
    for i in range(1, n):
        amid = t.arrow_ids[2 * i - 1]
        prod = multiply(t, form.dual_element(amid), t.monomial_element(amid))
        expected = elem_scale(t, (-1) ** i, socle[i])
        assert elem_eq(prod, expected)
        if (-1) ** i != 1:
            hits += 1
    assert hits > 0


def test_a_dual_basis_that_is_not_an_involution_fails_with_witnesses():
    # doubling the scale of one dual basis element breaks b** = b for it and
    # its partner, and only that: the section has no "ok", so its verdict is
    # read as "no witness", and this failure must leave witnesses
    t = build_algebra(2, FieldSpec(3))
    F = t.field
    f = associated_form(t)
    s, m = f.dual[0]
    f.dual[0] = (F.add(s, s), m)
    report = certify_dualizable(f)
    assert report["arrow_condition"] and report["symmetry_condition"]
    assert not report["double_dual_condition"]
    assert report["witnesses"] == ["b**  !=  b for monomial 0",
                                   "b**  !=  b for monomial 3"]


def test_variant_equals_canonical_for_single_vertex():
    # with one vertex there is no sign to flip; the variant still passes
    t = variant_socle_table(1)
    assert not certify_dualizable(associated_form(t))["witnesses"]


def _reference_gram_and_dual(t):
    """Brute force: the socle coefficient of b * c for every pair (b, c)."""
    F = t.field
    socle = set(t.socle_ids.values())
    gram = {}
    for b in range(t.dim):
        row = {}
        for c in range(t.dim):
            hit = t.mono_mul(b, c)
            if hit is not None and hit[1] in socle:
                row[c] = F(hit[0])
        gram[b] = row
    dual = {b: (F.inv(v), c) for b, row in gram.items() for c, v in row.items()}
    return gram, dual


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("char", [0, 3, 5])
def test_gram_and_dual_match_all_pairs_walk(n, char):
    t = build_algebra(n, FieldSpec(char))
    form = associated_form(t)
    gram, dual = _reference_gram_and_dual(t)
    assert form.gram == gram
    assert list(form.gram) == list(gram)
    assert form.dual == dual


def _override_product(t, pair, hit):
    """Make t.mono_mul return `hit` on one pair of monomials."""
    true_mul = t.mono_mul
    t.mono_mul = lambda m1, m2: hit if (m1, m2) == pair else true_mul(m1, m2)


@pytest.mark.parametrize("n,char", [(1, 0), (2, 3), (3, 0), (4, 5)])
@pytest.mark.parametrize("off_socle", [False, True])
def test_a_missing_partner_product_is_degenerate(n, char, off_socle):
    # drop b * b' for one basis element b and its partner b', or send it to a
    # monomial outside the socle: row b of the gram matrix is then zero, and
    # the form must be refused
    base = build_algebra(n, FieldSpec(char))
    partners = {b: c for b, (_, c) in associated_form(base).dual.items()}
    for b in sorted({0, base.dim // 2, base.dim - 1}):
        t = build_algebra(n, FieldSpec(char))
        _override_product(t, (b, partners[b]), (1, t.e_ids[1]) if off_socle else None)
        with pytest.raises(DegenerateFormError, match="singular"):
            associated_form(t)


def test_gram_walk_makes_one_product_per_row(monkeypatch):
    # pinned at n=18 over F3: one mono_mul per basis element (the all-pairs
    # walk made t.dim ** 2 = 17,791,524)
    t = build_algebra(18, FieldSpec(3))
    calls = []
    true_mul = t.mono_mul

    def counted(m1, m2):
        calls.append((m1, m2))
        return true_mul(m1, m2)

    monkeypatch.setattr(t, "mono_mul", counted)
    form = associated_form(t)
    assert t.dim == 4218
    assert len(calls) == t.dim
    assert not certify_dualizable(form)["witnesses"]
