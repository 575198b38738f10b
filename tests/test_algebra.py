import hashlib
import json
import random

import pytest

from preproj_hh import algebra
from preproj_hh.algebra import (QQ, AlgebraTable, BasisMismatchError, Quiver,
                                _integral_tables, _reduce_block, build_algebra,
                                cartan_matrix, center_basis, elem_eq, elem_scale,
                                multiply, socle_basis, x0_element)
from preproj_hh.exactla import FieldSpec
from conftest import context


def arrow_elem(t, arrow_index):
    return t.monomial_element(t.arrow_ids[arrow_index])


def path_product(t, arrow_indices):
    out = t.unit()
    for a in arrow_indices:
        out = multiply(t, out, arrow_elem(t, a))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_formula(n):
    t = context(n).table
    assert t.dim == n * (n + 1) * (2 * n + 1) // 3


def test_small_dimensions():
    assert context(1).table.dim == 2      # basis e_1, eps
    assert context(2).table.dim == 10     # Cartan sum 4+2+2+2
    assert context(3).table.dim == 28


@pytest.mark.parametrize("n", range(1, 7))
def test_cartan_matrix_and_determinant(n):
    t = context(n).table
    cart, det = cartan_matrix(t)
    assert det == 2 ** n
    if n == 1:
        assert cart == [[2]]
    if n == 2:
        assert cart == [[4, 2], [2, 2]]
    # recursive shape: first row 2n, 2(n-1), ..., 2
    assert cart[0] == [2 * (n - j) for j in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_graded_pieces_at_most_one_dimensional(n):
    t = context(n).table
    seen = set()
    for m in t.basis:
        key = (m.source, m.target, m.degree)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize("n", range(1, 7))
def test_degree_sets(n):
    t = context(n).table
    for i in t.quiver.vertices:
        for j in t.quiver.vertices:
            got = sorted(m.degree for m in t.basis
                         if m.source == i and m.target == j)
            lo, hi = min(i, j), max(i, j)
            first = list(range(hi - lo, 2 * n - (i + j) + 1, 2))
            second = list(range(i + j - 1, i + j + 2 * (n - hi), 2))
            assert got == sorted(first + second)


def test_unit_and_relations():
    t = context(2).table
    eps, a1, ab1 = arrow_elem(t, 0), arrow_elem(t, 1), arrow_elem(t, 2)
    for m in t.basis:
        elem = t.monomial_element(m.mid)
        assert elem_eq(multiply(t, t.unit(), elem), elem)
        assert elem_eq(multiply(t, elem, t.unit()), elem)
    # vertex-1 relation: eps^2 + a1 ab1 = 0
    assert elem_eq(multiply(t, eps, eps),
                   elem_scale(t, -1, multiply(t, a1, ab1)))
    # vertex-n relation: ab_{n-1} a_{n-1} = 0
    assert multiply(t, ab1, a1) == {}


@pytest.mark.parametrize("n", range(2, 7))
def test_relation_products_vanish_against_basis(n):
    t = context(n).table
    for v in t.quiver.vertices:
        rel = {}
        for a in t.quiver.arrows_from[v]:
            term = multiply(t, arrow_elem(t, a.index),
                            arrow_elem(t, t.quiver.bar(a).index))
            for k, c in term.items():
                rel[k] = rel.get(k, t.field.zero) + c
        rel = {k: c for k, c in rel.items() if c != 0}
        assert rel == {}, f"mesh relation at vertex {v} is nonzero"


@pytest.mark.parametrize("n", [2, 3])
def test_associativity_full_scan_small(n):
    t = context(n).table
    for m1 in range(t.dim):
        for m2 in range(t.dim):
            left = t.mono_mul(m1, m2)
            for m3 in range(t.dim):
                l = None
                if left is not None:
                    h = t.mono_mul(left[1], m3)
                    if h is not None:
                        l = (left[0] * h[0], h[1])
                right = t.mono_mul(m2, m3)
                r = None
                if right is not None:
                    h = t.mono_mul(m1, right[1])
                    if h is not None:
                        r = (right[0] * h[0], h[1])
                assert l == r


@pytest.mark.parametrize("n", [6, 8])
def test_associativity_sampled(n):
    t = context(n).table
    rng = random.Random(20240)
    for _ in range(100000):
        m1 = rng.randrange(t.dim)
        m2 = rng.randrange(t.dim)
        m3 = rng.randrange(t.dim)
        left = t.mono_mul(m1, m2)
        l = None
        if left is not None:
            h = t.mono_mul(left[1], m3)
            if h is not None:
                l = (left[0] * h[0], h[1])
        right = t.mono_mul(m2, m3)
        r = None
        if right is not None:
            h = t.mono_mul(m1, right[1])
            if h is not None:
                r = (right[0] * h[0], h[1])
        assert l == r


@pytest.mark.parametrize("n", range(2, 7))
def test_identity_products_of_basis_properties(n):
    """The four multiplication identities of the fixed basis."""
    t = context(n).table
    eps = arrow_elem(t, 0)
    a = {i: arrow_elem(t, 2 * i - 1) for i in range(1, n)}
    ab = {i: arrow_elem(t, 2 * i) for i in range(1, n)}

    def chain(elems):
        out = t.unit()
        for e in elems:
            out = multiply(t, out, e)
        return out

    eps2 = multiply(t, eps, eps)
    for j in range(2, n + 1):
        # a_1..a_{j-1} ab_{j-1}..ab_1 = (-1)^(j(j-1)/2) eps^(2(j-1))
        lhs = chain([a[i] for i in range(1, j)] + [ab[i] for i in range(j - 1, 0, -1)])
        rhs = t.unit()
        for _ in range(j - 1):
            rhs = multiply(t, rhs, eps2)
        assert elem_eq(lhs, elem_scale(t, (-1) ** (j * (j - 1) // 2), rhs))
        # a_1..a_{j-1} ab_{j-1} = (-1)^(j-1) eps^2 a_1..a_{j-2}
        lhs = chain([a[i] for i in range(1, j)] + [ab[j - 1]])
        rhs = multiply(t, eps2, chain([a[i] for i in range(1, j - 1)]))
        assert elem_eq(lhs, elem_scale(t, (-1) ** (j - 1), rhs))
    # ab_i a_i .. a_j = (-1)^(j-i+1) a_{i+1} .. a_{j+1} ab_{j+1}, a_n = 0
    for i in range(1, n):
        for j in range(i, n):
            lhs = chain([ab[i]] + [a[k] for k in range(i, j + 1)])
            if j + 1 <= n - 1:
                rhs = chain([a[k] for k in range(i + 1, j + 2)] + [ab[j + 1]])
            else:
                rhs = {}
            assert elem_eq(lhs, elem_scale(t, (-1) ** (j - i + 1), rhs))
    # ab_{i-1}..ab_1 eps^{2k} a_1..a_{j-1} nonzero forces k <= n-i-j+1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(0, n + 1):
                elem = chain([ab[r] for r in range(i - 1, 0, -1)]
                             + [eps] * (2 * k)
                             + [a[r] for r in range(1, j)])
                if elem:
                    assert k <= n - i - j + 1


@pytest.mark.parametrize("n", range(1, 7))
def test_center(n):
    t = context(n).table
    z = center_basis(t)
    assert len(z) == 2 * n
    for elem in z:
        for arrow in t.quiver.arrows:
            e = arrow_elem(t, arrow.index)
            assert elem_eq(multiply(t, elem, e), multiply(t, e, elem))
    assert x0_element(t, n) == {}
    if n >= 2:
        assert x0_element(t, n - 1) != {}
    x0 = x0_element(t)
    for w in socle_basis(t):
        assert multiply(t, x0, w) == {}


@pytest.mark.parametrize("n", range(1, 7))
def test_socle(n):
    t = context(n).table
    ws = socle_basis(t)
    assert len(ws) == n
    for i, w in enumerate(ws, start=1):
        (mid,) = w
        assert t.basis[mid].source == t.basis[mid].target == i
        assert t.basis[mid].degree == 2 * n - 1
        for arrow in t.quiver.arrows:
            e = arrow_elem(t, arrow.index)
            assert multiply(t, e, w) == {} or arrow.target != i
            assert multiply(t, w, e) == {} or arrow.source != i
            if arrow.target == i:
                assert multiply(t, e, w) == {}
            if arrow.source == i:
                assert multiply(t, w, e) == {}
    # w_1 = eps^(2n-1)
    eps = arrow_elem(t, 0)
    acc = t.unit()
    for _ in range(2 * n - 1):
        acc = multiply(t, acc, eps)
    assert elem_eq(acc, ws[0])


def test_x0_expands_over_degree_two_diagonal():
    t = context(3).table
    x0 = x0_element(t)
    # x0 = b_1^2 + sum_{i>=2} (-1)^i b_i^2 with b_i^2 the diagonal degree-2 monomial
    expected = {}
    for i in t.quiver.vertices:
        key = (i, i, 2)
        if key in t.by_ijd:
            expected[t.by_ijd[key]] = t.field(1 if i == 1 else (-1) ** i)
    assert x0 == expected


def test_serialization_deterministic():
    a = context(2).table.serialize()
    b = context(2, 3).table.serialize()
    assert json.dumps(a, sort_keys=True) == json.dumps(
        dict(b, characteristic=0), sort_keys=True)
    assert a["dimension"] == 10
    assert len(a["products"]) > 0


def _reference_full_product(basis, act, quiver):
    """Brute force: every composable pair, its first factor walked arrow by arrow."""
    top = 2 * quiver.n - 1
    product = [dict() for _ in basis]
    for m1 in basis:
        for m2 in basis:
            if m1.target != m2.source or m1.degree + m2.degree > top:
                continue
            if m1.degree == 0:
                product[m1.mid][m2.mid] = (1, m2.mid)
                continue
            coeff, mid = m1.sign, m2.mid
            for a in reversed(m1.path):
                step = act[(a, mid)]
                if step is None:
                    coeff = 0
                    break
                c, mid = step
                coeff *= c
            if coeff:
                product[m1.mid][m2.mid] = (coeff, mid)
    return product


@pytest.mark.parametrize("n", range(1, 11))
def test_product_table_matches_all_pairs_walk(n):
    # the sign rule against the walk, pair by pair, over Q, F3 and F5
    basis, _, act = _integral_tables(n)
    reference = _reference_full_product(basis, act, Quiver(n))
    for char in (0, 3, 5):
        t = build_algebra(n, FieldSpec(char))
        for m1, row in enumerate(reference):
            for m2 in range(t.dim):
                assert t.mono_mul(m1, m2) == row.get(m2)
        # the serialized products are the walk's, pair by pair in id order
        assert t.serialize()["products"] == [
            [m1, m2, *row[m2]] for m1, row in enumerate(reference) for m2 in sorted(row)]


def test_basis_monomials_are_shared_across_fields_and_read_only():
    # one list of monomials serves every field of an n, so none may change
    basis, _, _ = _integral_tables(3)
    assert build_algebra(3, QQ).basis is basis is build_algebra(3, FieldSpec(5)).basis
    m = basis[-1]
    with pytest.raises(AttributeError):
        m.sign = -m.sign
    with pytest.raises(AttributeError):
        del m.degree
    with pytest.raises(AttributeError):
        m.extra = 1
    assert (m.mid, m.degree) == (len(basis) - 1, 5)


@pytest.mark.parametrize("n", range(1, 9))
def test_products_are_homogeneous_and_keep_their_ends(n):
    # the premise of the graded gram walk in nakayama.associated_form:
    # m1 * m2 = c * m3 puts m3 in e_s(m1) L_(deg m1 + deg m2) e_t(m2)
    t = build_algebra(n, QQ)
    basis = t.basis
    entries = 0
    for m1 in basis:
        for m2 in basis:
            hit = t.mono_mul(m1.mid, m2.mid)
            if hit is None:
                continue
            c, m3 = hit
            got = basis[m3]
            assert (got.source, got.target, got.degree) == (
                m1.source, m2.target, m1.degree + m2.degree)
            assert c in (1, -1)
            entries += 1
    assert entries > 0


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_a_flipped_arrow_bit_breaks_the_build(monkeypatch, index):
    # g flipped on one arrow other than eps: each mesh relation at an inner
    # vertex, or at vertex 1, then has terms of two different sign parities,
    # which gives the monomial they span two signs.  (eps alone may flip: it
    # occurs an even number of times in every term of every relation.)
    true_bit = algebra._arrow_bit
    monkeypatch.setattr(algebra, "_INTEGRAL_CACHE", {})
    monkeypatch.setattr(algebra, "_arrow_bit", lambda a: true_bit(a) ^ (a == index))
    with pytest.raises(BasisMismatchError, match="breaks the sign rule"):
        build_algebra(3, QQ)


def test_a_dropped_piece_breaks_the_build(monkeypatch):
    # e_2's piece dropped from the rule: no arrow product lands in degree 0,
    # so only the piece check sees it, at the arrows into vertex 2, whose
    # tail e_2 is
    true_init = AlgebraTable.__init__

    def dropped(self, *args):
        true_init(self, *args)
        e = self.e_ids[2]
        key = self.rule_left[e] + self.rule_right[e]
        self.rule[key:key + 3] = [None] * 3

    monkeypatch.setattr(algebra, "_INTEGRAL_CACHE", {})
    monkeypatch.setattr(AlgebraTable, "__init__", dropped)
    with pytest.raises(BasisMismatchError, match="tail"):
        build_algebra(3, QQ)


def test_a_relation_that_kills_one_of_two_spanning_keys_raises():
    with pytest.raises(BasisMismatchError, match="vanishes in a nonzero piece"):
        _reduce_block([(1, 5), (2, 6)], {(1, 5): 3})


@pytest.mark.parametrize("n,char,digest", [
    (3, 0, "d3792e7ebe28a42960947102530d7c77f9e929e9c8b1fbc000e8ba892e52aad9"),
    (5, 3, "f9a30395047955c43856755d6ce19ac17a90bd6763dd0f0d7bece37e5df2bd7a")])
def test_build_out_bytes_are_pinned(n, char, digest):
    # the `build --out` dump, as the CLI writes it
    text = json.dumps(build_algebra(n, FieldSpec(char)).serialize(), sort_keys=True, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
