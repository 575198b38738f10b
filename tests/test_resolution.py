import pytest

from preproj_hh.resolution import (build_resolution, certify_exact, compose,
                                   tau_twist)
from conftest import context, relisted, summand_negated, term_lists


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_on_loop_summand(n):
    ctx = context(n)
    t = ctx.table
    d1 = ctx.window.diffs[1]
    eps_mid = t.arrow_ids[0]
    e1 = t.e_ids[1]
    # value on the loop summand: eps (x) e_1 - e_1 (x) eps, both at vertex 1
    assert sorted(term_lists(d1)[0]) == sorted([(0, 1, eps_mid, e1), (0, -1, e1, eps_mid)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_r_at_last_vertex(n):
    ctx = context(n)
    t = ctx.table
    d2 = ctx.window.diffs[2]
    # only ab_{n-1} starts at vertex n
    ab = 2 * (n - 1)
    a = ab - 1
    en = t.e_ids[n]
    expected = sorted([(ab, 1, en, t.arrow_ids[a]), (a, 1, t.arrow_ids[ab], en)])
    assert sorted(term_lists(d2)[n - 1]) == expected


def test_k_for_single_vertex():
    ctx = context(1)
    t = ctx.table
    d3 = ctx.window.diffs[3]
    e1, eps = t.e_ids[1], t.arrow_ids[0]
    # basis {e_1, eps}: e_1 (x) eps - eps (x) e_1
    assert sorted(term_lists(d3)[0]) == sorted([(0, 1, e1, eps), (0, -1, eps, e1)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_twist_involution_and_delta_twist(n):
    ctx = context(n)
    d1 = ctx.window.diffs[1]
    assert tau_twist(tau_twist(d1)).equals(d1)
    d4 = ctx.window.diffs[4]
    assert d4.equals(tau_twist(d1))
    # twisted delta: a (x) e + e (x) a, all coefficients positive
    for terms in term_lists(d4):
        assert sorted(c for _, c, _, _ in terms) == [1, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_augmentation_action(n):
    # twisting the multiplication map sends x (x) y to x tau(y), i.e. scales
    # each flattened basis pair by the parity of the right factor
    ctx = context(n)
    t = ctx.table
    from preproj_hh.algebra import multiply, elem_scale, elem_eq
    for x in t.basis:
        for y in t.basis:
            if x.target != y.source:
                continue
            plain = multiply(t, t.monomial_element(x.mid), t.monomial_element(y.mid))
            twisted = elem_scale(t, (-1) ** y.degree, plain)
            tau_y = elem_scale(t, (-1) ** y.degree, t.monomial_element(y.mid))
            assert elem_eq(multiply(t, t.monomial_element(x.mid), tau_y), twisted)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dd_zero_and_augmentation(n):
    ctx = context(n)
    w = ctx.window
    for m in range(1, w.depth):
        assert compose(w.diffs[m], w.diffs[m + 1]).is_zero()
    t = ctx.table
    for terms in term_lists(w.diffs[1]):
        acc = {}
        for _, c, x, y in terms:
            hit = t.mono_mul(x, y)
            if hit is not None:
                acc[hit[1]] = acc.get(hit[1], 0) + c * hit[0]
        assert all(v == 0 for v in acc.values())


@pytest.mark.parametrize("char", [3, 5])
def test_augmentation_check_reduces_its_sums_into_the_field(char):
    # d1 holds -1 as p - 1, coerced when it is built: u o d1 = 0 still holds
    # in the field though the plain sums of c * x.y are multiples of p
    ctx = context(2, char)
    w = build_resolution(ctx.table, ctx.form, 13)
    assert any(c == char - 1 for terms in term_lists(w.diffs[1]) for _, c, _, _ in terms)
    rep, _ = certify_exact(w)
    assert rep["augmentation_zero"] and rep["ok"]


def test_exactness_window_n1_depth6():
    ctx = context(1)
    t, f = ctx.table, ctx.form
    w = build_resolution(t, f, 6)
    assert certify_exact(w)[0]["ok"]


def test_exactness_window_n2_depth7_and_syzygy():
    ctx = context(2)
    w = build_resolution(ctx.table, ctx.form, 7)
    rep, _ = certify_exact(w)
    assert rep["ok"]
    # the image of the sixth differential realizes the algebra itself
    assert rep["syzygy6_dim"] == ctx.table.dim == 10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 5])
def test_exactness_small(n, char):
    rep, _ = certify_exact(context(n, char).window)
    assert rep["ok"], rep["failures"]


def test_periodicity_and_generator_degrees():
    ctx = context(2)
    w = ctx.window
    for m in range(1, w.depth - 5):
        assert w.diffs[m].equals(w.diffs[m + 6])
    n = ctx.table.n
    assert w.gen_degrees[:7] == [0, 1, 2, 2 * n + 1, 2 * n + 2, 2 * n + 3, 4 * n + 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimality(n):
    w = context(n).window
    t = w.table
    for m in range(1, w.depth + 1):
        for terms in w.diffs[m].values:
            for _, x, y in terms:
                assert t.basis[x].degree + t.basis[y].degree >= 1


def test_rational_fallback_when_mod_p_ranks_misbehave(monkeypatch):
    # if the pinning prime ever under-reported a one-sided rank, the
    # certification must recompute over the rationals instead of reporting a
    # false failure
    import preproj_hh.resolution as R

    def lying_rank(columns, p):
        rank = true_rank(columns, p)
        return max(0, rank - 1) if p else rank

    true_rank = R._rank
    monkeypatch.setattr(R, "_rank", lying_rank)
    ctx = context(2)
    rep, direct = _counted_certify(monkeypatch, R.build_resolution(ctx.table, ctx.form, 7))
    assert rep["ok"]
    assert "rational" in rep["rank_method"]
    # the rational one-sided elimination certifies the window by itself
    assert direct == 0


def test_rational_vs_prime_ranks_spot_check():
    # rational ranks of the flattened differentials coincide with the mod-p
    # ranks for the primes in play (the certification's pinning argument)
    from preproj_hh.exactla import FieldSpec, sparse_rank
    from preproj_hh.resolution import flatten_map
    w = context(2).window
    for m in (1, 2, 3):
        cols = flatten_map(w.diffs[m])
        rows = list(cols.values())
        rq = sparse_rank(rows, FieldSpec(0))
        for p in (3, 5, 97):
            assert sparse_rank(rows, FieldSpec(p)) == rq


def test_certify_exact_over_a_prime_above_two_to_the_32():
    # mod-p ranks must stay exact when products of residues exceed 64 bits
    from preproj_hh.algebra import build_algebra
    from preproj_hh.exactla import FieldSpec
    from preproj_hh.nakayama import associated_form
    t = build_algebra(2, FieldSpec(4294967311))
    rep, _ = certify_exact(build_resolution(t, associated_form(t), 13))
    assert rep["ok"], rep["failures"]
    assert rep["ranks"][:6] == [0, 42, 42, 10, 42, 42]


# -- one-sided exactness: negative controls -------------------------------------


def _counted_certify(monkeypatch, w):
    """certify_exact(w)'s section and the number of flattened differentials
    it ranked."""
    import preproj_hh.resolution as R
    calls = []

    def counting_blocked_rank(t, f, p):
        calls.append(f)
        return true_blocked_rank(t, f, p)

    true_blocked_rank = R._blocked_rank
    monkeypatch.setattr(R, "_blocked_rank", counting_blocked_rank)
    return R.certify_exact(w)[0], len(calls)


def _tampered_window(replace, char=3):
    """A fresh n=2, depth-13 window over F3 (or `char`) with d5 and d11 replaced."""
    from preproj_hh.resolution import BimoduleMap
    ctx = context(2, char)
    w = build_resolution(ctx.table, ctx.form, 13)
    for m in (5, 11):
        f = w.diffs[m]
        w.diffs[m] = BimoduleMap.from_terms(f.table, f.source, f.target,
                                            [replace(terms) for terms in term_lists(f)])
    return w


def test_untampered_window_ranks_no_flattened_differential(monkeypatch):
    ctx = context(2, 3)
    rep, direct = _counted_certify(monkeypatch, build_resolution(ctx.table, ctx.form, 13))
    assert rep["ok"], rep["failures"]
    assert direct == 0
    assert rep["ranks"][:7] == [0, 42, 42, 10, 42, 42, 10]


def test_broken_twist_identity_ranks_directly(monkeypatch):
    # negating d5 and d11 keeps d.d = 0, periodicity and exactness, but d5,
    # d8 and d11 are no longer the twists of d2, d5 and d8; the one-sided
    # complexes stay exact, so no flattened map is ranked
    ctx = context(2, 3)
    w = _tampered_window(lambda terms: [(k, -c, x, y) for k, c, x, y in terms])
    rep, direct = _counted_certify(monkeypatch, w)
    assert direct == 0
    assert rep["ok"], rep["failures"]
    assert rep["ranks"] == certify_exact(ctx.window)[0]["ranks"]


def test_copied_ranks_are_never_trusted_blindly(monkeypatch):
    # zero d5 and d11: their ranks read 0, d8 keeps its true rank, and
    # exactness fails on both sides of each zero map; the one-sided check
    # fails, so every flattened d_m is ranked as the witness
    w = _tampered_window(lambda terms: [])
    rep, direct = _counted_certify(monkeypatch, w)
    assert direct == 13
    assert not rep["ok"]
    assert (rep["ranks"][5], rep["ranks"][8], rep["ranks"][11]) == (0, 42, 0)
    assert [m for m, ok in enumerate(rep["exact_at"]) if not ok] == [4, 5, 10, 11]


def test_failing_window_over_q_is_witnessed_by_rational_ranks(monkeypatch):
    # over Q a failing window first fails the mod-97 pinning, then the
    # rational one-sided elimination, and its witness ranks are rational
    w = _tampered_window(lambda terms: [], char=0)
    rep, direct = _counted_certify(monkeypatch, w)
    assert direct == 13
    assert not rep["ok"]
    assert "rational" in rep["rank_method"]
    assert (rep["ranks"][5], rep["ranks"][8], rep["ranks"][11]) == (0, 42, 0)
    assert [m for m, ok in enumerate(rep["exact_at"]) if not ok] == [4, 5, 10, 11]


def _one_sided_block(w, m, vertex):
    """(rank over F3, dimension of the source) of d_m (x) S_vertex alone."""
    from preproj_hh.exactla import rank_mod_p
    from preproj_hh.resolution import _one_sided_basis, one_sided_columns
    f, e = w.diffs[m], w.table.e_ids[vertex]
    columns = [col for (_, _, right), col in
               zip(_one_sided_basis(w.table, f.source), one_sided_columns(f))
               if right == e]
    return rank_mod_p(columns, 3), len(columns)


def test_window_inexact_at_one_vertex_only_fails_with_the_flattened_witness(monkeypatch):
    # zero d13 on its loop summand, whose right vertex is 1.  The summand is
    # a source summand of the top map, so d.d = 0 still holds (zeroing a
    # summand of a lower map such as d2 would break d2 o d3 = 0 first), and
    # only the image of d13 (x) S_1 shrinks
    from preproj_hh.resolution import BimoduleMap
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    f = w.diffs[13]
    assert f.source.summands[0] == (1, 1)
    w.diffs[13] = BimoduleMap(f.table, f.source, f.target, [{}] + f.values[1:])
    for vertex, exact in ((1, False), (2, True)):
        r12, dim12 = _one_sided_block(w, 12, vertex)
        r13, _ = _one_sided_block(w, 13, vertex)
        assert (r12 + r13 == dim12) is exact
    rep, direct = _counted_certify(monkeypatch, w)
    assert rep["dd_zero"] and rep["augmentation_zero"]
    assert not rep["ok"]
    assert direct == 13
    untampered, _ = certify_exact(ctx.window)
    assert rep["ranks"][:13] == untampered["ranks"][:13]
    assert rep["ranks"][13] < untampered["ranks"][13]
    assert [m for m, ok in enumerate(rep["exact_at"]) if not ok] == [12]
    assert "exactness fails at index 12" in rep["failures"]


def test_window_that_is_no_complex_is_ranked_directly(monkeypatch):
    # negating d2 on one summand keeps every one-sided rank, but d2 o d3 no
    # longer vanishes, so one-sided exactness proves nothing about the window
    # and the flattened maps are ranked instead of derived
    from preproj_hh.resolution import _blocked_rank
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[2] = summand_negated(w.diffs[2])
    rep, direct = _counted_certify(monkeypatch, w)
    assert not rep["dd_zero"] and not rep["ok"]
    assert direct == 13
    assert rep["ranks"] == [0] + [_blocked_rank(w.table, w.diffs[m], 3)
                               for m in range(1, 14)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("char", [0, 3, 5])
def test_derived_ranks_match_the_flattened_ranks(n, char):
    # the ranks a passing window serializes come from the dimensions; rank
    # every flattened differential directly (over Q when char is 0)
    from preproj_hh.resolution import _blocked_rank
    w = context(n, char).window
    rep, _ = certify_exact(w)
    assert rep["ok"], rep["failures"]
    assert rep["ranks"] == [0] + [_blocked_rank(w.table, w.diffs[m], char)
                               for m in range(1, w.depth + 1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_sided_columns_read_off_the_flattened_columns(n):
    # d (x) S_v is the flattened map on x (x) e_v, read off the basis
    # elements whose right factor has degree 0
    from preproj_hh.resolution import _one_sided_basis, flatten_map, one_sided_columns
    w = context(n).window
    t = w.table
    for m in range(1, 7):
        f = w.diffs[m]
        flat = flatten_map(f)
        for key, col in zip(_one_sided_basis(t, f.source), one_sided_columns(f)):
            want = {(k2, x): c for (k2, x, y), c in flat[key].items()
                    if t.basis[y].degree == 0}
            assert col == want


# -- d.d = 0 once per period -----------------------------------------------------


def _counted_compose_certify(monkeypatch, w):
    """certify_exact(w)'s section and the number of compositions it made."""
    import preproj_hh.resolution as R
    calls = []

    def counting_compose(f, g):
        calls.append((f, g))
        return true_compose(f, g)

    true_compose = R.compose
    monkeypatch.setattr(R, "compose", counting_compose)
    return R.certify_exact(w)[0], len(calls)


def _dd_failures_by_brute_force(w):
    # reference: every consecutive pair composed
    return [f"d{m} o d{m + 1} != 0" for m in range(1, w.depth)
            if not compose(w.diffs[m], w.diffs[m + 1]).is_zero()]


def test_periodic_window_composes_one_period(monkeypatch):
    ctx = context(2, 3)
    rep, composed = _counted_compose_certify(
        monkeypatch, build_resolution(ctx.table, ctx.form, 13))
    assert rep["ok"] and rep["periodic"]
    assert composed == 6


def test_failing_pair_of_a_periodic_window_keeps_its_partners_lines(monkeypatch):
    # d2 and d8 negated on one summand: the window stays periodic, so only
    # six pairs are composed, but d2 o d3 and d8 o d9 both fail and the
    # report names each, as composing every pair does
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    for m in (2, 8):
        w.diffs[m] = summand_negated(w.diffs[m])
    rep, composed = _counted_compose_certify(monkeypatch, w)
    assert rep["periodic"] and not rep["dd_zero"] and not rep["ok"]
    assert composed == 6
    brute = _dd_failures_by_brute_force(w)
    assert brute == ["d2 o d3 != 0", "d8 o d9 != 0"]
    assert [f for f in rep["failures"] if " o " in f] == brute


def test_window_that_is_not_periodic_composes_every_pair(monkeypatch):
    # d2 alone negated on one summand breaks d2 = d8, so every pair is
    # composed and only d2 o d3 fails
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[2] = summand_negated(w.diffs[2])
    rep, composed = _counted_compose_certify(monkeypatch, w)
    assert not rep["periodic"] and not rep["dd_zero"]
    assert composed == 12
    assert [f for f in rep["failures"] if " o " in f] == _dd_failures_by_brute_force(w)
    assert "d2 != d8" in rep["failures"]


@pytest.mark.parametrize("n", range(1, 6))
def test_basis_helpers_match_filtering_the_whole_basis(n):
    from preproj_hh.resolution import _one_sided_basis, _term_basis, flat_dim
    ctx = context(n)
    t = ctx.table
    for term in ctx.window.terms[:3]:
        want = [(k, x.mid, y.mid) for k, (s, tt) in enumerate(term.summands)
                for x in t.basis if x.target == s
                for y in t.basis if y.source == tt]
        assert _term_basis(t, term) == want
        assert flat_dim(t, term) == len(want)
        assert _one_sided_basis(t, term) == [
            (k, m.mid, t.e_ids[v]) for k, (s, v) in enumerate(term.summands)
            for m in t.basis if m.target == s]
    # k: one value term per monomial of e_i L, in basis order
    for i, terms in zip(t.quiver.vertices, ctx.window.diffs[3].values):
        assert [x for _, x, _ in terms] == [m.mid for m in t.basis if m.source == i]


# -- equality and the period -------------------------------------------------------


def test_maps_with_equal_values_on_different_terms_are_not_equal():
    from preproj_hh.resolution import BimoduleMap, ProjectiveBimodule
    f = context(2).window.diffs[1]
    other_source = ProjectiveBimodule("P", f.source.summands)
    assert other_source != f.source
    same_source = ProjectiveBimodule(f.source.kind, tuple(list(f.source.summands)))
    assert same_source == f.source and hash(same_source) == hash(f.source)
    assert len({f.source, same_source, other_source}) == 2
    with pytest.raises(AttributeError):
        f.source.kind = "P"
    with pytest.raises(AttributeError):
        f.source.summands = ()
    assert f.source.kind == "Q" and f.source == same_source
    for g in (BimoduleMap(f.table, f.source, f.source, f.values),
              BimoduleMap(f.table, other_source, f.target, f.values)):
        assert g.values == f.values
        assert not f.equals(g) and not g.equals(f)
    reversed_terms = [list(reversed(terms)) for terms in term_lists(f)]
    assert f.equals(BimoduleMap.from_terms(f.table, f.source, f.target, reversed_terms))
    assert f.equals(relisted(f))


def test_repeats_period_reads_the_maps_as_they_are():
    # no verdict is kept on the window: replacing d8 after the build is seen
    from preproj_hh.resolution import repeats_period
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    assert [m for m in range(14) if repeats_period(w, m)] == list(range(7, 14))
    w.diffs[8] = summand_negated(w.diffs[8])
    assert [m for m in range(14) if repeats_period(w, m)] == [7, 9, 10, 11, 12, 13]
    w.diffs[8] = relisted(w.diffs[2])
    assert w.diffs[8].equals(w.diffs[2])
    assert [m for m in range(14) if repeats_period(w, m)] == list(range(7, 14))


def _counted_rank_certify(monkeypatch, w):
    """certify_exact(w)'s section and count of one-sided maps ranked, and
    the one-sided column lists it ranked."""
    import preproj_hh.resolution as R
    ranked = []

    def counting_rank(columns, p):
        ranked.append(columns)
        return true_rank(columns, p)

    true_rank = R._rank
    monkeypatch.setattr(R, "_rank", counting_rank)
    return (*R.certify_exact(w), ranked)


def test_periodic_window_ranks_each_one_sided_map_once(monkeypatch):
    ctx = context(2, 3)
    rep, count, ranked = _counted_rank_certify(
        monkeypatch, build_resolution(ctx.table, ctx.form, 13))
    assert rep["ok"], rep["failures"]
    assert len(ranked) == count == 7


def test_a_map_that_breaks_the_period_is_ranked_on_its_own(monkeypatch):
    # d8 negated on one summand: d8 is no longer d2, so its own one-sided
    # complex is built and ranked, and the report names the broken period
    # (d8 o d9 no longer vanishes either, so the window fails)
    from preproj_hh.resolution import one_sided_columns
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[8] = summand_negated(w.diffs[8])
    own = one_sided_columns(w.diffs[8])
    assert own != one_sided_columns(w.diffs[2])
    rep, count, ranked = _counted_rank_certify(monkeypatch, w)
    # eight one-sided maps, then the witness: 13 flattened maps and u
    assert count == 8 and len(ranked) == 8 + 14
    assert own in ranked[:8]
    assert not rep["periodic"] and not rep["ok"]
    assert "d2 != d8" in rep["failures"]
    assert [f for f in rep["failures"] if " != d" in f] == ["d2 != d8"]


def test_a_map_listed_differently_is_still_reused(monkeypatch):
    # d8 rebuilt from another listing of its terms: the same map, so the
    # window is periodic, one rank per period, and the report is unchanged
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    w.diffs[8] = relisted(w.diffs[8])
    assert w.diffs[8].equals(w.diffs[2])
    rep, _, ranked = _counted_rank_certify(monkeypatch, w)
    assert len(ranked) == 7
    assert rep == certify_exact(ctx.window)[0]
