import pytest

from preproj_hh.resolution import (build_resolution, certify_exact, compose,
                                   tau_twist)
from conftest import context


def norm(bm):
    return bm.normalized().values


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_on_loop_summand(n):
    ctx = context(n)
    t = ctx.table
    d1 = ctx.window.diffs[1]
    eps_mid = t.arrow_ids[0]
    e1 = t.e_ids[1]
    # value on the loop summand: eps (x) e_1 - e_1 (x) eps, both at vertex 1
    assert sorted(norm(d1)[0]) == sorted([(0, 1, eps_mid, e1), (0, -1, e1, eps_mid)])


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
    assert sorted(norm(d2)[n - 1]) == expected


def test_k_for_single_vertex():
    ctx = context(1)
    t = ctx.table
    d3 = ctx.window.diffs[3]
    e1, eps = t.e_ids[1], t.arrow_ids[0]
    # basis {e_1, eps}: e_1 (x) eps - eps (x) e_1
    assert sorted(norm(d3)[0]) == sorted([(0, 1, e1, eps), (0, -1, eps, e1)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_twist_involution_and_delta_twist(n):
    ctx = context(n)
    d1 = ctx.window.diffs[1]
    assert tau_twist(tau_twist(d1)).equals(d1)
    d4 = ctx.window.diffs[4]
    assert d4.equals(tau_twist(d1))
    # twisted delta: a (x) e + e (x) a, all coefficients positive
    for terms in norm(d4):
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
    for terms in w.diffs[1].values:
        acc = {}
        for _, c, x, y in terms:
            hit = t.mono_mul(x, y)
            if hit is not None:
                acc[hit[1]] = acc.get(hit[1], 0) + c * hit[0]
        assert all(v == 0 for v in acc.values())


def test_exactness_window_n1_depth6():
    ctx = context(1)
    t, f = ctx.table, ctx.form
    w = build_resolution(t, f, 6)
    assert certify_exact(w).ok


def test_exactness_window_n2_depth7_and_syzygy():
    ctx = context(2)
    w = build_resolution(ctx.table, ctx.form, 7)
    rep = certify_exact(w)
    assert rep.ok
    # the image of the sixth differential realizes the algebra itself
    assert rep.syzygy6_dim == ctx.table.dim == 10


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 5])
def test_exactness_small(n, char):
    rep = certify_exact(context(n, char).window)
    assert rep.ok, rep.failures


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
            for _, c, x, y in terms:
                assert t.basis[x].degree + t.basis[y].degree >= 1


def test_rational_fallback_when_mod_p_ranks_misbehave(monkeypatch):
    # if the pinning prime ever under-reported a rank, the certification must
    # recompute over the rationals instead of reporting a false failure
    import preproj_hh.resolution as R

    def lying_blocked_rank(t, f, p):
        return max(0, _true_blocked_rank(t, f, p) - 1)

    _true_blocked_rank = R._blocked_rank
    monkeypatch.setattr(R, "_blocked_rank", lying_blocked_rank)
    ctx = context(2)
    rep = R.certify_exact(R.build_resolution(ctx.table, ctx.form, 7))
    assert rep.ok
    assert "rational" in rep.rank_method


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
    rep = certify_exact(build_resolution(t, associated_form(t), 13))
    assert rep.ok, rep.failures
    assert rep.ranks[:6] == [0, 42, 42, 10, 42, 42]


# -- one rank per twist class: negative controls -------------------------------


def _counted_certify(monkeypatch, w):
    """certify_exact(w) and the number of differentials it ranked directly."""
    import preproj_hh.resolution as R
    calls = []

    def counting_blocked_rank(t, f, p):
        calls.append(f)
        return true_blocked_rank(t, f, p)

    true_blocked_rank = R._blocked_rank
    monkeypatch.setattr(R, "_blocked_rank", counting_blocked_rank)
    return R.certify_exact(w), len(calls)


def _tampered_window(replace):
    """A fresh n=2, depth-13 window over F3 with d5 and d11 replaced."""
    from preproj_hh.resolution import BimoduleMap
    ctx = context(2, 3)
    w = build_resolution(ctx.table, ctx.form, 13)
    for m in (5, 11):
        f = w.diffs[m]
        w.diffs[m] = BimoduleMap(f.table, f.source, f.target,
                                 [replace(terms) for terms in f.values])
    return w


def test_untampered_window_ranks_three_differentials(monkeypatch):
    ctx = context(2, 3)
    rep, direct = _counted_certify(monkeypatch, build_resolution(ctx.table, ctx.form, 13))
    assert rep.ok, rep.failures
    assert direct == 3
    assert rep.ranks[:7] == [0, 42, 42, 10, 42, 42, 10]


def test_broken_twist_identity_ranks_directly(monkeypatch):
    # negating d5 and d11 keeps d.d = 0, periodicity and exactness, but d5,
    # d8 and d11 are no longer the twists of d2, d5 and d8
    ctx = context(2, 3)
    w = _tampered_window(lambda terms: [(k, -c, x, y) for k, c, x, y in terms])
    rep, direct = _counted_certify(monkeypatch, w)
    assert direct == 6
    assert rep.ok, rep.failures
    assert rep.ranks == certify_exact(ctx.window).ranks


def test_copied_ranks_are_never_trusted_blindly(monkeypatch):
    # zero d5 and d11: their ranks read 0, d8 keeps its true rank, and
    # exactness fails on both sides of each zero map
    w = _tampered_window(lambda terms: [])
    rep, direct = _counted_certify(monkeypatch, w)
    assert direct == 6
    assert not rep.ok
    assert (rep.ranks[5], rep.ranks[8], rep.ranks[11]) == (0, 42, 0)
    assert [m for m, ok in enumerate(rep.exact_at) if not ok] == [4, 5, 10, 11]
