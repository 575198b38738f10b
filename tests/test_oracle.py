import json
from itertools import product as iproduct

import pytest

from preproj_hh import oracle
from preproj_hh.algebra import AlgebraTable, _integral_tables, build_algebra
from preproj_hh.cli import main
from preproj_hh.cochain import hh_dims
from preproj_hh.exactla import FieldSpec, _reduce, sparse_rank
from preproj_hh.oracle import (_SCREEN_PRIME, BarComplex, BudgetExceededError, _dims,
                               bar_dims, bar_rows, budget_upto, compare)
from conftest import context, perturb_d2, variant_socle_table


def _reference_bar_dims(t, upto, field):
    """dim HH^i from the bar complex relative to K, rank by rank.

    C^k = Hom(rad_K^(x)k, L) with rad_K = L/(K.1), based by every monomial
    except the last vertex idempotent, whose class is minus the sum of the
    other idempotents.
    """
    drop = t.e_ids[t.n]
    reduced = [m.mid for m in t.basis if m.mid != drop]
    others = [t.e_ids[i] for i in range(1, t.n)]
    pair_hits = {m: [] for m in reduced}
    for x in reduced:
        for y in reduced:
            hit = t.mono_mul(x, y)
            if hit is None:
                continue
            c, m = hit
            for mid, cc in ([(m, c)] if m != drop else [(o, -c) for o in others]):
                pair_hits[mid].append(((x, y), cc))

    def rows(k):
        for T in iproduct(reduced, repeat=k):
            for w in range(t.dim):
                row = {}
                for b in reduced:
                    hit = t.mono_mul(b, w)
                    if hit is not None:
                        key = ((b,) + T, hit[1])
                        row[key] = row.get(key, 0) + hit[0]
                for i in range(1, k + 1):
                    for (x, y), c in pair_hits[T[i - 1]]:
                        key = (T[: i - 1] + (x, y) + T[i:], w)
                        row[key] = row.get(key, 0) + (-1) ** i * c
                for b in reduced:
                    hit = t.mono_mul(w, b)
                    if hit is not None:
                        key = (T + (b,), hit[1])
                        row[key] = row.get(key, 0) + (-1) ** (k + 1) * hit[0]
                yield {kk: v for kk, v in row.items() if v != 0}

    ranks = [sparse_rank(rows(k), field) for k in range(upto + 1)]
    return [len(reduced) ** i * t.dim - ranks[i] - (ranks[i - 1] if i else 0)
            for i in range(upto + 1)]


@pytest.mark.parametrize("n,char,upto", [(1, 0, 6), (1, 3, 6), (2, 3, 3),
                                         (2, 0, 2), (3, 0, 1)])
def test_relative_bar_dims_match_the_complex_relative_to_k(n, char, upto):
    t = context(n, char).table
    assert bar_dims(t, upto) == _reference_bar_dims(t, upto, t.field)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_bar_adjacency_lists_the_radical_in_basis_order(n):
    # read off the table's adjacency, each list is the radical monomials
    # ending or starting at its vertex in basis order, which fixes the row
    # order of every bar differential
    t = context(n, 3).table
    bc = BarComplex(t)
    for v in t.quiver.vertices:
        assert bc.starting_at[v] == [m.mid for m in bc.radical if m.source == v]
        assert bc.ending_at[v] == [m.mid for m in bc.radical if m.target == v]


def test_bar_dims_single_vertex_through_degree_six():
    t = context(1).table
    assert bar_dims(t, 6) == [2, 1, 1, 1, 1, 1, 1]


def test_bar_dims_two_vertices_low_degrees():
    t = context(2).table
    assert bar_dims(t, 2) == [4, 2, 2]


def test_bar_degree_zero_is_the_center():
    for n in (1, 2):
        t = context(n).table
        assert bar_dims(t, 0)[0] == 2 * n


@pytest.mark.parametrize("char", [3, 5])
def test_bar_dims_prime_fields(char):
    t = context(1, char).table
    assert bar_dims(t, 4) == [2, 1, 1, 1, 1]


def test_budget_guard():
    t = context(2).table
    with pytest.raises(BudgetExceededError) as err:
        bar_dims(t, 4, budget=10000)
    assert err.value.degree == 4
    with pytest.raises(BudgetExceededError):
        bar_dims(context(3).table, 3, budget=10000)


def test_compare_matches_resolution():
    ctx = context(2)
    rep, _ = compare(ctx.table, hh_dims(ctx.cx, 3), 3)
    assert rep["ok"]
    assert rep["bar_dims"] == rep["resolution_dims"] == [4, 2, 2, 2]
    assert rep["rank_field"] == "Q"
    assert rep["screen_dims"] == rep["bar_dims"]


def screen_blind_d2(monkeypatch):
    """Add the screening prime to the first entry of the first row of d_2.

    Over F_p for that prime the complex is unchanged; over Q it is not.  The
    oracle's per-n ranks start empty, so none of the clean ones is read.
    """
    real = BarComplex.differential_rows

    def shifted(self, k):
        rows = real(self, k)
        for i, row in enumerate(rows):
            if k == 2 and i == 0:
                key = next(iter(row))
                row = {**row, key: row[key] + _SCREEN_PRIME}
            yield row

    monkeypatch.setattr(BarComplex, "differential_rows", shifted)
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})


def test_rational_pass_sees_what_the_screen_cannot(monkeypatch):
    # the rational ranks are computed on their own, not copied from the screen
    ctx = context(2)
    screen_blind_d2(monkeypatch)
    assert _dims(bar_rows(ctx.table, 3), FieldSpec(_SCREEN_PRIME)) == [4, 2, 2, 2]
    assert bar_dims(ctx.table, 3) == [4, 2, 1, 1]
    rep, _ = compare(ctx.table, hh_dims(ctx.cx, 3), 3)
    assert not rep["ok"]
    assert rep["screen_dims"] == rep["resolution_dims"] == [4, 2, 2, 2]
    assert rep["bar_dims"] == [4, 2, 1, 1] and rep["rank_field"] == "Q"


def test_screen_blind_failure_fails_the_certificate(monkeypatch, tmp_path):
    # the rational pass decides the verdict, and its dims are the witness
    screen_blind_d2(monkeypatch)
    assert main(["run", "--n", "2", "--char", "0", "--jobs", "1",
                 "--out", str(tmp_path)]) == 1
    body = json.loads((tmp_path / "cert_n2_char0.json").read_text())["body"]
    oracle = body["oracle"]
    assert oracle["rank_field"] == "Q" and oracle["ok"] is False
    assert oracle["bar_dims"] == [4, 2, 1, 1]
    assert oracle["resolution_dims"] == oracle["screen_dims"] == [4, 2, 2, 2]
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["oracle"]
    assert body["pass"] is False


@pytest.mark.parametrize("n,char,upto", [(1, 0, 4), (2, 3, 3)])
def test_negative_control_perturbation_detected(n, char, upto, monkeypatch):
    t = context(n, char).table
    clean = bar_dims(t, upto)
    perturb_d2(monkeypatch)
    perturbed = bar_dims(t, upto)
    assert perturbed != clean
    diff = [i for i, (a, b) in enumerate(zip(clean, perturbed)) if a != b]
    assert diff and min(diff) in (2, 3)


def test_perturbation_lands_on_a_relative_cochain(monkeypatch):
    bc = BarComplex(context(2, 3).table)
    basis = set(bc.cochains(3))
    clean = next(bc.differential_rows(2))
    perturb_d2(monkeypatch)
    row = next(bc.differential_rows(2))
    assert row != clean and set(row) <= basis


@pytest.mark.parametrize("n,degrees", [(1, (0, 1, 2, 3)), (2, (0, 1)), (3, (0, 1))])
def test_bar_differentials_compose_to_zero(n, degrees):
    t = context(n).table
    bc = BarComplex(t)
    for k in degrees:
        rows_k = list(bc.differential_rows(k))
        next_rows = dict(zip(bc.cochains(k + 1), bc.differential_rows(k + 1)))
        for row in rows_k:
            acc = {}
            for key, c in row.items():
                for key2, c2 in next_rows[key].items():
                    acc[key2] = acc.get(key2, 0) + c * c2
            assert all(v == 0 for v in acc.values())


@pytest.mark.parametrize("char", [3, 0])
def test_bar_elimination_keeps_its_fill_low(char):
    # the n=2 degree-3 differential has 3,149 nonzeros and rank 322; taken in
    # arrival order its pivot rows hold 7,669 nonzeros over F3 and 8,010 over
    # Q, last row first 3,366 and 3,416
    rows = list(BarComplex(context(2, char).table).differential_rows(3))
    pivots, _ = _reduce(rows, FieldSpec(char))
    assert len(pivots) == 322
    assert sum(len(row) for _, row, _, _ in pivots.values()) <= 4000


def _reference_cochains(t, k):
    """The basis of C^k as tuple keys (T, w), T the chain (x_1, ..., x_k)."""
    if k == 0:
        for v in t.quiver.vertices:
            for w in t.by_ends[(v, v)]:
                yield (), w.mid
        return
    chains = [(m.mid,) for m in t.basis if m.degree]
    for _ in range(k - 1):
        chains = [T + (m.mid,) for T in chains for m in t.starting_at[t.basis[T[-1]].target]
                  if m.degree]
    for T in chains:
        for w in t.by_ends[(t.basis[T[0]].source, t.basis[T[-1]].target)]:
            yield T, w.mid


def _reference_rows(t, k):
    """The degree-k bar differential keyed by tuples, one row per cochain."""
    radical = [m.mid for m in t.basis if m.degree]
    pair_hits = {m: [] for m in radical}
    for x in radical:
        for y in radical:
            hit = t.mono_mul(x, y)
            if hit is not None:
                pair_hits[hit[1]].append(((x, y), hit[0]))
    for T, w in _reference_cochains(t, k):
        row = {}
        for b in radical:
            hit = t.mono_mul(b, w)
            if hit is not None:
                key = ((b,) + T, hit[1])
                row[key] = row.get(key, 0) + hit[0]
        for i in range(1, k + 1):
            for (x, y), c in pair_hits[T[i - 1]]:
                key = (T[: i - 1] + (x, y) + T[i:], w)
                row[key] = row.get(key, 0) + (-1) ** i * c
        for b in radical:
            hit = t.mono_mul(w, b)
            if hit is not None:
                key = (T + (b,), hit[1])
                row[key] = row.get(key, 0) + (-1) ** (k + 1) * hit[0]
        yield {kk: v for kk, v in row.items() if v != 0}


def _decode(code, k, D):
    """The tuple key (T, w) of a code of C^k: its k+1 base-D digits."""
    digits = []
    for _ in range(k + 1):
        code, digit = divmod(code, D)
        digits.append(digit)
    assert code == 0
    digits.reverse()
    return tuple(digits[:-1]), digits[-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_coded_rows_decode_to_the_tuple_keyed_rows(n):
    # at every degree the budget admits: the cochains come in the reference
    # order and decode to its keys, each row decodes term for term (in the
    # same order) to the reference row, and integer order is tuple order
    t = context(n, 3).table
    bc = BarComplex(t)
    D = t.dim
    for k in range(budget_upto(t, 12, 10000) + 1):
        codes = list(bc.cochains(k))
        assert [_decode(c, k, D) for c in codes] == list(_reference_cochains(t, k))
        assert codes == sorted(codes)
        rows = list(bc.differential_rows(k))
        decoded = [[(_decode(c, k + 1, D), v) for c, v in row.items()] for row in rows]
        assert decoded == [list(row.items()) for row in _reference_rows(t, k)]
        keys = {c for row in rows for c in row}
        assert [_decode(c, k + 1, D) for c in sorted(keys)] == sorted(
            _decode(c, k + 1, D) for c in keys)


@pytest.mark.parametrize("char,nnz", [(3, 3366), (0, 3416)])
def test_int_keys_keep_the_pivots_of_tuple_keys(char, nnz):
    # the n=2 degree-3 differential meets the same pivots with the same fill
    # under either key
    t = context(2, char).table
    for rows in (list(BarComplex(t).differential_rows(3)), list(_reference_rows(t, 3))):
        pivots, _ = _reduce(rows, FieldSpec(char))
        assert len(pivots) == 322
        assert sum(len(row) for _, row, _, _ in pivots.values()) == nnz


def test_bar_rows_are_keyed_by_ints():
    for n, upto in ((1, 6), (2, 3), (3, 1)):
        rows = bar_rows(context(n, 3).table, upto)
        assert all(type(key) is int for degree in rows for row in degree for key in row)


_SHARED_FIELDS = (0, 3, 5, 7, 11, 13, _SCREEN_PRIME)


def _recording(monkeypatch, calls):
    """Record every bar row build and elimination `compare` runs."""
    real_rows, real_rank, real_scale = (BarComplex.differential_rows, oracle.sparse_rank,
                                        oracle.rank_and_scale)

    def rows(self, k):
        calls.append(("rows", k))
        return real_rows(self, k)

    def rank(rows, field):
        calls.append(("rank", field.characteristic))
        return real_rank(rows, field)

    def scale(rows):
        calls.append(("rank", 0))
        return real_scale(rows)

    monkeypatch.setattr(BarComplex, "differential_rows", rows)
    monkeypatch.setattr(oracle, "sparse_rank", rank)
    monkeypatch.setattr(oracle, "rank_and_scale", scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shared_ranks_match_direct_eliminations(n, monkeypatch):
    # the dims read off the per-n rational pass equal a direct elimination
    # over each field, and a degree is eliminated again exactly where the
    # prime divides its pivot scale: at n=3 over F3 (degree 1, scale 6) only
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    upto = budget_upto(context(n).table, 12, 10000)
    tables = {p: context(n).table if p == 0 else build_algebra(n, FieldSpec(p))
              for p in _SHARED_FIELDS}
    direct = {p: _dims(bar_rows(t, upto), t.field) for p, t in tables.items()}
    calls = []
    _recording(monkeypatch, calls)
    again = []
    for p, t in tables.items():
        calls.clear()
        rep, eliminations = compare(t, direct[p], upto)
        assert rep["ok"] and rep["bar_dims"] == direct[p]
        if p == 0:
            # the rational pass, with the screen read off it
            assert rep["screen_dims"] == direct[_SCREEN_PRIME]
            assert calls.count(("rank", 0)) == eliminations == upto + 1
        else:
            known = oracle._RATIONAL_RANKS[oracle._rule_key(tables[0])]
            scales = [known[k][2] for k in range(upto + 1)]
            redone = [k for k in range(upto + 1) if scales[k] % p == 0]
            assert [c for c in calls if c[0] == "rank"] == [("rank", p)] * len(redone)
            assert [c[1] for c in calls if c[0] == "rows"] == redone
            assert eliminations == len(redone)
            again += [(p, k) for k in redone]
    assert again == ([(3, 1)] if n == 3 else [])


def test_later_fields_share_the_rational_pass(monkeypatch):
    # after Q at n=2, F3 and F7 build no bar rows and eliminate nothing
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    ctx = context(2)
    assert compare(ctx.table, hh_dims(ctx.cx, 3), 3)[1] == 4
    calls = []
    _recording(monkeypatch, calls)
    for p in (3, 7):
        rep, eliminations = compare(context(2, p).table, [4, 2, 2, 2], 3)
        assert rep["ok"] and eliminations == 0
    assert calls == []


def test_a_cold_prime_field_point_ranks_over_its_field_and_keeps_nothing(monkeypatch):
    # no char-0 point first: every degree is eliminated over F_p, as
    # `bar_dims` does, none over Q, and a second F_p point does it again
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    calls = []
    _recording(monkeypatch, calls)
    for p in (3, 3, 5):
        calls.clear()
        rep, eliminations = compare(context(2, p).table, [4, 2, 2, 2], 3)
        assert rep["ok"] and eliminations == 4
        assert [c for c in calls if c[0] == "rank"] == [("rank", p)] * 4
    assert oracle._RATIONAL_RANKS == {}


def _negated_above_degree_one(n: int) -> AlgebraTable:
    """The canonical table of n over Q with every rule entry that lands in
    degree >= 2 negated: same n and basis, another rule (no longer unital
    or associative), other bar rows."""
    base = context(n).table
    t = AlgebraTable(n, base.field, base.basis, _integral_tables(n)[1])
    t.rule = [(-e[0], e[1]) if e and base.basis[e[1]].degree >= 2 else e for e in t.rule]
    return t


def test_ranks_are_kept_per_rule_not_per_n(monkeypatch):
    # a table of n=2 with another rule reads none of the ranks kept for the
    # canonical one: neither the unsigned-socle variant (an isomorphic
    # algebra with other bar rows) nor a table whose dims differ
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    canonical = context(2).table
    assert compare(canonical, [4, 2, 2, 2], 3)[0]["ok"]
    negated = _negated_above_degree_one(2)
    assert bar_dims(negated, 3) == [4, 2, -3, -16]
    for t in (variant_socle_table(2), negated):
        assert oracle._rule_key(t) != oracle._rule_key(canonical)
        rep, eliminations = compare(t, bar_dims(t, 3), 3)
        assert rep["ok"] and eliminations == 4
    assert len(oracle._RATIONAL_RANKS) == 3


def test_a_warm_cache_still_checks_the_budget(monkeypatch):
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    assert compare(context(2).table, hh_dims(context(2).cx, 3), 3)[0]["ok"]
    t = context(2, 3).table
    assert compare(t, [4, 2, 2, 2], 3)[1] == 0
    with pytest.raises(BudgetExceededError) as err:
        compare(t, [4, 2, 2, 2], 3, budget=1000)
    assert err.value.degree == 3
    with pytest.raises(BudgetExceededError) as err:
        compare(t, [4, 2, 2, 2, 2], 4)
    assert err.value.degree == 4
