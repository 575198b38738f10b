import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preproj_hh import algebra, oracle, yoneda
from preproj_hh.algebra import BasisMonomial
from preproj_hh.cli import (certificate_bytes, compute_certificate, main,
                            parse_int_list, render_csv, render_markdown,
                            run_grid, RunConfig, write_certificate)
from preproj_hh.exactla import ExactMatrix, FieldSpec
from preproj_hh.resolution import ProjectiveBimodule
from preproj_hh.yoneda import CohomologyClass

DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "digests.json")
# body digests of points beyond the benchmark grid, oracle off
SCALE_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "scale_digests.json")


def test_parse_int_list():
    assert parse_int_list("2") == [2]
    assert parse_int_list("1..4") == [1, 2, 3, 4]
    assert parse_int_list("0,3,5") == [0, 3, 5]
    assert parse_int_list("1..3,5") == [1, 2, 3, 5]
    assert parse_int_list("2,2,2") == [2]


def test_a_long_list_parses_in_linear_time():
    start = time.perf_counter()
    assert parse_int_list("1..200000,5,1") == list(range(1, 200001))
    assert time.perf_counter() - start < 5


def test_dims_subcommand(capsys):
    assert main(["dims", "--n", "2", "--char", "0"]) == 0
    out = capsys.readouterr().out
    assert "[4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]" in out


def test_cartan_subcommand(capsys):
    assert main(["cartan", "--n", "1..3"]) == 0
    out = capsys.readouterr().out
    assert "det=2" in out and "det=8" in out
    # over a characteristic list every line names its point, as build does
    assert main(["cartan", "--n", "1", "--char", "0,3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=1 char=0: [[2]] det=2", "n=1 char=3: [[2]] det=2"]


def test_characteristic_two_rejected(capsys):
    assert main(["dims", "--n", "2", "--char", "2"]) == 2
    err = capsys.readouterr().err
    assert "characteristic 2" in err


def test_even_characteristic_rejected():
    assert main(["dims", "--n", "2", "--char", "9"]) == 2


def test_a_large_prime_characteristic_is_a_field(capsys):
    p = 2 ** 61 - 1
    assert main(["dims", "--n", "1", "--char", str(p)]) == 0
    assert capsys.readouterr().out.startswith(f"n=1 char={p}: [2, 1, 1")


def test_a_characteristic_past_the_exact_primality_bound_is_a_usage_error(capsys):
    assert main(["dims", "--n", "1", "--char", str(2 ** 89 - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "characteristic" in captured.err


def test_verify_subcommand(capsys):
    assert main(["verify", "--n", "2", "--char", "5"]) == 0
    out = capsys.readouterr().out
    assert "modular" in out and "PASS" in out


def test_oracle_budget_exit_code(capsys):
    assert main(["oracle", "--n", "2", "--char", "0", "--upto", "5",
                 "--budget", "100"]) == 3
    assert "budget" in capsys.readouterr().err


def test_oracle_subcommand(capsys):
    assert main(["oracle", "--n", "1", "--char", "0", "--upto", "4"]) == 0
    assert "ok=True" in capsys.readouterr().out


@pytest.mark.parametrize("argv,line", [
    (["cmatrix", "--n", "2", "--char", "3"],
     "n=2 char=3: [[-2, 1], [1, -3]] rank=2 det=5 adjacency=True"),
    (["oracle", "--n", "1", "--char", "0", "--upto", "4"],
     "n=1 char=0: bar=[2, 1, 1, 1, 1] resolution=[2, 1, 1, 1, 1] ok=True"),
    (["verify", "--n", "2", "--char", "5"], "n=2 char=5 regime=modular: PASS"),
])
def test_section_reading_subcommands_print_their_whole_line(argv, line, capsys):
    # the subcommands that print fields of the c_matrix, oracle, presentation
    # and stable sections: the whole output of a passing point
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"


def test_products_subcommand(capsys):
    assert main(["products", "--n", "1", "--char", "0"]) == 0
    out = capsys.readouterr().out
    assert "gamma*gamma = z1*h" in out


def test_build_writes_table(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["build", "--n", "2", "--char", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 10
    assert len(doc["basis"]) == 10


def test_run_writes_certificates_and_passes(tmp_path, capsys):
    rc = main(["run", "--n", "1..2", "--char", "0", "--out", str(tmp_path),
               "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n,characteristic,table,degree,dimension" in out
    assert "2,0,HH^,0,4" in out
    cert = json.loads((tmp_path / "cert_n2_char0.json").read_text())
    assert cert["body"]["pass"] is True
    assert cert["body"]["verdicts"]["presentation"] is True


def test_run_writes_certificates_with_the_mode_open_gives(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        assert main(["run", "--n", "1", "--char", "3", "--no-oracle",
                     "--out", str(tmp_path), "--jobs", "1"]) == 0
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    certs = [p for p in tmp_path.iterdir() if p.name != "plain.json"]
    assert len(certs) == 1
    mode = stat.S_IMODE(os.stat(tmp_path / "plain.json").st_mode)
    assert stat.S_IMODE(certs[0].stat().st_mode) == mode == 0o644


def test_certificates_are_deterministic_modulo_header():
    a = compute_certificate(2, 3, with_oracle=True)
    b = compute_certificate(2, 3, with_oracle=True)
    assert a["body"] == b["body"]
    sa = certificate_bytes(a).split(b"\n", 2)
    sb = certificate_bytes(b).split(b"\n", 2)
    assert sa[2] == sb[2]  # everything below the header line is identical


def test_certificate_bodies_do_not_depend_on_the_hash_seed():
    # n=3 over F3 with the oracle on, certified in two processes whose str
    # hashes differ: set and dict iteration over hashed keys may not reach
    # the body, so everything below the header line is byte-equal
    code = ("import sys\n"
            "from preproj_hh.cli import certificate_bytes, compute_certificate\n"
            "sys.stdout.buffer.write(certificate_bytes(\n"
            "    compute_certificate(3, 3, with_oracle=True)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    bodies = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        bodies.append(proc.stdout.split(b"\n", 2)[2])
    assert bodies[0].startswith(b'"body":\n')
    assert bodies[0] == bodies[1]


def test_parallel_grid_matches_serial(monkeypatch):
    # bodies and header work alike: the F_p points read the Q bar ranks and
    # the integral generator lifts of their n's char-0 point, as in a serial
    # run, whichever worker ran the other n.  Each run starts from empty Q
    # ranks and lifts, which the forked workers inherit from this process
    def grid(jobs):
        monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
        monkeypatch.setattr(yoneda, "_INTEGRAL_LIFTS", {})
        return run_grid(RunConfig([1, 2], [0, 3, 5], jobs=jobs))

    serial, parallel = grid(1), grid(2)
    assert [c["body"] for c in parallel] == [c["body"] for c in serial]
    assert [c["header"]["work"] for c in parallel] == [c["header"]["work"] for c in serial]
    assert [c["header"]["work"]["bar_eliminations"] for c in serial] == [13, 0, 0, 4, 0, 0]


def test_run_grid_gives_one_job_per_n_to_at_most_one_worker_per_n(monkeypatch):
    # a recording stand-in for the pool: no process is started.  However
    # many jobs are asked for, the pool gets one worker per n value at most
    # and one job per n, holding that n's fields in the order given
    import concurrent.futures
    import preproj_hh.cli as cli
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers, self.jobs = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            self.jobs = list(jobs)
            return map(fn, self.jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "compute_certificate",
                        lambda n, char, maxdeg, budget, with_oracle: (n, char))
    certs = run_grid(RunConfig([1, 2], [5, 0, 3], jobs=10000))
    assert [pool.max_workers for pool in pools] == [2]
    assert [job[:2] for job in pools[0].jobs] == [(1, [5, 0, 3]), (2, [5, 0, 3])]
    assert certs == [(1, 5), (1, 0), (1, 3), (2, 5), (2, 0), (2, 3)]
    assert run_grid(RunConfig([1, 2, 3], [0], jobs=2)) == [(1, 0), (2, 0), (3, 0)]
    assert [pool.max_workers for pool in pools] == [2, 2]
    # one n value, or one job asked for, runs in this process
    assert run_grid(RunConfig([4], [0, 3], jobs=8)) == [(4, 0), (4, 3)]
    assert run_grid(RunConfig([1, 2], [3], jobs=1)) == [(1, 3), (2, 3)]
    assert len(pools) == 2


def test_header_work_does_not_depend_on_warm_caches(monkeypatch):
    # n=5 over F3 certified cold, then again after n=5 over Q and n=4 over Q
    # and F3 have filled the integral tables, the Q bar ranks and the
    # integral lifts of the process: the work is the same, the new counts
    # included.  The cold point lifts the generators, over Q, and the n=5 Q
    # point reads them; n=4 empties the lifts, so the warm point lifts them
    # again, and the point after it reads them.  Only the four lifting
    # counts tell a point that reads from one that lifts.  Each certificate
    # multiplies with an engine of its own
    monkeypatch.setattr(algebra, "_INTEGRAL_CACHE", {})
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    lifting = ("lift_steps_solved", "lift_steps_twisted", "lifting_eliminations",
               "generator_lifts_reused")
    cold = compute_certificate(5, 3)
    q = compute_certificate(5, 0)
    for n, char in ((4, 0), (4, 3)):
        compute_certificate(n, char)
    assert set(algebra._INTEGRAL_CACHE) == {4, 5} and oracle._RATIONAL_RANKS
    # one lift held, n=4's: a rule key starts with its n
    assert [(rule[0], maxdeg) for rule, maxdeg in yoneda._INTEGRAL_LIFTS] == [(4, 13)]
    warm = compute_certificate(5, 3)
    read = compute_certificate(5, 3)
    assert {"products_evaluated", "classes_identified"} <= set(cold["header"]["work"])
    assert warm["header"]["work"] == cold["header"]["work"]
    assert [[c["header"]["work"][key] for key in lifting] for c in (cold, q, warm, read)] == [
        [55, 78, 81, 0], [0, 0, 0, 13], [55, 78, 81, 0], [0, 0, 0, 13]]
    assert ({k: v for k, v in read["header"]["work"].items() if k not in lifting}
            == {k: v for k, v in cold["header"]["work"].items() if k not in lifting})
    assert warm["body"] == cold["body"] == read["body"]


def test_report_rendering(tmp_path, capsys):
    # run renders the bodies it holds, exact values with Fractions among
    # them, and report the same bodies loaded from their files: both print
    # the same text
    for fmt, shown in (("markdown", ("| n | char |", "PASS")), ("csv", ("HC_,0,2",))):
        assert main(["run", "--n", "1", "--char", "0,3", "--out", str(tmp_path),
                     "--format", fmt]) == 0
        ran = capsys.readouterr().out
        assert main(["report", "--in", str(tmp_path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert all(text in out for text in shown)
        assert out == ran


def test_markdown_render_shape():
    certs = run_grid(RunConfig([1], [0], jobs=1, with_oracle=False))
    md = render_markdown(certs)
    assert md.startswith("# Verification digest")
    csv = render_csv(certs)
    assert re.search(r"^1,0,HH\^,0,2$", csv, re.M)


def test_maxdeg_below_the_product_window_is_a_usage_error(capsys):
    assert main(["run", "--n", "1", "--maxdeg", "5"]) == 2
    assert "--maxdeg" in capsys.readouterr().err


def test_compute_certificate_below_the_product_window_raises(monkeypatch):
    # refused before any stage runs, instead of dying in the product stages
    import preproj_hh.cli as cli

    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "build_algebra", no_stage)
    with pytest.raises(ValueError, match="maxdeg"):
        compute_certificate(2, 3, 12, with_oracle=False)


def test_malformed_jobs_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PREPROJ_HH_JOBS", "x")
    assert main(["dims", "--n", "1"]) == 2
    assert "PREPROJ_HH_JOBS" in capsys.readouterr().err


def _assert_one_error_line(capsys, needle):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert needle in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_environment_below_one_is_a_usage_error(monkeypatch, capsys, jobs):
    monkeypatch.setenv("PREPROJ_HH_JOBS", jobs)
    assert main(["run", "--n", "1", "--char", "3", "--no-oracle"]) == 2
    _assert_one_error_line(capsys, "PREPROJ_HH_JOBS")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_option_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    assert main(["run", "--n", "1", "--char", "3", "--no-oracle",
                 "--out", str(tmp_path), "--jobs", jobs]) == 2
    _assert_one_error_line(capsys, "--jobs")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "dims"])
@pytest.mark.parametrize("char", ["", ",,"])
def test_empty_char_list_is_a_usage_error(tmp_path, capsys, command, char):
    # a grid with no characteristic would certify nothing and exit 0
    extra = ["--no-oracle", "--out", str(tmp_path)] if command == "run" else []
    assert main([command, "--n", "1", "--char", char, *extra]) == 2
    _assert_one_error_line(capsys, "--char")
    assert list(tmp_path.iterdir()) == []


def test_negative_oracle_budget_is_a_usage_error(capsys):
    # a usage error (2), not "budget exceeded" (3)
    assert main(["oracle", "--n", "1", "--budget", "-5"]) == 2
    _assert_one_error_line(capsys, "--budget")


@pytest.mark.parametrize("n,char,oracle", [
    pytest.param(1, 0, True, id="1-0"), pytest.param(2, 0, True, id="2-0"),
    pytest.param(1, 3, True, id="1-3"), pytest.param(2, 3, True, id="2-3"),
    pytest.param(7, 3, False, id="7-3-no-oracle"),
    pytest.param(6, 0, False, id="6-0-no-oracle"),
    pytest.param(7, 5, False, id="7-5-no-oracle"),
    pytest.param(10, 0, False, id="10-0-no-oracle"),
    pytest.param(12, 3, False, id="12-3-no-oracle"),
    pytest.param(14, 3, False, id="14-3-no-oracle")])
def test_body_bytes_match_the_benchmark_digests(tmp_path, n, char, oracle):
    # every scalar a body serializes goes through FieldSpec.export; a site
    # that wrote a raw scalar would turn "1" into 1 over Q and move the bytes.
    # At n=7 the exactness ranks are derived from one-sided exactness and
    # the dimensions, and must serialize as the flattened ranks did; n=6 over
    # Q guards a generic-regime span audit in characteristic 0.  Twisted lift
    # steps and the window's d4..d13 negate coefficients in the field
    # (`tau_twist`, with the sign `_twist_sign` reads off for a lift), and -1
    # is 2 over F3 and 4 over F5: the n=7 points guard it.
    # n=10, 12 and 14 pin bodies at scale, from their own file
    key = f"n{n}_char{char}_oracle{int(oracle)}"
    with open(SCALE_DIGESTS if n > 7 else DIGESTS) as fh:
        want = json.load(fh)[key]
    path = tmp_path / f"{key}.json"
    write_certificate(compute_certificate(n, char, 13, 10000, oracle), str(path))
    body = path.read_bytes().split(b"\n", 2)[2]
    assert hashlib.sha256(body).hexdigest() == want


def _exact_reference(value):
    """The body as a JSON-ready copy: Fractions become 'p/q' strings, keys
    str(k); `certificate_bytes` must write what json.dumps writes of it."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _exact_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact_reference(v) for v in value]
    raise TypeError(f"unexpected value {value!r} in certificate")


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'),
                          st.characters()))
_SCALARS = st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40), st.booleans(),
                     st.none(), st.fractions(), _TEXT)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(st.one_of(st.integers(-3, 3), _TEXT, st.sampled_from(["1", "-2"])),
                        children)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_certificate_bytes_write_the_json_dumps_text_of_the_exact_copy(body):
    header = {"timings": {"algebra": 0.125}, "work": {"products": 3}}
    want = (f'{{\n"header": {json.dumps(header, sort_keys=True)},\n"body":\n'
            f'{json.dumps(_exact_reference(body), sort_keys=True, indent=1)}\n}}\n')
    assert certificate_bytes({"header": header, "body": body}) == want.encode()


class _IntSubclass(int):
    """No body holds one: the writer takes scalars by exact type."""


# the records that are named tuples are tuples, yet no sequence of a body
@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), Decimal("1.5"), {1, 2},
                                 _IntSubclass(3), FieldSpec(3),
                                 BasisMonomial(0, 1, 1, 0, (), 1),
                                 ProjectiveBimodule("P", ((1, 1),)),
                                 ExactMatrix(FieldSpec(3), [[1]]).echelonize(),
                                 CohomologyClass(0, {0: 1}, ("1",))],
                         ids=["float", "nan", "inf", "decimal", "set", "int-subclass",
                              "field", "basis-monomial", "projective-bimodule",
                              "echelon-form", "cohomology-class"])
@pytest.mark.parametrize("place", [
    lambda v: {"a": {"b": v}},
    lambda v: {"a": [1, "x", Fraction(1, 2), v]},
    lambda v: {"a": [[1], {"c": 2}, v]}], ids=["dict-value", "scalar-list", "mixed-list"])
def test_a_value_outside_the_exact_types_raises_and_writes_nothing(tmp_path, bad, place):
    cert = {"header": {}, "body": place(bad)}
    with pytest.raises(TypeError, match=re.escape(f"unexpected value {bad!r}")):
        certificate_bytes(cert)
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        write_certificate(cert, str(tmp_path / "cert.json"))
    assert os.listdir(tmp_path) == []


def test_the_cli_imports_without_dataclasses_or_hashlib():
    # every run pays for its imports: `dataclasses` would pull in inspect,
    # ast and dis, `secrets` hashlib and OpenSSL, which is why the records
    # are named tuples or __slots__ classes and the temporary name comes from
    # os.urandom
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "import preproj_hh.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib', 'secrets'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_report_on_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "missing")]) == 2
    assert "cannot read certificates" in capsys.readouterr().err


@pytest.mark.parametrize("command,upto", [("dims", 20), ("dims", -1),
                                          ("oracle", -1), ("oracle", 20)])
def test_upto_outside_the_cochain_window_is_a_usage_error(command, upto, capsys):
    assert main([command, "--n", "1", "--upto", str(upto)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--upto" in captured.err


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_report_on_json_that_is_no_certificate_is_a_usage_error(tmp_path, capsys, fmt):
    (tmp_path / "empty.json").write_text("{}")
    assert main(["report", "--in", str(tmp_path), "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not a certificate" in err


def test_run_into_an_unusable_out_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--n", "1", "--char", "3", "--out", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # found before any grid point was computed
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("name", ["missing/x.json", ".", "newdir/", ""])
def test_build_into_an_unusable_out_is_a_usage_error(tmp_path, capsys, name):
    # joined as text: a Path would drop the trailing separator of "newdir/"
    out = os.path.join(tmp_path, name) if name else ""
    assert main(["build", "--n", "1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("n,char", [("1..2", "0"), ("1", "0,3")])
def test_build_out_over_a_grid_is_a_usage_error(tmp_path, capsys, n, char):
    out = tmp_path / "table.json"
    assert main(["build", "--n", n, "--char", char, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # found before any table was built
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert not out.exists()


def test_certifies_without_numpy():
    # the package has no third-party runtime dependency; a blocked numpy
    # import must not matter
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from preproj_hh.cli import compute_certificate\n"
        "cert = compute_certificate(1, 3)\n"
        "assert cert['body']['pass'], cert['body']['verdicts']\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_traced_points_reach_every_probe_and_match_their_stage_timers(tmp_path):
    # the benchmark's trace guard on two small points: every probed entry
    # point a char-0 point must reach is called, and each stage's spans
    # account for its header timing.  A probe whose target is gone is
    # skipped and its metrics read 0, so the two targets already gone are
    # pinned: a probed function deleted or renamed fails here.  A
    # subprocess keeps the probes' rebinding of the package out of the
    # other tests
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import json, os, sys\n"
        "from probes import Tracer\n"
        "from worker import stage_mismatches\n"
        "import preproj_hh.cli as cli\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "mismatches = []\n"
        "for n, char in ((2, 0), (2, 3)):\n"
        "    tracer.point_stages = {}\n"
        "    cert = cli.compute_certificate(n, char, 13, 10000, False)\n"
        "    cli.write_certificate(cert, os.path.join(sys.argv[1], f'{n}_{char}.json'))\n"
        "    mismatches += stage_mismatches(cert['header']['timings'],\n"
        "                                   tracer.point_stages)\n"
        "print(json.dumps({'unreached': tracer.unreached({'char0'}),\n"
        "                  'mismatches': mismatches, 'absent': tracer.absent}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unreached": [], "mismatches": [],
        "absent": ["preproj_hh.presentation:stable_check",
                   "preproj_hh.cochain:CochainComplex.coboundary_solve"]}


def test_commutator_quotient_joins_the_homology_duality_verdict(tmp_path, monkeypatch):
    # HH_0 = L/[L, L]: a commutator quotient one off must flip the verdict,
    # the body's pass and the exit code of run
    import preproj_hh.cli as cli

    def run():
        rc = main(["run", "--n", "1", "--char", "3", "--no-oracle",
                   "--out", str(tmp_path)])
        body = json.loads((tmp_path / "cert_n1_char3.json").read_text())["body"]
        return body["verdicts"]["homology_duality"], body["pass"], rc

    assert run() == (True, True, 0)
    true_dim = cli.commutator_quotient_dim
    monkeypatch.setattr(cli, "commutator_quotient_dim", lambda t: true_dim(t) + 1)
    assert run() == (False, False, 1)


def test_stable_failures_reach_the_body_and_the_verify_output(tmp_path, monkeypatch, capsys):
    # multiplying by the class x0*h instead of h drops rank in every degree
    # (x0 kills HH^2, for one): the stable verdict, pass and the run exit
    # code flip, and the body carries the failing degrees as its witness
    from preproj_hh.cochain import canonical_cocycles
    from preproj_hh.yoneda import YonedaEngine

    def run():
        rc = main(["run", "--n", "2", "--char", "3", "--no-oracle",
                   "--out", str(tmp_path)])
        body = json.loads((tmp_path / "cert_n2_char3.json").read_text())["body"]
        return body, rc

    body, rc = run()
    assert (body["verdicts"]["stable"], body["pass"], rc) == (True, True, 0)
    assert "failures" not in body["stable"]
    true_vector = YonedaEngine.generator_vector

    def x0_h_for_h(self, name):
        if name == "h":
            return 6, canonical_cocycles(self.cx, 6).vectors[1]
        return true_vector(self, name)

    monkeypatch.setattr(YonedaEngine, "generator_vector", x0_h_for_h)
    body, rc = run()
    assert (body["verdicts"]["stable"], body["pass"], rc) == (False, False, 1)
    failures = body["stable"]["failures"]
    assert [f"h-multiplication drops rank in degree {i}" for i in range(1, 7)] == [
        f for f in failures if "drops rank" in f]
    capsys.readouterr()
    assert main(["verify", "--n", "2", "--char", "3"]) == 1
    out = capsys.readouterr().out
    for failure in failures:
        assert f"  stable: {failure}\n" in out


def test_presentation_failures_reach_the_body_and_the_verify_output(tmp_path, monkeypatch, capsys):
    # gamma^2 = 2*z1*h instead of z1*h leaves the residual -z1*h: the
    # presentation verdict, pass and the run exit code flip, and the body's
    # presentation failures name the relation with its residual
    import preproj_hh.cli as cli
    from preproj_hh.presentation import Relation

    def run():
        rc = main(["run", "--n", "2", "--char", "3", "--no-oracle",
                   "--out", str(tmp_path)])
        body = json.loads((tmp_path / "cert_n2_char3.json").read_text())["body"]
        return body, rc

    body, rc = run()
    assert (body["verdicts"]["presentation"], body["pass"], rc) == (True, True, 0)
    assert body["presentation"]["failures"] == []
    true_spec = cli.theorem_spec

    def corrupted_spec(n, field):
        spec = true_spec(n, field)
        spec.relations = [
            Relation(r.label, ((1, ("gamma", "gamma")), (-2, ("z1", "h"))))
            if r.label == "gamma^2=z1*h" else r for r in spec.relations]
        return spec

    monkeypatch.setattr(cli, "theorem_spec", corrupted_spec)
    body, rc = run()
    assert (body["verdicts"]["presentation"], body["pass"], rc) == (False, False, 1)
    assert not body["presentation"]["ok"]
    assert body["presentation"]["failures"] == ["gamma^2=z1*h: residual 2*z1*h"]
    capsys.readouterr()
    assert main(["verify", "--n", "2", "--char", "3"]) == 1
    assert "  gamma^2=z1*h: residual 2*z1*h\n" in capsys.readouterr().out


def test_header_records_the_lifting_work():
    # header only: the body keeps its bytes (see the digest test)
    cert = compute_certificate(7, 3, with_oracle=False)
    header = cert["header"]
    assert set(header) == {"timestamp", "timings", "work"}
    assert header["work"] == {"lift_steps_solved": 71, "lift_steps_twisted": 104,
                              "lifting_eliminations": 115, "generator_lifts_reused": 0,
                              "products": 882, "products_evaluated": 575,
                              "classes_identified": 200, "pullback_walks": 120,
                              "cochain_differentials_built": 6,
                              "one_sided_maps_ranked": 7}
    assert "work" not in cert["body"]
    # the next point of n=7 reads the 17 generator lifts that this one left,
    # and lifts nothing
    f5 = compute_certificate(7, 5, with_oracle=False)
    assert f5["header"]["work"] == {"lift_steps_solved": 0, "lift_steps_twisted": 0,
                                    "lifting_eliminations": 0, "generator_lifts_reused": 17,
                                    "products": 882, "products_evaluated": 575,
                                    "classes_identified": 224, "pullback_walks": 120,
                                    "cochain_differentials_built": 6,
                                    "one_sided_maps_ranked": 7}
    assert "work" not in f5["body"]


def test_header_records_the_bar_eliminations(monkeypatch):
    # one per degree over Q, none where an F_p point reads its ranks off
    # that pass, one per degree at an F_p point with no Q point of its n
    # before it, 0 where the budget skips the oracle, and no entry without
    # it; a body does not depend on which point eliminated
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
    cold = compute_certificate(2, 3)
    assert cold["header"]["work"]["bar_eliminations"] == 4
    q, f3 = compute_certificate(2, 0), compute_certificate(2, 3)
    assert q["header"]["work"]["bar_eliminations"] == 4
    assert f3["header"]["work"]["bar_eliminations"] == 0
    assert cold["body"] == f3["body"]
    skipped = compute_certificate(1, 3, oracle_budget=1)
    assert skipped["body"]["oracle"] == {"skipped": "budget admits no positive degree"}
    assert skipped["header"]["work"]["bar_eliminations"] == 0
    assert "bar_eliminations" not in compute_certificate(1, 3, with_oracle=False)["header"]["work"]


def test_header_records_the_lifting_work_over_q():
    cert = compute_certificate(6, 0, with_oracle=False)
    assert cert["header"]["work"] == {"lift_steps_solved": 63, "lift_steps_twisted": 91,
                                      "lifting_eliminations": 98, "generator_lifts_reused": 0,
                                      "products": 570, "products_evaluated": 394,
                                      "classes_identified": 214, "pullback_walks": 113,
                                      "cochain_differentials_built": 6,
                                      "one_sided_maps_ranked": 7}


def test_run_exit_code_is_zero_exactly_when_every_body_passes(tmp_path, monkeypatch):
    # a Cartan determinant one off at n=2 flips that point's cartan_det
    # verdict and pass, and only that point's; run exits 1 once any point fails
    import preproj_hh.cli as cli

    def run(out, n, chars):
        rc = main(["run", "--n", n, "--char", chars, "--no-oracle", "--jobs", "1",
                   "--out", str(out)])
        bodies = {}
        for path in sorted(out.glob("cert_*.json")):
            body = json.loads(path.read_text())["body"]
            cfg = body["config"]
            bodies[cfg["n"], cfg["characteristic"]] = body
        return rc, bodies

    rc, bodies = run(tmp_path / "good", "1..3", "0,3,5")
    assert len(bodies) == 9
    assert all(body["pass"] is True for body in bodies.values())
    assert rc == 0
    true_cartan = cli.cartan_matrix

    def cartan_one_off(table):
        cart, det = true_cartan(table)
        return cart, det + 1 if table.n == 2 else det

    monkeypatch.setattr(cli, "cartan_matrix", cartan_one_off)
    rc, bodies = run(tmp_path / "bad", "1..3", "3")
    assert {key: body["pass"] for key, body in bodies.items()} == {
        (1, 3): True, (2, 3): False, (3, 3): True}
    failed = bodies[2, 3]["verdicts"]
    assert [v for v, ok in failed.items() if not ok] == ["cartan_det"]
    assert bodies[2, 3]["witnesses"] == {"cartan_det": ["det = 5, expected 2^n = 4"]}
    assert "witnesses" not in bodies[1, 3] and "witnesses" not in bodies[3, 3]
    assert rc == 1


def test_a_wrong_c_matrix_determinant_fails_c_matrix_with_its_witness(
        tmp_path, monkeypatch, capsys):
    # |det C| one off at n=2 over F3 (6 for 5 = (2n+1)^(n-1)) while the
    # adjacency identity still holds: only c_matrix and pass flip, run exits
    # 1, the body carries the failure line, and cmatrix exits 1 too
    import preproj_hh.yoneda as ymod

    def run():
        rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
                   "--out", str(tmp_path)])
        body = json.loads((tmp_path / "cert_n2_char3.json").read_text())["body"]
        return body, rc

    body, rc = run()
    assert (body["verdicts"]["c_matrix"], body["pass"], rc) == (True, True, 0)
    assert "failures" not in body["c_matrix"]
    assert main(["cmatrix", "--n", "2", "--char", "3"]) == 0
    true_det = ymod.det
    monkeypatch.setattr(ymod, "det", lambda rows, field: true_det(rows, field) + 1)
    body, rc = run()
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["c_matrix"]
    assert (body["pass"], rc) == (False, 1)
    assert body["c_matrix"]["adjacency_identity"] is True
    assert body["c_matrix"]["failures"] == [
        "|det C| = 6, expected (2n+1)^(n-1) = 5"]
    capsys.readouterr()
    assert main(["cmatrix", "--n", "2", "--char", "3"]) == 1
    assert "  |det C| = 6, expected (2n+1)^(n-1) = 5\n" in capsys.readouterr().out


def test_c_matrix_disagreements_fail_c_matrix_with_their_witness(
        tmp_path, monkeypatch, capsys):
    # entry (1, 1) of the combinatorial C one off at n=2 over F3: it disagrees
    # with the closed form and with the cup product y*z_1.  Only c_matrix and
    # pass flip, run exits 1, the body carries both disagreement lines, and
    # cmatrix (which takes no products) exits 1 and prints the first
    import preproj_hh.yoneda as ymod
    true_comb = ymod.combinatorial_c_matrix

    def shifted(table):
        rows = true_comb(table)
        rows[0][0] += 1
        return rows

    monkeypatch.setattr(ymod, "combinatorial_c_matrix", shifted)
    rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
               "--out", str(tmp_path)])
    body = json.loads((tmp_path / "cert_n2_char3.json").read_text())["body"]
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["c_matrix"]
    assert (body["pass"], rc) == (False, 1)
    disagreements = ["combinatorial and closed-form entries disagree: "
                     "[[-1, 1], [1, -3]] vs [[-2, 1], [1, -3]]",
                     "cup product coordinate (1,1) = 1, expected -1"]
    assert body["c_matrix"]["failures"][:2] == disagreements
    capsys.readouterr()
    assert main(["cmatrix", "--n", "2", "--char", "3"]) == 1
    assert f"  {disagreements[0]}\n" in capsys.readouterr().out


def test_a_wrong_connes_image_fails_cyclic_with_its_witness(tmp_path, monkeypatch):
    # dim HH_3 one too large on the way into cyclic_dims at n=2 over Q moves
    # every Connes image from B^3 on: only cyclic and pass flip, run exits 1,
    # and the body keeps the images as the witness
    import preproj_hh.cli as cli
    true_cyclic = cli.cyclic_dims

    def shifted(cx, hh):
        return true_cyclic(cx, hh[:3] + [hh[3] + 1] + hh[4:])

    monkeypatch.setattr(cli, "cyclic_dims", shifted)
    rc = main(["run", "--n", "2", "--char", "0", "--no-oracle", "--jobs", "1",
               "--out", str(tmp_path)])
    body = json.loads((tmp_path / "cert_n2_char0.json").read_text())["body"]
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["cyclic"]
    assert (body["pass"], rc) == (False, 1)
    connes = body["dimensions"]["connes_images"]
    assert connes[:5] == [2, 0, 2, 1, 1] and set(connes[5:]) == {1}


def test_an_asymmetric_gram_entry_fails_dualizable_with_its_witness(tmp_path, monkeypatch):
    # one gram entry negated at n=2 over F3 makes the form asymmetric: only
    # dualizable and pass flip, run exits 1, and the witness names the entry
    import preproj_hh.cli as cli
    true_form = cli.associated_form
    tampered = []

    def asymmetric_form(table):
        form = true_form(table)
        b, c = next((b, c) for b, row in form.gram.items() for c in row if c > b)
        form.gram[b][c] = table.field.neg(form.gram[b][c])
        tampered.append((b, c))
        return form

    monkeypatch.setattr(cli, "associated_form", asymmetric_form)
    rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
               "--out", str(tmp_path)])
    assert rc == 1
    (path,) = tmp_path.glob("cert_*.json")
    body = json.loads(path.read_text())["body"]
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["dualizable"]
    assert body["pass"] is False
    (b, c), = tampered
    dual = body["dualizability"]
    assert dual["symmetry_condition"] is False
    assert dual["arrow_condition"] and dual["double_dual_condition"]
    assert dual["witnesses"] == [f"({b},{c}) asymmetric"]


def test_a_socle_product_outside_the_coboundaries_fails_zmodule_with_its_witness(
        tmp_path, monkeypatch):
    # inside zmodule_checks, x1 times the first canonical cocycle of degree 2
    # at n=2 over F3 is left as that cocycle, a nonzero class, in degrees 2
    # and 8 (the degree of the next period, which reads the same vectors):
    # only zmodule and pass flip, run exits 1, and the body has one failure
    # line per degree, each with its own label
    import preproj_hh.cli as cli
    from preproj_hh.algebra import socle_basis
    from preproj_hh.cochain import CochainComplex, canonical_cocycles
    true_scale = CochainComplex.scale_vector
    true_checks = cli.zmodule_checks

    def kept_class(cx, degree, z, vec):
        if (degree in (2, 8) and z == socle_basis(cx.table)[0]
                and vec is canonical_cocycles(cx, degree).vectors[0]):
            return dict(vec)
        return true_scale(cx, degree, z, vec)

    def checks_keeping_a_class(cx):
        with monkeypatch.context() as patch:
            patch.setattr(CochainComplex, "scale_vector", kept_class)
            return true_checks(cx)

    monkeypatch.setattr(cli, "zmodule_checks", checks_keeping_a_class)
    rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
               "--out", str(tmp_path)])
    body = json.loads((tmp_path / "cert_n2_char3.json").read_text())["body"]
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["zmodule"]
    assert (body["pass"], rc) == (False, 1)
    zmod = body["zmodule"]
    assert (zmod["socle_kills"], zmod["ok"]) == (False, False)
    assert zmod["x0_kills_2_3"] and zmod["x0_power_survives"]
    assert zmod["failures"] == ["x1*z1 not a coboundary in degree 2",
                                "x1*z1*h not a coboundary in degree 8"]
    assert "witnesses" not in body


def test_a_wrong_cohomology_dimension_fails_dimensions_with_its_witness(
        tmp_path, monkeypatch):
    # dim HH^4 one too large at n=2 over F3: dimensions flips, and so does
    # homology_duality, which compares HH_* with the same list; pass flips,
    # run exits 1, and the body's witnesses name the degree
    import preproj_hh.cli as cli
    true_hh = cli.hh_dims

    def shifted(cx, upto):
        hh = true_hh(cx, upto)
        return hh[:4] + [hh[4] + 1] + hh[5:]

    def run(out):
        rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
                   "--out", str(out)])
        return json.loads((out / "cert_n2_char3.json").read_text())["body"], rc

    body, rc = run(tmp_path / "good")
    assert (body["verdicts"]["dimensions"], body["pass"], rc) == (True, True, 0)
    assert "witnesses" not in body
    monkeypatch.setattr(cli, "hh_dims", shifted)
    body, rc = run(tmp_path / "bad")
    assert [v for v, ok in body["verdicts"].items() if not ok] == [
        "dimensions", "homology_duality"]
    assert (body["pass"], rc) == (False, 1)
    assert body["dimensions"]["HH_cohomology"][4] == 3
    assert body["witnesses"] == {"dimensions": ["HH^4 = 3, expected 2"]}


def test_a_negated_differential_term_fails_resolution_exact_with_its_witness(
        tmp_path, monkeypatch):
    # one coefficient of d2 negated in the window that certify_exact reads at
    # n=2 over F3, the rest of the pipeline keeping the true window: d1 o d2
    # and d2 o d3 no longer vanish and d8 no longer repeats d2.  Only
    # resolution_exact and pass flip, run exits 1, and the body's exactness
    # failures name all three
    import copy

    import preproj_hh.cli as cli
    from preproj_hh.resolution import BimoduleMap
    true_certify = cli.certify_exact

    def certify_negated(w):
        d2 = w.diffs[2]
        values = [dict(terms) for terms in d2.values]
        key = next(iter(values[0]))
        values[0][key] = d2.table.field.neg(values[0][key])
        bad = copy.copy(w)
        bad.diffs = w.diffs[:2] + [BimoduleMap(d2.table, d2.source, d2.target, values)] \
            + w.diffs[3:]
        return true_certify(bad)

    def run(out):
        rc = main(["run", "--n", "2", "--char", "3", "--no-oracle", "--jobs", "1",
                   "--out", str(out)])
        return json.loads((out / "cert_n2_char3.json").read_text())["body"], rc

    body, rc = run(tmp_path / "good")
    assert (body["verdicts"]["resolution_exact"], body["pass"], rc) == (True, True, 0)
    assert body["exactness"]["failures"] == []
    monkeypatch.setattr(cli, "certify_exact", certify_negated)
    body, rc = run(tmp_path / "bad")
    assert [v for v, ok in body["verdicts"].items() if not ok] == ["resolution_exact"]
    assert (body["pass"], rc) == (False, 1)
    exact = body["exactness"]
    assert (exact["dd_zero"], exact["periodic"], exact["ok"]) == (False, False, False)
    assert exact["failures"] == ["d1 o d2 != 0", "d2 o d3 != 0", "d2 != d8"]
