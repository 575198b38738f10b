"""Command-line front end: build, verify and report over (n, char) grids.

Each grid point produces one certificate: a JSON document whose body is
byte-reproducible and whose nondeterministic parts (timestamp, timings) are
isolated in a header object, together with the lifting work of the product
engine.  The body holds exact values (ints, Fractions, never a float), and
`certificate_bytes` writes it in one pass as sorted-key JSON with a
one-space indent, a Fraction as its "p/q" string.  Exit codes:
0 all verdicts pass, 1 verification failure, 2 usage error, 3 oracle budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

from . import __version__
from .algebra import build_algebra, cartan_matrix, center_basis
from .cochain import (build_complex, canonical_cocycles, commutator_quotient_dim,
                      cyclic_dims, hh_dims, homology_dims, zmodule_checks)
from .exactla import FieldSpec, UnsupportedCharacteristicError
from .nakayama import associated_form, certify_dualizable
from .oracle import BudgetExceededError, budget_upto, compare
from .presentation import theorem_spec, verify
from .resolution import build_resolution, certify_exact
from .yoneda import YonedaEngine, c_matrix, stable_structure_check

SCHEMA_VERSION = 1

# the product table multiplies generators of degree up to 6 and the spanning
# audit reaches degree 12, so the cochain window must reach degree 12
MIN_MAXDEG = 13


class RunConfig(namedtuple("RunConfig", "n_values characteristics maxdeg oracle_budget jobs "
                           "with_oracle", defaults=(13, 10000, 1, True))):
    """The grid of one run: the n and characteristics in the order given."""

    __slots__ = ()


def parse_int_list(spec: str) -> List[int]:
    """Parse '2', '1,3,5' or '1..4' (and mixtures separated by commas)."""
    out: List[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif chunk:
            out.append(int(chunk))
    return list(dict.fromkeys(out))  # each value once, where it first occurs


def compute_certificate(n: int, characteristic: int, maxdeg: int = 13,
                        oracle_budget: int = 10000,
                        with_oracle: bool = True) -> dict:
    """Full pipeline for one grid point; returns the certificate document.

    Its body holds the exact values themselves: ints, bools, None, strs,
    Fractions (the field scalars over Q) and lists and dicts of them.  Only
    `certificate_bytes` decides their text.

    Raises ValueError when maxdeg is below MIN_MAXDEG, before any stage runs.
    """
    if maxdeg < MIN_MAXDEG:
        raise ValueError(f"maxdeg must be at least {MIN_MAXDEG}, got {maxdeg}")
    timings: Dict[str, float] = {}
    clock = time.perf_counter

    t0 = clock()
    field = FieldSpec(characteristic)
    table = build_algebra(n, field)
    cart, det = cartan_matrix(table)
    center = center_basis(table)
    timings["algebra"] = clock() - t0

    t0 = clock()
    commutator_dim = commutator_quotient_dim(table)
    timings["commutator"] = clock() - t0

    t0 = clock()
    form = associated_form(table)
    dualizability = certify_dualizable(form)
    timings["nakayama"] = clock() - t0

    t0 = clock()
    window = build_resolution(table, form, maxdeg)
    exactness, one_sided_ranked = certify_exact(window)
    timings["resolution"] = clock() - t0

    t0 = clock()
    cx = build_complex(table, form, maxdeg, window)
    hh = hh_dims(cx, maxdeg - 1)
    hh_low = homology_dims(cx, maxdeg - 1)
    if characteristic == 0:
        hc, connes = cyclic_dims(cx, hh_low)
    else:
        hc, connes = None, None
    timings["cochain"] = clock() - t0

    t0 = clock()
    canonical = {}
    for degree in range(0, 7):
        cb = canonical_cocycles(cx, degree)
        space = cx.spaces[degree]
        canonical[str(degree)] = {
            "labels": cb.labels,
            "vectors": [[[*space.basis[r], field.export(v)] for r, v in sorted(vec.items())]
                        for vec in cb.vectors]}
    zmodule = zmodule_checks(cx)
    timings["canonical"] = clock() - t0

    t0 = clock()
    engine = YonedaEngine(cx)
    cmat = c_matrix(table, engine)
    products = engine.product_table()
    timings["products"] = clock() - t0

    t0 = clock()
    pres = theorem_spec(n, field)
    presentation = verify(pres, engine)
    stable = stable_structure_check(engine)
    timings["presentation"] = clock() - t0

    oracle_section: dict
    bar_eliminations = 0
    if with_oracle:
        t0 = clock()
        try:
            upto = budget_upto(table, maxdeg - 1, oracle_budget)
            if upto == 0:
                oracle_section = {"skipped": "budget admits no positive degree"}
            else:
                oracle_section, bar_eliminations = compare(table, hh, upto, oracle_budget)
        except BudgetExceededError as exc:
            oracle_section = {"skipped": str(exc)}
        timings["oracle"] = clock() - t0
    else:
        oracle_section = {"skipped": "disabled"}

    # the reasons of the verdicts that are bare comparisons here, written to
    # the body only when one of them fails, so passing bodies keep their bytes
    witnesses = {}
    expected_hh = [2 * n] + [n] * (len(hh) - 1)
    wrong_dims = [f"HH^{i} = {d}, expected {e}"
                  for i, (d, e) in enumerate(zip(hh, expected_hh)) if d != e]
    if wrong_dims:
        witnesses["dimensions"] = wrong_dims
    if det != 2 ** n:
        witnesses["cartan_det"] = [f"det = {det}, expected 2^n = {2 ** n}"]
    verdicts = {
        # sound: each condition set False appends a witness; nothing else does
        "dualizable": not dualizability["witnesses"],
        "resolution_exact": exactness["ok"],
        "zmodule": zmodule["ok"],
        "dimensions": not wrong_dims,
        "homology_duality": (hh_low == hh[: len(hh_low)]
                             and commutator_dim == hh_low[0]),
        "cartan_det": det == 2 ** n,
        "cyclic": (characteristic != 0) or all(
            hc[i] == (2 * n if i % 2 == 0 else 0) for i in range(len(hc))),
        # sound: a check that fails writes "failures"; nothing else does
        "c_matrix": "failures" not in cmat,
        "presentation": presentation["ok"],
        "stable": stable["ok"],
        "oracle": bool(oracle_section.get("ok", True)),
    }

    body = {
        "schema": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": {"n": n, "characteristic": characteristic, "maxdeg": maxdeg,
                   "oracle_budget": oracle_budget},
        "algebra": {
            "dimension": table.dim,
            "cartan": cart,
            "cartan_det": det,
            "center_dimension": len(center),
            "commutator_quotient_dim": commutator_dim,
        },
        "nakayama": form.serialize(),
        "dualizability": dualizability,
        "exactness": exactness,
        "resolution_differentials": {
            "d1": window.diffs[1].serialize(),
            "d2": window.diffs[2].serialize(),
            "d3": window.diffs[3].serialize(),
            "note": "d(m+3) is the tau twist of d(m); the window repeats with period 6",
        },
        "canonical_cocycles": canonical,
        "zmodule": zmodule,
        "dimensions": {
            "HH_cohomology": hh,
            "HH_homology": hh_low,
            "HC_cyclic": hc,
            "connes_images": connes,
        },
        "c_matrix": cmat,
        "products": {f"{a}*{b}": str(cls) for (a, b), cls in sorted(products.items())},
        "presentation": presentation,
        "stable": stable,
        "oracle": oracle_section,
        "verdicts": verdicts,
        "pass": all(verdicts.values()),
    }
    if witnesses:
        body["witnesses"] = witnesses
    work = {**engine.work(),
            "cochain_differentials_built": cx.differentials_built,
            "one_sided_maps_ranked": one_sided_ranked}
    if with_oracle:
        work["bar_eliminations"] = bar_eliminations
    return {
        "header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                   "timings": {k: round(v, 3) for k, v in timings.items()},
                   "work": work},
        "body": body,
    }


# the JSON text of each scalar type a body holds
_SCALAR_TEXT = {
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
    Fraction: lambda q: encode_basestring_ascii(str(q)),
}


def _write_body(value, out: List[str], indent: str):
    """Appends the JSON text of `value` to `out`, `indent` being the
    indentation of its first line: keys as str(k), sorted, one space a level."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    inner = indent + " "
    if isinstance(value, dict):
        items = sorted({str(k): v for k, v in value.items()}.items())
        if not items:
            out.append("{}")
            return
        sep = "{\n" + inner
        for key, item in items:
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_body(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif type(value) is list or type(value) is tuple:  # a named tuple is a record
        if not value:
            out.append("[]")
            return
        try:
            texts = [_SCALAR_TEXT[type(v)](v) for v in value]
        except KeyError:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _write_body(item, out, inner)
                sep = ",\n" + inner
            out.append("\n" + indent + "]")
        else:
            out.append("[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]")
    else:
        raise TypeError(f"unexpected value {value!r} in certificate")


def certificate_bytes(cert: dict) -> bytes:
    """Canonical serialization; the header line is first and self-contained.

    The body is written in one pass over the exact values
    `compute_certificate` holds, as `json.dumps(..., sort_keys=True,
    indent=1)` would write them: a Fraction as its "p/q" string (never a
    float), any key as str(key).  Any other value raises TypeError.
    """
    header = json.dumps(cert["header"], sort_keys=True)
    out = ['{\n"header": ', header, ',\n"body":\n']
    _write_body(cert["body"], out, "")
    out.append("\n}\n")
    return "".join(out).encode()


def write_certificate(cert: dict, path: str):
    data = certificate_bytes(cert)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    # O_EXCL as mkstemp, but mode 0o666 so the umask gives what open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grid_worker(args):
    n, chars, maxdeg, budget, with_oracle = args
    return [compute_certificate(n, c, maxdeg, budget, with_oracle) for c in chars]


def run_grid(config: RunConfig) -> List[dict]:
    """Certificates of every point, n-major, in the order given.

    A job is one n with all of its fields in the order given, so each point
    reads the per-n caches (the Q bar ranks of the oracle and the integral
    generator lifts of the product engine) that a serial run gives it, and
    its header `work` is the serial run's.  A pool never has
    more workers than there are jobs, since it may start them all up front.
    """
    jobs = [(n, config.characteristics, config.maxdeg, config.oracle_budget,
             config.with_oracle) for n in config.n_values]
    workers = min(config.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_grid_worker, jobs))
    else:
        groups = [_grid_worker(job) for job in jobs]
    return [cert for group in groups for cert in group]


# -- rendering ---------------------------------------------------------------


def render_csv(certs: List[dict]) -> str:
    lines = ["n,characteristic,table,degree,dimension"]
    for cert in certs:
        body = cert["body"]
        n = body["config"]["n"]
        ch = body["config"]["characteristic"]
        dims = body["dimensions"]
        for key, tag in (("HH_cohomology", "HH^"), ("HH_homology", "HH_"),
                         ("HC_cyclic", "HC_")):
            seq = dims.get(key)
            if seq is None:
                continue
            for i, d in enumerate(seq):
                lines.append(f"{n},{ch},{tag},{i},{d}")
    return "\n".join(lines) + "\n"


def render_markdown(certs: List[dict]) -> str:
    out = ["# Verification digest", ""]
    out.append("| n | char | dim | Cartan det | HH^* | presentation | oracle | pass |")
    out.append("|---|------|-----|------------|------|--------------|--------|------|")
    for cert in certs:
        body = cert["body"]
        cfg = body["config"]
        dims = body["dimensions"]["HH_cohomology"]
        oracle = body["oracle"]
        otxt = "skipped" if "skipped" in oracle else ("ok" if oracle.get("ok") else "FAIL")
        out.append(
            "| {n} | {c} | {d} | {det} | {hh} | {p} | {o} | {ok} |".format(
                n=cfg["n"], c=cfg["characteristic"],
                d=body["algebra"]["dimension"],
                det=body["algebra"]["cartan_det"],
                hh=" ".join(str(x) for x in dims[:7]) + " ...",
                p="ok" if body["presentation"]["ok"] else "FAIL",
                o=otxt, ok="PASS" if body["pass"] else "FAIL"))
    out.append("")
    return "\n".join(out)


# -- argument parsing ----------------------------------------------------------


def _parse_fields(chars: List[int]) -> Optional[List[FieldSpec]]:
    try:
        return [FieldSpec(c) for c in chars]
    except UnsupportedCharacteristicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _add_common(sub):
    sub.add_argument("--n", required=True, help="vertex count, e.g. 2 or 1..4")
    sub.add_argument("--char", default="0",
                     help="field characteristic(s): 0 or an odd prime, e.g. 0,3,5")


def main(argv: Optional[List[str]] = None) -> int:
    jobs_env = os.environ.get("PREPROJ_HH_JOBS", "1")
    try:
        default_jobs = int(jobs_env)
    except ValueError:
        print(f"error: PREPROJ_HH_JOBS must be an integer, got {jobs_env!r}",
              file=sys.stderr)
        return 2
    if default_jobs < 1:
        print(f"error: PREPROJ_HH_JOBS must be at least 1, got {default_jobs}",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="preproj-hh",
        description="exact Hochschild cohomology of type-L preprojective algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
            ("build", "build the algebra and print its summary"),
            ("dims", "print cohomology dimensions"),
            ("cartan", "print the Cartan matrix and determinant"),
            ("cmatrix", "print the multiplication-by-y matrix data"),
            ("products", "print the generator product table"),
            ("verify", "verify the ring presentation"),
            ("oracle", "compare bar-complex dimensions against the resolution"),
            ("run", "full pipeline over a grid, writing certificates"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "build":
            p.add_argument("--out", default=None,
                           help="write the serialized algebra table to this file")
        if name == "dims":
            p.add_argument("--upto", type=int, default=12)
        if name == "oracle":
            p.add_argument("--upto", type=int, default=3)
            p.add_argument("--budget", type=int, default=10000)
        if name == "run":
            p.add_argument("--maxdeg", type=int, default=13)
            p.add_argument("--budget", type=int, default=10000)
            p.add_argument("--no-oracle", action="store_true")
            p.add_argument("--format", choices=["json", "csv", "markdown"],
                           default="json")
            p.add_argument("--out", default="certificates")
            p.add_argument("--jobs", type=int, default=default_jobs)

    rep = sub.add_parser("report", help="re-render stored certificates")
    rep.add_argument("--in", dest="indir", required=True)
    rep.add_argument("--format", choices=["csv", "markdown"], default="markdown")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "report":
        certs = []
        try:
            for fname in sorted(os.listdir(args.indir)):
                if fname.endswith(".json"):
                    with open(os.path.join(args.indir, fname)) as fh:
                        certs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read certificates: {exc}", file=sys.stderr)
            return 2
        try:
            text = render_csv(certs) if args.format == "csv" else render_markdown(certs)
        except (KeyError, TypeError, AttributeError) as exc:
            print(f"error: {args.indir} holds a .json file that is not a "
                  f"certificate ({type(exc).__name__}: {exc})", file=sys.stderr)
            return 2
        print(text)
        return 0

    try:
        n_values = parse_int_list(args.n)
        chars = parse_int_list(args.char)
    except ValueError:
        print("error: could not parse --n / --char", file=sys.stderr)
        return 2
    if not n_values or any(n < 1 for n in n_values):
        print("error: --n must list positive integers", file=sys.stderr)
        return 2
    if not chars:
        print("error: --char must list at least one characteristic", file=sys.stderr)
        return 2
    fields = _parse_fields(chars)
    if fields is None:
        return 2
    # dims and oracle read HH^0..HH^upto off a complex built to MIN_MAXDEG
    upto = getattr(args, "upto", None)
    if upto is not None and not 0 <= upto < MIN_MAXDEG:
        print(f"error: --upto must lie in 0..{MIN_MAXDEG - 1}", file=sys.stderr)
        return 2
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        print(f"error: --budget must be non-negative, got {budget}", file=sys.stderr)
        return 2

    # an unusable --out is found before anything is computed
    if args.command == "build" and args.out is not None:
        if len(n_values) * len(chars) > 1:
            print("error: build --out takes a single (n, char) point; "
                  "every point of a grid would overwrite the same file",
                  file=sys.stderr)
            return 2
        # `abspath` drops a trailing separator, so the name is read off --out
        directory = os.path.dirname(os.path.abspath(args.out))
        if not os.path.basename(args.out) or os.path.isdir(args.out) \
                or not os.path.isdir(directory):
            print(f"error: --out {args.out!r} is not a file path in an existing "
                  f"directory", file=sys.stderr)
            return 2

    if args.command == "run":
        if args.maxdeg < MIN_MAXDEG:
            print(f"error: --maxdeg must be at least {MIN_MAXDEG}", file=sys.stderr)
            return 2
        if args.jobs < 1:
            print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            return 2
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create --out directory {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        config = RunConfig(n_values, chars, args.maxdeg, args.budget, args.jobs,
                           with_oracle=not args.no_oracle)
        certs = run_grid(config)
        failed = []
        for cert in certs:
            cfg = cert["body"]["config"]
            path = os.path.join(
                args.out, f"cert_n{cfg['n']}_char{cfg['characteristic']}.json")
            write_certificate(cert, path)
            if not cert["body"]["pass"]:
                failed.append((cfg["n"], cfg["characteristic"]))
        if args.format == "csv":
            print(render_csv(certs))
        elif args.format == "markdown":
            print(render_markdown(certs))
        else:
            for cert in certs:
                cfg = cert["body"]["config"]
                status = "PASS" if cert["body"]["pass"] else "FAIL"
                print(f"n={cfg['n']} char={cfg['characteristic']}: {status}")
        if failed:
            print(f"failures: {failed}", file=sys.stderr)
            return 1
        return 0

    # single-purpose subcommands iterate the grid without certificates
    status = 0
    for n in n_values:
        for field in fields:
            try:
                status = max(status, _run_single(args.command, n, field, args))
            except BudgetExceededError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
    return status


def _run_single(command: str, n: int, field: FieldSpec, args) -> int:
    table = build_algebra(n, field)
    if command == "build":
        cart, det = cartan_matrix(table)
        print(f"n={n} char={field.characteristic}: dimension {table.dim}, "
              f"Cartan det {det}, center dim {len(center_basis(table))}")
        if getattr(args, "out", None):
            with open(args.out, "w") as fh:
                json.dump(table.serialize(), fh, sort_keys=True, indent=1)
        return 0
    if command == "cartan":
        cart, det = cartan_matrix(table)
        print(f"n={n} char={field.characteristic}: {cart} det={det}")
        return 0 if det == 2 ** n else 1
    if command == "cmatrix":
        cm = c_matrix(table)
        print(f"n={n} char={field.characteristic}: {cm['entries']} rank={cm['rank']} "
              f"det={cm['det']} adjacency={cm['adjacency_identity']}")
        for failure in cm.get("failures", ()):
            print(f"  {failure}")
        return 1 if "failures" in cm else 0
    form = associated_form(table)
    cx = build_complex(table, form, MIN_MAXDEG)
    if command == "dims":
        dims = hh_dims(cx, args.upto)
        print(f"n={n} char={field.characteristic}: {dims}")
        ok = dims[0] == 2 * n and all(d == n for d in dims[1:])
        return 0 if ok else 1
    if command == "oracle":
        rep, _ = compare(table, hh_dims(cx, args.upto), args.upto, args.budget)
        print(f"n={n} char={field.characteristic}: bar={rep['bar_dims']} "
              f"resolution={rep['resolution_dims']} ok={rep['ok']}")
        return 0 if rep["ok"] else 1
    engine = YonedaEngine(cx)
    if command == "products":
        for (a, b), cls in sorted(engine.product_table().items()):
            print(f"{a}*{b} = {cls}")
        return 0
    if command == "verify":
        spec = theorem_spec(n, field)
        rep = verify(spec, engine)
        stable = stable_structure_check(engine)
        ok = rep["ok"] and stable["ok"]
        print(f"n={n} char={field.characteristic} regime={spec.regime}: "
              f"{'PASS' if ok else 'FAIL'}")
        for failure in rep["failures"]:
            print(f"  {failure}")
        for failure in stable.get("failures", ()):
            print(f"  stable: {failure}")
        return 0 if ok else 1
    raise AssertionError(command)


if __name__ == "__main__":
    sys.exit(main())
