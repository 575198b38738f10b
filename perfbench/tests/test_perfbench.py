"""Tests of the certificate benchmark: its declaration, output and guards.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import probes  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_grid(rng):
    """n <= 2 against characteristic 0 and one seed-drawn odd prime."""
    chars = [0, rng.choice(run.ODD_PRIMES)]
    return [(n, c, True) for n in (1, 2) for c in chars]


SMOKE = {"smoke": run.Workload("smoke", _tiny_grid, ())}


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(capsys, trace, digests=None, seed=7):
    argv = ["--workload", "smoke", "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    code = run.main(argv, workloads=SMOKE, digests=digests)
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_declares_what_run_reports():
    spec = _bench_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")


def test_every_drawable_point_has_a_committed_digest():
    digests = run.load_digests()
    for workload in run.WORKLOADS.values():
        for p in workload.drawable:
            assert re.fullmatch(r"[0-9a-f]{64}", digests[run.digest_key(p)])
        for seed in range(50):
            assert set(workload.draw(random.Random(seed))) <= set(workload.drawable)


def test_smoke_run_end_to_end(capsys):
    code, out, result = _run(capsys, trace=0)
    assert code == 0
    _check_result(result, run.END_TO_END)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4
    assert any(line.startswith("env git_rev=") and "numpy=" in line for line in out)
    for name, unit in run.END_TO_END.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in out)


def test_smoke_run_traced(capsys):
    code, _, result = _run(capsys, trace=1)
    assert code == 0
    _check_result(result, run.PER_LAYER)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for kernel in ("echelonize", "prepared_init", "prepared_solve", "matvec",
                   "sparse_rank", "rank_mod_p"):
        assert metrics[f"exactla.{kernel}.calls"] > 0
    assert 0 < metrics["yoneda.identify.distinct_ratio"] <= 1
    assert metrics["trace.overhead_ratio"] > 0


def test_altered_digest_makes_points_fail(capsys):
    digests = run.load_digests()
    point = _tiny_grid(random.Random(7))[-1]
    key = run.digest_key(point)
    digests[key] = "0" * 64
    code, out, result = _run(capsys, trace=0, digests=digests)
    assert code == 0
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith(f"FAILED {key}") for line in out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "grid_small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_rebinds_by_name_imports_and_flags_unreached():
    lib = types.ModuleType("perfbench_fake_lib")
    exec("def used(x):\n    return x + 1\n\ndef unused():\n    return 0\n",
         lib.__dict__)
    user = types.ModuleType("preproj_hh.perfbench_fake_user")
    user.used = lib.used          # a `from lib import used` binding
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    try:
        tracer = probes.Tracer((
            probes.Probe("perfbench_fake_lib:used", probes.CALL, "fake.used"),
            probes.Probe("perfbench_fake_lib:unused", probes.CALL, "fake.unused"),
            probes.Probe("perfbench_fake_lib:gone", probes.CALL, "fake.gone"),
        ))
        tracer.install()
        assert user.used(1) == 2
        assert tracer.target_calls["perfbench_fake_lib:used"] == 1
        assert tracer.unreached(set()) == ["perfbench_fake_lib:unused"]
        assert tracer.absent == ["perfbench_fake_lib:gone"]
    finally:
        del sys.modules[lib.__name__]
        del sys.modules[user.__name__]


def test_stage_span_must_match_the_certificate_header():
    assert worker.stage_mismatches({"algebra": 1.0}, {"algebra.s": 0.999}) == []
    assert len(worker.stage_mismatches({"algebra": 1.0}, {"algebra.s": 0.5})) == 1
    assert len(worker.stage_mismatches({"algebra": 1.0}, {"algebra.s": 1.5})) == 1
    # a header stage the spans never saw is a wrapper missed at a binding site
    assert len(worker.stage_mismatches({"oracle": 0.2}, {})) == 1
