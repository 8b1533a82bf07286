"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(tmp_path, name):
    first = workloads.build(name, 7, tmp_path / "a")
    second = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert [c.expect for c in first.commands] == [c.expect for c in second.commands]
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)
    assert len(other.commands) == len(first.commands)


def test_traced_pass_writes_the_same_outputs(tmp_path):
    cv = workloads.build("certify_verify", 3, tmp_path / "cv")
    sw = workloads.build("sweep_ensemble", 3, tmp_path / "sw")
    wl = workloads.Workload("mixed", 3, cv.commands[:2] + sw.commands[:1], "test")
    runner = run.Runner(wl, tmp_path / "work")
    plain = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert plain.ok and traced.ok
    # the runner compares every command's digests with the first pass
    assert plain.failed == 0 and traced.failed == 0
    layers = traced.layers
    assert layers[tracer.ROOT]["calls"] == 3
    # certify, verify, and one certificate per point of the 2x2 sweep grid
    assert layers["lyapunov.certify"]["calls"] == 6
    assert layers["lyapunov.verify_grid"]["value"] == 50 * 33
    assert layers["propagation.step_matrix"]["calls"] > 0


def test_uninstall_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _, _ in tracer.targets()]
        t = tracer.Tracer()
        t.install()
        assert any(getattr(o, a) is not f for o, a, f in originals)
        t.uninstall()
        assert all(getattr(o, a) is f for o, a, f in originals)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, 0, 0, 0),
        (2, "a", 1.0, 4.0, 1, 0, 5),     # overlaps b: union of a and b is 1..6
        (3, "b", 2.0, 6.0, 1, 0, 0),
        (4, "c", 2.5, 3.0, 3, 0, 0),
    ]
    s = tracer.summarize(spans)
    assert s["root"]["self_s"] == pytest.approx(5.0)
    assert s["a"]["self_s"] == pytest.approx(3.0) and s["a"]["value"] == 5
    assert s["b"]["self_s"] == pytest.approx(3.5)
    assert s["c"]["calls"] == 1


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # small pools keep a quarter of their samples beyond the tail
    assert run.tail([float(i) for i in range(20)]) == (14.0, 75.0, 5)
    assert run.tail([float(i) for i in range(9)]) == (6.0, 700 / 9, 2)


def test_times_are_scaled_by_each_pass_reference_work():
    units = 10
    slow = run.Pass(traced=False, ok=True, setup_s=0.4, wall_s=4.0,
                    cal_s=2 * units * calib.REF_UNIT_S, cmd_s=[1.0, 3.0])
    fast = run.Pass(traced=False, ok=True, setup_s=0.2, wall_s=2.0,
                    cal_s=units * calib.REF_UNIT_S, cmd_s=[0.5, 1.5])
    for p in (slow, fast):
        p.rates = [0.5]
    metrics, _ = run.end_to_end([slow, fast], [0.2, 0.4, 0.6], 4, 0, units)
    # both passes are 2 s and 0.2 s at reference speed; the probes are
    # scaled by the median factor, 0.75
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["cmd_s_p50"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["lambda_gmean"] == pytest.approx(0.5)


def test_declared_metrics_are_valid_and_complete():
    bench = _declared()
    for group, code in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[group]}
        assert declared == dict(code)
        for name, unit in declared.items():
            assert NAME.match(name) and UNIT.match(unit), (name, unit)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    proc = _run(["--workload", "sweep_ensemble", "--seed", "1",
                 "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    group = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["propagation.step_hit_ratio"]["value"] >= 0.98


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(["--workload", "certify_verify", "--seed", "1", "--seconds", "1"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
