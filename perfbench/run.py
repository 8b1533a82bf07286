"""Benchmark of the hypobgk command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved
from this file).  The package is imported from ../src, so nothing needs
installing.  Each pass over the workload's commands runs in a fresh
interpreter (passrun.py) that calls hypobgk.cli.main(argv) in process,
one command after the other (a closed loop with one client).  BLAS and
OpenMP pools are pinned to one thread for every pass.  Passes repeat
until the next one would end after S seconds; there is always at least
one, and with --trace 1 at least one untraced and one traced pass,
alternating.

Every command's outputs are checked (checks.py) and hashed; a command
fails when its exit code is not 0, a check finds a problem, or its
output digests differ from the same command's digests in the first
pass.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced passes
(see README.md for both lists).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402  (script directory is on sys.path)
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_PROBES = 3        # import-only processes per run, after one warm-up
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10        # samples the tail percentile must have above it

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cmd_s_p50", "s"), ("cmd_s_tail", "s"),
    ("peak_rss_mb", "MiB"), ("ok_frac", "ratio"), ("lambda_gmean", "1/t"),
]

# (metric, unit, span name, field of tracer.summarize)
SPAN_METRICS = [
    ("lyapunov.certify.calls", "count", "lyapunov.certify", "calls"),
    ("lyapunov.certify.s", "s", "lyapunov.certify", "self_s"),
    ("lyapunov.rate_block.calls", "count", "lyapunov.rate_block", "calls"),
    ("lyapunov.rate_block.s", "s", "lyapunov.rate_block", "self_s"),
    ("lyapunov.alpha_limit.calls", "count", "lyapunov.alpha_limit", "calls"),
    ("lyapunov.alpha_limit.s", "s", "lyapunov.alpha_limit", "self_s"),
    ("lyapunov.verify_grid.calls", "count", "lyapunov.verify_grid", "calls"),
    ("lyapunov.verify_grid.s", "s", "lyapunov.verify_grid", "self_s"),
    ("lyapunov.verify_grid.points", "count", "lyapunov.verify_grid", "value"),
    ("spectral.build_operators.calls", "count", "spectral.build_operators", "calls"),
    ("spectral.build_operators.s", "s", "spectral.build_operators", "self_s"),
    ("models.model_init.calls", "count", "models.model_init", "calls"),
    ("models.model_init.s", "s", "models.model_init", "self_s"),
    ("models.project_initial.calls", "count", "models.project_initial", "calls"),
    ("models.project_initial.s", "s", "models.project_initial", "self_s"),
    ("state.stack_init.calls", "count", "state.stack_init", "calls"),
    ("state.stack_init.s", "s", "state.stack_init", "self_s"),
    ("propagation.evolve.calls", "count", "propagation.evolve", "calls"),
    ("propagation.evolve.s", "s", "propagation.evolve", "self_s"),
    ("propagation.step_matrix.calls", "count", "propagation.step_matrix", "calls"),
    ("propagation.step_matrix.s", "s", "propagation.step_matrix", "self_s"),
    ("propagation.step_builds", "count", "propagation.augmented_generator", "calls"),
    ("propagation.expm_dim3", "count", "propagation.augmented_generator", "value"),
    ("propagation.apply_bytes", "B", "propagation.evolve", "value"),
    ("analysis.entropy_series.calls", "count", "analysis.entropy_series", "calls"),
    ("analysis.entropy_series.s", "s", "analysis.entropy_series", "self_s"),
    ("analysis.check_envelope.calls", "count", "analysis.check_envelope", "calls"),
    ("analysis.check_envelope.s", "s", "analysis.check_envelope", "self_s"),
    ("analysis.envelope.s", "s", "analysis.envelope", "self_s"),
    ("cli.load_config.s", "s", "cli.load_config", "self_s"),
    ("cli.write_csv.calls", "count", "cli.write_csv", "calls"),
    ("cli.write_csv.s", "s", "cli.write_csv", "self_s"),
    ("cli.self_s", "s", tracer.ROOT, "self_s"),
]
PER_LAYER = [(m, u) for m, u, _, _ in SPAN_METRICS] + [
    ("propagation.step_hit_ratio", "ratio"), ("cli.csv_bytes", "B"),
    ("trace_overhead_frac", "ratio"),
]


@dataclass
class Pass:
    traced: bool
    ok: bool = False            # the pass process ran to the end
                                # (a run stops at the first pass that did not)
    setup_s: float = 0.0
    wall_s: float = 0.0
    cal_s: float = 0.0          # seconds of reference work (calib.py)
    peak_rss_mb: float = 0.0
    cmd_s: list[float] = field(default_factory=list)
    failed: int = 0
    csv_bytes: int = 0
    rates: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: workloads.Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, **PINNED_THREADS)
        # bytecode is cached in the checkout, as it is for an installed package
        for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            self.env.pop(var, None)
        self.reference: dict[int, dict[str, str]] = {}
        self.count = 0

    def _spawn(self, commands: list[list[str]], spans: Path | None,
               pdir: Path) -> dict | None:
        spec = pdir / "spec.json"
        spec.write_text(json.dumps({"src": str(SRC), "commands": commands,
                                    "spans": str(spans) if spans else None,
                                    "cal_units": self.workload.cal_units}))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "passrun.py"), str(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"pass process exited {proc.returncode}:\n{proc.stderr[-4000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def probe(self) -> dict | None:
        """Import-only process: one setup sample and the library facts."""
        pdir = self._new_dir("probe")
        out = self._spawn([], None, pdir)
        shutil.rmtree(pdir)
        return out

    def _new_dir(self, kind: str) -> Path:
        self.count += 1
        pdir = self.work / f"{kind}{self.count:03d}"
        pdir.mkdir(parents=True)
        return pdir

    def run_pass(self, traced: bool) -> Pass:
        pdir = self._new_dir("pass")
        commands = self.workload.commands
        outs = [pdir / f"c{i:02d}" for i in range(len(commands))]
        spans = pdir / "spans.json" if traced else None
        out = self._spawn([c.argv(o) for c, o in zip(commands, outs)], spans, pdir)
        p = Pass(traced=traced)
        if out is not None:
            p.ok = True
            p.setup_s, p.wall_s, p.cal_s = out["setup_s"], out["wall_s"], out["cal_s"]
            p.peak_rss_mb, p.cmd_s = out["peak_rss_mb"], out["cmd_s"]
            for i, (cmd, code, o) in enumerate(zip(commands, out["codes"], outs)):
                problems = self._check(i, cmd, code, o, p)
                if problems:
                    p.failed += 1
                    print(f"command {i} ({' '.join(cmd.argv(o))}): "
                          + "; ".join(problems[:3]), file=sys.stderr)
            if traced:
                p.layers = tracer.summarize(json.loads(spans.read_text()))
        shutil.rmtree(pdir)
        return p

    def _check(self, i: int, cmd: workloads.Command, code: int, out_dir: Path,
               p: Pass) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems, rates = checks.check(cmd.kind, cmd.expect, out_dir)
        digests = checks.digests(out_dir)
        p.rates.extend(rates)
        p.csv_bytes += sum(f.stat().st_size for f in out_dir.rglob("*.csv"))
        if self.reference.setdefault(i, digests) != digests:
            problems.append("output bytes differ from the first pass")
        return problems


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value,
    percentile, samples beyond).  Below 2 * TAIL_BEYOND + 1 samples that
    percentile would lie under the median; there a quarter of the samples
    (rounded down) lie beyond it instead, since the maximum of a few
    samples is the one most moved by a single slow pass."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else n // 4
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(passes: list[Pass], probe_setup: list[float], attempted: int,
               failed: int, units: int) -> tuple[dict[str, float], list[str]]:
    """Times are in reference seconds (calib.py): each pass's times are
    multiplied by REF_UNIT_S over its own seconds per unit of reference
    work (`units` units per pass), the import-only probes' by the median
    of those factors."""
    plain = [p for p in passes if not p.traced]
    scales = [calib.REF_UNIT_S * units / p.cal_s for p in plain]
    run_scale = statistics.median(scales)
    setup = ([s * run_scale for s in probe_setup]
             + [p.setup_s * k for p, k in zip(plain, scales)])
    pool = [s * k for p, k in zip(plain, scales) for s in p.cmd_s]
    value, pct, beyond = tail(pool)
    rates = plain[0].rates
    # no certificate passed its checks: failed > 0 already rejects the run
    lambda_gmean = math.exp(statistics.fmean(map(math.log, rates))) if rates else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s * k for p, k in zip(plain, scales)),
        "cmd_s_p50": statistics.median(pool),
        "cmd_s_tail": value,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        "ok_frac": 1.0 - failed / attempted,
        "lambda_gmean": lambda_gmean,
    }
    measured = [s for p in plain for s in p.cmd_s]
    notes = [f"times in reference seconds: measured x {calib.REF_UNIT_S}/(seconds per unit "
             f"of reference work, {units} units per pass); factors "
             + ", ".join(f"{k:.3f}" for k in scales),
             f"setup_s: median of {len(setup)} fresh-process imports; "
             f"measured median {statistics.median(probe_setup + [p.setup_s for p in plain]):.4f} s",
             "wall_s: median over passes; measured "
             + ", ".join(f"{p.wall_s:.3f}" for p in plain),
             f"cmd_s_p50, cmd_s_tail: pool of {len(pool)} commands; tail is "
             f"p{pct:.1f} with {beyond} samples beyond it; measured "
             f"{statistics.median(measured):.4f} s and {tail(measured)[0]:.4f} s",
             f"lambda_gmean: over {len(rates)} certificates per pass"]
    return metrics, notes


def per_layer(passes: list[Pass]) -> tuple[dict[str, float], list[str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    empty = {"calls": 0, "value": 0, "self_s": 0.0}
    metrics = {m: statistics.median(p.layers.get(span, empty)[fld] for p in traced)
               for m, _, span, fld in SPAN_METRICS}
    lookups = metrics["propagation.step_matrix.calls"]
    builds = metrics["propagation.step_builds"]
    metrics["propagation.step_hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0
    metrics["cli.csv_bytes"] = statistics.median(p.csv_bytes for p in traced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = [f"per-layer: median of {len(traced)} traced passes; times are "
             f"self times summed over threads",
             f"propagation.step_hit_ratio: base {lookups:g} step_matrix lookups, "
             f"{builds:g} builds",
             "propagation.expm_dim3, propagation.apply_bytes: computed from "
             "array sizes",
             f"trace_overhead_frac: traced wall {traced_wall:.4f} s over "
             f"untraced wall {plain_wall:.4f} s ({len(plain)} passes)"]
    return metrics, notes


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypobgk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run(args: argparse.Namespace, work: Path) -> dict:
    wl = workloads.build(args.workload, args.seed, work / "configs")
    runner = Runner(wl, work)
    probes = [runner.probe() for _ in range(1 + SETUP_PROBES)]
    if None in probes:
        raise RuntimeError("importing hypobgk.cli failed")
    start = time.perf_counter()
    deadline = start + args.seconds
    passes: list[Pass] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(runner.run_pass(traced))
        longest = max(longest, time.perf_counter() - t0)
        if not passes[-1].ok:
            break
        minimum = 2 if args.trace else 1
        if len(passes) >= minimum and time.perf_counter() + longest > deadline:
            break
    if not passes[-1].ok:
        raise RuntimeError("a pass process did not complete")
    attempted = len(passes) * len(wl.commands)
    failed = sum(p.failed for p in passes)

    record = {"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
              "trace": args.trace, "input_size": wl.input_size,
              "commands_per_pass": len(wl.commands), "passes": len(passes),
              "measured_s": round(time.perf_counter() - start, 3),
              "nproc": len(os.sched_getaffinity(0)),
              "pinned_threads": PINNED_THREADS, **probes[0]["facts"],
              "git_commit": git_commit(ROOT), "source_sha256": source_digest()}
    print("run record: " + json.dumps(record, sort_keys=True))
    if args.trace:
        metrics, notes = per_layer(passes)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(passes, [p["setup_s"] for p in probes[1:]],
                                    attempted, failed,
                                    wl.cal_units * (len(wl.commands) + 1))
        units = dict(END_TO_END)
    for note in notes:
        print("note: " + note)
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypobgk" / "cli.py").is_file():
        print(f"no hypobgk sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        result = run(args, work)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
