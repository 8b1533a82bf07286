"""Command-line behavior: config handling, CSV contracts, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypobgk import DecayReport, NumericError, certify, cli, verify_grid
from hypobgk.cli import RESULT_HEADER, dump_config, load_config, main

BASE = {
    "run_id": "t",
    "domain": {"L": 2 * math.pi, "K": 2, "M": 6, "N": 1},
    "sigma": {"variant": "affine", "sigma0": 1.0, "c1": 0.1,
              "z_domain": [-1, 1]},
    "time_grid": {"start": 0.0, "stop": 2.0, "num": 3},
    "z_grid": {"points": [0.25]},
    "alpha_strategy": 0.1,
    "initial_data": {"type": "random", "seed": 3, "scale": 0.2},
    "verify": {"k_max": 2, "sigma_points": 3},
    "sweep": {"L_values": [math.pi, 2 * math.pi], "sigma0_values": [1.0]},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_aggregates_all_errors(tmp_path):
    path = write_config(tmp_path,
                        domain={"M": 3, "N": -1},
                        time_grid={"start": 5.0, "stop": 1.0, "num": 3})
    from hypobgk import ConfigError
    with pytest.raises(ConfigError) as err:
        load_config(path)
    text = str(err.value)
    assert "M=3" in text
    assert "N" in text
    assert "stop >= start" in text


def test_config_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    path2 = tmp_path / "again.json"
    path2.write_text(json.dumps(dump_config(cfg)))
    assert load_config(path2) == cfg


def test_certify_prints_twelve_significant_digits(tmp_path, capsys):
    assert main(["certify", "--config", str(write_config(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = dict(re.split(r"\s*=\s*", line) for line in lines)
    assert set(got) == {"alpha_max", "alpha", "lambda_min", "mu", "lambda",
                        "ctilde", "chat"}
    for name, text in got.items():
        value = float(text)
        assert text == f"{value:.12g}" or float(f"{value:.12g}") == value
    assert float(got["mu"]) <= float(got["lambda_min"]) / 2.0 + 1e-15
    table = (tmp_path / "out" / "certificate.csv").read_text()
    assert table.startswith("name,value")


@pytest.mark.parametrize("overrides", [
    {"domain": [1, 2]},
    {"tolerances": 3},
    {"sweep": {"L_values": ["x"]}},
    {"domain": {"N": True}},
    {"time_grid": {"num": float("inf")}},
], ids=["domain-list", "tolerances-number", "sweep-string", "N-bool",
        "num-infinite"])
def test_malformed_sections_exit_invalid(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "Traceback" not in err
    assert next(iter(overrides)) in err


@pytest.mark.parametrize("section, spec", [
    ("initial_data", {"type": "random", "seed": True}),
    ("initial_data", {"type": "random", "seed": 2.5}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"level": True, "k": 1, "m": 3, "re": 0.1}]}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1.5, "m": 3, "re": 0.1}]}),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1, "m": 2.5, "re": 0.1}]}),
    ("initial_data", {"type": "separable", "fourier": [{"k": True, "re": 0.4}],
                      "velocity_poly": [1.0]}),
    ("time_grid", {"start": 0.0, "stop": 2.0, "num": 2.5}),
    ("z_grid", {"num": True}),
], ids=["seed-bool", "seed-fraction", "level-bool", "k-fraction", "m-fraction",
        "fourier-k-bool", "time-num-fraction", "z-num-bool"])
def test_integer_fields_reject_bools_and_fractions(tmp_path, capsys, section,
                                                   spec):
    cfg = json.loads(json.dumps(BASE))
    cfg[section] = spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"{section}: " in err and "must be an integer" in err


@pytest.mark.parametrize("strategy", [
    "fixed:abc", "fraction:", True, False, "fixed:nan", "fixed:inf",
    "fraction:1.5", " fixed 0.1",
], ids=["fixed-abc", "fraction-empty", "true", "false", "fixed-nan",
        "fixed-inf", "fraction-above-one", "no-colon"])
def test_malformed_alpha_strategy_exits_invalid(tmp_path, capsys, strategy):
    path = write_config(tmp_path, alpha_strategy=strategy)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert "alpha_strategy: " in err and "Traceback" not in err


@pytest.mark.parametrize("strategy", [" optimize ", "fixed: 0.05", 0.05,
                                      "fraction:0.5 "])
def test_alpha_strategy_forms_accepted(tmp_path, strategy):
    path = write_config(tmp_path, alpha_strategy=strategy)
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_commands_do_not_import_scipy(tmp_path):
    # the package needs numpy only; scipy is a test dependency
    path = write_config(tmp_path)
    script = "\n".join([
        "import sys",
        "from hypobgk.cli import main",
        "for command in ('certify', 'verify', 'simulate'):",
        "    code = main([command, '--config', sys.argv[1],",
        "                 '--out', sys.argv[2]])",
        "    assert code == 0, (command, code)",
        "print('scipy' in sys.modules)",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(path),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("run_id", ["../x", "a/b", "a\\b", "a\0b", ".", ".."])
def test_run_id_cannot_leave_output_dir(tmp_path, capsys, run_id):
    path = write_config(tmp_path, run_id=run_id)
    out = tmp_path / "o" / "sub"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:") and "run_id" in err
    assert not (tmp_path / "o").exists()


def test_sigma_grid_resolution_is_ignored_with_warning(tmp_path, capsys):
    path = write_config(tmp_path, sigma_grid_resolution=500)
    cfg = load_config(path)
    assert capsys.readouterr().err.count("warning: sigma_grid_resolution") == 1
    assert cfg == load_config(write_config(tmp_path, "plain.json"))
    assert "sigma_grid_resolution" not in dump_config(cfg)


def test_verify_single_row(tmp_path, capsys):
    path = write_config(tmp_path, verify={"k_max": 1, "sigma_points": 1})
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "verify.csv").read_text().strip().splitlines()
    assert rows[0] == "k,sigma,min_eigenvalue,threshold,verdict"
    assert len(rows) == 2
    assert rows[1].startswith("1,") and rows[1].endswith(",pass")


def test_verify_inflated_mu_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["verify", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--inflate-mu", "10"])
    assert code == 1
    text = capsys.readouterr().out
    assert "k=" in text and "sigma=" in text


def test_verify_csv_rows_and_strong_inflation(tmp_path, capsys):
    # --inflate-mu 50 still exits 1; every row is the grid value at .17g
    path = write_config(tmp_path, domain={"M": 9},
                        verify={"k_max": 4, "sigma_points": 5})
    out = tmp_path / "out"
    code = main(["verify", "--config", str(path), "--out", str(out),
                 "--inflate-mu", "50"])
    assert code == 1
    assert "FAIL:" in capsys.readouterr().out
    cfg = load_config(path)
    cert = certify(cfg.lattice.L, cfg.model.sigma_min, cfg.model.sigma_max,
                   alpha_strategy=cfg.alpha_strategy)
    cert = dataclasses.replace(cert, mu=cert.mu * 50)
    sigmas = np.linspace(cert.sigma_min, cert.sigma_max, 5)
    mins, norms = verify_grid(cert, range(1, 5), sigmas, 9, return_norms=True)
    lines = ["k,sigma,min_eigenvalue,threshold,verdict"]
    for i in range(4):
        for j, s in enumerate(sigmas):
            thr = -1e-10 * norms[i, j]
            verdict = "pass" if mins[i, j] >= thr else "fail"
            lines.append(f"{i + 1},{format(float(s), '.17g')},"
                         f"{format(float(mins[i, j]), '.17g')},"
                         f"{format(float(thr), '.17g')},{verdict}")
    expected = "\r\n".join(lines) + "\r\n"
    assert (out / "verify.csv").read_bytes() == expected.encode()


def test_simulate_degenerate_run(tmp_path):
    path = write_config(tmp_path, time_grid={"times": [0.0]},
                        z_grid={"points": [0.0]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "t_z000.csv").read_text().strip().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == ",".join(RESULT_HEADER)
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert fields[0] == "t" and fields[3] == "0"
    assert float(fields[6]) == 1.0 and fields[7] == "pass"
    assert fields[4] == fields[5]  # envelope equals entropy at t = 0


def test_simulate_deterministic_bytes(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("t_z000.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_comment_only_for_random_data(tmp_path):
    path = write_config(tmp_path, initial_data={
        "type": "coefficients",
        "entries": [{"level": 0, "k": 1, "m": 3, "re": 0.5}]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    first = (out / "t_z000.csv").read_text().splitlines()[0]
    assert not first.startswith("# seed=")


def test_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--seed", "99"]) == 0
    assert (out / "t_z000.csv").read_text().startswith("# seed=99\n")


def test_sweep_single_point_matches_simulate(tmp_path):
    sim = write_config(tmp_path, "sim.json")
    swp = write_config(tmp_path, "swp.json",
                       sweep={"L_values": [BASE["domain"]["L"]],
                              "sigma0_values": [1.0]})
    out_sim, out_swp = tmp_path / "sim", tmp_path / "swp"
    assert main(["simulate", "--config", str(sim), "--out", str(out_sim)]) == 0
    assert main(["sweep", "--config", str(swp), "--out", str(out_swp)]) == 0
    assert (out_sim / "summary.csv").read_bytes() == \
        (out_swp / "summary.csv").read_bytes()


def test_sweep_rate_varies_with_period(tmp_path):
    path = write_config(tmp_path, sweep={
        "L_values": [math.pi, 2 * math.pi, 4 * math.pi],
        "sigma0_values": [1.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--threads", "2"]) == 0
    rows = [line.split(",") for line in
            (out / "summary.csv").read_text().strip().splitlines()[2:]]
    rates = {row[8] for row in rows}
    assert len(rates) == 3
    assert all(row[-1] == "pass" for row in rows)


def test_sweep_thread_count_does_not_change_output(tmp_path):
    # seven z samples span several build slices of the propagation core
    path = write_config(tmp_path, z_grid={"num": 7},
                        sweep={"sigma0_values": [1.0, 1.5]})
    outs = []
    for threads, name in ((1, "one"), (2, "two"), (4, "four")):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outs[0]) == 5
    assert outs[0] == outs[1] == outs[2]


def test_derivatives_writes_all_levels(tmp_path):
    path = write_config(tmp_path, domain={"N": 2},
                        initial_data={"type": "random", "seed": 3,
                                      "scale": 0.05})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 0
    body = (out / "t_z000.csv").read_text()
    levels = {line.split(",")[3] for line in body.strip().splitlines()[2:]}
    assert levels == {"0", "1", "2"}
    # small data satisfies the uniform hypothesis, so the second family too
    assert (out / "t_z000_uniform.csv").exists()


def test_derivatives_without_levels_rejected(tmp_path, capsys):
    path = write_config(tmp_path, domain={"N": 0})
    assert main(["derivatives", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "N >= 1" in capsys.readouterr().err


def test_exit_code_invalid_model(tmp_path, capsys):
    path = write_config(tmp_path, sigma={"variant": "affine", "sigma0": 1.0,
                                         "c1": 5.0, "z_domain": [-1, 1]})
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "affine" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_exit_code_numeric_failure(tmp_path, capsys, monkeypatch):
    import hypobgk.cli as cli

    def boom(cfg):
        raise NumericError("synthetic")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = write_config(tmp_path)
    assert cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_exit_code_internal_error(tmp_path, capsys, monkeypatch):
    import hypobgk.cli as cli

    def boom(cfg):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(cli, "cmd_certify", boom)
    path = write_config(tmp_path)
    assert cli.main(["certify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: synthetic\n"


def test_trig_high_frequency_rejected_for_derivatives(tmp_path, capsys):
    path = write_config(tmp_path, sigma={
        "variant": "trig", "sigma0": 2.0, "eps": 0.5, "omega": 2.0,
        "z_domain": [-3.0, 3.0]})
    assert main(["derivatives", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "omega" in capsys.readouterr().err


def test_taylor_hypothesis_rejected_before_propagation(tmp_path, capsys,
                                                      monkeypatch):
    import hypobgk.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("propagated before the E_0(0) check")

    monkeypatch.setattr(cli, "_propagate", never)
    path = write_config(tmp_path, sigma={
        "variant": "polynomial", "coeffs": [2.0, -0.4, 0.3],
        "z_domain": [-1.0, 1.0]},
                        z_grid={"num": 3},
                        initial_data={"type": "random", "seed": 3,
                                      "scale": 5.0})
    out = tmp_path / "out"
    assert main(["derivatives", "--config", str(path), "--out", str(out)]) == 2
    assert "E_0(0) <= 1" in capsys.readouterr().err
    assert not list(out.glob("t_z*.csv"))


@pytest.mark.parametrize("command", ["simulate", "derivatives", "sweep"])
def test_grid_starting_after_zero_keeps_envelope_at_t0(tmp_path, command):
    # the envelope starts from the initial stack at t = 0, so a grid that
    # starts later reads exactly the rows of the same times on a grid that
    # includes t = 0
    late = write_config(tmp_path, "late.json",
                        time_grid={"start": 1.0, "stop": 2.0, "num": 3})
    full = write_config(tmp_path, "full.json",
                        time_grid={"times": [0.0, 1.0, 1.5, 2.0]})
    out_late, out_full = tmp_path / "late", tmp_path / "full"
    assert main([command, "--config", str(late), "--out", str(out_late)]) == 0
    assert main([command, "--config", str(full), "--out", str(out_full)]) == 0
    name = "sweep_L000_s000.csv" if command == "sweep" else "t_z000.csv"
    rows = (out_late / name).read_text().splitlines()[2:]
    assert rows and all(float(r.split(",")[6]) <= 1.0 for r in rows)
    full_rows = (out_full / name).read_text().splitlines()[2:]
    assert rows == [r for r in full_rows if r.split(",")[2] != "0"]


@pytest.mark.parametrize("key, extra", [
    ("entries", {"type": "coefficients"}),
    ("fourier", {"type": "separable", "velocity_poly": [1.0]}),
])
@pytest.mark.parametrize("item", [5, "x", None], ids=["int", "str", "null"])
def test_non_object_items_exit_invalid(tmp_path, capsys, key, extra, item):
    path = write_config(tmp_path, initial_data={**extra, key: [item]})
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"initial_data: {key} must be a list of objects" in err


@pytest.mark.parametrize("section, spec, key", [
    ("sigma", {"variant": "constant", "sigma0": True}, "sigma0"),
    ("sigma", {"variant": "affine", "sigma0": 1.0, "c1": "0.1"}, "c1"),
    ("sigma", {"variant": "trig", "sigma0": 2.0, "eps": True}, "eps"),
    ("sigma", {"variant": "trig", "sigma0": 2.0, "omega": "1"}, "omega"),
    ("sigma", {"variant": "polynomial", "coeffs": [1.0, True]}, "coeffs"),
    ("sigma", {"variant": "constant", "z_domain": [True, 1]}, "z_domain"),
    ("sigma", {"variant": "constant", "z_domain": ["-1", 1]}, "z_domain"),
    ("time_grid", {"start": True, "stop": 2.0, "num": 3}, "start"),
    ("time_grid", {"start": 0.0, "stop": "2", "num": 3}, "stop"),
    ("time_grid", {"times": ["1.5"]}, "times"),
    ("z_grid", {"points": [True]}, "points"),
    ("initial_data", {"type": "random", "seed": 3, "scale": "0.2"}, "scale"),
    ("initial_data", {"type": "coefficients",
                      "entries": [{"k": 1, "m": 3, "re": True}]}, "re"),
    ("initial_data", {"type": "separable", "fourier": [{"k": 1, "im": "0"}],
                      "velocity_poly": [1.0]}, "im"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_numeric_fields_reject_bools_and_strings(tmp_path, capsys, section,
                                                 spec, key):
    cfg = json.loads(json.dumps(BASE))
    cfg[section] = spec
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["certify", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert f"{section}: {key} must be a" in err


@pytest.mark.parametrize("command, overrides, field", [
    ("sweep", {"sweep": {"sigma0_values": []}}, "sweep.sigma0_values"),
    ("simulate", {"tolerances": {"envelope": math.inf}}, "tolerances.envelope"),
    ("verify", {"tolerances": {"eig": math.inf}}, "tolerances.eig"),
], ids=["sigma0-empty", "envelope-infinite", "eig-infinite"])
def test_vacuous_checks_exit_invalid(tmp_path, capsys, command, overrides,
                                     field):
    # an empty sweep checks nothing and an infinite tolerance passes every
    # check; json writes and reads math.inf as Infinity
    path = write_config(tmp_path, **overrides)
    assert "Infinity" in path.read_text() or field.startswith("sweep")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert field in err
    assert not out.exists()


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e-310, math.inf, -math.inf, math.nan]))


@settings(max_examples=200, deadline=None)
@given(run_id=st.text(min_size=1, max_size=12), z=_CSV_FLOATS,
       rows=st.lists(st.tuples(_CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS,
                               _CSV_FLOATS), max_size=8),
       level=st.integers(0, 5))
def test_csv_lines_match_the_csv_module(run_id, z, rows, level):
    # the %-template lines equal per-value format(x, ".17g") through
    # csv.writer, byte for byte
    for text in (run_id, 'a,b "c"', "50%", "x\ny", " lead"):
        report = DecayReport(level=level,
                             times=np.array([r[0] for r in rows]),
                             observed=np.array([r[1] for r in rows]),
                             envelope=np.array([r[2] for r in rows]),
                             ratio=np.array([r[3] for r in rows]),
                             max_ratio=0.0, passed=True)
        times = [cli._FLOAT % t for t in report.times.tolist()]
        got = "".join(cli._result_lines(cli._template_field(text), z, times,
                                        report, 1e-8))
        buf = io.StringIO()
        writer = csv.writer(buf)
        for t, obs, env, ratio in rows:
            writer.writerow([text, format(z, ".17g"), format(t, ".17g"),
                             str(level), format(obs, ".17g"),
                             format(env, ".17g"), format(ratio, ".17g"),
                             "pass" if ratio <= 1.0 + 1e-8 else "fail"])
        assert got == buf.getvalue()
        summary = "".join(cli._summary_lines(cli._template_field(text),
                                             [(z,) + r * 2 + (z, "pass")
                                              for r in rows]))
        buf = io.StringIO()
        csv.writer(buf).writerows(
            [text] + [format(x, ".17g") for x in (z,) + r * 2 + (z,)]
            + ["pass"] for r in rows)
        assert summary == buf.getvalue()
