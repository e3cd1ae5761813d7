import argparse
import collections
import dataclasses
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tqrabi
from tqrabi import (ModelParams, NotConverged, Parity, SpectrumRecord, SpectrumResult,
                    gfunction, oracle)
from tqrabi.cli import _record_row, _unmatched, main


ASYM_CFG = """\
omega = 1.0
delta1 = 0.6
delta2 = 0.2
g1 = 0.24
g2 = 0.06
"""

FLAT_CFG = """\
omega = 1.0
delta1 = 0.6
delta2 = 0.4
g1 = 0.5
g2 = 0.5
"""


DARK_HALF_CFG = """\
omega = 0.5
delta1 = 0.25
delta2 = 0.25
g1 = 0.3
g2 = 0.3
"""


@pytest.fixture()
def dark_half_cfg(tmp_path):
    path = tmp_path / "dark.cfg"
    path.write_text(DARK_HALF_CFG)
    return str(path)


@pytest.fixture()
def asym_cfg(tmp_path):
    path = tmp_path / "asym.cfg"
    path.write_text(ASYM_CFG)
    return str(path)


@pytest.fixture()
def flat_cfg(tmp_path):
    path = tmp_path / "flat.cfg"
    path.write_text(FLAT_CFG)
    return str(path)


def flat_cfg_at(g):
    """FLAT_CFG with g1 = g2 = g, a string."""
    return FLAT_CFG.replace("g1 = 0.5", f"g1 = {g}").replace("g2 = 0.5", f"g2 = {g}")


def rows(path, column=None):
    body = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    out = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    if column is None:
        return out
    return [r[column] for r in out]


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "none.cfg"),
                 "--emax", "1.0"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_undecodable_config_exits_two(tmp_path, capsys):
    # A UTF-16 file, byte order mark first, is no UTF-8 text.
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe" + ASYM_CFG.encode("utf-16-le"))
    assert main(["spectrum", "--config", str(cfg), "--emax", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {cfg}: not UTF-8 text") and err.count("\n") == 1


BIG_G_CFG = ASYM_CFG.replace("g1 = 0.24", "g1 = 1e300").replace("g2 = 0.06", "g2 = 1e300")
BIG_SWEEP = ["sweep", "--gmin", "1e300", "--gmax", "1e300", "--points", "1", "--solver"]


@pytest.mark.parametrize("cfg, argv", [
    # e_max/omega = 100, inside the photon cap.
    (ASYM_CFG.replace("omega = 1.0", "omega = 1e-300"),
     ["spectrum", "--emin", "0", "--emax", "1e-298"]),
    (BIG_G_CFG, ["spectrum", "--emax", "1"]),
    (BIG_G_CFG, ["trace", "--emin", "-1", "--emax", "1"]),
    (FLAT_CFG.replace("delta1 = 0.6", "delta1 = 1e300"),
     ["exceptional", "--scan", "jz=0:1:3"]),
    (FLAT_CFG, BIG_SWEEP + ["oracle"]),
    (FLAT_CFG, BIG_SWEEP + ["gfunction"]),
], ids=["spectrum-omega", "spectrum-g", "trace-g", "exceptional-delta1",
        "sweep-oracle-g", "sweep-gfunction-g"])
def test_overflowing_parameter_exits_one(tmp_path, capsys, cfg, argv):
    # Finite parameters whose float powers overflow: a solver failure, one line.
    path = tmp_path / "big.cfg"
    path.write_text(cfg)
    assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--solver", "gfunction", "--no-verify", "--emax", "1"],
    ["trace", "--emin", "-1", "--emax", "1"],
], ids=lambda argv: argv[0])
def test_series_past_the_double_range_exits_one(tmp_path, capsys, argv):
    # At g = 30 omega the series coefficients overflow before they converge:
    # G has no value there, a solver failure in one line, not a numpy
    # warning and an empty CSV.
    path = tmp_path / "g30.cfg"
    path.write_text(flat_cfg_at(15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: NoConvergence: series around 30 leave the double "
                          "range (omega = 1: g = 30, E <= ") and err.count("\n") == 1


@pytest.mark.parametrize("cfg, argv, limit", [
    (ASYM_CFG.replace("omega = 1.0", "omega = 1e-300"), ["spectrum", "--emax", "1"],
     "1200-photon cap"),
    (FLAT_CFG, ["spectrum", "--solver", "oracle", "--emax", "3000"], "1200-photon cap"),
    (FLAT_CFG, ["trace", "--emin", "-1", "--emax", "1", "--step", "{step}"], "step"),
    (FLAT_CFG, ["spectrum", "--solver", "gfunction", "--no-verify", "--emin", "-1",
                "--emax", "1", "--step", "{step}"], "step"),
    (FLAT_CFG, ["exceptional", "--scan", "delta1=0.2:1.1:{scan}"], "--scan"),
    (FLAT_CFG, ["exceptional", "--scan", "jz=0:1:1025", "--scan", "delta1=0:1:1024"],
     "--scan"),
    (FLAT_CFG, ["exceptional", "--scan", "delta1=0:1:3", "--ncut", "{ncut}"], "--ncut"),
    (FLAT_CFG, ["sweep", "--gmin", "0.5", "--gmax", "1", "--points", "{points}"],
     "--points"),
    (ASYM_CFG + "jx = -1e5\n", ["trace", "--emin", "-1", "--emax", "1", "--step", "0.5"],
     "1200-photon cap below zero"),
    (ASYM_CFG + "jx = -1e5\n", ["spectrum", "--solver", "gfunction", "--no-verify",
                                "--emax", "1", "--step", "0.5"], "1200-photon cap below zero"),
    (FLAT_CFG + "jx = 1e5\n", ["verify", "--emax", "1"], "1200-photon cap below zero"),
], ids=["spectrum-omega", "spectrum-oracle", "trace-grid", "spectrum-grid", "scan-line",
        "scan-product", "ncut", "sweep-points", "trace-jx", "spectrum-jx", "verify-jx"])
def test_input_past_its_limit_exits_two(tmp_path, capsys, cfg, argv, limit):
    # A window past the oracle's photon cap, a grid, a scan or a sweep past
    # its point limit, an --ncut past the cap and a lowest baseline more than
    # the cap below zero: one line naming the limit, before any work. The
    # first two exited 1 (OverflowError, NotConverged). Of the last three,
    # the two G commands walked about 1e5 divisors per center and exited 0
    # with an overflow warning, and verify exited 1 (NotConverged).
    past = {"step": repr(2 / gfunction.MAX_GRID_POINTS),  # one point past
            "scan": tqrabi.cli.MAX_SCAN_POINTS + 1, "points": tqrabi.cli.MAX_SWEEP_POINTS + 1,
            "ncut": tqrabi.model.DEFAULT_TRUNCATION_CAP + 1}
    path = tmp_path / "m.cfg"
    path.write_text(cfg)
    argv = [a.format(**past) for a in argv]
    assert main(argv + ["--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err and err.count("\n") == 1


def test_invalid_couplings_surfaced(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("omega = 1\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0\ng2 = 0.3\n")
    code = main(["spectrum", "--config", str(cfg), "--emax", "1.0",
                 "--solver", "gfunction"])
    assert code == 1
    assert "RequiresValidCouplings" in capsys.readouterr().err


def test_spectrum_both_solvers_agree(tmp_path, asym_cfg):
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--config", asym_cfg, "--emin", "-1",
                 "--emax", "1.0", "--truncation", "160", "--out", str(out)])
    assert code == 0
    data = rows(out)
    by_method = {}
    for r in data:
        by_method.setdefault((r["method"], r["parity"]), []).append(float(r["E"]))
    for parity in ("1", "-1"):
        gf = sorted(by_method[("gfunction", parity)])
        ed = sorted(by_method[("oracle", parity)])
        assert len(gf) == len(ed)
        assert np.max(np.abs(np.array(gf) - np.array(ed))) < 1e-6


@pytest.mark.parametrize("couplings, parent_calls", [
    ((0.6, 0.2, 0.24, 0.06), 46),
    ((0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0), 43),
    ((0.7, 0.3, 0.4, 0.4), 52),
])
def test_spectrum_both_shares_search_and_window(tmp_path, monkeypatch, couplings,
                                                parent_calls):
    # Both parities are found by one search, whose passes each make one G
    # call, and one oracle window both verifies the roots and gives the
    # oracle rows. The G-call counts per command were 46, 43 and 52 when
    # each parity ran its own search and window. The window solves each
    # parity once, at one truncation.
    cfg = tmp_path / "m.cfg"
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in
                           zip(("omega", "delta1", "delta2", "g1", "g2"), (1.0, *couplings))))
    calls = {"find_roots": 0, "gvalues": 0, "window": 0, "eig_banded": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gfunction, "find_roots", counted("find_roots", gfunction.find_roots))
    monkeypatch.setattr(gfunction, "_gvalues", counted("gvalues", gfunction._gvalues))
    monkeypatch.setattr(oracle, "window", counted("window", oracle.window))
    monkeypatch.setattr(oracle, "_eig_banded",
                        counted("eig_banded", oracle._eig_banded))
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg), "--emin", "-1", "--emax", "2.5",
                 "--solver", "both", "--out", str(out)]) == 0
    assert calls["find_roots"] == 1
    assert calls["gvalues"] <= 0.6 * parent_calls
    assert calls["window"] == 1
    assert calls["eig_banded"] <= 4
    data = rows(out)
    for method in ("gfunction", "oracle"):
        assert {r["parity"] for r in data if r["method"] == method} == {"1", "-1"}
    assert all(float(r["residual"]) < 1e-6 for r in data if r["method"] == "gfunction")


def test_root_row_precedes_its_oracle_row(tmp_path, asym_cfg, monkeypatch):
    # A verified root 1 ulp above its level and one 1 ulp below it sort
    # alike, under the level and before its oracle row: the two CSVs differ
    # only in the roots' own last digits.
    texts = []
    for side in (np.inf, -np.inf):
        def shifted(params, parities, e_min, e_max, step, levels, side=side):
            return SpectrumResult.from_records(
                SpectrumRecord(float(np.nextafter(r.energy, side)), r.parity,
                               "gfunction", 0.0, True)
                for r in levels if e_min <= r.energy <= e_max)
        monkeypatch.setattr(gfunction, "find_roots", shifted)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", asym_cfg, "--emin", "-1", "--emax", "2.5",
                     "--solver", "both", "--out", str(out)]) == 0
        texts.append([ln.split(",", 1)[1] if ",gfunction," in ln else ln
                      for ln in out.read_text().splitlines()])
    assert texts[0] == texts[1]
    methods = [ln.split(",")[-2] for ln in texts[0] if not ln.startswith(("#", "E,"))]
    assert len(methods) == 24 and methods == ["gfunction", "oracle"] * 12


def test_unverified_spectrum_finds_a_pair_straddling_a_baseline(tmp_path):
    # The narrow-gap template at g = 0.1: its even levels 2.9957114 and
    # 2.9975680 straddle a baseline inside one scan cell. Without levels
    # each gets a sign change of its own from the points beside the
    # baseline, so the unverified spectrum holds both, one row each.
    p = tqrabi.ModelParams(1.0, 0.15, 0.86, 0.1155, 0.0375).with_g(0.1)
    cfg = tmp_path / "gap.cfg"
    cfg.write_text(f"omega = 1.0\ndelta1 = 0.15\ndelta2 = 0.86\ng1 = {p.g1!r}\n"
                   f"g2 = {p.g2!r}\n")
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg), "--emin", "-1", "--emax", "3",
                 "--solver", "gfunction", "--no-verify", "--out", str(out)]) == 0
    even = [float(r["E"]) for r in rows(out) if r["parity"] == "1"]
    levels = oracle.window(p, 300, 3.0, (tqrabi.Parity.PLUS,)).energies()
    assert even == pytest.approx([e for e in levels if -1.0 <= e <= 3.0], abs=1e-6)
    assert sum(abs(e - 2.9966) < 1e-3 for e in even) == 2


@pytest.mark.parametrize("command, name", [
    (["verify", "--emax", "1.0", "--truncation", "160"], "find_roots"),
    (["trace", "--emin", "-1", "--emax", "1.0"], "trace"),
])
def test_cli_solves_through_the_public_entry_point(asym_cfg, monkeypatch, capsys,
                                                   command, name):
    # Every command solves both parities through one call of the library's
    # own entry point, so what it runs is what the library documents.
    calls = []
    fn = getattr(gfunction, name)
    monkeypatch.setattr(gfunction, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    assert main([command[0], "--config", asym_cfg, *command[1:]]) == 0
    assert len(calls) == 1


def test_small_truncation_counts_every_level(tmp_path, capsys):
    # At truncation 100 every level counted up to the cut lies at or below
    # E = 1.0 for g1 = g2 = 3; the oracle counts again at the certified
    # truncation, so the rows and the coverage line are those of 300.
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(FLAT_CFG.replace("0.5", "3"))
    oracle_rows = {}
    for t in ("100", "300"):
        out = tmp_path / f"oracle{t}.csv"
        assert main(["spectrum", "--config", str(cfg), "--emax", "2.5",
                     "--solver", "oracle", "--truncation", t, "--out", str(out)]) == 0
        oracle_rows[t] = [(float(r["E"]), r["parity"]) for r in rows(out)]
    assert len(oracle_rows["100"]) == len(oracle_rows["300"]) == 12
    for (a, pa), (b, pb) in zip(oracle_rows["100"], oracle_rows["300"]):
        assert pa == pb and abs(a - b) < 1e-8
    assert main(["verify", "--config", str(cfg), "--truncation", "100"]) == 0
    out = capsys.readouterr().out
    assert "PASS coverage[plus]: 6 oracle levels, 0 unmatched" in out
    assert "PASS coverage[minus]: 6 oracle levels, 0 unmatched" in out


def test_default_truncation_sized_from_the_model(tmp_path, flat_cfg, monkeypatch):
    # Without --truncation the oracle starts from the model, below the fixed
    # 300 of spectrum and the 160 of sweep that it replaces, and the flags
    # line says so. sweep sizes the start per point and hands diagonalize an
    # int, as perfbench/tracing.py reads it. An oracle sweep runs its points
    # in this process, so the stand-ins see every call.
    starts = []
    certified, diagonalize = oracle.certified_spectrum, oracle.diagonalize
    monkeypatch.setattr(oracle, "certified_spectrum",
                        lambda p, t, *a: starts.append(t) or certified(p, t, *a))
    monkeypatch.setattr(oracle, "diagonalize",
                        lambda p, t, k, *a: diagonalize(p, t, k, *a) if type(t) is int
                        else pytest.fail(f"truncation {t!r}"))
    for command, fixed in ((["spectrum", "--emax", "2.5", "--solver", "oracle"], 300),
                           (["sweep", "--gmin", "0.5", "--gmax", "2.5", "--points", "3"], 160)):
        starts.clear()
        out = tmp_path / f"{command[0]}.csv"
        assert main([command[0], "--config", flat_cfg, *command[1:], "--out", str(out)]) == 0
        assert starts and max(starts) < fixed
        flags, = (ln for ln in out.read_text().splitlines() if ln.startswith("# flags:"))
        assert "truncation=auto" in flags.split()
        assert rows(out)


def test_cli_import_leaves_out_scipy_linalg(tmp_path, asym_cfg):
    # Neither importing the CLI nor the oracle commands load scipy.linalg:
    # the oracle calls scipy's LAPACK module without importing its package,
    # or the scipy package above it.
    # An oracle sweep, like a G sweep, shares its points with raw forked
    # workers: neither loads pool machinery.
    env = dict(os.environ, PYTHONPATH=str(Path(tqrabi.__file__).parents[1]))
    code = "import sys, tqrabi.cli; sys.exit('scipy.linalg' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    out = str(tmp_path / "out.csv")
    commands = [
        ["spectrum", "--config", asym_cfg, "--emax", "2.5", "--solver", "both", "--out", out],
        ["sweep", "--config", asym_cfg, "--gmin", "0.5", "--gmax", "1.5", "--points", "3",
         "--solver", "oracle", "--out", out],
        ["sweep", "--config", asym_cfg, "--gmin", "0.5", "--gmax", "1.5", "--points", "3",
         "--solver", "both", "--out", out],
        ["verify", "--config", asym_cfg],
    ]
    code = ("import sys; from tqrabi.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {commands!r})\n"
            "sys.exit(any(m in sys.modules for m in ('scipy', 'scipy.linalg', 'numpy.f2py',\n"
            "    'concurrent.futures.process', 'multiprocessing')))")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True).returncode == 0


def test_trace_deterministic_bytes(tmp_path, asym_cfg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["trace", "--config", asym_cfg, "--emin", "-0.5",
                     "--emax", "0.5", "--step", "0.02", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = [ln for ln in a.read_text().splitlines() if ln.startswith("#")]
    assert any("baselines:" in ln for ln in header)


def test_trace_both_parities_match_single_parity_runs(tmp_path, asym_cfg, flat_cfg):
    # --parity both takes both columns from one G pass, which sums centers g
    # and g' once for the two signs; each column must keep the bytes of the
    # run that computes its parity alone.
    for cfg in (asym_cfg, flat_cfg):
        cols = {}
        for parity in ("both", "plus", "minus"):
            out = tmp_path / f"{parity}.csv"
            assert main(["trace", "--config", cfg, "--emin", "-1", "--emax", "3",
                         "--step", "0.01", "--parity", parity, "--out", str(out)]) == 0
            cols[parity] = (rows(out, "G_plus"), rows(out, "G_minus"))
        assert cols["both"][0] == cols["plus"][0]
        assert cols["both"][1] == cols["minus"][1]
        assert all(sum(v != "" for v in c) > 300 for c in cols["both"])
        assert not any(cols["plus"][1]) and not any(cols["minus"][0])


def test_sweep_constant_flat_row(tmp_path, flat_cfg):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", flat_cfg, "--gmin", "0.3", "--gmax", "1.5",
                 "--points", "4", "--emin", "-1", "--emax", "1.6",
                 "--truncation", "48", "--levels", "5", "--out", str(out)])
    assert code == 0
    data = rows(out)
    flat_rows = [r for r in data if r["method"] == "exceptional"]
    gs = sorted({r["g"] for r in data})
    assert len(gs) == 4
    assert {r["g"] for r in flat_rows} == set(gs)
    assert all(float(r["E"]) == 1.0 and r["parity"] == "1" for r in flat_rows)
    assert all(r["status"] == "ok" for r in data)


def test_sweep_empty_grid_header_only(tmp_path, flat_cfg):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--config", flat_cfg, "--gmin", "0.5", "--gmax", "1.0",
                 "--points", "0", "--out", str(out)]) == 0
    assert rows(out) == []


def test_exceptional_catalog_and_sidecar(tmp_path, flat_cfg):
    out = tmp_path / "cat.csv"
    code = main(["exceptional", "--config", flat_cfg,
                 "--scan", "delta1=0.2:1.1:19", "--out", str(out)])
    assert code == 0
    data = rows(out)
    assert {"N", "parity", "energy", "condition_value", "g_independent",
            "manifold_label"} <= set(data[0])
    manifolds = {r["manifold_label"] for r in data}
    assert "delta1+delta2=omega" in manifolds
    side = rows(str(out) + ".states.csv")
    assert {"hit", "n", "s1s2", "amplitude"} == set(side[0])
    assert len(side) > 0


def test_exceptional_requires_out_file(flat_cfg, capsys):
    assert main(["exceptional", "--config", flat_cfg,
                 "--scan", "delta1=0.2:1.1:5"]) == 2
    assert "sidecar" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace", "--emin", "-1", "--emax", "1"],
    ["spectrum", "--emax", "1.5"],
    ["sweep", "--gmin", "0.5", "--gmax", "1", "--points", "2"],
    ["exceptional", "--scan", "delta1=0.2:1.1:5"],
    ["verify", "--emax", "1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_a_config_error(tmp_path, flat_cfg, capsys, argv, where):
    # An output that cannot be opened ends in one line and exit 2, as a bad
    # flag does, not in a traceback and a solver failure's exit 1.
    out = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    assert main([*argv, "--config", flat_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_sidecar_is_a_config_error(tmp_path, flat_cfg, capsys):
    out = tmp_path / "cat.csv"
    (tmp_path / "cat.csv.states.csv").mkdir()
    assert main(["exceptional", "--config", flat_cfg, "--scan", "delta1=0.2:1.1:5",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}.states.csv: Is a directory\n"


def test_bad_scan_spec(tmp_path, flat_cfg, capsys):
    assert main(["exceptional", "--config", flat_cfg, "--scan", "delta1=0.2",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["exceptional", "--config", flat_cfg, "--scan", "delta1=0.2:1.1:19",
                 "--scan", "Delta1=0.5:0.7:3", "--out", str(tmp_path / "x.csv")]) == 2
    assert "repeats axis 'delta1'" in capsys.readouterr().err


def test_exceptional_scan_across_a_pole_of_the_condition(tmp_path, flat_cfg):
    # jy + jz = -1/2 zeroes a denominator of the N = 1 condition on this line.
    out = tmp_path / "pole.csv"
    assert main(["exceptional", "--config", flat_cfg, "--scan", "jz=-1.0:0.0:8",
                 "--out", str(out)]) == 0
    assert all(abs(float(v)) < 1e-10 for v in rows(out, "condition_value"))


def test_exceptional_negative_ncut_is_a_config_error(tmp_path, flat_cfg, capsys):
    # No baseline index below 0 exists: the scan would probe nothing.
    assert main(["exceptional", "--config", flat_cfg, "--scan", "delta1=0:1:3",
                 "--ncut", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_max must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--gmin", "0.5", "--gmax", "inf", "--points", "3"],
     "--gmin and --gmax must be finite"),
    (["sweep", "--gmin=-inf", "--gmax", "1", "--points", "3"],
     "--gmin and --gmax must be finite"),
    (["sweep", "--gmin", "nan", "--gmax", "1", "--points", "3"],
     "--gmin and --gmax must be finite"),
    (["exceptional", "--scan", "delta1=0:inf:3"], "START and STOP must be finite"),
    (["exceptional", "--scan", "jz=0:1:3", "--scan", "delta1=nan:1:3"],
     "START and STOP must be finite"),
])
def test_non_finite_ranges_rejected_before_the_grid(tmp_path, flat_cfg, capsys, argv,
                                                    message):
    # Checked before np.linspace expands the range, which would warn first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", flat_cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err


def test_verify_passes(asym_cfg, capsys):
    code = main(["verify", "--config", asym_cfg, "--emin", "-1",
                 "--emax", "1.0", "--truncation", "160"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_writes_its_report_to_out(tmp_path, asym_cfg, capsys):
    # --out FILE receives the lines verify prints to stdout by default.
    argv = ["verify", "--config", asym_cfg, "--emin", "-1", "--emax", "1.0",
            "--truncation", "160"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    out = tmp_path / "verify.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == report and report.startswith("PASS roots[plus]: ")


@pytest.mark.parametrize("levels, claims, missing", [
    ([1.0], [0.0, 1.0], 0),          # a claim below the level's reach is passed over
    ([0.0, 1.0], [0.0], 1),          # a level is left without a claim
    ([1.0, 1.0 + 5e-7], [1.0], 1),   # one claim covers one level, however close
])
def test_unmatched_counts_levels_left_over(levels, claims, missing):
    assert _unmatched(levels, claims, 1e-6) == missing


@pytest.mark.parametrize("how, failure", [
    ("drop", re.compile(r"^FAIL coverage\[plus\]: \d+ oracle levels, 1 unmatched$", re.M)),
    ("unverify", re.compile(r"^FAIL roots\[plus\]: ", re.M)),
])
def test_verify_fails_on_a_lost_or_unverified_root(asym_cfg, capsys, monkeypatch, how,
                                                   failure):
    find_roots = gfunction.find_roots

    def broken(*args, **kwargs):
        res = find_roots(*args, **kwargs)
        first = res.filtered(Parity.PLUS).records[0]
        kept = [r for r in res if r is not first]
        if how == "unverify":
            kept.append(dataclasses.replace(first, verified=False))
        return SpectrumResult.from_records(kept)

    monkeypatch.setattr(gfunction, "find_roots", broken)
    code = main(["verify", "--config", asym_cfg, "--emin", "-1",
                 "--emax", "1.0", "--truncation", "160"])
    out = capsys.readouterr().out
    assert code == 1
    assert failure.search(out)
    assert out.count("FAIL") == 1


DISAGREES = re.compile(r"^error: G disagrees with the oracle: (\d+) roots unverified, "
                       r"(\d+) oracle levels unmatched\n$")


def test_spectrum_exits_three_where_g_disagrees_with_the_oracle(tmp_path, flat_cfg,
                                                                capsys):
    # Flat up to E = 30: past E ~ 20 G's sign is rounding noise, so most
    # roots lie off every level and some levels get no root. The CSV keeps
    # every row; one stderr line counts both, and the status is 3.
    out, report = tmp_path / "spectrum.csv", tmp_path / "verify.txt"
    argv = ["--config", flat_cfg, "--emax", "30"]
    assert main(["spectrum", *argv, "--out", str(out)]) == 3
    found = DISAGREES.match(capsys.readouterr().err)
    assert found
    p = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
    levels = oracle.window(p, None, 30.0)
    roots = gfunction.find_roots(p, tuple(Parity), -1.0, 30.0, levels=levels)
    want = [_record_row(r) for r in roots] + [
        _record_row(r) for r in levels if -1.0 <= r.energy <= 30.0]
    assert sorted(tuple(r.values()) for r in rows(out)) == sorted(want)
    unverified, unmatched = map(int, found.groups())
    assert unverified == sum(r.verified is False for r in roots) > 400
    # verify counts the same unmatched levels, parity by parity.
    assert main(["verify", *argv, "--out", str(report)]) == 1
    coverage = re.findall(r"^FAIL coverage\[\w+\]: \d+ oracle levels, (\d+) unmatched$",
                          report.read_text(), re.M)
    assert len(coverage) == 2 and sum(map(int, coverage)) == unmatched > 0
    # Runs that check no root against the oracle keep status 0.
    for extra in (["--no-verify"], ["--solver", "oracle"]):
        assert main(["spectrum", *argv, *extra, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_both_sweep_exits_three_where_g_disagrees_with_the_oracle(tmp_path, capsys):
    # (1, 0.6, 0.2, 0.8g, 0.2g) at g = 5 to 6: G is near singular at every
    # E, so its roots are noise. A both sweep adds up its points' counts; a
    # G-only sweep checks nothing against the oracle.
    cfg, out = tmp_path / "asym.cfg", tmp_path / "sweep.csv"
    cfg.write_text(ASYM_CFG.replace("0.24", "0.8").replace("0.06", "0.2"))
    argv = ["sweep", "--config", str(cfg), "--gmin", "5", "--gmax", "6", "--points", "4",
            "--out", str(out)]
    assert main([*argv, "--solver", "both"]) == 3
    found = DISAGREES.match(capsys.readouterr().err)
    assert found
    unverified = sum(r["method"] == "gfunction" and float(r["residual"]) >= 1e-6
                     for r in rows(out))
    assert int(found.group(1)) == unverified > 0 and int(found.group(2)) > 0
    assert main([*argv, "--solver", "gfunction"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--emin", "-1", "--emax", "2.5", "--solver", "both"],
    ["spectrum", "--emin", "-1", "--emax", "2.5", "--solver", "gfunction"],
    ["sweep", "--gmin", "0.05", "--gmax", "2.5", "--points", "8", "--solver", "both"],
], ids=["spectrum-both", "spectrum-gfunction", "sweep-both"])
def test_readme_model_agrees_with_the_oracle(tmp_path, asym_cfg, capsys, argv):
    assert main([argv[0], "--config", asym_cfg, *argv[1:],
                 "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_noise_roots_print_no_warning(tmp_path, capsys):
    # At g = 23 omega G is rounding noise on [-1, 1] (|G| <= 6.1e-29 at its
    # roots), and some bracket ends read G = inf. Their regula-falsi points
    # are NaN, which send the bracket to its midpoint probe without a numpy
    # warning.
    path = tmp_path / "g23.cfg"
    path.write_text(flat_cfg_at(11.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", str(path), "--solver", "gfunction",
                     "--no-verify", "--emax", "1", "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_spec_validation(tmp_path, capsys):
    cfg = tmp_path / "tpl.cfg"
    cfg.write_text(ASYM_CFG.replace("0.24", "0.4").replace("0.06", "0.1"))
    out = tmp_path / "grid.csv"
    sweep = ["sweep", "--config", str(cfg), "--gmin", "0.2", "--gmax", "1.0",
             "--emin", "-5", "--levels", "1", "--truncation", "40", "--out", str(out)]
    assert main(sweep + ["--points", "5"]) == 0
    grid = sorted({float(g) for g in rows(out, "g")})
    assert len(grid) == 5 and grid[0] == 0.2 and grid[-1] == 1.0
    for extra, message in ((["--points", "-1"], "non-negative point count"),
                           (["--points", "5", "--step", "0"], "step must be positive"),
                           (["--points", "5", "--levels", "0"], "--levels must be >= 1")):
        assert main(sweep + extra) == 2
        assert message in capsys.readouterr().err
    cfg.write_text(ASYM_CFG.replace("0.24", "0").replace("0.06", "0"))
    assert main(sweep + ["--points", "5"]) == 2
    assert "g1 + g2 > 0" in capsys.readouterr().err


def test_main_builds_one_parser(tmp_path, flat_cfg, monkeypatch):
    # main may run many commands in one process, one after another: they
    # share one parser, built at the first.
    tqrabi.cli.build_parser.cache_clear()
    parsers, parse = [], argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    for points in ("1", "2"):
        assert main(["sweep", "--config", flat_cfg, "--gmin", "0.5", "--gmax", "1.0",
                     "--points", points, "--out", str(tmp_path / "s.csv")]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_both_sweep_oracle_rows_are_its_window(tmp_path, asym_cfg):
    # A both point's oracle rows are the levels of the window that verifies
    # its roots, chosen as spectrum --solver both chooses them: cell for
    # cell those of spectrum on the point's model and window.
    out, cfg, spec = tmp_path / "sweep.csv", tmp_path / "point.cfg", tmp_path / "spec.csv"
    window = ["--emin", "-1", "--emax", "2.5", "--solver", "both"]
    assert main(["sweep", "--config", asym_cfg, "--gmin", "0.3", "--gmax", "2.1",
                 "--points", "3", *window, "--out", str(out)]) == 0
    data = rows(out)
    template = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    gs = sorted({r["g"] for r in data}, key=float)
    assert len(gs) == 3
    for g in gs:
        point = template.with_g(float(g))
        cfg.write_text("".join(f"{k} = {getattr(point, k)!r}\n"
                               for k in ("omega", "delta1", "delta2", "g1", "g2")))
        assert main(["spectrum", "--config", str(cfg), *window, "--out", str(spec)]) == 0
        want = [r for r in rows(spec) if r["method"] == "oracle"]
        got = [{k: v for k, v in r.items() if k not in ("g", "status")}
               for r in data if r["g"] == g and r["method"] == "oracle"]
        assert got == want and len(got) > 4
        assert all(r["status"] == "ok" for r in data if r["g"] == g)


def test_both_sweep_has_an_oracle_row_per_root(tmp_path):
    # The asymmetric sweep (1, 0.6, 0.2, 0.8g, 0.2g) on [-1, 3]: every
    # point has at least as many oracle rows as roots. The lowest 8 levels
    # of both parities, clipped to the window, fell short at every point.
    cfg, out = tmp_path / "asym.cfg", tmp_path / "sweep.csv"
    cfg.write_text(ASYM_CFG.replace("0.24", "0.8").replace("0.06", "0.2"))
    assert main(["sweep", "--config", str(cfg), "--gmin", "0.1", "--gmax", "2.5",
                 "--points", "12", "--emin", "-1", "--emax", "3", "--solver", "both",
                 "--out", str(out)]) == 0
    counts = collections.Counter((r["g"], r["method"]) for r in rows(out))
    gs = {g for g, _ in counts}
    assert len(gs) == 12
    short = [g for g in gs if counts[g, "oracle"] < counts[g, "gfunction"]]
    assert short == [] and all(counts[g, "gfunction"] > 0 for g in gs)


def test_one_oracle_request_per_sweep_point_or_model(tmp_path, flat_cfg, monkeypatch):
    # Each sweep point, and each spectrum or verify model, makes at most one
    # certified oracle solve. A both point's is the window that verifies
    # its roots; only an oracle point asks diagonalize for its levels.
    fake_cpus(monkeypatch, 1)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("certified_spectrum", "window", "diagonalize"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    out = str(tmp_path / "out.csv")
    for solver, want in (("both", {"certified_spectrum": 4, "window": 4}),
                         ("oracle", {"certified_spectrum": 4, "diagonalize": 4}),
                         ("gfunction", {})):
        calls.clear()
        assert sweep(flat_cfg, out, "--points", "4", "--solver", solver) == 0
        assert calls == want, solver
    for argv, want in ((["spectrum", "--emax", "2", "--solver", "both"], 1),
                       (["spectrum", "--emax", "2", "--solver", "oracle"], 1),
                       (["spectrum", "--emax", "2", "--solver", "gfunction"], 1),
                       (["spectrum", "--emax", "2", "--solver", "gfunction",
                         "--no-verify"], 0),
                       (["verify", "--emax", "2"], 1)):
        calls.clear()
        assert main([*argv, "--config", flat_cfg, "--out", out]) == 0
        assert calls["certified_spectrum"] == want and calls["diagonalize"] == 0, argv


@pytest.mark.parametrize("parity, solves", [("plus", 1), ("minus", 1), ("both", 2)])
def test_oracle_sweep_point_solves_its_parities_only(tmp_path, flat_cfg, monkeypatch,
                                                     parity, solves):
    # An oracle point counts the lowest levels of the --parity blocks alone:
    # one band solve per block, at the start truncation.
    fake_cpus(monkeypatch, 1)
    calls, eig_banded = [], oracle._eig_banded
    monkeypatch.setattr(oracle, "_eig_banded",
                        lambda *a, **k: calls.append(1) or eig_banded(*a, **k))
    out = tmp_path / "sweep.csv"
    assert sweep(flat_cfg, out, "--points", "4", "--parity", parity) == 0
    assert len(calls) == 4 * solves


def test_one_parity_oracle_sweep_prints_that_paritys_lowest_levels(tmp_path, flat_cfg):
    # At each point of the flat sweep the oracle rows are the lowest 8 plus
    # levels in [-1, 3], each within its bound of a plus level of window on
    # the point's model. Counting 8 levels of both parities and dropping the
    # minus ones left 32 rows.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", flat_cfg, "--gmin", "0.05", "--gmax", "2.5",
                 "--points", "16", "--parity", "plus", "--solver", "oracle",
                 "--out", str(out)]) == 0
    data = [r for r in rows(out) if r["method"] == "oracle"]
    assert len(data) == 85 and {r["parity"] for r in data} == {"1"}
    gs = sorted({r["g"] for r in data}, key=float)
    assert len(gs) == 16
    for g in gs:
        point = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5).with_g(float(g))
        want = [r for r in oracle.window(point, None, 3.0, (Parity.PLUS,)).records[:8]
                if -1 <= r.energy <= 3]
        got = [r for r in data if r["g"] == g]
        assert len(got) == len(want)
        for r, w in zip(got, want):
            # The bounds may lie below the eigensolver's rounding.
            assert abs(float(r["E"]) - w.energy) <= float(r["residual"]) + w.residual + 1e-12


ASYM_PARAMS = ("# params: omega=1 delta1=0.59999999999999998 delta2=0.20000000000000001 "
               "g1=0.23999999999999999 g2=0.059999999999999998 jx=0.25 jy=0 jz=0")
FLAT_PARAMS = ("# params: omega=1 delta1=0.59999999999999998 delta2=0.40000000000000002 "
               "g1=0.5 g2=0.5 jx=0 jy=0 jz=0")
SWEEP_G = ["sweep", "--gmin", "0.5", "--gmax", "1", "--points"]


@pytest.mark.parametrize("solver, levels", [("oracle", " levels=3"), ("both", ""),
                                            ("gfunction", "")])
def test_sweep_flags_name_levels_where_they_apply(tmp_path, flat_cfg, solver, levels):
    # --levels changes the rows of an oracle sweep alone, and --step those of
    # the others: an oracle sweep scans no grid. The whole comment block,
    # byte for byte.
    step = "" if solver == "oracle" else " step=0.01"
    out = tmp_path / "sweep.csv"
    assert sweep(flat_cfg, out, "--points", "1", "--solver", solver, "--levels", "3") == 0
    comments = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    assert comments == ["# tqrabi sweep", FLAT_PARAMS,
                        f"# flags: gmin=0.5 gmax=1 points=1 emin=-1 emax=3{step} "
                        f"solver={solver} parity=both{levels} truncation=auto"]


@pytest.mark.parametrize("argv, comments", [
    (["spectrum", "--emax", "1", "--solver", "oracle", "--truncation", "60",
      "--parity", "minus"],
     ["# tqrabi spectrum", ASYM_PARAMS, "# flags: emin=-1 emax=1 step=0.01 solver=oracle "
      "parity=minus truncation=60 verify=true"]),
    (["spectrum", "--emin", "0.5", "--emax", "1", "--solver", "gfunction", "--no-verify",
      "--step", "0.05"],
     ["# tqrabi spectrum", ASYM_PARAMS, "# flags: emin=0.5 emax=1 step=0.050000000000000003 "
      "solver=gfunction parity=both truncation=auto verify=false"]),
    (["trace", "--emin", "-1", "--emax", "1.5", "--step", "0.05", "--parity", "plus"],
     ["# tqrabi trace", FLAT_PARAMS,
      "# flags: emin=-1 emax=1.5 step=0.050000000000000003 parity=plus",
      "# baselines: first:0@-1 first:1@0 second:0@0 first:2@1 second:1@1"]),
    (["exceptional", "--scan", "jz=-0.5:0.5:3", "--scan", "delta1=0.2:1.1:4", "--ncut", "2"],
     ["# tqrabi exceptional", FLAT_PARAMS,
      "# flags: scan=jz=-0.5:0.5:3 delta1=0.2:1.1:4 ncut=2"]),
], ids=["spectrum-oracle", "spectrum-gfunction", "trace", "exceptional"])
def test_comment_header_bytes(tmp_path, flat_cfg, argv, comments):
    # The whole comment block of each command, byte for byte: the command,
    # every parameter and every flag in its order, each float at 17 digits.
    # test_sweep_flags_name_levels_where_they_apply pins the sweep's.
    cfg = tmp_path / "jx.cfg"
    cfg.write_text(ASYM_CFG + "jx = 0.25\n")
    config = str(cfg) if argv[0] == "spectrum" else flat_cfg
    out = tmp_path / "out.csv"
    assert main([*argv, "--config", config, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("\n".join(comments) + "\n") and text.count("#") == len(comments)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--emax", "1"],
    ["spectrum", "--emax", "1", "--solver", "gfunction", "--no-verify"],
    SWEEP_G + ["2", "--emax", "1", "--solver", "both"],
], ids=["spectrum", "spectrum-gfunction", "sweep"])
def test_negative_exponent_value_after_a_space(tmp_path, asym_cfg, argv):
    # argparse takes -1e-1 for an option name: the CLI hands it to --emin as
    # the value it follows, as --emin=-1e-1 does.
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main([*argv, "--config", asym_cfg, "--emin", "-1e-1", "--out", str(spaced)]) == 0
    assert main([*argv, "--config", asym_cfg, "--emin=-1e-1", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert "# flags: " + ("gmin=0.5 gmax=1 points=2 " if argv[0] == "sweep" else "") \
        + "emin=-0.10000000000000001 emax=1 " in spaced.read_text()


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--emin", "-inf", "--emax", "1"], "energy window and step must be finite"),
    (["trace", "--emin", "-inf", "--emax", "1"], "energy window and step must be finite"),
    (SWEEP_G + ["2", "--emin", "-Infinity", "--emax", "1"],
     "energy window and step must be finite"),
    (["sweep", "--gmin", "-inf", "--gmax", "1", "--points", "2"],
     "--gmin and --gmax must be finite"),
], ids=["spectrum", "trace", "sweep", "sweep-gmin"])
def test_negative_infinity_after_a_space_is_one_line(tmp_path, asym_cfg, capsys, argv,
                                                     message):
    # -inf reaches the input checks, which name it in one line, not
    # argparse's usage message.
    assert main([*argv, "--config", asym_cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["-h", "--emax"])
def test_option_after_a_number_option_stays_an_option(asym_cfg, capsys, value):
    # Only a token that float() reads is taken as the value: -h and option
    # names keep argparse's meaning, so --emin lacks its value.
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", asym_cfg, "--emin", value, "--emax", "1"])
    assert exc.value.code == 2
    assert "argument --emin: expected one argument" in capsys.readouterr().err


def test_both_sweep_window_error_writes_status_rows(tmp_path, asym_cfg, monkeypatch):
    # A window that raises leaves a both point without levels to verify
    # roots against and without oracle rows: the gfunction status row of
    # each parity and one oracle status row name its error.
    fake_cpus(monkeypatch, 1)

    def fails(*args):
        raise NotConverged("no window")

    monkeypatch.setattr(oracle, "window", fails)
    out = tmp_path / "sweep.csv"
    assert sweep(asym_cfg, out, "--points", "2", "--solver", "both") == 0
    got = [tuple(r.values()) for r in rows(out)]
    assert got == [(g, "", parity, method, "", "NotConverged")
                   for g in ("0.5", "1")
                   for parity, method in (("1", "gfunction"), ("-1", "gfunction"),
                                          ("", "oracle"))]


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--solver", "oracle", "--emin", "3", "--emax", "2"], "empty energy window"),
    (["spectrum", "--solver", "both", "--emin", "3", "--emax", "2"], "empty energy window"),
    (["spectrum", "--solver", "oracle", "--emax", "2", "--step", "-0.1"],
     "step must be positive"),
    (["sweep", "--gmin", "0.2", "--gmax", "1", "--points", "2", "--emin", "3",
      "--emax", "2"], "empty energy window"),
    (["verify", "--emin", "3", "--emax", "2"], "empty energy window"),
    (["verify", "--truncation", "-1"], "truncation must be >= 0"),
    (["spectrum", "--emax", "inf"], "must be finite"),
    (["verify", "--emax", "inf"], "must be finite"),
    (["trace", "--emin", "-1", "--emax", "inf"], "must be finite"),
    (["spectrum", "--emax", "2", "--step", "nan"], "must be finite"),
    (["spectrum", "--emax", "2", "--step", "inf"], "must be finite"),
    (["sweep", "--gmin", "0.2", "--gmax", "1", "--points", "2", "--emax", "inf"],
     "must be finite"),
])
def test_window_step_and_truncation_checked_for_every_solver(asym_cfg, capsys, argv,
                                                             message):
    assert main(argv + ["--config", asym_cfg]) == 2
    assert message in capsys.readouterr().err


def fake_cpus(monkeypatch, n, lapack=False):
    """Let the G workers see CPUs 0 to n - 1, and pin none of them; return
    a list that grows by one at each os.fork. With lapack, as for a sweep
    that uses the oracle, LAPACK is unloaded here and each fork checks that
    it is loaded again, so that no worker loads it on its own."""
    forks, fork = [], os.fork
    if lapack:
        oracle._lapack.cache_clear()

    def counted():
        assert not lapack or oracle._lapack.cache_info().currsize == 1
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def no_child_left():
    """Whether this process has no child, live or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def sweep(cfg, out, *extra):
    return main(["sweep", "--config", cfg, "--gmin", "0.5", "--gmax", "1.0",
                 *extra, "--out", str(out)])


def test_sweep_forks_no_more_workers_than_points(tmp_path, flat_cfg, monkeypatch):
    # A sweep, whatever its solver, hires a worker per CPU but this
    # process's, and no more workers than it has points beside this
    # process's own share.
    for solver in ("gfunction", "oracle"):
        gfunction._stop_workers()
        forks = fake_cpus(monkeypatch, 4, lapack=solver == "oracle")
        for points in (1, 2):
            out = tmp_path / f"{solver}{points}.csv"
            assert sweep(flat_cfg, out, "--points", str(points), "--solver", solver) == 0
            assert len({g for g in rows(out, "g")}) == points
            assert len(forks) == points - 1 and len(gfunction._workers) == points - 1


def test_g_sweep_on_one_cpu_hires_no_worker(tmp_path, flat_cfg, monkeypatch):
    # The CPUs are those the process may run on, as under taskset -c 0: with
    # one, every point runs here and nothing forks, whatever the solver.
    forks = fake_cpus(monkeypatch, 1)
    for solver in ("gfunction", "both", "oracle"):
        assert sweep(flat_cfg, tmp_path / f"{solver}.csv", "--points", "4",
                     "--solver", solver, "--truncation", "40") == 0
    assert forks == [] and gfunction._workers == []


def test_oracle_sweep_shares_its_points(tmp_path, flat_cfg, monkeypatch):
    # An oracle sweep spreads its points as a G sweep does: on 8 CPUs its 3
    # points go to this process and 2 workers, forked once LAPACK is loaded.
    forks = fake_cpus(monkeypatch, 8, lapack=True)
    assert sweep(flat_cfg, tmp_path / "s.csv", "--points", "3", "--solver", "oracle",
                 "--truncation", "40") == 0
    assert len(forks) == 2 and len(gfunction._workers) == 2
    assert len({g for g in rows(tmp_path / "s.csv", "g")}) == 3


def test_sweep_shares_mix_cheap_and_dear_points(tmp_path, flat_cfg, monkeypatch):
    # A point's cost grows with g. Point j goes to share j mod 2k, or to
    # 2k - 1 - j mod 2k past k: on 3 CPUs, of 8 points, this process takes
    # points 0, 5 and 6 and the workers 1, 4, 7 and 2, 3. The rows come
    # back in point order, to the bytes of one process.
    dealt, shares = [], gfunction._shares

    def recorded(most, split):
        def spy(k):
            calls = split(k)
            dealt.append([args[2] for _, args in calls])
            return calls
        return shares(most, spy)

    monkeypatch.setattr(gfunction, "_shares", recorded)
    outs = []
    for cpus in (1, 3):
        gfunction._stop_workers()
        forks = fake_cpus(monkeypatch, cpus, lapack=True)
        outs.append(tmp_path / f"s{cpus}.csv")
        assert sweep(flat_cfg, outs[-1], "--points", "8", "--solver", "oracle",
                     "--truncation", "40") == 0
        assert len(forks) == cpus - 1
    gs = [float(g) for g in np.linspace(0.5, 1.0, 8)]
    assert dealt == [[gs], [[gs[j] for j in share]
                            for share in ([0, 5, 6], [1, 4, 7], [2, 3])]]
    assert outs[0].read_bytes() == outs[1].read_bytes()


SWEEP_ARGS = ["--gmin", "0.2", "--gmax", "0.6", "--points", "3",
              "--emax", "1.5", "--truncation", "120"]


def test_sweep_worker_pool_keeps_bytes(tmp_path, asym_cfg, monkeypatch):
    # Points shared with a worker give the bytes of one process, whatever
    # the solver.
    for solver, methods in (("both", {"gfunction", "oracle"}), ("oracle", {"oracle"})):
        gfunction._stop_workers()
        outs = []
        for cpus in (1, 2):
            forks = fake_cpus(monkeypatch, cpus, lapack=True)
            outs.append(tmp_path / f"{solver}{cpus}.csv")
            assert sweep(asym_cfg, outs[-1], *SWEEP_ARGS, "--solver", solver) == 0
            assert len(forks) == cpus - 1
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert {r["method"] for r in rows(outs[0])} == methods


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_sweep_worker_keeps_bytes(tmp_path, asym_cfg, monkeypatch, how):
    # A worker that raises or is killed at its first point is reaped, and its
    # share runs here, to the bytes of one process, whatever the solver.
    solvers = ("both", "oracle")
    fake_cpus(monkeypatch, 1)
    for solver in solvers:
        assert sweep(asym_cfg, tmp_path / f"{solver}1.csv", *SWEEP_ARGS,
                     "--solver", solver) == 0
    parent, point = os.getpid(), tqrabi.cli._sweep_point

    def fail_there(*args):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("point failed")
        return point(*args)

    monkeypatch.setattr(tqrabi.cli, "_sweep_point", fail_there)
    for solver in solvers:
        forks = fake_cpus(monkeypatch, 2, lapack=True)
        out = tmp_path / f"{solver}2.csv"
        assert sweep(asym_cfg, out, *SWEEP_ARGS, "--solver", solver) == 0
        assert len(forks) == 1 and gfunction._workers == [] and no_child_left()
        assert out.read_bytes() == (tmp_path / f"{solver}1.csv").read_bytes()


def flat_trace(cfg, out, parity):
    """A 4,001-row trace of the flat model, two G blocks, whose empty cells
    fall at E = -1, 0, 1, 2 and 3: rows 1, 1001, 2001, 3001 and 4001, the
    first row of each of two shares and the last row."""
    return main(["trace", "--config", cfg, "--emin", "-1", "--emax", "3", "--step",
                 "0.001", "--parity", parity, "--out", out])


@pytest.mark.parametrize("parity", ["both", "minus"])
def test_split_trace_keeps_bytes(tmp_path, flat_cfg, monkeypatch, capsys, parity):
    # On two CPUs the rows are formatted in two shares, one in the worker of
    # the G call; to a file and to stdout they keep the bytes of one process.
    outs = []
    for cpus in (1, 2):
        forks = fake_cpus(monkeypatch, cpus)
        out = tmp_path / f"t{cpus}.csv"
        assert flat_trace(flat_cfg, str(out), parity) == 0
        assert flat_trace(flat_cfg, "-", parity) == 0
        outs.append((out.read_text(), capsys.readouterr().out))
        assert len(forks) == cpus - 1
    assert outs[0] == outs[1] and outs[0][0] == outs[0][1]
    body = [line for line in outs[0][0].splitlines() if not line.startswith("#")]
    assert body[0] == "E,G_plus,G_minus" and len(body) == 4002
    assert [i for i, line in enumerate(body) if line.endswith(",")] == [
        1, 1001, 2001, 3001, 4001]


# How rows_failing_in_a_worker fails, and in which processes: all but "parent".
ROWS_FAILURE = {"parent": None, "how": "raises"}
TRACE_ROWS = tqrabi.cli._trace_rows


def rows_failing_in_a_worker(table, row):
    """cli._trace_rows, but a forked worker raises, or is killed, in its share.
    It is defined here, at module level, so that it pickles to the worker."""
    if os.getpid() != ROWS_FAILURE["parent"]:
        if ROWS_FAILURE["how"] == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("rows failed")
    return TRACE_ROWS(table, row)


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_trace_worker_keeps_bytes(tmp_path, flat_cfg, monkeypatch, how):
    # A worker that raises or is killed in its formatting share is reaped,
    # and its rows are formatted here, to the bytes of one process.
    fake_cpus(monkeypatch, 1)
    one = tmp_path / "one.csv"
    assert flat_trace(flat_cfg, str(one), "both") == 0
    monkeypatch.setitem(ROWS_FAILURE, "parent", os.getpid())
    monkeypatch.setitem(ROWS_FAILURE, "how", how)
    monkeypatch.setattr(tqrabi.cli, "_trace_rows", rows_failing_in_a_worker)
    forks = fake_cpus(monkeypatch, 2)
    out = tmp_path / "split.csv"
    assert flat_trace(flat_cfg, str(out), "both") == 0
    assert len(forks) == 1 and gfunction._workers == [] and no_child_left()
    assert out.read_bytes() == one.read_bytes()


def test_trace_rejects_non_finite_parameters(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(ASYM_CFG.replace("delta1 = 0.6", "delta1 = nan"))
    out = tmp_path / "t.csv"
    assert main(["trace", "--config", str(cfg), "--emin", "-1", "--emax", "1",
                 "--out", str(out)]) == 2
    assert "finite: delta1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_counts_levels_beside_baselines(tmp_path, capsys):
    # Only certified cutoff states are excused from coverage. Here the even
    # cutoff state E = 1 is a root too, and so is the level 3.4e-8 above the
    # baseline E = 2.
    cfg = tmp_path / "pole.cfg"
    cfg.write_text(FLAT_CFG.replace("0.5", "0.60000005"))
    code = main(["verify", "--config", str(cfg), "--emin", "-1", "--emax", "2.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS roots[plus]: 6 roots" in out
    assert "PASS coverage[plus]: 6 oracle levels, 0 unmatched" in out


@pytest.mark.parametrize("g1", [0.5132324790088795, 0.5132324788588795],
                         ids=["g_c+3e-10", "g_c"])
def test_verify_counts_each_level_once(tmp_path, capsys, g1):
    # Flat at g = 2 g1 near g_c = 1.026464957717759, where a regular even
    # level crosses the cutoff state E = 1. 3e-10 off g_c both are roots,
    # and at g_c itself too: the cutoff state's pole pair and the regular
    # root's bracket beside it are two roots for two levels.
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(FLAT_CFG.replace("0.5", repr(g1)))
    assert main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS roots[plus]: 6 roots" in out
    assert "PASS coverage[plus]: 6 oracle levels, 0 unmatched" in out
    assert "PASS coverage[minus]: 6 oracle levels, 0 unmatched" in out


def test_verify_covers_exceptional(flat_cfg, capsys):
    code = main(["verify", "--config", flat_cfg, "--emin", "-1",
                 "--emax", "1.4", "--truncation", "160"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exceptional[plus, N=1]" in out


def test_sweep_cutoff_states_scale_with_omega(tmp_path, dark_half_cfg):
    # Dark states at E = N omega; with omega = 0.5 those at E = 2, 2.5 and 3
    # need N = 4, 5 and 6 and must not be cut off at N = 3.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", dark_half_cfg, "--gmin", "0.6",
                 "--gmax", "0.6", "--points", "1", "--out", str(out)]) == 0
    found = {(float(r["E"]), r["parity"]) for r in rows(out)
             if r["method"] == "exceptional"}
    assert {(2.0, "-1"), (2.5, "1"), (3.0, "-1")} <= found


def test_verify_cutoff_states_scale_with_omega(dark_half_cfg, capsys):
    code = main(["verify", "--config", dark_half_cfg, "--emin", "1.9",
                 "--emax", "3", "--truncation", "120"])
    out = capsys.readouterr().out
    assert code == 0
    for tag in ("minus, N=4", "plus, N=5", "minus, N=6"):
        assert f"PASS exceptional[{tag}]" in out


# g1 and g2 one ulp apart: g' = 0 in omega = 1 units, where the G path builds
# the g' = 0 chain and the model has cutoff states, though g1 != g2 as given.
ULP_CFG = """\
omega = 3.0
delta1 = 1.5
delta2 = 1.5
g1 = 0.05977443609022556
g2 = 0.05977443609022557
"""


def test_verify_lists_cutoff_states_where_gprime_rounds_to_zero(tmp_path, capsys):
    cfg = tmp_path / "ulp.cfg"
    cfg.write_text(ULP_CFG)
    assert main(["verify", "--config", str(cfg), "--emax", "7.5"]) == 0
    out = capsys.readouterr().out
    assert "PASS coverage[plus]: 4 oracle levels, 0 unmatched" in out
    assert "PASS coverage[minus]: 7 oracle levels, 0 unmatched" in out
    for tag in ("plus, N=1", "minus, N=0", "minus, N=2"):
        assert f"PASS exceptional[{tag}]" in out


def test_sweep_lists_cutoff_states_where_gprime_rounds_to_zero(tmp_path):
    cfg, out = tmp_path / "ulp.cfg", tmp_path / "sweep.csv"
    cfg.write_text(ULP_CFG)
    g = repr(0.05977443609022556 + 0.05977443609022557)
    assert main(["sweep", "--config", str(cfg), "--solver", "both", "--gmin", g,
                 "--gmax", g, "--points", "1", "--emax", "7.5", "--out", str(out)]) == 0
    found = {(float(r["E"]), r["parity"]) for r in rows(out) if r["method"] == "exceptional"}
    assert found == {(3.0, "1"), (0.0, "-1"), (6.0, "-1")}


def test_default_step_is_a_hundredth_of_omega(tmp_path):
    # At omega = 0.1 the default --step is the library's 0.01 omega: the
    # level-free search finds what find_roots finds with step=None, and the
    # flags line names the step used.
    cfg, out = tmp_path / "slow.cfg", tmp_path / "spec.csv"
    cfg.write_text("omega = 0.1\ndelta1 = 0.06\ndelta2 = 0.02\ng1 = 0.024\ng2 = 0.006\n")
    assert main(["spectrum", "--config", str(cfg), "--emin", "-0.1", "--emax", "0.25",
                 "--solver", "gfunction", "--no-verify", "--out", str(out)]) == 0
    found = gfunction.find_roots(tqrabi.load_params(cfg), tuple(Parity), -0.1, 0.25,
                                 step=None)
    assert len(found) > 5
    assert sorted(tuple(r.values()) for r in rows(out)) == sorted(
        _record_row(r) for r in found)
    assert " step=0.001 " in out.read_text().splitlines()[2]


def test_level_free_spectrum_finds_a_crossing_of_the_cutoff_state(tmp_path):
    # Flat at g_c, where a regular even level crosses the cutoff state E = 1:
    # without levels the cutoff state's pole pair splits its scan cell, so
    # both are roots, the cutoff state's on its pole, where G has no value.
    cfg, out = tmp_path / "crossing.cfg", tmp_path / "spec.csv"
    cfg.write_text(FLAT_CFG.replace("0.5", "0.5132324788588795"))
    assert main(["spectrum", "--config", str(cfg), "--solver", "gfunction",
                 "--no-verify", "--emax", "2.5", "--out", str(out)]) == 0
    near = [r for r in rows(out) if r["parity"] == "1"
            and abs(float(r["E"]) - 1.0) < gfunction.ROOT_TOL]
    assert len(near) == 2
    assert near[0] == {"E": "1", "parity": "1", "method": "gfunction", "residual": "nan"}


def test_level_free_sweep_finds_a_crossing_of_the_cutoff_state(tmp_path, flat_cfg):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", flat_cfg, "--solver", "gfunction",
                 "--gmin", "1.026464957717759", "--gmax", "1.026464957717759",
                 "--points", "1", "--emax", "2.5", "--out", str(out)]) == 0
    near = [r for r in rows(out) if r["method"] == "gfunction" and r["parity"] == "1"
            and abs(float(r["E"]) - 1.0) < gfunction.ROOT_TOL]
    assert len(near) == 2


def test_verify_zero_coupling_is_a_solver_error(tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(FLAT_CFG.replace("0.5", "0"))
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "error: RequiresValidCouplings" in capsys.readouterr().err


@pytest.mark.parametrize("g2", ["1e-17", "1e-300"])
@pytest.mark.parametrize("command", [["spectrum", "--solver", "gfunction"], ["trace"],
                                     ["verify"]])
def test_coupling_lost_in_rounding_is_a_solver_error(tmp_path, capsys, command, g2):
    # g2 > 0 so small beside g1 = 1 that g' == g in floating point.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(ASYM_CFG.replace("0.24", "1.0").replace("0.06", g2))
    assert main([*command, "--config", str(cfg), "--emin", "-1", "--emax", "1"]) == 1
    assert "error: RequiresValidCouplings" in capsys.readouterr().err


def test_sweep_coupling_lost_in_rounding_writes_status_rows(tmp_path):
    # The G-function solver gets one status row per parity at the point; the
    # oracle still solves it.
    cfg, out = tmp_path / "tiny.cfg", tmp_path / "sweep.csv"
    cfg.write_text(ASYM_CFG.replace("0.24", "1.0").replace("0.06", "1e-17"))
    assert main(["sweep", "--config", str(cfg), "--gmin", "0.8", "--gmax", "0.8",
                 "--points", "1", "--emax", "1.6", "--solver", "both",
                 "--out", str(out)]) == 0
    failed = [(r["g"], r["method"], r["parity"], r["status"]) for r in rows(out)
              if r["status"] != "ok"]
    assert failed == [("0.80000000000000004", "gfunction", p, "RequiresValidCouplings")
                      for p in ("1", "-1")]
    assert any(r["method"] == "oracle" and r["status"] == "ok" for r in rows(out))


@pytest.mark.parametrize("solver", ["oracle", "both"])
def test_sweep_zero_coupling_writes_status_rows(tmp_path, flat_cfg, solver):
    # At g = 0 the cutoff conditions are undefined: each parity gets one
    # exceptional status row, as the G-function solver gets one per parity.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", flat_cfg, "--gmin", "0", "--gmax", "0.8",
                 "--points", "2", "--emax", "1.6", "--truncation", "48",
                 "--levels", "5", "--solver", solver, "--out", str(out)]) == 0
    failed = [(r["g"], r["method"], r["parity"], r["status"]) for r in rows(out)
              if r["status"] != "ok"]
    methods = ("gfunction", "exceptional") if solver == "both" else ("exceptional",)
    assert failed == [("0", m, p, "RequiresValidCouplings")
                      for m in methods for p in ("1", "-1")]
    assert any(r["method"] == "exceptional" and r["status"] == "ok" for r in rows(out))


def test_exceptional_zero_coupling_is_one_line(tmp_path, capsys):
    # g1 = g2 = 0 has no cutoff condition: a solver failure, as in spectrum.
    path = tmp_path / "zero.cfg"
    path.write_text(flat_cfg_at(0))
    out = tmp_path / "cat.csv"
    assert main(["exceptional", "--config", str(path), "--scan", "delta1=0.2:1.1:19",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: RequiresValidCouplings: flat-line scans "
                                       "need g1 = g2 > 0\n")
    assert not out.exists()


def test_exceptional_scans_at_the_config_coupling(tmp_path):
    # The scan runs at the config's g1 + g2: rescaling it moves the
    # fine-tuned hits and keeps the g-independent ones.
    catalogs = {}
    for g in ("0.5", "0.4"):
        path = tmp_path / f"g{g}.cfg"
        path.write_text(flat_cfg_at(g))
        out = tmp_path / f"g{g}.csv"
        assert main(["exceptional", "--config", str(path), "--scan", "delta1=0.2:1.1:19",
                     "--ncut", "3", "--out", str(out)]) == 0
        catalogs[g] = {flag: [(r["N"], r["parity"], r["energy"], r["manifold_label"],
                               float(r["delta1"])) for r in rows(out)
                              if r["g_independent"] == flag] for flag in ("true", "false")}
    free, tuned = ([catalogs[g][flag] for g in ("0.5", "0.4")] for flag in ("true", "false"))
    assert len(free[0]) == len(free[1]) > 0
    for a, b in zip(*free):
        assert a[:4] == b[:4] and a[4] == pytest.approx(b[4], abs=1e-12)
    assert tuned[0] and tuned[1]
    assert not {r[4] for r in tuned[0]} & {r[4] for r in tuned[1]}


def test_exceptional_outer_axis_without_points(tmp_path, flat_cfg, capsys):
    # An outer axis with no points spans no outer grid, so the scan would
    # write an empty catalog; a line of one point is refused as well.
    out = tmp_path / "cat.csv"
    assert main(["exceptional", "--config", flat_cfg, "--scan", "jz=0:1:0",
                 "--scan", "delta1=0.2:1.1:19", "--out", str(out)]) == 2
    assert "scan axis 'jz' has no points" in capsys.readouterr().err
    assert main(["exceptional", "--config", flat_cfg, "--scan", "delta1=0.2:1.1:1",
                 "--out", str(out)]) == 2
    assert "scan line needs at least two points" in capsys.readouterr().err
    assert not out.exists()
