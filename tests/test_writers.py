"""Exact bytes of every CSV writer on hand-built inputs (no solver runs)."""

import numpy as np

from tqrabi import Baseline, GTrace, ModelParams, Parity, SpectrumRecord
from tqrabi.cli import _write_catalog_csv, _write_spectrum_csv, _write_trace_csv
from tqrabi.exceptional import ExceptionalState, FlatLineHit


def test_spectrum_csv_bytes(tmp_path):
    out = tmp_path / "spectrum.csv"
    _write_spectrum_csv([SpectrumRecord(-1 / 3, Parity.MINUS, "gfunction", 2.5e-13),
                         SpectrumRecord(0.1, Parity.PLUS, "oracle", 0.0)], str(out),
                        ["tqrabi spectrum", "params: omega=1"])
    assert out.read_text() == (
        "# tqrabi spectrum\n"
        "# params: omega=1\n"
        "E,parity,method,residual\n"
        "-0.33333333333333331,-1,gfunction,2.4999999999999999e-13\n"
        "0.10000000000000001,1,oracle,0\n")


def test_trace_csv_bytes(tmp_path):
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    poles = (Baseline("first", 1, 0.5), Baseline("second", 2, 2 / 3))
    out = tmp_path / "trace.csv"
    _write_trace_csv([GTrace(Parity.PLUS, grid, np.array([1.5, np.nan, -2.0, -np.inf]),
                             poles),
                      GTrace(Parity.MINUS, grid, np.array([-0.25, np.nan, 3e-300, -1e-5]),
                             poles)],
                     str(out), ["tqrabi trace"])
    assert out.read_text() == (
        "# tqrabi trace\n"
        "# baselines: first:1@0.5 second:2@0.66666666666666663\n"
        "E,G_plus,G_minus\n"
        "0,1.5,-0.25\n"
        "0.5,,\n"
        "1,-2,3.0000000000000002e-300\n"
        "1.5,,-1.0000000000000001e-05\n")
    # One parity, no baselines: the missing column and a non-finite value
    # are empty cells, and no baselines line is written.
    one = tmp_path / "one.csv"
    _write_trace_csv([GTrace(Parity.MINUS, grid[:3], np.array([0.1, 0.2, np.inf]), ())],
                     str(one), ())
    assert one.read_text() == (
        "E,G_plus,G_minus\n"
        "0,,0.10000000000000001\n"
        "0.5,,0.20000000000000001\n"
        "1,,\n")
    # Non-finite first and last rows, a row where only E is finite, and -0.0,
    # written as _fmt writes it.
    grid = np.array([0.0, 0.25, 0.5, 0.75])
    edges = tmp_path / "edges.csv"
    _write_trace_csv([GTrace(Parity.PLUS, grid, np.array([np.nan, -0.0, np.nan, 1.0]), ()),
                      GTrace(Parity.MINUS, grid, np.array([2.0, 0.5, np.inf, -np.inf]),
                             ())],
                     str(edges), ())
    assert edges.read_text() == (
        "E,G_plus,G_minus\n"
        "0,,2\n"
        "0.25,-0,0.5\n"
        "0.5,,\n"
        "0.75,1,\n")


def test_catalog_csv_and_sidecar_bytes(tmp_path):
    hits = [
        FlatLineHit("delta1+delta2=1", ModelParams(1.0, 0.6, 0.4, 0.5, 0.5),
                    1, Parity.PLUS, 1.0, -2.5e-17, True),
        FlatLineHit("other", ModelParams(1.0, 0.3, 0.7, 0.5, 0.5, 0.1, 0.2, -0.3),
                    2, Parity.MINUS, 1 / 3, 1e-12, False),
    ]
    states = [ExceptionalState(1.0, Parity.PLUS, ((0, "ee", 0.6), (1, "gg", -0.8))), None]
    out = tmp_path / "catalog.csv"
    side = tmp_path / "catalog.csv.states.csv"
    _write_catalog_csv(hits, states, str(out), ["tqrabi exceptional"])
    assert out.read_text() == (
        "# tqrabi exceptional\n"
        "N,parity,energy,condition_value,g_independent,manifold_label,"
        "delta1,delta2,jx,jy,jz\n"
        "1,1,1,-2.4999999999999999e-17,true,delta1+delta2=1,"
        "0.59999999999999998,0.40000000000000002,0,0,0\n"
        "2,-1,0.33333333333333331,9.9999999999999998e-13,false,other,"
        "0.29999999999999999,0.69999999999999996,0.10000000000000001,"
        "0.20000000000000001,-0.29999999999999999\n")
    assert side.read_text() == (
        "hit,n,s1s2,amplitude\n"
        "0,0,ee,0.59999999999999998\n"
        "0,1,gg,-0.80000000000000004\n")
