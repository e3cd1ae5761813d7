import dataclasses
import importlib
import math
import pickle
import pkgutil

import pytest

import tqrabi
from tqrabi import (
    Baseline,
    ConfigError,
    ModelParams,
    Parity,
    RequiresValidCouplings,
    baselines,
    cli,
    exceptional,
    load_params,
    series,
)


def test_derived_accessors():
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    assert p.g == pytest.approx(0.3)
    assert p.gprime == pytest.approx(0.18)


def test_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.5, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.5, 0.5, -0.1, 0.1)


def test_require_analytic():
    ModelParams(1.0, 0.5, 0.5, 0.1, 0.2).require_analytic()
    with pytest.raises(RequiresValidCouplings):
        ModelParams(1.0, 0.5, 0.5, 0.0, 0.2).require_analytic()


def test_canonical_swaps_qubit_labels():
    p = ModelParams(1.0, 0.6, 0.2, 0.06, 0.24, jy=0.1, jz=0.2)
    q = p.canonical()
    assert q.gprime > 0
    assert (q.g1, q.g2, q.delta1, q.delta2) == (0.24, 0.06, 0.2, 0.6)
    assert (q.jy, q.jz) == (p.jy, p.jz)
    assert q.canonical() is q  # idempotent on already-canonical


def test_with_g_preserves_ratio():
    p = ModelParams(1.0, 0.6, 0.2, 0.4, 0.1)
    q = p.with_g(2.0)
    assert q.g == pytest.approx(2.0)
    assert q.g1 / q.g2 == pytest.approx(4.0)


def test_scaled_is_omega_one():
    p = ModelParams(2.0, 1.2, 0.4, 0.48, 0.12, jx=0.4)
    sp = p.scaled()
    assert sp.omega == 1.0
    assert sp.delta1 == pytest.approx(0.6)
    assert sp.g == pytest.approx(0.3)
    assert sp.jx == pytest.approx(0.2)


def test_scaled_copy_built_once_and_kept_out_of_the_value():
    # The omega = 1 copy is made once per instance. Fields, equality, hash,
    # replace and pickling see only the eight couplings, as before it was kept.
    p = ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1)
    fresh = ModelParams(0.5, 0.35, 0.15, 0.45, 0.2, jx=0.05, jz=-0.1)
    before = pickle.dumps(p)
    sp = p.scaled()
    assert p.scaled() is sp
    assert pickle.dumps(p) == before == pickle.dumps(fresh)
    assert p == fresh and hash(p) == hash(fresh)
    assert [f.name for f in dataclasses.fields(p)] == [
        "omega", "delta1", "delta2", "g1", "g2", "jx", "jy", "jz"]
    assert pickle.loads(before).scaled() == sp
    assert dataclasses.replace(p, g1=1.0).scaled().g1 == 2.0


def test_baselines_second_and_first_kind():
    # Direct evaluation of E = n - g'^2 and E = n - g^2 inside the window.
    p = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    out = baselines(p, -0.2, 1.0)
    second = sorted(b.energy for b in out if b.kind == "second")
    first = sorted(b.energy for b in out if b.kind == "first")
    assert second == pytest.approx([-0.18 ** 2, 1 - 0.18 ** 2])
    assert first == pytest.approx([-0.09, 0.91])
    assert [b.energy for b in out] == sorted(b.energy for b in out)


def test_baselines_cross_kind_coincidence_kept():
    p = ModelParams(1.0, 0.5, 0.5, 0.5, 0.5)  # g = 1, g' = 0
    out = baselines(p, -1.5, 0.5)
    first = sorted(b.energy for b in out if b.kind == "first")
    second = sorted(b.energy for b in out if b.kind == "second")
    assert first == pytest.approx([-1.0, 0.0])
    assert second == pytest.approx([0.0])


def test_baselines_invalid_range():
    p = ModelParams(1.0, 0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        baselines(p, 1.0, 1.0)


ASYM, FLAT = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06), ModelParams(1.0, 0.6, 0.4, 0.5, 0.5)
ENTRY_POINTS = {
    ("e_min", "baselines"): lambda x: baselines(ASYM, x, 3.0),
    ("e_min", "levels"): lambda x: exceptional.levels(FLAT, Parity.PLUS, x, 3.0),
    ("e_max", "baselines"): lambda x: baselines(ASYM, -1.0, x),
    ("e_max", "levels"): lambda x: exceptional.levels(FLAT, Parity.PLUS, -1.0, x),
}
# A window's lower end may be -inf (test_window_lower_end_may_be_minus_infinity).
NON_FINITE = {"e_min": (math.nan,), "e_max": (math.nan, math.inf)}


@pytest.mark.parametrize("name, fn, value", [
    (name, fn, value) for name, fn in ENTRY_POINTS for value in NON_FINITE[name]])
def test_non_finite_energies_are_value_errors(name, fn, value):
    # A ValueError that names the argument, not an overflow, an empty result
    # or a table of NaN.
    with pytest.raises(ValueError, match=name):
        ENTRY_POINTS[name, fn](value)


@pytest.mark.parametrize("ends", [(math.nan,), (math.inf,), (-math.inf,), (1.0, math.nan)])
def test_require_reach_rejects_non_finite_ends(ends):
    # The one check of every window's ends (e_max, e_min): a NaN e_max used
    # to pass it.
    with pytest.raises(ValueError, match="e_max must be finite and e_min not NaN"):
        FLAT.require_reach(*ends)


def test_window_lower_end_may_be_minus_infinity():
    assert baselines(ASYM, -math.inf, 3.0) == baselines(ASYM, -10.0, 3.0)
    levels = exceptional.levels(FLAT, Parity.PLUS, -math.inf, 3.0)
    assert levels == exceptional.levels(FLAT, Parity.PLUS, -1.0, 3.0)
    assert [e for _, e, _, _ in levels] == [1.0]


def test_exports_resolve():
    modules = [tqrabi] + [importlib.import_module(f"tqrabi.{m.name}")
                          for m in pkgutil.iter_modules(tqrabi.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # The matching points are the solver's own (gfunction._chain).
    for module in (tqrabi, tqrabi.gfunction):
        for name in ("MatchingScheme", "default_scheme"):
            assert not hasattr(module, name)


def test_baselines_exchange_kind():
    p = ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, jx=0.5, jy=0.5, jz=0.5)
    out = baselines(p, -1.0, 1.5)
    exch = sorted(b.energy for b in out if b.kind == "exchange")
    # E = n - jx +/- (jy + jz): {n - 1.5, n + 0.5}
    assert exch == pytest.approx([-0.5, 0.5, 1.5])


def _quadratic_baselines(p, e_min, e_max):
    """The pairwise rule: each divisor, taken by index, is dropped when it
    lies within 1e-12 omega of one already kept in its kind."""
    sp, w = p.scaled(), p.omega
    out = []
    for c in series._centers(sp):
        kept = []
        for n, e in sorted((n, e) for s in (1, -1)
                           for n, e, _ in series._slaving(sp, s, c, e_max / w)[2]
                           if e_min / w - 1e-12 <= e <= e_max / w + 1e-12):
            if not any(abs(b.energy - e * w) < 1e-12 * w for b in kept):
                kept.append(Baseline(c.kind, n, e * w))
        out += kept
    return sorted(out, key=lambda b: (b.energy, b.kind, b.index))


@pytest.mark.parametrize("p, cap", [
    (ModelParams(1.0, 0.6, 0.4, 0.5, 0.5), True),                       # g' = 0
    (ModelParams(1.0, 0.6, 0.2, 0.24, 0.06), True),                     # g' > 0
    (ModelParams(1.0, 0.55, 0.45, 0.375, 0.375, 0.5, 0.5, 0.5), False),  # exact ties
    (ModelParams(1.0, 0.6, 0.4, 0.5, 0.5, 0.3, 0.1, 0.4), True),        # ties to ulps
    (ModelParams(0.7, 0.42, 0.28, 0.35, 0.35, 0.21, 0.07, 0.28), False),
    (ModelParams(0.5, 0.3, 0.1, 0.12, 0.03, 0.1, 0.2, -0.2), True),     # jy + jz = 0
    (ModelParams(2.0, 1.2, 0.4, 0.48, 0.12, 0.2, 0.3, 0.5), False),
    (ModelParams(0.82, 0.78, 0.78, 1.36, 1.36, 0.28, -0.09, -0.01), False),
])
def test_baselines_merge_keeps_the_pairwise_rule(p, cap):
    # One sorted merge per kind lists what the pairwise rule lists, up to
    # the photon cap: the same kinds, indices and energies, bit for bit.
    w = p.omega
    for lo, hi in [(-w, 6 * w), (-math.inf, 40 * w)] + [(-w, 1200 * w)] * cap:
        got = baselines(p, lo, hi)
        assert got == _quadratic_baselines(p, lo, hi), (lo, hi)


def test_baselines_swap_invariance():
    a = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jy=0.3, jz=0.3)
    b = ModelParams(1.0, 0.2, 0.6, 0.06, 0.24, jy=0.3, jz=0.3)
    ea = [(x.kind, x.energy) for x in baselines(a, -1, 2)]
    eb = [(x.kind, x.energy) for x in baselines(b, -1, 2)]
    assert ea == eb


def test_baselines_rescale_with_omega():
    p1 = ModelParams(1.0, 0.6, 0.2, 0.24, 0.06)
    p2 = ModelParams(2.0, 1.2, 0.4, 0.48, 0.12)
    e1 = [b.energy for b in baselines(p1, -0.2, 1.0)]
    e2 = [b.energy for b in baselines(p2, -0.4, 2.0)]
    assert e2 == pytest.approx([2 * e for e in e1])


def test_parity_parsing_and_sign(capsys):
    # The CLI maps the three --parity choices, which argparse restricts.
    assert cli._parities("plus") == (Parity.PLUS,)
    assert cli._parities("minus") == (Parity.MINUS,)
    assert cli._parities("both") == (Parity.PLUS, Parity.MINUS)
    assert Parity.PLUS.sign == 1 and Parity.MINUS.sign == -1
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["trace", "--config", "m.cfg", "--emin", "0",
                                       "--emax", "1", "--parity", "sideways"])
    assert "invalid choice: 'sideways'" in capsys.readouterr().err


def test_load_params(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("""
# comment
[model]
omega = 1.0
delta1 = 0.6
delta2 = 0.2   ; trailing comment
g1 = 0.24
g2 = 0.06
jy = 0.1
""")
    p = load_params(cfg)
    assert p == ModelParams(1.0, 0.6, 0.2, 0.24, 0.06, jy=0.1)


@pytest.mark.parametrize("body,fragment", [
    ("omega = 1\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\n", "missing keys"),
    ("omega = 1\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\ng2 = x\n", "bad number"),
    ("omega = 1\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\ng2 = 0.1\nzz = 3\n",
     "unknown key"),
    ("omega = 0\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\ng2 = 0.1\n", "omega"),
    ("omega = 1\ndelta1 = nan\ndelta2 = 0.2\ng1 = 0.1\ng2 = 0.1\n", "finite: delta1"),
    ("omega = inf\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\ng2 = 0.1\njz = -inf\n",
     "finite: omega, jz"),
])
def test_load_params_errors(tmp_path, body, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        load_params(cfg)


def test_load_params_duplicate_key(tmp_path):
    # A key set twice is refused with both of its lines, not kept at the last value.
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("omega = 1\ndelta1 = 0.6\ndelta2 = 0.2\ng1 = 0.1\n"
                   "# later\n[model]\nG1 = 0.3\ng2 = 0.1\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:7: key 'g1' already set on line 4"):
        load_params(cfg)


def test_load_params_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_params(tmp_path / "absent.cfg")


def test_baseline_is_value_type():
    b = Baseline("first", 2, 1.5)
    assert b == Baseline("first", 2, 1.5)
