"""Checks of the CSV each command wrote, against the independent reference.

Every check returns a list of problems; an empty list means the output is
right. Nothing is compared with a stored copy of earlier output: levels come
from `reference.levels`, baselines and dark states from closed forms, and
the trace is checked for the property that G changes sign exactly across
an odd number of levels between two poles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

import reference
from workloads import DARK_MISSING, POLE_MARGIN_LEVEL, SWEEP_LEVELS, Command

GFUNCTION_TOL = 1e-6     # times omega, the program's own verification bound
ORACLE_TOL = 1e-8        # times omega, the oracle's drift certificate
BASELINE_EXCUSE = 1e-9   # times omega: a level this close to a baseline is cutoff-only
EDGE_EXCUSE = 2e-6       # times omega: find_roots scans from e_min + 1e-6
FLAT_TOL = 1e-9          # times omega: a flat level moves less than this with g
POLE_MARGIN = 1e-6       # times omega: trace cells this close to a pole are empty


class Problem(NamedTuple):
    """One wrong or missing output: a kind, where it is, and a message."""

    kind: str
    energy: float
    parity: int
    text: str
    g: float = math.nan


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """Comment lines (without '# ') and data rows keyed by the header."""
    comments, body = [], []
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                comments.append(line[2:])
            elif line:
                body.append(line)
    if not body:
        return comments, []
    header = body[0].split(",")
    return comments, [dict(zip(header, ln.split(","))) for ln in body[1:]]


def _nearest(levels: np.ndarray, e: float) -> tuple[int, float]:
    if not levels.size:
        return -1, math.inf
    i = int(np.argmin(np.abs(levels - e)))
    return i, abs(float(levels[i]) - e)


def _in_window(levels: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return levels[(levels >= lo - 1e-9) & (levels <= hi + 1e-9)]


def check_spectrum(cmd: Command, path: str) -> list[Problem]:
    m, (lo, hi) = cmd.model, cmd.window
    w = m.omega
    ref = {s: _in_window(v, lo, hi) for s, v in reference.levels(m, hi).items()}
    bl = np.array(reference.baselines(m, lo - 1.0, hi + 1.0))
    _, rows = read_csv(path)
    problems = []
    matched = {(meth, s): [] for meth in ("gfunction", "oracle") for s in (1, -1)}
    for r in rows:
        e, s, meth = float(r["E"]), int(r["parity"]), r["method"]
        tol = {"gfunction": GFUNCTION_TOL, "oracle": ORACLE_TOL}.get(meth)
        if tol is None or s not in ref:
            problems.append(Problem("row", e, s, f"unexpected row {r}"))
            continue
        i, d = _nearest(ref[s], e)
        if d > tol * w:
            problems.append(Problem("wrong", e, s, f"{meth} level {e!r} is {d:.3e} "
                                    "from every reference level"))
        elif i in matched[(meth, s)]:
            problems.append(Problem("repeat", e, s, f"{meth} level {e!r} repeats"))
        else:
            matched[(meth, s)].append(i)
    for s in (1, -1):
        for i, e in enumerate(ref[s]):
            # The oracle rows are cut to lo <= E <= hi exactly.
            if lo <= e <= hi and i not in matched[("oracle", s)]:
                problems.append(Problem("no-oracle", e, s,
                                        f"reference level {e!r} has no oracle row"))
            if i not in matched[("gfunction", s)]:
                if min(e - lo, hi - e) < EDGE_EXCUSE * w:
                    continue
                if bl.size and np.min(np.abs(bl - e)) < BASELINE_EXCUSE * w:
                    continue
                problems.append(Problem("no-root", e, s, f"reference level {e!r} "
                                        "has no gfunction root"))
    return problems


def check_sweep(cmd: Command, path: str) -> list[Problem]:
    m, (lo, hi) = cmd.model, cmd.window
    w = m.omega
    _, rows = read_csv(path)
    problems = []
    by_g: dict[float, list[dict[str, str]]] = {g: [] for g in cmd.g_grid}
    for r in rows:
        g = float(r["g"])
        if g not in by_g:
            problems.append(Problem("row", math.nan, 0, f"row {r} off the g grid"))
            continue
        if r["status"] != "ok":
            problems.append(Problem("row", math.nan, 0, f"row {r} not ok", g))
            continue
        by_g[g].append(r)
    refs = {g: reference.levels(m.with_g(g), hi) for g in cmd.g_grid}
    for g, ref in refs.items():
        # The oracle reports the lowest SWEEP_LEVELS levels, then the window.
        lowest = sorted((float(e), s) for s in (1, -1) for e in ref[s])[:SWEEP_LEVELS]
        want = [(e, s) for e, s in lowest if lo <= e <= hi]
        got = sorted((float(r["E"]), int(r["parity"]))
                     for r in by_g[g] if r["method"] == "oracle")
        if len(got) != len(want) or any(
                s1 != s2 or abs(e1 - e2) > ORACLE_TOL * w
                for (e1, s1), (e2, s2) in zip(got, want)):
            problems.append(Problem("oracle", math.nan, 0, f"oracle rows {got}, "
                                    f"reference lowest levels {want}", g))
        for r in by_g[g]:
            if r["method"] == "oracle":
                continue
            e, s = float(r["E"]), int(r["parity"])
            if r["method"] != "exceptional":
                problems.append(Problem("row", e, s, f"unexpected row {r}", g))
            elif _nearest(ref[s], e)[1] > ORACLE_TOL * w:
                problems.append(Problem("wrong", e, s, "exceptional row is not "
                                        "a reference level", g))
    flat = flat_levels(refs, lo, hi, w)
    for e, s in reference.dark_state_energies(m, lo, hi):
        if not any(s == s2 and abs(e - e2) < FLAT_TOL * w for e2, s2 in flat):
            problems.append(Problem("reference", e, s, f"analytic dark state {e!r} "
                                    "is not a flat reference level"))
    for e, s in flat:
        for g in cmd.g_grid:
            if not any(r["method"] == "exceptional" and int(r["parity"]) == s
                       and abs(float(r["E"]) - e) < FLAT_TOL * w
                       for r in by_g[g]):
                problems.append(Problem("flat-missing", e, s,
                                        f"flat level {e!r} has no exceptional row", g))
    return problems


def flat_levels(refs: dict[float, dict[int, np.ndarray]], lo: float, hi: float,
                omega: float) -> list[tuple[float, int]]:
    """Reference levels in the window that sit at the same energy at every g."""
    first, *rest = refs.values()
    out = []
    for s in (1, -1):
        for e in _in_window(first[s], lo, hi):
            if all(_nearest(_in_window(r[s], lo, hi), e)[1] < FLAT_TOL * omega
                   for r in rest):
                out.append((float(e), s))
    return out


def check_trace(cmd: Command, path: str) -> list[Problem]:
    m, (lo, hi), step = cmd.model, cmd.window, cmd.step
    w = m.omega
    comments, rows = read_csv(path)
    problems = []
    listed = []
    for line in comments:
        if line.startswith("baselines: "):
            listed = [float(tok.rpartition("@")[2]) for tok in line.split()[1:]]
    want = sorted(set(round(b, 12) for b in reference.baselines(m, lo, hi)))
    got = sorted(set(round(b, 12) for b in listed))
    if len(got) != len(want) or np.max(np.abs(np.subtract(got, want)),
                                       initial=0.0) > 1e-10 * w:
        problems.append(Problem("baselines", math.nan, 0,
                                f"listed baselines {got} differ from {want}"))
    grid = np.array([float(r["E"]) for r in rows])
    expect = np.arange(lo / w, hi / w + step / w / 2, step / w) * w
    if grid.shape != expect.shape or np.max(np.abs(grid - expect)) > 1e-9 * w:
        return problems + [Problem("grid", math.nan, 0, f"energy grid of {grid.size} "
                                   f"points, {expect.size} requested")]
    poles = np.array(reference.baselines(m, lo - 1.0, hi + 1.0))
    a, b = grid[:-1], grid[1:]
    # A pole in or at a cell: no sign rule holds there.
    near_pole = (np.searchsorted(poles, b + 2 * POLE_MARGIN * w, "right")
                 > np.searchsorted(poles, a - 2 * POLE_MARGIN * w, "left"))
    for s, levels in reference.levels(m, hi + step).items():
        col = "G_plus" if s == 1 else "G_minus"
        vals = np.array([float(r[col]) if r[col] else math.nan for r in rows])
        count = np.searchsorted(levels, b, "left") - np.searchsorted(levels, a, "right")
        # A level on a grid point makes the sign there noise.
        k = np.clip(np.searchsorted(levels, grid), 1, max(levels.size - 1, 1))
        gap = np.minimum(np.abs(levels[k - 1] - grid), np.abs(levels[k] - grid)) \
            if levels.size > 1 else np.full(grid.size, math.inf)
        on_grid = gap < 1e-9 * w
        rule = ~near_pole & ~on_grid[:-1] & ~on_grid[1:]
        fa, fb = vals[:-1], vals[1:]
        finite = np.isfinite(fa) & np.isfinite(fb)
        for i in np.flatnonzero(rule & ~finite):
            problems.append(Problem("not-finite", a[i], s, f"G not finite on "
                                    f"[{a[i]!r}, {b[i]!r}], away from every pole"))
        rule &= finite & (fa != 0.0) & (fb != 0.0)
        change = (fa > 0) != (fb > 0)
        for i in np.flatnonzero(rule & change & (count % 2 == 0)):
            problems.append(Problem("wrong", a[i], s, f"G changes sign on [{a[i]!r}, "
                                    f"{b[i]!r}] around {count[i]} levels"))
        for i in np.flatnonzero(rule & ~change & (count % 2 == 1)):
            e = float(levels[np.searchsorted(levels, a[i], "right")])
            problems.append(Problem("no-root", e, s,
                                    f"no sign change of G on [{a[i]!r}, {b[i]!r}]"))
    return problems


CHECKS = {"spectrum": check_spectrum, "sweep": check_sweep, "trace": check_trace}


def known_fault(cmd: Command, problems: list[Problem]) -> bool:
    """Whether the problems are exactly the known fault this command shows."""
    if cmd.fault == "pole-margin":
        return (len(problems) == 1 and problems[0].kind == "no-root"
                and problems[0].parity == 1
                and abs(problems[0].energy - POLE_MARGIN_LEVEL) < 1e-9)
    if cmd.fault == "dark-omega":
        w = cmd.model.omega
        want = {(e, -(-1) ** round(e / w), g) for e in DARK_MISSING
                for g in cmd.g_grid}
        got = {(round(p.energy / w) * w, p.parity, p.g) for p in problems
               if p.kind == "flat-missing" and abs(p.energy / w - round(p.energy / w))
               < 1e-9}
        return len(problems) == len(want) and got == want
    if cmd.fault == "reduced6-switch":
        # No gfunction root at all: every reference level of the window is
        # reported missing, and nothing else is wrong.
        lo, hi = cmd.window
        want = {(round(float(e), 9), s)
                for s, v in reference.levels(cmd.model, hi).items()
                for e in v if lo <= e <= hi}
        got = {(round(float(p.energy), 9), p.parity) for p in problems
               if p.kind == "no-root"}
        return len(problems) == len(want) and got == want
    return False
