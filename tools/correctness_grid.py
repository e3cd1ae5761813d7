"""Correctness grid: G-function roots against the oracle on 60 seeded models.

Run from the repository root:

    PYTHONPATH=src python tools/correctness_grid.py

Each model draws delta1, delta2 from U(0.05, 1) and g = g1 + g2 from
U(0.1, 2.5); g'/g comes from U(0, 0.08) for every third model, starting
with the first, and from U(0, 0.95) for the others; every second model,
starting with the second, adds exchange terms J from U(-0.5, 0.5)^3
(numpy.random.default_rng(12345), drawn in that order). Both parities are
searched on [-1, 2.5], verified against one oracle window at truncation 300.
Every oracle level without a root within 1e-6 is printed as a miss. The
oracle window started from the model (truncation None) must give the same
levels as the one at 300: the same count per parity, within 1e-8 omega. So
must the lowest 8 levels solved from oracle.level_truncation, the start of
diagonalize(p, None, 8) and of sweep's oracle rows, against the lowest 8 of
the window at 300; that solve must certify every level at its start. The
largest such start, its worst tail bound and the number of models that
needed a second truncation are printed. G is also evaluated on each model's
search grid as one two-sign call, +1 alone, -1 alone and one call with the
sign alternating per energy; every value (NaN where a series does not
converge) and pole mask must keep its bytes across the four, and the time
this check takes is printed. The number of
levels whose root find_roots settled in its scan, a root inside a probe pair
of its parity (gfunction._level_probes), is printed beside the number left
to refinement. Every root of the search with levels is checked against the
search without levels, which refines every bracket: a root of that search of
its parity must lie within SETTLED_TOL of it, since a settled root is within
ROOT_TOL/2 of the eigenvalue and a refined one within ROOT_TOL, and a scan
cell that no pair splits is refined alike in both searches; the largest
distance is printed. The search without levels is checked for misses too.
Dark cutoff states, no roots of G, are left out of both searches' misses
(they need equal couplings, which no model here has). The `_gvalues` calls
and energies of both searches over the 60 models are printed as work
ratchets.

A second, weak-coupling set of WEAK_MODELS models draws delta1, delta2 from
U(0.05, 1), g from U(0.02, 0.15), g'/g from U(0.05, 0.9) and, on every
second model starting with the second, J from U(-0.5, 0.5)^3
(numpy.random.default_rng(7), in that order), and searches both parities on
[-1, 3] with levels and without. There two levels of one parity can sit
within about g^2 of a baseline, one on either side, inside one scan cell:
the set guards the points find_roots puts beside every baseline. Its misses
and its roots more than 1e-6 from every level are printed, for each search.

Exit status 1 on G values or pole masks that differ between those batches, on an
oracle window or a lowest-8 solve that differs from the one at 300, on a
lowest-8 solve that needed a second truncation (known: 0), on an unverified
root, a root with no root of the search without levels within SETTLED_TOL,
a SolverError, a parity with more roots than oracle levels in the window
(no two roots may take one level; the largest surplus is printed), a miss
at g'/g >= 0.02, or more misses at g'/g < 0.02 than
KNOWN_SMALL_GPRIME_MISSES, in either search. Those levels are lost because
at small g' the matching point lies near the edge of both disks and G is NaN
on much of the grid; a chain with regular centers is the fix, and then the
bound goes down. It also exits 1 when the G calls or energies of either
search rise above KNOWN_WORK, and on any miss or root off a level in the
weak-coupling set.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from tqrabi import (ModelParams, Parity, SolverError, SpectrumResult, exceptional,
                    gfunction, oracle)

SEED = 12345
MODELS = 60
WINDOW = (-1.0, 2.5)
TRUNCATION = 300
MATCH_TOL = 1e-6
START_TOL = 1e-8
LEVELS = 8
SMALL_GPRIME = 0.02
KNOWN_SMALL_GPRIME_MISSES = 82
SETTLED_TOL = 1.5 * gfunction.ROOT_TOL
BOTH = (Parity.PLUS, Parity.MINUS)
# (G calls, energies) of find_roots over the 60 models, with levels and
# without; a change that does more work must say why and raise them.
KNOWN_WORK = {"with levels": (69, 23_574), "without levels": (312, 38_097)}
WEAK_SEED = 7
WEAK_MODELS = 30
WEAK_WINDOW = (-1.0, 3.0)


def models(seed: int = SEED, count: int = MODELS) -> list[ModelParams]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d1, d2 = rng.uniform(0.05, 1.0, 2)
        g = rng.uniform(0.1, 2.5)
        gp = g * rng.uniform(0.0, 0.08 if i % 3 == 0 else 0.95)
        j = rng.uniform(-0.5, 0.5, 3) if i % 2 else np.zeros(3)
        out.append(ModelParams(1.0, float(d1), float(d2), float((g + gp) / 2),
                               float((g - gp) / 2), *map(float, j)))
    return out


def weak_models(seed: int = WEAK_SEED, count: int = WEAK_MODELS) -> list[ModelParams]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d1, d2 = rng.uniform(0.05, 1.0, 2)
        g = rng.uniform(0.02, 0.15)
        gp = g * rng.uniform(0.05, 0.9)
        j = rng.uniform(-0.5, 0.5, 3) if i % 2 else np.zeros(3)
        out.append(ModelParams(1.0, float(d1), float(d2), float((g + gp) / 2),
                               float((g - gp) / 2), *map(float, j)))
    return out


def _counted(work: dict[str, list[int]], key: str, search):
    """search(), with its gfunction._gvalues calls and energies added to work[key]."""
    gvalues, seen = gfunction._gvalues, work.setdefault(key, [0, 0])

    def counted(sp, signs, energies):
        seen[0] += 1
        seen[1] += energies.size
        return gvalues(sp, signs, energies)

    gfunction._gvalues = counted
    try:
        return search()
    finally:
        gfunction._gvalues = gvalues


def _misses(p: ModelParams, found: SpectrumResult, levels: SpectrumResult,
            parity: Parity, window: tuple[float, float]) -> list[float]:
    """Levels of the parity in the window without a root within MATCH_TOL,
    dark cutoff states left out: they are no roots."""
    roots = np.array(found.filtered(parity).energies())
    dark = [e for _, e, _, k in exceptional.levels(p, parity, *window) if k == 0]
    return [e for e in levels.filtered(parity).energies()
            if window[0] <= e <= window[1]
            and not (roots.size and np.min(np.abs(roots - e)) < MATCH_TOL)
            and not any(abs(e - d) < MATCH_TOL for d in dark)]


def _off_levels(found: SpectrumResult, levels: SpectrumResult) -> int:
    """Roots without a level of their parity within MATCH_TOL."""
    return sum(not np.any(np.abs(np.array(levels.filtered(r.parity).energies())
                                 - r.energy) < MATCH_TOL) for r in found)


def _weak_set(work: dict[str, list[int]]) -> tuple[dict[str, list[int]], list[str]]:
    """(misses, roots off a level) of each search over the weak-coupling set,
    and a failure line for each model with any."""
    counts, failures = {"with levels": [0, 0], "without levels": [0, 0]}, []
    for i, p in enumerate(weak_models()):
        levels = oracle.window(p, TRUNCATION, WEAK_WINDOW[1], BOTH)
        for key, given in (("with levels", levels), ("without levels", None)):
            try:
                found = _counted(work, "weak " + key, lambda: gfunction.find_roots(
                    p, BOTH, *WEAK_WINDOW, levels=given))
            except SolverError as exc:
                failures.append(f"weak model {i} {p}: {type(exc).__name__}: {exc}")
                continue
            missed = [e for parity in BOTH for e in _misses(p, found, levels, parity,
                                                           WEAK_WINDOW)]
            off = _off_levels(found, levels)
            counts[key][0] += len(missed)
            counts[key][1] += off
            for e in missed:
                print(f"miss ({key}): weak model {i} E = {e!r}")
            if missed or off:
                failures.append(f"weak model {i} {p}, {key}: {len(missed)} missed "
                                f"levels, {off} roots off a level")
    return counts, failures


def _differs(a: np.ndarray, b: np.ndarray, omega: float) -> bool:
    return a.size != b.size or np.max(np.abs(a - b), initial=0.0) >= START_TOL * omega


def _g_batches_agree(p: ModelParams) -> bool:
    """G on the search grid of find_roots, as one two-sign call, +1 alone, -1
    alone and one call alternating the sign per energy: values and pole
    masks must agree byte for byte."""
    sp = gfunction._prepare(p)
    xs = gfunction._scan_grid(sp, *gfunction._window(p, *WINDOW, None))
    both = gfunction._gvalues(sp, np.array([[1], [-1]]), xs)
    alt = np.where(np.arange(xs.size) % 2, -1, 1)
    mixed = gfunction._gvalues(sp, alt, xs)
    for i, sign in enumerate((1, -1)):
        alone = gfunction._gvalues(sp, sign, xs)
        taken = alt == sign
        for b, a, m in zip(both, alone, mixed):
            if b[i].tobytes() != a.tobytes() or b[i][taken].tobytes() != m[taken].tobytes():
                return False
    return True


def main() -> int:
    t0 = time.perf_counter()
    failures, levels_total, surplus, settled_total, gap_max = [], 0, 0, 0, 0.0
    small, work = {"with levels": 0, "without levels": 0}, {}
    largest_start, worst_bound, second_solves = 0, 0.0, 0
    batch_s = 0.0
    for i, p in enumerate(models()):
        t1 = time.perf_counter()
        if not _g_batches_agree(p):
            failures.append(f"model {i} {p}: G differs between a two-sign call, one "
                            f"sign alone and signs alternating per energy")
        batch_s += time.perf_counter() - t1
        ratio = (p.g1 - p.g2) / (p.g1 + p.g2)
        levels = oracle.window(p, TRUNCATION, WINDOW[1], BOTH)
        started = oracle.window(p, None, WINDOW[1], BOTH)
        for parity in BOTH:
            a, b = (np.array(r.filtered(parity).energies()) for r in (started, levels))
            if _differs(a, b, p.omega):
                failures.append(f"model {i} {p}: parity {parity.sign} window from the "
                                f"model start differs from truncation {TRUNCATION}")
        start = oracle.level_truncation(p, LEVELS)
        lowest, signs, bounds, used = oracle.certified_spectrum(p, start, (1, -1), LEVELS)
        largest_start, worst_bound = max(largest_start, start), max(worst_bound, bounds.max())
        if used > start:
            second_solves += 1
            failures.append(f"model {i} {p}: lowest {LEVELS} levels needed truncation "
                            f"{used}, past the start {start}")
        # The window at 300 holds every level up to its cut, e_max + omega/2.
        ref = SpectrumResult(levels.records[:LEVELS])
        if ref.records[-1].energy > WINDOW[1] + 0.5 * p.omega:
            failures.append(f"model {i} {p}: fewer than {LEVELS} levels below the cut")
        for parity in BOTH:
            if _differs(lowest[signs == parity.sign],
                        np.array(ref.filtered(parity).energies()), p.omega):
                failures.append(f"model {i} {p}: parity {parity.sign} lowest {LEVELS} levels "
                                f"from the model start differ from truncation {TRUNCATION}")
        try:
            found = _counted(work, "with levels", lambda: gfunction.find_roots(
                p, BOTH, *WINDOW, levels=levels))
            plain = _counted(work, "without levels",
                             lambda: gfunction.find_roots(p, BOTH, *WINDOW))
        except SolverError as exc:
            failures.append(f"model {i} {p}: {type(exc).__name__}: {exc}")
            continue
        # A root inside its level's probe pair was settled in the scan.
        sp = gfunction._prepare(p)
        poles = {s: [b for b, k in gfunction._poles(sp, s, WINDOW[1]) if k == 1]
                 for s in (1, -1)}
        _, (ps, pa, pb) = gfunction._level_probes(
            levels, (1, -1), p.omega, *WINDOW, poles, gfunction.ROOT_TOL)
        for r in found:
            x, s = r.energy, r.parity.sign
            settled_total += bool(np.any((ps == s) & (pa < x) & (x < pb)))
            refined = np.array(plain.filtered(r.parity).energies())
            gap = float(np.min(np.abs(refined - x), initial=np.inf))
            gap_max = max(gap_max, gap)
            if not gap <= SETTLED_TOL:  # NaN too
                failures.append(f"model {i} {p}: root {x!r}, parity {s}, is {gap:.2e} "
                                f"from the nearest root of the search without levels")
        for parity in BOTH:
            res = found.filtered(parity)
            failures += [f"model {i} {p}: unverified root {r.energy!r}, parity {parity.sign}"
                         for r in res if not r.verified]
            inside = [e for e in levels.filtered(parity).energies()
                      if WINDOW[0] <= e <= WINDOW[1]]
            surplus = max(surplus, len(res) - len(inside))
            if len(res) > len(inside):
                failures.append(f"model {i} {p}: {len(res)} roots for {len(inside)} "
                                f"oracle levels, parity {parity.sign}")
            levels_total += len(inside)
            for key, res in (("with levels", found), ("without levels", plain)):
                for e in _misses(p, res, levels, parity, WINDOW):
                    print(f"miss ({key}): model {i} g'/g = {ratio:.4f} "
                          f"parity {parity.sign:+d} E = {e!r}")
                    if ratio < SMALL_GPRIME:
                        small[key] += 1
                    else:
                        failures.append(f"model {i} {p}: missed level {e!r} at g'/g = "
                                        f"{ratio:.4f}, {key}")
    for key, n in small.items():
        if n > KNOWN_SMALL_GPRIME_MISSES:
            failures.append(f"{n} misses at g'/g < {SMALL_GPRIME} {key}, more than the "
                            f"{KNOWN_SMALL_GPRIME_MISSES} known")
    for key, known in KNOWN_WORK.items():
        if any(n > k for n, k in zip(work.get(key, (0, 0)), known)):
            failures.append(f"find_roots {key} made {work[key][0]} G calls over "
                            f"{work[key][1]} energies, more than the known {known[0]} "
                            f"calls over {known[1]}")
    weak, weak_failures = _weak_set(work)
    failures += weak_failures
    print(f"{MODELS} models, {levels_total} oracle levels, {small['with levels']} missed "
          f"at g'/g < {SMALL_GPRIME} with levels and {small['without levels']} without "
          f"(known: {KNOWN_SMALL_GPRIME_MISSES}), "
          f"largest root surplus {surplus}, {settled_total} levels settled by "
          f"probes and {levels_total - settled_total} left to refinement, "
          f"roots within {gap_max:.2e} of the search without levels, "
          f"lowest {LEVELS} levels: largest start {largest_start}, worst tail bound "
          f"{worst_bound:.2e}, {second_solves} second solves (known: 0), "
          f"G batch forms compared in {batch_s:.1f} s")
    for key, known in KNOWN_WORK.items():
        print(f"G work {key}: {work[key][0]} calls over {work[key][1]} energies "
              f"(known: {known[0]} over {known[1]})")
    for key, (missed, off) in weak.items():
        print(f"weak-coupling set, {WEAK_MODELS} models on {list(WEAK_WINDOW)}, {key}: "
              f"{missed} missed, {off} roots off a level (known: 0 and 0), "
              f"{work['weak ' + key][0]} G calls over {work['weak ' + key][1]} energies")
    print(f"{len(failures)} failures, {time.perf_counter() - t0:.1f} s")
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
