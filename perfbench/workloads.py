"""Seeded command lists for the three workloads.

Each timed command is one `tqrabi` CLI invocation on a model generated from
the seed. Seeded models are small jitters (a few per cent) around fixed
anchors, so every seed does nearly the same amount of work while no two
commands of a run share a parameter set (the oracle's cache would otherwise
serve a later command from an earlier one, which a CLI user starting a fresh
process never sees). Known-fault commands use fixed inputs and run once per
run, so the share of failed commands is the same in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from reference import Model

SPECTRUM_WINDOW = (-1.0, 2.5)
SWEEP_WINDOW = (-1.0, 3.0)          # the sweep command's default --emin/--emax
SWEEP_G = (0.05, 2.5)
SWEEP_POINTS = 16
SWEEP_LEVELS = 8                    # the sweep command's default --levels
TRACE_WINDOW = (-1.0, 3.0)
TRACE_STEP = 0.001

# A regular even level at 2.0000000339 lies 3.4e-8 above the baseline E = 2,
# inside the 1e-6 pole margin, so find_roots never reports it.
POLE_MARGIN_MODEL = Model(1.0, 0.6, 0.4, 0.6 + 5e-8, 0.6 + 5e-8)
POLE_MARGIN_LEVEL = 2.0000000339
# Dark states sit at E = n*omega; the sweep's cutoff-state loop bounds n by
# e_max without dividing by omega, so with omega = 0.5 it stops at E = 1.5.
DARK_TEMPLATE = Model(0.5, 0.25, 0.25, 0.3, 0.3)
DARK_MISSING = (2.0, 2.5, 3.0)

# Just below the full8/reduced6 switch at g' = g/2 the reduced6 series do not
# converge within the order cap: G is NaN on the whole scan grid and
# find_roots returns no root, while the window holds three levels.
_G, _GP = 0.6, 0.4975 * 0.6
REDUCED6_SWITCH_MODEL = Model(1.0, 0.55, 0.25, (_G + _GP) / 2, (_G - _GP) / 2)
REDUCED6_SWITCH_WINDOW = (-1.0, 0.0)

# Nominal seconds, on the reference box (2 cores, 1 BLAS thread), of one
# round and of the commands a run makes once. A run does the once-commands
# and the whole number of rounds nearest to filling the rest of --seconds,
# at least one. Its work is fixed by --seconds, never by how fast the
# machine happens to be.
ROUND_SECONDS = {"spectrum_verified": 31.0, "sweep_oracle": 11.2,
                 "trace_dense": 1.7}
ONCE_SECONDS = {"spectrum_verified": 12.0, "sweep_oracle": 5.9,
                "trace_dense": 0.0}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the subcommand words plus what the checks need."""

    label: str
    kind: str                      # spectrum | sweep | trace
    model: Model
    args: tuple[str, ...]
    window: tuple[float, float]
    step: Optional[float] = None
    g_grid: tuple[float, ...] = field(default=())
    fault: Optional[str] = None    # id of the known fault it shows

    def argv(self, config: str, out: str) -> list[str]:
        return [self.kind, "--config", config, "--out", out, *self.args]


def _jitter(rng: np.random.Generator, x: float, rel: float = 0.03) -> float:
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _spectrum(label: str, m: Model, window=SPECTRUM_WINDOW,
              extra: tuple[str, ...] = (), fault: Optional[str] = None) -> Command:
    args = ("--emin", repr(window[0]), "--emax", repr(window[1]),
            "--solver", "both") + extra
    return Command(label, "spectrum", m, args, window, fault=fault)


def _sweep(label: str, m: Model, g=SWEEP_G, points=SWEEP_POINTS,
           extra: tuple[str, ...] = (), fault: Optional[str] = None) -> Command:
    args = ("--gmin", repr(g[0]), "--gmax", repr(g[1]), "--points", str(points),
            "--solver", "oracle") + extra
    grid = tuple(float(x) for x in np.linspace(g[0], g[1], points))
    return Command(label, "sweep", m, args, SWEEP_WINDOW, g_grid=grid, fault=fault)


def _trace(label: str, m: Model, window=TRACE_WINDOW, step=TRACE_STEP) -> Command:
    args = ("--emin", repr(window[0]), "--emax", repr(window[1]),
            "--step", repr(step))
    return Command(label, "trace", m, args, window, step=step)


# -- spectrum_verified ----------------------------------------------------------

def _topology_models(rng: np.random.Generator, anchors) -> list[tuple[str, Model]]:
    out = []
    for topo, (w, d1, d2, g1, g2) in anchors:
        if g1 == g2:
            g = _jitter(rng, g1)
            g1 = g2 = g
        else:
            g1, g2 = _jitter(rng, g1), _jitter(rng, g2)
        out.append((topo, Model(w, _jitter(rng, d1), _jitter(rng, d2), g1, g2)))
    return out


# full8 needs g' >= g/2, reduced6 0 < g' < g/2, reduced4 g' = 0.
SPECTRUM_ANCHORS = (
    ("full8", (1.0, 0.6, 0.2, 0.24, 0.06)),
    ("reduced6", (1.0, 0.6, 0.2, 1.0 / 3.0, 1.0 / 6.0)),
    ("reduced4", (1.0, 0.7, 0.3, 0.4, 0.4)),
)
TRACE_ANCHORS = (
    ("full8", (1.0, 0.5, 0.3, 1.6, 0.4)),
    ("reduced6", (1.0, 0.6, 0.2, 1.2, 0.8)),
    ("reduced4", (1.0, 0.7, 0.3, 1.25, 1.25)),
)


def spectrum_verified(rng: np.random.Generator, rounds: int) -> list[Command]:
    cmds = [_spectrum(f"spectrum/{topo}/{r}", m)
            for r in range(rounds)
            for topo, m in _topology_models(rng, SPECTRUM_ANCHORS)]
    cmds.append(_spectrum("spectrum/pole-margin", POLE_MARGIN_MODEL,
                          fault="pole-margin"))
    cmds.append(_spectrum("spectrum/reduced6-switch", REDUCED6_SWITCH_MODEL,
                          window=REDUCED6_SWITCH_WINDOW, fault="reduced6-switch"))
    return cmds


def sweep_oracle(rng: np.random.Generator, rounds: int) -> list[Command]:
    cmds = []
    for r in range(rounds):
        # delta1 + delta2 = omega: a flat even level at E = omega.
        # The sweep rescales g1 = g2 = 0.5, so only the splittings are drawn.
        w = _jitter(rng, 1.0)
        d1 = _jitter(rng, 0.6) * w
        cmds.append(_sweep(f"sweep/unit-sum/{r}", Model(w, d1, w - d1, 0.5, 0.5)))
        # Isotropic exchange J = 1/2 with delta1 + delta2 = 1: two flat even
        # levels, E = -1/2 (N = 1) and E = 3/2 (N = 3).
        d1 = _jitter(rng, 0.6)
        cmds.append(_sweep(f"sweep/xyz/{r}",
                           Model(1.0, d1, 1.0 - d1, 0.75, 0.75, 0.5, 0.5, 0.5)))
    cmds.append(_sweep("sweep/dark-omega-0.5", DARK_TEMPLATE, fault="dark-omega"))
    return cmds


def trace_dense(rng: np.random.Generator, rounds: int) -> list[Command]:
    return [_trace(f"trace/{topo}/{r}", m)
            for r in range(rounds)
            for topo, m in _topology_models(rng, TRACE_ANCHORS)]


GENERATORS = {"spectrum_verified": spectrum_verified,
              "sweep_oracle": sweep_oracle,
              "trace_dense": trace_dense}


def warmup(workload: str, rng: np.random.Generator) -> Command:
    """A small command on parameters of its own that touches the same code."""
    # g'/g stays near 0.7, clear of the full8/reduced6 switch at 1/2: the
    # reduced6 fault just below it would make the warm-up's time depend on
    # the seed. The fault is timed once per run as spectrum/reduced6-switch.
    m = Model(1.0, _jitter(rng, 0.55), _jitter(rng, 0.25), _jitter(rng, 0.17),
              _jitter(rng, 0.03))
    if workload == "spectrum_verified":
        # Below the ground state: the scan and the oracle run, no refinement.
        return _spectrum("warmup", m, window=(-2.0, -1.5),
                         extra=("--truncation", "40"))
    if workload == "sweep_oracle":
        g = _jitter(rng, 0.1)
        return _sweep("warmup", Model(1.0, m.delta1, 1.0 - m.delta1, g, g),
                      g=(0.1, 0.2), points=2, extra=("--truncation", "40"))
    return _trace("warmup", m, window=(-1.0, 0.0), step=0.01)


def generate(workload: str, seed: int, seconds: float) -> list[Command]:
    rounds = max(1, math.floor((seconds - ONCE_SECONDS[workload])
                               / ROUND_SECONDS[workload] + 0.5))
    return GENERATORS[workload](np.random.default_rng(seed), rounds)
