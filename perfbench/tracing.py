"""Per-layer spans and counters, recorded by wrapping tqrabi's functions.

The program is not changed: `install` replaces module-level functions of
`tqrabi.series`, `gfunction`, `oracle`, `exceptional` and `cli` (and every
other module attribute that refers to the same function object, such as
`gfunction._tables`) with timing wrappers. Spans nest on one stack, so a
layer's self time is its duration minus the time of the wrapped calls made
inside it. A target name that the program no longer has is reported as
absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# (module, function) pairs wrapped as spans.
TARGETS = (
    ("series", "_tables"),
    ("series", "_kahan_eval"),
    ("gfunction", "find_roots"),
    ("gfunction", "trace"),
    ("gfunction", "_gvalues"),
    ("gfunction", "_gvalues_once"),
    ("gfunction", "_refine_brackets"),
    ("oracle", "_eig"),
    ("oracle", "certified_spectrum"),
    ("oracle", "diagonalize"),
    ("exceptional", "condition"),
    ("cli", "main"),
)
LAYERS = ("series", "gfunction", "oracle", "exceptional")

# Eigensolver entry points counted while an oracle span is open. A switch
# between dense and banded solvers is still counted.
EIGENSOLVERS = (
    ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
    ("scipy.linalg", "eig"), ("scipy.linalg", "eigvals"),
    ("scipy.linalg", "eig_banded"), ("scipy.linalg", "eigvals_banded"),
    ("scipy.linalg", "eigh_tridiagonal"), ("scipy.linalg", "eigvalsh_tridiagonal"),
    ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
)
_BANDED = {"eig_banded", "eigvals_banded"}
_TRIDIAGONAL = {"eigh_tridiagonal", "eigvalsh_tridiagonal"}

# Per-layer metric -> (unit, wrapped functions it needs); absent if one is
# missing. "oracle.*" needs at least one oracle span, inside which eigensolves
# count. traced.wall_s is the run's wall_s with the wrappers in place.
PER_LAYER = {
    "series.tables_s": ("s", ["series._tables"]),
    "series.tables_calls": ("count", ["series._tables"]),
    "series.coeff_columns": ("count", ["series._tables"]),
    "series.table_mb_max": ("MB", ["series._tables"]),
    "series.sum_s": ("s", ["series._kahan_eval"]),
    "gfunction.gvalues_calls": ("count", ["gfunction._gvalues"]),
    "gfunction.energies": ("count", ["gfunction._gvalues"]),
    "gfunction.energies_per_call": ("count", ["gfunction._gvalues"]),
    "gfunction.det_s": ("s", ["gfunction._gvalues_once"]),
    "gfunction.scan_s": ("s", ["gfunction._gvalues", "gfunction.find_roots"]),
    "gfunction.refine_s": ("s", ["gfunction._refine_brackets"]),
    "gfunction.energies_per_root": ("count", ["gfunction._gvalues",
                                              "gfunction.find_roots"]),
    "oracle.certify_s": ("s", ["oracle.certified_spectrum"]),
    "oracle.eigensolves": ("count", ["oracle.*"]),
    "oracle.eigensolve_s": ("s", ["oracle.*"]),
    "oracle.eigensolve_flops": ("count", ["oracle.*"]),
    "oracle.truncation_max": ("count", ["oracle.*"]),
    "exceptional.condition_calls": ("count", ["exceptional.condition"]),
    "exceptional.condition_s": ("s", ["exceptional.condition"]),
    "cli.self_s": ("s", []),
    "cli.csv_bytes": ("bytes", []),
    "traced.wall_s": ("s", []),
}


class Tracer:
    """Span stack plus the counters that the per-layer metrics are made of."""

    def __init__(self) -> None:
        self.present: set[str] = set()
        self.stack: list[list] = []          # [key, start, child_seconds]
        self.depth: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (set-up commands are not counted)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s = 0.0           # time in outermost layer spans
        self.scan_s = 0.0            # _gvalues called straight from find_roots
        self.energies = 0
        self.root_energies = 0       # energies evaluated inside find_roots
        self.roots = 0
        self.coeff_columns = 0
        self.table_mb_max = 0.0
        self.eigensolves = 0
        self.eigensolve_s = 0.0
        self.eigensolve_flops = 0
        self.truncation_max = 0
        self.csv_bytes = 0
        self.command_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("tqrabi")]
        modules += [importlib.import_module(f"tqrabi.{m}")
                    for m in ("series", "gfunction", "oracle", "exceptional",
                              "cli")]
        for mod_name, fn_name in TARGETS:
            mod = importlib.import_module(f"tqrabi.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                continue
            key = f"{mod_name}.{fn_name}"
            self.present.add(key)
            _rebind(modules, orig, self._span(key, mod_name, orig))
        for mod_name, fn_name in EIGENSOLVERS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, fn_name, None)
            if orig is None:
                continue
            _rebind(modules + [mod], orig, self._eigensolver(fn_name, orig))

    def _span(self, key: str, layer: str, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None
        wants = {"energies", "truncation"} & set(sig.parameters) if sig else set()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind_partial(*args, **kwargs).arguments if wants else {}
            parent = self.stack[-1][0] if self.stack else None
            outermost = layer in LAYERS and not any(self.depth[m] for m in LAYERS)
            frame = [key, time.perf_counter(), 0.0]
            self.stack.append(frame)
            self.depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                self.depth[layer] -= 1
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += dur
                self.calls[key] += 1
                self.incl[key] += dur
                self.self_s[key] += dur - frame[2]
                if outermost:
                    self.layer_s += dur
            self._count(key, parent, bound, result, dur)
            return result

        return wrapper

    def _count(self, key, parent, bound, result, dur) -> None:
        if "truncation" in bound and key.startswith("oracle."):
            self.truncation_max = max(self.truncation_max, int(bound["truncation"]))
        if key == "gfunction._gvalues":
            n = int(getattr(bound.get("energies"), "size", 0))
            self.energies += n
            if _inside(self.stack, "gfunction.find_roots"):
                self.root_energies += n
            if parent == "gfunction.find_roots":
                self.scan_s += dur
        elif key == "gfunction.find_roots":
            self.roots += len(result)
        elif key == "series._tables":
            table = result[0] if isinstance(result, tuple) else result
            shape = getattr(table, "shape", ())
            if len(shape) == 4:
                self.coeff_columns += shape[0] * shape[2] * shape[3]
                self.table_mb_max = max(self.table_mb_max, table.nbytes / 1e6)

    def _eigensolver(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.depth["oracle"]:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.eigensolve_s += time.perf_counter() - t0
            self.eigensolves += 1
            first = args[0] if args else next(iter(kwargs.values()))
            shape = getattr(first, "shape", (len(first),))
            # Banded storage is (bands, order); tridiagonal input is the diagonal.
            order = shape[-1] if name in _BANDED or name in _TRIDIAGONAL else shape[0]
            self.eigensolve_flops += int(order) ** 3
            return result

        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the names that could not be measured."""
        gv_calls = self.calls["gfunction._gvalues"]
        values = {
            "series.tables_s": self.incl["series._tables"],
            "series.tables_calls": self.calls["series._tables"],
            "series.coeff_columns": self.coeff_columns,
            "series.table_mb_max": self.table_mb_max,
            "series.sum_s": self.incl["series._kahan_eval"],
            "gfunction.gvalues_calls": gv_calls,
            "gfunction.energies": self.energies,
            "gfunction.energies_per_call": self.energies / gv_calls if gv_calls else 0.0,
            "gfunction.det_s": self.self_s["gfunction._gvalues_once"],
            "gfunction.scan_s": self.scan_s,
            "gfunction.refine_s": self.incl["gfunction._refine_brackets"],
            "gfunction.energies_per_root": (self.root_energies / self.roots
                                            if self.roots else 0.0),
            "oracle.certify_s": self.incl["oracle.certified_spectrum"],
            "oracle.eigensolves": self.eigensolves,
            "oracle.eigensolve_s": self.eigensolve_s,
            "oracle.eigensolve_flops": self.eigensolve_flops,
            "oracle.truncation_max": self.truncation_max,
            "exceptional.condition_calls": self.calls["exceptional.condition"],
            "exceptional.condition_s": self.incl["exceptional.condition"],
            "cli.self_s": self.command_s - self.layer_s,
            "cli.csv_bytes": self.csv_bytes,
        }

        def have(key: str) -> bool:
            if key.endswith(".*"):
                return any(p.startswith(key[:-1]) for p in self.present)
            return key in self.present

        absent = [name for name, (_, needs) in PER_LAYER.items()
                  if not all(have(k) for k in needs)]
        return {k: (0.0 if k in absent else float(v)) for k, v in values.items()}, absent


def _inside(stack: list[list], key: str) -> bool:
    return any(frame[0] == key for frame in stack)


def _rebind(modules, orig, wrapper) -> None:
    """Point every module attribute that holds `orig` at `wrapper`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
