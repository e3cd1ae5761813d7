"""Command-line interface: spectrum, trace, sweep, exceptional catalog, verify.

All commands read a key = value parameter file and write CSV with a provenance
comment header. Output is deterministic: floats are printed with 17
significant digits and no timestamps are embedded. Every CSV format is
written here; the solver modules return values and write no files. Work
spreads over the CPUs through gfunction's shares: a sweep's points, and
the rows of a trace longer than one G block, which are formatted in
contiguous shares and written in energy order. The bytes are those of one
process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import exceptional, gfunction, oracle
from .model import (
    DEFAULT_TRUNCATION_CAP,
    ConfigError,
    ModelParams,
    Parity,
    SolverError,
    SpectrumRecord,
    load_params,
)

# Points of a sweep and of a scan (the product of its axis sizes), about
# 2.1 kB and 130 bytes each at their peak: near 0.14 GB each at the limit.
MAX_SWEEP_POINTS, MAX_SCAN_POINTS = 2 ** 16, 2 ** 20


def _fmt(x: float) -> str:
    """A float as CSV text: 17 significant digits, so it reads back exactly."""
    return format(x, ".17g")


@contextlib.contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """path opened for writing, or standard output when path is "-". A path
    that cannot be opened or written is a ConfigError."""
    try:
        with open(path, "w") if path != "-" else contextlib.nullcontext(sys.stdout) as dest:
            yield dest
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: str, header: str, rows: Iterable[Sequence[str]],
               comments: Sequence[str]) -> None:
    """Write '# ' comment lines, a header line and comma-joined rows to
    _output(path)."""
    with _output(path) as dest:
        for line in comments:
            dest.write(f"# {line}\n")
        dest.write(header + "\n")
        for row in rows:
            dest.write(",".join(row) + "\n")


def _record_row(r: SpectrumRecord) -> tuple[str, ...]:
    """A spectrum record's cells: E, parity, method, residual."""
    return (_fmt(r.energy), str(r.parity.sign), r.method, _fmt(r.residual))


def _write_spectrum_csv(records: Iterable[SpectrumRecord], path: str,
                        comments: Sequence[str]) -> None:
    """Spectrum CSV: columns E, parity, method, residual."""
    _write_csv(path, "E,parity,method,residual", map(_record_row, records), comments)


def _write_trace_csv(traces: Sequence[gfunction.GTrace], path: str,
                     comments: Sequence[str]) -> None:
    """Trace CSV of one trace() result: columns E, G_plus, G_minus, empty where
    G is not finite or the parity was not traced. A trace longer than one G
    block formats its rows in contiguous shares over the CPUs, as its G call
    runs (gfunction._block_shares), and writes them in energy order."""
    by_parity = {t.parity: t.values for t in traces}
    grid, poles = traces[0].energies, traces[0].poles
    if poles:
        comments = [*comments, "baselines: " + " ".join(
            f"{b.kind}:{b.index}@{_fmt(b.energy)}" for b in poles)]
    columns = (Parity.PLUS, Parity.MINUS)
    row = ",".join(["%.17g"] + ["%.17g" if p in by_parity else "" for p in columns])
    table = np.column_stack([grid] + [by_parity[p] for p in columns if p in by_parity])
    parts = gfunction._block_shares(len(table), lambda r: (_trace_rows, (table[r], row)))
    _write_csv(path, "E,G_plus,G_minus", ([part] for part in parts), comments)


def _trace_rows(table: np.ndarray, row: str) -> str:
    """The rows of a non-empty table in the format row, which holds one "%.17g"
    per column, joined by newlines. Each cell has the bytes of _fmt, and a G
    that is not finite is an empty cell."""
    # Every row in one format call. A finite "%.17g" holds no "n", so where
    # the text has one, its -inf, inf and nan cells are blanked.
    text = "\n".join([row] * len(table)) % tuple(table.ravel().tolist())
    if "n" in text:
        text = text.replace("-inf", "").replace("inf", "").replace("nan", "")
    return text


def _write_catalog_csv(hits: Sequence[exceptional.FlatLineHit],
                       states: Sequence[Optional[exceptional.ExceptionalState]],
                       path: str, comments: Sequence[str]) -> None:
    """Catalog CSV of scan hits, and the amplitudes of each hit's state (None:
    not built) in the sidecar path + ".states.csv"."""
    _write_csv(path,
               "N,parity,energy,condition_value,g_independent,manifold_label,"
               "delta1,delta2,jx,jy,jz",
               ((str(h.n_index), str(h.parity.sign), _fmt(h.energy),
                 _fmt(h.condition_value), str(h.g_independent).lower(), h.manifold,
                 *(_fmt(getattr(h.params, k)) for k in exceptional._SCAN_AXES))
                for h in hits), comments)
    _write_csv(path + ".states.csv", "hit,n,s1s2,amplitude",
               ((str(i), str(n), pair, _fmt(amp))
                for i, st in enumerate(states) if st is not None
                for n, pair, amp in st.coeffs), ())


def _parities(choice: str) -> tuple[Parity, ...]:
    """The parities of a --parity choice: plus, minus or both."""
    return tuple(Parity) if choice == "both" else (Parity[choice.upper()],)


def _comments(args: argparse.Namespace, params: ModelParams, flags: str) -> list[str]:
    """The comment lines heading a command's CSV: the command, the model and
    the space-separated flags, in their order. A flag reads its option: a
    float as _fmt writes it, --scan's specs joined by spaces and no
    --truncation as auto; verify is the negation of --no-verify."""
    def text(name: str) -> str:
        if name == "verify":
            return str(not args.no_verify).lower()
        value = getattr(args, name)
        if isinstance(value, float):
            return _fmt(value)
        if isinstance(value, list):
            return " ".join(value)
        return "auto" if value is None else str(value)

    return [f"tqrabi {args.command}",
            "params: " + " ".join(f"{k}={_fmt(getattr(params, k))}" for k in
                                  ("omega", "delta1", "delta2", "g1", "g2", "jx", "jy", "jz")),
            "flags: " + " ".join(f"{name}={text(name)}" for name in flags.split())]


def _in_window(args: argparse.Namespace,
               records: Iterable[SpectrumRecord]) -> list[SpectrumRecord]:
    """The records in [--emin, --emax], where an oracle request's levels reach past."""
    return [r for r in records if args.emin <= r.energy <= args.emax]


def cmd_spectrum(args: argparse.Namespace, params: ModelParams) -> int:
    parities = _parities(args.parity)
    records: list[SpectrumRecord] = []
    # One oracle window verifies the roots and gives the oracle rows.
    levels = (oracle.window(params, args.truncation, args.emax, parities)
              if args.solver != "gfunction" or not args.no_verify else None)
    if args.solver in ("gfunction", "both"):
        roots = gfunction.find_roots(params, parities, args.emin, args.emax, args.step,
                                     levels=None if args.no_verify else levels)
        records.extend(roots)
    if args.solver in ("oracle", "both"):
        records.extend(_in_window(args, levels))

    def order(r: SpectrumRecord) -> tuple:
        # A verified root sorts at the level it matches, so its row precedes
        # that level's oracle row on whichever side rounding puts the root.
        near = (levels.filtered(r.parity).energies()
                if r.method == "gfunction" and r.verified else [r.energy])
        return (min(near, key=lambda e: abs(e - r.energy)), r.method, r.parity.sign)

    records.sort(key=order)
    _write_spectrum_csv(records, args.out, _comments(
        args, params, "emin emax step solver parity truncation verify"))
    if args.solver == "oracle" or args.no_verify:
        return 0
    return _status(*_disagreement(args, params, levels, roots, {
        p: exceptional.levels(params, p, args.emin, args.emax) for p in parities}))


def cmd_trace(args: argparse.Namespace, params: ModelParams) -> int:
    traces = gfunction.trace(params, _parities(args.parity), args.emin, args.emax,
                             args.step)
    _write_trace_csv(traces, args.out, _comments(args, params, "emin emax step parity"))
    return 0


def _sweep_points(args: argparse.Namespace, params: ModelParams,
                  gs: Sequence[float]) -> list[tuple[list[tuple[str, ...]], int, int]]:
    """The rows and counts of each sweep point in gs (_sweep_point)."""
    return [_sweep_point(args, params, g) for g in gs]


def _sweep_point(args: argparse.Namespace, params: ModelParams,
                 g: float) -> tuple[list[tuple[str, ...]], int, int]:
    """Rows of one sweep point, the template params at total coupling g, and
    its two _disagreement counts (0 and 0 unless --solver both found roots).
    The point makes one oracle request, for the --parity parities alone: for
    --solver both, the window that verifies its roots, whose levels in
    [--emin, --emax] are its oracle rows, as in cmd_spectrum. Its error is
    named by the gfunction status rows too."""
    point = params.with_g(g)
    rows: list[tuple[str, ...]] = []
    parities = _parities(args.parity)
    levels = failed = roots = None

    def ok(records: Iterable[SpectrumRecord]) -> None:
        rows.extend((_fmt(g), *_record_row(r), "ok") for r in records)

    def status(exc: SolverError, method: str, sign: str = "") -> None:
        rows.append((_fmt(g), "", sign, method, "", type(exc).__name__))

    try:
        if args.solver == "both":
            levels = oracle.window(point, args.truncation, args.emax, parities)
        elif args.solver == "oracle":
            # Sized here, per point, so diagonalize gets an int truncation, which
            # perfbench/tracing.py records as the oracle truncation.
            start = oracle.level_truncation(point, args.levels, args.truncation)
            levels = oracle.diagonalize(point, start, args.levels, parities)
    except SolverError as exc:
        failed = exc
    if args.solver != "oracle":
        try:
            if failed is not None:
                raise failed
            roots = gfunction.find_roots(point, parities, args.emin, args.emax,
                                         args.step, levels=levels)
            ok(r for parity in parities for r in roots.filtered(parity))
        except SolverError as exc:
            for parity in parities:
                status(exc, "gfunction", str(parity.sign))
    if args.solver != "gfunction":
        if failed is None:
            ok(_in_window(args, levels))
        else:
            status(failed, "oracle")
    states = {}
    for parity in parities:
        try:
            states[parity] = exceptional.levels(point, parity, args.emin, args.emax)
            ok(SpectrumRecord(energy, parity, "exceptional", abs(cond))
               for _, energy, cond, _ in states[parity])
        except SolverError as exc:
            status(exc, "exceptional", str(parity.sign))
    if roots is None or levels is None:
        return rows, 0, 0
    return rows, *_disagreement(args, point, levels, roots, states)


def cmd_sweep(args: argparse.Namespace, params: ModelParams) -> int:
    if not 0 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--points must be a non-negative point count of at most "
                          f"{MAX_SWEEP_POINTS}")
    if args.levels < 1:
        raise ConfigError("--levels must be >= 1")
    if params.g <= 0:
        raise ConfigError("sweep template must have g1 + g2 > 0 to fix the ratio")
    if not np.isfinite([args.gmin, args.gmax]).all():
        raise ConfigError("--gmin and --gmax must be finite")
    gs = [float(g) for g in np.linspace(args.gmin, args.gmax, args.points)]
    # Points spread over the CPUs: point j goes to share j mod 2k, mirrored
    # past k, so that each share holds cheap and dear points alike, as a
    # point's cost grows with g. LAPACK loads here first, so that a worker
    # forked next inherits it.
    if args.solver != "gfunction":
        oracle._lapack()

    def deal(k: int) -> list[list[int]]:
        share = [min(j % (2 * k), 2 * k - 1 - j % (2 * k)) for j in range(len(gs))]
        return [[j for j, s in enumerate(share) if s == i] for i in range(k)]

    shares = gfunction._shares(len(gs), lambda k: [
        (_sweep_points, (args, params, [gs[j] for j in points])) for points in deal(k)])
    dealt = dict(zip((j for points in deal(len(shares)) for j in points),
                     (point for share in shares for point in share)))
    # An oracle sweep scans no grid, and --levels applies to it alone.
    flags = ("solver parity levels" if args.solver == "oracle" else "step solver parity")
    _write_csv(args.out, "g,E,parity,method,residual,status",
               (row for j in range(len(gs)) for row in dealt[j][0]),
               _comments(args, params, f"gmin gmax points emin emax {flags} truncation"))
    return _status(sum(p[1] for p in dealt.values()), sum(p[2] for p in dealt.values()))


def _parse_scan(specs: Sequence[str]) -> dict[str, np.ndarray]:
    axes: dict[str, np.ndarray] = {}
    points = 1
    for spec in specs:
        name, _, rng = spec.partition("=")
        name = name.strip().lower()
        if name in axes:
            raise ConfigError(f"--scan repeats axis {name!r}")
        try:
            start, stop, npts = rng.split(":")
            ends, points = [float(start), float(stop)], points * int(npts)
            if not np.isfinite(ends).all():
                raise ConfigError(f"--scan {spec!r}: START and STOP must be finite")
            if points > MAX_SCAN_POINTS:
                raise ConfigError(f"--scan axes span {points} points, past the limit "
                                  f"of {MAX_SCAN_POINTS}")
            axes[name] = np.linspace(*ends, int(npts))
        except ValueError as exc:
            raise ConfigError(f"bad --scan spec {spec!r}; "
                              "expected AXIS=START:STOP:NPTS") from exc
    return axes


def cmd_exceptional(args: argparse.Namespace, params: ModelParams) -> int:
    axes = _parse_scan(args.scan)
    if args.ncut > DEFAULT_TRUNCATION_CAP:
        raise ConfigError(f"--ncut {args.ncut} is past the {DEFAULT_TRUNCATION_CAP}-photon cap")
    hits = exceptional.scan_flat_lines(params, axes, n_max=args.ncut)
    states: list[Optional[exceptional.ExceptionalState]] = []
    for h in hits:
        try:
            states.append(exceptional.build_state(h.params, h.parity, h.n_index))
        except SolverError:
            states.append(None)
    _write_catalog_csv(hits, states, args.out, _comments(args, params, "scan ncut"))
    return 0


def _unmatched(levels: Sequence[float], claims: Sequence[float], tol: float) -> int:
    """Levels left over when each claim covers at most one level within tol.

    One merge of the two sorted lists gives each level the lowest free claim
    within tol; a claim below every later level's reach is passed over. No
    one-to-one assignment covers more levels.
    """
    i = missing = 0
    for e in levels:
        while i < len(claims) and e - claims[i] > tol:
            i += 1
        if i < len(claims) and claims[i] - e <= tol:
            i += 1
        else:
            missing += 1
    return missing


def _coverage(args: argparse.Namespace, params: ModelParams, parity: Parity,
              levels: Iterable[SpectrumRecord], roots: Iterable[SpectrumRecord],
              states: Sequence[tuple]) -> tuple[int, int]:
    """The oracle levels of parity in [--emin, --emax], and how many of them
    no claim covers within VERIFY_TOL omega (_unmatched). A claim is a root
    of that parity or a dark cutoff state (k = 0 in states, exceptional.levels
    of that parity): a state on a pole is a root."""
    ed = [r.energy for r in _in_window(args, levels) if r.parity == parity]
    claims = sorted([r.energy for r in roots if r.parity == parity]
                    + [e for _, e, _, k in states if k == 0])
    return len(ed), _unmatched(ed, claims, gfunction.VERIFY_TOL * params.omega)


def _disagreement(args: argparse.Namespace, params: ModelParams,
                  levels: Iterable[SpectrumRecord], roots: Iterable[SpectrumRecord],
                  states: dict[Parity, Sequence[tuple]]) -> tuple[int, int]:
    """(roots unverified, oracle levels unmatched) of G roots searched with the
    oracle window levels: the roots whose verified is False, and _coverage's
    unmatched levels summed over the parities of states, each with its
    cutoff states."""
    return (sum(r.verified is False for r in roots),
            sum(_coverage(args, params, p, levels, roots, s)[1] for p, s in states.items()))


def _status(unverified: int, unmatched: int) -> int:
    """Exit status of a run that checked G roots against the oracle: 0, or 3,
    with one stderr line naming both counts, when either is non-zero."""
    if not (unverified or unmatched):
        return 0
    print(f"error: G disagrees with the oracle: {unverified} roots unverified, "
          f"{unmatched} oracle levels unmatched", file=sys.stderr)
    return 3


def cmd_verify(args: argparse.Namespace, params: ModelParams) -> int:
    # Certified cutoff states; the dark ones (k = 0) are no roots of G.
    cutoff = {p: exceptional.levels(params, p, args.emin, args.emax)
              for p in _parities(args.parity)}
    levels = oracle.window(params, args.truncation, args.emax, tuple(cutoff))
    found = gfunction.find_roots(params, tuple(cutoff), args.emin, args.emax,
                                 args.step, levels=levels)
    failures = 0
    with _output(args.out) as dest:

        def report(ok: bool, text: str) -> None:
            nonlocal failures
            dest.write(("PASS " if ok else "FAIL ") + text + "\n")
            if not ok:
                failures += 1

        for parity in cutoff:
            res = found.filtered(parity)
            bad = [r for r in res if not r.verified]
            worst = max((r.residual for r in res), default=0.0)
            report(not bad, f"roots[{parity}]: {len(res)} roots, "
                            f"max |E - E_ed| = {worst:.3e}")
            ed, missing = _coverage(args, params, parity, levels, res, cutoff[parity])
            report(not missing, f"coverage[{parity}]: {ed} oracle levels, "
                                f"{missing} unmatched")
        for parity, states in cutoff.items():
            for n, energy, _, _ in states:
                state = exceptional.build_state(params, parity, n)
                resid = oracle.residual(params, max(n + 2, 40), state)
                report(resid < 1e-10,
                       f"exceptional[{parity}, N={n}]: E = {_fmt(energy)}, "
                       f"residual = {resid:.3e}")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: main may run many commands."""
    parser = argparse.ArgumentParser(
        prog="tqrabi",
        description="Spectra of two-qubit Rabi models with optional "
                    "qubit-qubit exchange couplings.",
        epilog="Exit status: 0 success, 1 solver failure, 2 bad input, 3 when G's "
               "roots disagree with the oracle (an unverified root or an oracle level "
               "no root claims) in spectrum --solver both or gfunction without "
               "--no-verify, or in sweep --solver both; the CSV is written first.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="key = value parameter file")
        p.add_argument("--out", default="-", help="output path (default stdout)")

    def window(p: argparse.ArgumentParser, emin: Optional[float],
               emax: Optional[float]) -> None:
        """--emin and --emax, required where None is given, --step and --parity."""
        for name, default in (("--emin", emin), ("--emax", emax)):
            p.add_argument(name, type=float, default=default, required=default is None)
        p.add_argument("--step", type=float,
                       help="grid step in the config's energy unit (default 0.01 omega)")
        p.add_argument("--parity", choices=("plus", "minus", "both"), default="both")

    def solver(p: argparse.ArgumentParser, default: str) -> None:
        p.add_argument("--solver", choices=("gfunction", "oracle", "both"), default=default)

    def truncation(p: argparse.ArgumentParser) -> None:
        p.add_argument("--truncation", type=int,
                       help="starting truncation; default sized from the model")

    p = sub.add_parser("spectrum", help="eigenvalues inside an energy window")
    common(p)
    window(p, -1.0, None)
    solver(p, "both")
    truncation(p)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the diagonalization cross-check of roots")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("trace", help="sample the matching determinant on a grid")
    common(p)
    window(p, None, None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="spectrum versus total coupling g = g1 + g2")
    common(p)
    p.add_argument("--gmin", type=float, required=True)
    p.add_argument("--gmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    window(p, -1.0, 3.0)
    solver(p, "oracle")
    p.add_argument("--levels", type=int, default=8,
                   help="--solver oracle: the lowest levels solved per point")
    truncation(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exceptional", help="catalog of cutoff-condition zeros")
    common(p)
    p.add_argument("--scan", action="append", required=True,
                   metavar="AXIS=START:STOP:NPTS",
                   help="scan axis; repeat for an outer grid, last axis is "
                        "the bisection line")
    p.add_argument("--ncut", type=int, default=3,
                   help="largest baseline index probed for cutoff states")
    p.set_defaults(func=cmd_exceptional)

    p = sub.add_parser("verify", help="cross-validate the solvers on one model")
    common(p)
    window(p, -1.0, 2.5)
    truncation(p)
    p.set_defaults(func=cmd_verify)
    return parser


def _attach_numbers(argv: Sequence[str]) -> list[str]:
    """argv with each negative number that float() reads, after --emin,
    --emax, --step, --gmin or --gmax, attached to that option as
    --option=token. argparse takes "-1" and "-0.1" for numbers, but "-1e-1"
    and "-inf" for option names, and then finds the option without its value."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in ("--emin", "--emax", "--step", "--gmin", "--gmax")
                and token.startswith("-")):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        params = load_params(args.config)
        if args.command == "exceptional" and args.out == "-":
            raise ConfigError("exceptional needs --out FILE for the sidecar")
        if "emin" in args:  # one window and step check, whatever the solver
            args.step = gfunction._step(params, args.step)
            gfunction._window(params, args.emin, args.emax, args.step)
        return args.func(args, params)
    except (ConfigError, ValueError) as exc:
        # Ahead of SolverError, of which ConfigError is one: bad input.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, OverflowError) as exc:
        # A finite parameter can overflow a float power; that is a solver failure.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
