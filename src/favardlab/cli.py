"""Command-line front end.

Every analysis is a subcommand printing a one-line summary and, with
--out, writing machine-readable CSV/JSON plus a manifest echoing all
parameters.  Exit codes: 0 success, 1 computation failure (size cap,
non-convergence, degenerate fit), 2 usage error, 3 a certified claim failed
(certificate or convexity gate), so CI can distinguish regressions in the
mathematics from operational breakage.

Each handler takes the parsed options, the loaded system and the direction
and returns a ``Result``: the summary line, the files it would write and
its exit code.  One runner, ``_run``, does the rest: it loads the system,
builds the direction and the manifest, calls the handler, writes the files
and then the manifest under --out, and prints the line.  It maps
exceptions to exit codes, and under --out a failed run still writes its
manifest, with the exit code and the error.  A flag that only adds a file
(--generations, --intervals) is a usage error without --out.  Each
subcommand runs on one backend, which the manifest records; ``alpha``
takes --backend, whose one value is ``exact``.

Each JSON file is its report's fields (``_fields``): favard.json adds
``tol`` and ``panel_order``; certificate.json has ``grid_count`` for the
grid, and lipschitz.json and cover.json leave out arrays, direction and
intervals; fit.json nests the ``DecayRecord`` fields under ``records``;
needle.json writes ``standard_error`` as ``se``, and validate.json
``nesting`` as "pass"/"fail".  counterexample.json lists its own keys.

Slopes are given exactly as rational strings ("1/2"); angles may be given
as decimal radians instead and are snapped to a nearby rational slope.  An
angle fixes its own chart, so --chart goes with --slope only.  Slopes
steeper than 1 switch to the complementary chart automatically.  The
manifest keeps the requested options as given and records the direction
actually used as ``direction`` ("y:2/5") and ``snapped_slope``.  A
malformed rational option exits 2 naming its flag, manifest written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import DegenerateFitError, PreconditionError, SizeCapExceeded
from .favard import (
    QuadratureConfig,
    alpha_sequence,
    check_convexity,
    favard,
    lipschitz_scan,
    lower_bound_certificate,
    special_slope_check,
)
from .dimension import (
    cover_stats,
    decay_series,
    exponent_fit,
    neighborhood_sequence,
    read_points,
    section_lattice,
    seesaw_builder,
)
from .ifs import PRESET_NAMES, dumps_config, load_config, preset, validate
from .intervals import to_fraction
from .needle import NeedleConfig, estimate_favard_mc
from .projection import Direction, iter_generations
from .serialize import (
    ManifestTimer,
    fmt,
    generation_rows,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2
EXIT_CLAIM = 3


class Result(NamedTuple):
    """A handler's summary line, the files it would write, its exit code.

    ``files`` maps a file name to a JSON payload, or a ``.csv`` name to
    ``(header, rows)``, the arguments of ``write_csv``: rows are tuples or
    finished CSV text blocks, and may be lazy, as only --out reads them.
    A JSON payload is its report's ``_fields``, with the changes the module
    docstring names; a malformed rational option exits 2 naming its flag.
    """

    line: str
    files: dict = {}
    code: int = EXIT_OK


def _direction(args) -> Direction:
    if args.angle is not None:
        if args.chart is not None:
            raise PreconditionError("--chart goes with --slope only; "
                                    "--angle picks its own chart")
        try:
            return Direction.from_angle(args.angle)
        except ValueError as exc:
            raise PreconditionError(f"--angle: {exc}") from None
    return Direction.from_slope(_rational("--slope", args.slope),
                                args.chart or "x")


def _rational(flag: str, text: str):
    """An option's text as a Fraction, or a usage error naming the flag."""
    try:
        return to_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"{flag} must be rational, got {text!r}") from None


def _rationals(flag: str, text: str, length: int | None = None,
               form: str = "one or more values a,b,...") -> list:
    """A comma-separated option as Fractions, blank items skipped, or a
    usage error naming the flag and ``form``: when an item is not rational,
    or when the list is empty or, given ``length``, not that long."""
    values = [_rational(flag, tok) for tok in text.split(",") if tok.strip()]
    if not values or length not in (None, len(values)):
        raise PreconditionError(f"{flag} must be rational: {form}, got {text!r}")
    return values


def _fields(report, drop=(), **extra) -> dict:
    """A report's dataclass fields by name, less ``drop``, then ``extra``."""
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report) if f.name not in drop}
    return fields | extra


def _alpha_csv(seq) -> tuple:
    slope = seq.direction.slope
    return (("n", "slope", "sheared", "true"),
            ((n, slope, v, float(v) * seq.scale)
             for n, v in enumerate(seq.values)))


def _cmd_alpha(args, ifs, d) -> Result:
    seq = alpha_sequence(ifs, d, args.depth)
    files = {"alpha.csv": _alpha_csv(seq)}
    if args.generations:
        files["generations.csv"] = (
            ("n", "chart", "slope", "lo", "hi"),
            generation_rows(d, iter_generations(ifs, d, args.depth)))
    first, last = (float(v) * seq.scale for v in (seq.values[0], seq.values[-1]))
    return Result(f"alpha {d.label()} n=0..{args.depth}: true length "
                  f"{first:.6f} -> {last:.6f}", files)


def _cmd_convexity(args, ifs, d) -> Result:
    seq = alpha_sequence(ifs, d, args.depth)
    report = check_convexity(seq)
    applies = ifs.convexity_applies
    verdict = "convex" if report.convex else "NOT convex"
    failures = [text for holds, text in ((ifs.ratio_sum == 1, "ratio sum != 1"),
                                         (ifs.nests, "nesting fails")) if not holds]
    mode = "theorem applies" if applies else "exploratory: " + ", ".join(failures)
    return Result(
        f"convexity {d.label()} depth {args.depth}: {verdict} ({mode})",
        {"convexity.csv": (("k", "margin"), report.margins),
         "alpha.csv": _alpha_csv(seq)},
        EXIT_CLAIM if applies and not report.convex else EXIT_OK)


def _cmd_favard(args, ifs, d) -> Result:
    quad = QuadratureConfig(tol=args.tol, panel_order=args.order,
                            initial_panels=args.panels,
                            max_refinements=args.refinements)
    est = favard(ifs, args.n, quad)
    return Result(
        f"favard n={est.n}: {est.value:.8f} +- {est.error:.2e} "
        f"({est.status}, {est.panels} panels)",
        {"favard.json": _fields(est, tol=quad.tol,
                                panel_order=quad.panel_order)},
        EXIT_OK if est.converged else EXIT_COMPUTATION)


def _cmd_certificate(args, ifs, d) -> Result:
    cert = lower_bound_certificate(
        ifs, args.n, args.grid, special_slope=_rational("--slope", args.slope))
    files = {
        "certificate.csv": (("slope", "alpha0", "alpha1", "L", "pass"),
                            ((r.slope, r.alpha0, r.alpha1, r.lower, r.ok)
                             for r in cert.grid)),
        "certificate.json": _fields(cert, drop=("grid",),
                                    grid_count=len(cert.grid)),
    }
    if cert.passed:
        return Result(f"certificate n={cert.n}: PASS, Fav >= "
                      f"{cert.claimed_bound} ({len(cert.grid)} slopes)", files)
    return Result(f"certificate n={cert.n}: FAIL at slope {fmt(cert.witness)}",
                  files, EXIT_CLAIM)


def _cmd_special_angle(args, ifs, d) -> Result:
    rep = special_slope_check(ifs, _rational("--slope", args.slope))
    word = "tiles" if rep.tiles else "does not tile"
    return Result(
        f"special angle {rep.chart}:{fmt(rep.slope)}: generation 1 {word}, "
        f"defect {fmt(rep.defect)}",
        {"special_angle.json": _fields(rep)})


def _cmd_lipschitz(args, ifs, d) -> Result:
    rep = lipschitz_scan(ifs, nodes=args.nodes)
    zs = ", ".join(f"{z:.4f}" for z in rep.zeros)
    return Result(
        f"lipschitz {rep.nodes} nodes: sup slope {rep.sup_slope:.4f}, "
        f"zeros near [{zs}]",
        {"lipschitz.csv": (("theta", "g"),
                           zip(rep.thetas.tolist(), rep.g.tolist())),
         "lipschitz.json": _fields(rep, drop=("thetas", "g"))})


def _cmd_dimension(args, ifs, d) -> Result:
    if args.scales:
        scales = _rationals("--scales", args.scales)
    else:
        b = _rational("--scale-base", args.scale_base)
        if b <= 1:
            raise PreconditionError("--scale-base must be a rational above 1, "
                                    f"got {args.scale_base!r}")
        scales = [b ** -k for k in range(args.depth_min, args.depth_max + 1)]
    window = None
    if args.window:
        try:
            lo, hi = (float(x) for x in args.window.split(","))
        except ValueError:
            raise PreconditionError("--window must be lo,hi in radians, "
                                    f"got {args.window!r}") from None
        window = (lo, hi)
    series = decay_series(ifs, scales, window=window, panels=args.panels,
                          order=args.order, sensitivity=args.sensitivity)
    fit = exponent_fit(series)
    return Result(
        f"dimension: s={fit.s:.4f}, fitted dim estimate {fit.dim_bound:.4f}, "
        f"residual {fit.residual:.2e} over {len(series)} scales",
        {"decay.csv": (("r", "total", "slope_so_far"),
                       ((rec.r, rec.total,
                         exponent_fit(series[:i + 1]).s if i >= 2 else "")
                        for i, rec in enumerate(series))),
         "fit.json": _fields(fit, records=[_fields(rec) for rec in series])})


def _cmd_cover(args, ifs, d) -> Result:
    exponents = _rationals("--exponents", args.exponents)
    stats = cover_stats(ifs, d, _rational("--radius", args.radius), exponents)
    files = {"cover.csv": (("r", "count", "min_length", "p", "holder_sum"),
                           [(stats.r, stats.count, stats.min_length, p,
                             stats.holder_sums[p]) for p in exponents])}
    if args.intervals:
        files["intervals.csv"] = (("lo", "hi"), stats.intervals.csv_text())
    files["cover.json"] = _fields(stats, drop=("direction", "intervals"))
    return Result(f"cover r={fmt(stats.r)}: {stats.count} pieces, min length "
                  f"{stats.min_length:.6g}, floor>=2r {stats.floor_ok}", files)


def _cmd_counterexample(args, ifs, d) -> Result:
    overlaps = ()
    base = _rational("--base", args.base)
    if args.seesaw:
        stages = [_rationals("--seesaw", stage, 3,
                             "center,spacing,extent per stage")
                  for stage in args.seesaw.split(";")]
        result = seesaw_builder(stages, base=base, n_max=args.n_max)
        seq, report, overlaps = result.sequence, result.convexity, \
            result.overlaps
        label = f"seesaw({len(stages)} stages)"
    else:
        pts = read_points(args.points_file) if args.points_file \
            else section_lattice()
        seq = neighborhood_sequence(pts, base, args.n_max)
        report = check_convexity([m for _, m in seq]) if len(seq) >= 3 else None
        label = args.points_file or "quarter-integer lattice"
    files = {"neighborhood.csv": (("n", "measure"), seq)}
    if report is not None:
        files["convexity.csv"] = (("k", "margin"), report.margins)
    files["counterexample.json"] = {
        "source": str(label), "base": base,
        "sequence": [{"n": n, "measure": m} for n, m in seq],
        "convex": None if report is None else report.convex,
        "first_violation": None if report is None
        else report.first_violation,
        "overlaps": list(overlaps),
    }
    if report is None:
        verdict = "sequence too short for a verdict"
    elif report.convex:
        verdict = "convex"
    else:
        verdict = f"NOT convex (first violation k={report.first_violation})"
    return Result(f"counterexample {label}: {verdict}", files)


def _cmd_needle(args, ifs, d) -> Result:
    cfg = NeedleConfig(trials=args.trials, seed=args.seed,
                       generation=args.n,
                       strip_halfwidth=args.strip_halfwidth)
    est = estimate_favard_mc(ifs, cfg)
    return Result(
        f"needle n={est.generation}: {est.estimate:.6f} "
        f"+- {est.standard_error:.6f} ({est.hits}/{est.trials} hits)",
        {"needle.json": _fields(est, drop=("standard_error",),
                                se=est.standard_error)})


def _cmd_validate(args, ifs, d) -> Result:
    report = validate(ifs)
    conv = "convexity applies" if report.convexity_applies \
        else "convexity hypothesis fails"
    nest = "nesting ok" if report.nesting else "nesting FAILS"
    return Result(
        f"validate {ifs.name}: ratio sum {fmt(report.ratio_sum)} ({conv}), "
        f"{nest}, branching {report.branching}",
        {"validate.json": _fields(
            report, nesting="pass" if report.nesting else "fail")})


def _cmd_presets(args, ifs, d) -> Result:
    if args.dump:
        # dumps_config ends in the newline that print adds back
        return Result(dumps_config(preset(args.dump)).removesuffix("\n"))
    return Result("\n".join(PRESET_NAMES))


def _run(args) -> int:
    """Run the subcommand's handler and write, print and return its result.

    Under --out the handler's files are written, then the manifest; a run
    that raised writes its manifest too, with the exit code and the error.
    A manifest that cannot be written turns success into exit 2 but keeps
    any other exit code.
    """
    handler, backend, source, slope = args.spec
    out = getattr(args, "out", None)
    params = {k: v for k, v in vars(args).items() if k != "spec"}
    manifest = ManifestTimer(args.command, params, backend)
    error = None
    try:
        # flags that only add a file are usage errors without --out
        for flag in ("generations", "intervals"):
            if getattr(args, flag, False) and not out:
                raise PreconditionError(f"--{flag} writes a file, so it needs --out")
        ifs = d = None
        if source:
            ifs = preset(args.preset) if args.preset else load_config(args.config)
        if slope:
            d = _direction(args)
            manifest.parameters.update(snapped_slope=d.slope,
                                       direction=d.label())
        result = handler(args, ifs, d)
        code = result.code
        if out:
            for name, payload in result.files.items():
                if name.endswith(".csv"):
                    write_csv(Path(out) / name, *payload)
                else:
                    write_json(Path(out) / name, payload)
    # PreconditionError, ConfigError and MalformedIntervalError are ValueErrors.
    except (SizeCapExceeded, ValueError, ZeroDivisionError, OSError) as exc:
        error = exc
        code = EXIT_COMPUTATION if isinstance(
            exc, (SizeCapExceeded, DegenerateFitError)) else EXIT_USAGE
        print(f"error: {exc}", file=sys.stderr)
    if out:
        try:
            manifest.write(out, code, error)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return code or EXIT_USAGE
    if error is None:
        print(result.line)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favardlab",
        description="Exact and numerical Favard-length analysis of "
                    "self-similar sets")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, help, backend=None, source=True, slope=False):
        """Declare a subcommand; returns its parser for its own options.

        ``backend`` is the backend the handler runs on, which the manifest
        records.  Only a subcommand with a backend writes files, so only it
        takes --out.  ``source`` adds --preset/--config, and ``slope`` adds
        --slope/--angle/--chart for the direction handed to the handler.
        """
        p = subs.add_parser(name, help=help)
        if source:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--preset", help="built-in preset name")
            group.add_argument("--config", help="path to an IFS config file")
        if backend:
            p.add_argument("--out", help="directory for CSV/JSON outputs")
        if slope:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--slope", help="rational slope like 1/2")
            group.add_argument("--angle", type=float,
                               help="direction angle in radians (snapped to "
                                    "a rational slope)")
            p.add_argument("--chart", choices=("x", "y"), default=None)
        p.set_defaults(spec=(handler, backend, source, slope))
        return p

    p = sub("alpha", _cmd_alpha, "projected lengths of generations",
            "exact", slope=True)
    p.add_argument("--backend", choices=("exact",), default="exact")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--generations", action="store_true",
                   help="also write the exact generation intervals CSV")

    p = sub("convexity", _cmd_convexity, "second-difference report",
            "exact", slope=True)
    p.add_argument("--depth", type=int, default=8)

    p = sub("favard", _cmd_favard, "Favard length by quadrature", "float")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--panels", type=int, default=4)
    p.add_argument("--refinements", type=int, default=6)

    p = sub("certificate", _cmd_certificate,
            "exact lower-bound certificate Fav >= 1/(40n)", "exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--slope", default="1/2",
                   help="tiling slope at the window center")

    p = sub("special-angle", _cmd_special_angle, "exact tiling check", "exact")
    p.add_argument("--slope", required=True)

    p = sub("lipschitz", _cmd_lipschitz, "finite-difference scan of a0-a1",
            "float")
    p.add_argument("--nodes", type=int, default=10_000)

    p = sub("dimension", _cmd_dimension, "neighborhood decay and exponent",
            "float")
    p.add_argument("--scales", help="comma-separated rational scales")
    p.add_argument("--scale-base", default="8",
                   help="base b for scales b^-k (with --depth-min/max)")
    p.add_argument("--depth-min", type=int, default=3)
    p.add_argument("--depth-max", type=int, default=6)
    p.add_argument("--window",
                   help="angular window lo,hi in radians; write it with '=' "
                        "(--window=-0.5,0.5) when lo is negative")
    p.add_argument("--panels", type=int, default=8)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--sensitivity", action="store_true",
                   help="also integrate one generation shallower/deeper")

    p = sub("cover", _cmd_cover, "expanded projection cover statistics",
            "exact", slope=True)
    p.add_argument("--radius", required=True)
    p.add_argument("--exponents", default="1/2",
                   help="comma-separated Holder exponents in (0,1)")
    p.add_argument("--intervals", action="store_true",
                   help="also write the cover intervals CSV")

    p = sub("counterexample", _cmd_counterexample,
            "1D neighborhood sequences and seesaws", "exact", source=False)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--points-file", help="file of rational points")
    group.add_argument("--seesaw", help='stages "center,spacing,extent;..."')
    p.add_argument("--base", default="4")
    p.add_argument("--n-max", type=int, default=4)

    p = sub("needle", _cmd_needle, "Buffon needle Monte Carlo oracle", "float")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strip-halfwidth", type=float, default=None)

    sub("validate", _cmd_validate, "hypothesis report for an IFS", "exact")

    p = sub("presets", _cmd_presets, "list built-in presets", source=False)
    p.add_argument("--dump", help="print a preset as a config file")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
