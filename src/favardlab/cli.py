"""Command-line front end.

Every analysis is a subcommand writing machine-readable CSV/JSON into the
--out directory (plus a manifest echoing all parameters) and printing a
one-line summary.  Exit codes: 0 success, 1 computation failure (size cap,
non-convergence, degenerate fit), 2 usage error, 3 a certified claim failed
(certificate or convexity gate), so CI can distinguish regressions in the
mathematics from operational breakage.

Slopes are given exactly as rational strings ("1/2"); angles may be given
as decimal radians instead and are snapped to a nearby rational slope.  An
angle fixes its own chart, so --chart goes with --slope only.  Slopes
steeper than 1 switch to the complementary chart automatically.  The
manifest keeps the requested options as given and records the direction
actually used as ``direction`` ("y:2/5") and ``snapped_slope``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

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
    interval_rows,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2
EXIT_CLAIM = 3


def _add_source(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="built-in preset name")
    group.add_argument("--config", help="path to an IFS config file")


def _load_ifs(args):
    if args.preset:
        return preset(args.preset)
    return load_config(args.config)


def _direction(args) -> Direction:
    if getattr(args, "angle", None) is not None:
        if args.chart is not None:
            raise PreconditionError("--chart goes with --slope only; "
                                    "--angle picks its own chart")
        return Direction.from_angle(args.angle)
    return Direction.from_slope(args.slope, args.chart or "x")


def _manifest(subcommand: str, args, backend: str,
              d: Optional[Direction] = None) -> ManifestTimer:
    """Manifest of every option but argparse's handler, plus the direction
    actually used, if any, next to the requested chart."""
    params = {k: v for k, v in vars(args).items() if k != "handler"}
    if d is not None:
        params.update(snapped_slope=d.slope, direction=d.label())
    return ManifestTimer(subcommand, params, backend)


def _out_dir(args):
    return Path(args.out) if args.out else None


def _parse_rational_list(text: str) -> list:
    return [to_fraction(tok) for tok in text.split(",") if tok.strip()]


def _cmd_alpha(args) -> int:
    ifs = _load_ifs(args)
    d = _direction(args)
    manifest = _manifest("alpha", args, args.backend, d)
    seq = alpha_sequence(ifs, d, args.depth, backend=args.backend)
    rows = [(n, d.slope, v, float(v) * seq.scale)
            for n, v in enumerate(seq.values)]
    out = _out_dir(args)
    if out:
        write_csv(out / "alpha.csv", ("n", "slope", "sheared", "true"), rows)
        if args.generations:
            gens = iter_generations(ifs, d, args.depth)
            write_csv(out / "generations.csv",
                      ("n", "chart", "slope", "lo", "hi"),
                      generation_rows(gens))
        manifest.write(out)
    first, last = rows[0][3], rows[-1][3]
    print(f"alpha {d.label()} n=0..{args.depth}: true length "
          f"{first:.6f} -> {last:.6f}")
    return EXIT_OK


def _cmd_convexity(args) -> int:
    ifs = _load_ifs(args)
    d = _direction(args)
    manifest = _manifest("convexity", args, args.backend, d)
    seq = alpha_sequence(ifs, d, args.depth, backend=args.backend)
    report = check_convexity(seq)
    out = _out_dir(args)
    if out:
        write_csv(out / "convexity.csv", ("k", "margin"), report.margins)
        write_csv(out / "alpha.csv", ("n", "slope", "sheared", "true"),
                  [(n, d.slope, v, float(v) * seq.scale)
                   for n, v in enumerate(seq.values)])
        manifest.write(out)
    applies = ifs.convexity_applies
    verdict = "convex" if report.convex else "NOT convex"
    mode = "theorem applies" if applies else "exploratory: ratio sum != 1"
    print(f"convexity {d.label()} depth {args.depth}: {verdict} ({mode})")
    if applies and not report.convex:
        return EXIT_CLAIM
    return EXIT_OK


def _cmd_favard(args) -> int:
    ifs = _load_ifs(args)
    quad = QuadratureConfig(tol=args.tol, panel_order=args.order,
                            initial_panels=args.panels,
                            max_refinements=args.refinements,
                            backend=args.backend)
    manifest = _manifest("favard", args, args.backend)
    est = favard(ifs, args.n, quad)
    out = _out_dir(args)
    if out:
        write_json(out / "favard.json", {
            "n": est.n, "value": est.value, "error": est.error,
            "status": est.status, "nodes": est.nodes, "panels": est.panels,
            "tol": quad.tol, "panel_order": quad.panel_order,
        })
        manifest.write(out)
    print(f"favard n={est.n}: {est.value:.8f} +- {est.error:.2e} "
          f"({est.status}, {est.panels} panels)")
    return EXIT_OK if est.converged else EXIT_COMPUTATION


def _cmd_certificate(args) -> int:
    ifs = _load_ifs(args)
    manifest = _manifest("certificate", args, "exact")
    cert = lower_bound_certificate(ifs, args.n, args.grid,
                                   special_slope=to_fraction(args.slope))
    out = _out_dir(args)
    if out:
        write_csv(out / "certificate.csv",
                  ("slope", "alpha0", "alpha1", "L", "pass"),
                  [(r.slope, r.alpha0, r.alpha1, r.lower, r.ok)
                   for r in cert.grid])
        write_json(out / "certificate.json", {
            "n": cert.n, "special_slope": cert.special_slope,
            "window_center": cert.window_center,
            "window_halfwidth": cert.window_halfwidth,
            "claimed_bound": cert.claimed_bound, "status": cert.status,
            "witness": cert.witness, "grid_count": len(cert.grid),
        })
        manifest.write(out)
    if cert.passed:
        print(f"certificate n={cert.n}: PASS, Fav >= {cert.claimed_bound} "
              f"({len(cert.grid)} slopes)")
        return EXIT_OK
    print(f"certificate n={cert.n}: FAIL at slope {fmt(cert.witness)}")
    return EXIT_CLAIM


def _cmd_special_angle(args) -> int:
    ifs = _load_ifs(args)
    manifest = _manifest("special-angle", args, "exact")
    rep = special_slope_check(ifs, to_fraction(args.slope))
    out = _out_dir(args)
    if out:
        write_json(out / "special_angle.json", {
            "slope": rep.slope, "tiles": rep.tiles, "defect": rep.defect,
            "pieces": rep.pieces, "base_measure": rep.base_measure,
        })
        manifest.write(out)
    word = "tiles" if rep.tiles else "does not tile"
    print(f"special angle t={fmt(rep.slope)}: generation 1 {word}, "
          f"defect {fmt(rep.defect)}")
    return EXIT_OK


def _cmd_lipschitz(args) -> int:
    ifs = _load_ifs(args)
    manifest = _manifest("lipschitz", args, "float")
    rep = lipschitz_scan(ifs, nodes=args.nodes)
    out = _out_dir(args)
    if out:
        write_csv(out / "lipschitz.csv", ("theta", "g"),
                  zip(rep.thetas.tolist(), rep.g.tolist()))
        write_json(out / "lipschitz.json", {
            "nodes": rep.nodes, "spacing": rep.spacing,
            "sup_slope": rep.sup_slope, "argmin_theta": rep.argmin_theta,
            "min_value": rep.min_value, "zeros": list(rep.zeros),
            "nonnegative": rep.nonnegative,
        })
        manifest.write(out)
    zs = ", ".join(f"{z:.4f}" for z in rep.zeros)
    print(f"lipschitz {rep.nodes} nodes: sup slope {rep.sup_slope:.4f}, "
          f"zeros near [{zs}]")
    return EXIT_OK


def _cmd_dimension(args) -> int:
    ifs = _load_ifs(args)
    if args.scales:
        scales = _parse_rational_list(args.scales)
    else:
        b = to_fraction(args.scale_base)
        scales = [b ** -k for k in range(args.depth_min, args.depth_max + 1)]
    window = None
    if args.window:
        lo, hi = (float(x) for x in args.window.split(","))
        window = (lo, hi)
    manifest = _manifest("dimension", args, "float")
    series = decay_series(ifs, scales, window=window, panels=args.panels,
                          order=args.order, sensitivity=args.sensitivity,
                          include_directions=False)
    fit = exponent_fit(series)
    rows = []
    for i, rec in enumerate(series):
        partial = exponent_fit(series[:i + 1]).s if i >= 2 else ""
        rows.append((rec.r, rec.total, partial))
    out = _out_dir(args)
    if out:
        write_csv(out / "decay.csv", ("r", "total", "slope_so_far"), rows)
        write_json(out / "fit.json", {
            "s": fit.s, "C": fit.C, "residual": fit.residual,
            "dim_bound": fit.dim_bound,
            "records": [{"r": rec.r, "total": rec.total, "depth": rec.depth,
                         "total_shallower": rec.total_shallower,
                         "total_deeper": rec.total_deeper}
                        for rec in series],
        })
        manifest.write(out)
    print(f"dimension: s={fit.s:.4f}, fitted dim estimate {fit.dim_bound:.4f}, "
          f"residual {fit.residual:.2e} over {len(series)} scales")
    return EXIT_OK


def _cmd_cover(args) -> int:
    ifs = _load_ifs(args)
    d = _direction(args)
    exponents = _parse_rational_list(args.exponents)
    manifest = _manifest("cover", args, "exact", d)
    stats = cover_stats(ifs, d, to_fraction(args.radius), exponents)
    out = _out_dir(args)
    if out:
        write_csv(out / "cover.csv",
                  ("r", "count", "min_length", "p", "holder_sum"),
                  [(stats.r, stats.count, stats.min_length, p,
                    stats.holder_sums[p]) for p in exponents])
        if args.intervals:
            write_csv(out / "intervals.csv", ("lo", "hi"),
                      interval_rows(stats.intervals))
        write_json(out / "cover.json", {
            "r": stats.r, "depth": stats.depth, "count": stats.count,
            "min_length": stats.min_length,
            "min_length_sheared": stats.min_length_sheared,
            "measure": stats.measure,
            "holder_sums": {fmt(p): v for p, v in stats.holder_sums.items()},
            "q_values": {fmt(p): q for p, q in stats.q_values.items()},
            "floor_ok": stats.floor_ok,
            "count_ceiling_ok": stats.count_ceiling_ok,
        })
        manifest.write(out)
    print(f"cover r={fmt(stats.r)}: {stats.count} pieces, min length "
          f"{stats.min_length:.6g}, floor>=2r {stats.floor_ok}")
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    manifest = _manifest("counterexample", args, "exact")
    overlaps = ()
    if args.seesaw:
        stages = [tuple(to_fraction(x) for x in stage.split(","))
                  for stage in args.seesaw.split(";")]
        result = seesaw_builder(stages, base=to_fraction(args.base),
                                n_max=args.n_max)
        seq, report, overlaps = result.sequence, result.convexity, \
            result.overlaps
        label = f"seesaw({len(stages)} stages)"
    else:
        pts = read_points(args.points_file) if args.points_file \
            else section_lattice()
        seq = neighborhood_sequence(pts, to_fraction(args.base), args.n_max)
        report = check_convexity([m for _, m in seq]) if len(seq) >= 3 else None
        label = args.points_file or "quarter-integer lattice"
    out = _out_dir(args)
    if out:
        write_csv(out / "neighborhood.csv", ("n", "measure"), seq)
        if report is not None:
            write_csv(out / "convexity.csv", ("k", "margin"), report.margins)
        write_json(out / "counterexample.json", {
            "source": str(label), "base": to_fraction(args.base),
            "sequence": [{"n": n, "measure": m} for n, m in seq],
            "convex": None if report is None else report.convex,
            "first_violation": None if report is None
            else report.first_violation,
            "overlaps": list(overlaps),
        })
        manifest.write(out)
    if report is None:
        print(f"counterexample {label}: sequence too short for a verdict")
    else:
        verdict = "convex" if report.convex else \
            f"NOT convex (first violation k={report.first_violation})"
        print(f"counterexample {label}: {verdict}")
    return EXIT_OK


def _cmd_needle(args) -> int:
    ifs = _load_ifs(args)
    cfg = NeedleConfig(trials=args.trials, seed=args.seed,
                       generation=args.n,
                       strip_halfwidth=args.strip_halfwidth)
    manifest = _manifest("needle", args, "float")
    est = estimate_favard_mc(ifs, cfg)
    out = _out_dir(args)
    if out:
        write_json(out / "needle.json", {
            "estimate": est.estimate, "se": est.standard_error,
            "hits": est.hits, "trials": est.trials, "tests": est.tests,
            "seed": est.seed,
            "generation": est.generation,
            "strip_halfwidth": est.strip_halfwidth,
        })
        manifest.write(out)
    print(f"needle n={est.generation}: {est.estimate:.6f} "
          f"+- {est.standard_error:.6f} ({est.hits}/{est.trials} hits)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    ifs = _load_ifs(args)
    manifest = _manifest("validate", args, "exact")
    report = validate(ifs)
    out = _out_dir(args)
    if out:
        write_json(out / "validate.json", report.as_dict())
        manifest.write(out)
    conv = "convexity applies" if report.convexity_applies \
        else "convexity hypothesis fails"
    nest = "nesting ok" if report.nesting else "nesting FAILS"
    print(f"validate {ifs.name}: ratio sum {fmt(report.ratio_sum)} ({conv}), "
          f"{nest}, branching {report.branching}")
    return EXIT_OK


def _cmd_presets(args) -> int:
    if args.dump:
        sys.stdout.write(dumps_config(preset(args.dump)))
        return EXIT_OK
    for name in PRESET_NAMES:
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favardlab",
        description="Exact and numerical Favard-length analysis of "
                    "self-similar sets")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sub, backend=None):
        # --backend only where the handler honours it
        _add_source(sub)
        sub.add_argument("--out", help="directory for CSV/JSON outputs")
        if backend:
            sub.add_argument("--backend", choices=("exact", "float"),
                             default=backend)

    def slope_flags(sub, required=True):
        group = sub.add_mutually_exclusive_group(required=required)
        group.add_argument("--slope", help="rational slope like 1/2")
        group.add_argument("--angle", type=float,
                           help="direction angle in radians (snapped to a "
                                "rational slope)")
        sub.add_argument("--chart", choices=("x", "y"), default=None)

    p = subs.add_parser("alpha", help="projected lengths of generations")
    common(p, backend="exact")
    slope_flags(p)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--generations", action="store_true",
                   help="also write the exact generation intervals CSV, "
                        "whatever the backend")
    p.set_defaults(handler=_cmd_alpha)

    p = subs.add_parser("convexity", help="second-difference report")
    common(p, backend="exact")
    slope_flags(p)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(handler=_cmd_convexity)

    p = subs.add_parser("favard", help="Favard length by quadrature")
    common(p, backend="float")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--panels", type=int, default=4)
    p.add_argument("--refinements", type=int, default=6)
    p.set_defaults(handler=_cmd_favard)

    p = subs.add_parser("certificate",
                        help="exact lower-bound certificate Fav >= 1/(40n)")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--slope", default="1/2",
                   help="tiling slope at the window center")
    p.set_defaults(handler=_cmd_certificate)

    p = subs.add_parser("special-angle", help="exact tiling check")
    common(p)
    p.add_argument("--slope", required=True)
    p.set_defaults(handler=_cmd_special_angle)

    p = subs.add_parser("lipschitz", help="finite-difference scan of a0-a1")
    common(p)
    p.add_argument("--nodes", type=int, default=10_000)
    p.set_defaults(handler=_cmd_lipschitz)

    p = subs.add_parser("dimension", help="neighborhood decay and exponent")
    common(p)
    p.add_argument("--scales", help="comma-separated rational scales")
    p.add_argument("--scale-base", default="8",
                   help="base b for scales b^-k (with --depth-min/max)")
    p.add_argument("--depth-min", type=int, default=3)
    p.add_argument("--depth-max", type=int, default=6)
    p.add_argument("--window", help="angular window lo,hi in radians")
    p.add_argument("--panels", type=int, default=8)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--sensitivity", action="store_true",
                   help="also integrate one generation shallower/deeper")
    p.set_defaults(handler=_cmd_dimension)

    p = subs.add_parser("cover", help="expanded projection cover statistics")
    common(p)
    slope_flags(p)
    p.add_argument("--radius", required=True)
    p.add_argument("--exponents", default="1/2",
                   help="comma-separated Holder exponents in (0,1)")
    p.add_argument("--intervals", action="store_true",
                   help="also write the cover intervals CSV")
    p.set_defaults(handler=_cmd_cover)

    p = subs.add_parser("counterexample",
                        help="1D neighborhood sequences and seesaws")
    p.add_argument("--points-file", help="file of rational points")
    p.add_argument("--seesaw", help='stages "center,spacing,extent;..."')
    p.add_argument("--base", default="4")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_counterexample)

    p = subs.add_parser("needle", help="Buffon needle Monte Carlo oracle")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strip-halfwidth", type=float, default=None)
    p.set_defaults(handler=_cmd_needle)

    p = subs.add_parser("validate", help="hypothesis report for an IFS")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("presets", help="list built-in presets")
    p.add_argument("--dump", help="print a preset as a config file")
    p.set_defaults(handler=_cmd_presets)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (SizeCapExceeded, DegenerateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    # PreconditionError, ConfigError and MalformedIntervalError are ValueErrors.
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
