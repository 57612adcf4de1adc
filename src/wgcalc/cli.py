"""Line-oriented command surface for the exact engine and its certifiers.

Subcommands: value, series, paths, factorizations, moment, bounds, mc,
cache export, cache verify.  Plain output is one short line per result;
``--json`` switches every subcommand to a single sorted-key JSON record.
Exit codes: 0 success, 1 domain error, 2 failed certification or
comparison, 3 cache corruption.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import cache as cache_mod
from . import exact, graphs, symcore
from .moments import INDEX_FIELDS, IndexRangeError, MomentSpec, exact_moment
from .ratfunc import poly_text

CACHE_ENV = "WG_CACHE"


class UsageError(Exception):
    """Bad invocation; the message names the offending argument."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common(sub):
    sub.add_argument("--json", action="store_true", help="emit one JSON record")
    sub.add_argument("--threads", type=int, default=1,
                     help="cap on worker threads (the solvers are serial)")
    sub.add_argument("--config", help="optional config file; flags always win")


def _config_cache_path(args) -> str | None:
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        if not parser.read(args.config):
            raise UsageError(f"--config: cannot read {args.config!r}")
        return parser.get("wg", "cache", fallback=None)
    return None


def _check_threads(args) -> None:
    if args.threads < 1:
        raise UsageError(f"--threads: must be a positive integer, got {args.threads}")


def _parse_element(args, family: str):
    """Permutation families take --perm, pairing families take --pairing."""
    wants_perm = family in ("u", "aiii")
    if wants_perm:
        if args.perm is None:
            raise UsageError(f"--perm is required for family {family}")
        if getattr(args, "pairing", None) is not None:
            raise UsageError(f"--pairing does not apply to family {family}")
        try:
            return symcore.parse_permutation(args.perm)
        except ValueError as exc:
            raise UsageError(f"--perm: {exc}") from None
    if args.pairing is None:
        raise UsageError(f"--pairing is required for family {family}")
    if getattr(args, "perm", None) is not None:
        raise UsageError(f"--perm does not apply to family {family}")
    try:
        return symcore.parse_pair_partition(args.pairing)
    except ValueError as exc:
        raise UsageError(f"--pairing: {exc}") from None


def _need_dminus(args, family: str) -> int | None:
    if family == "aiii":
        if args.dminus is None:
            raise UsageError("--dminus is required for family aiii")
        return args.dminus
    if getattr(args, "dminus", None) is not None:
        raise UsageError(f"--dminus does not apply to family {family}")
    return None


def _emit(args, record: dict, plain_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    if text is None:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def cmd_value(args) -> int:
    family = args.family
    elem = _parse_element(args, family)
    dminus = _need_dminus(args, family)
    if args.symbolic:
        if args.dim is not None:
            raise UsageError("--dim does not apply with --symbolic")
        rep = exact.reconstruct_rational(family, elem, dminus=dminus)
        text = rep.text()
        record = {"family": family, "element": symcore.format_element(elem),
                  "rational_function": text}
        if dminus is not None:
            record["dminus"] = dminus
        _emit(args, record, [text])
        return 0
    if args.dim is None:
        raise UsageError("--dim is required unless --symbolic is given")
    try:
        value = exact.wg(family, elem, args.dim, dminus)
    except (ValueError, exact.SingularSystemError) as exc:
        raise UsageError(f"--dim: {exc}") from None
    record = {"family": family, "element": symcore.format_element(elem),
              "dim": args.dim, "value": str(value)}
    if dminus is not None:
        record["dminus"] = dminus
    _emit(args, record, [str(value)])
    return 0


def _series_coeff_text(family: str, coeff) -> str:
    if family != "aiii":
        return str(coeff)
    if not coeff:
        return "0"
    poly = [0] * (max(coeff) + 1)
    for power, c in coeff.items():
        poly[power] = c
    return poly_text(tuple(Fraction(c) for c in poly), var="dm")


def cmd_series(args) -> int:
    family = args.family
    elem = _parse_element(args, family)
    if args.order < 0:
        raise UsageError(f"--order: must be nonnegative, got {args.order}")
    st = exact.series(family, elem, args.order)
    texts = [_series_coeff_text(family, c) for c in st.coefficients]
    if family == "aiii":
        json_coeffs = [{str(p): c for p, c in sorted(co.items())} for co in st.coefficients]
        plain = "; ".join(texts)
    else:
        json_coeffs = list(st.coefficients)
        plain = ",".join(texts)
    record = {"family": family, "element": symcore.format_element(elem), "order": args.order,
              "leading_exponent": st.leading_exponent, "coefficients": json_coeffs}
    _emit(args, record, [f"leading exponent: {st.leading_exponent}",
                         f"coefficients: {plain}"])
    return 0


def cmd_paths(args) -> int:
    family = args.family
    kind = graphs.GraphKind(family)
    elem = _parse_element(args, family)
    if args.solid < 0:
        raise UsageError(f"--solid: must be nonnegative, got {args.solid}")
    if args.dashed is not None and family != "aiii":
        raise UsageError("--dashed applies only to family aiii")
    if args.dashed is not None and args.dashed < 0:
        raise UsageError(f"--dashed: must be nonnegative, got {args.dashed}")
    count = graphs.count_paths(kind, elem, args.solid, args.dashed)
    lines = [f"count: {count}"]
    listed = None
    if args.list:
        paths = graphs.enumerate_paths(kind, elem, args.solid)
        if args.dashed is not None:
            paths = [p for p in paths if p.count(graphs.DASHED) == args.dashed]
        listed = [graphs.format_path(p) for p in paths]
        lines.extend(listed)
    record = {"family": family, "element": symcore.format_element(elem), "solid": args.solid,
              "count": count}
    if args.dashed is not None:
        record["dashed"] = args.dashed
    if listed is not None:
        record["paths"] = listed
    _emit(args, record, lines)
    return 0


def cmd_factorizations(args) -> int:
    family = args.family
    kind = graphs.GraphKind(family)
    elem = _parse_element(args, family)
    if args.length < 0:
        raise UsageError(f"--length: must be nonnegative, got {args.length}")
    hits = [f for f in graphs.enumerate_monotone_factorizations(kind, elem.level, args.length)
            if f.target() == elem]
    texts = ["".join(f"({s},{t})" for s, t in f.transpositions) or "e" for f in hits]
    lines = [f"count: {len(hits)}"]
    record = {"family": family, "element": symcore.format_element(elem),
              "length": args.length, "count": len(hits)}
    if args.list:
        lines.extend(texts)
        record["factorizations"] = texts
    _emit(args, record, lines)
    return 0


def _moment_spec(args, family: str, dims) -> MomentSpec:
    """Parse ``--rows/--cols/--crows/--ccols`` and build the spec at the
    ``(dim, dminus)`` that ``dims()`` checks and returns.  ``dims`` runs
    after the lists parse, so a malformed list is reported first."""
    lists = [_int_list(getattr(args, name), f"--{name}") for name in INDEX_FIELDS]
    dim, dminus = dims()
    try:
        return MomentSpec(family, *lists, dim, dminus)
    except IndexRangeError as exc:
        raise UsageError(f"--{exc.field}: {exc.reason}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_moment(args) -> int:
    family = args.family
    spec = _moment_spec(args, family, lambda: (args.dim, _need_dminus(args, family)))
    value = exact_moment(spec)
    record = {"family": family, "dim": spec.d, "rows": list(spec.rows),
              "cols": list(spec.cols), "value": str(value)}
    if spec.crows:
        record["crows"], record["ccols"] = list(spec.crows), list(spec.ccols)
    if spec.dminus is not None:
        record["dminus"] = spec.dminus
    _emit(args, record, [str(value)])
    return 0


def _margin_text(m) -> str:
    return "-" if m is None else str(m)


def _report_output(args, report) -> int:
    rows = []
    lines = []
    for row in report.rows:
        label = row.class_key if row.g is None else f"{row.class_key} g={row.g}"
        state = "ok" if row.ok else "FAIL"
        lines.append(f"{label}: lower {_margin_text(row.lower_margin)} "
                     f"upper {_margin_text(row.upper_margin)} {state}")
        rows.append({"class": row.class_key, "g": row.g,
                     "lower_margin": None if row.lower_margin is None else str(row.lower_margin),
                     "upper_margin": None if row.upper_margin is None else str(row.upper_margin),
                     "ok": row.ok})
    verdict = "all bounds hold" if report.all_pass else "BOUND FAILURE"
    lines.append(f"{verdict} (tightest lower: {report.tightest_lower}, "
                 f"tightest upper: {report.tightest_upper})")
    record = {"family": report.family, "check": report.check, "k": report.k,
              "d": report.d, "gmax": report.gmax, "all_pass": report.all_pass,
              "tightest_lower": report.tightest_lower,
              "tightest_upper": report.tightest_upper, "rows": rows}
    _emit(args, record, lines)
    return 0 if report.all_pass else 2


def cmd_bounds(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k: must be positive, got {args.k}")
    for flag, value in (("--gmax", args.gmax), ("--extra", args.extra)):
        if value < 0:
            raise UsageError(f"{flag}: must be nonnegative, got {value}")
    check = args.check
    try:
        if check == "counts":
            if args.family == "u":
                report = bounds_mod.certify_unitary_bounds(args.k, args.gmax)
            elif args.family == "o":
                report = bounds_mod.certify_orthogonal_bounds(args.k, args.gmax)
            else:
                raise UsageError("--family: count bounds cover families u and o")
        elif check == "ratio":
            if args.dim is None:
                raise UsageError("--dim is required for --check ratio")
            if args.family == "u":
                report = bounds_mod.certify_wg_ratio_unitary(args.k, args.dim)
            elif args.family == "o":
                report = bounds_mod.certify_orthogonal_ratio(args.k, args.dim)
            else:
                report = bounds_mod.certify_sp_ratio(args.k, args.dim)
        elif args.family != "u":
            raise UsageError(f"--family: the {check} check covers family u only")
        elif check == "neighborhood":
            report = bounds_mod.neighborhood_certify(args.k)
        else:
            report = bounds_mod.easy_injection_check(args.k, extra=args.extra)
    except ValueError as exc:
        raise UsageError(f"--dim: {exc}") from None
    return _report_output(args, report)


def _mc_dims(args, family: str) -> tuple[int, int | None]:
    """Check ``--sig/--dim/--samples/--seed``; return ``(dim, dminus)``."""
    dminus = None
    dim = args.dim
    if family == "aiii":
        if args.sig is None:
            raise UsageError("--sig A,B is required for family aiii")
        sig = _int_list(args.sig, "--sig")
        if len(sig) != 2:
            raise UsageError(f"--sig: expected two integers, got {args.sig!r}")
        a, b = sig
        if dim is not None and dim != a + b:
            raise UsageError(f"--dim: {dim} does not match signature {a}+{b}")
        dim, dminus = a + b, a - b
    elif args.sig is not None:
        raise UsageError(f"--sig does not apply to family {family}")
    if dim is None:
        raise UsageError("--dim is required")
    if args.samples < 1000:
        raise UsageError(f"--samples: need at least 1000, got {args.samples}")
    from . import mc  # numpy is imported for Monte Carlo only
    try:
        mc.check_seed(args.seed)
    except ValueError as exc:
        raise UsageError(f"--seed: {exc}") from None
    return dim, dminus


def cmd_mc(args) -> int:
    family = args.family
    if family == "sp":
        raise UsageError(
            "--family: symplectic sampling is unsupported; exact symplectic "
            "values are defined only up to sign, so there is no oracle target"
        )
    spec = _moment_spec(args, family, lambda: _mc_dims(args, family))
    from . import mc
    report = mc.compare_with_exact(spec, args.samples, args.seed)
    est = report.estimate
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"estimate: {est.mean.real:.8g} + {est.mean.imag:.8g}j "
        f"(se {est.se_real:.3g}, {est.se_imag:.3g})",
        f"exact: {report.exact}",
        f"z: {report.z_real:.4g}, {report.z_imag:.4g}",
        verdict,
    ]
    record = {"family": family, "dim": spec.d, "samples": args.samples,
              "seed": args.seed, "mean_real": est.mean.real,
              "mean_imag": est.mean.imag, "se_real": est.se_real,
              "se_imag": est.se_imag, "exact": str(report.exact),
              "z_real": report.z_real, "z_imag": report.z_imag,
              "passed": report.passed, "stream": est.stream}
    if spec.dminus is not None:
        record["dminus"] = spec.dminus
    _emit(args, record, lines)
    return 0 if report.passed else 2


def _cache_path(args, flag: str) -> str:
    explicit = getattr(args, flag.lstrip("-"), None)
    path = explicit or os.environ.get(CACHE_ENV) or _config_cache_path(args)
    if not path:
        raise UsageError(f"{flag} is required (or set {CACHE_ENV})")
    return path


def cmd_cache_export(args) -> int:
    path = _cache_path(args, "--out")
    dminus = _need_dminus(args, args.family)
    try:
        written = cache_mod.export(path, args.family, args.k, args.dim, dminus)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except OSError as exc:
        raise UsageError(f"--out: {exc.strerror}: {path!r}") from None
    record = {"path": path, "written": written}
    _emit(args, record, [f"wrote {written} new records to {path}"])
    return 0


def cmd_cache_verify(args) -> int:
    path = _cache_path(args, "--path")
    if not 0 < args.fraction <= 1:
        raise UsageError(f"--fraction: must be in (0, 1], got {args.fraction}")
    try:
        checked, total = cache_mod.verify(path, fraction=args.fraction, seed=args.seed)
    except OSError as exc:
        raise UsageError(f"--path: {exc.strerror}: {path!r}") from None
    record = {"path": path, "checked": checked, "total": total}
    _emit(args, record, [f"verified {checked} of {total} records: ok"])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="wg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def element_flags(sub):
        sub.add_argument("--perm", help="permutation as comma-separated images, e.g. 2,1")
        sub.add_argument("--pairing", help='pair partition, e.g. "1,2|3,4"')

    sub = subs.add_parser("value", help="exact Weingarten value")
    sub.add_argument("--family", required=True, choices=exact.FAMILIES)
    element_flags(sub)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--dminus", type=int)
    sub.add_argument("--symbolic", action="store_true",
                     help="print the reconstructed rational function of d")
    _common(sub)
    sub.set_defaults(handler=cmd_value)

    sub = subs.add_parser("series", help="large-d expansion coefficients")
    sub.add_argument("--family", required=True, choices=["u", "o", "sp", "aiii"])
    element_flags(sub)
    sub.add_argument("--order", type=int, required=True)
    _common(sub)
    sub.set_defaults(handler=cmd_series)

    sub = subs.add_parser("paths", help="count or list monotone descent paths")
    sub.add_argument("--family", required=True, choices=["u", "o", "aiii"])
    element_flags(sub)
    sub.add_argument("--solid", type=int, required=True)
    sub.add_argument("--dashed", type=int)
    sub.add_argument("--list", action="store_true")
    _common(sub)
    sub.set_defaults(handler=cmd_paths)

    sub = subs.add_parser("factorizations", help="monotone transposition factorizations")
    sub.add_argument("--family", required=True, choices=["u", "o"])
    element_flags(sub)
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--list", action="store_true")
    _common(sub)
    sub.set_defaults(handler=cmd_factorizations)

    sub = subs.add_parser("moment", help="exact Haar moment of matrix entries")
    sub.add_argument("--family", required=True, choices=["u", "o", "coe", "aiii"])
    sub.add_argument("--rows", required=True)
    sub.add_argument("--cols", required=True)
    sub.add_argument("--crows")
    sub.add_argument("--ccols")
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--dminus", type=int)
    _common(sub)
    sub.set_defaults(handler=cmd_moment)

    sub = subs.add_parser("bounds", help="certify the path-count and ratio bounds")
    sub.add_argument("--check", choices=["counts", "ratio", "neighborhood", "injection"],
                     default="counts")
    sub.add_argument("--family", choices=["u", "o", "sp"], default="u")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--gmax", type=int, default=3)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--extra", type=int, default=4,
                     help="extra exponent steps for the injection check")
    _common(sub)
    sub.set_defaults(handler=cmd_bounds)

    sub = subs.add_parser("mc", help="Monte Carlo z-test against the exact value")
    sub.add_argument("--family", required=True, choices=exact.FAMILIES)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--sig", help="aiii signature A,B")
    sub.add_argument("--rows", required=True)
    sub.add_argument("--cols", required=True)
    sub.add_argument("--crows")
    sub.add_argument("--ccols")
    sub.add_argument("--samples", type=int, default=20000)
    sub.add_argument("--seed", type=int, default=0)
    _common(sub)
    sub.set_defaults(handler=cmd_mc)

    cache_parser = subs.add_parser("cache", help="export and verify the value cache")
    cache_subs = cache_parser.add_subparsers(dest="cache_command", required=True)

    sub = cache_subs.add_parser("export", help="append class values for levels 1..k")
    sub.add_argument("--family", required=True, choices=exact.FAMILIES)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--dminus", type=int)
    sub.add_argument("--out")
    _common(sub)
    sub.set_defaults(handler=cmd_cache_export)

    sub = cache_subs.add_parser("verify", help="recompute a random sample of records")
    sub.add_argument("--path")
    sub.add_argument("--fraction", type=float, default=0.05)
    sub.add_argument("--seed", type=int, default=0)
    _common(sub)
    sub.set_defaults(handler=cmd_cache_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_threads(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except cache_mod.CacheCorruptionError as exc:
        print(f"cache corruption: {exc}", file=sys.stderr)
        return 3
    except exact.SingularSystemError as exc:
        print(f"error: --dim: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
