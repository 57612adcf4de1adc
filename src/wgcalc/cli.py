"""Line-oriented command surface for the exact engine and its certifiers.

Subcommands: value, series, paths, factorizations, moment, bounds, mc,
cache export, cache verify.  Plain output is one short line per result;
``--json`` switches every subcommand to a single sorted-key JSON record.
``paths --list`` and ``factorizations --list`` print their count first and
then each line as the walk finds it.
Exit codes: 0 success, 1 domain error, 2 failed certification or
comparison, 3 cache corruption, 141 stdout closed early (as under SIGPIPE).

Start-up imports what every subcommand uses: exact, graphs, symcore and
ratfunc.  The rest load in the handler that runs them: moment and mc import
moments, mc also mc (and numpy), bounds imports bounds, cache imports
cache, and --json imports json.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from fractions import Fraction
from itertools import chain
from typing import Iterable

from . import exact, graphs, symcore
from .ratfunc import poly_text


class UsageError(Exception):
    """Bad invocation; the message names the offending argument."""


class CorruptCache(Exception):
    """A ``cache.CacheCorruptionError``, re-raised by the cache handlers so
    that :func:`run` maps it to exit code 3 without importing ``cache``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _common(sub):
    sub.add_argument("--json", action="store_true", help="emit one JSON record")


def _parse_element(args, family: str):
    """Permutation families take --perm, pairing families take --pairing."""
    pairing = exact.FAMILIES[family].pairing
    flag, stray = ("pairing", "perm") if pairing else ("perm", "pairing")
    if getattr(args, flag) is None:
        raise UsageError(f"--{flag} is required for family {family}")
    if getattr(args, stray) is not None:
        raise UsageError(f"--{stray} does not apply to family {family}")
    parse = symcore.parse_pair_partition if pairing else symcore.parse_permutation
    try:
        return parse(getattr(args, flag))
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


def _need_dminus(args, family: str) -> int | None:
    if exact.FAMILIES[family].takes_dminus:
        if args.dminus is None:
            raise UsageError(f"--dminus is required for family {family}")
        return args.dminus
    if getattr(args, "dminus", None) is not None:
        raise UsageError(f"--dminus does not apply to family {family}")
    return None


def _emit(args, record: dict, plain_lines: Iterable[str]) -> None:
    """Print ``record`` as JSON or ``plain_lines`` one by one.  A listing is
    lazy in both: plain lines print as they come, and JSON turns it into a
    list of its formatted lines (``default=list``)."""
    if args.json:
        import json
        print(json.dumps(record, sort_keys=True, default=list))
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
    record = {"family": family, "element": symcore.format_element(elem)}
    if dminus is not None:
        record["dminus"] = dminus
    if args.symbolic:
        if args.dim is not None:
            raise UsageError("--dim does not apply with --symbolic")
        text = exact.reconstruct_rational(family, elem, dminus=dminus).text()
        record["rational_function"] = text
        _emit(args, record, [text])
        return 0
    if args.dim is None:
        raise UsageError("--dim is required unless --symbolic is given")
    value = exact.wg(family, elem, args.dim, dminus)
    record.update(dim=args.dim, value=str(value))
    _emit(args, record, [str(value)])
    return 0


def cmd_series(args) -> int:
    family = args.family
    elem = _parse_element(args, family)
    if args.order < 0:
        raise UsageError(f"--order: must be nonnegative, got {args.order}")
    st = exact.series(family, elem, args.order)
    if exact.FAMILIES[family].takes_dminus:  # each coefficient is a polynomial in dminus
        json_coeffs = [{str(p): c for p, c in sorted(co.items())} for co in st.coefficients]
        polys = [tuple(Fraction(co.get(p, 0)) for p in range(max(co, default=-1) + 1))
                 for co in st.coefficients]
        plain = "; ".join(poly_text(poly, var="dm") for poly in polys)
    else:
        json_coeffs = list(st.coefficients)
        plain = ",".join(map(str, st.coefficients))
    record = {"family": family, "element": symcore.format_element(elem), "order": args.order,
              "leading_exponent": st.leading_exponent, "coefficients": json_coeffs}
    _emit(args, record, [f"leading exponent: {st.leading_exponent}",
                         f"coefficients: {plain}"])
    return 0


def cmd_paths(args) -> int:
    family = args.family
    kind = exact.FAMILIES[family].kind
    elem = _parse_element(args, family)
    if args.solid < 0:
        raise UsageError(f"--solid: must be nonnegative, got {args.solid}")
    if args.dashed is not None and kind is not graphs.GraphKind.AIII:
        raise UsageError("--dashed applies only to family aiii")
    if args.dashed is not None and args.dashed < 0:
        raise UsageError(f"--dashed: must be nonnegative, got {args.dashed}")
    record = {"family": family, "element": symcore.format_element(elem), "solid": args.solid}
    if args.dashed is not None:
        record["dashed"] = args.dashed
    record["count"] = graphs.count_paths(kind, elem, args.solid, args.dashed)
    if args.list:
        record["paths"] = map(graphs.format_path,
                              graphs.enumerate_paths(kind, elem, args.solid, args.dashed))
    _emit(args, record, chain([f"count: {record['count']}"], record.get("paths", ())))
    return 0


def cmd_factorizations(args) -> int:
    family = args.family
    kind = exact.FAMILIES[family].kind
    elem = _parse_element(args, family)
    if args.length < 0:
        raise UsageError(f"--length: must be nonnegative, got {args.length}")
    record = {"family": family, "element": symcore.format_element(elem), "length": args.length}
    record["count"] = graphs.count_paths(kind, elem, args.length)
    if args.list:
        record["factorizations"] = ("".join(f"({s},{t})" for s, t in ts) or "e" for ts in
                                    graphs.monotone_factorizations(kind, elem, args.length))
    _emit(args, record, chain([f"count: {record['count']}"], record.get("factorizations", ())))
    return 0


def _moment_spec(args, family: str, dims):
    """Parse ``--rows/--cols/--crows/--ccols`` and build the ``MomentSpec`` at
    the ``(dim, dminus)`` that ``dims()`` checks and returns.  ``dims`` runs
    after the lists parse, so a malformed list is reported first."""
    from .moments import INDEX_FIELDS, IndexRangeError, MomentSpec
    lists = [_int_list(getattr(args, name), f"--{name}") for name in INDEX_FIELDS]
    dim, dminus = dims()
    try:
        return MomentSpec(family, *lists, dim, dminus)
    except IndexRangeError as exc:
        raise UsageError(f"--{exc.field}: {exc.reason}") from None


def cmd_moment(args) -> int:
    family = args.family
    spec = _moment_spec(args, family, lambda: (args.dim, _need_dminus(args, family)))
    from .moments import exact_moment
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
        state = "ok" if row.ok else "FAIL"
        lines.append(f"{row.label}: lower {_margin_text(row.lower_margin)} "
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


# check -> family -> the wgcalc.bounds certifier, looked up when the command runs
_CERTIFIERS = {
    "counts": {"u": "certify_unitary_bounds", "o": "certify_orthogonal_bounds"},
    "ratio": {"u": "certify_wg_ratio_unitary", "o": "certify_orthogonal_ratio",
              "sp": "certify_sp_ratio"},
    "neighborhood": {"u": "neighborhood_certify"},
    "injection": {"u": "easy_injection_check"},
}


def cmd_bounds(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k: must be positive, got {args.k}")
    check = args.check
    for flag, value, owner in (("--dim", args.dim, "ratio"), ("--gmax", args.gmax, "counts"),
                               ("--extra", args.extra, "injection")):
        if value is not None and check != owner:
            raise UsageError(f"{flag} does not apply to --check {check}")
    for flag, value in (("--gmax", args.gmax), ("--extra", args.extra)):
        if value is not None and value < 0:
            raise UsageError(f"{flag}: must be nonnegative, got {value}")
    if check == "ratio" and args.dim is None:
        raise UsageError("--dim is required for --check ratio")
    certifier = _CERTIFIERS[check].get(args.family)
    if certifier is None:
        if check == "counts":
            raise UsageError("--family: count bounds cover families u and o")
        raise UsageError(f"--family: the {check} check covers family u only")
    # the one flag the check owns, when given; the certifier has the defaults
    owned = {"counts": args.gmax, "ratio": args.dim, "injection": args.extra}.get(check)
    from . import bounds
    certify = getattr(bounds, certifier)
    return _report_output(args, certify(args.k) if owned is None else certify(args.k, owned))


def _mc_dims(args, family: str) -> tuple[int, int | None]:
    """Check ``--sig/--dim/--samples/--seed``; return ``(dim, dminus)``."""
    dminus = None
    dim = args.dim
    if exact.FAMILIES[family].takes_dminus:
        if args.sig is None:
            raise UsageError(f"--sig A,B is required for family {family}")
        sig = _int_list(args.sig, "--sig")
        if len(sig) != 2 or sig[1] < 0 or sig[0] < sig[1]:
            raise UsageError(f"--sig: expected two integers A >= B >= 0, got {args.sig!r}")
        a, b = sig
        if dim is not None and dim != a + b:
            raise UsageError(f"--dim: {dim} does not match signature {a}+{b}")
        dim, dminus = a + b, a - b
    elif args.sig is not None:
        raise UsageError(f"--sig does not apply to family {family}")
    if dim is None:
        raise UsageError("--dim is required")
    from . import mc  # numpy is imported for Monte Carlo only
    if args.samples < mc.MIN_SAMPLES:
        raise UsageError(f"--samples: need at least {mc.MIN_SAMPLES}, got {args.samples}")
    try:
        mc.check_seed(args.seed)
    except ValueError as exc:
        raise UsageError(f"--seed: {exc}") from None
    return dim, dminus


def cmd_mc(args) -> int:
    family = args.family
    if "moment" not in exact.FAMILIES[family].commands:
        # the message names sp, the one family without a moment route
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


def cmd_cache_export(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k: level must be positive, got {args.k}")
    path = args.out
    dminus = _need_dminus(args, args.family)
    from . import cache
    try:
        written = cache.export(path, args.family, args.k, args.dim, dminus)
    except cache.CacheCorruptionError as exc:
        raise CorruptCache(exc) from None
    except OSError as exc:
        raise UsageError(f"--out: {exc.strerror}: {path!r}") from None
    record = {"path": path, "written": written}
    _emit(args, record, [f"wrote {written} new records to {path}"])
    return 0


def cmd_cache_verify(args) -> int:
    path = args.path
    if not 0 < args.fraction <= 1:
        raise UsageError(f"--fraction: must be in (0, 1], got {args.fraction}")
    from . import cache
    try:
        checked, total = cache.verify(path, fraction=args.fraction, seed=args.seed)
    except cache.CacheCorruptionError as exc:
        raise CorruptCache(exc) from None
    except OSError as exc:
        raise UsageError(f"--path: {exc.strerror}: {path!r}") from None
    record = {"path": path, "checked": checked, "total": total}
    _emit(args, record, [f"verified {checked} of {total} records: ok"])
    return 0


def _families(command: str) -> list[str]:
    """The families that take ``command``, in table order."""
    return [name for name, fam in exact.FAMILIES.items() if command in fam.commands]


@functools.cache
def build_parser() -> _Parser:
    """The ``wg`` parser, built on the first call and reused for the rest
    of the process.  Parsing keeps no state in it: ``parse_args`` returns a
    fresh namespace and every parse error raises :class:`UsageError`.  This
    saves time only for a caller that runs many commands in one process; a
    ``wg`` process runs one and builds the parser once either way."""
    parser = _Parser(prog="wg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def element_flags(sub):
        sub.add_argument("--perm", help="permutation as comma-separated images, e.g. 2,1")
        sub.add_argument("--pairing", help='pair partition, e.g. "1,2|3,4"')

    sub = subs.add_parser("value", help="exact Weingarten value")
    sub.add_argument("--family", required=True, choices=list(exact.FAMILIES))
    element_flags(sub)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--dminus", type=int)
    sub.add_argument("--symbolic", action="store_true",
                     help="print the reconstructed rational function of d")
    _common(sub)
    sub.set_defaults(handler=cmd_value)

    sub = subs.add_parser("series", help="large-d expansion coefficients")
    sub.add_argument("--family", required=True, choices=_families("series"))
    element_flags(sub)
    sub.add_argument("--order", type=int, required=True)
    _common(sub)
    sub.set_defaults(handler=cmd_series)

    sub = subs.add_parser("paths", help="count or list monotone descent paths")
    sub.add_argument("--family", required=True, choices=_families("paths"))
    element_flags(sub)
    sub.add_argument("--solid", type=int, required=True)
    sub.add_argument("--dashed", type=int)
    sub.add_argument("--list", action="store_true")
    _common(sub)
    sub.set_defaults(handler=cmd_paths)

    sub = subs.add_parser("factorizations", help="monotone transposition factorizations")
    sub.add_argument("--family", required=True, choices=_families("factorizations"))
    element_flags(sub)
    sub.add_argument("--length", type=int, required=True)
    sub.add_argument("--list", action="store_true")
    _common(sub)
    sub.set_defaults(handler=cmd_factorizations)

    sub = subs.add_parser("moment", help="exact Haar moment of matrix entries")
    sub.add_argument("--family", required=True, choices=_families("moment"))
    sub.add_argument("--rows", required=True)
    sub.add_argument("--cols", required=True)
    sub.add_argument("--crows")
    sub.add_argument("--ccols")
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--dminus", type=int)
    _common(sub)
    sub.set_defaults(handler=cmd_moment)

    sub = subs.add_parser("bounds", help="certify the path-count and ratio bounds")
    sub.add_argument("--check", choices=list(_CERTIFIERS), default="counts")
    sub.add_argument("--family", choices=_families("bounds"), default="u")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--gmax", type=int)
    sub.add_argument("--dim", type=int)
    sub.add_argument("--extra", type=int, help="extra exponent steps for the injection check")
    _common(sub)
    sub.set_defaults(handler=cmd_bounds)

    sub = subs.add_parser("mc", help="Monte Carlo z-test against the exact value")
    sub.add_argument("--family", required=True, choices=list(exact.FAMILIES))
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
    sub.add_argument("--family", required=True, choices=list(exact.FAMILIES))
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--dminus", type=int)
    sub.add_argument("--out", required=True)
    _common(sub)
    sub.set_defaults(handler=cmd_cache_export)

    sub = cache_subs.add_parser("verify", help="recompute a random sample of records")
    sub.add_argument("--path", required=True)
    sub.add_argument("--fraction", type=float, default=0.05)
    sub.add_argument("--seed", type=int, default=0)
    _common(sub)
    sub.set_defaults(handler=cmd_cache_verify)

    return parser


def _run_handler(args) -> int:
    """Run the parsed command with every integer printed whole: a path count
    or series coefficient can pass the 4300-digit cap that CPython 3.11 (and
    3.10.7 on) puts on int-to-str conversion.  The cap guards a parser
    against long untrusted input; the long integers here are the engine's
    own results, and the process-wide cap is restored on return."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.handler(args)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    finally:
        sys.set_int_max_str_digits(cap)


def run(argv=None) -> int:
    """Run one command; return its exit code.  Each distinct warning the
    engine raised is printed once on stderr as ``warning: <message>``,
    before the error line if the command failed.  The engine's refusals of
    the dimension, :class:`wgcalc.exact.DimensionError` and
    :class:`wgcalc.exact.SingularSystemError`, print as
    ``error: --dim: <reason>``.  Safe to call repeatedly in
    one process: every call parses with the one parser :func:`build_parser`
    keeps."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = build_parser().parse_args(argv)
            return _run_handler(args)
        except CorruptCache as exc:
            code, error = 3, f"cache corruption: {exc}"
        except (exact.SingularSystemError, exact.DimensionError) as exc:
            code, error = 1, f"error: --dim: {exc}"
        except (UsageError, ValueError, TypeError) as exc:
            code, error = 1, f"error: {exc}"
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    print(error, file=sys.stderr)
    return code


def entry() -> None:
    """The ``wg`` command.  A reader that closes stdout early, such as
    ``head``, ends it quietly with exit code 141, as SIGPIPE would."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
