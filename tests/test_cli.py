"""End-to-end checks of the wg command surface."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from decimal import Decimal
from pathlib import Path

import pytest
from oracles import all_permutations, enumerate_monotone_factorizations

from wgcalc import cli, graphs, symcore
from wgcalc.bounds import BoundReport, BoundRow
from wgcalc.graphs import GraphKind
from wgcalc.symcore import all_pair_partitions


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_value_frozen_examples(capsys):
    code, out, _ = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1", "--dim", "5"])
    assert (code, out) == (0, "-1/120\n")
    code, out, _ = run_capture(capsys, ["value", "--family", "o", "--pairing", "1,2|3,4", "--dim", "4"])
    assert (code, out) == (0, "5/72\n")
    code, out, _ = run_capture(capsys, ["value", "--family", "coe", "--pairing", "1,2|3,4", "--dim", "3"])
    assert (code, out) == (0, "5/72\n")
    code, out, _ = run_capture(capsys, ["value", "--family", "sp", "--pairing", "1,3|2,4", "--dim", "2"])
    assert (code, out) == (0, "1/40\n")
    code, out, _ = run_capture(capsys, ["value", "--family", "aiii", "--perm", "2,1",
                                        "--dim", "4", "--dminus", "2"])
    assert (code, out) == (0, "1/5\n")


def _child_env() -> dict:
    """The environment of a child Python that imports this checkout's wgcalc."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["wgcalc", "wgcalc.cli"])
def test_python_dash_m_runs_the_command(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "value", "--family", "u", "--perm", "2,1", "--dim", "5"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "-1/120\n")


def test_value_symbolic(capsys):
    code, out, _ = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1", "--symbolic"])
    assert (code, out) == (0, "-1/(d^3 - d)\n")
    code, out, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1", "--symbolic",
                                          "--dim", "3"])
    assert (code, out, err) == (1, "", "error: --dim does not apply with --symbolic\n")


@pytest.mark.parametrize("dminus, text", [("9", "(d^2 - 81)/(d^3 - d)"),
                                           ("-9", "(d^2 - 81)/(d^3 - d)"),
                                           ("12", "(d^2 - 144)/(d^3 - d)")])
def test_value_symbolic_aiii_samples_no_dimension_below_dminus(capsys, dminus, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, ["value", "--family", "aiii", "--perm", "2,1",
                                              "--dminus", dminus, "--symbolic"])
    assert (code, out, err) == (0, text + "\n", "")


def test_value_symbolic_refuses_a_wrong_denominator(capsys, monkeypatch):
    from fractions import Fraction
    from wgcalc import exact
    # d alone, where -1/(d^3 - d) needs d^3 - d
    monkeypatch.setattr(exact, "wg_denominator", lambda family, k: (Fraction(0), Fraction(1)))
    code, out, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1", "--symbolic"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_only_mc_imports_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """
import sys
from wgcalc import cli
for argv in (
    ["value", "--family", "u", "--perm", "2,1", "--dim", "5"],
    ["value", "--family", "o", "--pairing", "1,2|3,4", "--symbolic"],
    ["series", "--family", "u", "--perm", "2,1", "--order", "3"],
    ["moment", "--family", "u", "--rows", "1,2", "--cols", "1,2", "--crows", "1,2",
     "--ccols", "2,1", "--dim", "2"],
    ["bounds", "--check", "counts", "--k", "4"],
):
    assert cli.run(argv) == 0, argv
assert "numpy" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


# modules a subcommand loads only when it runs them
_LAZY_MODULES = {"numpy", "wgcalc.bounds", "wgcalc.cache", "wgcalc.moments", "wgcalc.mc",
                 "configparser", "dataclasses", "inspect"}


@pytest.mark.parametrize("argv, loaded", [
    (["value", "--family", "u", "--perm", "2,1", "--dim", "5"], set()),
    (["paths", "--family", "u", "--perm", "2,3,1", "--solid", "4", "--list"], set()),
    (["moment", "--family", "u", "--rows", "1,2", "--cols", "1,2", "--dim", "3"],
     {"wgcalc.moments"}),
    (["bounds", "--check", "counts", "--k", "4"], {"wgcalc.bounds"}),
    (["cache", "export", "--family", "u", "--k", "2", "--dim", "3", "--out", "{tmp}"],
     {"wgcalc.cache"}),
    # numpy imports inspect itself
    (["mc", "--family", "u", "--dim", "2", "--rows", "1", "--cols", "1", "--crows", "1",
      "--ccols", "1", "--samples", "1000"],
     {"numpy", "wgcalc.mc", "wgcalc.moments", "inspect"}),
], ids=["value", "paths", "moment", "bounds", "cache", "mc"])
def test_a_fresh_process_imports_only_what_its_subcommand_runs(argv, loaded, tmp_path):
    # the modules that the one command adds to a fresh interpreter, beyond
    # what the interpreter had loaded before wgcalc
    argv = [str(tmp_path / "cache.tsv") if arg == "{tmp}" else arg for arg in argv]
    script = """
import json, sys
before = set(sys.modules)
from wgcalc import cli
code = cli.run(json.loads(sys.argv[1]))
print(code, json.dumps(sorted(set(sys.modules) - before)))
"""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    code, added = proc.stdout.splitlines()[-1].split(" ", 1)
    assert (code, proc.stderr) == ("0", "")
    assert _LAZY_MODULES & set(json.loads(added)) == loaded


def test_a_corrupt_cache_exits_3_as_the_first_command_of_a_process(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("garbage\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "wgcalc", "cache", "verify", "--path", str(path)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "cache corruption: line 1: expected 5 tab-separated fields, got 1\n")


def test_series_frozen_example(capsys):
    code, out, _ = run_capture(capsys, ["series", "--family", "u", "--perm", "2,1", "--order", "3"])
    assert code == 0
    assert out == "leading exponent: -3\ncoefficients: 1,1,1,1\n"


def test_printed_value_reparses_exactly(capsys):
    from fractions import Fraction
    from wgcalc.exact import wg
    from wgcalc.symcore import parse_permutation
    code, out, _ = run_capture(capsys, ["value", "--family", "u", "--perm", "3,1,2", "--dim", "6"])
    assert code == 0
    assert Fraction(out.strip()) == wg("u", parse_permutation("3,1,2"), 6)


def test_json_output_is_sorted_and_deterministic(capsys):
    argv = ["moment", "--family", "u", "--rows", "1,2", "--cols", "1,2",
            "--crows", "1,2", "--ccols", "2,1", "--dim", "2", "--json"]
    code, first, _ = run_capture(capsys, argv)
    assert code == 0
    record = json.loads(first)
    assert record["value"] == "-1/6"
    assert list(record) == sorted(record)
    code, second, _ = run_capture(capsys, argv)
    assert first == second


def test_paths_and_factorizations_agree(capsys):
    code, out, _ = run_capture(capsys, ["paths", "--family", "u", "--perm", "2,3,1",
                                        "--solid", "4", "--json"])
    assert code == 0
    count = json.loads(out)["count"]
    code, out, _ = run_capture(capsys, ["factorizations", "--family", "u", "--perm", "2,3,1",
                                        "--length", "4", "--json"])
    assert code == 0
    assert json.loads(out)["count"] == count


def test_factorization_listing_follows_the_brute_force_order(capsys):
    # the listing comes from the paths; the brute-force generator, filtered
    # by target, fixes the order it must print
    cases = [(GraphKind.UNITARY, "--perm", k, p) for k in range(5) for p in all_permutations(k)]
    cases += [(GraphKind.ORTHOGONAL, "--pairing", k, m)
              for k in range(4) for m in all_pair_partitions(k)]
    brute = {}
    for kind, flag, k, elem in cases:
        for length in range(elem.absolute_length() + 3):
            if (kind, k, length) not in brute:
                hits = brute[kind, k, length] = {}
                for f in enumerate_monotone_factorizations(kind, k, length):
                    text = "".join(f"({s},{t})" for s, t in f.transpositions) or "e"
                    hits.setdefault(f.target(), []).append(text)
            texts = brute[kind, k, length].get(elem, [])
            argv = ["factorizations", "--family", kind.value, flag,
                    symcore.format_element(elem), "--length", str(length), "--list"]
            code, out, _ = run_capture(capsys, argv)
            assert (code, out) == (0, f"count: {len(texts)}\n" + "".join(t + "\n" for t in texts))


def test_path_walks_answer_thousands_of_steps(capsys):
    # the transposition 2,1 has one path at every odd length: ping-pong on
    # level 2, then two dashed steps; the 4-cycle has none at even length
    ping_pong = " ".join(["2,1"] + ["-(1,2)-> 1,2 -(1,2)-> 2,1"] * 2500
                         + ["-(1,2)-> 1,2 => 1 => ∅"])
    for argv, out in ((["paths", "--perm", "2,1", "--solid", "5001"], "count: 1\n"),
                      (["paths", "--perm", "2,1", "--solid", "5001", "--list"],
                       f"count: 1\n{ping_pong}\n"),
                      (["factorizations", "--perm", "2,1", "--length", "5001"], "count: 1\n"),
                      (["paths", "--perm", "2,3,4,1", "--solid", "5000", "--list"], "count: 0\n")):
        assert run_capture(capsys, [argv[0], "--family", "u", *argv[1:]]) == (0, out, "")


def test_count_line_is_the_same_with_and_without_list(capsys):
    # with --list the count is the length of the listing, without
    # it the count sweep's; both forms must print the same count line
    cases = []
    for k in range(5):
        for p in all_permutations(k):
            cases += [(command, "u", "--perm", p, []) for command in ("paths", "factorizations")]
            cases += [("paths", "aiii", "--perm", p, dashed)
                      for dashed in [[], *(["--dashed", str(l)] for l in range(k + 1))]]
    for k in range(4):
        for m in all_pair_partitions(k):
            cases += [(command, "o", "--pairing", m, []) for command in ("paths", "factorizations")]
    for command, family, flag, elem, extra in cases:
        steps = "--length" if command == "factorizations" else "--solid"
        for length in range(elem.absolute_length() + 3):
            argv = [command, "--family", family, flag, symcore.format_element(elem),
                    steps, str(length), *extra]
            code, plain, _ = run_capture(capsys, argv)
            assert code == 0
            code, listed, _ = run_capture(capsys, argv + ["--list"])
            assert code == 0
            lines = listed.splitlines()
            assert lines[0] == plain.rstrip("\n"), argv
            assert lines[0] == f"count: {len(lines) - 1}", argv


def _listing_argvs():
    """``--list`` commands over every element of small levels: u and A III at
    k <= 4, o at k <= 3, solid 0..5, A III also at every ``--dashed``."""
    cases = [(family, "--perm", p) for family in ("u", "aiii")
             for k in range(5) for p in all_permutations(k)]
    cases += [("o", "--pairing", m) for k in range(4) for m in all_pair_partitions(k)]
    for family, flag, elem in cases:
        text = symcore.format_element(elem)
        for solid in range(6):
            yield ["paths", "--family", family, flag, text, "--solid", str(solid), "--list"]
            if family == "aiii":
                for dashed in range(elem.level + 1):
                    yield ["paths", "--family", family, flag, text, "--solid", str(solid),
                           "--dashed", str(dashed), "--list"]
            else:
                yield ["factorizations", "--family", family, flag, text,
                       "--length", str(solid), "--list"]


def test_listings_are_pinned(capsys):
    # SHA-256 of the plain and --json stdout of 1770 listings, in order, taken
    # from a walk that expanded every vertex again on every visit: the walk's
    # memos and the shared step texts change no byte
    digest = hashlib.sha256()
    for argv in _listing_argvs():
        for extra in ([], ["--json"]):
            code, out, err = run_capture(capsys, argv + extra)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
    assert digest.hexdigest() == "554976a08ebf702339c400a5913af71c43813c78b011d74707afd73dec6948c3"


def _count_reader_argvs():
    """``wg series`` for one element of every class of level 1..5 in each
    family at orders 0..3, and the count-growth and injection bounds."""
    for family in ("u", "aiii", "o", "sp"):
        pairing = family in ("o", "sp")
        for k in range(1, 6):
            for mu in symcore.partitions(k):
                elem = (symcore.coset_representative if pairing
                        else symcore.class_representative)(mu)
                flag = "--pairing" if pairing else "--perm"
                for order in range(4):
                    yield ["series", "--family", family, flag, symcore.format_element(elem),
                           "--order", str(order)]
    for family, top in (("u", 6), ("o", 5)):
        yield from (["bounds", "--check", "counts", "--family", family, "--k", str(k)]
                    for k in range(1, top + 1))
    yield from (["bounds", "--check", "injection", "--k", str(k)] for k in range(1, 7))


def test_series_and_count_bounds_are_pinned(capsys):
    # SHA-256 of the plain and --json stdout of every command above, in
    # order; each reads its path counts from one bottom-up sweep
    digest = hashlib.sha256()
    for argv in _count_reader_argvs():
        for extra in ([], ["--json"]):
            code, out, err = run_capture(capsys, argv + extra)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
    assert digest.hexdigest() == "8bbeece90c6a66068382abe3ce4903a7735c2aa56aa3f9f3a3694659be24a96a"


def _ratio_argvs():
    """``wg bounds --check ratio``: u at k <= 6 from d = k-1 to k+3 and at the
    four d just past its upper-bound threshold; sp and o at k <= 3 from one
    below their thresholds to three above."""
    for k in range(1, 7):
        past = next(d for d in itertools.count(1) if d**4 > 36 * k**7)
        for d in [*range(k - 1, k + 4), *range(past, past + 4)]:
            yield ["bounds", "--check", "ratio", "--family", "u", "--k", str(k), "--dim", str(d)]
    for family, const in (("sp", 36), ("o", 144)):
        for k in range(1, 4):
            first = math.isqrt(const * k**7) + 1  # the least d with d^2 > const k^7
            for d in range(first - 1, first + 4):
                yield ["bounds", "--check", "ratio", "--family", family, "--k", str(k),
                       "--dim", str(d)]


def test_ratio_bounds_are_pinned(capsys):
    # SHA-256 of the exit code, plain stdout, --json stdout and stderr of
    # every ratio certificate above, refusals included, in order
    digest = hashlib.sha256()
    for argv in _ratio_argvs():
        for extra in ([], ["--json"]):
            code, out, err = run_capture(capsys, argv + extra)
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == "5ffd630211d0ffb92a74a93d2f5c87e748be37f3c86b7d12134ad8cf90476be8"


def _moment_argvs():
    """``wg moment`` in every family over all-distinct, paired, alternating
    and all-equal labels, up to u k=8, o 2k=14, COE 4+4 and A III k=8 (each
    under a second when every matching is walked); unbalanced monomials,
    which are 0; the known-defect rows at d < k; and refused requests."""
    def seq(values):
        return ",".join(map(str, values))

    def patterns(n):
        return [tuple(range(1, n + 1)), tuple(1 + r // 2 for r in range(n)),
                tuple(1 + r % 2 for r in range(n)), (1,) * n]

    def moment(family, level, rows, cols, crows=(), ccols=(), dminus=None):
        # at d = max(label, level), and two above it up to level 6
        argv = ["moment", "--family", family, "--rows", seq(rows), "--cols", seq(cols)]
        if crows:
            argv += ["--crows", seq(crows), "--ccols", seq(ccols)]
        if dminus is not None:
            argv += ["--dminus", str(dminus)]
        d = max(level, *rows, *cols, *crows, *ccols, 1)
        for dim in (d, d + 2)[:2 if level <= 6 else 1]:
            yield argv + ["--dim", str(dim)]

    def rotate(labels):
        return labels[1:] + labels[:1]

    for k in range(1, 9):
        pairs = itertools.product(patterns(k), repeat=2) if k <= 4 else (
            (p, p) for p in patterns(k)[1:])
        for rows, cols in pairs:
            yield from moment("u", k, rows, cols, rows[::-1], rotate(cols))
        equal, paired, alternating = patterns(k)[3], patterns(k)[1], patterns(k)[2]
        yield from moment("u", k, equal, paired, equal[1:], paired[1:])
        yield from moment("u", k, alternating, alternating, alternating[::-1], (2,) * k)
    for k in range(1, 8):
        pairs = itertools.product(patterns(2 * k), repeat=2) if k <= 3 else (
            (p, p) for p in patterns(2 * k)[1:])
        for rows, cols in pairs:
            yield from moment("o", k, rows, cols[::-1])
        yield from moment("o", k, patterns(2 * k - 1)[3], patterns(2 * k - 1)[3])
    for k in range(1, 5):
        for flat in patterns(2 * k):
            conj = flat[::-1] if k % 2 else rotate(flat)
            yield from moment("coe", k, flat[0::2], flat[1::2], conj[0::2], conj[1::2])
        flat = patterns(2 * k)[2]
        yield from moment("coe", k, flat[0::2], flat[1::2], flat[2::2], flat[3::2])
        yield from moment("coe", k, flat[0::2], flat[1::2], (2,) * k, (2,) * k)
    for k in range(1, 9):
        for rows in patterns(k):
            for dminus in (1, -1)[:2 if k <= 6 else 1]:
                yield from moment("aiii", k, rows, rotate(rows), dminus=dminus)
        yield from moment("aiii", k, patterns(k)[2], (2,) * k, dminus=0)
    # the known-defect rows: E|u11|^2k and E[o11^2k] at d < k
    for k, d in ((2, 1), (3, 2), (3, 1), (4, 2), (4, 3), (4, 1)):
        ones = seq((1,) * k)
        yield ["moment", "--family", "u", "--rows", ones, "--cols", ones, "--crows", ones,
               "--ccols", ones, "--dim", str(d)]
    for k, d in ((2, 1), (3, 1), (3, 2)):
        ones = seq((1,) * (2 * k))
        yield ["moment", "--family", "o", "--rows", ones, "--cols", ones, "--dim", str(d)]
    for command in ("moment --family sp --rows 1 --cols 1 --dim 2",
                    "moment --family u --rows 1,3 --cols 1,2 --crows 1,2 --ccols 1,2 --dim 2",
                    "moment --family u --rows 1 --cols 1 --crows 1 --ccols 1 --dim 3 --dminus 1",
                    "moment --family aiii --rows 1 --cols 1 --dim 2",
                    "moment --family aiii --rows 1,1,1 --cols 1,1,1 --dim 1 --dminus 1",
                    "moment --family coe --rows 1 --cols 1 --dim 2 --dminus 0",
                    "moment --family coe --rows 1,1 --cols 1,1 --crows 1,1 --ccols 1,1 --dim 0",
                    "moment --family o --rows 1 --cols 1 --crows 1 --ccols 1 --dim 2",
                    "moment --family o --rows 1,1 --cols 1 --dim 2",
                    "moment --family o --rows 1 --cols 1 --dim 0",
                    "moment --family coe --rows 1,x --cols 1,1 --dim 2",
                    "moment --family aiii --rows 1,2 --cols 2,1 --dim 2 --dminus 5"):
        yield command.split()


def test_moments_are_pinned(capsys):
    # SHA-256 of the exit code, plain stdout, --json stdout and stderr of
    # every moment above, refusals included, in order
    digest = hashlib.sha256()
    for argv in _moment_argvs():
        for extra in ([], ["--json"]):
            code, out, err = run_capture(capsys, argv + extra)
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == "2bbb6d79d01e06de8a588305506e70348c817fba499b333ae9ea4f04112fa156"


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # a 1.3 MB line fills the pipe long before the child is done, so the
    # child writes to a closed pipe after the reader has gone, as under
    # `| head -1`; the 33,197,736 paths of a 7-cycle print as the walk finds
    # them, so their first path comes at once.  A child still silent or alive
    # at the deadline, such as one that builds the listing first, is killed.
    for perm, solid, lines in (("2,1", "100001", [b"count: 1\n"]),
                               ("2,3,4,5,6,7,1", "12", [b"count: 33197736\n", b"2,3,4,5,6,7,1 "])):
        proc = subprocess.Popen(
            [sys.executable, "-m", "wgcalc", "paths", "--family", "u", "--perm", perm,
             "--solid", solid, "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        deadline = threading.Timer(10, proc.kill)
        deadline.start()
        try:
            read = [proc.stdout.readline()[:len(line)] for line in lines]
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            code = proc.wait()
        finally:
            deadline.cancel()
        assert (read, code, err) == (lines, 141, b""), perm


def test_counts_past_4300_digits_print_whole(capsys):
    # CPython caps int-to-str conversion at 4300 digits; counts are printed
    # whole in plain and --json output, here checked against decimal.Decimal,
    # which converts without the cap
    count = graphs.count_class_paths(GraphKind.UNITARY, (4,), 9101)
    digits = str(Decimal(count))
    assert len(digits) > 4300
    argv = ["paths", "--family", "u", "--perm", "2,3,4,1", "--solid", "9101"]
    assert run_capture(capsys, argv) == (0, f"count: {digits}\n", "")
    assert run_capture(capsys, argv + ["--json"]) == (
        0, f'{{"count": {digits}, "element": "2,3,4,1", "family": "u", "solid": 9101}}\n', "")
    # the last coefficient at order 4510 counts the paths with 9023 solid steps
    digits = str(Decimal(graphs.count_class_paths(GraphKind.UNITARY, (4,), 9023)))
    assert len(digits) > 4300
    argv = ["series", "--family", "u", "--perm", "2,3,4,1", "--order", "4510"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err, out.endswith(f",{digits}\n"), len(out.split(","))) == (0, "", True, 4511)
    code, out, err = run_capture(capsys, argv + ["--json"])
    assert (code, err, f", {digits}], \"element\": " in out) == (0, "", True)


def _max_rss(argv: list[str], first: str = "count: ", deadline: float = 120) -> int:
    """Max RSS of a child that runs ``wg argv``, whose output must start with
    ``first``; the child is killed after ``deadline`` seconds.

    A process's max RSS starts at that of whoever spawned it, since it is
    kept across ``exec``; so a small launcher spawns the child, and the test
    process's own peak does not hide the child's.  The launcher kills the
    child at the deadline and then fails."""
    script = ("import resource, sys; from wgcalc import cli; "
              "code = cli.run(sys.argv[1:]); "
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    launch = ("import subprocess, sys; "
              "sys.exit(subprocess.call(sys.argv[2:], timeout=float(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", launch, str(deadline), sys.executable, "-c",
                           script, *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=deadline + 60)
    assert (proc.returncode, proc.stderr) == (0, ""), argv
    code, rss = proc.stdout.splitlines()[-1].split()
    assert (proc.stdout.startswith(first), code) == (True, "0"), argv
    return int(rss)


def test_count_only_queries_run_in_flat_memory():
    # the counts' bit length grows with --solid, so a table of every solid
    # length grows with its square (about 160 MB at 20001); one column does
    # not.  A listing prints each line as the walk finds it and keeps none,
    # so its 84,084 lines need no more memory than their count.  Moments
    # count their terms without visiting them; a walk over the 10! matchings
    # of COE 5+5 takes 18 s and 494 MB, and one over the 9! of A III 9 takes
    # 179 MB, and the deadline stops such a walk within seconds.
    pytest.importorskip("resource")
    count = ["paths", "--family", "u", "--perm", "2,3,4,1", "--solid"]
    assert _max_rss(count + ["20001"]) <= 1.25 * _max_rss(count + ["1001"])
    six = ["--family", "u", "--perm", "2,3,4,5,6,1"]
    flat = 1.25 * _max_rss(["paths", *six, "--solid", "9"])
    for argv in (["paths", *six, "--solid", "9", "--list"],
                 ["factorizations", *six, "--length", "9", "--list"]):
        assert _max_rss(argv) <= flat, argv
    five, nine = ",".join("1" * 5), ",".join("1" * 9)
    for argv, value in (
            (["--family", "coe", "--rows", five, "--cols", five, "--crows", five, "--ccols", five,
              "--dim", "6"], "256/9009"),
            (["--family", "aiii", "--rows", nine, "--cols", nine, "--dim", "9", "--dminus", "1"],
             "7/2431")):
        assert _max_rss(["moment", *argv], first=value + "\n", deadline=10) <= flat, argv


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; no flag, default or error of one
    # call may leak into the next
    cli.build_parser.cache_clear()
    value = ["value", "--family", "u", "--perm", "2,1", "--dim", "5"]
    code, out, err = run_capture(capsys, value + ["--json"])
    assert (code, json.loads(out)["value"], err) == (0, "-1/120", "")
    assert run_capture(capsys, value) == (0, "-1/120\n", "")
    assert run_capture(capsys, value + ["--config", "wg.ini"]) == (
        1, "", "error: unrecognized arguments: --config wg.ini\n")
    assert run_capture(capsys, value) == (0, "-1/120\n", "")
    assert run_capture(capsys, ["value", "--family", "u", "--dim", "5"]) == (
        1, "", "error: --perm is required for family u\n")
    assert run_capture(capsys, ["value", "--perm", "2,1", "--dim", "5"]) == (
        1, "", "error: the following arguments are required: --family\n")
    assert run_capture(capsys, value) == (0, "-1/120\n", "")
    paths = ["paths", "--family", "aiii", "--perm", "2,1", "--solid", "2"]
    assert run_capture(capsys, paths + ["--dashed", "0", "--list"]) == (
        0, "count: 1\n2,1 -(1,2)-> 1,2 -(1,2)-> 2,1 ~> ∅\n", "")
    assert run_capture(capsys, paths) == (0, "count: 1\n", "")
    assert run_capture(capsys, paths + ["--dashed", "2"]) == (0, "count: 0\n", "")
    assert cli.build_parser.cache_info().misses == 1


def test_bounds_pass_and_failure_exit_codes(capsys, monkeypatch):
    code, out, _ = run_capture(capsys, ["bounds", "--family", "u", "--k", "2", "--gmax", "1"])
    assert code == 0
    assert "all bounds hold" in out
    failing = BoundReport("u", "counts", 2, None, 1,
                          (BoundRow("2", 1, None, None, False),), False, None, None)
    monkeypatch.setattr("wgcalc.bounds.certify_unitary_bounds", lambda k, g: failing)
    code, out, _ = run_capture(capsys, ["bounds", "--family", "u", "--k", "2", "--gmax", "1"])
    assert code == 2
    assert "BOUND FAILURE" in out


def test_mc_passes_and_reports(capsys):
    code, out, _ = run_capture(capsys, ["mc", "--family", "u", "--dim", "1", "--rows", "1",
                                        "--cols", "1", "--samples", "2000", "--seed", "7"])
    assert code == 0
    assert out.endswith("PASS\n")
    assert "exact: 0" in out
    assert len(out.splitlines()) == 4
    code, out, _ = run_capture(capsys, ["mc", "--family", "u", "--dim", "1", "--rows", "1",
                                        "--cols", "1", "--samples", "2000", "--seed", "7", "--json"])
    assert code == 0
    assert json.loads(out)["stream"] == "philox4x64-counter-v1"


# the imaginary mean, its standard error and its z-score are float roundoff
# for these monomials, so they move with the QR's summation order
_IMAGINARY_FIELDS = re.compile(r" \+ \S+j|, [^,\s)]+(?=\)|$)", re.M)


@pytest.mark.parametrize("argv, real_fields", [
    (["--family", "u", "--dim", "2", "--rows", "1", "--cols", "1", "--crows", "1",
      "--ccols", "1", "--seed", "249523"], "0.49745819 (se 0.00455)\nexact: 1/2\nz: -0.5582"),
    (["--family", "o", "--dim", "2", "--rows", "1,1", "--cols", "1,1", "--seed", "245713"],
     "0.50285897 (se 0.0056)\nexact: 1/2\nz: 0.5104"),
    (["--family", "coe", "--dim", "2", "--rows", "1", "--cols", "1", "--crows", "1",
      "--ccols", "1", "--seed", "408878"], "0.67419669 (se 0.00467)\nexact: 2/3\nz: 1.613"),
    (["--family", "aiii", "--sig", "2,1", "--rows", "1", "--cols", "1", "--seed", "753741"],
     "0.3292964 (se 0.00745)\nexact: 1/3\nz: -0.5417"),
])
def test_mc_real_fields_are_pinned(capsys, argv, real_fields):
    code, out, err = run_capture(capsys, ["mc", *argv, "--samples", "4000"])
    assert (code, err) == (0, "")
    assert _IMAGINARY_FIELDS.sub("", out) == f"estimate: {real_fields}\nPASS\n"


def test_cache_round_trip_and_corruption_exit(capsys, tmp_path):
    path = str(tmp_path / "cache.tsv")
    code, out, _ = run_capture(capsys, ["cache", "export", "--family", "u", "--k", "3",
                                        "--dim", "5", "--out", path])
    assert code == 0
    assert "wrote 6 new records" in out
    code, out, _ = run_capture(capsys, ["cache", "verify", "--path", path, "--fraction", "1.0"])
    assert code == 0
    assert "verified 6 of 6" in out
    lines = open(path).read().splitlines()
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\t1/23"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code, _, err = run_capture(capsys, ["cache", "verify", "--path", path, "--fraction", "1.0"])
    assert code == 3
    assert "line 2" in err


@pytest.mark.parametrize("argv, error", [
    (["export", "--family", "o", "--k", "1", "--dim", "4"],
     "the following arguments are required: --out"),
    (["verify"], "the following arguments are required: --path"),
    (["export", "--family", "o", "--k", "1", "--dim", "4", "--out", "{tmp}", "--config", "x"],
     "unrecognized arguments: --config x"),
    (["verify", "--path", "{tmp}", "--config", "x"], "unrecognized arguments: --config x"),
], ids=["export-no-out", "verify-no-path", "export-config", "verify-config"])
@pytest.mark.parametrize("set_env", [False, True], ids=["plain", "WG_CACHE"])
def test_the_cache_path_comes_from_its_flag_alone(capsys, tmp_path, monkeypatch, argv, error,
                                                  set_env):
    # neither WG_CACHE nor a --config file can stand in for --out or --path
    if set_env:
        monkeypatch.setenv("WG_CACHE", str(tmp_path / "env.tsv"))
    argv = [str(tmp_path / "cache.tsv") if arg == "{tmp}" else arg for arg in argv]
    assert run_capture(capsys, ["cache", *argv]) == (1, "", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_errors_name_the_offending_argument(capsys):
    code, _, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,x", "--dim", "5"])
    assert code == 1
    assert "--perm" in err
    code, _, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1", "--dim", "1"])
    assert code == 1
    assert "--dim" in err
    code, _, err = run_capture(capsys, ["value", "--family", "o", "--pairing", "1,2|3,4", "--dim", "1"])
    assert code == 1
    assert "--dim" in err
    code, _, err = run_capture(capsys, ["moment", "--family", "u", "--rows", "1,5", "--cols", "1,2",
                                        "--crows", "1,2", "--ccols", "2,1", "--dim", "2"])
    assert code == 1
    assert "--rows" in err
    code, out, err = run_capture(capsys, ["moment", "--family", "u", "--rows", "1,1", "--cols", "1,1",
                                          "--crows", "1,1", "--ccols", "1,1", "--dim", "1"])
    message = "error: --dim: dimension 1 below level 2\n"
    assert (code, out, err) == (1, "", message)
    code, out, err = run_capture(capsys, ["mc", "--family", "u", "--rows", "1,1", "--cols", "1,1",
                                          "--crows", "1,1", "--ccols", "1,1", "--dim", "1"])
    assert (code, out, err) == (1, "", message)
    code, _, err = run_capture(capsys, ["mc", "--family", "sp", "--dim", "2",
                                        "--rows", "1", "--cols", "1"])
    assert code == 1
    assert "--family" in err and "sign" in err
    code, _, err = run_capture(capsys, ["bounds", "--check", "ratio", "--family", "sp",
                                        "--k", "2", "--dim", "67"])
    assert code == 1
    assert "--dim" in err
    # no subcommand takes --threads or --config
    for flag in ("--threads", "--config"):
        code, out, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1",
                                              "--dim", "5", flag, "1"])
        assert (code, out, err) == (1, "", f"error: unrecognized arguments: {flag} 1\n")
    code, _, err = run_capture(capsys, ["mc", "--family", "aiii", "--sig", "2,1",
                                        "--dim", "5", "--rows", "1", "--cols", "1"])
    assert code == 1
    assert "--dim" in err
    for sig in ("2,-1", "1,2"):
        code, out, err = run_capture(capsys, ["mc", "--family", "aiii", "--sig", sig,
                                              "--rows", "1", "--cols", "1"])
        message = f"error: --sig: expected two integers A >= B >= 0, got '{sig}'\n"
        assert (code, out, err) == (1, "", message)
    for seed in ("-1", str(2**64)):
        code, _, err = run_capture(capsys, ["mc", "--family", "u", "--dim", "1", "--rows", "1",
                                            "--cols", "1", "--seed", seed])
        assert code == 1
        assert "--seed" in err


def test_shifted_routes_name_their_own_family_and_dimension(capsys):
    code, _, err = run_capture(capsys, ["value", "--family", "coe", "--pairing", "1,2|3,4",
                                        "--dim", "0"])
    assert code == 1
    assert err == "error: --dim: COE dimension must be positive, got 0\n"
    code, _, err = run_capture(capsys, ["value", "--family", "sp", "--pairing", "1,2|3,4",
                                        "--dim", "1"])
    assert code == 1
    assert err == "error: --dim: singular sp system at level 2, d=1\n"


def test_moment_and_mc_name_the_flag_of_an_out_of_range_index(capsys):
    argv = ["--family", "coe", "--dim", "3", "--rows", "1", "--cols", "5",
            "--crows", "1", "--ccols", "1"]
    for command in ("moment", "mc"):
        code, out, err = run_capture(capsys, [command, *argv])
        assert (code, out, err) == (1, "", "error: --cols: index 5 outside 1..3\n")


def test_moment_and_mc_messages_for_a_stray_dminus_and_a_nonpositive_dim(capsys):
    # the CLI refuses these before the spec's own dimension and dminus checks
    code, out, err = run_capture(capsys, ["moment", "--family", "u", "--dim", "3", "--dminus", "1",
                                          "--rows", "1", "--cols", "1", "--crows", "1",
                                          "--ccols", "1"])
    assert (code, out, err) == (1, "", "error: --dminus does not apply to family u\n")
    for argv, d in ((["moment", "--family", "o", "--dim", "0"], 0),
                    (["mc", "--family", "u", "--dim", "-1"], -1),
                    (["mc", "--family", "aiii", "--sig", "0,0"], 0)):
        code, out, err = run_capture(capsys, [*argv, "--rows", "1", "--cols", "1"])
        assert (code, out, err) == (1, "", f"error: --rows: index 1 outside 1..{d}\n")


def test_bounds_refuse_a_negative_range(capsys):
    for argv in (["--check", "counts", "--k", "3", "--gmax", "-1"],
                 ["--check", "injection", "--k", "3", "--extra", "-1"]):
        code, out, err = run_capture(capsys, ["bounds", *argv])
        flag = argv[-2]
        assert (code, out, err) == (1, "", f"error: {flag}: must be nonnegative, got -1\n")


def test_paths_refuse_a_negative_dashed_count(capsys):
    code, out, err = run_capture(capsys, ["paths", "--family", "aiii", "--perm", "2,1",
                                          "--solid", "0", "--dashed", "-1"])
    assert (code, out, err) == (1, "", "error: --dashed: must be nonnegative, got -1\n")


def test_unitary_only_bounds_refuse_other_families(capsys):
    for check, family in (("neighborhood", "o"), ("neighborhood", "sp"),
                          ("injection", "o"), ("injection", "sp")):
        code, out, err = run_capture(capsys, ["bounds", "--check", check, "--family", family,
                                              "--k", "3"])
        assert (code, out, err) == (1, "", f"error: --family: the {check} check covers family u only\n")
    code, out, _ = run_capture(capsys, ["bounds", "--check", "injection", "--k", "3", "--json"])
    assert code == 0 and json.loads(out)["family"] == "u"


def test_engine_warnings_print_once_as_warning_lines(capsys):
    message = "warning: |dminus|=5 exceeds d=2: no signature (a,b) realizes this\n"
    code, out, err = run_capture(capsys, ["moment", "--family", "aiii", "--rows", "1,2",
                                          "--cols", "2,1", "--dim", "2", "--dminus", "5"])
    assert (code, out, err) == (0, "-7/2\n", message)
    code, out, err = run_capture(capsys, ["value", "--family", "aiii", "--perm", "2,1",
                                          "--dim", "2", "--dminus", "5"])
    assert (code, out, err) == (0, "-7/2\n", message)


def test_bounds_refuse_a_flag_their_check_ignores(capsys):
    for check, flag, value in (("counts", "--dim", "3"), ("neighborhood", "--dim", "3"),
                               ("injection", "--dim", "3"), ("ratio", "--gmax", "1"),
                               ("neighborhood", "--gmax", "1"), ("injection", "--gmax", "0"),
                               ("counts", "--extra", "2"), ("ratio", "--extra", "2"),
                               ("neighborhood", "--extra", "4")):
        argv = ["bounds", "--check", check, "--k", "2", flag, value]
        if check == "ratio" and flag != "--dim":
            argv += ["--dim", "5"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {flag} does not apply to --check {check}\n")
    # the defaults --gmax 3 and --extra 4 still apply where they are used
    for check, flag, value in (("counts", "--gmax", "3"), ("injection", "--extra", "4")):
        plain = run_capture(capsys, ["bounds", "--check", check, "--k", "2"])
        assert plain[0] == 0
        assert run_capture(capsys, ["bounds", "--check", check, "--k", "2", flag, value]) == plain


def test_cache_io_errors_name_the_path_flag(capsys, tmp_path):
    missing = tmp_path / "missing.tsv"
    code, out, err = run_capture(capsys, ["cache", "verify", "--path", str(missing)])
    assert (code, out) == (1, "")
    assert err == f"error: --path: No such file or directory: {str(missing)!r}\n"
    code, _, err = run_capture(capsys, ["cache", "verify", "--path", str(tmp_path)])
    assert (code, err) == (1, f"error: --path: Is a directory: {str(tmp_path)!r}\n")
    out_path = tmp_path / "no-such-dir" / "x.tsv"
    code, _, err = run_capture(capsys, ["cache", "export", "--family", "u", "--k", "2",
                                        "--dim", "3", "--out", str(out_path)])
    assert (code, err) == (1, f"error: --out: No such file or directory: {str(out_path)!r}\n")
    code, _, err = run_capture(capsys, ["cache", "export", "--family", "u", "--k", "2",
                                        "--dim", "3", "--out", str(tmp_path)])
    assert (code, err) == (1, f"error: --out: Is a directory: {str(tmp_path)!r}\n")


def test_cache_export_refuses_a_unitary_dimension_below_the_level(capsys, tmp_path):
    path = tmp_path / "cache.tsv"
    # export walks levels 1..k, so the first level above d is refused
    for k, d, level in ((3, 2, 3), (2, -5, 1)):
        code, out, err = run_capture(capsys, ["cache", "export", "--family", "u", "--k", str(k),
                                              "--dim", str(d), "--out", str(path)])
        assert (code, out, err) == (1, "", f"error: --dim: dimension {d} below level {level}\n")
        assert not path.exists()


def test_cache_export_refusals_name_the_flag(capsys, tmp_path):
    path = tmp_path / "cache.tsv"
    cases = (
        (["--family", "coe", "--k", "2", "--dim", "0"],
         "--dim: COE dimension must be positive, got 0"),
        (["--family", "sp", "--k", "2", "--dim", "0"],
         "--dim: symplectic dimension must be positive, got 0"),
        (["--family", "aiii", "--k", "2", "--dim", "0", "--dminus", "0"],
         "--dim: dimension must be positive, got 0"),
        (["--family", "u", "--k", "0", "--dim", "3"], "--k: level must be positive, got 0"),
    )
    for flags, message in cases:
        code, out, err = run_capture(capsys, ["cache", "export", *flags, "--out", str(path)])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not path.exists()
    # the same reason as wg value gives for the dimension
    code, _, err = run_capture(capsys, ["value", "--family", "coe", "--pairing", "1,2|3,4",
                                        "--dim", "0"])
    assert (code, err) == (1, "error: --dim: COE dimension must be positive, got 0\n")


def test_cache_that_is_not_utf8_is_corrupt(capsys, tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"\xff\xfe\x00U\t1\t1\td=5\t1/5\n")
    for argv in (["cache", "verify", "--path", str(path)],
                 ["cache", "export", "--family", "u", "--k", "2", "--dim", "5", "--out", str(path)]):
        code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (3, "", "cache corruption: line 1: not UTF-8 text\n")


# (argv, stderr line) of family refusals; every one exits with code 1.  The
# invalid-choice lines list the families a subcommand takes, in table order.
_FAMILY_REFUSALS = [
    ("value --family u --pairing 1,2|3,4 --dim 5", "--perm is required for family u"),
    ("value --family aiii --pairing 1,2|3,4 --dim 5 --dminus 1",
     "--perm is required for family aiii"),
    ("value --family o --perm 2,1 --dim 5", "--pairing is required for family o"),
    ("value --family coe --perm 2,1 --dim 5", "--pairing is required for family coe"),
    ("value --family sp --perm 2,1 --dim 5", "--pairing is required for family sp"),
    ("value --family u --perm 2,1 --pairing 1,2 --dim 5", "--pairing does not apply to family u"),
    ("value --family aiii --perm 2,1 --pairing 1,2 --dim 5 --dminus 1",
     "--pairing does not apply to family aiii"),
    ("value --family o --pairing 1,2 --perm 1 --dim 5", "--perm does not apply to family o"),
    ("value --family coe --pairing 1,2 --perm 1 --dim 5", "--perm does not apply to family coe"),
    ("value --family sp --pairing 1,2 --perm 1 --dim 5", "--perm does not apply to family sp"),
    ("series --family u --pairing 1,2 --order 1", "--perm is required for family u"),
    ("series --family o --perm 1 --order 1", "--pairing is required for family o"),
    ("series --family sp --perm 1 --order 1", "--pairing is required for family sp"),
    ("series --family aiii --pairing 1,2 --order 1", "--perm is required for family aiii"),
    ("paths --family u --perm 1 --pairing 1,2 --solid 1", "--pairing does not apply to family u"),
    ("paths --family o --pairing 1,2 --perm 1 --solid 1", "--perm does not apply to family o"),
    ("paths --family aiii --pairing 1,2 --solid 1", "--perm is required for family aiii"),
    ("factorizations --family u --pairing 1,2 --length 1", "--perm is required for family u"),
    ("factorizations --family o --perm 1 --length 1", "--pairing is required for family o"),
    ("value --family aiii --perm 2,1 --dim 5", "--dminus is required for family aiii"),
    ("value --family u --perm 2,1 --dim 5 --dminus 1", "--dminus does not apply to family u"),
    ("value --family o --pairing 1,2 --dim 5 --dminus 1", "--dminus does not apply to family o"),
    ("value --family coe --pairing 1,2 --dim 5 --dminus 1",
     "--dminus does not apply to family coe"),
    ("value --family sp --pairing 1,2 --dim 5 --dminus 1", "--dminus does not apply to family sp"),
    ("moment --family aiii --rows 1 --cols 1 --dim 2", "--dminus is required for family aiii"),
    ("moment --family coe --rows 1 --cols 1 --crows 1 --ccols 1 --dim 2 --dminus 1",
     "--dminus does not apply to family coe"),
    ("cache export --family aiii --k 2 --dim 3 --out {out}", "--dminus is required for family aiii"),
    ("cache export --family sp --k 2 --dim 3 --dminus 1 --out {out}",
     "--dminus does not apply to family sp"),
    ("paths --family u --perm 2,1 --solid 1 --dashed 0", "--dashed applies only to family aiii"),
    ("paths --family o --pairing 1,2 --solid 1 --dashed 1", "--dashed applies only to family aiii"),
    ("mc --family aiii --rows 1 --cols 1", "--sig A,B is required for family aiii"),
    ("mc --family u --sig 2,1 --rows 1 --cols 1", "--sig does not apply to family u"),
    ("mc --family o --sig 2,1 --rows 1 --cols 1", "--sig does not apply to family o"),
    ("mc --family coe --sig 2,1 --rows 1 --cols 1", "--sig does not apply to family coe"),
    ("mc --family sp --dim 2 --rows 1 --cols 1",
     "--family: symplectic sampling is unsupported; exact symplectic values are defined "
     "only up to sign, so there is no oracle target"),
    ("moment --family o --rows 1 --cols 1 --crows 1 --ccols 1 --dim 2",
     "family 'o' takes no conjugated factors"),
    ("mc --family aiii --sig 2,2 --rows 1 --cols 1 --crows 1 --ccols 1",
     "family 'aiii' takes no conjugated factors"),
    ("bounds --check counts --family sp --k 3", "--family: count bounds cover families u and o"),
    ("bounds --check neighborhood --family o --k 3",
     "--family: the neighborhood check covers family u only"),
    ("bounds --check neighborhood --family sp --k 3",
     "--family: the neighborhood check covers family u only"),
    ("bounds --check injection --family o --k 3",
     "--family: the injection check covers family u only"),
    ("bounds --check injection --family sp --k 3",
     "--family: the injection check covers family u only"),
    ("bounds --check ratio --family sp --k 2", "--dim is required for --check ratio"),
    ("value --family coe --pairing 1,2 --dim 0", "--dim: COE dimension must be positive, got 0"),
    ("value --family sp --pairing 1,2 --dim -3",
     "--dim: symplectic dimension must be positive, got -3"),
    ("value --family aiii --perm 1 --dim 0 --dminus 0", "--dim: dimension must be positive, got 0"),
    ("cache export --family coe --k 1 --dim -1 --out {out}",
     "--dim: COE dimension must be positive, got -1"),
    ("cache export --family sp --k 1 --dim 0 --out {out}",
     "--dim: symplectic dimension must be positive, got 0"),
    ("cache export --family aiii --k 1 --dim -2 --dminus 0 --out {out}",
     "--dim: dimension must be positive, got -2"),
    ("value --family u --perm 2,1 --dim 1", "--dim: dimension 1 below level 2"),
    ("value --family u --perm 1 --dim -4", "--dim: dimension -4 below level 1"),
    ("moment --family u --rows 1,1 --cols 1,1 --crows 1,1 --ccols 1,1 --dim 1",
     "--dim: dimension 1 below level 2"),
    ("mc --family u --rows 1,1 --cols 1,1 --crows 1,1 --ccols 1,1 --dim 1",
     "--dim: dimension 1 below level 2"),
    ("cache export --family u --k 3 --dim 2 --out {out}", "--dim: dimension 2 below level 3"),
    ("value --family o --pairing 1,2|3,4 --dim 1", "--dim: singular o system at level 2, d=1"),
    ("value --family coe --pairing 1,2|3,4|5,6 --dim 1",
     "--dim: singular coe system at level 3, d=1"),
    ("value --family sp --pairing 1,2|3,4 --dim 1", "--dim: singular sp system at level 2, d=1"),
    ("value --family aiii --perm 2,1 --dim 1 --dminus 1",
     "--dim: singular aiii system at level 2, d=1, dminus=1"),
    ("value --family q --perm 1 --dim 1",
     "argument --family: invalid choice: 'q' (choose from 'u', 'o', 'coe', 'sp', 'aiii')"),
    ("series --family coe --pairing 1,2 --order 1",
     "argument --family: invalid choice: 'coe' (choose from 'u', 'o', 'sp', 'aiii')"),
    ("paths --family sp --pairing 1,2 --solid 1",
     "argument --family: invalid choice: 'sp' (choose from 'u', 'o', 'aiii')"),
    ("factorizations --family aiii --perm 1 --length 1",
     "argument --family: invalid choice: 'aiii' (choose from 'u', 'o')"),
    ("moment --family sp --rows 1 --cols 1 --dim 2",
     "argument --family: invalid choice: 'sp' (choose from 'u', 'o', 'coe', 'aiii')"),
    ("bounds --family coe --k 2",
     "argument --family: invalid choice: 'coe' (choose from 'u', 'o', 'sp')"),
    ("mc --family q --dim 2 --rows 1 --cols 1",
     "argument --family: invalid choice: 'q' (choose from 'u', 'o', 'coe', 'sp', 'aiii')"),
    ("cache export --family q --k 1 --dim 2 --out {out}",
     "argument --family: invalid choice: 'q' (choose from 'u', 'o', 'coe', 'sp', 'aiii')"),
]


def test_family_refusals_are_pinned(capsys, tmp_path):
    out_path = tmp_path / "cache.tsv"
    for command, message in _FAMILY_REFUSALS:
        argv = command.format(out=out_path).split()
        assert run_capture(capsys, argv) == (1, "", f"error: {message}\n"), command
    assert not out_path.exists()
