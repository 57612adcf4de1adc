"""End-to-end checks of the wg command surface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from wgcalc import cli
from wgcalc.bounds import BoundReport, BoundRow


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


@pytest.mark.parametrize("module", ["wgcalc", "wgcalc.cli"])
def test_python_dash_m_runs_the_command(module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "value", "--family", "u", "--perm", "2,1", "--dim", "5"],
        capture_output=True, text=True, env=env, timeout=60,
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


def test_bounds_pass_and_failure_exit_codes(capsys, monkeypatch):
    code, out, _ = run_capture(capsys, ["bounds", "--family", "u", "--k", "2", "--gmax", "1"])
    assert code == 0
    assert "all bounds hold" in out
    failing = BoundReport("u", "counts", 2, None, 1,
                          (BoundRow("2", 1, None, None, False),), False, None, None)
    monkeypatch.setattr(cli.bounds_mod, "certify_unitary_bounds", lambda k, g: failing)
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


def test_cache_path_from_environment_and_config(capsys, tmp_path, monkeypatch):
    env_path = str(tmp_path / "env.tsv")
    monkeypatch.setenv("WG_CACHE", env_path)
    code, out, _ = run_capture(capsys, ["cache", "export", "--family", "o", "--k", "2", "--dim", "4"])
    assert code == 0
    assert env_path in out
    monkeypatch.delenv("WG_CACHE")
    cfg = tmp_path / "wg.ini"
    cfg_path = str(tmp_path / "cfg.tsv")
    cfg.write_text(f"[wg]\ncache = {cfg_path}\n")
    code, out, _ = run_capture(capsys, ["cache", "export", "--family", "o", "--k", "1", "--dim", "4",
                                        "--config", str(cfg)])
    assert code == 0
    assert cfg_path in out
    flag_path = str(tmp_path / "flag.tsv")
    code, out, _ = run_capture(capsys, ["cache", "export", "--family", "o", "--k", "1", "--dim", "4",
                                        "--config", str(cfg), "--out", flag_path])
    assert code == 0
    assert flag_path in out


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
    code, _, err = run_capture(capsys, ["mc", "--family", "sp", "--dim", "2",
                                        "--rows", "1", "--cols", "1"])
    assert code == 1
    assert "--family" in err and "sign" in err
    code, _, err = run_capture(capsys, ["bounds", "--check", "ratio", "--family", "sp",
                                        "--k", "2", "--dim", "67"])
    assert code == 1
    assert "--dim" in err
    code, _, err = run_capture(capsys, ["value", "--family", "u", "--perm", "2,1",
                                        "--dim", "5", "--threads", "0"])
    assert code == 1
    assert "--threads" in err
    code, _, err = run_capture(capsys, ["mc", "--family", "aiii", "--sig", "2,1",
                                        "--dim", "5", "--rows", "1", "--cols", "1"])
    assert code == 1
    assert "--dim" in err
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


def test_cache_that_is_not_utf8_is_corrupt(capsys, tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_bytes(b"\xff\xfe\x00U\t1\t1\td=5\t1/5\n")
    for argv in (["cache", "verify", "--path", str(path)],
                 ["cache", "export", "--family", "u", "--k", "2", "--dim", "5", "--out", str(path)]):
        code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (3, "", "cache corruption: line 1: not UTF-8 text\n")
