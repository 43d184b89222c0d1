"""Command-line surface: golden outputs, exit codes, check runners."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticepaths
from latticepaths.asymptotics import LAW_KINDS, eval_law
from latticepaths.cli import ASYM_LADDERS, BIJS, CHECKS, OPTIONS, SEQS, main, reads

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_CASES = [
    ("seq_a002212_n9.tsv", ["seq", "--family", "a002212", "--n", "9"]),
    ("seq_skew_sj_j1_n13.tsv",
     ["seq", "--family", "skew-sj", "--j", "1", "--n", "13"]),
    ("seq_dual_gj_j2_n12.tsv",
     ["seq", "--family", "dual-gj", "--j", "2", "--n", "12"]),
    ("seq_hoppy_neg_k3_n5.tsv",
     ["seq", "--family", "hoppy-neg", "--k", "3", "--n", "5"]),
    ("seq_ternary_T_n6.tsv", ["seq", "--family", "ternary-T", "--n", "6"]),
    ("seq_deutsch_phi_n8.tsv", ["seq", "--family", "deutsch-phi", "--n", "8"]),
    ("seq_amplitude_n6.tsv", ["seq", "--family", "amplitude", "--n", "6"]),
    ("seq_kemp_valley_n6.csv",
     ["seq", "--family", "kemp-valley", "--n", "6", "--format", "csv"]),
    ("seq_kemp_peak_n6.jsonl",
     ["seq", "--family", "kemp-peak", "--n", "6", "--format", "json-lines"]),
    ("seq_horton_Rp_p1_a0_n7.tsv",
     ["seq", "--family", "horton-Rp", "--j", "1", "--a", "0", "--n", "7"]),
    ("seq_marked_ph_h2_n8.tsv",
     ["seq", "--family", "marked-ph", "--j", "2", "--n", "8"]),
    ("seq_retakh_n9.tsv", ["seq", "--family", "retakh", "--n", "9"]),
    ("bij_multiedge_motzkin_n3.txt",
     ["bij", "--family", "multiedge-motzkin", "--n", "3"]),
    ("bij_marked_skew_n4.txt", ["bij", "--family", "marked-skew", "--n", "4"]),
    ("bij_rotation_n3.txt", ["bij", "--family", "rotation", "--n", "3"]),
]


@pytest.mark.parametrize("fixture,argv", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(fixture, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (FIXTURES / fixture).read_text()


def test_json_lines_parse(capsys):
    assert main(["seq", "--family", "kemp-peak", "--n", "4",
                 "--format", "json-lines"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == {"n": 1, "value": 3}
    assert rows[1] == {"n": 2, "value": "13/3"}


@pytest.mark.parametrize("family", tuple(CHECKS))
def test_check_families_pass(family, capsys):
    argv = ["check", "--family", family, "--max", "8"]
    if family == "deutsch-strip":
        argv += ["--m", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all(line.startswith("ok   ") for line in lines)


def test_asym_report(capsys):
    assert main(["asym", "--family", "red_edges", "--n", "160"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,exact,asymptotic,rel_dev"
    assert [int(row.split(",")[0]) for row in lines[1:-1]] == [20, 40, 80, 160]
    assert lines[-1] == "trend ok"
    # deviations halve with each doubling
    devs = [float(row.split(",")[3]) for row in lines[1:-1]]
    assert devs == sorted(devs, reverse=True)


def test_asym_tolerance_flag(capsys):
    # the register fluctuation makes the strict ladder fail honestly
    assert main(["asym", "--family", "horton_avg", "--n", "512"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "trend FAIL"
    assert main(["asym", "--family", "horton_avg", "--n", "512",
                 "--tolerance", "0.6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "trend ok"


def test_asym_amplitude_split(capsys):
    assert main(["asym", "--family", "amplitude_split", "--n", "80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("10,553/1094,0.5,")
    assert lines[-1] == "trend ok"


@pytest.mark.parametrize("argv", [
    [],
    ["seq"],
    ["seq", "--family", "bogus"],
    ["seq", "--family", "a002212", "--n", "-1"],
    ["bij", "--family", "rotation", "--n", "0"],
    ["seq", "--family", "marked-ph", "--j", "0", "--n", "6"],
    ["asym", "--family", "kemp_valley", "--n", "0"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["seq", "--family", "hoppy-neg", "--k", "-2"],
    ["seq", "--family", "hoppy-neg", "--k", "0"],
    ["check", "--family", "deutsch-strip", "--m", "0"],
    ["check", "--family", "deutsch-strip", "--m", "-1"],
    ["asym", "--family", "horton_avg", "--a", "-4"],
    ["check", "--family", "marked", "--max", "0"],
    ["asym", "--family", "red_edges", "--n", "1"],
    ["asym", "--family", "red_edges", "--n", "160", "--tolerance", "-1"],
    ["check", "--family", "skew", "--m", "-7"],
    ["check", "--family", "skew", "--m", "-7", "--k", "0", "--max", "3"],
    ["check", "--family", "hoppy", "--k", "3"],
    ["check", "--family", "horton", "--a", "1"],
    ["check", "--family", "ternary", "--j", "1"],
    ["check", "--family", "marked", "--t", "0"],
    ["check", "--family", "deutsch-strip", "--m", "4", "--n", "5"],
    ["seq", "--family", "a002212", "--n", "3", "--k", "-9", "--t", "99"],
    ["seq", "--family", "skew-sj", "--n", "5", "--k", "2"],
    ["seq", "--family", "horton-Rp", "--n", "5", "--j", "1", "--t", "0"],
    ["seq", "--family", "ternary-T", "--max", "3"],
    ["bij", "--family", "rotation", "--n", "2", "--k", "-9"],
    ["bij", "--family", "marked-skew", "--max", "3"],
    ["asym", "--family", "red_edges", "--n", "40", "--a", "7", "--k", "-3", "--max", "2"],
    ["asym", "--family", "red_edges", "--a", "0"],
    ["asym", "--family", "kemp_gap", "--n", "40", "--m", "2"],
    ["asym", "--family", "horton_avg", "--n", "64", "--a", "1", "--j", "1"],
    ["asym", "--family", "node_count_growth", "--n", "64", "--t", "0"],
    ["asym", "--family", "marked_height", "--max", "5", "--tolerance", "0.6"],
    ["check", "--family", "skew", "--max", "3", "--format", "csv"],
    ["bij", "--family", "rotation", "--n", "2", "--format", "json-lines"],
    ["asym", "--family", "red_edges", "--n", "40", "--format", "csv"],
    ["seq", "--family", "a002212", "--tolerance", "0.1"],
])
def test_bad_parameters_exit_2_with_a_message(argv):
    src = Path(latticepaths.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() and "Traceback" not in proc.stderr


@pytest.mark.parametrize("family", tuple(SEQS))
def test_seq_accepts_the_flags_it_reads(family, capsys):
    argv = ["seq", "--family", family, "--n", "4"]
    for flag in reads(SEQS[family]):
        argv += [f"--{flag}", "2"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and not err


def test_asym_prints_values_past_the_int_digit_limit():
    # the exact averages at n = 16384 have more digits than str() converts
    src = Path(latticepaths.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", "asym", "--family",
                           "horton_avg", "--n", "16384", "--a", "0", "--tolerance", "0.6"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode != 2
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split(",")[0] for row in rows[1:-1]] == ["2048", "4096", "8192", "16384"]
    assert max(len(row.split(",")[1]) for row in rows[1:-1]) > 4300


def test_asym_past_the_float_range_exits_2_with_one_line(capsys):
    # node_count_growth's law (a+4)^(n+1/2) is a float, past 1e308 from n = 512
    assert main(["asym", "--family", "node_count_growth", "--n", "512"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "node_count_growth" in err and "--n 512" in err
    assert main(["asym", "--family", "node_count_growth", "--n", "511"]) == 0
    assert capsys.readouterr().out.endswith("trend ok\n")


def test_asym_ladders_are_the_law_kinds():
    assert tuple(ASYM_LADDERS) == LAW_KINDS


def test_asym_reads_a_for_the_kinds_whose_law_reads_it():
    reads_a = {kind for kind in LAW_KINDS if eval_law(kind, 16, 0) != eval_law(kind, 16, 1)}
    assert reads_a == {kind for kind, ladder in ASYM_LADDERS.items() if "a" in reads(ladder)}
    assert all(reads(ladder) in ((), ("a",)) for ladder in ASYM_LADDERS.values())


@pytest.mark.parametrize("kind", sorted(kind for kind, ladder in ASYM_LADDERS.items()
                                        if reads(ladder)))
def test_asym_accepts_the_flags_it_reads(kind, capsys):
    argv = ["asym", "--family", kind, "--n", "32", "--tolerance", "0.6"]
    for flag in reads(ASYM_LADDERS[kind]):
        argv += [f"--{flag}", "1"]
    assert main(argv) in (0, 1)
    out, err = capsys.readouterr()
    assert out.startswith("n,exact,asymptotic,rel_dev\n") and not err


# command -> (families, size flag, the command's own flag)
COMMANDS = {"seq": (SEQS, "n", "format"), "check": (CHECKS, "max", None),
            "bij": (BIJS, "n", None), "asym": (ASYM_LADDERS, "n", "tolerance")}
# a valid value of every flag at a small size
VALID = {"tolerance": "0.6", "n": "4", "j": "2", "k": "2", "a": "1", "m": "2", "t": "1",
         "max": "2", "format": "csv"}
MATRIX = [(command, family, flag) for command, (families, _, _) in COMMANDS.items()
          for family in families for flag in OPTIONS]


@pytest.mark.parametrize("command,family,flag", MATRIX,
                         ids=[" ".join(case) for case in MATRIX])
def test_a_family_reads_exactly_its_flags(command, family, flag, capsys):
    families, size_flag, own = COMMANDS[command]
    code = main([command, "--family", family, f"--{flag}", VALID[flag]])
    out, err = capsys.readouterr()
    if flag in (size_flag, own) + reads(families[family]):
        assert code in (0, 1) and out and err == ""
    else:
        assert code == 2 and out == ""
        assert err.splitlines() == [f"{command} --family {family} does not read --{flag}"]


@pytest.mark.parametrize("kind", LAW_KINDS)
def test_asym_below_two_sizes_exits_2_with_one_line(kind, capsys):
    for n in (-3, 0, 1):
        assert main(["asym", "--family", kind, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "--n must be >= 2\n"


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_seq_prints_values_past_the_int_digit_limit(fmt):
    # hoppy-neg at k = 10000 passes 4300 digits a few hundred rows in
    env = dict(os.environ, PYTHONPATH=str(Path(latticepaths.__file__).resolve().parents[1]))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", "seq", "--family",
                           "hoppy-neg", "--k", "10000", "--n", "1000", "--format", fmt],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 1001
    assert max(len(row) for row in rows) > 4300
    if fmt == "json-lines":
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            records = [json.loads(row) for row in rows]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert [record["n"] for record in records] == list(range(1001))
        assert all(type(record["value"]) is int for record in records)


def _a002212_by_convolution(upto: int) -> list:
    # 3-Motzkin numbers by m[n] = 3 m[n-1] + sum_k m[k] m[n-2-k], shifted by one
    m = [1]
    for n in range(1, upto):
        m.append(3 * m[n - 1] + sum(m[k] * m[n - 2 - k] for k in range(n - 1)))
    return [1] + m


@pytest.mark.parametrize("argv", [
    ["seq", "--family", "a002212", "--n", "3000"],
    ["asym", "--family", "kemp_gap", "--n", "640"],
], ids=["a002212-3000", "kemp_gap-640"])
def test_large_sizes_run_to_completion(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(latticepaths.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    if argv[0] == "seq":
        assert len(rows) == 3001
        want = _a002212_by_convolution(400)
        assert rows[:401] == [f"{n}\t{v}" for n, v in enumerate(want)]
    else:
        assert rows[-1] == "trend ok"
        assert [row.split(",")[0] for row in rows[1:-1]] == ["80", "160", "320", "640"]
