"""Command-line surface: golden outputs, exit codes, check runners."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticepaths
from latticepaths.cli import CHECK_FAMILIES, main

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


@pytest.mark.parametrize("family", CHECK_FAMILIES)
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
])
def test_bad_parameters_exit_2_with_a_message(argv):
    src = Path(latticepaths.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() and "Traceback" not in proc.stderr
