"""Command-line surface: golden outputs, exit codes, check runners."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import latticepaths
from latticepaths import cli, trees
from latticepaths.asymptotics import LAW_KINDS, eval_law
from latticepaths.cli import ASYM_LADDERS, BIJS, CHECKS, OPTIONS, SEQS, main, reads
import old_checks

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


# SHA-256 of stdout past the golden fixtures' sizes: `bij` lists the trees in
# generation order, so these pin that order (543 lines each)
BIJ_DIGESTS = [
    (["bij", "--family", "marked-skew", "--n", "7"],
     "0c9125bbf46080a0eb992210717019a8e798bd0b876d4b72f4dba8d8ed476c0f"),
    (["bij", "--family", "multiedge-motzkin", "--n", "6"],
     "8fb49875d48fcc600e15629238b9fdc71ded07ebbc1750d45c1be7c9479ab521"),
    (["bij", "--family", "rotation", "--n", "6"],
     "7acb65cc51d1c03d4abc0096832d3fc261f39c4536af734addd2ba0cc6c3d081"),
]


@pytest.mark.parametrize("argv,digest", BIJ_DIGESTS, ids=[c[0][2] for c in BIJ_DIGESTS])
def test_bij_output_digest(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 543
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_asym_marked_height_past_the_benchmark_size(capsys):
    # SHA-256 of "exit <code>\n" + stdout, recorded with the transposed Horner
    # pass; the benchmark's ladder stops at --n 240
    code = main(["asym", "--family", "marked_height", "--n", "640"])
    out = capsys.readouterr().out
    assert hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest() == \
        "d44f5d742c3037cb91f874b5bd221c25328ec7792729e9192aba3c6478653695"


BIJ_SIZE_ONE = {"multiedge-motzkin": "(1) -> (empty)\n", "marked-skew": "() -> (empty)\n",
                "rotation": "(1) -> (.,.)\n"}


@pytest.mark.parametrize("family", sorted(BIJS))
def test_bij_default_size_and_least_size(family, capsys):
    # without --n, bij prints the --n 3 table (the golden one where there is
    # one); --n 1 is the least size it accepts
    assert main(["bij", "--family", family]) == 0
    default = capsys.readouterr().out
    assert main(["bij", "--family", family, "--n", "3"]) == 0
    assert default == capsys.readouterr().out
    golden = FIXTURES / f"bij_{family.replace('-', '_')}_n3.txt"
    if golden.exists():
        assert default == golden.read_text()
    assert main(["bij", "--family", family, "--n", "1"]) == 0
    assert capsys.readouterr().out == BIJ_SIZE_ONE[family]


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


# Per check family, the inputs whose faults each of its lines must report.
FAULTS = {
    "skew": ("gen_skew",),
    "dual": ("gen_dual_skew",),
    "hoppy": ("tally_paths", "hoppy_negative_coeff", "denom_Sj"),
    "ternary": ("ternary_row_sum",),
    "amplitude": ("amplitude_coeff",),
    "motzkin-bounded": ("motzkin_bounded_coeff",),
    "deutsch-strip": ("deutsch_phi",),
    "bijections": ("gen_motzkin", "gen_skew", "gen_unary_binary"),
    "horton": ("unary_binary_count", "horton_Rp"),
    # a count one too high and one more tree of value 0 cancel in the counts,
    # so the leaf total keeps the three faults together from passing
    "marked": ("marked_count", "marked_leaf_total", "tally_trees"),
    "retakh": ("tally_paths",),
}


def _faulty(func):
    """func with a wrong result: one more (a count or a series), one more
    value of 0 in each distribution, or no objects."""
    def wrong(*args, **kwargs):
        value = func(*args, **kwargs)
        if isinstance(value, list):
            return [dist + Counter({0: 1}) for dist in value
                    if isinstance(dist, Counter)]
        return value + 1
    return wrong


@pytest.mark.parametrize("family", tuple(CHECKS))
def test_every_check_line_compares_a_value(family, monkeypatch, capsys):
    # a line that compared nothing would stay "ok" whatever its inputs
    assert set(FAULTS) == set(CHECKS)
    for name in FAULTS[family]:
        monkeypatch.setattr(cli, name, _faulty(getattr(cli, name)))
    for budget in (1, 2, 3):
        assert main(["check", "--family", family, "--max", str(budget)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("FAIL ") for line in lines), (budget, lines)


@pytest.mark.parametrize("family", tuple(CHECKS))
def test_check_verdicts_match_the_old_bodies(family, monkeypatch, capsys):
    # the bodies that judged their own lines, patched in, print the same lines
    # and exit alike, with and without each fault of the test above; the
    # stderr of a failing line differs, since an old body's only values are
    # its verdict and True
    def compare(argvs):
        for argv in argvs:
            code = main(argv)
            got = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setitem(CHECKS, family, old_checks.as_lines(old_checks.CHECKS[family]))
                assert (main(argv), capsys.readouterr().out) == (code, got), argv

    argvs = [["check", "--family", family, "--max", str(budget)] for budget in range(1, 14)]
    if family == "deutsch-strip":
        argvs += [["check", "--family", family, "--m", str(m)] for m in range(1, 9)]
    compare(argvs)
    for names in [(name,) for name in FAULTS[family]] + [FAULTS[family]]:
        with monkeypatch.context() as patch:
            for name in names:
                wrong = _faulty(getattr(cli, name))
                patch.setattr(cli, name, wrong)
                patch.setattr(old_checks, name, wrong)
            compare(argvs[:3])


def test_check_amplitude_layer_line_is_backed_by_the_paths(monkeypatch, capsys):
    # the layer series and the extraction agree with each other one height
    # too high: only the path tally can tell
    series, coeff = cli.amplitude_series, cli.amplitude_coeff
    monkeypatch.setattr(cli, "amplitude_series", lambda h, kind, order: series(h + 1, kind, order))
    monkeypatch.setattr(cli, "amplitude_coeff", lambda n, h, kind: coeff(n, h + 1, kind))
    assert main(["check", "--family", "amplitude", "--max", "12"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "FAIL amplitude layer series = coefficient extraction, order 12"


def test_check_marked_builds_no_tree(monkeypatch, capsys):
    # its brute-force route counts the trees by tally, without one per-tree fold
    def no_trees(*args):
        raise AssertionError("check marked built or folded a tree")

    monkeypatch.setattr(cli, "gen_marked", no_trees)
    monkeypatch.setattr(trees, "_stat", no_trees)
    for budget in (1, 7, 13):
        assert main(["check", "--family", "marked", "--max", str(budget)]) == 0
        assert capsys.readouterr().out.startswith("ok ")


def test_check_bijections_maps_each_object_once_each_way(monkeypatch, capsys):
    # whole levels are mapped, but still one call per object and direction
    calls = Counter()

    def counted(name):
        func = getattr(cli, name)

        def call(arg):
            calls[name] += 1
            return func(arg)
        return call

    maps = ("multiedge_to_3motzkin", "motzkin3_to_multiedge", "marked_to_skew",
            "skew_to_marked", "rotation_multiedge_to_unarybinary",
            "rotation_unarybinary_to_multiedge")
    for name in maps:
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["check", "--family", "bijections"]) == 0
    capsys.readouterr()
    multiedge = sum(len(cli.gen_multiedge(w)) for w in range(1, 7))
    marked = sum(len(cli.gen_marked(n)) for n in range(1, 8))
    assert calls == dict(zip(maps, [multiedge] * 2 + [marked] * 2 + [multiedge] * 2))


def test_a_failing_check_line_says_where_on_stderr(monkeypatch, capsys):
    # the marked-tree count of size 4 one too high: stdout as before, and
    # stderr names the first differing index and each route's value there
    count = cli.marked_count
    monkeypatch.setattr(cli, "marked_count", lambda n: count(n) + (n == 4))
    label = "marked-tree counts, leaf and height totals = brute, n <= 7"
    assert main(["check", "--family", "marked"]) == 1
    assert capsys.readouterr() == (f"FAIL {label}\n", f"{label}: routes differ at [3][0]: 11 | 10\n")
    monkeypatch.setitem(CHECKS, "marked", lambda budget: [
        ("same", [1, [2, 3]], [1, [2, 3]]),
        ("nested", [1, [2, 3]], [1, [2, 4]], [1, [2, 3]]),
        ("shorter", [1, 2], [1, 2, 3]),
        ("verdict", False, True),
        ("list against tuple", [1, 2], (1, 2)),
    ])
    assert main(["check", "--family", "marked"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["ok   same", "FAIL nested", "FAIL shorter", "FAIL verdict",
                                "FAIL list against tuple"]
    assert err.splitlines() == ["nested: routes differ at [1][1]: 3 | 4 | 3",
                                "shorter: routes differ at [2]: (none) | 3",
                                "verdict: routes differ: False | True",
                                "list against tuple: routes differ: [1, 2] | (1, 2)"]


def test_a_passing_check_writes_nothing_to_stderr(capsys):
    assert main(["check", "--family", "bijections"]) == 0
    assert capsys.readouterr().err == ""


def test_bijection_check_fails_when_the_images_miss_the_codomain():
    # every object maps back and keeps its statistic; the image set must still equal the codomain
    same = lambda x: x
    args = (range(1, 4), lambda n: list(range(n)), same, same)
    assert cli._bijection_ok(*args, lambda n: set(range(n)))
    assert not cli._bijection_ok(*args, lambda n: set(range(n + 1)))
    assert not cli._bijection_ok(*args, lambda n: set(range(n - 1)))


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


USAGE_ERRORS = [
    [],
    ["seq"],
    ["seq", "--family", "bogus"],
    ["seq", "--family", "a002212", "--n", "-1"],
    ["bij", "--family", "rotation", "--n", "0"],
    ["seq", "--family", "marked-ph", "--j", "0", "--n", "6"],
    ["asym", "--family", "kemp_valley", "--n", "0"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


BAD_PARAMETERS = [
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
]


@pytest.mark.parametrize("argv", BAD_PARAMETERS)
def test_bad_parameters_exit_2_with_a_message(argv):
    src = Path(latticepaths.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "latticepaths.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() and "Traceback" not in proc.stderr


@pytest.mark.parametrize("family", ("skew-sj", "dual-gj"))
def test_end_level_seqs_at_their_edges(family, capsys):
    assert main(["seq", "--family", family, "--j", "-1", "--n", "4"]) == 2
    assert capsys.readouterr() == ("", "level j must be >= 0\n")
    # no count of length <= 3 ends at level 5
    assert main(["seq", "--family", family, "--j", "5", "--n", "3"]) == 0
    assert capsys.readouterr() == ("", "")


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
