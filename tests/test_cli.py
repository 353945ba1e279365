import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import a4csl
from a4csl.cli import EXIT_PIPE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rot_worked_example(capsys):
    code, out, _ = run(capsys, "rot", "(t,2*t,0,0)")
    assert code == 0
    assert "sigma     = 5" in out
    assert "den       = 5" in out
    assert "alpha     = -1+t" in out
    assert "q_alpha   = (1, 2, 0, 0)" in out
    assert out.endswith(
        "matrix (columns are images of the basis):\n"
        "  [-3/5, 2/5, 4/5, -2/5]\n"
        "  [0, 1, 0, 0]\n"
        "  [-4/5, 6/5, -3/5, 4/5]\n"
        "  [0, 0, 0, 1]\n"
    )


def test_rot_identity(capsys):
    code, out, _ = run(capsys, "rot", "(1,0,0,0)")
    assert code == 0
    assert "sigma     = 1" in out


def test_rot_coords_input(capsys):
    # the quaternion (t,2t,0,0) happens to have o-coordinates (t,2t,0,0) too
    code_a, out_a, _ = run(capsys, "rot", "(t,2*t,0,0)")
    code_b, out_b, _ = run(capsys, "rot", "(t,2*t,0,0)", "--coords")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_rot_parse_and_domain_errors(capsys):
    code, _, err = run(capsys, "rot", "(1/2,0,0,0)")
    assert code == 3 and "icosian" in err
    code, _, err = run(capsys, "rot", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "rot", "(1,t,0,0)")
    assert code == 3 and "denominator" in err
    for text in ("(*t,0,0,0)", "(1_0,0,0,0)", "(1e20000,1,0,0)"):
        code, out, err = run(capsys, "rot", text)
        assert code == 2 and out == "" and "Traceback" not in err


def test_csl_command(capsys):
    code, out, _ = run(capsys, "--output", "json", "csl", "(t,2*t,0,0)")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["sigma"] == 5 and data["den"] == 5
    assert data["constructions_agree"] is True
    assert len(data["hnf"]) == 16


def test_equal_command_worked_pair(capsys):
    code, out, _ = run(capsys, "equal", "(t,2*t,0,0)", "(1+t,t,t,1)")
    assert code == 0
    assert "equal CSL (criterion) = true" in out
    assert "equal CSL (HNF)       = true" in out
    assert "symmetry related      = false" in out


def test_equal_command_unit_multiple(capsys):
    code, out, _ = run(capsys, "equal", "(t,2*t,0,0)", "(-2*t,t,0,0)")
    # r * i = (-2t, t, 0, 0): same ideal, all three true
    assert code == 0
    assert out.count("true") == 3


def test_equal_command_distinct_sigma(capsys):
    code, out, _ = run(capsys, "equal", "(t,2*t,0,0)", "(1,1,0,0)")
    assert code == 0
    assert out.count("false") == 3


def test_dirichlet_output(capsys):
    code, out, _ = run(capsys, "dirichlet", "11")
    assert code == 0
    assert out.strip() == "1,5,10,20,6,50,50,80,90,30,144"
    code, out, _ = run(capsys, "--output", "json", "dirichlet", "5")
    assert json.loads(out) == {"schema": 1, "coefficients": [1, 5, 10, 20, 6]}
    code, out, _ = run(capsys, "--output", "csv", "dirichlet", "3")
    assert out.splitlines() == ["n,f", "1,1", "2,5", "3,10"]


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "--output", "json", "enumerate", "5")
    assert code == 0
    data = json.loads(out)
    assert data["rotation_classes"] == 30 and data["csl_count"] == 6


def test_census_command_csv(capsys):
    code, out, _ = run(capsys, "census", "--nmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,rotation_classes,csl_count,f_formula,match"
    assert lines[5] == "5,30,6,6,true"


def test_census_budget_exceeded(capsys):
    """census --nmax 9 charges 7 units: 1 for index 1, and 1 per line the
    generator search divides, 1 for nr 2, 1 for nr 3, 1 for nr 2+t and 3
    for nr 7, each search stopping once its classes are complete.  5 units
    end the table after n = 6, 0 before n = 1."""
    for budget, last in (("5", "6,50,50,50,true"), ("0", "n,rotation_classes,csl_count,f_formula,match")):
        code, out, err = run(capsys, "--budget", budget, "census", "--nmax", "9")
        assert code == 4
        assert out.splitlines()[-2:] == [last, "# truncated: enumeration budget exceeded"]


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_census_without_rows_is_domain_error(capsys, nmax):
    """An empty census table is refused like enumerate 0 and dirichlet 0."""
    code, out, err = run(capsys, "census", "--nmax", nmax)
    assert code == 3 and out == "" and "Traceback" not in err


def test_census_threads_byte_identical(capsys):
    _, out1, _ = run(capsys, "census", "--nmax", "6")
    _, out2, _ = run(capsys, "--threads", "4", "census", "--nmax", "6")
    assert out1 == out2


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [["--threads", "0", "census"], ["--threads", "-1", "census"], ["--budget", "-1", "census"]],
)
def test_bad_threads_or_budget_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err and "Traceback" not in err


# (N, 1, 0, 0) with N = 10^2999: nr = sigma = N^2 + 1 has 5999 digits, past
# Python's default limit of 4300 digits on int-str conversions.
BIG_N = "1" + "0" * 2999
BIG_SIGMA = "1" + "0" * 5997 + "1"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("verb", ["rot", "csl"])
def test_exact_output_past_the_int_str_limit(capsys, verb, fmt):
    """Numbers longer than Python's int-str limit are read and printed in
    full, and main gives the limit back when it returns."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "--output", fmt, verb, f"({BIG_N},1,0,0)")
    assert code == 0 and "Traceback" not in err
    pattern = r'"sigma":(\d+)' if fmt == "json" else r"^sigma +=\s*(\d+)$"
    assert re.search(pattern, out, re.M).group(1) == BIG_SIGMA
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_closed_stdout_exits_without_traceback():
    """A reader that closes the pipe before the CLI writes (`a4csl ... |
    head`) gets exit code 5 and no traceback on stderr."""
    src = str(Path(a4csl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "a4csl.cli", "--output", "json", "selftest"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_readme_library_example(capsys):
    """The python block of README.md runs and prints what its comments say:
    `5 5` for sigma and den, and `True` for equal_csl."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints[0].endswith("# 5 5") and "# True" in prints[2]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints) == 3
    assert printed[0] == "5 5" and printed[2] == "True"


GOLDEN = Path(__file__).parent / "golden"


# Reference CLI outputs, compared byte for byte with their exit codes.  The
# truncated census pins the budget's unit: index 1 charges 1, nr 2 one
# remainder sequence (2 in all) and nr 3 one more (3), so 2 units end the
# table after n = 2.
@pytest.mark.parametrize(
    "argv, name, code",
    [
        (["--output", "json", "enumerate", "10"], "enumerate10.json", 0),
        (["--output", "json", "enumerate", "23"], "enumerate23.json", 0),
        (["census", "--nmax", "8"], "census_nmax8.csv", 0),
        (["--budget", "2", "census", "--nmax", "9"], "census_nmax9_budget2.csv", 4),
        (["selftest"], "selftest.txt", 0),
        (["--output", "json", "selftest"], "selftest.txt", 0),  # selftest prints text only
        (["--output", "json", "equal", "(t,2*t,0,0)", "(1+t,t,t,1)"], "equal_worked.json", 0),
        (["--output", "json", "equal", "(1,1,1,2)", "(1,2,-1,-1)"], "equal_sigma7.json", 0),
        (["--output", "json", "csl", "(1+t,t,t,1)"], "csl_1tt1.json", 0),
        (["--output", "json", "rot", "(t,2*t,0,0)"], "rot_worked.json", 0),
    ],
    ids=[
        "enumerate10", "enumerate23", "census8", "census9-budget2", "selftest",
        "selftest-json", "equal", "equal-sigma7", "csl", "rot",
    ],
)
def test_golden_output(capsys, argv, name, code):
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out.encode() == (GOLDEN / name).read_bytes()
