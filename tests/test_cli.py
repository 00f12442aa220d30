"""Command line interface: table layout, formats, exit codes, parallel mode."""

import pytest

from twolevelfem import cli
from twolevelfem.analysis import h1_error
from twolevelfem.algorithms import galerkin_solve
from twolevelfem.mesh import build_structured_mesh
from twolevelfem.problems import example_1
from twolevelfem.solver import SolverError
from twolevelfem.space import build_space

HEADER = "M,H,l,s_or_r,k,dofs_coarse,dofs_fine,h1_error,scaled_error,cpu_seconds"


def run_main(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr()


def test_csv_header_and_row_shape(capsys):
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2"],
        capsys,
    )
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == HEADER
    cells = lines[1].split(",")
    assert len(cells) == 10
    assert cells[0] == "2"
    assert cells[1] == "5.000000e-01"
    assert cells[2] == "1" and cells[3] == "1" and cells[4] == "0"
    assert cells[5] == "9" and cells[6] == "9"
    assert float(cells[7]) > 0.0
    # Default scale exponent for a plain solve is the degree.
    assert float(cells[8]) == pytest.approx(float(cells[7]) * 2.0, rel=1e-6)
    assert float(cells[9]) >= 0.0


def strip_cpu(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]


def test_runs_are_deterministic(capsys):
    argv = ["--example", "2", "--algorithm", "two-level", "--l", "1", "--s", "2",
            "--k", "2", "--M", "2,3"]
    _, first = run_main(argv, capsys)
    _, second = run_main(argv, capsys)
    assert strip_cpu(first.out) == strip_cpu(second.out)


def test_markdown_format(capsys):
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2",
         "--format", "markdown"],
        capsys,
    )
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "| " + " | ".join(HEADER.split(",")) + " |"
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2",
         "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert captured.out == ""
    content = target.read_text()
    assert content.startswith(HEADER + "\n")
    assert content.endswith("\n")


def test_dof_table_layout(capsys):
    code, captured = run_main(
        ["--dof-table", "--M", "9,10,11,12", "--degrees", "3,4,5,6"], capsys
    )
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "H,dof_H_p3,dof_Hsq_p3,dof_H_p4,dof_H_p5,dof_H_p6"
    first = lines[1].split(",")
    assert first == ["1/9", "784", "59536", "1369", "2116", "3025"]
    third = lines[3].split(",")
    assert third[0] == "1/11"
    assert third[2] == "132496"


def test_dof_table_tiny_case(capsys):
    code, captured = run_main(["--dof-table", "--M", "1", "--degrees", "1"], capsys)
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "H,dof_H_p1,dof_Hsq_p1"
    assert lines[1] == "1/1,4,4"


def test_dof_table_markdown(capsys):
    code, captured = run_main(
        ["--dof-table", "--M", "2", "--degrees", "2", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert "| 1/2 | 25 | 81 |" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["--example", "1", "--algorithm", "bogus", "--M", "2"],
        ["--algorithm", "galerkin", "--M", "2"],                       # no example
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "0"],
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2,x"],
        ["--example", "1", "--algorithm", "two-level", "--l", "3", "--M", "2"],  # no s
        ["--example", "1", "--algorithm", "two-level", "--l", "3", "--s", "3", "--M", "2"],
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2",
         "--mesh-diagonal", "left"],
        ["--example", "1", "--algorithm", "galerkin", "--l", "7", "--M", "2"],
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "5000"],
        ["--example", "1", "--algorithm", "two-grid", "--M", "65"],  # 65^2 > 4096
        ["--example", "/nonexistent.py", "--algorithm", "galerkin", "--M", "2"],
        ["--dof-table", "--M", "2", "--degrees", "7"],
        ["--dof-table", "--M", "0"],
    ],
)
def test_bad_usage_exits_with_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2


BAD_PROBLEM = """
import numpy as np
from twolevelfem.assembly import ProblemSpec

def u(x, y):
    return x * (1 - x) * y * (1 - y)

def grad_u(x, y):
    return np.stack([(1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)], axis=-1)

PROBLEM = ProblemSpec(
    alpha=lambda x, y: np.ones_like(x),
    beta=lambda x, y: np.zeros(np.shape(x) + (2,)),
    gamma=lambda x, y: np.zeros_like(x),
    f=lambda x, y: np.ones_like(x),
    exact_u=u,
    exact_grad_u=grad_u,
)
"""


@pytest.mark.parametrize(
    "source, extra, message",
    [
        ("PROBLEM = (\n", [], "could not load"),
        (BAD_PROBLEM.replace("np.zeros(np.shape(x) + (2,))", "np.zeros_like(x)"), [],
         "beta returned shape"),
        (BAD_PROBLEM.replace("f=lambda x, y: np.ones_like(x)",
                             "f=lambda x, y: np.full_like(x, np.nan)"), [],
         "f returned non-finite values"),
        (BAD_PROBLEM.replace("axis=-1)", "axis=0)"), ["--error-against", "exact"],
         "exact_grad_u returned shape"),
        (BAD_PROBLEM.replace("return x * (1 - x) * y * (1 - y)",
                             "return np.full_like(x, np.nan)"), [],
         "exact_u returned non-finite values"),
        (BAD_PROBLEM.replace("return x * (1 - x) * y * (1 - y)",
                             "return np.stack([x, y])"), [],
         "exact_u returned shape"),
    ],
    ids=["syntax-error", "beta-shape", "f-nan", "exact-grad-shape", "exact-u-nan",
         "exact-u-shape"],
)
def test_bad_problem_file_exits_with_2(tmp_path, capsys, source, extra, message):
    path = tmp_path / "bad.py"
    path.write_text(source)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--example", str(path), "--algorithm", "galerkin", "--l", "1",
                  "--M", "2", *extra])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_parallel_rows_match_sequential(capsys, monkeypatch):
    monkeypatch.setenv(cli.THREAD_ENV_VAR, "2")
    argv = ["--example", "1", "--algorithm", "two-level", "--l", "1", "--s", "2",
            "--k", "1", "--M", "2,3"]
    _, sequential = run_main(argv, capsys)
    _, parallel = run_main(argv + ["--parallel"], capsys)
    assert strip_cpu(parallel.out) == strip_cpu(sequential.out)
    # Parallel rows leave the timing column blank.
    for line in parallel.out.strip().split("\n")[1:]:
        assert line.endswith(",")


def test_bad_thread_count_exits_with_2(capsys, monkeypatch):
    monkeypatch.setenv(cli.THREAD_ENV_VAR, "abc")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--example", "1", "--algorithm", "galerkin", "--l", "1",
                  "--M", "2", "--parallel"])
    assert excinfo.value.code == 2


def test_problem_file_run(tmp_path, capsys):
    source = """
import numpy as np
from twolevelfem.assembly import ProblemSpec

def u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)

def grad_u(x, y):
    return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                     np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)

PROBLEM = ProblemSpec(
    alpha=lambda x, y: np.ones_like(x),
    beta=lambda x, y: np.zeros(np.shape(x) + (2,)),
    gamma=lambda x, y: np.zeros_like(x),
    f=lambda x, y: 2.0 * np.pi**2 * u(x, y),
    exact_u=u,
    exact_grad_u=grad_u,
    name="poisson-sine",
)
"""
    path = tmp_path / "poisson.py"
    path.write_text(source)
    code, captured = run_main(
        ["--example", str(path), "--algorithm", "galerkin", "--l", "2", "--M", "4"],
        capsys,
    )
    assert code == 0
    error = float(captured.out.strip().split("\n")[1].split(",")[7])
    assert 0.0 < error < 0.1


def test_problem_without_exact_solution_is_rejected(tmp_path, capsys):
    source = """
import numpy as np
from twolevelfem.assembly import ProblemSpec

PROBLEM = ProblemSpec(
    alpha=lambda x, y: np.ones_like(x),
    beta=lambda x, y: np.zeros(np.shape(x) + (2,)),
    gamma=lambda x, y: np.zeros_like(x),
    f=lambda x, y: np.ones_like(x),
    name="no-reference",
)
"""
    path = tmp_path / "incomplete.py"
    path.write_text(source)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--example", str(path), "--algorithm", "galerkin", "--l", "1",
                  "--M", "2"])
    assert excinfo.value.code == 2


def test_exact_error_reference_matches_direct_computation(capsys):
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "2", "--M", "3",
         "--error-against", "exact", "--mesh-diagonal", "down"],
        capsys,
    )
    assert code == 0
    reported = float(captured.out.strip().split("\n")[1].split(",")[7])

    problem = example_1()
    space = build_space(build_structured_mesh(3, diagonal="down"), 2)
    coeffs = galerkin_solve(space, problem)
    direct = h1_error(space, coeffs, problem.exact_u, problem.exact_grad_u)
    # The table prints seven significant digits.
    assert reported == pytest.approx(direct, rel=1e-6)


def test_interpolant_and_exact_references_differ(capsys):
    base = ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "3"]
    _, interp = run_main(base, capsys)
    _, exact = run_main(base + ["--error-against", "exact"], capsys)
    e_interp = float(interp.out.strip().split("\n")[1].split(",")[7])
    e_exact = float(exact.out.strip().split("\n")[1].split(",")[7])
    assert e_interp > 0.0 and e_exact > 0.0
    # The distance to the interpolant never exceeds the sum of both
    # quadrature errors, and on this coarse mesh the two clearly differ.
    assert abs(e_interp - e_exact) / e_exact > 1e-6
    assert e_interp < 2.0 * e_exact + 1e-12


def test_solver_failure_produces_marked_row(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SolverError("test failure")

    monkeypatch.setattr(cli, "galerkin_solve", explode)
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2"],
        capsys,
    )
    assert code == 1
    assert "M=2 failed" in captured.err
    cells = captured.out.strip().split("\n")[1].split(",")
    assert cells[7] == "nan" and cells[8] == "nan"
    assert cells[9] == ""


def test_reference_two_level_row(capsys):
    """Degree 3 to 6 run on an 81-cell-per-side-equivalent setup: the scaled
    error column reproduces the frozen reference value."""
    code, captured = run_main(
        ["--example", "1", "--algorithm", "two-level", "--l", "3", "--s", "6",
         "--k", "3", "--M", "9", "--scale-exponent", "6"],
        capsys,
    )
    assert code == 0
    cells = captured.out.strip().split("\n")[1].split(",")
    assert cells[5] == "784" and cells[6] == "3025"
    assert float(cells[7]) == pytest.approx(5.7750e-08, rel=1e-2)
