"""The paper's nonsymmetric case: variable alpha, convection and an
indefinite reaction term, loaded from a problem file through --example.

tests/problems/nonsymmetric.py has alpha = 1 + xy, beta = (3, -2),
gamma = -10 and u = sin(pi x) sin(pi y).  The frozen errors were measured
before the assembly kernel was rewritten around reference tables; they pin
the variable-alpha, beta and gamma paths of assembly end to end.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from twolevelfem import assemble_nonsym, build_space, build_structured_mesh, cli
from twolevelfem.problems import load_problem_file

PROBLEM_FILE = str(Path(__file__).parent / "problems" / "nonsymmetric.py")

# h1_error against the degree-matched interpolant (the CLI default).
TWO_LEVEL_M = (4, 6, 8, 10)
TWO_LEVEL_3_TO_6 = (7.4754654556465745e-06, 6.612373949396364e-07,
                    1.1798732672668492e-07, 3.096570254880082e-08)
TWO_GRID_M = (3, 4, 5, 6)
TWO_GRID_P3 = (6.968938349806583e-04, 1.263009828711306e-04,
               3.3361416775355724e-05, 1.1215952200589444e-05)

# Seven printed digits; a change of assembly order moves the last one.
FROZEN_RTOL = 1e-5


def table(capsys, *args):
    """The rows of one CLI run on the problem file, as dicts by column."""
    code = cli.main(["--example", PROBLEM_FILE, *args])
    assert code == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def h1_errors(capsys, *args):
    """The h1_error column of one CLI run on the problem file."""
    return [float(row["h1_error"]) for row in table(capsys, *args)]


def test_problem_is_nonsymmetric():
    space = build_space(build_structured_mesh(2), 2)
    N = assemble_nonsym(space, load_problem_file(PROBLEM_FILE)).toarray()
    assert np.abs(N - N.T).max() > 0.1 * np.abs(N).max()


def test_two_level_errors_frozen(capsys):
    errors = h1_errors(capsys, "--algorithm", "two-level", "--l", "3", "--s", "6",
                       "--k", "3", "--M", ",".join(map(str, TWO_LEVEL_M)))
    assert errors == pytest.approx(TWO_LEVEL_3_TO_6, rel=FROZEN_RTOL)


def test_two_grid_errors_frozen(capsys):
    errors = h1_errors(capsys, "--algorithm", "two-grid", "--l", "3", "--k", "3",
                       "--M", ",".join(map(str, TWO_GRID_M)))
    assert errors == pytest.approx(TWO_GRID_P3, rel=FROZEN_RTOL)


def test_two_level_is_as_accurate_as_fine_galerkin(capsys):
    """The paper's claim: three rounds of two-level P3 -> P6 give the true
    H1 error of the P6 Galerkin solution to within 5 %."""
    M = ",".join(map(str, TWO_LEVEL_M))
    two_level = h1_errors(capsys, "--algorithm", "two-level", "--l", "3", "--s", "6",
                          "--k", "3", "--M", M, "--error-against", "exact")
    galerkin = h1_errors(capsys, "--algorithm", "galerkin", "--l", "6", "--M", M,
                         "--error-against", "exact")
    assert np.all(np.abs(np.array(two_level) / np.array(galerkin) - 1.0) <= 0.05)


def test_two_level_is_cheaper_than_two_grid(capsys):
    """The cost half of the claim: two-level P3 -> P6 at M=4 is more
    accurate than two-grid P3 with h = H^2 at M=6, on under a tenth of the
    fine unknowns (625 against 11,881)."""
    two_level, = table(capsys, "--algorithm", "two-level", "--l", "3", "--s", "6",
                       "--k", "3", "--M", "4", "--error-against", "exact")
    two_grid, = table(capsys, "--algorithm", "two-grid", "--l", "3", "--k", "3",
                      "--M", "6", "--error-against", "exact")
    assert float(two_level["h1_error"]) < float(two_grid["h1_error"])
    assert 10 * int(two_level["dofs_fine"]) < int(two_grid["dofs_fine"])
