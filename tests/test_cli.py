"""Command line interface: table layout, formats, exit codes, parallel mode."""

import contextlib
import functools
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevelfem import cli
from twolevelfem.analysis import h1_distance, h1_error
from twolevelfem.algorithms import galerkin_solve
from twolevelfem.element import build_quadrature, build_reference_element
from twolevelfem.mesh import Mesh, build_structured_mesh
from twolevelfem.problems import example_1
from twolevelfem.solver import SolverError
from twolevelfem.space import CoefficientError, build_space, dof_count, interpolate

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


def test_dof_table_refuses_non_integers():
    with pytest.raises(cli.UsageError):
        cli.dof_table((3,), (2.5,))
    with pytest.raises(cli.UsageError):
        cli.dof_table((2.5,), (3,))


@pytest.mark.parametrize("degrees", [(3, 3), (3, 4, 3)])
def test_dof_table_refuses_repeated_degrees(degrees):
    """A repeated degree would repeat a column name of the table."""
    with pytest.raises(cli.UsageError, match="distinct"):
        cli.dof_table((9,), degrees)


@pytest.mark.parametrize("algorithm, l, s, M, fine_factor, s_or_r", [
    ("galerkin", 2, None, 2, "square", 2),
    ("two-level", 1, 2, 2, "square", 2),
    ("two-grid", 1, None, 3, "square", 3),
    ("two-grid", 1, None, 2, 2, 2),
])
def test_config_spaces_are_what_a_row_builds(algorithm, l, s, M, fine_factor, s_or_r):
    config = cli.RunConfig(example="1", algorithm=algorithm, l=l, s=s, k=1, M_list=(M,),
                           fine_factor=fine_factor)
    counts = [dof_count(m, p) for p, m in config.spaces(M)]
    assert len(counts) == (1 if algorithm == "galerkin" else 2)
    (row,) = cli.run_experiment(config)
    assert (row.dofs_coarse, row.dofs_fine) == (counts[0], counts[-1])
    assert row.s_or_r == s_or_r


def test_numpy_integers_are_accepted_as_integers():
    one, two = np.int64(1), np.int64(2)
    cli.RunConfig(example="1", algorithm="two-level", l=one, s=two, k=one, M_list=(two,))
    config = cli.RunConfig(example="1", algorithm="two-grid", l=one, s=None, k=one,
                           M_list=(two,), fine_factor=two)
    assert config.spaces(2) == [(1, 2), (1, 4)]
    (row,) = cli.run_experiment(config)
    assert (row.dofs_coarse, row.dofs_fine, row.s_or_r) == (9, 25, 2)


def test_dof_table_markdown(capsys):
    code, captured = run_main(
        ["--dof-table", "--M", "2", "--degrees", "2", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert "| 1/2 | 25 | 81 |" in captured.out


BAD_USAGE = [
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
    ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2",
     "--output", "/nonexistent/table.csv"],                     # no such directory
    ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2",
     "--output", "."],                                          # a directory
    ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "12",
     "--scale-exponent", "1000"],                               # 12**1000 overflows
    ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2,12",
     "--scale-exponent", "-1000"],                              # 12**-1000 underflows
    ["--example", "1", "--algorithm", "two-grid", "--l", "1", "--M", "1,2"],  # r = M = 1
    ["--example", "1", "--algorithm", "two-level", "--l", "1", "--s", "2",
     "--k", "1000000000000", "--M", "2"],                       # k > MAX_ROUNDS
    ["--dof-table", "--M", ""],
    ["--dof-table", "--M", ","],
    ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2,3",
     "--output", "x" * 300],                                    # name too long
    ["--example", "1", "--algorithm", "two-grid", "--M", "64"],  # 151 M fine DOFs
    ["--example", "1", "--algorithm", "galerkin", "--l", "6", "--M", "4096"],
]


@pytest.mark.parametrize("argv", BAD_USAGE)
def test_bad_usage_exits_with_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_an_output_that_fails_at_the_final_write_exits_with_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_output_path", lambda path: None)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--dof-table", "--M", "2", "--output", "x" * 300])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("twolevelfem: error: --output ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("run", [
    dict(algorithm="two-grid", l=3, s=None, M_list=(64,)),        # 151,019,521 fine DOFs
    dict(algorithm="galerkin", l=6, s=None, M_list=(4096,)),      # 604,028,929 DOFs
])
def test_rows_that_cannot_fit_in_memory_are_refused(run):
    with pytest.raises(cli.UsageError, match="physical memory"):
        cli.run_experiment(cli.RunConfig(example="1", k=3, **run))


def test_parallel_rows_count_together_against_memory(monkeypatch):
    """With memory for one and a half rows, two rows run one after another
    but not at once."""
    run = dict(example="1", algorithm="two-grid", l=1, s=None, k=1, M_list=(2, 2))
    memory = cli._BASE_BYTES + 1.5 * cli.RunConfig(**run).row_bytes(2)
    page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: int(memory) // page
                        if name == "SC_PHYS_PAGES" else sysconf(name))
    monkeypatch.setattr(cli, "POOL_SIZE", 2)
    assert len(cli.run_experiment(cli.RunConfig(**run))) == 2
    with pytest.raises(cli.UsageError, match="physical memory"):
        cli.run_experiment(cli.RunConfig(**run, parallel=True))


def test_parallel_rows_stop_starting_once_a_row_raises(monkeypatch):
    """A row that raises under --parallel cancels the rows still queued:
    with every row raising, at most two pools' worth of rows start."""
    started = []

    def failing_row(problem, config, M):
        started.append(M)
        time.sleep(0.05)
        raise CoefficientError(f"row {M} fails")

    monkeypatch.setattr(cli, "_run_single", failing_row)
    monkeypatch.setattr(cli, "POOL_SIZE", 2)
    config = cli.RunConfig(example="1", algorithm="two-level", l=1, s=2, k=1,
                           M_list=tuple(range(1, 13)), parallel=True)
    with pytest.raises(CoefficientError, match="fails"):
        cli.run_experiment(config)
    assert 1 <= len(started) <= 2 * cli.POOL_SIZE


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs to pin away")
def test_pool_size_counts_the_cpus_this_process_may_run_on():
    """A process pinned to one CPU runs one row at a time under --parallel,
    however many CPUs the machine has."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            f"sys.path.insert(0, {src!r}); from twolevelfem import cli; print(cli.POOL_SIZE)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout == "1\n"


# Peak RSS (ru_maxrss) in MiB of single rows, each run alone through
# run_experiment in a fresh process (Linux x86-64): the highest each row has
# measured, under the COO assembly; with interior blocks only and the fine
# stiffness factored first they peak at 177, 440, 345, 312, 424, 222, 561
# and 80.  The estimate must not fall below them.
MEASURED_PEAKS = [
    ("two-grid", 3, None, 9, 232), ("two-grid", 3, None, 12, 629),
    ("two-grid", 1, None, 20, 431), ("galerkin", 2, None, 200, 466),
    ("galerkin", 6, None, 70, 527), ("two-level", 1, 2, 150, 325),
    ("two-level", 5, 6, 60, 761), ("two-level", 3, 6, 12, 84),
]


@pytest.mark.parametrize("algorithm,l,s,M,peak_mib", MEASURED_PEAKS)
def test_memory_estimate_lies_above_measured_rows(algorithm, l, s, M, peak_mib):
    config = cli.RunConfig(example="1", algorithm=algorithm, l=l, s=s, k=3, M_list=(M,))
    assert cli._BASE_BYTES + config.row_bytes(M) >= peak_mib * 2**20


def test_benchmark_and_acceptance_rows_are_admitted(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [preset.run_config(M) for presets in workloads.WORKLOADS.values()
               for preset in presets for M in workloads.M_SWEEP]
    configs += [   # the sweeps of tests/test_acceptance.py
        cli.RunConfig(example=example, algorithm=algorithm, l=3, s=s, k=3,
                      M_list=(9, 10, 11, 12))
        for example in ("1", "2")
        for algorithm, s in [("two-grid", None), ("two-level", 4), ("two-level", 5),
                             ("two-level", 6)]
    ]
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    need = max(config.row_bytes(M) for config in configs for M in config.M_list)
    assert cli._BASE_BYTES + need < memory


@pytest.mark.parametrize("algorithm,s,error_against,meshes_per_row", [
    ("two-level", 4, "interpolant", 1),
    ("two-level", 4, "exact", 1),
    ("two-grid", None, "interpolant", 2),
])
def test_each_mesh_builds_its_affine_map_once_per_row(
        algorithm, s, error_against, meshes_per_row, monkeypatch):
    built = []
    compute = Mesh.affine.func

    def counted(mesh):
        built.append(mesh)
        return compute(mesh)

    affine = functools.cached_property(counted)
    affine.__set_name__(Mesh, "affine")
    monkeypatch.setattr(Mesh, "affine", affine)
    cli.run_experiment(cli.RunConfig(example="1", algorithm=algorithm, l=2, s=s, k=2,
                                     M_list=(2, 3), error_against=error_against))
    assert len(built) == 2 * meshes_per_row
    assert len({id(mesh) for mesh in built}) == len(built)


@pytest.mark.parametrize("algorithm,s,error_against", [
    ("two-level", 6, "interpolant"),
    ("two-grid", None, "exact"),
    ("galerkin", None, "interpolant"),
])
def test_no_quadrature_rule_is_built_once_rows_are_timed(
        algorithm, s, error_against, monkeypatch):
    """Every rule a row reads is built before the first time_run, so no
    row's cpu_seconds holds a rule's eigenvalue solve.  Built inside the
    timer, they took 1.7-2.6 ms of the first ex1 3->6 M=9 row of a process
    (38-45 ms, against 31-40 ms for its repeats), where criterion 7 reads
    its ratio."""
    build_quadrature.cache_clear()
    misses, timer = [], cli.time_run

    def time_run(procedure):
        misses.append(build_quadrature.cache_info().misses)
        result = timer(procedure)
        misses.append(build_quadrature.cache_info().misses)
        return result

    monkeypatch.setattr(cli, "time_run", time_run)
    cli.run_experiment(cli.RunConfig(example="1", algorithm=algorithm, l=3, s=s, k=2,
                                     M_list=(2, 3), error_against=error_against))
    assert len(misses) == 4
    assert build_quadrature.cache_info().misses == misses[0] > 0


@pytest.mark.parametrize("algorithm,s", [("two-level", 6), ("two-grid", None),
                                         ("galerkin", None)])
def test_no_reference_element_is_built_once_a_row_is_timed(algorithm, s, monkeypatch):
    """A row builds its elements with its spaces, before its timer starts,
    so run_experiment needs no element step of its own."""
    build_reference_element.cache_clear()
    misses, timer = [], cli.time_run

    def time_run(procedure):
        before = build_reference_element.cache_info().misses
        result = timer(procedure)
        misses.append(build_reference_element.cache_info().misses - before)
        return result

    monkeypatch.setattr(cli, "time_run", time_run)
    cli.run_experiment(cli.RunConfig(example="1", algorithm=algorithm, l=3, s=s, k=2,
                                     M_list=(2, 3)))
    assert misses == [0, 0]
    assert build_reference_element.cache_info().misses > 0


def test_round_count_is_bounded_except_for_galerkin():
    for algorithm, s in [("two-level", 2), ("two-grid", None)]:
        run = dict(example="1", algorithm=algorithm, l=1, s=s, M_list=(2,))
        cli.RunConfig(k=cli.MAX_ROUNDS, **run)
        with pytest.raises(cli.UsageError, match="iteration count"):
            cli.RunConfig(k=cli.MAX_ROUNDS + 1, **run)
    cli.RunConfig(example="1", algorithm="galerkin", l=1, s=None, k=10**12, M_list=(2,))


@pytest.mark.parametrize("p", [-285, 285])
def test_scale_exponent_at_the_float_range_edges(p, capsys):
    code, captured = run_main(
        ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "12",
         "--scale-exponent", str(p)],
        capsys,
    )
    assert code == 0
    assert 0.0 < float(captured.out.strip().split("\n")[1].split(",")[8]) < float("inf")


HUGE = "1000000000000"
BAD_INTS = ["0", "-1", HUGE, "x", "", "square"]


@st.composite
def run_argv(draw):
    """Run flags, each drawn from its valid values, weighted four to one,
    and its bad ones; None leaves an optional flag at its default and a
    required one missing.  Every run the CLI can accept stays tiny: M <= 3,
    degrees <= 3, k <= 3, two-grid fine M <= 9.  One draw in five asks for
    the DOF table instead, with its own --M and --degrees."""
    argv = []

    def option(flag, valid, bad):
        value = draw(st.sampled_from(valid * 4 + bad))
        if value is not None:
            argv.extend([flag, value])
        return value

    M_valid = ["1", "2", "3", "3,1", "3,2,", "2,,2"]
    M_bad = [None, "", ",", "0", "-1", "2,x", HUGE, "square"]
    if draw(st.integers(0, 4)) == 0:
        option("--M", M_valid, M_bad)
        option("--degrees", [None, "1", "3", "3,4,5,6", "6,1"],
               ["", ",", "0", "-1", "7", "3,7", "2.5", "x", HUGE, "3,3", "3,4,3"])
        option("--format", [None, "csv", "markdown"], ["xml"])
        return argv + ["--dof-table"]
    option("--algorithm", ["two-grid", "two-level", "galerkin", None], ["bogus"])
    option("--example", ["1", "2"], [None, "3", ""])
    option("--M", M_valid, M_bad)
    option("--l", [None, "1", "2"], BAD_INTS)
    option("--s", [None, "2", "3"], BAD_INTS)
    option("--k", [None, "1", "2", "3"], BAD_INTS)
    option("--fine-factor", [None, "2", "3", "square"], ["1", "0", "-1", HUGE, "x", ""])
    option("--scale-exponent", [None, "2", "-3"], ["-2000", *BAD_INTS])
    option("--solver", [None, "direct", "iterative"], ["cholesky"])
    option("--mesh-diagonal", [None, "up", "down"], ["left"])
    option("--error-against", [None, "interpolant", "exact"], ["nodal"])
    option("--format", [None, "csv", "markdown"], ["xml"])
    if draw(st.booleans()):
        argv.append("--parallel")
    return argv


def table_lines(text, output_format):
    """Header and body rows of a rendered table, as lists of cells."""
    lines = text.strip().split("\n")
    if output_format == "markdown":
        cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
        return cells[0], cells[2:]
    cells = [line.split(",") for line in lines]
    return cells[0], cells[1:]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=run_argv())
def test_parser_accepts_a_run_or_refuses_it_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("twolevelfem: error: ")
        assert err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
        return
    assert code in (0, 1)
    options = dict(zip(argv[::2], argv[1::2]))   # flags and values alternate
    header, body = table_lines(out.getvalue(), options.get("--format", "csv"))
    M_list = [int(M) for M in options["--M"].split(",") if M]
    if argv[-1] == "--dof-table":
        assert header[0] == "H" and len(set(header)) == len(header)
        assert [row[0] for row in body] == [f"1/{M}" for M in M_list]
        return
    assert header == cli.CSV_COLUMNS
    assert [int(row[0]) for row in body] == M_list


def test_readme_flags_table_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\nFlags:\n", 1)[1].strip().split("\n\n", 1)[0]
    documented = set(re.findall(r"^\| `(--[A-Za-z-]+)` \|", table, flags=re.MULTILINE))
    defined = {option for action in cli.build_parser()._actions
               for option in action.option_strings if option.startswith("--")}
    assert documented == defined - {"--help"}


def test_documented_command_lines_parse_into_a_run():
    """Every `twolevelfem ...` line of the README's command line section and
    of cli's docstring, its continuations joined, parses and builds the
    RunConfig that main would build (or the DOF table), without running a row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sources = [readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0], cli.__doc__]
    for text in sources:
        commands = re.findall(r"^\s*twolevelfem (--.*)$", text.replace("\\\n", " "),
                              flags=re.MULTILINE)
        assert commands
        for command in commands:
            args = cli.build_parser().parse_args(shlex.split(command))
            if args.dof_table:
                cli.dof_table(args.M_list, args.degrees)
            else:
                cli.RunConfig(**{f.name: getattr(args, f.name) for f in fields(cli.RunConfig)})


def test_readme_module_map_names_every_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Module map\n", 1)[1].strip().split("\n\n", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE))
    modules = {path.stem for path in Path(cli.__file__).parent.glob("*.py")}
    assert documented == modules - {"__init__"}


def test_readme_library_recipe_matches_the_cli_row():
    """The README's library code makes the same calls as a CLI row: its
    two-level block, run as written, reproduces the row's h1_error to the
    bit, and the blocks after it run too."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(blocks[0], namespace)
        fine, state, problem = namespace["fine"], namespace["state"], namespace["problem"]
        error = h1_distance(fine, state.current, interpolate(fine, problem.exact_u))
        [row] = cli.run_experiment(cli.RunConfig("1", "two-level", 3, 6, 3, (9,)))
        assert error == row.h1_error
        for block in blocks[1:]:
            exec(block, namespace)


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


BAD_PROBLEMS = [
    pytest.param("PROBLEM = (\n", [], "could not load", id="syntax-error"),
    pytest.param("import sys\nsys.exit(0)\n", [], "could not load: SystemExit: 0", id="exits"),
    pytest.param(BAD_PROBLEM.replace("np.zeros(np.shape(x) + (2,))", "np.zeros_like(x)"), [],
                 "beta returned shape", id="beta-shape"),
    pytest.param(BAD_PROBLEM.replace("f=lambda x, y: np.ones_like(x)",
                                     "f=lambda x, y: np.full_like(x, np.nan)"), [],
                 "f returned non-finite values", id="f-nan"),
    pytest.param(BAD_PROBLEM.replace("axis=-1)", "axis=0)"), ["--error-against", "exact"],
                 "exact_grad_u returned shape", id="exact-grad-shape"),
    pytest.param(BAD_PROBLEM.replace("return x * (1 - x) * y * (1 - y)",
                                     "return np.full_like(x, np.nan)"), [],
                 "exact_u returned non-finite values", id="exact-u-nan"),
    pytest.param(BAD_PROBLEM.replace("return x * (1 - x) * y * (1 - y)",
                                     "return np.stack([x, y])"), [],
                 "exact_u returned shape", id="exact-u-shape"),
    pytest.param(BAD_PROBLEM.replace("alpha=lambda x, y: np.ones_like(x)",
                                     "alpha=lambda x, y: 1 / 0"), [],
                 "alpha raised ZeroDivisionError", id="alpha-raises"),
]


@pytest.mark.parametrize("source, extra, message", BAD_PROBLEMS)
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


def test_what_a_problem_file_prints_while_loading_goes_to_stderr(tmp_path, capsys):
    """stdout carries the table alone: a file that prints, then defines
    PROBLEM, gives the same stdout as the file without the print."""
    argv = ["--algorithm", "galerkin", "--l", "1", "--M", "2"]
    path = tmp_path / "quiet.py"
    path.write_text(BAD_PROBLEM)
    code, quiet = run_main(["--example", str(path), *argv], capsys)
    path = tmp_path / "loud.py"
    path.write_text('print("loading")\n' + BAD_PROBLEM)
    loud_code, loud = run_main(["--example", str(path), *argv], capsys)
    assert code == loud_code == 0
    assert strip_cpu(loud.out) == strip_cpu(quiet.out)
    assert loud.err == "loading\n"


EXAMPLE_1_WITH_ALPHA = """
import dataclasses
import numpy as np
from twolevelfem.problems import example_1

PROBLEM = dataclasses.replace(example_1(), alpha=lambda x, y: {})
"""
NON_ELLIPTIC_ALPHAS = ["-np.ones_like(x)",
                       "np.broadcast_to(np.diag([1.0, -1.0]), np.shape(x) + (2, 2))"]


def test_alpha_needs_a_positive_definite_symmetric_part(tmp_path, capsys):
    """alpha = -1 and the symmetric indefinite diag(1, -1) are refused with
    exit 2 and no table; the nonsymmetric [[1, 1/2], [-1/2, 1]], whose
    symmetric part is I, gives example 1's operator and its row."""
    argv = ["--algorithm", "two-level", "--l", "3", "--s", "6", "--M", "4"]
    for alpha in NON_ELLIPTIC_ALPHAS:
        path = tmp_path / "alpha.py"
        path.write_text(EXAMPLE_1_WITH_ALPHA.format(alpha))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--example", str(path), *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "alpha's symmetric part is not positive definite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
    path.write_text(EXAMPLE_1_WITH_ALPHA.format(
        "np.broadcast_to([[1.0, 0.5], [-0.5, 1.0]], np.shape(x) + (2, 2))"))
    code, skew = run_main(["--example", str(path), *argv], capsys)
    assert code == 0
    _, plain = run_main(["--example", "1", *argv], capsys)
    [skew_row, plain_row] = [out.strip().split("\n")[1].split(",") for out in (skew.out, plain.out)]
    assert float(skew_row[7]) == pytest.approx(float(plain_row[7]), rel=1e-6)


COMPLEX_PROBLEM = """
import dataclasses
from twolevelfem.problems import example_1

BASE = example_1()
PROBLEM = dataclasses.replace(BASE, f=lambda x, y: (1 + 1j) * BASE.f(x, y))
"""


def test_complex_coefficient_values_exit_with_2(tmp_path, capsys):
    """A float cast keeps only the real part of a complex f, which would
    print example 1's row; the values are refused before any cast, also
    where the cast's ComplexWarning is not raised as an error."""
    path = tmp_path / "complex.py"
    path.write_text(COMPLEX_PROBLEM)
    with warnings.catch_warnings(), pytest.raises(SystemExit) as excinfo:
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        cli.main(["--example", str(path), "--algorithm", "galerkin", "--l", "2", "--M", "4"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "f returned complex values" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


PROBLEM_FILE = "<problem file>"   # replaced by the path of the test's problem file
GALERKIN_ROW = ["--algorithm", "galerkin", "--l", "1", "--M", "2"]


@pytest.mark.parametrize("source, argv", [
    *(pytest.param(None, argv, id=f"usage-{i}") for i, argv in enumerate(BAD_USAGE)),
    pytest.param(None, ["--example", "1", "--algorithm", "galerkin"], id="no-M"),
    pytest.param(None, ["--example", "1", "--algorithm", "galerkin", "--k", "x", "--M", "2"],
                 id="k-not-an-integer"),
    *(pytest.param(param.values[0], ["--example", PROBLEM_FILE, *GALERKIN_ROW, *param.values[1]],
                   id=param.id) for param in BAD_PROBLEMS),
    *(pytest.param(EXAMPLE_1_WITH_ALPHA.format(alpha),
                   ["--example", PROBLEM_FILE, "--algorithm", "two-level", "--l", "3", "--s", "6",
                    "--M", "4"], id=f"non-elliptic-alpha-{i}")
      for i, alpha in enumerate(NON_ELLIPTIC_ALPHAS)),
    pytest.param(COMPLEX_PROBLEM, ["--example", PROBLEM_FILE, *GALERKIN_ROW], id="complex-f"),
    pytest.param('raise ValueError("first line\\nsecond line")\n',
                 ["--example", PROBLEM_FILE, *GALERKIN_ROW], id="two-line-message"),
])
def test_every_refusal_is_one_error_line(tmp_path, capsys, source, argv):
    """Whether the command line or the problem file is at fault, exit 2
    prints exactly one line on stderr, a multi-line message folded into it,
    and nothing on stdout."""
    if source is not None:
        path = tmp_path / "problem.py"
        path.write_text(source)
        argv = [str(path) if arg == PROBLEM_FILE else arg for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("twolevelfem: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_help_prints_the_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: twolevelfem ")
    assert "(default square)" in captured.out and "(default 3,4,5,6)" in captured.out
    assert captured.err == ""


def test_parallel_rows_match_sequential(capsys):
    argv = ["--example", "1", "--algorithm", "two-level", "--l", "1", "--s", "2",
            "--k", "1", "--M", "2,3"]
    _, sequential = run_main(argv, capsys)
    _, parallel = run_main(argv + ["--parallel"], capsys)
    assert strip_cpu(parallel.out) == strip_cpu(sequential.out)
    # Parallel rows leave the timing column blank.
    for line in parallel.out.strip().split("\n")[1:]:
        assert line.endswith(",")


@pytest.mark.parametrize(
    "argv",
    [["--algorithm", "galerkin", "--l", "2"],
     ["--algorithm", "two-level", "--l", "2", "--s", "4"],
     ["--algorithm", "two-grid", "--l", "2", "--fine-factor", "2"]],
    ids=["galerkin", "two-level", "two-grid"],
)
def test_iterative_rows_match_direct_rows(argv, capsys):
    """--solver iterative runs the whole iteration on GMRES and must print
    the direct path's errors."""
    argv = ["--example", "1", *argv, "--M", "3,4"]
    errors = {}
    for solver in ["direct", "iterative"]:
        code, captured = run_main([*argv, "--solver", solver], capsys)
        assert code == 0
        header, body = table_lines(captured.out, "csv")
        errors[solver] = [float(row[header.index("h1_error")]) for row in body]
    assert len(errors["direct"]) == 2
    assert errors["iterative"] == pytest.approx(errors["direct"], rel=1e-6)


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
    for extra in [[], ["--parallel"]]:
        code, captured = run_main(
            ["--example", "1", "--algorithm", "galerkin", "--l", "1", "--M", "2", *extra],
            capsys,
        )
        assert code == 1
        assert "M=2 failed" in captured.err
        cells = captured.out.strip().split("\n")[1].split(",")
        assert cells[7] == "nan" and cells[8] == "nan"
        assert cells[9] == ""


def test_row_whose_error_is_not_finite_is_marked(tmp_path, capsys):
    """f = 1e308 gives a solution whose H1 norm overflows: the row is marked
    like a failed solve, with a warning, and the exit status is 1."""
    path = tmp_path / "huge.py"
    path.write_text(BAD_PROBLEM.replace("f=lambda x, y: np.ones_like(x)",
                                        "f=lambda x, y: np.full_like(x, 1e308)"))
    code, captured = run_main(["--example", str(path), "--algorithm", "galerkin",
                               "--l", "2", "--M", "3"], capsys)
    assert code == 1
    assert "M=3 failed: the H1 error of the solution is inf\n" in captured.err
    assert captured.out.strip().split("\n")[1].split(",")[7:] == ["nan", "nan", ""]


@pytest.mark.parametrize("replace, extra, code, line", [
    (("f=lambda x, y: np.ones_like(x)", "f=lambda x, y: np.full_like(x, 1e308)"),
     ["--M", "3"], 1, "warning: M=3 failed: the H1 error of the solution is inf"),
    (("alpha=lambda x, y: np.ones_like(x)", "alpha=lambda x, y: 1 + np.log(x - 0.5)"),
     ["--M", "3"], 2, "twolevelfem: error: alpha returned non-finite values"),
    (("alpha=lambda x, y: np.ones_like(x)", "alpha=lambda x, y: 1 + np.log(x - 0.5)"),
     ["--M", "3,4", "--parallel"], 2, "twolevelfem: error: alpha returned non-finite values"),
], ids=["overflow-marked", "log-refused", "log-refused-parallel"])
def test_numpy_faults_leave_one_stderr_line(tmp_path, replace, extra, code, line):
    """An overflow in the H1 norm, or a log of a negative number in alpha,
    ends in the one line of a marked row or of a refusal, with no numpy
    RuntimeWarning before it.  pytest records warnings instead of printing
    them, so only a fresh interpreter shows what reaches stderr."""
    path = tmp_path / "problem.py"
    path.write_text(BAD_PROBLEM.replace(*replace))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "twolevelfem.cli", "--example", str(path),
                          "--algorithm", "galerkin", "--l", "2", *extra],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stderr) == (code, line + "\n")


PROBE_PROBLEM = """
import numpy as np
from twolevelfem import ProblemSpec

GAMMA, BETA = {}, {}

def u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)

def grad_u(x, y):
    return np.pi * np.stack([np.cos(np.pi * x) * np.sin(np.pi * y),
                             np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)

PROBLEM = ProblemSpec(
    alpha=lambda x, y: np.ones_like(x),
    beta=lambda x, y: np.stack([np.full_like(x, BETA), np.zeros_like(x)], axis=-1),
    gamma=lambda x, y: np.full_like(x, GAMMA),
    f=lambda x, y: (2 * np.pi**2 + GAMMA) * u(x, y) + BETA * grad_u(x, y)[..., 0],
    exact_u=u, exact_grad_u=grad_u,
)
"""


@pytest.mark.parametrize("gamma, beta, M, history", [
    (-200, 300, 2, "1.33e+01"),
    (-200, 300, 8, "1.34e+00"),
    (-1000, 0, 8, "3.48e-02, 2.48e-02, 1.46e-01"),
    (-200, 0, 8, "4.59e-02, 7.82e-03, 8.50e-03"),
], ids=["gamma-200-beta300-M2", "gamma-200-beta300-M8", "gamma-1000-M8", "gamma-200-M8"])
def test_rows_whose_rounds_do_not_contract_are_marked(tmp_path, capsys, gamma, beta, M, history):
    """alpha = 1, u = sin(pi x) sin(pi y), two-level 1->3, k = 3: the coarse
    mesh is too coarse for these reactions and convections, and the fine
    residual grows or stalls (H1 errors 2.8e5, 1.2e4, 3.97 and 0.50 at k = 3
    against a solution of H1 norm 2.28).  The row is marked, the warning
    lists the relative fine residual of each round, and the exit status is 1."""
    path = tmp_path / "probe.py"
    path.write_text(PROBE_PROBLEM.format(gamma, beta))
    code, captured = run_main(["--example", str(path), "--algorithm", "two-level", "--l", "1",
                               "--s", "3", "--k", "3", "--M", str(M)], capsys)
    assert code == 1
    assert (f"M={M} failed: the correction rounds do not contract: relative fine "
            f"residual by round {history}\n") in captured.err
    assert captured.out.strip().split("\n")[1].split(",")[7:] == ["nan", "nan", ""]


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
