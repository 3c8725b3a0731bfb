import xml.etree.ElementTree as ET

import pytest

from gpscale import harness, pool
from gpscale.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_express_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "express", "--problem", "order", "--l", "4",
        "(JOIN (JOIN ~X3 X1) (JOIN (JOIN ~X1 ~X2) (JOIN X4 ~X3)))",
    )
    assert code == 0
    lines = out.splitlines()
    assert "leaves=~X3 X1 ~X1 ~X2 X4 ~X3" in lines
    assert "expressed=X1 ~X2 ~X3 X4" in lines
    assert "bits=1001" in lines
    assert "fitness=2.0" in lines


def test_express_neg_join_and_junk(capsys):
    code, out, _ = run_cli(
        capsys,
        "express", "--problem", "order", "--l", "2", "--neg-join", "--junk", "1",
        "(NEG_JOIN (JOIN ~X1 J1) X2)",
    )
    assert code == 0
    assert "bits=10" in out.splitlines()
    assert "fitness=1.0" in out.splitlines()


def test_express_trap_fitness(capsys):
    code, out, _ = run_cli(
        capsys,
        "express", "--problem", "trap", "--l", "3", "--k", "3", "--delta", "0.25",
        "(JOIN X1 (JOIN X2 X3))",
    )
    assert code == 0
    assert "fitness=1.0" in out.splitlines()


def test_express_parses_a_tree_nested_past_the_recursion_limit(capsys):
    depth = 5_000
    text = "(JOIN " * depth + "X1" + " X1)" * depth
    code, out, _ = run_cli(capsys, "express", "--l", "1", text)
    assert code == 0
    assert "bits=1" in out.splitlines()


def test_express_rejects_symbols_outside_the_instance(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "express", "--problem", "order", "--l", "2", "(JOIN X1 X9)")
    assert exc.value.code == 2


def test_run_gp_trivial_success(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--algo", "gp", "--problem", "order", "--l", "1",
        "--pop", "16", "--seed", "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert "success=true" in lines
    assert "evaluations=16" in lines
    assert "generations_used=0" in lines
    assert "best_fitness=1.0" in lines


def test_run_exit_code_on_failure(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--algo", "gp", "--problem", "order", "--l", "5",
        "--pop", "8", "--seed", "0", "--max-gens", "0",
    )
    assert code == 1
    assert "success=false" in out.splitlines()


def test_run_pipe_with_model_dump(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--algo", "pipe", "--problem", "order", "--l", "3",
        "--pop", "32", "--seed", "5", "--dump-model",
    )
    assert code == 0
    if "generations_used=0" not in out.splitlines():
        assert any(line.startswith("/: {") for line in out.splitlines())


def test_run_rejects_odd_population(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", "--algo", "gp", "--problem", "order", "--l", "2",
                "--pop", "7")
    assert exc.value.code == 2


def test_run_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "run", "--algo", "gp", "--l", "2", "--pop", "8", "--frobnicate")
    assert exc.value.code == 2


def test_bisect_prints_probe_history_and_result(capsys):
    code, out, _ = run_cli(
        capsys,
        "bisect", "--algo", "gp", "--problem", "order", "--l", "1",
        "--runs", "5", "--seed", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("probe pop_size=16 ") for line in lines)
    assert any(line.startswith("min_pop_size=") for line in lines)
    assert "runs=5" in lines


def test_bisect_reports_sizing_failure_with_exit_1(capsys):
    code, out, err = run_cli(
        capsys,
        "bisect", "--algo", "gp", "--problem", "trap", "--l", "33",
        "--delta", "1.0", "--runs", "3", "--pop-ceiling", "64", "--seed", "0",
    )
    assert code == 1
    assert "sizing_failed=true" in out.splitlines()
    assert "error:" in err


def test_sweep_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--plan", "order", "--sizes", "2,3", "--algo", "both",
        "--runs", "5", "--seed", "1", "--out", str(out_dir),
    )
    assert code == 0
    csv_path = out_dir / "order.csv"
    svg_path = out_dir / "order.svg"
    assert csv_path.exists() and svg_path.exists()
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 1 + 4  # header + 2 algorithms x 2 sizes
    ET.parse(svg_path)  # well-formed XML
    assert out.count("row algorithm=") == 4


def test_sweep_single_algorithm_and_size_override(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--plan", "order", "--sizes", "2", "--algo", "gp",
        "--runs", "4", "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "order.csv").read_text().count("\n") == 2


def test_sweep_exit_1_when_a_cell_hits_the_ceiling(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--plan", "trap", "--sizes", "33", "--algo", "gp",
        "--runs", "3", "--pop-ceiling", "64", "--out", str(tmp_path),
    )
    assert code == 1
    body = (tmp_path / "trap.csv").read_text().splitlines()[1]
    assert body.split(",")[10] != "1.0"  # success_rate column flags the abort


def test_sweep_rejects_bad_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--plan", "order", "--sizes", "2;3", "--out", "/tmp/x")
    assert exc.value.code == 2


def _stub_sweep(calls):
    """Stand-in for ``harness.scalability_sweep``: one row per cell, and every
    cell of the trap plan flagged."""

    def sweep(plan, *, workers=1, log=None):
        calls.append((plan, workers))
        rate = 0.5 if plan.name == "trap" else 1.0
        return [
            harness.SweepRow(spec.algorithm, spec.problem, spec.l, spec.num_junk,
                             spec.neg_join, spec.k, spec.delta, spec.resolved_max_depth(),
                             64, 100.0, rate, spec.seed_base)
            for spec in plan.rows
        ]

    return sweep


def test_sweep_plan_all_sizes_every_plan_with_the_cli_arguments(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "scalability_sweep", _stub_sweep(calls))
    code, out, _ = run_cli(
        capsys,
        "sweep", "--plan", "all", "--algo", "gp", "--sizes", "15,30", "--k", "5",
        "--delta", "0.5", "--runs", "4", "--seed", "3", "--max-gens", "50",
        "--pop-ceiling", "128", "--workers", "2", "--out", str(tmp_path),
    )
    assert code == 1  # the trap plan has flagged cells
    expected = [
        harness.build_plan(name, algorithms=("gp",), sizes=(15, 30), k=5, delta=0.5,
                           seed_base=3, n_runs=4, max_generations=50, ceiling=128)
        for name in harness.PLAN_NAMES
    ]
    assert calls == [(plan, 2) for plan in expected]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(
        f"{name}.csv" for name in harness.PLAN_NAMES
    )
    assert out.count("wrote ") == 2 * len(harness.PLAN_NAMES)


def test_sweep_plan_all_rejects_a_size_of_any_plan_before_running(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(harness, "scalability_sweep", _stub_sweep(calls))
    with pytest.raises(SystemExit) as exc:  # 7 is not divisible by the trap's k=3
        run_cli(capsys, "sweep", "--plan", "all", "--sizes", "7", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert calls == []
    assert not list(tmp_path.iterdir())


def test_sweep_plan_all_names_the_plan_that_rejects_a_size(tmp_path, capsys, monkeypatch):
    runs = _stub_runs(monkeypatch)
    out_dir = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:  # 10 suits order but not the trap's k=3
        run_cli(capsys, "sweep", "--plan", "all", "--sizes", "10", "--out", str(out_dir))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: gpscale sweep" in err
    assert "plan trap" in err
    assert runs == []
    assert not out_dir.exists()


def _stub_sizing(problem, algo, seed_base=0, **kwargs):
    """Stand-in for ``harness.bisect_population_size``: a fixed sizing per cell."""
    size = 16 * problem.primitives.num_pairs
    return harness.SizingResult(size, size + seed_base % 97, (), ((size, True),))


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_sweep_plan_all_runs_every_plan_on_one_pool(
    workers, pools, tmp_path, capsys, monkeypatch
):
    opened = []

    class CountingPool(pool.WorkerPool):
        def __init__(self, workers):
            opened.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(pool, "WorkerPool", CountingPool)
    monkeypatch.setattr(harness, "bisect_population_size", _stub_sizing)
    code, _, _ = run_cli(
        capsys,
        "sweep", "--plan", "all", "--sizes", "15", "--runs", "2",
        "--workers", str(workers), "--out", str(tmp_path / "all"),
    )
    assert code == 0
    assert opened == [workers] * pools
    for name in harness.PLAN_NAMES:  # each plan swept on its own
        plan = harness.build_plan(name, sizes=(15,), n_runs=2)
        rows = harness.scalability_sweep(plan, workers=workers)
        harness.emit_report(rows, tmp_path / "own", plan.name, plan.x_field)
        csv_name = f"{name}.csv"
        assert (tmp_path / "all" / csv_name).read_bytes() == (
            tmp_path / "own" / csv_name
        ).read_bytes()


def test_cli_stdout_is_deterministic(tmp_path, capsys):
    argv = ["sweep", "--plan", "order", "--sizes", "2,3", "--algo", "gp",
            "--runs", "4", "--seed", "9", "--out", str(tmp_path / "a")]
    code1, out1, _ = run_cli(capsys, *argv)
    argv[-1] = str(tmp_path / "b")
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.replace(str(tmp_path / "a"), "") == out2.replace(str(tmp_path / "b"), "")
    assert (tmp_path / "a" / "order.csv").read_bytes() == (
        tmp_path / "b" / "order.csv"
    ).read_bytes()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("run", "bisect", "sweep", "express"):
        assert sub in out


def _stub_runs(monkeypatch):
    """Replace both engines behind ``harness.run_algorithm``, which every
    command runs through, with a stub; the list of runs it started."""
    runs = []
    for name in ("run_gp", "run_pipe"):
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: runs.append(args))
    return runs


@pytest.mark.parametrize("argv", [
    ["bisect", "--pop-ceiling", "8"],
    ["bisect", "--max-gens", "-1"],
    ["bisect", "--max-depth", "-1"],
    ["bisect", "--runs", "0"],
    ["bisect", "--workers", "0"],
    ["sweep", "--pop-ceiling", "8"],
    ["sweep", "--runs", "0"],
    ["sweep", "--workers", "0"],
    ["sweep", "--max-gens", "-1"],
    ["sweep", "--plan", "trap", "--k", "0"],
    ["sweep", "--plan", "trap", "--k", "1"],
    ["sweep", "--plan", "trap", "--delta", "2"],
    ["sweep", "--plan", "order", "--sizes", "3,0"],
    ["sweep", "--sizes", ","],
    ["sweep", "--seed", "-1"],
    ["run", "--pop", "3"],
    ["run", "--seed", "-5"],
    ["run", "--pop", "8", "--dump-model"],
    ["run", "--pop", "8", "--max-depth", "1"],
    ["bisect", "--max-depth", "1"],
    ["bisect", "--problem", "trap", "--l", "7"],
    ["express", "--l", "2", "(JOIN X1 X9)"],
], ids=" ".join)
def test_out_of_range_flags_are_usage_errors_before_any_run(
    argv, tmp_path, capsys, monkeypatch
):
    runs = _stub_runs(monkeypatch)
    out_dir = tmp_path / "results"
    required = {  # the case's own flags come later, so they win
        "run": ["--algo", "gp", "--l", "3"],
        "bisect": ["--algo", "gp", "--l", "3"],
        "sweep": ["--out", str(out_dir)],
        "express": [],
    }[argv[0]]
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, argv[0], *required, *argv[1:])
    assert exc.value.code == 2
    assert f"usage: gpscale {argv[0]}" in capsys.readouterr().err
    assert runs == []
    assert not out_dir.exists()


def test_sweep_out_that_is_a_file_is_a_usage_error_before_any_run(
    tmp_path, capsys, monkeypatch
):
    runs = _stub_runs(monkeypatch)
    out_file = tmp_path / "results"
    out_file.write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--plan", "order", "--sizes", "3", "--runs", "2",
                "--out", str(out_file))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage: gpscale sweep" in captured.err
    assert "row " not in captured.out
    assert runs == []
    assert out_file.read_text() == "not a directory\n"
