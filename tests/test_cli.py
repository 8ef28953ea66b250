import re

import pytest

from dismantle import load_results, read_edgelist
from dismantle.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_c5(tmp_path):
    p = tmp_path / "c5.el"
    p.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    return str(p)


def test_gen_path(tmp_path, capsys):
    out = tmp_path / "p5.el"
    code, stdout, _ = run(capsys, "gen", "--model", "path", "--n", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "5 4"
    assert len(lines) == 5
    assert "wrote" in stdout


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    run(capsys, "gen", "--model", "gnp", "--n", "200", "--c", "2", "--seed", "7", "--out", str(a))
    run(capsys, "gen", "--model", "gnp", "--n", "200", "--c", "2", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_model_parameter(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--model", "gnp", "--n", "10", "--out", str(tmp_path / "x.el"))
    assert code == 1 and "requires --c" in err


def test_gen_regular_odd_product_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--model", "regular", "--n", "5", "--d", "3",
                       "--out", str(tmp_path / "x.el"))
    assert code == 2 and "even" in err


def test_exact_c5_independence(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exact", "--in", write_c5(tmp_path), "--k", "1")
    assert code == 0
    assert stdout.strip() == "N=2"


def test_exact_forest_flag(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exact", "--in", write_c5(tmp_path), "--forest")
    assert code == 0 and stdout.strip() == "N=4"


def test_exact_flag_exclusivity(tmp_path, capsys):
    code, _, err = run(capsys, "exact", "--in", write_c5(tmp_path))
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "exact", "--in", write_c5(tmp_path), "--k", "1", "--forest")
    assert code == 1


def test_exact_oracle_limit_exit_2(tmp_path, capsys):
    big = tmp_path / "big.el"
    edges = [(i, i + 1) for i in range(24)]
    big.write_text("25 24\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, _, err = run(capsys, "exact", "--in", str(big), "--k", "2")
    assert code == 2 and "oracle limit" in err


def test_fragment_round_trip(tmp_path, capsys):
    gfile = tmp_path / "g.el"
    run(capsys, "gen", "--model", "gnp", "--n", "300", "--c", "2", "--seed", "3",
        "--out", str(gfile))
    g = read_edgelist(gfile)
    code, stdout, _ = run(capsys, "fragment", "--in", str(gfile), "--cap", "3",
                          "--method", "greedy")
    assert code == 0
    *removed_lines, summary = stdout.strip().splitlines()
    match = re.fullmatch(r"nu=([0-9.eE+-]+) max_component=(\d+)", summary)
    assert match
    removed = [int(x) for x in removed_lines]
    assert int(match.group(2)) <= 3
    kept = set(range(g.n)) - set(removed)
    assert float(match.group(1)) == pytest.approx(len(kept) / g.n, abs=1e-8)


def test_fragment_forest_method(tmp_path, capsys):
    pfile = tmp_path / "p.el"
    run(capsys, "gen", "--model", "path", "--n", "9", "--out", str(pfile))
    code, stdout, _ = run(capsys, "fragment", "--in", str(pfile), "--cap", "2",
                          "--method", "forest")
    assert code == 0
    assert stdout.strip().splitlines()[-1].startswith("nu=")


def test_fragment_forest_on_cyclic_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "fragment", "--in", write_c5(tmp_path), "--cap", "2",
                       "--method", "forest")
    assert code == 2 and "not a forest" in err


def test_fragment_pipeline_needs_eps(tmp_path, capsys):
    code, _, err = run(capsys, "fragment", "--in", write_c5(tmp_path),
                       "--method", "pipeline")
    assert code == 1 and "--eps" in err
    code, stdout, _ = run(capsys, "fragment", "--in", write_c5(tmp_path),
                          "--method", "pipeline", "--eps", "0.5")
    assert code == 0
    assert stdout.strip().splitlines()[-1] == "nu=0.8 max_component=4"


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "fragment", "--in", str(tmp_path / "nope.el"),
                       "--cap", "2", "--method", "greedy")
    assert code == 3


def test_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 zz\n")
    code, _, err = run(capsys, "exact", "--in", str(bad), "--k", "1")
    assert code == 3 and "format error" in err


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "gen", "--model", "path", "--n", "5", "--frobnicate", "x")
    assert code == 1


def test_unknown_command_exits_1(capsys):
    code, _, _ = run(capsys, "shatter")
    assert code == 1


def test_curve_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "120",
                          "--grid", "1,2,4", "--reps", "3", "--seed", "5",
                          "--method", "greedy", "--out", str(out))
    assert code == 0
    est = load_results(out)
    assert est.grid_kind == "k"
    assert [p.grid_value for p in est.points] == [1, 2, 4]
    assert all(len(p.values) == 3 for p in est.points)
    assert len(stdout.strip().splitlines()) == 3  # one summary line per grid point


def test_curve_x_grid_inferred(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, _ = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "60",
                     "--grid", "0.5,1.0", "--reps", "2", "--out", str(out))
    assert code == 0
    assert load_results(out).grid_kind == "x"


def test_curve_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--model", "gnp", "--c", "2", "--n", "80", "--grid", "2,4",
            "--reps", "2", "--seed", "1", "--method", "greedy"]
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_curve_exact_limit_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "100",
                       "--grid", "2", "--reps", "2", "--method", "exact",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_curve_bad_grid_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "50",
                       "--grid", "a,b", "--reps", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "50",
                       "--grid", "2", "--reps", "2", "--jobs", jobs,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "--jobs" in err
    assert not (tmp_path / "x.csv").exists()
    code, _, err = run(capsys, "demo", "--c", "2", "--eps", "0.5", "--n", "50",
                       "--reps", "2", "--jobs", jobs)
    assert code == 1 and "--jobs" in err


def test_verify_claim_k4(tmp_path, capsys):
    k4 = tmp_path / "k4.el"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, stdout, _ = run(capsys, "verify-claim", "--in", str(k4), "--eps", "0.3",
                          "--tmax", "4")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "violation size=4 edges=6 vertices=0,1,2,3"
    assert re.fullmatch(r"violations=1 sets_examined=\d+", lines[-1])


def test_delta_output(capsys):
    code, stdout, _ = run(capsys, "delta", "--c", "2", "--eps", "0.5")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(l.startswith("candidate ") for l in lines[:-1])
    final = lines[-1]
    match = re.fullmatch(r"delta=([0-9.eE+-]+)", final)
    assert match and 0 < float(match.group(1)) < 0.5 / 3


def test_delta_subcritical_exits_2(capsys):
    code, _, err = run(capsys, "delta", "--c", "0.9", "--eps", "0.5")
    assert code == 2


def test_demo_output(capsys):
    code, stdout, _ = run(capsys, "demo", "--c", "2", "--eps", "0.5", "--n", "600",
                          "--reps", "3", "--seed", "2")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("delta=")
    assert len([l for l in lines if l.startswith("replicate=")]) == 3
    match = re.fullmatch(r"pass_fraction=([0-9.eE+-]+)", lines[-1])
    assert match and float(match.group(1)) == 1.0
