import importlib
import pkgutil
import re

import pytest

import dismantle
from dismantle import (
    cli,
    experiments,
    fragment_forest,
    greedy_fragment,
    load_results,
    pipeline_fragment,
    random_tree,
    read_edgelist,
    write_edgelist,
)
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
    code, _, err = run(capsys, "gen", "--model", "regular", "--n", "10", "--out", str(tmp_path / "x.el"))
    assert code == 1 and "requires --d" in err
    assert not (tmp_path / "x.el").exists()


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


@pytest.mark.parametrize("method", ["greedy", "forest"])
def test_fragment_cap_methods_need_cap(tmp_path, capsys, method):
    code, _, err = run(capsys, "fragment", "--in", write_c5(tmp_path), "--method", method)
    assert code == 1 and err == f"error: {method} method requires --cap\n"


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "fragment", "--in", str(tmp_path / "nope.el"),
                       "--cap", "2", "--method", "greedy")
    assert code == 3


def test_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 zz\n")
    code, _, err = run(capsys, "exact", "--in", str(bad), "--k", "1")
    assert code == 3 and "format error" in err


def test_vertex_count_past_int64_keys_exits_3(tmp_path, capsys):
    bad = tmp_path / "big.el"
    bad.write_text("9223372036854775808 0\n")
    code, out, err = run(capsys, "fragment", "--in", str(bad), "--method", "greedy", "--cap", "2")
    assert code == 3 and out == ""
    assert err.startswith("format error: ") and err.count("\n") == 1


def test_non_ascii_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"3 1\n0 \xff1\n")
    code, _, err = run(capsys, "fragment", "--in", str(bad), "--method", "greedy", "--cap", "2")
    assert code == 3 and err == "format error: line 2: non-ASCII byte\n"


@pytest.mark.parametrize("method,value", [("greedy", 3), ("forest", 50), ("forest", 60),
                                          ("pipeline", 0.5)])
def test_fragment_prints_each_removal_then_the_summary(tmp_path, capsys, method, value):
    p = tmp_path / "t.el"
    write_edgelist(random_tree(60, 4), p)
    option = "--eps" if method == "pipeline" else "--cap"
    code, stdout, _ = run(capsys, "fragment", "--in", str(p), "--method", method, option, str(value))
    g = read_edgelist(p)
    fragment = {"greedy": greedy_fragment, "forest": fragment_forest,
                "pipeline": lambda g, eps: pipeline_fragment(g, range(g.n), eps)}[method]
    res = fragment(g, value)
    assert code == 0
    assert stdout == "".join(f"{v}\n" for v in res.removed) + (
        f"nu={experiments._fmt9(res.nu)} max_component={res.max_component}\n")


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


@pytest.mark.parametrize("grid", ["4,4,8", "4,4", "0.1,0.1000000001,0.5"])
def test_curve_repeated_grid_exits_2(tmp_path, capsys, monkeypatch, grid):
    # the CSV would hold two grid values written alike, which does not load
    # back; the run is refused before any replicate is estimated
    def replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "_replicate_rows", replicate)
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "200",
                       "--grid", grid, "--reps", "2", "--out", str(out))
    assert code == 2 and "repeat" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "curve --model gnp --c 50 --n 20 --grid 4 --reps 1 --out {out}",
    "demo --c 50 --eps 0.5 --n 20 --reps 1",
])
def test_c_above_n_exits_2_before_any_replicate(tmp_path, capsys, monkeypatch, argv):
    def replicates(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(experiments, "_replicate_map", replicates)
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, *argv.format(out=out).split())
    assert code == 2 and stdout == "" and err == "infeasible: c out of range: 50.0\n"
    assert not out.exists()


def test_curve_bad_grid_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "50",
                       "--grid", "a,b", "--reps", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    code, _, err = run(capsys, "curve", "--model", "gnp", "--c", "2", "--n", "50",
                       "--grid", ",", "--reps", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err == "error: empty --grid\n"


def test_curve_requires_model_parameter(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, "curve", "--model", "gnp", "--n", "50", "--grid", "2",
                       "--reps", "2", "--out", str(out))
    assert code == 1 and "requires --c" in err
    code, _, err = run(capsys, "curve", "--model", "regular", "--n", "50", "--grid", "2",
                       "--reps", "2", "--out", str(out))
    assert code == 1 and "requires --d" in err
    assert not out.exists()


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


def test_two_jobs_print_what_one_job_prints(tmp_path, capsys):
    curve = ["curve", "--model", "gnp", "--c", "2", "--n", "80", "--grid", "2,4",
             "--reps", "3", "--seed", "1"]
    demo = ["demo", "--c", "2", "--eps", "0.5", "--n", "80", "--reps", "3", "--seed", "1"]
    one = run(capsys, *curve, "--out", str(tmp_path / "1.csv"), "--jobs", "1")
    two = run(capsys, *curve, "--out", str(tmp_path / "2.csv"), "--jobs", "2")
    assert one == two and one[0] == 0
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    one, two = run(capsys, *demo, "--jobs", "1"), run(capsys, *demo, "--jobs", "2")
    assert one == two and one[0] == 0


def test_verify_claim_k4(tmp_path, capsys):
    k4 = tmp_path / "k4.el"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, stdout, _ = run(capsys, "verify-claim", "--in", str(k4), "--eps", "0.3",
                          "--tmax", "4")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "violation size=4 edges=6 vertices=0,1,2,3"
    assert re.fullmatch(r"violations=1 sets_examined=\d+", lines[-1])


def test_verify_claim_deep_sets(tmp_path, capsys):
    # K4 plus a 1,000-vertex path from vertex 3: sets reach 1,004 vertices deep
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(v, v + 1) for v in range(3, 1003)]
    gfile = tmp_path / "tail.el"
    gfile.write_text(f"1004 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, stdout, _ = run(capsys, "verify-claim", "--in", str(gfile), "--eps", "0.5",
                          "--tmax", "1004")
    assert code == 0
    assert stdout.strip().splitlines()[-1] == "violations=8 sets_examined=383265"


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


@pytest.mark.parametrize("argv", [
    "delta --c 2 --eps 0.0001",
    "demo --c 2 --eps 0.0001 --n 100 --reps 1",
])
def test_underflowing_delta_exits_2(capsys, argv):
    # the sweep stops at the first candidate delta that underflows to zero
    code, stdout, err = run(capsys, *argv.split())
    assert code == 2 and stdout == ""
    assert err == "infeasible: admissible delta underflows double precision for c=2.0, eps=0.0001\n"


# main's documented exit code for each exception class the package defines;
# a new class fails test_every_package_exception_has_an_exit_code until listed
EXIT_CODES = {
    "UsageError": 1,
    "EnumerationBudgetError": 2,
    "PipelineBudgetError": 2,
    "SamplingBudgetError": 2,
    "EdgeListFormatError": 3,
    "ResultsFormatError": 3,
}
PREFIXES = {1: "error: ", 2: "infeasible: ", 3: "format error: "}


def package_exceptions():
    found = {}
    for info in pkgutil.iter_modules(dismantle.__path__):
        module = importlib.import_module(f"dismantle.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


def test_every_package_exception_has_an_exit_code():
    assert sorted(package_exceptions()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", [*sorted(EXIT_CODES), "MemoryError"])
def test_main_maps_each_exception_to_its_exit_code(tmp_path, capsys, monkeypatch, name):
    # raised from the callee that reads the edge list; a traceback fails the call
    exc = MemoryError if name == "MemoryError" else package_exceptions()[name]

    def read_edgelist(path):
        raise exc("boom")

    monkeypatch.setattr(cli, "read_edgelist", read_edgelist)
    code, stdout, err = run(capsys, "fragment", "--in", str(tmp_path / "g.el"),
                            "--method", "greedy", "--cap", "2")
    expected = EXIT_CODES.get(name, 2)
    assert code == expected and stdout == ""
    assert err.splitlines() == [err.rstrip("\n")] and err.startswith(PREFIXES[expected])
    assert "boom" in err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # an edge-list header declaring 3e9 vertices fails to allocate; the
    # failure is raised here rather than allocated, which on a host with
    # heuristic overcommit could be let through and thrash instead
    def read_edgelist(path):
        raise MemoryError

    monkeypatch.setattr(cli, "read_edgelist", read_edgelist)
    for argv in (["fragment", "--in", "g.el", "--method", "greedy", "--cap", "2"],
                 ["verify-claim", "--in", "g.el", "--eps", "0.5", "--tmax", "4"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and err == "infeasible: out of memory\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    "gen --model gnp --n 50 --c {} --out {tmp}/g.el",
    "fragment --in {c5} --method pipeline --eps {}",
    "curve --model gnp --c {} --n 30 --grid 4 --reps 1 --out {tmp}/o.csv",
    "curve --model gnp --c 2 --n 30 --grid {} --reps 1 --out {tmp}/o.csv",
    "verify-claim --in {c5} --eps {} --tmax 4",
    "delta --c {} --eps 0.5",
    "delta --c 2 --eps {}",
    "demo --c {} --eps 0.5 --n 50 --reps 1",
    "demo --c 2 --eps {} --n 50 --reps 1",
])
def test_non_finite_float_options_exit_cleanly(tmp_path, capsys, argv, value):
    # main returns a code for every failure it expects, so a traceback fails the call
    c5 = write_c5(tmp_path)
    code, _, err = run(capsys, *(a.format(value, tmp=tmp_path, c5=c5) for a in argv.split()))
    if value == "nan" or code != 0:  # inf may be in range, as for verify-claim --eps
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("infeasible:")
        assert value in err.removeprefix("infeasible:")  # the message names the value


def test_demo_output(capsys):
    code, stdout, _ = run(capsys, "demo", "--c", "2", "--eps", "0.5", "--n", "600",
                          "--reps", "3", "--seed", "2")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("delta=")
    assert len([l for l in lines if l.startswith("replicate=")]) == 3
    match = re.fullmatch(r"pass_fraction=([0-9.eE+-]+)", lines[-1])
    assert match and float(match.group(1)) == 1.0
