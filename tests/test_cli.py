import csv
import hashlib
import math
import re
import shlex
from pathlib import Path

import pytest

from onoffchain import cli, core, frozen


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands() -> list[list[str]]:
    """The argument lists of the ``onoffchain`` lines in README's "Command
    line" block, trailing comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("onoffchain ")]


class TestSpecParsing:
    def test_rate_grammar(self):
        assert cli.parse_rates("const:2.5").family == core.CONSTANT
        assert cli.parse_rates("linear:1").rate(3) == 3.0
        fam = cli.parse_rates("logfam:2.0,0.5")
        assert (fam.theta0, fam.alpha) == (2.0, 0.5)
        assert cli.parse_rates("logsq").family == core.LOG_SQUARE
        assert cli.parse_rates("explicit:1,2,3").values == (1.0, 2.0, 3.0)

    def test_rate_grammar_rejections(self):
        with pytest.raises(cli.UsageError, match="unknown rate family"):
            cli.parse_rates("cubic:1")
        with pytest.raises(cli.UsageError, match="linear:-1"):
            cli.parse_rates("linear:-1")
        with pytest.raises(cli.UsageError):
            cli.parse_rates("explicit:1,zero")

    def test_input_grammar(self, tmp_path):
        assert cli.parse_input("permanent").is_permanent
        assert cli.parse_input("exp:2").rate == 2.0
        assert cli.parse_input("det:0.5").duration == 0.5
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n2.5\n")
        emp = cli.parse_input(f"empirical:{path}")
        assert list(emp.samples) == [1.0, 2.5]
        with pytest.raises(cli.UsageError, match="unknown input kind"):
            cli.parse_input("poisson:3")

    def test_instance_grammar(self):
        assert cli.parse_instance("geometric:0.5").ratio == 0.5
        assert cli.parse_instance("harmonic").kind == "harmonic"
        seq = cli.parse_instance("prefix:0.3,0.7@geometric:0.5")
        assert seq.prefix == (0.3, 0.7) and seq.tail.ratio == 0.5

    def test_stop_grammar(self):
        assert cli.parse_stop("horizon:5").time == 5.0
        assert cli.parse_stop("first:2").node == 2
        rule = cli.parse_stop("count:1,7")
        assert (rule.node, rule.count) == (1, 7)
        with pytest.raises(cli.UsageError):
            cli.parse_stop("until:3")


class TestCommands:
    @pytest.mark.parametrize("argv, rows", [
        (["--n", "3"], ["# command: mean --n 3 --bits 67",
                        "3,2.6666666666666666667,2.427304604338233"]),
        (["--n", "64"], ["# command: mean --n 64 --bits 128",
                         "64,8.17249845422616479852139563526,1.9650704985974679"]),
        (["--n", "64", "--bits", "200"],
         ["# command: mean --n 64 --bits 200",
          "64,8.17249845422616479852139563526,1.9650704985974679"]),
    ])
    def test_mean_output_pinned(self, capsys, argv, rows):
        code, out, _ = run_cli(["mean"] + argv, capsys)
        assert code == 0
        assert out.splitlines() == ["# onoffchain 0.1.0", rows[0], "# seed: 0",
                                    "n,mean,ratio_to_log", rows[1]]

    def test_mean_small_n(self, capsys):
        code, out, _ = run_cli(["mean", "--n", "3"], capsys)
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("3,")][0]
        mean = float(row.split(",")[1])
        assert mean == pytest.approx(8 / 3, rel=1e-12)
        ratio = float(row.split(",")[2])
        assert ratio == pytest.approx((8 / 3) / math.log(3), rel=1e-9)

    def test_simulate_event_log(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--rates", "explicit:1,2,3", "--input", "permanent",
             "--stop", "horizon:5", "--seed", "7"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert any(l.startswith("# seed: 7") for l in lines)
        assert "kind,time,node_lo,node_hi" in lines
        assert any(l.startswith("reception,") for l in lines)

    @pytest.mark.parametrize("argv, lines, sha256", [
        (["--input", "permanent", "--stop", "horizon:10"], 122,
         "3626812e88d32addb12db38c75db85201de62408128f69770e6487e14fe461b5"),
        (["--input", "exp:1.5", "--stop", "count:1,200"], 1800,
         "2d78e3d55d4a79f235b5e88ea4d54466d381979188dfdcb3239f12cefdee4064"),
    ], ids=["readme-permanent-horizon", "exp-count"])
    def test_simulate_artifact_pinned(self, capsys, argv, lines, sha256):
        # the bytes of two event-log artifacts, as the heap-loop engine wrote
        # them: an engine change may not move a single byte
        code, out, _ = run_cli(["simulate", "--rates", "explicit:1,2,3", "--seed", "7"] + argv,
                               capsys)
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_simulate_node_range(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--rates", "const:2", "--nodes", "3:4", "--input", "exp:1",
             "--stop", "horizon:5", "--seed", "7"], capsys)
        assert code == 0
        assert any("--nodes 3:4" in l for l in out.splitlines() if l.startswith("#"))
        rows = [l.split(",") for l in out.splitlines()
                if l.startswith(("recovery,", "reception,"))]
        assert rows and {int(r[2]) for r in rows} <= {3, 4}

    def test_simulate_sampling_mode(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--rates", "explicit:1,1", "--input", "permanent",
             "--reps", "50", "--seed", "3"], capsys)
        assert code == 0
        values = [float(l) for l in out.splitlines() if not l.startswith("#")]
        assert len(values) == 50 and all(v > 0 for v in values)

    def test_simulate_headers_echo_the_flags_that_applied(self, capsys):
        _, out, _ = run_cli(["simulate", "--rates", "explicit:1,1", "--input", "permanent",
                             "--seed", "3"], capsys)
        assert ("# command: simulate --rates explicit:1,1 --input permanent --nodes 1:2 "
                "--stop horizon:10 --reps 1") in out.splitlines()
        _, out, _ = run_cli(["simulate", "--rates", "explicit:1,1", "--input", "permanent",
                             "--reps", "5", "--seed", "3"], capsys)
        assert ("# command: simulate --rates explicit:1,1 --input permanent --nodes 1:2 "
                "--reps 5 --node 1") in out.splitlines()
        assert "--stop" not in out

    @pytest.mark.parametrize("argv, flag", [
        (["--reps", "3", "--stop", "garbage"], "--stop"),
        (["--reps", "3", "--stop", "horizon:10"], "--stop"),
        (["--node", "1"], "--node"),
        (["--reps", "1", "--node", "2"], "--node"),
    ], ids=["stop-garbage-reps", "stop-reps", "node-single", "node-reps-1"])
    def test_simulate_refuses_flags_that_do_not_apply(self, capsys, argv, flag):
        # these exited 0, and the header echoed a stop that was never applied
        code, out, err = run_cli(["simulate", "--rates", "explicit:1,1", "--input",
                                  "permanent", "--seed", "3"] + argv, capsys)
        assert code == 2 and out == ""
        assert f"onoffchain: {flag} applies only to" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--rates", "explicit:1,2", "--input", "exp:1",
                "--stop", "horizon:8", "--seed", "11"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_transform_grid(self, capsys):
        code, out, _ = run_cli(
            ["transform", "--rates", "explicit:1", "--input", "exp:1",
             "--s-grid", "1,2"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "s,phi"
        s, phi = (float(x) for x in rows[1].split(","))
        assert (s, phi) == (1.0, pytest.approx(0.75, abs=1e-12))

    @pytest.mark.parametrize("rates, model, line, exact", [
        ("explicit:1,1", "exp:1", "# mean: 2.666666666666654", 8 / 3),
        ("explicit:1", "exp:1", "# mean: 2.0000000000000067", 2.0),
        ("explicit:1", "det:1", "# mean: 1.581976706869331", 1 / -math.expm1(-1.0)),
    ], ids=["two-nodes", "one-node", "one-node-det"])
    def test_transform_mean_digits(self, capsys, rates, model, line, exact):
        # the mean read in full, as repr, within the 1e-8 tolerance
        code, out, _ = run_cli(["transform", "--rates", rates, "--input", model,
                                "--s-grid", "1"], capsys)
        assert code == 0
        assert line in out.splitlines()
        assert "# tolerance: mean 1e-8 relative" in out.splitlines()
        assert abs(float(line.split(": ")[1]) - exact) <= 1e-8 * exact

    def test_transform_linear_truncation(self, capsys):
        # the truncation [1, 32] of linear:1, reduced: 2**31 subsets of its
        # integer rates fall on 400 distinct sums
        rates = "explicit:" + ",".join(str(r) for r in range(1, 32))
        code, out, _ = run_cli(["transform", "--rates", rates, "--input", "exp:32",
                                "--s-grid", "0.7"], capsys)
        assert code == 0
        exact = 1.8137858019543949       # E T_32 as an exact rational, rounded
        line = "# mean: 1.8137858019543678"
        assert line in out.splitlines()
        assert abs(float(line.split(": ")[1]) - exact) <= 1e-8 * exact
        s, phi = (float(x) for x in out.splitlines()[-1].split(","))
        assert (s, phi) == (0.7, pytest.approx(0.649073340883322, rel=1e-12))

    def test_limit_table(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--rates", "linear:1", "--k", "1", "--ladder", "2,4",
             "--reps", "400", "--seed", "5"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "l,mean,ks_to_next"
        assert rows[1].startswith("2,") and rows[2].startswith("4,")

    def test_limit_certificates(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--rates", "linear:1", "--k", "1", "--certify", "20,50",
             "--interval", "0,1"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "k,tau,tail_sum,rho,bound"
        k20 = rows[1].split(",")
        assert k20[0] == "20" and 0.0 < float(k20[4]) < 1.0
        assert float(rows[2].split(",")[4]) > float(k20[4])

    def test_limit_headers_echo_the_defaults(self, capsys):
        _, out, _ = run_cli(["limit", "--rates", "linear:1", "--certify", "20"], capsys)
        assert "# command: limit --rates linear:1 --certify 20 --interval 0,1" in out.splitlines()
        _, out, _ = run_cli(["limit", "--rates", "linear:1", "--k", "1", "--ladder", "2"], capsys)
        assert "# command: limit --rates linear:1 --k 1 --ladder 2 --reps 10000" in out.splitlines()

    @pytest.mark.parametrize("argv, flag", [
        (["--certify", "20", "--ladder", "4,8"], "--ladder"),
        (["--certify", "20", "--reps", "100"], "--reps"),
        (["--k", "1", "--ladder", "4,8", "--interval", "0,1"], "--interval"),
    ], ids=["ladder-certify", "reps-certify", "interval-ladder"])
    def test_limit_refuses_flags_that_do_not_apply(self, capsys, argv, flag):
        # --certify 20 --ladder 4,8 exited 0 and dropped --ladder from its header
        code, out, err = run_cli(["limit", "--rates", "linear:1"] + argv, capsys)
        assert code == 1 and out == ""
        assert f"usage error: {flag} applies only to" in err

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_readme_commands_run(self, argv, tmp_path, capsys):
        # each command of the README as written, its artifact under tmp_path
        target = tmp_path / "artifact.txt"
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert (code, out, err) == (0, "", "")
        assert target.read_text().startswith("# onoffchain ")

    def test_frozen_report(self, capsys):
        code, out, _ = run_cli(
            ["frozen", "--instance", "geometric:0.5", "--max", "4"], capsys)
        assert code == 0
        assert "# all violated: True" in out.splitlines()
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 2 ** 5 + 1
        assert all(",violated," in r for r in rows[1:])

    def test_frozen_rows_parse_as_five_fields(self, capsys):
        # a candidate with two or more blocked indices holds commas
        code, out, _ = run_cli(
            ["frozen", "--instance", "geometric:0.5", "--max", "6"], capsys)
        assert code == 0
        rows = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))
        report = frozen.exhaustive_search(frozen.ThresholdSequence.geometric(0.5), 6)
        assert rows[0] == ["candidate", "tail", "verdict", "witness_index", "reason"]
        assert len(rows) == report.total + 1
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == [r[0] for r in report.rows]
        assert any("," in row[0] for row in rows[1:])

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "log.csv"
        code, out, _ = run_cli(
            ["simulate", "--rates", "explicit:1", "--input", "permanent",
             "--stop", "first:1", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_text().startswith("# onoffchain")

    def test_verify_quick(self, capsys):
        code, out, _ = run_cli(["verify", "--quick"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert all(",pass," in r for r in rows[1:])


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(["simulate", "--rates", "linear:-1",
                                "--input", "permanent", "--nodes", "1:3"], capsys)
        assert code == 1
        assert "linear:-1" in err

    def test_unknown_command_is_one(self, capsys):
        code, _, _ = run_cli(["explode"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv, flag", [
        (["limit", "--rates", "linear:1", "--k", "1", "--ladder", "4,x"], "--ladder"),
        (["limit", "--rates", "linear:1", "--k", "1", "--certify", "2,y"], "--certify"),
        (["limit", "--rates", "linear:1", "--k", "1", "--certify", "2",
          "--interval", "0,z"], "--interval"),
        (["limit", "--rates", "linear:1", "--k", "1", "--certify", "2",
          "--interval", "0,1,2"], "--interval"),
        (["transform", "--rates", "explicit:1,2", "--input", "exp:1",
          "--s-grid", "0.1,,2"], "--s-grid"),
        (["simulate", "--rates", "const:1", "--nodes", "1:x", "--input", "exp:1"], "--nodes"),
    ])
    def test_malformed_list_is_usage_error(self, capsys, argv, flag):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert f"usage error: bad {flag}" in err

    def test_parametric_rates_need_nodes(self, capsys):
        code, out, err = run_cli(["simulate", "--rates", "const:1", "--input", "exp:1"], capsys)
        assert code == 1 and out == ""
        assert "usage error: parametric schedules need an explicit --nodes lo:hi" in err

    def test_certify_needs_no_k(self, capsys):
        code, out, _ = run_cli(["limit", "--rates", "linear:1", "--certify", "20"], capsys)
        assert code == 0
        assert "k,tau,tail_sum,rho,bound" in out.splitlines()
        # node 2 has no certificate: a numerical refusal, not a usage error
        code, _, err = run_cli(["limit", "--rates", "linear:1", "--certify", "2"], capsys)
        assert code == 2 and "usage" not in err

    def test_certify_explicit_schedule_is_two(self, capsys):
        code, out, err = run_cli(["limit", "--rates", "explicit:1,2", "--certify", "5"], capsys)
        assert code == 2 and out == ""
        assert "explicit schedules have no tail" in err and "usage" not in err

    def test_infinite_horizon_is_usage_error(self, capsys):
        code, out, err = run_cli(["simulate", "--rates", "explicit:1", "--input", "exp:1",
                                  "--stop", "horizon:inf"], capsys)
        assert code == 1 and out == ""
        assert "usage error: bad stop spec" in err

    def test_huge_horizon_is_usage_error(self, capsys):
        code, out, err = run_cli(["simulate", "--rates", "explicit:1", "--input", "exp:1",
                                  "--stop", "horizon:1e300"], capsys)
        assert code == 1 and out == ""
        assert "usage error: bad stop spec" in err
        assert "expects about 3e+300 events" in err and "cap of 3145728" in err

    def test_long_chain_horizon_is_usage_error(self, capsys):
        code, out, err = run_cli(["simulate", "--rates", "const:4", "--nodes", "1:8",
                                  "--input", "exp:1", "--stop", "horizon:1e6"], capsys)
        assert code == 1 and out == ""
        assert "expects about 1e+07 events" in err

    @pytest.mark.parametrize("argv", [
        ["transform", "--rates", "explicit:1", "--input", "exp:1", "--s-grid", "nan,inf"],
        ["limit", "--rates", "linear:1", "--certify", "5", "--interval", "0,inf"],
        ["transform", "--rates", "explicit:1e308", "--input", "exp:1", "--s-grid", "1e308"],
        ["transform", "--rates", "explicit:1e308,1e308", "--input", "exp:1", "--s-grid", "1"],
        ["transform", "--rates", "explicit:1", "--input", "exp:1e308", "--s-grid", "1e308"],
    ], ids=["transform-nan-inf", "certify-infinite-interval", "transform-s-plus-rate",
            "transform-rate-sum", "transform-input-rate"])
    def test_non_finite_argument_is_two(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "usage" not in err

    def test_ladder_without_k_is_usage_error(self, capsys):
        code, _, err = run_cli(["limit", "--rates", "linear:1", "--ladder", "4,8"], capsys)
        assert code == 1
        assert "usage error: limit --ladder needs --k" in err

    def test_numeric_error_is_two(self, capsys):
        # precision below the cancellation floor
        code, _, err = run_cli(["mean", "--n", "64", "--bits", "100"], capsys)
        assert code == 2
        assert "floor" in err

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "123")
        _, out, _ = run_cli(["simulate", "--rates", "explicit:1", "--input",
                             "permanent", "--stop", "first:1"], capsys)
        assert "# seed: 123" in out.splitlines()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--rates", "logsq:1", "--input", "permanent", "--nodes", "1:2"],
     "logsq takes no parameters, got '1'"),
    (["simulate", "--rates", "explicit:1", "--input", "exp:abc"], "bad input spec 'exp:abc'"),
    (["simulate", "--rates", "explicit:1", "--input", "empirical:no/such/file"],
     "cannot read empirical samples 'no/such/file'"),
    (["frozen", "--instance", "geometric:abc", "--max", "3"],
     "bad instance spec 'geometric:abc'"),
    (["frozen", "--instance", "foo", "--max", "3"], "unknown instance kind 'foo'"),
    (["transform", "--rates", "linear:1", "--input", "exp:1", "--s-grid", "1"],
     "transform works on explicit rate lists"),
    (["limit", "--rates", "linear:1"], r"limit needs --ladder \(or --certify\)"),
], ids=["logsq-parameter", "exp-not-a-number", "empirical-missing", "geometric-not-a-number",
        "instance-kind", "transform-parametric", "limit-no-table"])
def test_usage_refusals(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert re.search("usage error: .*" + message, err)


def test_mean_of_one_node_has_no_ratio(capsys):
    code, out, _ = run_cli(["mean", "--n", "1"], capsys)
    assert code == 0
    assert re.fullmatch(r"1,1\.0+,", out.splitlines()[-1])


def test_relative_out_resolves_under_outdir(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
    code, out, _ = run_cli(["mean", "--n", "3", "--out", "mean.csv"], capsys)
    assert code == 0 and out == ""
    assert (tmp_path / "mean.csv").read_text().splitlines()[-1].startswith("3,2.666666")
