import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pfrsim import cli
from pfrsim.cli import _ROW_BLOCK, _sample_csv, main
from pfrsim.distributions import DistributionPair, Gaussian
from pfrsim.errors import TailTooHeavyWarning
from pfrsim.pfr import derive_stream, run_pfr

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(*args):
    return CliRunner().invoke(main, list(args))


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDivergenceCommand:
    def test_gaussian_order_two(self):
        res = run("divergence", "normal:0,1", "normal:1,1", "--order", "2")
        assert res.exit_code == 0
        _, rows = parse_csv(res.output)
        assert float(rows[0][1]) == pytest.approx(1.0 / math.log(2.0), rel=1e-10)

    def test_identical_is_zero(self):
        res = run("divergence", "normal:0,1", "normal:0,1", "--order", "0.5")
        assert float(parse_csv(res.output)[1][0][1]) == 0.0

    def test_laplace_infinite_branch(self):
        res = run("divergence", "laplace:0,3", "laplace:0,1", "--order", "2")
        assert res.exit_code == 0
        assert parse_csv(res.output)[1][0][1] == "inf"

    def test_numeric_column_agrees(self):
        res = run(
            "divergence", "normal:0,1", "normal:1,1", "--order", "1.5", "--numeric"
        )
        _, rows = parse_csv(res.output)
        assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), abs=1e-6)

    def test_numeric_divergent_orders_print_inf(self):
        # the integrands p^a q^(1-a) grow without bound: the closed form is inf
        res = run(
            "divergence", "normal:0,1", "normal:0,0.5",
            "--order", "2", "--order", "5", "--numeric",
        )
        assert res.exit_code == 0, res.output
        assert res.output == "order,bits,numeric_bits\n2,inf,inf\n5,inf,inf\n"

    def test_numeric_nonconvergence_is_usage_error(self):
        res = run(
            "divergence", "normal:0,1", "normal:1,1", "--order", "1.5", "--numeric",
            "--quad-tol", "1e-300",
        )
        assert res.exit_code == 2
        assert "numeric divergence at order 1.5" in res.output
        assert "after 2000 panels" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_order_labels_read_back(self):
        # each row names its order in the shortest text that reads back as
        # it; 1 + 1e-12, 1 - 1e-7 and 1 no longer all print as "1"
        orders = ("1.000000000001", "0.9999999", "1", "2", "1.5", "0.5", "1e-05")
        args = [a for o in orders for a in ("--order", o)]
        res = run("divergence", "laplace:0,1", "laplace:0.5,2", *args, "--numeric")
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert [row[0] for row in rows] == list(orders)
        assert [float(row[0]) for row in rows] == [float(o) for o in orders]
        # near order 1 the quadrature column is the KL divergence, 0.3555 bits
        assert float(rows[0][2]) == pytest.approx(0.355498108, abs=1e-8)

    def test_order_label_in_numeric_error(self):
        res = run(
            "divergence", "normal:0,1", "normal:1,1", "--order", "1.000000000001",
            "--numeric", "--quad-tol", "1e-300",
        )
        assert res.exit_code == 2
        assert "numeric divergence at order 1.000000000001:" in res.output

    def test_parse_error_exits_2(self):
        res = run("divergence", "normal:0", "normal:1,1", "--order", "2")
        assert res.exit_code == 2

    def test_nonfinite_parameter_is_a_usage_error(self):
        res = run("divergence", "normal:nan,1", "normal:0,1", "--order", "2")
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "mu and sigma must be finite, sigma > 0; got nan, 1.0" in res.output


class TestSweepCommand:
    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        res = run("sweep", "normal:0,1", "normal:1,1", "--out", str(out))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(out.read_text())
        assert header == ["alpha", "lb1", "lb2", "lb_max", "ub1", "ub1_eps", "ub2", "ub2_eps"]
        assert len(rows) == 160

    def test_lb2_above_lb1_near_one(self, tmp_path):
        out = tmp_path / "s.csv"
        run("sweep", "normal:0,1", "normal:1,1", "--out", str(out))
        _, rows = parse_csv(out.read_text())
        tail_rows = [r for r in rows if float(r[0]) > 0.9]
        assert tail_rows
        for r in tail_rows:
            assert float(r[2]) > float(r[1])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("sweep", "normal:0,1", "normal:5,1", "--out", str(a))
        run("sweep", "normal:0,1", "normal:5,1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, tmp_path):
        out = tmp_path / "fig"
        res = run(
            "sweep", "normal:0,1", "normal:1,1", "--out", str(out), "--format", "both"
        )
        assert res.exit_code == 0
        svg = (tmp_path / "fig.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 4
        assert (tmp_path / "fig.csv").exists()

    def test_out_keeps_dots_that_are_not_a_suffix(self, tmp_path):
        # only a trailing .csv or .svg is dropped before each format's suffix,
        # so two pairs that differ after the dot of 0.5 keep their own files
        for q in ("0.5,2", "0.5,3"):
            name = f"sweep_laplace_0_1_laplace_{q.replace(',', '_')}"
            res = run(
                "sweep", "laplace:0,1", f"laplace:{q}", "--alpha-range", "0.3,0.9,3",
                "--format", "both", "--out", str(tmp_path / name),
            )
            assert res.exit_code == 0, res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep_laplace_0_1_laplace_0.5_2.csv",
            "sweep_laplace_0_1_laplace_0.5_2.svg",
            "sweep_laplace_0_1_laplace_0.5_3.csv",
            "sweep_laplace_0_1_laplace_0.5_3.svg",
        ]

    @pytest.mark.parametrize(
        "out,fmt,written",
        [
            ("x.csv", "both", ["x.csv", "x.svg"]),
            ("x.svg", "both", ["x.csv", "x.svg"]),
            ("x", "csv", ["x.csv"]),
            ("x.csv", "svg", ["x.svg"]),
            ("x.txt", "csv", ["x.txt.csv"]),
        ],
    )
    def test_out_suffix_rule(self, tmp_path, out, fmt, written):
        res = run(
            "sweep", "normal:0,1", "normal:1,1", "--alpha-range", "0.3,0.9,3",
            "--format", fmt, "--out", str(tmp_path / out),
        )
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    def test_custom_alpha_range(self, tmp_path):
        out = tmp_path / "s.csv"
        run(
            "sweep", "normal:0,1", "normal:1,1",
            "--alpha-range", "0.3,0.9,7", "--out", str(out),
        )
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 7
        assert float(rows[0][0]) == 0.3
        assert float(rows[-1][0]) == 0.9

    def test_no_ub2_one_ulp_above_two_thirds(self):
        # the grid's seventh point is the float after 2/3, where 3 alpha - 2
        # rounds to 0 and ub2 has no admissible epsilon
        assert np.linspace(0.2, 0.9, 10)[6] == math.nextafter(2.0 / 3.0, 1.0)
        res = run("sweep", "normal:0,1", "normal:1,1", "--alpha-range", "0.2,0.9,10")
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert [r[6:] == ["", ""] for r in rows] == [True] * 7 + [False] * 3

    def test_no_epsilon_for_an_infinite_bound(self):
        # every epsilon gives ub1 = +inf here, so none is reported; from
        # alpha = 0.7 on ub2 is defined and +inf as well
        res = run("sweep", "normal:0,10", "normal:0,1", "--alpha-range", "0.2,0.6,5")
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert [r[4:] for r in rows] == [["inf", "", "", ""]] * 5
        res = run("sweep", "normal:0,10", "normal:0,1", "--alpha-range", "0.7,0.9,3")
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert [r[4:] for r in rows] == [["inf", "", "inf", ""]] * 3

    def test_svg_without_finite_values(self, tmp_path):
        # every bound of this pair is infinite on the grid
        res = run(
            "sweep", "normal:0,10", "normal:0,1", "--alpha-range", "0.2,0.6,5",
            "--format", "svg", "--out", str(tmp_path / "x"),
        )
        assert res.exit_code == 0, res.output
        svg = (tmp_path / "x.svg").read_text()
        assert svg.startswith("<svg")
        assert "<polyline" not in svg

    def test_nonfinite_parameter_is_a_usage_error(self):
        res = run("sweep", "normal:0,inf", "normal:0,1")
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "mu and sigma must be finite, sigma > 0; got 0.0, inf" in res.output

    @pytest.mark.parametrize("command", ["sweep", "entropy-figure"])
    def test_pair_without_mutual_continuity_is_a_usage_error(self, tmp_path, command):
        # P = (1, 0) puts no mass where Q does: the lower bounds are undefined
        out = tmp_path / "s"
        for extra in ((), ("--format", "both", "--out", str(out))):
            res = run(command, "finite:1,0", "finite:0.5,0.5", *extra)
            assert res.exit_code == 2, res.output
            assert "Traceback" not in res.output and "alpha," not in res.output
            assert "lower bounds require mutually absolutely continuous" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_range": "0.4,0.8,5"}))
        out = tmp_path / "s.csv"
        run(
            "sweep", "normal:0,1", "normal:1,1",
            "--config", str(cfg), "--out", str(out),
        )
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 5
        # explicit flag beats the config value
        run(
            "sweep", "normal:0,1", "normal:1,1",
            "--config", str(cfg), "--alpha-range", "0.4,0.8,3", "--out", str(out),
        )
        assert len(parse_csv(out.read_text())[1]) == 3
        # a config-file output path is honoured by divergence as well
        table = tmp_path / "d.csv"
        cfg.write_text(json.dumps({"out": str(table)}))
        res = run("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--config", str(cfg))
        assert res.exit_code == 0
        assert table.read_text() == res.output


class TestConfigFile:
    @pytest.mark.parametrize(
        "args,config",
        [
            (("sample", "normal:0,1", "normal:1,1"), {"seed": "x"}),
            (("sample", "normal:0,1", "normal:1,1", "--method", "pfr"), {"delta": "abc"}),
            (("sweep", "normal:0,1", "normal:1,1"), {"alpha_range": [0.2, 0.9]}),
            (("sweep", "normal:0,1", "normal:1,1"), {"alpha-range": "0.9,0.2,5"}),
            (("entropy-figure", "normal:0,1", "normal:1,1"), {"n_max": "abc"}),
            (("verify",), {"samples": "many"}),
            (("verify",), {"samples": 0}),
            (("verify",), {"samples": -5}),
            (("verify",), {"seed": -1}),
            (("sweep", "normal:0,1", "normal:1,1"), ["not", "an", "object"]),
            (("entropy-figure", "normal:0,1", "normal:1,1"), {"quad_tol": 0}),
            (("entropy-figure", "normal:0,1", "normal:1,1"), {"quad-tol": -1e-6}),
            (("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--numeric"),
             {"quad_tol": "nan"}),
            (("entropy-figure", "normal:0,1", "normal:1,1"), {"n_max": 0}),
            (("sweep", "normal:0,1", "normal:1,1"), {"format": "svg"}),
            (("entropy-figure", "normal:0,1", "normal:1,1"), {"fmt": "both"}),
            (("divergence", "normal:0,1", "normal:1,1"), {"order": [2, "inf"]}),
        ],
        ids=["seed", "delta", "short_alpha_range", "reversed_alpha_range", "n_max",
             "samples", "zero_samples", "negative_samples", "negative_verify_seed",
             "not_an_object", "zero_quad_tol", "negative_quad_tol", "nan_quad_tol",
             "zero_n_max", "svg_without_out", "both_without_out", "infinite_order"],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, args, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = run(*args, "--config", str(cfg))
        assert res.exit_code == 2, res.output
        assert "Error:" in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--format", "csv"),
            ("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--alpha-range", "0.2,0.9,5"),
            ("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--seed", "1"),
            ("sweep", "normal:0,1", "normal:1,1", "--seed", "1"),
            ("sweep", "normal:0,1", "normal:1,1", "--quad-tol", "1e-6"),
            ("entropy-figure", "normal:0,1", "normal:1,1", "--seed", "1"),
            ("sample", "normal:0,1", "normal:1,1", "--format", "svg"),
            ("sample", "normal:0,1", "normal:1,1", "--quad-tol", "1e-6"),
            ("sample", "normal:0,1", "normal:1,1", "--alpha-range", "0.2,0.9,5"),
            ("verify", "--out", "x"),
            ("verify", "--format", "csv"),
            ("verify", "--quad-tol", "1e-6"),
            ("verify", "--alpha-range", "0.2,0.9,5"),
        ],
    )
    def test_options_a_command_does_not_read_are_usage_errors(self, args):
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output

    @pytest.mark.parametrize(
        "args",
        [
            ("entropy-figure", "normal:0,1", "normal:1,1", "--quad-tol", "0"),
            ("entropy-figure", "normal:0,1", "normal:1,1", "--quad-tol", "-1e-6"),
            ("divergence", "normal:0,1", "normal:1,1", "--order", "2", "--numeric",
             "--quad-tol", "nan"),
            ("entropy-figure", "normal:0,1", "normal:1,1", "--n-max", "0"),
            ("sweep", "normal:0,1", "normal:1,1", "--format", "svg"),
            ("sweep", "normal:0,1", "normal:1,1", "--format", "both"),
            ("entropy-figure", "normal:0,1", "normal:1,1", "--format", "both"),
            ("divergence", "normal:0,1", "normal:1,1", "--order", "inf"),
        ],
        ids=["zero_quad_tol", "negative_quad_tol", "nan_quad_tol", "zero_n_max",
             "svg_without_out", "both_without_out", "figure_without_out",
             "infinite_order"],
    )
    def test_bad_flag_fails_before_any_work(self, monkeypatch, args):
        def no_sweep(*_):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("pfrsim.bounds.sweep", no_sweep)
        res = run(*args)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "Error:" in res.output
        assert "order," not in res.output and "alpha," not in res.output

    def test_flags_come_from_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"numeric": True}))
        args = ("divergence", "normal:0,1", "normal:1,1", "--order", "2")
        res = run(*args, "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[0] == "order,bits,numeric_bits"
        assert res.output == run(*args, "--numeric").output

    def test_config_that_is_not_json_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("seed = 3\n")
        res = run("sample", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 2, res.output
        assert "cannot read config" in res.output

    def test_positional_arguments_never_come_from_the_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_spec": "normal:0,1", "q-spec": "normal:1,1"}))
        res = run("divergence", "--order", "2", "--config", str(cfg))
        assert res.exit_code == 2, res.output
        assert "Missing argument 'P_SPEC'" in res.output

    def test_keys_name_an_option_by_flag_or_parameter(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "fig"
        cfg.write_text(json.dumps({"format": "both", "out": str(out), "alpha-range": "0.4,0.8,3"}))
        res = run("sweep", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "fig.svg").exists() and (tmp_path / "fig.csv").exists()
        cfg.write_text(json.dumps({"n": 3, "order": [2]}))
        assert run("sample", "normal:0,1", "normal:1,1", "--config", str(cfg)).output == run(
            "sample", "normal:0,1", "normal:1,1", "-n", "3"
        ).output
        res = run("divergence", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.output == "order,bits\n2,1.44269504089\n"

    def test_config_keys_of_other_commands_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "svg", "quad_tol": 1e-3, "alpha_range": "x"}))
        res = run("sample", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert res.output == run("sample", "normal:0,1", "normal:1,1").output

    def test_values_convert_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_range": [0.4, 0.8, 5], "seed": None}))
        res = run("sweep", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert res.output == run(
            "sweep", "normal:0,1", "normal:1,1", "--alpha-range", "0.4,0.8,5"
        ).output
        # JSON null keeps the default seed; a numeric string converts
        cfg.write_text(json.dumps({"seed": None, "count": "4"}))
        res = run("sample", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        assert res.output == run("sample", "normal:0,1", "normal:1,1", "-n", "4").output


class TestEntropyFigureCommand:
    def test_column_sits_between_bounds(self, tmp_path):
        out = tmp_path / "e.csv"
        res = run(
            "entropy-figure", "normal:0,1", "normal:1,1",
            "--alpha-range", "0.25,0.95,15", "--out", str(out),
        )
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(out.read_text())
        assert header[-1] == "h_alpha_plus1"
        for r in rows:
            lb_max, ub1, h1 = float(r[3]), float(r[4]), float(r[8])
            assert lb_max < h1 <= ub1 + 1e-9

    def test_identical_pair_column_is_one(self, tmp_path):
        out = tmp_path / "e.csv"
        run(
            "entropy-figure", "normal:0,1", "normal:0,1",
            "--alpha-range", "0.3,0.7,3", "--out", str(out),
        )
        _, rows = parse_csv(out.read_text())
        for r in rows:
            assert float(r[8]) == pytest.approx(1.0, abs=1e-9)

    def test_heavy_tail_warns(self, tmp_path):
        out = tmp_path / "e.csv"
        with pytest.warns(TailTooHeavyWarning):
            res = run(
                "entropy-figure", "normal:0,1", "normal:5,1",
                "--alpha-range", "0.4,0.6,3", "--n-max", "200", "--out", str(out),
            )
        assert res.exit_code == 0

    def test_heavy_tail_warning_names_the_cli(self):
        with pytest.warns(TailTooHeavyWarning) as record:
            res = run("entropy-figure", "normal:0,1", "normal:30,1", "--n-max", "3",
                      "--alpha-range", "0.5,0.9,2")
        assert res.exit_code == 0, res.output
        path = Path(record[0].filename)
        assert (path.parent.name, path.name) == ("pfrsim", "cli.py")

    def test_far_pair_column_is_floored(self):
        # N(0,1)|N(30,1) at n_max 3 keeps about 2e-54 of the mass: the tail
        # bound overflowed a double, and the bracket's lower end was -1605
        with pytest.warns(TailTooHeavyWarning):
            res = run("entropy-figure", "normal:0,1", "normal:30,1", "--n-max", "3")
        assert res.exit_code == 0, res.output
        _, rows = parse_csv(res.output)
        assert len(rows) == 160 and all(r[8] == "1" for r in rows)


class TestSampleCommand:
    def test_identical_pair_rows(self):
        res = run("sample", "normal:0,1", "normal:0,1", "-n", "3", "--seed", "7")
        header, rows = parse_csv(res.output)
        assert header == ["k", "u_k", "termination"]
        assert [r[0] for r in rows] == ["1", "1", "1"]

    def test_deterministic_output(self):
        a = run("sample", "normal:0,1", "normal:1,1", "-n", "50", "--seed", "1")
        b = run("sample", "normal:0,1", "normal:1,1", "-n", "50", "--seed", "1")
        assert a.output == b.output
        c = run("sample", "normal:0,1", "normal:1,1", "-n", "50", "--seed", "2")
        assert c.output != a.output

    def test_pfr_method_reports_termination(self):
        res = run(
            "sample", "normal:0,1", "normal:1,1",
            "-n", "5", "--method", "pfr", "--seed", "3",
        )
        _, rows = parse_csv(res.output)
        assert all(r[2] == "approximate" for r in rows)

    def test_finite_pair_integer_samples(self):
        res = run("sample", "finite:1,0", "finite:0.5,0.5", "-n", "4", "--seed", "0")
        _, rows = parse_csv(res.output)
        assert all(r[1] == "0" for r in rows)

    @pytest.mark.parametrize(
        "args",
        [
            ("normal:0,1", "normal:1,1", "--method", "pfr", "--delta", "0"),
            ("laplace:0,1", "laplace:1,1", "--method", "pfr", "--delta", "inf"),
            ("normal:0,1", "normal:1,1", "--seed", "-1"),
            ("normal:0,1", "normal:1,1", "--method", "pfr", "--seed", "-1"),
            ("normal:0,2", "normal:0,1", "--method", "pfr"),
            ("normal:0,1", "normal:40,1", "-n", "2"),
            ("normal:0,1", "normal:1,1", "-n", "-1"),
            ("normal:0,1", "normal:1,1", "-n", "-1", "--method", "pfr"),
            ("normal:nan,1", "normal:0,1", "-n", "3"),
            ("finite:0.5,nan", "finite:0.5,0.5", "-n", "3"),
        ],
        ids=["delta_zero", "delta_inf", "negative_seed", "negative_seed_pfr", "no_stopping_rule",
             "index_overflow", "negative_count", "negative_count_pfr", "nan_mean",
             "nan_probability"],
    )
    def test_bad_input_is_a_usage_error(self, args):
        res = run("sample", *args)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "Error:" in res.output

    @pytest.mark.parametrize("key", ["count", "seed"])
    def test_negative_config_value_is_a_usage_error(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: -1}))
        res = run("sample", "normal:0,1", "normal:1,1", "--config", str(cfg))
        assert res.exit_code == 2, res.output

    def test_capped_rows(self):
        text = _sample_csv(
            np.array([3, 0, 1]), np.array([0.5, 0.0, -1.25]), "approximate",
            np.array([False, True, False]), False,
        )
        assert text == (
            "k,u_k,termination\n3,0.5,approximate\n,,iteration_cap\n1,-1.25,approximate\n"
        )

    @pytest.mark.parametrize("method", ["exact", "pfr"])
    def test_zero_draws_print_the_header(self, method):
        res = run("sample", "normal:0,1", "normal:1,1", "-n", "0", "--method", method)
        assert res.exit_code == 0
        assert res.output == "k,u_k,termination\n"

    def test_pfr_rows_match_run_pfr(self):
        res = run(
            "sample", "normal:0,1", "normal:1,1",
            "-n", "20", "--method", "pfr", "--seed", "4", "--delta", "1e-8",
        )
        pair = DistributionPair(Gaussian(0, 1), Gaussian(1, 1))
        expected = "k,u_k,termination\n" + "".join(
            f"{o.index},{o.accepted:.17g},approximate\n"
            for o in (run_pfr(pair, derive_stream(4, i), delta=1e-8) for i in range(20))
        )
        assert res.output == expected


def template_csv(ks, us, termination, capped, finite):
    """The ``sample`` CSV through the ``%`` template, one row at a time."""
    row = f"%d,{'%d' if finite else '%.17g'},{termination}\n"
    return "k,u_k,termination\n" + "".join(
        ",,iteration_cap\n" if c else row % (k, u)
        for k, u, c in zip(ks.tolist(), us.tolist(), capped.tolist())
    )


def assert_template_bytes(us, ks=None, capped=None, finite=False, termination="exact"):
    """``_sample_csv`` prints the bytes of the ``%`` template, block by block."""
    us = np.asarray(us)
    ks = np.arange(1.0, len(us) + 1) if ks is None else np.asarray(ks)
    capped = np.zeros(len(us), dtype=bool) if capped is None else capped
    got = _sample_csv(ks, us, termination, capped, finite)
    want = template_csv(ks, us, termination, capped, finite)
    if got != want:
        got, want = got.splitlines(), want.splitlines()
        bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                   min(len(got), len(want)))
        pytest.fail(f"line {bad} of {len(want)}: {got[bad : bad + 1]} != {want[bad : bad + 1]}")


#: Values that ``%.17g`` prints in fixed notation.
PLAIN = np.array([-2.5, 0.125, 1.75, 3.0e5, -7.0e-3])


def with_digit_rows(us):
    """``us`` followed by enough plain values that the block takes the digit path."""
    return np.concatenate([us, np.resize(PLAIN, cli._DIGIT_ROWS_MIN)])


def powers_of_ten():
    """1e-5 .. 1e17, the doubles on both sides of each, and their negatives."""
    p = np.array([float(f"1e{j}") for j in range(-5, 18)])
    near = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                           np.nextafter(np.nextafter(p, 0), 0)])
    return np.concatenate([near, -near])


class TestSampleDigits:
    """``sample`` rows from exact integer digits keep the bytes of the ``%`` template."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
           st.lists(st.integers(0, 2**64), min_size=1, max_size=200))
    def test_raw_bit_patterns(self, bits, ks):
        us = with_digit_rows(np.array(bits, dtype=np.uint64).view(np.float64))
        ks = np.resize(np.array(ks, dtype=float), len(us))
        assert_template_bytes(us, ks)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(math.log(1e-6), math.log(1e17)), st.booleans()),
                    min_size=1, max_size=400))
    def test_log_uniform_magnitudes(self, draws):
        us = np.array([math.exp(x) * (-1 if neg else 1) for x, neg in draws])
        assert_template_bytes(with_digit_rows(us))

    def test_exact_halves_round_to_even(self):
        # odd j / 2**17 in [1, 10) sits half-way between two 17-digit decimals
        j = np.arange(2**17 + 1, 10 * 2**17, 2)
        assert_template_bytes(j / 2.0**17)

    @pytest.mark.parametrize("x", range(-4, 16))
    def test_exact_halves_in_every_decade(self, x):
        # odd j / 2**(17 - x) in [10**x, 10**(x+1)) is a tie at the 17th digit
        scale = 2.0 ** (17 - x)
        lo, hi = math.ceil(10.0**x * scale), math.floor(10.0 ** (x + 1) * scale)
        j = np.unique(np.linspace(lo, hi, 2001).astype(np.int64) | 1)
        us = j[(j < hi) & (j < 2**53)] / scale
        assert_template_bytes(np.concatenate([us, -us]))

    def test_powers_of_ten_and_neighbours(self):
        assert_template_bytes(with_digit_rows(powers_of_ten()))

    def test_rounding_that_carries_through_nines(self):
        # the doubles at and next to 16-digit decimals: for many, rounding at
        # the 17th digit carries through a run of nines or drops a run of
        # zeros, so they print fewer than 17 digits
        rng = np.random.default_rng(5)
        us = []
        for x in range(-4, 16):
            for c in rng.integers(10**15, 10**16, 200).tolist():
                d = float(f"{c}e{x - 15}")
                us += [np.nextafter(d, 0), d, np.nextafter(d, np.inf)]
        us = np.array(us)
        short = sum(len(("%.17g" % u).replace(".", "").lstrip("0")) < 17 for u in us.tolist())
        assert short > 1000
        assert_template_bytes(us)

    def test_zeros_subnormals_and_non_finite_values(self):
        odd = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan]
        assert_template_bytes(with_digit_rows(np.array(odd)))

    @pytest.mark.parametrize("top", [2.0**64 - 2048, 2.0**64])
    @pytest.mark.parametrize("rows", [6, 600], ids=["template", "digits"])
    def test_large_indices(self, top, rows):
        ks = np.resize(np.array([2.0**53 + 2, 2.0**63, top, 1.0, 0.0, -0.0]), rows)
        assert_template_bytes(np.resize(PLAIN, rows), ks)

    def test_int64_indices(self):
        ks = np.array([1, 9, 10, 9999, 10_000, 2**62, 2**63 - 1], dtype=np.int64)
        us = with_digit_rows(np.full(len(ks), -0.5))
        assert_template_bytes(us, np.resize(ks, len(us)))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_finite_kind_integer_column(self, dtype):
        us = np.resize(np.array([0, 1, 9, 10, 9999, 10_000, 123_456_789], dtype=dtype), 600)
        assert_template_bytes(us, finite=True)

    def test_finite_kind_fallback_values(self):
        us = np.resize(np.array([0.0, 3.0, 2.0**64, -1.0]), 600)
        assert_template_bytes(us, finite=True)

    def test_capped_and_fallback_rows_across_a_block_edge(self):
        n = 2 * _ROW_BLOCK + 5
        rng = np.random.default_rng(3)
        us = rng.standard_normal(n)
        ks = np.floor(rng.exponential(4.0, n)) + 1
        capped = np.zeros(n, dtype=bool)
        for edge in (_ROW_BLOCK, 2 * _ROW_BLOCK):
            capped[[edge - 2, edge + 1]] = True
            us[[edge - 1, edge]] = [1e-7, -0.0]
        ks[capped] = 0
        us[capped] = 0.0
        assert_template_bytes(us, ks, capped, termination="approximate")

    @pytest.mark.parametrize("n", [0, 1, cli._DIGIT_ROWS_MIN - 1, cli._DIGIT_ROWS_MIN,
                                   _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
    def test_lengths(self, n):
        rng = np.random.default_rng(n)
        assert_template_bytes(rng.standard_normal(n), np.floor(rng.exponential(4.0, n)) + 1)

    def test_digit_path_formats_the_ordinary_rows(self, monkeypatch):
        # only the rows that need the template reach it
        seen = []
        template_rows = cli._template_rows

        def counted(k, u, cap, row):
            seen.append(len(k))
            return template_rows(k, u, cap, row)

        monkeypatch.setattr(cli, "_template_rows", counted)
        us = np.resize(PLAIN, 3 * _ROW_BLOCK)
        us[[5, _ROW_BLOCK + 7]] = [1e-9, np.nan]
        _sample_csv(np.ones(len(us)), us, "exact", np.zeros(len(us), dtype=bool), False)
        assert seen == [1, 1]


class TestVerifyCommand:
    def test_geometric_only_passes(self):
        res = run("verify", "--only", "geometric")
        assert res.exit_code == 0, res.output
        assert "12/12 checks passed" in res.output
        assert all(
            line.startswith("PASS") for line in res.output.splitlines()[:-1]
        )

    def test_corrupted_constant_fails(self):
        res = run("verify", "--only", "soundness", "--corrupt-c1")
        assert res.exit_code == 1
        assert "FAIL" in res.output

    def test_band_only(self):
        res = run("verify", "--only", "band")
        assert res.exit_code == 0

    @pytest.mark.parametrize(
        "args",
        [("--seed", "-1"), ("--samples", "-5"), ("--samples", "0"), ("--samples", "1")],
        ids=["negative_seed", "negative_samples", "zero_samples", "one_sample"],
    )
    def test_bad_flag_is_a_usage_error(self, args):
        res = run("verify", "--only", "geometric", *args)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert "Error:" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("sample", "normal:0,1", "normal:1,1", "-n", "5", "--out", "{tmp}/missing/x.csv"),
        ("sweep", "normal:0,1", "normal:1,1", "--alpha-range", "0.3,0.9,3",
         "--out", "{tmp}/missing/x.csv"),
        # D/x.svg is a directory
        ("sweep", "normal:0,1", "normal:1,1", "--alpha-range", "0.3,0.9,3",
         "--format", "svg", "--out", "{tmp}/D/x"),
    ],
    ids=["sample", "sweep_csv", "sweep_svg"],
)
def test_unwritable_output_exits_3(tmp_path, args):
    (tmp_path / "D" / "x.svg").mkdir(parents=True)
    res = run(*(a.format(tmp=tmp_path) for a in args))
    assert res.exit_code == 3, res.output
    assert "cannot write" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("divergence", "normal:0,1", "normal:1e155,1", "--order", "2"),
        ("divergence", "normal:0,1e200", "normal:0,1e-200", "--order", "0.5"),
        ("divergence", "laplace:0,1e200", "laplace:0,1e-200", "--order", "0.5"),
        ("sample", "normal:0,1e-200", "normal:0,1", "-n", "3"),
        ("divergence", "laplace:0,1e-200", "laplace:0,1e200", "--order", "1"),
        ("sweep", "laplace:0,1e-320", "laplace:0,1", "--alpha-range", "0.3,0.9,3"),
    ],
    ids=["location_gap", "scale_ratio", "laplace_scale_ratio", "tiny_scale",
         "laplace_kl", "subnormal_scale"],
)
def test_pair_out_of_the_double_range_is_a_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "leaves the double range" in res.output


def test_sweep_with_an_infinite_kl_divergence_names_it():
    # the squared location gap over the reference's variance overflows;
    # ub2's epsilon depends on the KL divergence, so the sweep stops there;
    # the closed form's terms overflow on the way, and warn nothing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run("sweep", "normal:0,1.3e154", "normal:1.3e154,1")
    assert not caught, [str(w.message) for w in caught]
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "KL divergence" in res.output and "is infinite" in res.output
    assert "epsilon must lie" not in res.output


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name,p,q",
        [
            ("sweep_normal_0_1_normal_1_1.csv", "normal:0,1", "normal:1,1"),
            ("sweep_normal_0_1_normal_5_1.csv", "normal:0,1", "normal:5,1"),
            ("sweep_normal_0_1_normal_10_1.csv", "normal:0,1", "normal:10,1"),
            ("sweep_laplace_0_1_laplace_1_1.csv", "laplace:0,1", "laplace:1,1"),
            ("sweep_laplace_0_1_laplace_5_1.csv", "laplace:0,1", "laplace:5,1"),
            ("sweep_laplace_0_1_laplace_10_1.csv", "laplace:0,1", "laplace:10,1"),
        ],
    )
    def test_sweep_matches_golden(self, tmp_path, name, p, q):
        assert_matches_golden(tmp_path, name, "sweep", p, q)

    @pytest.mark.parametrize(
        "name,p,q",
        [
            ("entropy_figure_normal_0_1_normal_1_1.csv", "normal:0,1", "normal:1,1"),
            ("entropy_figure_normal_0_1_normal_0.5_1.6.csv", "normal:0,1", "normal:0.5,1.6"),
        ],
    )
    def test_entropy_figure_matches_golden(self, tmp_path, name, p, q):
        # h_alpha_plus1 is the upper end of the certified entropy bracket
        assert_matches_golden(tmp_path, name, "entropy-figure", p, q, "--n-max", "1000")


def assert_matches_golden(tmp_path, name, *args):
    """The CSV that the CLI writes for ``args`` matches golden ``name`` within 1e-6 per cell."""
    golden = (GOLDEN_DIR / name).read_text()
    out = tmp_path / "fresh.csv"
    res = run(*args, "--out", str(out))
    assert res.exit_code == 0, res.output
    fresh = out.read_text()
    g_header, g_rows = parse_csv(golden)
    f_header, f_rows = parse_csv(fresh)
    assert f_header == g_header
    assert len(f_rows) == len(g_rows)
    for grow, frow in zip(g_rows, f_rows):
        for gcell, fcell in zip(grow, frow):
            if gcell == "" or fcell == "":
                assert gcell == fcell
            elif gcell == "inf" or fcell == "inf":
                assert gcell == fcell
            else:
                assert float(fcell) == pytest.approx(float(gcell), abs=1e-6)
