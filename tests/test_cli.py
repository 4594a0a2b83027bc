"""Config handling, artifact layout, and exit codes of the command-line driver.

Everything calls main(argv) in-process; artifacts land in tmp_path and
are reparsed as plain text or JSON.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ergrates
from ergrates.cli import (
    ConfigError,
    _json_text,
    config_hash,
    emit_config,
    main,
    parse_config_text,
)


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(ergrates.__file__)))


def read_csv(path):
    """(header, data rows, comment lines) of an artifact CSV."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    return lines[0].split(","), data, comments


class TestConfigText:
    def test_round_trip(self):
        cfg = {"body": "ball:1", "measure": "radial:2,1,1", "tol": "0.0001"}
        assert parse_config_text(emit_config(cfg)) == cfg

    def test_skips_comments_and_blank_lines(self):
        text = "# a comment\n\n  body = ball:1  \n\n# another\nmeasure = radial:2,1,1\n"
        assert parse_config_text(text) == {"body": "ball:1", "measure": "radial:2,1,1"}

    def test_every_error_reported_with_line_number(self):
        text = "body = ball:1\nnonsense\nfrobnicate = 3\nbody = cube\n= 7\n"
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        msg = str(exc.value)
        for frag in ("line 2", "line 3", "line 4", "line 5",
                     "unknown key", "duplicate", "empty key"):
            assert frag in msg

    def test_hash_tracks_content(self):
        a = {"body": "ball:1", "tol": "1e-4"}
        b = {"tol": "1e-4", "body": "ball:1"}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"body": "ball:2", "tol": "1e-4"})


class TestOptionMerging:
    def test_command_line_beats_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha = 1,1\n")
        out = tmp_path / "report.json"
        assert main(["classify", "--config", str(cfg_file), "--alpha", "3,1",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "CircleBetter"

    def test_config_file_beats_default(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("alpha = 1,1\nr-mode = at-max\n")
        out = tmp_path / "report.json"
        assert main(["classify", "--config", str(cfg_file), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "Equal"
        assert rep["r_mode"] == "at-max"


class TestFourierCommand:
    def test_csv_and_plot_script(self, tmp_path):
        out, plot = tmp_path / "f.csv", tmp_path / "f.gp"
        assert main(["fourier", "--z-lo", "1", "--z-hi", "20", "--points", "16",
                     "--out", str(out), "--plot", str(plot)]) == 0
        header, rows, comments = read_csv(out)
        assert header == ["x_1", "x_2", "re", "im", "abs", "herz_envelope"]
        assert len(rows) == 16
        assert any(c.startswith("# config-hash = ") for c in comments)
        assert any(c.startswith("# version = ") for c in comments)
        re0, im0, abs0 = (float(v) for v in rows[0][2:5])
        assert abs0 == pytest.approx(math.hypot(re0, im0), rel=1e-10)
        script = plot.read_text()
        assert str(out) in script and "envelope" in script


    def test_envelope_column_is_nan_for_the_cube_and_at_the_origin(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fourier", "--body", "cube", "--points", "16", "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        assert all(row[-1] == "nan" for row in rows)
        assert main(["fourier", "--z-lo", "0", "--points", "16", "--out", str(out)]) == 0
        _, rows, _ = read_csv(out)
        assert rows[0][-1] == "nan" and all(math.isfinite(float(row[-1])) for row in rows[1:])


class TestRatesCommand:
    def test_ladder_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rates", "--measure", "radial:2,1,1", "--points", "10",
                     "--p-lo", "10", "--p-hi", "120", "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["p", "t_1", "t_2", "I", "theta_fit_running"]
        assert len(rows) == 10
        vals = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # the running fit needs 8 points before it reports anything
        assert all(r[4] == "nan" for r in rows[:7])
        assert float(rows[-1][4]) == pytest.approx(-2.0, abs=0.3)

    def test_budget_failure_exits_3(self, tmp_path, capsys):
        # an unreachable tolerance on the oscillatory box integrand must
        # surface as a numeric failure, not silence or a crash
        rc = main(["rates", "--body", "cube", "--measure", "aniso:1.3,0.8;1,1;1",
                   "--direction", "137.3,912.7", "--p-lo", "1", "--p-hi", "1",
                   "--points", "1", "--tol", "1e-300",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["ball:1", "ellipsoid:2,1", "cube"])
    def test_huge_support_refused_by_panel_budget(self, tmp_path, capsys, body):
        # a finite, in-range support of 1e150 would need ~1e153 radial
        # panels; the budget refuses it before anything is allocated
        out = tmp_path / "r.csv"
        start = time.perf_counter()
        rc = main(["rates", "--body", body, "--measure", "radial:2,1e150,1",
                   "--points", "2", "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("ergrates: numeric failure:") and err.count("\n") == 1
        assert "support 1e+150" in err and "t=[10.0, 10.0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("dim, measure, support, t", [
        ("3", "radial:2,1e150,1", "1e+150", "[10.0, 10.0, 10.0]"),
        ("2", "radial:0.5,1e308,1", "1e+308", "[10.0, 10.0]"),
    ], ids=["d3-1e150", "d2-inf-product"])
    def test_cube_huge_support_refused_up_front(self, tmp_path, capsys, dim, measure,
                                                support, t):
        # the cube's angular breaks grow with t * rho, which overflows to
        # inf for a support of 1e308; the budget refuses both cases first
        out = tmp_path / "r.csv"
        start = time.perf_counter()
        rc = main(["rates", "--body", "cube", "--dim", dim, "--measure", measure,
                   "--points", "2", "--out", str(out)])
        assert time.perf_counter() - start < 10.0
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("ergrates: numeric failure:") and err.count("\n") == 1
        assert f"support {support}" in err and f"t={t}" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_identity_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--action", "demo20", "--t", "10,10|40,40",
                     "--out", str(out)]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["t_1", "t_2", "norm_sq", "i_k_atomic", "abs_diff"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[2]) > 0
            assert float(row[4]) < 1e-10

    def test_missing_action_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "s.csv")]) == 2
        assert "config error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_theorem1_canonical_example(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "1", "--body", "ball:1",
                     "--measure", "radial:2,1,1", "--phi", "power:2",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "consistent with equivalence"
        assert rep["evidence"]["consistent"] is True
        assert rep["sup_ratios"]["decay_over_phi"] > 0
        assert "config_hash" in rep and "version" in rep

    def test_theorem2_atomic(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "2",
                     "--measure", "atomic:[(1,0;1),(0,2;4)]",
                     "--points", "10", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["evidence"]["singular_state"] == "finite"
        assert rep["evidence"]["consistent"] is True

    def test_theorem2_infinite_singular_integral_is_strict_json(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "2", "--measure", "radial:2,1,1",
                     "--points", "4", "--out", str(out)]) == 0
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text

        def refuse(token):
            raise ValueError(f"non-strict JSON token {token}")

        rep = json.loads(text, parse_constant=refuse)
        assert rep["evidence"]["singular_state"] == "infinite"
        assert rep["evidence"]["singular_integral"] is None

    def test_theorem2_aniso_finite_at_large_total_mass(self, tmp_path):
        # sum(alpha) = 4 > d + 1: finite at every total mass, here 2.34e12
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "2", "--measure", "aniso:2,2;1,1;1e12",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "consistent with equivalence"
        assert rep["evidence"]["singular_state"] == "finite"
        assert rep["evidence"]["singular_integral"] == pytest.approx(2.343145750507e12, rel=1e-12)

    def test_theorem2_two_points_run_with_clean_stderr(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "2", "--points", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(json.loads(out.read_text())["evidence"]["p"]) == 10

    def test_json_writer_maps_non_finite_floats_to_null(self):
        report = {"a": math.inf, "b": [1.5, -math.inf, (math.nan, 2.0)],
                  "c": {"d": np.float64(math.inf), "e": 0.25}}
        rep = json.loads(_json_text(report, {}))
        assert rep["a"] is None and rep["b"] == [1.5, None, [None, 2.0]]
        assert rep["c"] == {"d": None, "e": 0.25}

    def test_theorem3_excluded(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3",
                     "--measure", "atomic:[(0.9,0.7;1)]",
                     "--points", "120", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["evidence"]["rate_excluded"] is True
        assert rep["fit"]["theta_hat"] == pytest.approx(-3.0, abs=0.1)

    def test_theorem3_zero_measure(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--theorem", "3", "--measure", "atomic:[]",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert "trivially" in rep["verdict"]
        assert rep["sup_ratios"]["scaled_decay"] == 0.0

    def test_config_problems_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "v.json")
        assert main(["verify", "--out", out]) == 2
        assert main(["verify", "--theorem", "7", "--out", out]) == 2
        assert main(["verify", "--theorem", "1", "--out", out]) == 2  # no phi
        assert main(["verify", "--theorem", "2", "--measure", "radial:-1,1,1",
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert "gamma must be positive" in err


class TestInputValidation:
    @pytest.mark.parametrize("argv, fragment", [
        (["rates", "--measure", "atomic:[(1,0;nan)]"], "finite"),
        (["rates", "--measure", "atomic:[(inf,0;1)]"], "finite"),
        (["rates", "--measure", "radial:2,inf,1"], "finite"),
        (["rates", "--measure", "aniso:1.5,0.7;1,inf;1"], "finite"),
        (["rates", "--tol", "0"], "tol"),
        (["rates", "--tol", "nan"], "tol"),
        (["verify", "--theorem", "2", "--tol", "inf"], "tol"),
        (["rates", "--measure", "radial:2,1e200,1"], "floating-point range"),
        (["rates", "--measure", "radial:400,10,1"], "floating-point range"),
        (["rates", "--measure", "aniso:2,2;1e200,1;1"], "floating-point range"),
        (["rates", "--measure", "radial:2,1e-200,1"], "floating-point range"),
        (["rates", "--measure", "aniso:2,2;1e-200,1;1"], "floating-point range"),
    ], ids=["atomic-nan-weight", "atomic-inf-coordinate", "radial-inf-radius",
            "aniso-inf-halfwidth", "tol-zero", "tol-nan", "verify-tol-inf",
            "radial-huge-radius", "radial-huge-gamma", "aniso-huge-halfwidth",
            "radial-tiny-radius", "aniso-tiny-halfwidth"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, argv, fragment):
        out = tmp_path / "out.txt"
        assert main(argv + ["--points", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ergrates: config error:") and err.count("\n") == 1
        assert fragment in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys, name):
        out = tmp_path / "r.csv"
        assert main(["rates", "--config", str(tmp_path / name), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ergrates: config error: cannot read config") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["rates", "--out", "{tmp}/missing/r.csv"],
        ["rates", "--out", "{tmp}"],
        ["fourier", "--out", "{tmp}/f.csv", "--plot", "{tmp}/missing/f.gp"],
    ], ids=["rates-missing-directory", "rates-directory", "fourier-plot-missing-directory"])
    def test_unwritable_output_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr("ergrates.rates.decay_integral", no_work)
        monkeypatch.setattr("ergrates.cli.indicator_ft", no_work)
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ergrates: config error: cannot write") and err.count("\n") == 1
        assert not (tmp_path / "f.csv").exists()

    def test_zero_direction_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["fourier", "--direction", "0,0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "ergrates: config error: direction must be nonzero\n"
        assert not out.exists()


class TestClassifyCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", "--alpha", "1.5,1.5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "SquareBetter"
        assert rep["radial_consistency"]["matches_circle"] is True

    def test_r_mode_flag(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", "--alpha", "1,1,3", "--r-mode", "at-max",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["r"] == 0

    def test_bad_alpha_exits_2(self, tmp_path):
        assert main(["classify", "--alpha", "1,zebra",
                     "--out", str(tmp_path / "c.json")]) == 2


class TestRegionmapCommand:
    def test_counts_and_plot(self, tmp_path):
        out, plot = tmp_path / "m.csv", tmp_path / "m.gp"
        assert main(["regionmap", "--grid", "0:4:24", "--out", str(out),
                     "--plot", str(plot)]) == 0
        header, rows, comments = read_csv(out)
        assert header == ["alpha1", "alpha2", "square_family", "square_log",
                          "circle_family", "circle_log", "verdict"]
        assert len(rows) > 24 * 24
        assert "# square-labels = 5" in comments
        assert "# circle-labels = 3" in comments
        assert "multiplot" in plot.read_text()

    def test_bad_grid_exits_2(self, tmp_path):
        out = str(tmp_path / "m.csv")
        assert main(["regionmap", "--grid", "1:4:24", "--out", out]) == 2
        assert main(["regionmap", "--grid", "0:4", "--out", out]) == 2
        assert main(["regionmap", "--grid", "0:4:7", "--out", out]) == 2


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        args = ["verify", "--theorem", "2", "--measure", "atomic:[(1,0;1),(0,2;4)]",
                "--points", "10"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        # the out path itself enters the config hash, so compare payloads
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        ra.pop("config_hash"), rb.pop("config_hash")
        assert ra == rb

    def test_regionmap_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["regionmap", "--grid", "0:4:24", "--out", str(a)]) == 0
        assert main(["regionmap", "--grid", "0:4:24", "--out", str(b)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines()
                           if not ln.startswith("# config-hash")]
        assert strip(a) == strip(b)


class TestPinnedArtifacts:
    """sha256 of each artifact's lines above its config hash, as the per-point
    classification and envelope loops wrote them; the array passes must
    reproduce every byte."""

    @pytest.mark.parametrize("argv,digest", [
        (["regionmap", "--grid", "0:4:201"],
         "e2e181b3fb8d3fe990ddd4e0db5011d34b6b0bb6bc66269baa234b006542ba61"),
        (["fourier", "--body", "ellipsoid:2,1", "--direction", "0.3,-0.7",
          "--z-lo", "1", "--z-hi", "300", "--points", "1000"],
         "34c73d2f659198055062ff5bfe8a13d1ddea89b6356e59f086df26813ff168f1"),
        (["fourier", "--body", "ball:1", "--dim", "3", "--direction", "0,0,1",
          "--z-lo", "0", "--z-hi", "40", "--points", "333"],
         "36156b5011faa26724383dec7e42866b3f55f47aab97a68f0a5785b3aaa95d1d"),
        (["fourier", "--body", "cube", "--direction", "1,2",
          "--z-lo", "1", "--z-hi", "300", "--points", "1000"],
         "dc19955ea92c0437ff189e0507baff2fe58877a4b99d6685495daf09c2b9e1d1"),
    ], ids=["regionmap", "fourier-ellipsoid", "fourier-ball3-origin", "fourier-cube"])
    def test_bytes_above_the_config_hash(self, argv, digest, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "a.csv"]) == 0
        text = (tmp_path / "a.csv").read_bytes()
        assert hashlib.sha256(text[:text.index(b"# config-hash")]).hexdigest() == digest


class TestOversizedArtifacts:
    @pytest.mark.parametrize("argv,message", [
        (["regionmap", "--grid", "0:4:1001"], "grid resolution must be at most 1000, got 1001"),
        (["fourier", "--points", "1000001"], "points must be at most 1000000, got 1000001"),
        (["fourier", "--points", "1000000000"], "points must be at most 1000000, got 1000000000"),
        (["rates", "--points", "1000000000"], "points must be at most 1000000, got 1000000000"),
        (["verify", "--theorem", "2", "--measure", "atomic:[(1,0;1)]", "--points", "1000000000"],
         "points must be at most 1000000, got 1000000000"),
        (["rates", "--points", "0"], "points must be at least 1, got 0"),
        (["verify", "--theorem", "1", "--phi", "power:2", "--points", "0"],
         "points must be at least 1, got 0"),
        (["verify", "--theorem", "3", "--points", "-3"], "points must be at least 1, got -3"),
        (["fourier", "--points", "0"], "points must be at least 1, got 0"),
        (["verify", "--theorem", "2", "--points", "1"],
         "theorem 2 needs points >= 2: its boundedness trend is fitted over distinct |t|, "
         "got points = 1"),
    ], ids=["regionmap", "fourier", "fourier-1e9", "rates-1e9", "verify-1e9", "rates-0",
            "verify-0", "verify-negative", "fourier-0", "verify2-one-point"])
    def test_refused_before_any_work(self, argv, message, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before the size was checked")

        monkeypatch.setattr("ergrates.classify.region_map", no_work)
        monkeypatch.setattr("ergrates.cli.indicator_ft", no_work)
        monkeypatch.setattr("ergrates.cli.np.linspace", no_work)
        monkeypatch.setattr("ergrates.cli.np.geomspace", no_work)
        out = tmp_path / "a.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ergrates: config error: {message}\n"
        assert not out.exists()


class TestTopLevel:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2
        capsys.readouterr()


class TestParserReuse:
    """main() builds its parser once per process; no option value of one call
    may reach the next, whatever failed or printed help in between."""

    RUNS = [
        ["fourier", "--body", "ellipsoid:2,1", "--direction", "0.3,-0.7", "--z-lo", "2",
         "--z-hi", "50", "--points", "24", "--plot", "a.gp"],
        ["fourier"],
        ["rates", "--body", "cube", "--measure", "aniso:1.3,0.8;1,1;1", "--direction", "1,2",
         "--p-lo", "5", "--p-hi", "40", "--points", "3", "--tol", "1e-4"],
        ["rates", "--p-hi", "40", "--points", "3"],
        ["simulate", "--action", "demo20", "--t", "10,10|40,40"],
        ["simulate", "--action", "demo20"],
        ["verify", "--theorem", "1", "--measure", "aniso:1.2,0.9;1,1;1", "--phi", "mono:1.2,0.9",
         "--direction", "1,2", "--p-lo", "10", "--p-hi", "40", "--points", "3"],
        ["verify", "--theorem", "2", "--measure", "atomic:[(1,0;1),(0,2;4)]", "--points", "4",
         "--sector", "3", "--no-sector"],
        ["verify", "--theorem", "2", "--measure", "atomic:[(1,0;1),(0,2;4)]", "--points", "4"],
        ["classify", "--alpha", "2,1", "--r-mode", "at-max"],
        ["classify", "--alpha", "1,1"],
        ["regionmap", "--grid", "0:4:24", "--r-mode", "at-max", "--plot", "a.gp"],
        ["regionmap", "--grid", "0:3:16"],
    ]

    @staticmethod
    def _files(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    def test_in_process_calls_match_fresh_interpreters(self, tmp_path, monkeypatch, capsys):
        runs = [argv + ["--out", "a.json" if argv[0] in ("verify", "classify") else "a.csv"]
                for argv in self.RUNS]
        code = "import sys; from ergrates.cli import main; sys.exit(main(sys.argv[1:]))"
        env = dict(os.environ, PYTHONPATH=SRC_DIR)

        def fresh(k):
            (tmp_path / f"fresh{k}").mkdir()
            return subprocess.run([sys.executable, "-c", code, *runs[k]], cwd=tmp_path / f"fresh{k}",
                                  env=env, capture_output=True, timeout=120).returncode

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(fresh, range(len(runs)))) == [0] * len(runs)
        for round_ in range(2):
            for k, argv in enumerate(runs):
                here = tmp_path / f"in{round_}-{k}"
                here.mkdir()
                monkeypatch.chdir(here)
                assert main(argv) == 0
                assert main([argv[0], "--points", "many"]) == 2
                assert main([argv[0], "--help"]) == 0
                assert self._files(here) == self._files(tmp_path / f"fresh{k}"), argv
        capsys.readouterr()
