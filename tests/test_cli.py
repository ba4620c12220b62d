import json
from pathlib import Path

import pytest

from kdvrmt import cli


def write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def read_bytes(*paths):
    return tuple(Path(p).read_bytes() for p in paths)


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        cfg = cli._parse_config(
            write_config(tmp_path / "c.cfg", "a = 1\n# comment\nb = x,y # tail\n\n")
        )
        assert cfg == {"a": "1", "b": "x,y"}

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._parse_config(write_config(tmp_path / "c.cfg", "not a pair\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        # a repeated key must not silently keep its last value
        path = write_config(tmp_path / "c.cfg", "t_grid = 0.3\n# again\nt_grid = 0.25\n")
        with pytest.raises(ValueError, match=r"c\.cfg:3: duplicate key 't_grid'"):
            cli._parse_config(path)


class TestKdvPhase:
    def test_default_run_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "t_grid = 0.23, 0.25\n")
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(out2)]) == 0
        a_csv, b_csv = read_bytes(out1 / "kdv_phase.csv", out2 / "kdv_phase.csv")
        assert a_csv == b_csv
        a_json, b_json = read_bytes(out1 / "kdv_phase.json", out2 / "kdv_phase.json")
        assert a_json == b_json
        lines = a_csv.decode().strip().splitlines()
        assert lines[0] == "t,x_minus,x_plus"
        assert len(lines) == 3
        # widths positive and increasing
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        widths = [r[2] - r[1] for r in rows]
        assert widths[0] > 0 and widths[1] > widths[0]

    def test_grid_below_catastrophe_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "t_grid = 0.1\n")
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_empty_grid_empty_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "t_grid =\n")
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "kdv_phase.csv").read_text().strip().splitlines()
        assert lines == ["t,x_minus,x_plus"]

    def test_sampled_csv_data(self, tmp_path):
        # a sech2 profile sampled on 401 points, read through csv:PATH;
        # the theta quadrature cannot resolve the piecewise-cubic f_L', so
        # every row is marked, while t_c = sqrt(3)/8 holds to the pchip
        # slope error O(h^2)
        import math

        import numpy as np

        from kdvrmt import hopf

        xs = np.linspace(-15.0, 15.0, 401)
        path = tmp_path / "profile.csv"
        np.savetxt(path, np.column_stack([xs, hopf.make_sech2_data().u0(xs)]), delimiter=",")
        cfg = write_config(tmp_path / "c.cfg", f"initial_data = csv:{path}\nt_grid = 0.25\n")
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(tmp_path)]) == 2
        doc = json.loads((tmp_path / "kdv_phase.json").read_text())
        assert doc["failed_rows"] == doc["rows"] == 1
        assert doc["t_c"] == pytest.approx(math.sqrt(3.0) / 8.0, abs=(xs[1] - xs[0]) ** 2)

    def test_partial_failure_exit_code(self, tmp_path):
        # 0.5 is beyond the trailing validity window: row marked, exit 2
        cfg = write_config(tmp_path / "c.cfg", "t_grid = 0.25, 0.5\n")
        assert cli.main(["kdv-phase", "--config", cfg, "--out", str(tmp_path)]) == 2
        doc = json.loads((tmp_path / "kdv_phase.json").read_text())
        assert doc["failed_rows"] == 1
        assert "config_sha256" in doc
        # the manifest names the marked row and why it failed
        [failure] = doc["failures"]
        assert failure["t"] == 0.5
        assert "end of the validity window" in failure["error"]


class TestKdvCompare:
    def test_hopf_window_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg",
            "eps_list = 0.2, 0.1\nwindow = hopf\nt = 0.1\nn_probe = 11\n",
        )
        assert cli.main(["kdv-compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "kdv_compare.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,max_error"
        errs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert errs[0] > errs[1]

    def test_single_eps_row(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "eps_list = 0.2\nwindow = hopf\nt = 0.05\n")
        assert cli.main(["kdv-compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "kdv_compare.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_unknown_window_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "window = bogus\n")
        assert cli.main(["kdv-compare", "--config", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "window,key", [("leading", "x_lo"), ("leading", "x_hi"), ("hopf", "halfwidth_scale")]
    )
    def test_key_the_window_never_reads_rejected(self, tmp_path, capsys, window, key):
        cfg = write_config(tmp_path / "c.cfg", f"window = {window}\nt = 0.4\n{key} = -9\n")
        assert cli.main(["kdv-compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "kdv_compare.csv").exists()

    @pytest.mark.parametrize("window", ["hopf", "leading"])
    def test_no_probe_points_rejected(self, tmp_path, capsys, window):
        cfg = write_config(tmp_path / "c.cfg", f"window = {window}\nt = 0.4\nn_probe = 0\n")
        assert cli.main(["kdv-compare", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "n_probe must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "kdv_compare.csv").exists()


class TestRmtPhase:
    def test_edge_cell_classified(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "x_grid = 0.0\nt_grid = 1.0\n")
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rmt_phase.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[2] == "edge_III"

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "x_grid = -4.0, -3.5\nt_grid = 9.0\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(out2)]) == 0
        assert read_bytes(out1 / "rmt_phase.csv") == read_bytes(out2 / "rmt_phase.csv")

    def test_two_cut_cell_detected(self, tmp_path):
        # at (0, 9) a single-well candidate exists but violates the
        # inequality on the far well: classified, not failed
        cfg = write_config(tmp_path / "c.cfg", "x_grid = 0.0\nt_grid = 9.0\n")
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(tmp_path)]) == 0
        line = (tmp_path / "rmt_phase.csv").read_text().strip().splitlines()[1]
        assert line.split(",")[2] == "exterior_I"
        assert float(line.split(",")[3]) < 0.0

    def test_failed_cells_marked_partial(self, tmp_path):
        # at (-2, 9) no admissible one-cut candidate exists at all
        cfg = write_config(tmp_path / "c.cfg", "x_grid = -2.0\nt_grid = 9.0\n")
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(tmp_path)]) == 2
        doc = json.loads((tmp_path / "rmt_phase.json").read_text())
        assert doc["failed_cells"] == 1
        [failure] = doc["failures"]
        assert (failure["x"], failure["t"]) == (-2.0, 9.0)
        assert "no valid one-cut endpoint solution found" in failure["error"]


class TestOpTable:
    def test_gaussian_regular_table(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "which = regular\nx = 0.0\nt = 0.0\nn_range = 4, 6, 8\n"
        )
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "op_table.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        errs = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert max(errs) < 1e-10
        doc = json.loads((tmp_path / "op_table.json").read_text())
        assert doc["which"] == "regular"

    def test_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "which = regular\nx = 0.0\nt = 0.0\nn_range = 4, 6\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["op-table", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["op-table", "--config", cfg, "--out", str(out2)]) == 0
        assert read_bytes(out1 / "op_table.csv") == read_bytes(out2 / "op_table.csv")


    def test_failing_row_marked(self, tmp_path):
        # at n = 80 the edge scaling argument X leaves the solved domain
        cfg = write_config(
            tmp_path / "c.cfg", "which = edge\nx = 1.0\nt = 1.0\nn_range = 8, 80\n"
        )
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "op_table.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert "nan" not in lines[1]
        assert lines[2].split(",")[2:4] == ["nan", "nan"]
        doc = json.loads((tmp_path / "op_table.json").read_text())
        assert [f["n"] for f in doc["failures"]] == [80]
        assert "outside the solved domain" in doc["failures"][0]["error"]

    def test_size_below_one_rejected(self, tmp_path, capsys):
        # n = 0 has no recurrence coefficient to compare: a config error,
        # not a marked row
        cfg = write_config(tmp_path / "c.cfg", "n_range = 0, 4\n")
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "n_range" in capsys.readouterr().err
        assert not (tmp_path / "op_table.csv").exists()

    def test_interior_off_the_t9_line_rejected(self, tmp_path, capsys):
        # the interior expansion carries the critical data of t = 9 only
        cfg = write_config(tmp_path / "c.cfg", "which = interior\nx = -3.3\nt = 0.5\nn_range = 8\n")
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "t must be 9" in capsys.readouterr().err
        assert not (tmp_path / "op_table.csv").exists()

    def test_interior_rows_outside_the_window_marked(self, tmp_path, capsys):
        # at x = 0 both rows have |s_xn| > n^(1/6): marked, not warned about
        cfg = write_config(tmp_path / "c.cfg", "which = interior\nx = 0.0\nt = 9.0\nn_range = 8, 16\n")
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "op_table.json").read_text())
        assert [f["n"] for f in doc["failures"]] == [8, 16]
        assert all("outside the double-scaling window" in f["error"] for f in doc["failures"])

    def test_regular_without_onecut_marks_rows(self, tmp_path):
        # x = x* + 1 on t = 9 has no one-cut solution: the numeric columns
        # stay, the one-cut limit columns are NaN and every row names it
        cfg = write_config(
            tmp_path / "c.cfg", "which = regular\nx = -2.3040336332085074\nt = 9.0\nn_range = 4, 8\n"
        )
        assert cli.main(["op-table", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "op_table.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cols = line.split(",")
            assert "nan" not in (cols[1], cols[4])
            assert [cols[i] for i in (2, 3, 5, 6)] == ["nan"] * 4
        doc = json.loads((tmp_path / "op_table.json").read_text())
        assert [f["n"] for f in doc["failures"]] == [4, 8]
        assert all("one-cut" in f["error"] for f in doc["failures"])


class TestTodaRun:
    def test_flow_is_validated_without_steps(self, tmp_path, capsys):
        # steps = 0 runs no flow, but flow_k still has to name one
        cfg = write_config(tmp_path / "c.cfg", "flow_k = 0\nsteps = 0\n")
        assert cli.main(["toda-run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "k >= 1" in capsys.readouterr().err
        assert not (tmp_path / "toda_run.json").exists()

    def test_non_finite_dt_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", "dt = nan\nsteps = 5\n")
        assert cli.main(["toda-run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "dt must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [("N = 0\n", "N must be >= 1"), ("N = -5\n", "N must be >= 1"), ("n_max = 0\n", "n_max must be >= 1")],
    )
    def test_empty_or_negative_sizes_rejected(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "c.cfg", text)
        assert cli.main(["toda-run", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "toda_state.csv").exists()

    def test_zero_steps_echoes_input(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "N = 20\nn_max = 16\nsteps = 0\n")
        assert cli.main(["toda-run", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "toda_state.csv").read_text().strip().splitlines()
        import math

        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(math.sqrt(1.0 / 20.0), rel=1e-15)
        assert float(first[2]) == 0.0

    def test_flow_manifest_records_drift(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "N = 20\nn_max = 24\nflow_k = 1\ndt = 0.002\nsteps = 25\n"
        )
        assert cli.main(["toda-run", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "toda_run.json").read_text())
        assert doc["spectrum_drift"] < 1e-7
        assert doc["times"]["1"] == pytest.approx(0.05)

    def test_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.cfg", "N = 12\nn_max = 12\nflow_k = 2\ndt = 0.002\nsteps = 10\n"
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["toda-run", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["toda-run", "--config", cfg, "--out", str(out2)]) == 0
        assert read_bytes(out1 / "toda_state.csv") == read_bytes(out2 / "toda_state.csv")
        assert read_bytes(out1 / "toda_run.json") == read_bytes(out2 / "toda_run.json")


@pytest.mark.parametrize(
    "command,key",
    [
        ("kdv-phase", "t_grd"),
        ("kdv-compare", "t_grd"),
        ("rmt-phase", "t_grd"),
        ("op-table", "t_grd"),
        ("op-table", "dps"),  # the recurrence runs in float64; no precision knob
        ("toda-run", "t_grd"),
    ],
)
def test_unknown_config_key_rejected(tmp_path, command, key, capsys):
    # a misspelled key must not fall back silently to the default
    cfg = write_config(tmp_path / "c.cfg", f"{key} = 0.3\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "c.cfg", "window = hopf\neps_list = 0.2\n")
    out = tmp_path / "out"
    assert cli.main(["kdv-compare", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text,key",
    [
        ("kdv-phase", "t_grid = 0.22, inf\n", "t_grid"),
        ("rmt-phase", "x_grid = nan\n", "x_grid"),
        ("kdv-compare", "t = nan\n", "t"),
        ("op-table", "x = -inf\n", "x"),
    ],
)
def test_non_finite_value_rejected(tmp_path, capsys, command, text, key):
    # a non-finite number is a config error, not an internal or a row failure
    cfg = write_config(tmp_path / "c.cfg", text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_jobs_rejected_where_serial(tmp_path, capsys):
    # only kdv-compare runs its eps list on threads; elsewhere --jobs K > 1
    # would be ignored, so it is refused before anything runs
    for command in ("kdv-phase", "rmt-phase", "op-table", "toda-run"):
        out = tmp_path / command
        assert cli.main([command, "--jobs", "2", "--out", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess, sys

        cfg = write_config(tmp_path / "c.cfg", "t_grid =\n")
        proc = subprocess.run(
            [sys.executable, "-m", "kdvrmt.cli", "kdv-phase", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True,
        )
        assert proc.returncode == 0

    # scipy subpackages that only some paths need load at first use; the
    # rmt side (rmt-phase, an edge op-table, toda-run) reaches none of them
    DEFERRED = ("mpmath", "scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.fft")

    @pytest.mark.parametrize(
        "command,config",
        [
            (None, ""),
            ("rmt-phase", "x_grid = 0.0\nt_grid = 1.0\n"),
            ("op-table", "which = edge\nx = 1.0\nt = 1.0\nn_range = 8\n"),
            ("toda-run", "N = 12\nn_max = 12\nflow_k = 1\ndt = 0.002\nsteps = 10\n"),
        ],
        ids=["import", "rmt-phase", "op-table", "toda-run"],
    )
    def test_loads_no_deferred_subpackage(self, tmp_path, command, config):
        import subprocess, sys

        run = ""
        if command is not None:
            cfg = write_config(tmp_path / "c.cfg", config)
            argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
            run = f"assert kdvrmt.cli.main({argv!r}) == 0\n"
        script = (
            "import sys, kdvrmt, kdvrmt.cli\n"
            + run
            + f"loaded = [m for m in {self.DEFERRED!r} if m in sys.modules]\n"
            + "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    # the edge ladders' Gauss-Jacobi table is read on the first request for
    # one of its rules, never at import and never by the rmt side
    @pytest.mark.parametrize(
        "command,config,reads",
        [
            (None, "", 0),
            ("rmt-phase", "x_grid = 0.0\nt_grid = 1.0\n", 0),
            ("kdv-phase", "t_grid = 0.22\n", 1),
        ],
        ids=["import", "rmt-phase", "kdv-phase"],
    )
    def test_jacobi_table_read_on_first_use(self, tmp_path, command, config, reads):
        import subprocess, sys

        run = ""
        if command is not None:
            cfg = write_config(tmp_path / "c.cfg", config)
            argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
            run = f"assert kdvrmt.cli.main({argv!r}) == 0\n"
        script = (
            "import kdvrmt, kdvrmt.cli\n"
            + run
            + f"assert kdvrmt.core._jacobi_table.cache_info().misses == {reads}\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    # the KdV side finds its roots by bisection and the interior op-table
    # integrates omega by a fixed Gauss-Legendre rule, so neither reaches
    # scipy's root finders or adaptive quadrature
    @pytest.mark.parametrize(
        "command,config",
        [
            ("kdv-phase", "t_grid = 0.22\n"),
            ("kdv-compare", "window = hopf\neps_list = 0.2\n"),
            ("op-table", "which = interior\nx = -3.3\nt = 9.0\nn_range = 8\n"),
        ],
        ids=["kdv-phase", "kdv-compare", "op-table-interior"],
    )
    def test_loads_no_optimize_or_integrate(self, tmp_path, command, config):
        import subprocess, sys

        cfg = write_config(tmp_path / "c.cfg", config)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        script = (
            "import sys, kdvrmt.cli\n"
            f"assert kdvrmt.cli.main({argv!r}) == 0\n"
            "loaded = [m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_no_module_imports_scipy_integrate(self):
        # the IVP and adaptive-quadrature routes are test oracles
        # (tests/oracles.py); the package itself never needs them
        import ast

        offenders = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "kdvrmt").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(f"{name}.".startswith("scipy.integrate.") for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders


class TestOutputContract:
    """Each subcommand's CSV header, manifest keys and failure entries.

    Every config marks at least one row (toda-run marks none), so each
    failure entry is checked against the command's key columns.
    """

    COMMON = {"command", "config", "config_sha256"}
    CASES = {
        "kdv-phase": (
            "t_grid = 0.25, 0.5\n",
            "t,x_minus,x_plus",
            {"t_c", "x_c", "rows", "failed_rows", "failures"},
            {"t"},
        ),
        "kdv-compare": (
            # sampled data: the pchip profile's spectrum cannot fall to 1e-6
            "initial_data = csv:{profile}\nwindow = hopf\neps_list = 0.2\nn_probe = 3\n",
            "eps,max_error",
            {"window", "t", "failures"},
            {"eps"},
        ),
        "rmt-phase": (
            "x_grid = -2.0, 0.0\nt_grid = 9.0\n",
            "x,t,class,margin",
            {"rows", "failed_cells", "failures"},
            {"x", "t"},
        ),
        "op-table": (
            "which = edge\nx = 1.0\nt = 1.0\nn_range = 8, 80\n",
            "n,gamma_num,gamma_asym,err_gamma,beta_num,beta_asym,err_beta",
            {"which", "fitted_exponent", "failures"},
            {"n"},
        ),
        "toda-run": (
            "N = 12\nn_max = 12\nflow_k = 1\ndt = 0.002\nsteps = 10\n",
            "n,gamma,beta",
            {"N", "n_max", "flow_k", "dt", "steps", "times", "spectrum_drift"},
            None,
        ),
    }
    FILES = {
        "kdv-phase": ("kdv_phase.csv", "kdv_phase.json"),
        "kdv-compare": ("kdv_compare.csv", "kdv_compare.json"),
        "rmt-phase": ("rmt_phase.csv", "rmt_phase.json"),
        "op-table": ("op_table.csv", "op_table.json"),
        "toda-run": ("toda_state.csv", "toda_run.json"),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_header_manifest_and_failure_entries(self, tmp_path, command):
        import numpy as np

        from kdvrmt import hopf

        config, header, extra, key_columns = self.CASES[command]
        xs = np.linspace(-15.0, 15.0, 401)
        profile = tmp_path / "profile.csv"
        np.savetxt(profile, np.column_stack([xs, hopf.make_sech2_data().u0(xs)]), delimiter=",")
        cfg = write_config(tmp_path / "c.cfg", config.format(profile=profile))
        out = tmp_path / "out"
        code = cli.main([command, "--config", cfg, "--out", str(out)])
        csv_name, manifest_name = self.FILES[command]
        assert sorted(p.name for p in out.iterdir()) == sorted((csv_name, manifest_name))
        assert (out / csv_name).read_text().splitlines()[0] == header
        doc = json.loads((out / manifest_name).read_text())
        assert set(doc) == self.COMMON | extra
        assert doc["command"] == command
        if key_columns is None:
            assert code == 0
            return
        assert code == 2 and doc["failures"]
        for failure in doc["failures"]:
            assert set(failure) == key_columns | {"error"}
            assert failure["error"]

    def test_rmt_failed_class_exactly_when_error(self, tmp_path):
        # the class column says "failed" on exactly the cells the manifest
        # lists, and the sweep's rows carry an error on exactly those cells
        from kdvrmt import rmt_eq

        x_grid, t_grid = [-2.0, 0.0], [9.0]
        rows = rmt_eq.rmt_phase_diagram(x_grid, t_grid)
        assert [r["class"] == "failed" for r in rows] == [bool(r["error"]) for r in rows] == [True, False]
        cfg = write_config(tmp_path / "c.cfg", "x_grid = -2.0, 0.0\nt_grid = 9.0\n")
        assert cli.main(["rmt-phase", "--config", cfg, "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "rmt_phase.csv").read_text().strip().splitlines()[1:]
        failed = [tuple(map(float, ln.split(",")[:2])) for ln in lines if ln.split(",")[2] == "failed"]
        doc = json.loads((tmp_path / "rmt_phase.json").read_text())
        assert [(f["x"], f["t"]) for f in doc["failures"]] == failed == [(-2.0, 9.0)]
        assert doc["failed_cells"] == 1 and doc["rows"] == 2


@pytest.mark.parametrize(
    "config",
    ["window = hopf\nt = 0.1\neps_list = 0.2, 0.1\nn_probe = 11\n", "window = leading\nt = 0.3\neps_list = 0.2, 0.15\n"],
    ids=["hopf", "leading"],
)
def test_jobs_threads_write_the_serial_files(tmp_path, config):
    # kdv-compare maps its eps list on K threads; the rows, their order and
    # the manifest must not depend on K
    cfg = write_config(tmp_path / "c.cfg", config)
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    assert cli.main(["kdv-compare", "--config", cfg, "--out", str(serial), "--jobs", "1"]) == 0
    assert cli.main(["kdv-compare", "--config", cfg, "--out", str(threaded), "--jobs", "2"]) == 0
    names = ("kdv_compare.csv", "kdv_compare.json")
    assert read_bytes(*(serial / n for n in names)) == read_bytes(*(threaded / n for n in names))
