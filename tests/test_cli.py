"""CLI contract: exit codes, CSV shape, determinism, config precedence.

Every invocation goes through main(argv) in process; stdout is captured
and parsed with the strict reader below, which enforces the fixed column
count the format promises.
"""

import csv
import io
import math

import pytest

from isqwave import kernel
from isqwave.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, main

# columns that hold labels rather than numbers
TEXT_COLUMNS = {"function", "region", "classification", "check", "status",
                "jump_nonzero", "pass"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Strict reader: metadata dict, header tuple, rows as string lists."""
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        elif line:
            data_lines.append(line)
    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    table = list(reader)
    assert table, "no header row"
    header = tuple(table[0])
    rows = table[1:]
    for row in rows:
        assert len(row) == len(header), f"ragged row {row}"
        for name, cell in zip(header, row):
            if name not in TEXT_COLUMNS:
                float(cell)     # locale-free decimal floats throughout
    return meta, header, rows


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_bad_numeric_flag(self, capsys):
        code, _, err = run_cli(capsys, "front-scan", "--a", "much")
        assert code == EXIT_USAGE
        assert "usage" in err and "--a" in err

    def test_help_is_success(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK
        assert run_cli(capsys, "front-scan", "--help")[0] == EXIT_OK

    def test_front_scan_needs_t_beyond_r2(self, capsys):
        code, _, err = run_cli(capsys, "front-scan", "--t", "0.5",
                               "--reproducible")
        assert code == EXIT_USAGE
        assert "t > r2" in err

    def test_bad_trace_system(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--system", "sideways")
        assert code == EXIT_USAGE

    def test_unknown_specfun_function(self, capsys):
        assert run_cli(capsys, "specfun", "--function", "airy")[0] \
            == EXIT_USAGE

    def test_legendre_q_needs_argument_beyond_one(self, capsys):
        code, _, _ = run_cli(capsys, "specfun", "--function", "legendre-q",
                             "--arg-min", "0.5")
        assert code == EXIT_USAGE

    def test_comma_in_text_value(self, capsys):
        # the value lands in the CSV metadata, where a comma would split it
        code, out, err = run_cli(capsys, "specfun", "--function", "bessel,j")
        assert code == EXIT_USAGE
        assert "usage" in err and "commas" in err
        assert out == ""


class TestSpecfun:
    def test_half_order_bessel_row(self, capsys):
        code, out, _ = run_cli(capsys, "specfun", "--function", "bessel-j",
                               "--order", "0.5", "--arg-min", "1",
                               "--arg-max", "1", "--points", "1",
                               "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("function", "order", "argument", "value")
        assert len(rows) == 1
        exact = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        assert float(rows[0][3]) == pytest.approx(exact, rel=1e-12)

    def test_argument_above_the_envelope_is_a_usage_error(self, capsys):
        # bessel_j refuses z > 2^40, where its rounded phase drifts
        code, out, err = run_cli(capsys, "specfun", "--function", "bessel-j",
                                 "--order", "0.3", "--arg-min", "1",
                                 "--arg-max", "1e17", "--points", "3",
                                 "--reproducible")
        assert code == EXIT_USAGE
        assert "usage" in err and "2**40" in err
        assert out == ""

    def test_gamma_row(self, capsys):
        _, out, _ = run_cli(capsys, "specfun", "--function", "gamma",
                            "--arg-min", "5", "--arg-max", "5",
                            "--points", "1", "--reproducible")
        _, header, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(24.0, rel=1e-13)

    def test_gamma_half_is_root_pi(self, capsys):
        code, out, _ = run_cli(capsys, "specfun", "--function", "gamma",
                               "--arg-min", "0.5", "--arg-max", "0.5",
                               "--points", "1", "--reproducible")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("x", ["0", "-2.5", "172"])
    def test_gamma_outside_its_envelope_is_a_usage_error(self, capsys, x):
        # Gamma has a pole at 0 and overflows a double just above 171.62
        code, out, err = run_cli(capsys, "specfun", "--function", "gamma",
                                 "--arg-min", x, "--arg-max", x,
                                 "--points", "1", "--reproducible")
        assert code == EXIT_USAGE
        assert "usage" in err
        assert f"gamma requires 0 < x <= 171.62, got {float(x)!r}" in err
        assert out == ""


class TestFrontScan:
    def test_quarter_coupling_jump(self, capsys):
        code, out, _ = run_cli(capsys, "front-scan", "--a", "0.25", "--n",
                               "0", "--r2", "1", "--t", "2",
                               "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("delta", "side_ii", "side_iii", "difference",
                          "extrapolated")
        final = float(rows[-1][header.index("extrapolated")])
        assert final == pytest.approx(-0.5, abs=1e-3)
        assert float(meta["extrapolated_jump"]) == final

    def test_custom_offsets(self, capsys):
        code, out, _ = run_cli(capsys, "front-scan", "--deltas",
                               "0.008,0.004,0.002", "--reproducible")
        assert code == EXIT_OK
        meta, _, rows = parse_csv(out)
        assert len(rows) == 3
        assert meta["deltas_used"] == "0.008;0.004;0.002"

    @pytest.mark.parametrize("deltas", ["nan", "0.008,nan", "inf,0.004"])
    def test_non_finite_offsets_refused(self, capsys, deltas):
        # a NaN offset passed the sign check and met KernelPoint's message
        code, out, err = run_cli(capsys, "front-scan", "--deltas", deltas,
                                 "--reproducible")
        assert code == EXIT_CHECK
        assert out == ""
        assert "delta_list must hold positive finite offsets" in err

    def test_ladder_is_cone_limits_on_each_prefix(self, capsys, monkeypatch):
        # one kernel pair per offset; every extrapolated entry is the fit
        # through the cone_sides differences at the offsets up to its row
        calls = []
        evaluate = kernel.mode_kernel_rows

        def counted(m, points, *args, **kwargs):
            calls.extend(points)
            return evaluate(m, points, *args, **kwargs)

        monkeypatch.setattr(kernel, "mode_kernel_rows", counted)
        code, out, _ = run_cli(capsys, "front-scan", "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert len(calls) == 2 * len(rows) == 12
        deltas = [float(d) for d in meta["deltas_used"].split(";")]
        m = kernel.mode_params(0, 0.25)
        column = header.index("extrapolated")
        for k in range(1, len(rows)):
            prefix, sides = kernel.cone_sides(m, 1.0, 2.0, deltas[:k + 1])
            assert float(rows[k][column]) == kernel.extrapolate_to_cone(
                prefix, [iii - ii for iii, ii in sides])


class TestModeTable:
    def test_exclusion_row_at_a_three(self, capsys):
        code, out, _ = run_cli(capsys, "mode-table", "--a", "3", "--n-max",
                               "3", "--reproducible")
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ("n", "nu", "sin_pi_nu", "jump_nonzero")
        assert len(rows) == 4
        row1 = rows[1]
        assert row1[0] == "1"
        assert float(row1[1]) == pytest.approx(2.0, rel=1e-14)
        assert row1[3] == "false"
        assert rows[0][3] == "true" and rows[2][3] == "true"


class TestKernelGrid:
    def test_small_grid_regions(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-grid", "--r1-points", "3",
                               "--t-points", "3", "--r1-min", "0.4",
                               "--r1-max", "1.6", "--t-min", "0.3",
                               "--t-max", "2.3", "--reproducible")
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ("r1", "t", "region", "value")
        regions = set(column(header, rows, "region"))
        assert regions <= {"I", "II", "III"}
        for row in rows:
            if row[2] == "I":
                assert float(row[3]) == 0.0

    def test_cone_row_is_skipped(self, capsys):
        # r1 = 1, r2 = 1, t = 2 sits exactly on the outer cone
        code, out, _ = run_cli(capsys, "kernel-grid", "--r1-points", "1",
                               "--t-points", "1", "--r1-min", "1.0",
                               "--r1-max", "1.0", "--t-min", "2.0",
                               "--t-max", "2.0", "--reproducible")
        assert code == EXIT_OK
        meta, _, rows = parse_csv(out)
        assert rows == []
        assert meta["cone_rows_skipped"] == "1"

    def test_non_finite_coupling_is_named(self, capsys):
        # a nan coupling reached the quadrature as a non-finite integrand
        code, out, err = run_cli(capsys, "kernel-grid", "--a", "nan",
                                 "--reproducible")
        assert code == EXIT_CHECK
        assert out == ""
        assert "coupling a must be finite and >= 0, got nan" in err

    @pytest.mark.parametrize("option", ["--r1-max", "--r2", "--t-max"])
    def test_bound_below_zero_is_a_usage_error(self, capsys, option):
        code, out, err = run_cli(capsys, "kernel-grid", option, "-1")
        assert code == EXIT_USAGE
        assert "usage" in err and out == ""


class TestTrace:
    def test_inward_strike(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--xi", "1.0", "--samples",
                               "10", "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("s", "t", "r", "theta", "tau", "xi", "zeta",
                          "xi_hat", "sigma")
        assert meta["terminated"] == "origin"
        assert float(rows[-1][header.index("r")]) < 1e-6
        for cell in column(header, rows, "sigma"):
            assert abs(float(cell)) < 1e-10

    def test_row_cap(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--xi", "-0.4", "--zeta",
                            "0.6", "--samples", "12", "--reproducible")
        _, _, rows = parse_csv(out)
        assert 2 <= len(rows) <= 14


class TestOracleCompare:
    def test_default_quick_configuration(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-compare", "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("r1", "t", "analytic", "numeric", "rel_err")
        assert len(rows) == 8
        assert float(meta["max_rel_err"]) < 5e-3

    def test_tolerance_gate(self, capsys):
        code, _, err = run_cli(capsys, "oracle-compare", "--tol", "1e-9",
                               "--reproducible")
        assert code == EXIT_CHECK
        assert "exceeds tol" in err

    @pytest.mark.parametrize("spec", ["a:1.2", "0.7:nan", "0.7:inf",
                                      "0:1.2", "0.7:1.2:3"])
    def test_bad_sample_point_is_a_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "oracle-compare", "--points", spec)
        assert code == EXIT_USAGE
        assert "usage" in err and out == ""

    def test_field_dump(self, capsys, tmp_path):
        slab_path = tmp_path / "slab.csv"
        code, _, _ = run_cli(capsys, "oracle-compare", "--dump-field",
                             str(slab_path), "--dump-stride", "16",
                             "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(slab_path.read_text())
        assert header == ("r_index", "t_index", "value")
        assert len(rows) > 100
        assert len(set(column(header, rows, "t_index"))) >= 3


class TestEnergyAudit:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "energy-audit", "--dims", "3",
                               "--count", "2", "--reproducible")
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ("check", "lhs", "rhs", "margin", "pass")
        assert all(row[-1] == "true" for row in rows)
        names = column(header, rows, "check")
        assert names == ["hardy-n3", "hardy-sharp-n3", "norm-lower-n3",
                         "norm-upper-n3"]
        sharp = float(rows[1][1])
        assert sharp == pytest.approx(1.0 / (0.25 + 0.25 ** 2 / 2), rel=1e-9)

    def test_potential_below_hardy_line_rejected(self, capsys):
        code, _, err = run_cli(capsys, "energy-audit", "--dims", "3",
                               "--count", "1", "--potential", "-0.5")
        assert code == EXIT_USAGE


class TestSymbolAudit:
    def test_passes_above_threshold_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "symbol-audit", "--alpha", "4.0",
                               "--count", "300", "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("t", "r", "theta", "tau", "xi", "zeta",
                          "classification", "value")
        assert len(rows) == 300
        assert float(meta["max_main_good"]) <= 1e-12
        labels = set(column(header, rows, "classification"))
        assert "main b2" in labels and "good-sign g" in labels

    def test_fails_below_threshold_alpha(self, capsys):
        code, _, err = run_cli(capsys, "symbol-audit", "--alpha", "1.0",
                               "--count", "2000", "--reproducible")
        assert code == EXIT_CHECK
        assert "exceeds" in err

    def test_wide_delta_rows_are_finite(self, capsys):
        # at delta = 1 some samples have an empty |zeta_hat| band
        code, out, _ = run_cli(capsys, "symbol-audit", "--delta", "1.0",
                               "--alpha", "8.0", "--count", "2000",
                               "--reproducible")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert len(rows) == 2000
        assert all(math.isfinite(float(row[i])) for row in rows
                   for i in (0, 1, 2, 3, 4, 5, 7))

    def test_calibrates_alpha_when_unset(self, capsys):
        code, out, _ = run_cli(capsys, "symbol-audit", "--count", "200",
                               "--probe-kept", "400", "--verify-kept",
                               "1200", "--reproducible")
        assert code == EXIT_OK
        meta, _, _ = parse_csv(out)
        assert 1.5 < float(meta["alpha_star"]) < 8.0
        assert meta["alpha"] == meta["alpha_star"]


class TestHankelCheck:
    def test_defects_decrease(self, capsys):
        code, out, _ = run_cli(capsys, "hankel-check", "--sizes", "80,160",
                               "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("points", "order", "defect")
        assert meta["decreasing"] == "true"
        d = [float(c) for c in column(header, rows, "defect")]
        assert d[1] < d[0]

    def test_reversed_sizes_fail(self, capsys):
        code, out, _ = run_cli(capsys, "hankel-check", "--sizes", "160,80",
                               "--reproducible")
        assert code == EXIT_CHECK
        meta, _, _ = parse_csv(out)
        assert meta["decreasing"] == "false"

    def test_module_error_text_reaches_stderr(self, capsys):
        # a 40-point grid leaves too much transform tail; the transform
        # module's own wording must survive to the user
        code, _, err = run_cli(capsys, "hankel-check", "--sizes", "40,80")
        assert code == EXIT_CHECK
        assert "trailing" in err


class TestDeterminismAndConfig:
    def test_reproducible_runs_are_byte_identical(self, capsys):
        args = ("symbol-audit", "--alpha", "3.0", "--count", "150",
                "--reproducible")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_timestamp_only_without_reproducible(self, capsys):
        _, out, _ = run_cli(capsys, "mode-table", "--n-max", "1")
        assert "# timestamp=" in out
        _, out, _ = run_cli(capsys, "mode-table", "--n-max", "1",
                            "--reproducible")
        assert "# timestamp=" not in out

    def test_flag_beats_config_beats_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 0.5\nt = 2.2   # trailing comment\n")
        _, out, _ = run_cli(capsys, "front-scan", "--config", str(cfg),
                            "--a", "0.25", "--reproducible")
        meta, _, _ = parse_csv(out)
        assert meta["a"] == "0.25"       # flag wins
        assert meta["t"] == "2.2"        # config beats default 2.0
        assert meta["r2"] == "1.0"       # untouched default

    def test_seed_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        _, out, _ = run_cli(capsys, "mode-table", "--n-max", "1",
                            "--config", str(cfg), "--reproducible")
        meta, _, _ = parse_csv(out)
        assert meta["seed"] == "7"

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not an assignment\n")
        code, _, err = run_cli(capsys, "mode-table", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "key = value" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "mode-table", "--n-max", "2",
                               "--output", str(target), "--reproducible")
        assert code == EXIT_OK
        assert out == ""
        meta, _, rows = parse_csv(target.read_text())
        assert len(rows) == 3

    def test_unwritable_output_file(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "table.csv"
        code, out, err = run_cli(capsys, "mode-table", "--n-max", "2",
                                 "--output", str(target), "--reproducible")
        assert code == EXIT_CHECK
        assert err.startswith("isqwave: mode-table: ")
        assert out == ""


class TestVerifyQuick:
    def test_all_lines_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick",
                                 "--reproducible")
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ("check", "value", "bound", "status")
        assert meta["tier"] == "quick"
        assert meta["failures"] == "0"
        assert column(header, rows, "check") == [
            "diffractive-limit", "front-jump", "free-null", "exclusion-flag",
            "exclusion-jump", "lipschitz-hankel", "hankel-involution",
            "hankel-involution-refine", "hankel-eigen", "oracle-agreement",
            "oracle-leakage", "oracle-order", "flow-origin", "flow-envelope",
            "flow-conservation", "flow-rescaled-match", "hardy-n3",
            "norm-equivalence-n3", "symbol-audit", "symbol-dual-route"]
        assert all(row[-1] == "pass" for row in rows)
        # no floor at zero: these lines show how far inside the bound they are
        value = dict(zip(column(header, rows, "check"),
                         map(float, column(header, rows, "value"))))
        assert value["symbol-audit"] < 0.0
        assert value["norm-equivalence-n3"] < 0.0
        assert value["flow-envelope"] < 0.0
