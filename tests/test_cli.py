import json
import math

import pytest

from hyperslice.cli import main
from hyperslice.geometry import make_section_spec
from hyperslice.maximizer import closed_form_max
from hyperslice.vertexsum import section_volume_vertex_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVolumeCommand:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "volume", "--d", "5", "--diagonal", "--t", "1.0", "--method", "all"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["d"] == 5
        assert payload["spec"]["b"] == pytest.approx(math.sqrt(5) / 2 - 1, abs=1e-15)
        by_method = {r["method"]: r for r in payload["results"]}
        assert set(by_method) == {"vertex_sum", "integral", "monte_carlo"}
        vs = by_method["vertex_sum"]["value"]
        assert vs == pytest.approx(4.522e-4, abs=2e-7)
        assert by_method["integral"]["value"] == pytest.approx(vs, abs=1e-8)
        mc = by_method["monte_carlo"]
        assert abs(mc["value"] - vs) <= 4 * mc["err"]
        assert all(r["cut"] == {"count": 1, "kind": "corner"} for r in payload["results"])

    def test_central_hexagon(self, capsys):
        code, out, _ = run_cli(
            capsys, "volume", "--d", "3", "--diagonal", "--t", "0", "--method", "sum"
        )
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert value == pytest.approx(1.2990381056766580, rel=1e-12)

    def test_axis_direction_empty(self, capsys):
        code, out, _ = run_cli(capsys, "volume", "--d", "4", "--a", "1,0,0,0", "--t", "0.6")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["value"] == 0.0
        assert payload["results"][0]["cut"]["kind"] == "empty"

    def test_invalid_direction_length(self, capsys):
        code, _, err = run_cli(capsys, "volume", "--d", "3", "--a", "1,2", "--t", "0.1")
        assert code == 2
        assert "error" in err

    def test_negative_radius(self, capsys):
        code, _, _ = run_cli(capsys, "volume", "--d", "3", "--diagonal", "--t", "-1")
        assert code == 2

    def test_capacity_exit_code(self, capsys):
        # 40 distinct coordinates at t = 0: about 2^39 vertices below the cut
        coords = ",".join(str(1.0 + i / 64) for i in range(40))
        code, _, err = run_cli(capsys, "volume", "--d", "40", "--a", coords, "--t", "0")
        assert code == 3
        assert "grouped vertex terms" in err

    def test_deep_diagonal_cut_d31(self, capsys):
        code, out, _ = run_cli(
            capsys, "volume", "--d", "31", "--diagonal", "--t", "0.1", "--method", "sum"
        )
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["value"] == pytest.approx(closed_form_max(31, 0.1), rel=1e-12)

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_mc_samples_invalid(self, capsys, n):
        code, out, err = run_cli(capsys, "volume", "--d", "3", "--a", "0.2,0.5,0.9",
                                 "--t", "0.3", "--method", "mc", "--mc-n", n)
        assert code == 2
        assert out == "" and "at least 2" in err

    def test_missing_direction(self, capsys):
        code, _, _ = run_cli(capsys, "volume", "--d", "3", "--t", "0.1")
        assert code == 2

    def test_byte_identical_reruns(self, capsys):
        args = ("volume", "--d", "4", "--diagonal", "--t", "0.8", "--method", "all",
                "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestMaximizeCommand:
    def test_reproduces_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "maximize", "--d", "5", "--t", "1.0", "--starts", "16"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["angle_to_diagonal"] < 1e-4
        assert payload["best_volume"] == pytest.approx(
            payload["diagonal_volume"], rel=1e-9
        )

    def test_degenerate_radius(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "--d", "5", "--t", "1.2",
                               "--starts", "4")
        assert code == 0
        assert json.loads(out)["best_volume"] == 0.0

    def test_too_small_radius_is_invalid(self, capsys):
        code, _, _ = run_cli(capsys, "maximize", "--d", "5", "--t", "0.3")
        assert code == 2

    def test_reports_infeasible_starts(self, capsys):
        code, out, _ = run_cli(capsys, "maximize", "--d", "7", "--t", "1.304",
                               "--starts", "64", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["infeasible_starts"] == 0
        assert payload["converged_starts"] == 64
        assert payload["capped_starts"] == 0


class TestCertifyCommand:
    def test_claimed_range_passes(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d-range", "6:10", "--grid", "2000")
        assert code == 0
        payload = json.loads(out)
        assert [b["d"] for b in payload["certificates"]] == list(range(6, 11))
        for block in payload["certificates"]:
            for claim in block["claims"].values():
                assert claim["asserted"] and claim["ok"]
            assert block["roots_excluded"]
        for row in payload["decay"]:
            assert row["holds_all"]

    def test_d5_exceptional_root_reported(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d-range", "5:5", "--grid", "1000")
        assert code == 0
        block = json.loads(out)["certificates"][0]
        assert not block["roots_excluded"]
        assert block["roots_at_y_half_in_unit_ray"] == pytest.approx([1.5], abs=1e-12)

    def test_d3_out_of_hypothesis(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--d-range", "3:3", "--grid", "500")
        assert code == 0
        block = json.loads(out)["certificates"][0]
        assert not block["claims"]["slope_at_one"]["asserted"]
        assert not block["claims"]["lead_coeff"]["asserted"]

    def test_rigorous_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--d-range", "6:7", "--grid", "500", "--rigorous"
        )
        assert code == 0
        for block in json.loads(out)["certificates"]:
            assert all(block["certified"].values())

    def test_rigorous_high_dimensions(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--d-range", "24:30", "--grid", "500", "--rigorous"
        )
        assert code == 0
        for block in json.loads(out)["certificates"]:
            assert all(block["certified"].values())

    def test_rigorous_failure_exits_claim_failed(self, capsys, monkeypatch):
        # every asserted claim of d = 6..200 certifies, so fake a failure
        fake = {"lead_coeff": True, "slope_at_one": False, "value_at_one": True}
        monkeypatch.setattr("hyperslice.cli.certify_signs_rigorous", lambda d: dict(fake))
        code, out, _ = run_cli(
            capsys, "certify", "--d-range", "6:6", "--grid", "500", "--rigorous"
        )
        assert code == 4
        block = json.loads(out)["certificates"][0]
        assert block["certified"] == fake
        assert all(c["ok"] for c in block["claims"].values())

    def test_rigorous_failure_of_unasserted_claim_passes(self, capsys, monkeypatch):
        # at d = 4 only lead_coeff is asserted
        fake = {"lead_coeff": True, "slope_at_one": False, "value_at_one": False}
        monkeypatch.setattr("hyperslice.cli.certify_signs_rigorous", lambda d: dict(fake))
        code, _, _ = run_cli(
            capsys, "certify", "--d-range", "4:4", "--grid", "500", "--rigorous"
        )
        assert code == 0

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--d-range", "9:4")
        assert code == 2

    def test_grid_and_exact_certificates_agree_from_d98(self, capsys):
        # the grid's float values keep their sign where the quantities vanish
        # to high order near y = 1
        code, out, _ = run_cli(
            capsys, "certify", "--d-range", "98:100", "--grid", "2000", "--rigorous"
        )
        assert code == 0
        for block in json.loads(out)["certificates"]:
            assert block["roots_excluded"]
            assert all(block["certified"].values())


class TestScanCommand:
    def test_diagonal_sweep_decreasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "5", "--t-range", "0.87:1.11:50", "--mode", "diagonal"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,t,V_closed,V_best,angle,count_below,kind"
        closed = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(x > y for x, y in zip(closed, closed[1:]))
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[2] == cells[3]  # diagonal value matches closed form
            assert cells[6] == "corner"

    def test_classify_sweep_transitions(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "4", "--a", "0.2,0.5,0.6,0.6",
            "--t-range", "0.3:1.0:60", "--mode", "classify"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        counts = [int(r[5]) for r in rows]
        assert all(x >= y for x, y in zip(counts, counts[1:]))
        # a 2 -> 1 transition happens at most at the edge-midpoint radius
        ts_with_two = [float(r[1]) for r in rows if int(r[5]) >= 2]
        assert ts_with_two and max(ts_with_two) <= math.sqrt(3) / 2 + 1e-12
        assert {r[6] for r in rows} >= {"edge", "corner", "empty"}

    def test_empty_regime_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "3", "--t-range", "0.9:1.0:4", "--mode", "diagonal"
        )
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            cells = row.split(",")
            assert cells[2] == "0" and cells[6] == "empty"

    def test_deterministic_output(self, capsys):
        args = ("scan", "--d", "4", "--t-range", "0.9:0.99:7", "--mode", "maximize",
                "--starts", "6", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_maximize_mode_in_the_band_at_d20(self, capsys):
        d, eps = 20, 0.01
        lo, hi = math.sqrt(d - 2) / 2 + eps, math.sqrt(d) / 2 - eps
        code, out, _ = run_cli(capsys, "scan", "--d", str(d), "--t-range",
                               f"{lo}:{hi}:3", "--mode", "maximize", "--starts", "16")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[2]) == pytest.approx(closed_form_max(d, float(row[1])), rel=1e-9)
            assert float(row[3]) == pytest.approx(float(row[2]), rel=1e-9)

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--d", "3", "--t-range", "1:0:5")
        assert code == 2

    @pytest.mark.parametrize("mode", ["diagonal", "maximize"])
    def test_direction_outside_classify_mode_is_invalid(self, capsys, mode):
        code, out, err = run_cli(capsys, "scan", "--d", "3", "--t-range", "0.6:0.7:2",
                                 "--mode", mode, "--a", "0.1,0.5,0.9")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--a" in err

    def test_classify_mode_takes_direction(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "3", "--t-range", "0.1:0.2:2",
                               "--mode", "classify", "--a", "0.1,0.5,0.9")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        spec = make_section_spec([0.1, 0.5, 0.9], 0.1)
        assert float(rows[0][3]) == pytest.approx(section_volume_vertex_sum(spec).value,
                                                  rel=1e-11)
        assert float(rows[0][4]) > 0.5  # the angle of (0.1, 0.5, 0.9), not 0


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=5\nt=1.0\ndiagonal=true\nmethod=sum\n# comment\n")
        code, out, _ = run_cli(capsys, "volume", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["spec"]["d"] == 5

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=5\nt=1.0\ndiagonal=true\n")
        code, out, _ = run_cli(capsys, "volume", "--config", str(cfg), "--t", "1.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["t"] == 1.3
        assert payload["results"][0]["value"] == 0.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, _, _ = run_cli(capsys, "volume", "--config", str(cfg))
        assert code == 2

    def test_false_leaves_a_flag_out(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=3\nt=0.3\ndiagonal=false\na=0.2,0.5,0.9\n")
        code, out, _ = run_cli(capsys, "volume", "--config", str(cfg))
        assert code == 0
        a = json.loads(out)["spec"]["a"]
        assert a[0] < a[1] < a[2]  # the direction of --a, not the diagonal


class TestMalformedValues:
    """Every malformed value, from a flag or a config line, exits 2 with an
    error line and prints nothing on stdout."""

    @pytest.mark.parametrize("command, text, line", [
        ("volume", "d=abc\nt=1.0\ndiagonal=true\n", 1),
        ("volume", "d=5\nt=1.0\ndiagonal=true\nmethod=mc\nmc_n=1e6\n", 5),
        ("volume", "d=5\nt=1.0\ndiagonal=true\nmethod=bogus\n", 4),
        ("scan", "d=5\nt_range=0.87:1.11:5\nmode=bogus\n", 3),
        ("volume", "d=5\nt=1.0\ndiagonal=true\nme=all\n", None),  # no prefix matching
        ("volume", "d=5\nt=1.0\ndiagonal=1\n", 3),
        ("maximize", "d=5\nt=1.0\nstarts=false\n", 3),
        ("volume", "d=5\nt=1.0\ndiagonal=true\nconfig=other.cfg\n", None),
        ("volume", "d=5\nt=1.0\njust text\n", 3),
    ], ids=["d_abc", "mc_n_float", "method_bogus", "mode_bogus", "prefix_key",
            "flag_with_value", "false_on_value_option", "nested_config", "no_equals"])
    def test_config_line(self, capsys, tmp_path, command, text, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2 and out == "" and "error" in err
        if line is not None:  # a value the file gave is named by file and line
            assert err.startswith(f"error: {cfg}:{line}: ")

    def test_flag_error_keeps_its_message_beside_a_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=5\nt=1.0\ndiagonal=true\n")
        code, out, err = run_cli(capsys, "volume", "--config", str(cfg), "--d", "abc")
        assert code == 2 and out == ""
        assert err == "error: argument --d: invalid int value: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ("volume", "--d", "3", "--a", "0.2,x,0.5", "--t", "0.1"),
        ("certify", "--d-range", "6:x"),
        ("scan", "--d", "3", "--t-range", "0:1:x"),
        ("certify", "--d-range", "1:4"),
        ("certify", "--d-range", "6:7", "--grid", "-3"),
        ("scan", "--d", "0", "--t-range", "0.1:0.5:3"),
        ("volume", "--d", "3", "--diagonal", "--t", "0.1", "--method", "integral",
         "--tol", "0"),
        ("volume", "--d", "3", "--diagonal", "--t", "0.1", "--method", "mc",
         "--seed", "-5"),
        ("maximize", "--d", "5", "--t", "1.0", "--seed", "-1"),
        ("volume", "--config", "no/such/file.cfg"),
    ], ids=["a_not_a_number", "d_range_not_int", "t_range_n_not_int", "d_range_below_2",
            "negative_grid", "scan_d0", "zero_tol", "negative_mc_seed",
            "negative_maximize_seed", "missing_config"])
    def test_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize("argv, message", [
        (("volume", "--d", "3", "--a", "-1,1,1", "--t", "0.2"),
         "error: direction coordinates must be nonnegative\n"),
        (("scan", "--d", "3", "--t-range", "-1:1:3"),
         "error: radius t must be a nonnegative real\n"),
    ], ids=["volume_a", "scan_t_range"])
    def test_negative_value_after_a_space(self, capsys, argv, message):
        # a value that starts with -<digit> is the flag's value, not an option
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == message

    def test_trailing_comma_in_a(self, capsys):
        # one --a parser: scan takes the trailing comma as volume does
        code, out, _ = run_cli(capsys, "volume", "--d", "3", "--a", "0.2,0.5,0.7,",
                               "--t", "0.3")
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        code, out, _ = run_cli(capsys, "scan", "--d", "3", "--mode", "classify",
                               "--a", "0.2,0.5,0.7,", "--t-range", "0.3:0.3:1")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(value, rel=1e-11)
