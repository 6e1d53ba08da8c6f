"""Command-line runner tests: schemas, determinism, exit codes."""

import json
import pathlib
import subprocess
import sys

from qescrow import adversaries as adv
from qescrow import cli

real_quadratic_pair = adv.protocol_quadratic_pair
real_weak_measurement = adv.bob_weak_measurement
ROOT = pathlib.Path(__file__).resolve().parents[1]

def run_main(argv):
    return cli.main(argv)


def read_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, [dict(zip(header, line.strip().split(","))) for line in fh]


def test_coinflip_csv_schema_and_exit(tmp_path):
    out = tmp_path / "cf.csv"
    code = run_main(["coinflip", "--samples", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert tuple(header) == cli.COINFLIP_COLUMNS
    labels = [r["strategy"] for r in rows]
    assert "honest-honest" in labels and "bob-full-measurement" in labels
    for r in rows:
        total = sum(float(r[k]) for k in ("win_prob_0", "win_prob_1", "err_prob"))
        assert abs(total - 1.0) < 1e-9
        for k in ("win_prob_0", "win_prob_1", "err_prob"):
            assert -1e-12 <= float(r[k]) <= 1.0 + 1e-12
        assert r["within_cap"] == "true"
    honest = next(r for r in rows if r["strategy"] == "honest-honest")
    assert float(honest["win_prob_0"]) == 0.5 and float(honest["err_prob"]) == 0.0


def test_escrow_binding_rows(tmp_path):
    out = tmp_path / "eb.csv"
    code = run_main(["escrow-binding", "--samples", "5", "--seed", "2",
                     "--alpha-grid", "0,0.392699081698724", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert tuple(header) == cli.BINDING_COLUMNS
    quad = [r for r in rows if r["label"] == "quadratic"]
    assert len(quad) == 2
    assert all(r["binding_pass"] == "true" for r in rows)
    mid = quad[1]
    assert abs(float(mid["advantage"]) - 0.25) < 1e-8
    assert abs(float(mid["detection"]) - float(mid["detection_construction_form"])) < 1e-9
    # the stated cap is half the construction's detection; reported, not fatal
    assert mid["detection_within_theorem_cap"] == "false"
    assert abs(float(mid["detection_theorem_cap"]) * 2
               - float(mid["detection_construction_form"])) < 1e-12


def test_escrow_sealing_rows(tmp_path):
    out = tmp_path / "es.csv"
    code = run_main(["escrow-sealing", "--samples", "5", "--seed", "3",
                     "--p-grid", "0,0.25,1", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert tuple(header) == cli.SEALING_COLUMNS
    assert all(r["seal_pass"] == "true" for r in rows)
    p25 = next(r for r in rows if r["label"].startswith("weak-p-0.25"))
    assert abs(float(p25["advantage_eps"]) - 0.176776695297) < 1e-9
    assert float(p25["detection_identity_error"]) < 1e-9
    assert len([r for r in rows if r["label"].startswith("random-attack")]) == 5


def test_sealing_identity_error_is_reported_at_1e12_resolution(tmp_path):
    out = tmp_path / "es.csv"
    assert run_main(["escrow-sealing", "--samples", "8", "--seed", "42", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 11 + 8
    assert all(float(r["detection_identity_error"]) == 0.0 for r in rows)


def test_emitted_probabilities_stay_in_range(tmp_path):
    # every probability column of every artifact lands in [0, 1]
    jobs = [
        (["escrow-binding", "--samples", "10", "--seed", "6"],
         ("p0", "q0", "p_err", "q_err")),
        (["escrow-sealing", "--samples", "10", "--seed", "6"],
         ("detection_p",)),
        (["coinflip", "--samples", "10", "--seed", "6"],
         ("win_prob_0", "win_prob_1", "err_prob")),
    ]
    for argv, prob_cols in jobs:
        out = tmp_path / (argv[0] + ".csv")
        assert run_main(argv + ["--out", str(out)]) == 0
        _, rows = read_rows(out)
        for row in rows:
            for col in prob_cols:
                assert -1e-12 <= float(row[col]) <= 1.0 + 1e-12, (argv[0], col, row)


def test_selftest_passes_and_injection_fails(tmp_path, capsys, monkeypatch):
    code = run_main(["selftest", "--seed", "4", "--samples", "5",
                     "--out", str(tmp_path / "st.csv")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 12 and "FAIL" not in out
    checks = cli._selftest_checks
    monkeypatch.setattr(cli, "_selftest_checks", lambda cfg: checks(cfg) + [
        ("injected-failure", lambda: (False, "deliberate failure"))])
    code = run_main(["selftest", "--seed", "4"])
    assert code == 3
    assert "FAIL  injected-failure: deliberate failure" in capsys.readouterr().out


def test_identical_config_gives_byte_identical_artifacts(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert run_main(["escrow-sealing", "--samples", "8", "--seed", "42",
                         "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    jsons = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in jsons:
        assert run_main(["coinflip", "--samples", "8", "--seed", "42",
                         "--out", str(p), "--format", "json"]) == 0
    assert jsons[0].read_bytes() == jsons[1].read_bytes()


def test_json_mirrors_rows_and_config(tmp_path):
    out = tmp_path / "eb.json"
    assert run_main(["escrow-binding", "--samples", "2", "--seed", "9",
                     "--alpha-grid", "0.1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"config", "rows", "tallies"}
    assert payload["config"]["seed"] == 9
    assert payload["config"]["alpha_grid"] == [0.1]
    assert len(payload["rows"]) == 3
    assert payload["tallies"]["failed"] == 0
    assert set(payload["rows"][0]) == set(cli.BINDING_COLUMNS)


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\nsamples=3\nformat=json\n# comment\n")
    out = tmp_path / "out.json"
    assert run_main(["escrow-sealing", "--config", str(cfg), "--p-grid", "0.5",
                     "--samples", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 5          # from file
    assert payload["config"]["samples"] == 2       # flag wins
    assert payload["config"]["config_file"] == {"seed": "5", "samples": "3",
                                                "format": "json"}


def test_config_errors_exit_2(tmp_path):
    assert run_main(["coinflip", "--theta", "1.0"]) == 2
    assert run_main(["coinflip", "--theta", "0.2"]) == 2  # the coin flip's angle is fixed
    assert run_main(["escrow-sealing", "--p-grid", "0.5,2.0"]) == 2
    assert run_main(["escrow-binding", "--alpha-grid", "abc"]) == 2
    for alpha in ("1.0", "nan", "-0.1"):
        assert run_main(["escrow-binding", "--alpha-grid", alpha]) == 2
    assert run_main(["coinflip", "--samples", "-3"]) == 2
    assert run_main(["coinflip", "--seed", "-1"]) == 2
    assert run_main(["coinflip", "--config", "/nonexistent/path.cfg"]) == 2
    for line in ("theta=abc", "seed=abc", "seed=-1", "alpha_grid=1.0", "sead=5"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run_main(["escrow-binding", "--config", str(cfg)]) == 2, line
    cfg.write_text("theta=0.2\n")
    assert run_main(["coinflip", "--config", str(cfg)]) == 2


def test_unwritable_out_is_a_config_error_before_any_row_runs(tmp_path, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(cli, "_quadratic_rows", no_rows)
    out = tmp_path / "missing" / "o.csv"
    assert run_main(["escrow-binding", "--out", str(out)]) == 2
    assert not out.parent.exists()
    assert run_main(["escrow-binding", "--out", str(tmp_path)]) == 2


def test_config_echo_holds_the_settings_the_command_reads():
    def echo(argv):
        return cli.build_config(cli.build_parser().parse_args(argv)).echo()

    plain = echo(["selftest", "--seed", "1"])
    grids = echo(["selftest", "--seed", "1", "--alpha-grid", "0.3", "--p-grid", "0.4"])
    assert plain != grids
    assert grids["alpha_grid"] == [0.3] and grids["p_grid"] == [0.4]
    assert "samples" not in plain  # the selftest draws fixed sample counts
    for command, reads in cli.READS.items():
        assert set(echo([command])) == {"command", *reads}


def test_wrong_quadratic_closed_form_fails_the_run(tmp_path, monkeypatch, capsys):
    # the honest delayed-choice strategy on both sides keeps the frontier but not
    # the quadratic depositor's advantage sqrt(f) sin(2a)/2
    def one_twice(alpha, params):
        one = real_quadratic_pair(alpha, params)[1]
        return one, one

    monkeypatch.setattr(cli.adv, "protocol_quadratic_pair", one_twice)
    out = tmp_path / "eb.csv"
    assert run_main(["escrow-binding", "--samples", "1", "--out", str(out)]) == 3
    _, rows = read_rows(out)
    assert [r["binding_pass"] for r in rows if r["label"] == "quadratic"] == [
        "true", "false", "false", "false", "false"]
    run_main(["selftest"])
    assert "FAIL  quadratic-depositor-closed-forms: label=quadratic alpha=0.196349540849" \
        in capsys.readouterr().out


def test_wrong_weak_measurement_strength_fails_the_run(tmp_path, monkeypatch, capsys):
    # strength p/2 keeps the frontier and the detection identity but not the kept
    # distance t sqrt(p)
    monkeypatch.setattr(cli.adv, "bob_weak_measurement",
                        lambda params, r0, r1: real_weak_measurement(
                            adv.BobWeakParams(params.p / 2), r0, r1))
    out = tmp_path / "es.csv"
    assert run_main(["escrow-sealing", "--samples", "1", "--p-grid", "0,0.5",
                     "--out", str(out)]) == 3
    _, rows = read_rows(out)
    assert [r["seal_pass"] for r in rows] == ["true", "false", "true"]
    run_main(["selftest"])
    assert "FAIL  weak-measurement-closed-forms: label=weak-p-0.1 p=0.1 fails seal_pass" \
        in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qescrow", "escrow-sealing", "--samples", "1",
         "--seed", "0", "--p-grid", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "escrow-sealing" in proc.stdout


def test_sealing_frontier_script_writes_every_point(tmp_path):
    out = tmp_path / "frontier.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sealing_frontier.py"), "--points", "3",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_rows(out)
    assert header == ["family", "strength", "detection", "advantage", "frontier_bound"]
    assert [r["family"] for r in rows] == ["weak"] * 3 + ["haar-1anc"] * 3 + ["haar-2anc"] * 3
    assert [r["strength"] for r in rows[:3]] == ["0", "0.5", "1"]
    for r in rows:
        assert 0.0 <= float(r["detection"]) <= 1.0
        assert float(r["advantage"]) <= float(r["frontier_bound"]) + 1e-9
    for flag in ("--seed", "--points"):
        bad = tmp_path / f"bad{flag}.csv"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "sealing_frontier.py"), flag, "-1",
             "--out", str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert not bad.exists()  # rejected before the file is opened
