from __future__ import annotations

import json
import sys

import pytest

from agentchess import runner
from agentchess.cli import main

from conftest import FAKE_UCI


def write_manifest(tmp_path, **overrides):
    manifest = {
        "subject": {"kind": "scripted", "replies": ["get_current_board"], "name": "query-loop"},
        "opponent": {"kind": "random"},
        "games": 3,
        "seed": 0,
        "parallelism": 1,
        "out_dir": str(tmp_path / "runs"),
    }
    manifest.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def fake_engine_cmdline(tmp_path, responses=None):
    script = tmp_path / "engine_script.json"
    script.write_text(json.dumps({
        "responses": responses or [{"score": "cp 0", "bestmove": "e2e4"}],
    }))
    return f"{sys.executable} {FAKE_UCI} {script}"


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# ---------------------------------------------------------------------------
# run


def test_run_smoke_writes_logs_and_summary(tmp_path, capsys):
    manifest = write_manifest(tmp_path, games=5)
    assert main(["run", "--config", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "cell=random" in out and "games=5" in out and "instruction=100.0" in out
    entries = read_jsonl(tmp_path / "runs" / "games-random.jsonl")
    assert len(entries) == 5
    assert all(e["model_id"] == "query-loop" for e in entries)
    assert all(e["record"]["termination"] == "max_turns" for e in entries)


def test_run_random_vs_random_grid(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path, subject={"kind": "random"}, games=4, parallelism=2, seed=11
    )
    assert main(["run", "--config", str(manifest)]) == 0
    entries = read_jsonl(tmp_path / "runs" / "games-random.jsonl")
    assert len(entries) == 4
    seeds = sorted(e["record"]["config"]["seed"] for e in entries)
    assert seeds == [11, 12, 13, 14]


def test_run_missing_engine_is_config_error_before_games(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        opponent={"kind": "engine", "path": "/no/such/engine", "skills": [1]},
    )
    assert main(["run", "--config", str(manifest)]) == 2
    assert "engine executable not found" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_engine_grid_one_log_per_skill(tmp_path, capsys):
    engine = fake_engine_cmdline(tmp_path, [{"bestmove": "e2e4"}, {"bestmove": "d2d4"}])
    manifest = write_manifest(
        tmp_path,
        subject={"kind": "scripted", "replies": ["banana"], "name": "hopeless"},
        opponent={
            "kind": "engine",
            "command": engine,
            "skills": [1, 2],
            "skill_option": "Skill",
        },
        games=2,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    for skill in (1, 2):
        entries = read_jsonl(tmp_path / "runs" / f"games-skill-{skill}.jsonl")
        assert len(entries) == 2
        assert all(e["record"]["config"]["white"]["skill"] == skill for e in entries)
        assert all(
            e["record"]["termination"] == "too_many_wrong_actions" for e in entries
        )


def test_run_flags_override_manifest(tmp_path, capsys):
    manifest = write_manifest(tmp_path, games=9, seed=0)
    out_dir = tmp_path / "other"
    assert main([
        "run", "--config", str(manifest),
        "--games", "2", "--seed", "100", "--out", str(out_dir),
    ]) == 0
    entries = read_jsonl(out_dir / "games-random.jsonl")
    assert len(entries) == 2
    assert [e["record"]["config"]["seed"] for e in entries] == [100, 101]


def test_run_interrupt_keeps_completed_games(tmp_path, capsys, monkeypatch):
    manifest = write_manifest(tmp_path, games=10)
    real_play = runner.play_game
    calls = {"n": 0}

    def interrupting(cfg):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real_play(cfg)

    monkeypatch.setattr(runner, "play_game", interrupting)
    assert main(["run", "--config", str(manifest)]) == 130
    entries = read_jsonl(tmp_path / "runs" / "games-random.jsonl")
    assert len(entries) == 3  # completed games survived the interrupt


def test_run_all_games_excluded_reports_cell_without_crashing(tmp_path, capsys):
    # An opponent engine that dies on its first search excludes every game.
    script = tmp_path / "crash.json"
    script.write_text(json.dumps({"responses": [{"bestmove": "e2e4"}], "crash_after_go": 0}))
    manifest = write_manifest(
        tmp_path,
        opponent={
            "kind": "engine",
            "command": f"{sys.executable} {FAKE_UCI} {script}",
            "skills": [1],
        },
        games=2,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "excluded=2" in out and "no scorable games" in out
    entries = read_jsonl(tmp_path / "runs" / "games-skill-1.jsonl")
    assert len(entries) == 2
    assert all(e["record"]["excluded"] for e in entries)


def test_run_engine_that_fails_to_start_is_logged_as_excluded(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        opponent={"kind": "engine", "command": f"{sys.executable} -c pass", "skills": [1]},
        games=2,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    assert "no scorable games" in capsys.readouterr().out
    records = [e["record"] for e in read_jsonl(tmp_path / "runs" / "games-skill-1.jsonl")]
    assert [r["termination"] for r in records] == ["model_error", "model_error"]
    assert all(r["error_side"] == "w" and r["excluded"] for r in records)


def test_run_rejects_manifest_with_secrets(tmp_path, capsys):
    manifest = write_manifest(
        tmp_path,
        subject={
            "kind": "endpoint",
            "base_url": "http://x",
            "model": "m",
            "api_key": "oops",
        },
    )
    assert main(["run", "--config", str(manifest)]) == 2
    assert "environment" in capsys.readouterr().err


def test_run_unknown_variant_is_config_error(tmp_path, capsys):
    manifest = write_manifest(tmp_path, variant="nonsense")
    assert main(["run", "--config", str(manifest)]) == 2
    assert "unknown variant" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def run_two_game_log(tmp_path):
    manifest = write_manifest(
        tmp_path,
        subject={
            "kind": "scripted",
            "replies": ["make_move e7e5", "make_move b8c6", "make_move g8f6"],
            "cycle": False,
            "name": "mock",
        },
        opponent={"kind": "scripted_moves", "moves": ["e2e4", "d2d4", "g1f3", "b1c3"]},
        games=2,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    return tmp_path / "runs" / "games-scripted.jsonl"


def test_analyze_writes_one_sidecar_row_per_subject_ply(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    subject_plies = sum(
        1
        for e in read_jsonl(log)
        for p in e["record"]["plies"]
        if p["mover"] == e["record"]["subject_color"]
    )
    engine = fake_engine_cmdline(tmp_path)
    assert main(["analyze", str(log), "--engine", engine]) == 0
    rows = read_jsonl(tmp_path / "runs" / "games-scripted.jsonl.analysis.jsonl")
    assert len(rows) == subject_plies
    assert all(row["judgment"] == "none" for row in rows)
    out = capsys.readouterr().out
    assert "model=mock" in out and "blunder=0.0" in out


def test_analyze_rerun_is_idempotent(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    engine = fake_engine_cmdline(tmp_path)
    assert main(["analyze", str(log), "--engine", engine]) == 0
    sidecar = tmp_path / "runs" / "games-scripted.jsonl.analysis.jsonl"
    first = sidecar.read_bytes()
    assert main(["analyze", str(log), "--engine", engine]) == 0
    assert sidecar.read_bytes() == first


def test_analyze_requires_engine(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    assert main(["analyze", str(log)]) == 2
    assert "--engine" in capsys.readouterr().err


def test_analyze_flags_games_without_subject_plies(tmp_path, capsys):
    manifest = write_manifest(tmp_path, games=1)  # query-loop never moves
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-random.jsonl"
    engine = fake_engine_cmdline(tmp_path)
    assert main(["analyze", str(log), "--engine", engine]) == 0
    rows = read_jsonl(tmp_path / "runs" / "games-random.jsonl.analysis.jsonl")
    assert rows == [{"game_index": 0, "model_id": "query-loop", "unanalyzed": "no subject plies"}]


# ---------------------------------------------------------------------------
# elo


def test_elo_symmetric_fixture_csv(tmp_path, capsys):
    csv_path = tmp_path / "outcomes.csv"
    csv_path.write_text("opponent_rating,score\n400,1\n400,0\n")
    report = tmp_path / "elo.jsonl"
    assert main(["elo", "--outcomes", str(csv_path), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "rating=435.0" in out
    assert "boundary=none" in out
    row = read_jsonl(report)[0]
    assert row["kind"] == "elo_estimate"
    assert abs(row["rating"] - 435.0) < 1e-3


def test_elo_all_wins_boundary_flag(tmp_path, capsys):
    csv_path = tmp_path / "wins.csv"
    csv_path.write_text("250,1\n250,1\n250,1\n")
    assert main(["elo", "--outcomes", str(csv_path)]) == 0
    assert "boundary=clamped_high" in capsys.readouterr().out
    assert main(["elo", "--outcomes", str(csv_path), "--fail-on-boundary"]) == 1


def test_elo_from_engine_logs(tmp_path, capsys):
    engine = fake_engine_cmdline(tmp_path, [{"bestmove": "e2e4"}])
    manifest = write_manifest(
        tmp_path,
        subject={"kind": "scripted", "replies": ["banana"], "name": "hopeless"},
        opponent={"kind": "engine", "command": engine, "skills": [1]},
        games=2,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-skill-1.jsonl"
    assert main(["elo", str(log)]) == 0
    out = capsys.readouterr().out
    assert "games=2" in out
    # All losses against skill 1 clamp at 250 - 400 + 35.
    assert "rating=-115.0" in out
    assert "boundary=clamped_low" in out


def test_elo_anchor_override(tmp_path, capsys):
    engine = fake_engine_cmdline(tmp_path, [{"bestmove": "e2e4"}])
    manifest = write_manifest(
        tmp_path,
        subject={"kind": "scripted", "replies": ["banana"], "name": "hopeless"},
        opponent={"kind": "engine", "command": engine, "skills": [1]},
        games=1,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-skill-1.jsonl"
    assert main(["elo", str(log), "--anchor", "1=1000"]) == 0
    assert "rating=635.0" in capsys.readouterr().out  # 1000 - 400 + 35


def test_elo_anchor_override_white_subject(tmp_path, capsys):
    engine = fake_engine_cmdline(tmp_path, [{"bestmove": "e7e5"}])
    manifest = write_manifest(
        tmp_path,
        subject={"kind": "scripted", "replies": ["banana"], "name": "hopeless"},
        opponent={"kind": "engine", "command": engine, "skills": [2]},
        subject_color="w",
        games=1,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-skill-2.jsonl"
    assert main(["elo", str(log), "--anchor", "1=300"]) == 0
    assert "rating=10.0" in capsys.readouterr().out  # default 375 for skill 2, - 400 + 35


def test_elo_requires_exactly_one_source(tmp_path, capsys):
    assert main(["elo"]) == 2
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("250,1\n")
    assert main(["elo", "some.jsonl", "--outcomes", str(csv_path)]) == 2


def test_elo_random_opponent_logs_rejected(tmp_path, capsys):
    manifest = write_manifest(tmp_path, games=1)
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-random.jsonl"
    assert main(["elo", str(log)]) == 2
    assert "engine-skill" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_two_models(tmp_path, capsys):
    for name, replies in (("alpha", ["get_current_board"]), ("beta", ["banana"])):
        manifest = write_manifest(
            tmp_path,
            subject={"kind": "scripted", "replies": replies, "name": name},
            games=2,
            out_dir=str(tmp_path / "runs" / name),
        )
        assert main(["run", "--config", str(manifest)]) == 0
    capsys.readouterr()
    logs = [
        str(tmp_path / "runs" / "alpha" / "games-random.jsonl"),
        str(tmp_path / "runs" / "beta" / "games-random.jsonl"),
    ]
    out_dir = tmp_path / "reports"
    assert main(["report", *logs, "--out", str(out_dir)]) == 0
    csv_lines = (out_dir / "leaderboard.csv").read_text().splitlines()
    assert len(csv_lines) == 3  # header + two models
    assert {line.split(",")[0] for line in csv_lines[1:]} == {"alpha", "beta"}
    assert (out_dir / "leaderboard.md").read_text().startswith("| model |")
    # Determinism across invocations.
    first = (out_dir / "leaderboard.csv").read_text()
    assert main(["report", *logs, "--out", str(out_dir)]) == 0
    assert (out_dir / "leaderboard.csv").read_text() == first


def test_report_empty_logs_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["report", str(empty), "--out", str(tmp_path / "r")]) == 2
    assert "no games" in capsys.readouterr().err


def test_report_skips_model_with_only_excluded_games(tmp_path, capsys):
    crash = tmp_path / "crash.json"
    crash.write_text(json.dumps({"responses": [{"bestmove": "e2e4"}], "crash_after_go": 0}))
    runs = {
        "crashed": {"kind": "engine", "command": f"{sys.executable} {FAKE_UCI} {crash}", "skills": [1]},
        "scored": {"kind": "random"},
    }
    for name, opponent in runs.items():
        manifest = write_manifest(
            tmp_path,
            subject={"kind": "scripted", "replies": ["banana"], "name": name},
            opponent=opponent,
            games=1,
            out_dir=str(tmp_path / "runs" / name),
        )
        assert main(["run", "--config", str(manifest)]) == 0
    crashed_log = str(tmp_path / "runs" / "crashed" / "games-skill-1.jsonl")
    scored_log = str(tmp_path / "runs" / "scored" / "games-random.jsonl")
    capsys.readouterr()
    out_dir = tmp_path / "reports"
    assert main(["report", crashed_log, scored_log, "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "model=crashed: no scorable games" in captured.err
    csv_lines = (out_dir / "leaderboard.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in csv_lines[1:]] == ["scored"]

    assert main(["report", crashed_log, "--out", str(out_dir)]) == 2
    assert "no scorable games" in capsys.readouterr().err
