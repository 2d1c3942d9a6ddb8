from __future__ import annotations

import gc
import json
import signal
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from agentchess import analysis, cli, players, runner
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


def fake_engine_cmdline(tmp_path, responses=None, name="engine_script.json", **settings):
    script = tmp_path / name
    script.write_text(json.dumps({
        "responses": responses or [{"score": "cp 0", "bestmove": "e2e4"}],
        **settings,
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


def test_run_interrupt_at_parallelism_2_writes_every_finished_game(tmp_path, capsys, monkeypatch):
    # Ctrl-C lands while games 2 and 3 are in flight: games 4-9 never start,
    # and 2 and 3 still finish and are written after 0 and 1.
    manifest = write_manifest(tmp_path, games=10, parallelism=2)
    log = tmp_path / "runs" / "games-random.jsonl"
    real_play = runner.play_game
    both_in_flight = threading.Barrier(2, timeout=30)

    def interrupting(cfg):
        if cfg.seed in (2, 3):
            both_in_flight.wait()
            if cfg.seed == 3:
                deadline = time.monotonic() + 30
                while not (log.exists() and len(log.read_text().splitlines()) == 2):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                time.sleep(0.1)  # so the main thread is back waiting on game 2
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.3)
        return real_play(cfg)

    monkeypatch.setattr(runner, "play_game", interrupting)
    assert main(["run", "--config", str(manifest)]) == 130
    assert [e["record"]["config"]["seed"] for e in read_jsonl(log)] == [0, 1, 2, 3]
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"interrupted; completed games kept in {tmp_path / 'runs'}"
    assert sum(line.startswith("game ") for line in err.splitlines()) == 4


def test_run_seeds_each_cell_from_the_manifest_seed(tmp_path, capsys):
    manifest = write_manifest(tmp_path, subject={"kind": "random"}, games=5, seed=1000)
    assert main(["run", "--config", str(manifest)]) == 0
    entries = read_jsonl(tmp_path / "runs" / "games-random.jsonl")
    assert [e["record"]["config"]["seed"] for e in entries] == [1000, 1001, 1002, 1003, 1004]
    # Any single game is replayable in isolation from its recorded seed.
    random = players.RandomSpec()
    replay = runner.play_game(runner.GameConfig(white=random, black=random, seed=1002))
    assert runner.record_from_dict(entries[2]["record"]).fingerprint() == replay.fingerprint()


def test_run_plays_the_cells_of_a_ladder_at_once(tmp_path, capsys, monkeypatch):
    manifest = write_manifest(
        tmp_path,
        opponent={"kind": "engine", "command": fake_engine_cmdline(tmp_path), "skills": [1, 2]},
        games=1,
        parallelism=2,
    )
    # Each cell has one game, so both games are in flight only if the two
    # cells share the pool; played one cell after the other, this times out.
    both_in_flight = threading.Barrier(2, timeout=30)
    real_play = runner.play_game

    def meet(cfg):
        both_in_flight.wait()
        return real_play(cfg)

    monkeypatch.setattr(runner, "play_game", meet)
    assert main(["run", "--config", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == ["cell=skill-1", "cell=skill-2"]
    for skill in (1, 2):
        (entry,) = read_jsonl(tmp_path / "runs" / f"games-skill-{skill}.jsonl")
        assert entry["record"]["config"]["white"]["skill"] == skill


@pytest.mark.parametrize("setting", ["games", "parallelism"])
def test_run_counts_below_one_are_config_errors(tmp_path, capsys, setting):
    manifest = write_manifest(tmp_path, **{setting: 0})
    assert main(["run", "--config", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: {setting} must be at least 1\n"
    assert not (tmp_path / "runs").exists()


ENDPOINT = {"kind": "endpoint", "base_url": "http://127.0.0.1:9", "model": "m"}


@pytest.mark.parametrize("overrides, message", [
    ({"opponent": {"kind": "scripted_moves"}}, "KeyError: 'moves'"),
    ({"subject": {"kind": "moa", "proposers": [ENDPOINT]}}, "KeyError: 'synthesizer'"),
    ({"subject": {**ENDPOINT, "timeout_s": "10"}}, "TypeError: "),
    ({"games": "x"}, "ValueError: invalid literal for int()"),
    ({"opponent": "random"}, "AttributeError: "),
    ({"out_dir": 5}, "TypeError: expected str, bytes or os.PathLike object, not int"),
    ({"opponent": {"kind": "engine", "command": sys.executable, "skills": "ab"}},
     "skills must be a JSON list, not str"),
    ({"subject": {"kind": "scripted", "replies": "abc"}}, "replies must be a JSON list, not str"),
    ({"opponent": {"kind": "scripted_moves", "moves": "e2e4"}}, "moves must be a JSON list, not str"),
    ({"subject": {"kind": "moa", "proposers": "p", "synthesizer": ENDPOINT}},
     "proposers must be a JSON list, not str"),
    ({"opponent": {"kind": "scripted_moves", "moves": ["zz"]}}, "MoveParseError: bad uci: 'zz'"),
    ({"opponent": {"kind": "scripted_moves", "moves": [5]}},
     "TypeError: scripted moves must be text, not int"),
    ({"subject": {"kind": "scripted", "replies": [5]}}, "TypeError: scripted replies must be text, not int"),
    ({"subject": {"kind": "scripted", "replies": ["get_current_board"], "cycle": "no"}},
     "TypeError: cycle must be true or false, not str"),
], ids=["scripted-moves-without-moves", "moa-without-synthesizer", "text-timeout", "text-games",
        "text-opponent", "number-out-dir", "text-skills", "text-replies", "text-moves", "text-proposers",
        "non-uci-move", "number-move", "number-reply", "text-cycle"])
def test_run_bad_manifest_is_a_config_error(tmp_path, capsys, overrides, message):
    manifest = write_manifest(tmp_path, **overrides)
    assert main(["run", "--config", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad manifest: {message}") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_engine_silent_in_its_handshake_times_out(tmp_path, capsys, monkeypatch):
    # The bare interpreter reads the piped `uci` as a script and never answers.
    monkeypatch.setattr(players, "HANDSHAKE_TIMEOUT_S", 0.5)
    log = run_two_game_log(tmp_path)
    capsys.readouterr()
    assert main(["analyze", str(log), "--engine", sys.executable]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error: {log}: engine: no handshake in 0.5 s"

    manifest = write_manifest(
        tmp_path, opponent={"kind": "engine", "command": sys.executable, "skills": [1]}, games=1,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    (entry,) = read_jsonl(tmp_path / "runs" / "games-skill-1.jsonl")
    assert entry["record"]["termination"] == "model_error"
    assert entry["record"]["termination_detail"] == "engine"


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


def test_analyze_prints_one_summary_per_model_across_logs(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(log.read_bytes())
    random_log = scripted_logs(tmp_path, capsys, (1,))[0]
    engine = fake_engine_cmdline(tmp_path)
    assert main(["analyze", str(log), random_log, str(copy), "--engine", engine]) == 0
    assert [line.split()[:2] for line in capsys.readouterr().out.splitlines()] == [
        ["model=mock", "plies=12"],
        ["model=mock-1", "plies=3"],
    ]


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


# A stateful engine: each search of a game takes the next score, so rows would
# change if a game's searches did not start after its own `ucinewgame`.
VARIED_RESPONSES = [
    {"score": "cp 30", "bestmove": "e7e5"},
    {"score": "cp -250", "bestmove": "d7d5"},
    {"score": "mate 2", "bestmove": "b8c6"},
    {"score": "cp 120", "bestmove": "g8f6"},
    {"score": "cp -40", "bestmove": "e7e5"},
]


def scripted_logs(tmp_path, capsys, games):
    """One log per entry of `games`, each that many games of a differently
    named scripted subject with three moves a game."""
    logs = []
    for n, count in enumerate(games):
        manifest = write_manifest(
            tmp_path,
            subject={"kind": "scripted", "replies": ["make_move e7e5", "make_move b8c6", "make_move g8f6"],
                     "cycle": False, "name": f"mock-{len(games) - n}"},
            opponent={"kind": "scripted_moves", "moves": ["e2e4", "d2d4", "g1f3", "b1c3"]},
            games=count,
            out_dir=str(tmp_path / f"runs-{n}"),
        )
        assert main(["run", "--config", str(manifest)]) == 0
        logs.append(str(tmp_path / f"runs-{n}" / "games-scripted.jsonl"))
    capsys.readouterr()
    return logs


def analyze_outputs(logs, engine, capsys):
    code = main(["analyze", *logs, "--engine", engine])
    out, err = capsys.readouterr()
    return code, out, err, [Path(log + ".analysis.jsonl").read_bytes() for log in logs]


def test_analyze_pool_output_matches_one_worker(tmp_path, capsys, monkeypatch):
    logs = scripted_logs(tmp_path, capsys, (3, 1, 2, 1))
    engine = fake_engine_cmdline(tmp_path, VARIED_RESPONSES)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    serial = analyze_outputs(logs, engine, capsys)

    # The first log is analysed only after all the others, so the files finish
    # out of argument order; all four must be in flight, or the barrier times out.
    all_started = threading.Barrier(len(logs), timeout=30)
    analyze_log = analysis.analyze_log

    def first_log_last(log_path, *args):
        if log_path == logs[0]:
            all_started.wait()
            return analyze_log(log_path, *args)
        result = analyze_log(log_path, *args)
        all_started.wait()
        return result

    monkeypatch.setattr(analysis, "analyze_log", first_log_last)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    pooled = analyze_outputs(logs, engine, capsys)
    assert pooled == serial
    code, out, err, sidecars = pooled
    assert code == 0
    assert [line.split()[-1] for line in err.splitlines()] == [log + ".analysis.jsonl" for log in logs]
    assert [len(s.splitlines()) for s in sidecars] == [9, 3, 6, 3]
    assert out.count("model=") == 4


def test_analyze_engine_crash_spoils_only_its_own_log(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # each log starts an engine of its own
    logs = scripted_logs(tmp_path, capsys, (3, 1))  # 18 and 6 searches
    clean = analyze_outputs(logs, fake_engine_cmdline(tmp_path, VARIED_RESPONSES), capsys)
    crashing = fake_engine_cmdline(tmp_path, VARIED_RESPONSES, name="crash.json", crash_after_go=8)
    code, _, _, sidecars = analyze_outputs(logs, crashing, capsys)
    assert code == 0
    rows = [json.loads(line) for line in sidecars[0].splitlines()]
    assert [r["game_index"] for r in rows if "ply_index" in r] == [0, 0, 0, 2, 2, 2]
    assert [r for r in rows if "unanalyzed" in r] == [
        {"game_index": 1, "model_id": "mock-2", "unanalyzed": "engine: engine terminated unexpectedly"}
    ]
    clean_rows = [json.loads(line) for line in clean[3][0].splitlines()]
    # The game after the crash is scored on a fresh engine, as in a clean run.
    assert [r for r in rows if r["game_index"] == 2] == [r for r in clean_rows if r["game_index"] == 2]
    assert sidecars[0] != clean[3][0]
    assert sidecars[1] == clean[3][1]


def test_analyze_reuses_one_engine_across_logs(tmp_path, capsys, monkeypatch):
    logs = scripted_logs(tmp_path, capsys, (1, 2, 1, 1))
    received = tmp_path / "received.txt"
    engine = fake_engine_cmdline(tmp_path, VARIED_RESPONSES, log=str(received))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    code, _, _, sidecars = analyze_outputs(logs, engine, capsys)
    assert code == 0
    assert [len(s.splitlines()) for s in sidecars] == [3, 6, 3, 3]
    lines = received.read_text().splitlines()
    assert lines.count("uci") == 1 and lines.count("quit") == 1
    assert lines.count("ucinewgame") == 5


BAD_ENTRY = '{"schema_version": 1, "model_id": "m", "record": {"plies": []}}\n'


def insert_bad_entry(log, after_line):
    lines = Path(log).read_text().splitlines(keepends=True)
    Path(log).write_text("".join(lines[:after_line] + [BAD_ENTRY] + lines[after_line:]))


def test_analyze_flags_a_malformed_record_and_scores_the_games_after_it(tmp_path, capsys):
    (log,) = scripted_logs(tmp_path, capsys, (2,))
    engine = fake_engine_cmdline(tmp_path, VARIED_RESPONSES)
    clean = [json.loads(line) for line in analyze_outputs([log], engine, capsys)[3][0].splitlines()]
    insert_bad_entry(log, 1)  # good, bad, good
    code, _, _, (sidecar,) = analyze_outputs([log], engine, capsys)
    assert code == 0
    rows = [json.loads(line) for line in sidecar.splitlines()]
    assert [r for r in rows if r["game_index"] == 1] == [
        {"game_index": 1, "model_id": "m", "unanalyzed": "bad record: KeyError('config')"}
    ]
    assert [r for r in rows if r["game_index"] == 0] == [r for r in clean if r["game_index"] == 0]
    assert [{**r, "game_index": 1} for r in rows if r["game_index"] == 2] == [
        r for r in clean if r["game_index"] == 1
    ]


def test_analyze_malformed_record_leaves_other_logs_untouched(tmp_path, capsys):
    logs = scripted_logs(tmp_path, capsys, (2, 2))
    engine = fake_engine_cmdline(tmp_path, VARIED_RESPONSES)
    clean = analyze_outputs(logs, engine, capsys)
    insert_bad_entry(logs[0], 1)
    code, out, _, sidecars = analyze_outputs(logs, engine, capsys)
    assert code == 0
    assert sidecars[1] == clean[3][1]
    assert b"bad record: KeyError('config')" in sidecars[0]
    assert out == clean[1]


def test_analyze_prints_a_diagnostic_for_each_unreadable_line(tmp_path, capsys):
    (log,) = scripted_logs(tmp_path, capsys, (2,))
    engine = fake_engine_cmdline(tmp_path, VARIED_RESPONSES)
    insert_bad_entry(log, 1)
    _, clean_out, _, clean = analyze_outputs([log], engine, capsys)
    lines = Path(log).read_text().splitlines(keepends=True)
    Path(log).write_text("".join(lines[:2] + ["[1, 2]\n"] + lines[2:]))  # good, bad, [1, 2], good
    code, out, err, sidecars = analyze_outputs([log], engine, capsys)
    assert code == 0
    assert f"{log}:2: bad record: KeyError('config')" in err.splitlines()
    assert f"{log}:3: not a JSON object" in err.splitlines()
    assert (out, sidecars) == (clean_out, clean)


def test_analyze_engine_that_fails_to_start_is_a_diagnostic(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    sidecar = tmp_path / "runs" / "games-scripted.jsonl.analysis.jsonl"
    sidecar.write_text("earlier rows\n")
    capsys.readouterr()
    assert main(["analyze", str(log), "--engine", f"{sys.executable} -c pass"]) == 2
    err = capsys.readouterr().err
    assert f"error: {log}: engine: engine terminated unexpectedly" in err
    assert "Traceback" not in err
    assert sidecar.read_text() == "earlier rows\n"


FAIL_FIRST_LAUNCH = """
import os, sys
marker = sys.argv[1]
if not os.path.exists(marker):
    open(marker, "w").close()
    sys.exit(1)
os.execv(sys.argv[2], sys.argv[2:])
"""


def test_analyze_goes_on_after_an_engine_fails_to_start(tmp_path, capsys, monkeypatch):
    logs = scripted_logs(tmp_path, capsys, (1, 2))
    Path(logs[0] + ".analysis.jsonl").write_text("earlier rows\n")
    wrapper = tmp_path / "fail_first_launch.py"
    wrapper.write_text(FAIL_FIRST_LAUNCH)
    engine = f"{sys.executable} {wrapper} {tmp_path / 'launched'} {fake_engine_cmdline(tmp_path)}"
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # the first log's engine launches first
    code, out, err, sidecars = analyze_outputs(logs, engine, capsys)
    assert code == 2
    assert err.splitlines()[0] == f"error: {logs[0]}: engine: engine terminated unexpectedly"
    assert sidecars[0] == b"earlier rows\n"
    assert len(sidecars[1].splitlines()) == 6
    assert "model=mock-1 plies=6" in out and "mock-2" not in out


def test_analyze_unreadable_log_is_a_diagnostic(tmp_path, capsys):
    log = run_two_game_log(tmp_path)
    missing = tmp_path / "missing.jsonl"
    capsys.readouterr()
    assert main(["analyze", str(missing), str(log), "--engine", fake_engine_cmdline(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {missing}: ")
    assert "model=mock" in captured.out
    assert not Path(str(missing) + ".analysis.jsonl").exists()


def test_analyze_interrupt_keeps_sidecars_already_written(tmp_path, capsys, monkeypatch):
    logs = scripted_logs(tmp_path, capsys, (1, 1, 1))
    analyze_log = analysis.analyze_log

    def interrupt_after_first(log_path, *args):
        if log_path != logs[0]:
            raise KeyboardInterrupt
        return analyze_log(log_path, *args)

    monkeypatch.setattr(analysis, "analyze_log", interrupt_after_first)
    received = tmp_path / "received.txt"
    assert main(["analyze", *logs, "--engine", fake_engine_cmdline(tmp_path, log=str(received))]) == 130
    assert "interrupted" in capsys.readouterr().err
    assert [Path(log + ".analysis.jsonl").exists() for log in logs] == [True, False, False]
    lines = received.read_text().splitlines()
    assert lines.count("uci") == lines.count("quit") >= 1  # every engine started is quit


def test_analyze_closes_engine_pipes(tmp_path, capsys):
    logs = scripted_logs(tmp_path, capsys, (1, 1, 1))
    engine = fake_engine_cmdline(tmp_path)
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", *logs, "--engine", engine]) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


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
    # Default 375 for skill 2, less 2 * 35 for playing white, then - 400 + 35.
    assert "rating=-60.0" in capsys.readouterr().out


def test_elo_requires_exactly_one_source(tmp_path, capsys):
    assert main(["elo"]) == 2
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("250,1\n")
    assert main(["elo", "some.jsonl", "--outcomes", str(csv_path)]) == 2


@pytest.mark.parametrize(
    "csv_text, message",
    [
        ("opponent_rating,score\n400,0.7\n", ":2: score must be one of"),
        (None, "No such file"),
    ],
    ids=["bad-score", "missing-csv"],
)
def test_elo_bad_outcomes_csv_is_an_error(tmp_path, capsys, csv_text, message):
    csv_path = tmp_path / "outcomes.csv"
    if csv_text is not None:
        csv_path.write_text(csv_text)
    assert main(["elo", "--outcomes", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


# ---------------------------------------------------------------------------
# bad input in report and elo


def engine_log_then(tmp_path, capsys, line):
    """A one-game log against engine skill 1, followed by `line`."""
    engine = fake_engine_cmdline(tmp_path, [{"bestmove": "e2e4"}])
    manifest = write_manifest(
        tmp_path,
        subject={"kind": "scripted", "replies": ["banana"], "name": "hopeless"},
        opponent={"kind": "engine", "command": engine, "skills": [1]},
        games=1,
    )
    assert main(["run", "--config", str(manifest)]) == 0
    log = tmp_path / "runs" / "games-skill-1.jsonl"
    with open(log, "ab") as handle:
        handle.write(line)
    capsys.readouterr()
    return log


def read_argv(command, log, tmp_path):
    """`report` (into a scratch directory) or `elo` over one log."""
    return [command, str(log), *(["--out", str(tmp_path / "reports")] if command == "report" else [])]


@pytest.mark.parametrize("command, counted", [("report", "hopeless,1,"), ("elo", "games=1 ")])
@pytest.mark.parametrize(
    "line, diagnostic",
    [
        (BAD_ENTRY.encode(), ":2: bad record: KeyError('config')"),
        (b"[1, 2]\n", ":2: not a JSON object"),
        (b"\xff\n", ":2: corrupt entry ('utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte)"),
    ],
    ids=["bad-record", "not-an-object", "not-utf-8"],
)
def test_unreadable_line_is_a_diagnostic_and_the_good_game_counts(
    tmp_path, capsys, command, counted, line, diagnostic
):
    log = engine_log_then(tmp_path, capsys, line)
    assert main(read_argv(command, log, tmp_path)) == 0
    out, err = capsys.readouterr()
    assert f"{log}{diagnostic}" in err.splitlines()
    assert counted in out


@pytest.mark.parametrize("command", ["report", "elo"])
def test_missing_log_is_an_error(tmp_path, capsys, command):
    assert main(read_argv(command, tmp_path / "missing.jsonl", tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.jsonl" in err


def test_elo_non_increasing_anchors_are_an_error(tmp_path, capsys):
    log = engine_log_then(tmp_path, capsys, b"")
    assert main(["elo", str(log), "--anchor", "1=1000", "--anchor", "2=500"]) == 2
    assert "error: skill ratings must be strictly increasing" in capsys.readouterr().err
