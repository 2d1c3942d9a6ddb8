from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import pytest

from agentchess import rules, runner
from agentchess.players import (
    EngineConfig,
    ModelError,
    RandomSpec,
    ScriptedDialogSpec,
    ScriptedMoverSpec,
)
from agentchess.runner import (
    COUNT_MODEL_ERRORS_AS_LOSS,
    EXCLUDE_MODEL_ERRORS,
    GameConfig,
    GameRecord,
    play_game,
    play_games,
    record_from_dict,
    score_for_termination,
)

from conftest import FAKE_UCI


@dataclass(frozen=True)
class RaisingDialogSpec:
    """Dialog player whose reply always fails with a ModelError."""

    reason: str = "timeout"
    is_dialog = True

    @contextmanager
    def play(self, usage):
        def reply(messages):
            raise ModelError(self.reason)

        yield reply

    def describe(self):
        return {"kind": "raising", "reason": self.reason}


def crashing_engine_spec(tmp_path) -> EngineConfig:
    script = tmp_path / "crash.json"
    script.write_text(json.dumps({"responses": [{"bestmove": "e2e4"}], "crash_after_go": 0}))
    return EngineConfig(command=(sys.executable, str(FAKE_UCI), str(script)))


def scripted_engine_spec(tmp_path, moves, name="engine.json", skill=None) -> EngineConfig:
    script = tmp_path / name
    script.write_text(json.dumps({"responses": [{"bestmove": m} for m in moves]}))
    return EngineConfig(command=(sys.executable, str(FAKE_UCI), str(script)), skill=skill)


def test_fools_mate_checkmate_by_subject():
    cfg = GameConfig(
        white=ScriptedMoverSpec(("f2f3", "g2g4")),
        black=ScriptedDialogSpec(("make_move e7e5", "make_move d8h4"), cycle=False),
    )
    record = play_game(cfg)
    assert record.termination == "checkmate_llm"
    assert record.ply_count == 4  # two full moves
    assert record.subject_color == rules.BLACK
    assert record.score() == 1.0
    assert [p.uci for p in record.plies] == ["f2f3", "e7e5", "g2g4", "d8h4"]
    # Dialog plies carry their transcripts; opponent plies do not.
    assert record.plies[1].transcript is not None
    assert record.plies[0].transcript is None


def test_checkmate_by_opponent_scores_zero():
    cfg = GameConfig(
        white=ScriptedDialogSpec(("make_move f2f3", "make_move g2g4"), cycle=False),
        black=ScriptedMoverSpec(("e7e5", "d8h4")),
    )
    record = play_game(cfg)
    assert record.subject_color == rules.WHITE
    assert record.termination == "checkmate_opponent"
    assert record.score() == 0.0


def test_garbage_subject_fails_first_ply():
    cfg = GameConfig(white=RandomSpec(), black=ScriptedDialogSpec(("banana",)))
    record = play_game(cfg)
    assert record.termination == "too_many_wrong_actions"
    assert record.ply_count == 1  # white moved, black never did: no full move
    assert record.failed_transcript is not None
    assert record.failed_transcript.failed_attempts == 3
    assert record.stats.unparsable_replies == 3
    assert record.score() == 0.0


def test_query_looper_hits_max_turns():
    cfg = GameConfig(white=RandomSpec(), black=ScriptedDialogSpec(("get_current_board",)))
    record = play_game(cfg)
    assert record.termination == "max_turns"
    assert record.stats.board_queries == 10
    assert record.stats.turns_used == 10


def test_random_vs_random_is_seeded_and_replayable():
    cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=123)
    one = play_game(cfg)
    two = play_game(cfg)
    assert one.fingerprint() == two.fingerprint()
    assert one.termination in runner.DRAW_TERMINATIONS | {
        "checkmate_llm", "checkmate_opponent"
    }
    assert one.ply_count <= 200


def test_duration_ignores_a_wall_clock_step_back(monkeypatch):
    real_time = time.time
    reads = []

    def stepping_clock():  # set back an hour (an NTP step, say) once the game has started
        reads.append(None)
        return real_time() - (3600.0 if len(reads) > 1 else 0.0)

    monkeypatch.setattr(time, "time", stepping_clock)
    record = play_game(GameConfig(white=RandomSpec(), black=RandomSpec(), seed=123))
    assert 0.0 <= record.duration_s < 60.0
    assert record.started_at.endswith("+00:00") and record.finished_at.endswith("+00:00")


def test_random_vs_random_subject_defaults_to_black():
    cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=9)
    assert play_game(cfg).subject_color == rules.BLACK
    as_white = GameConfig(
        white=RandomSpec(), black=RandomSpec(), seed=9, subject_color=rules.WHITE
    )
    assert play_game(as_white).subject_color == rules.WHITE


def test_engine_opponent_plays_scripted_game(tmp_path):
    # The fake engine walks white into Fool's mate while the subject mates.
    cfg = GameConfig(
        white=scripted_engine_spec(tmp_path, ["f2f3", "g2g4"], skill=2),
        black=ScriptedDialogSpec(("make_move e7e5", "make_move d8h4"), cycle=False),
    )
    record = play_game(cfg)
    assert record.termination == "checkmate_llm"
    assert record.config["white"]["skill"] == 2
    assert record.config["white"]["kind"] == "engine"


def test_subject_model_error_counted_as_loss():
    cfg = GameConfig(
        white=RandomSpec(),
        black=RaisingDialogSpec("timeout"),
        error_policy=COUNT_MODEL_ERRORS_AS_LOSS,
    )
    record = play_game(cfg)
    assert record.termination == "model_error"
    assert record.termination_detail == "timeout"
    assert record.error_side == rules.BLACK
    assert not record.excluded
    assert record.score() == 0.0


def test_subject_model_error_excluded_under_exclusion_policy():
    cfg = GameConfig(
        white=RandomSpec(),
        black=RaisingDialogSpec("timeout"),
        error_policy=EXCLUDE_MODEL_ERRORS,
    )
    record = play_game(cfg)
    assert record.excluded
    assert record.score() is None


@pytest.mark.parametrize("policy", [COUNT_MODEL_ERRORS_AS_LOSS, EXCLUDE_MODEL_ERRORS])
def test_opponent_engine_crash_excluded_under_both_policies(tmp_path, policy):
    cfg = GameConfig(
        white=crashing_engine_spec(tmp_path),
        black=ScriptedDialogSpec(("make_move e7e5",)),
        error_policy=policy,
    )
    record = play_game(cfg)
    assert record.termination == "model_error"
    assert record.error_side == rules.WHITE
    assert record.excluded
    assert record.score() is None


def test_two_dialog_players_rejected():
    with pytest.raises(ValueError):
        GameConfig(white=ScriptedDialogSpec(("x",)), black=ScriptedDialogSpec(("y",)))


def test_bad_error_policy_rejected():
    with pytest.raises(ValueError):
        GameConfig(white=RandomSpec(), black=RandomSpec(), error_policy="whatever")


def cell(cfg: GameConfig, n: int) -> list:
    """The n games of one cell, as `agentchess run` seeds them."""
    return [replace(cfg, seed=cfg.seed + i) for i in range(n)]


def test_play_games_keeps_config_order():
    cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=1000)
    records = list(play_games(cell(cfg, 5)))
    assert [r.config["seed"] for r in records] == [1000, 1001, 1002, 1003, 1004]
    # Any single game is replayable in isolation from its recorded seed.
    replay = play_game(GameConfig(white=RandomSpec(), black=RandomSpec(), seed=1002))
    assert replay.fingerprint() == records[2].fingerprint()


def test_play_games_parallelism_does_not_change_results():
    cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=77)
    serial = list(play_games(cell(cfg, 12), parallelism=1))
    parallel = list(play_games(cell(cfg, 12), parallelism=8))
    assert [r.fingerprint() for r in serial] == [r.fingerprint() for r in parallel]


def test_play_games_yields_each_record_while_later_games_run(monkeypatch):
    # Game 3 cannot finish until the caller holds game 0's record, so a pool
    # that waited for every game before yielding would time out here.
    first_taken = threading.Event()
    real_play = runner.play_game

    def gated(cfg):
        if cfg.seed == 3:
            assert first_taken.wait(timeout=30)
        return real_play(cfg)

    monkeypatch.setattr(runner, "play_game", gated)
    games = play_games(cell(GameConfig(white=RandomSpec(), black=RandomSpec()), 4), parallelism=2)
    first = next(games)
    first_taken.set()
    assert [first.config["seed"], *(r.config["seed"] for r in games)] == [0, 1, 2, 3]


def test_play_games_policy_split():
    # Subject errors on game 2 of 3; the split depends on the policy.
    class FailSecondGame:
        is_dialog = True

        def __init__(self):
            self.games = 0

        @contextmanager
        def play(self, usage):
            self.games += 1
            fail = self.games == 2

            def reply(messages):
                if fail:
                    raise ModelError("timeout")
                return "get_current_board"

            yield reply

        def describe(self):
            return {"kind": "fail-second"}

    counted = list(play_games(cell(
        GameConfig(white=RandomSpec(), black=FailSecondGame(),
                   error_policy=COUNT_MODEL_ERRORS_AS_LOSS),
        3,
    )))
    assert [r.termination for r in counted] == ["max_turns", "model_error", "max_turns"]
    assert [r.score() for r in counted] == [0.0, 0.0, 0.0]

    excluded = list(play_games(cell(
        GameConfig(white=RandomSpec(), black=FailSecondGame(),
                   error_policy=EXCLUDE_MODEL_ERRORS),
        3,
    )))
    assert [r.excluded for r in excluded] == [False, True, False]
    assert [r.score() for r in excluded] == [0.0, None, 0.0]


def test_records_respect_caps_and_partition():
    cfg = GameConfig(white=RandomSpec(), black=RandomSpec(), seed=2024)
    records = list(play_games(cell(cfg, 8), parallelism=4))
    for record in records:
        assert record.ply_count <= 200
        for ply in record.plies:
            if ply.transcript is not None:
                assert ply.transcript.turns_used <= 10
        assert record.score() in (0.0, 0.5, 1.0)  # nothing excluded here
        # Every stored move replays legally from the start.
        board = rules.Board.initial()
        for ply in record.plies:
            board = rules.apply_uci(board, ply.uci)
            assert rules.render_fen(board) == ply.fen_after


def test_score_partition_is_total():
    for term in (runner.WIN_TERMINATIONS | runner.DRAW_TERMINATIONS | runner.LOSS_TERMINATIONS):
        assert score_for_termination(term) in (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        score_for_termination("rage_quit")


def test_record_round_trips_through_dict():
    cfg = GameConfig(
        white=ScriptedMoverSpec(("f2f3", "g2g4")),
        black=ScriptedDialogSpec(("get_legal_moves", "make_move e7e5", "make_move d8h4")),
    )
    record = play_game(cfg)
    clone = record_from_dict(json.loads(json.dumps(record.to_dict())))
    assert clone.fingerprint() == record.fingerprint()
    assert clone.plies[1].transcript == record.plies[1].transcript


def test_endpoint_subject_usage_recorded():
    from agentchess.players import LLMEndpointConfig
    from chat_server import chat_server

    with chat_server() as (url, _):
        cfg = GameConfig(
            white=RandomSpec(),
            black=LLMEndpointConfig(url, "fixed:banana", timeout_s=10.0),
        )
        record = play_game(cfg)
    assert record.termination == "too_many_wrong_actions"
    # The mock endpoint reports token usage on each of the three replies.
    assert len(record.usage) == 3
    assert record.usage[0] == {"prompt_tokens": 7, "completion_tokens": 3}
    assert record.to_dict()["usage"] == record.usage


def test_moa_subject_usage_covers_every_call():
    from agentchess.players import LLMEndpointConfig, MoAConfig
    from chat_server import chat_server

    with chat_server() as (url, server):
        banana = LLMEndpointConfig(url, "fixed:banana", timeout_s=10.0)
        cfg = GameConfig(
            white=RandomSpec(),
            black=MoAConfig(proposers=(banana, banana), synthesizer=banana),
        )
        record = play_game(cfg)
    assert record.termination == "too_many_wrong_actions"
    # Three replies, each from two proposers and the synthesizer.
    assert len(server.requests) == 9
    assert record.usage == [{"prompt_tokens": 7, "completion_tokens": 3}] * 9


@pytest.mark.parametrize("policy", [COUNT_MODEL_ERRORS_AS_LOSS, EXCLUDE_MODEL_ERRORS])
def test_engine_that_fails_to_start_is_a_recorded_model_error(policy):
    dead = EngineConfig(command=(sys.executable, "-c", "pass"))
    records = list(play_games(cell(
        GameConfig(white=dead, black=ScriptedDialogSpec(("make_move e7e5",)), error_policy=policy),
        2,
    )))
    assert [r.termination for r in records] == ["model_error", "model_error"]
    assert all(r.termination_detail == "engine" for r in records)
    assert all(r.error_side == rules.WHITE for r in records)
    assert all(r.excluded and r.score() is None for r in records)
    assert all(r.ply_count == 0 for r in records)


def test_stats_sum_over_transcripts():
    replies = ("get_current_board", "get_legal_moves", "make_move e7e5", "make_move b8c6")
    cfg = GameConfig(
        white=ScriptedMoverSpec(("e2e4", "d2d4", "g1f3")),
        black=ScriptedDialogSpec(replies, cycle=True),
    )
    record = play_game(cfg)
    per_ply = [p.transcript for p in record.plies if p.transcript is not None]
    if record.failed_transcript is not None:
        per_ply.append(record.failed_transcript)
    assert record.stats.board_queries == sum(t.board_queries for t in per_ply)
    assert record.stats.legal_move_queries == sum(t.legal_move_queries for t in per_ply)
    assert record.stats.turns_used == sum(t.turns_used for t in per_ply)
    assert record.stats.subject_dialogs == len(per_ply)
