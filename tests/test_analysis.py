from __future__ import annotations

import json
import math
import queue
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentchess import analysis, reporting, rules
from agentchess.analysis import (
    AnalysisEngineConfig,
    PlyEvaluation,
    evaluate_subject_plies,
    judge,
    normalize_score,
    summarize_evaluations,
    win_percent,
)
from agentchess.runner import GameConfig, ScriptedDialogSpec, ScriptedMoverSpec, play_game

from conftest import FAKE_UCI


def eq1(cp: float) -> float:
    """Direct evaluation of the winning-percentage formula, kept independent
    of the implementation under test."""
    return 50 + 50 * (2 / (1 + math.exp(-0.00368208 * cp)) - 1)


class ScriptedSession:
    """In-process engine stand-in; consumes scripted (score, best) pairs."""

    def __init__(self, responses):
        self._responses = list(responses)
        self.calls = 0

    def evaluate(self, fen, depth):
        self.calls += 1
        return self._responses.pop(0)


def subject_game_record():
    """A short real game where the subject (black) plays two plies."""
    cfg = GameConfig(
        white=ScriptedMoverSpec(("e2e4", "d2d4", "g1f3")),
        black=ScriptedDialogSpec(("make_move e7e5", "make_move b8c6"), cycle=False),
    )
    return play_game(cfg)


# ---------------------------------------------------------------------------
# Score normalization and the Win% curve.


def test_normalize_score_passthrough_and_mates():
    assert normalize_score("cp", 137) == 137
    assert normalize_score("cp", -42) == -42
    assert normalize_score("mate", 3) == 1000
    assert normalize_score("mate", 1) == 1000
    assert normalize_score("mate", -1) == -1000
    assert normalize_score("mate", 0) == -1000  # already mated
    with pytest.raises(ValueError):
        normalize_score("lowerbound", 5)


def test_all_winning_mates_map_to_one_value():
    assert len({win_percent(normalize_score("mate", n)) for n in range(1, 30)}) == 1


def test_win_percent_zero_is_exactly_fifty():
    assert win_percent(0) == 50.0


def test_win_percent_matches_direct_formula():
    for cp in (1000, -1000, 137, -137, 30000, 1, -1):
        assert win_percent(cp) == pytest.approx(eq1(cp), abs=1e-9)
    assert win_percent(1000) == pytest.approx(97.5447, abs=1e-4)


def test_win_percent_saturates_without_overflow():
    assert win_percent(10**9) == 100.0
    assert win_percent(-(10**9)) == 0.0


@settings(max_examples=300)
@given(st.integers(min_value=-(10**6), max_value=10**6))
def test_win_percent_symmetry(cp):
    assert win_percent(-cp) == pytest.approx(100.0 - win_percent(cp), abs=1e-9)


@settings(max_examples=300)
@given(st.integers(min_value=-5000, max_value=4999))
def test_win_percent_strictly_increasing_in_band(cp):
    # Strict within the range engines actually report (mates clamp to 1000);
    # far outside it the float value saturates.
    assert win_percent(cp + 1) > win_percent(cp)


@settings(max_examples=200)
@given(st.integers(min_value=-(10**6), max_value=10**6 - 1))
def test_win_percent_never_decreases(cp):
    assert win_percent(cp + 1) >= win_percent(cp)


@pytest.mark.parametrize(
    "delta,expected",
    [
        (9.999, "none"),
        (10.0, "inaccuracy"),
        (19.999, "inaccuracy"),
        (20.0, "mistake"),
        (29.999, "mistake"),
        (30.0, "blunder"),
        (62.7, "blunder"),
        (-5.0, "none"),
        (0.0, "none"),
    ],
)
def test_judgment_boundaries(delta, expected):
    assert judge(delta, 0.0) == expected


def test_judge_improvement_is_none():
    assert judge(50.0, 55.0) == "none"


# ---------------------------------------------------------------------------
# Game analysis over a scripted session.


def test_subject_plies_make_two_calls_each():
    record = subject_game_record()
    k = sum(1 for p in record.plies if p.mover == record.subject_color)
    session = ScriptedSession([(("cp", 0), None)] * (2 * k))
    summary = summarize_evaluations(evaluate_subject_plies(record, session))
    assert session.calls == 2 * k
    assert summary.subject_plies == k


def test_subject_plies_flat_scores_judge_none():
    record = subject_game_record()
    session = ScriptedSession([
        (("cp", 0), "e7e5"),   # before ply 1: best equals the played move
        (("cp", 0), None),
        (("cp", 0), "a7a6"),   # before ply 2: best differs
        (("cp", 0), None),
    ])
    evaluations = evaluate_subject_plies(record, session)
    summary = summarize_evaluations(evaluations)
    assert [e.judgment for e in evaluations] == ["none", "none"]
    assert [e.is_best for e in evaluations] == [True, False]
    assert summary.best_rate == 50.0
    assert summary.avg_win_percent == 50.0


def test_subject_plies_swing_hand_computed():
    record = subject_game_record()
    # Subject to move at +200; after its move the opponent sees +200, which
    # is -200 for the subject.
    session = ScriptedSession([
        (("cp", 200), "e7e5"),
        (("cp", 200), None),
        (("cp", 0), "b8c6"),
        (("cp", 0), None),
    ])
    first = evaluate_subject_plies(record, session)[0]
    assert first.cp_before == 200
    assert first.cp_after == -200
    assert first.win_before == pytest.approx(eq1(200), abs=1e-9)
    assert first.win_after == pytest.approx(eq1(-200), abs=1e-9)
    assert first.win_before > 50.0 > first.win_after
    expected_delta = eq1(200) - eq1(-200)
    assert first.delta == pytest.approx(expected_delta, abs=1e-9)
    assert 30.0 <= expected_delta
    assert first.judgment == "blunder"


def test_subject_plies_perspective_negation_symmetry():
    record = subject_game_record()
    raw_after = 137
    session = ScriptedSession([
        (("cp", 0), None),
        (("cp", raw_after), None),
        (("cp", 0), None),
        (("cp", -raw_after), None),
    ])
    evaluations = evaluate_subject_plies(record, session)
    # The after-move score is reported for the opponent; the subject's Win%
    # must be the 100 - x mirror of the opponent's.
    assert evaluations[0].win_after == pytest.approx(
        100.0 - win_percent(raw_after), abs=1e-9
    )
    assert evaluations[1].win_after == pytest.approx(
        100.0 - win_percent(-raw_after), abs=1e-9
    )


def test_subject_plies_delivered_mate_counts_for_subject():
    record = subject_game_record()
    session = ScriptedSession([
        (("cp", 50), None),
        (("mate", 0), None),  # opponent to move and already mated
        (("cp", 0), None),
        (("cp", 0), None),
    ])
    first = evaluate_subject_plies(record, session)[0]
    assert first.cp_after == 1000
    assert first.judgment == "none"


def test_subject_plies_evaluate_positions_in_order():
    record = subject_game_record()
    seen = []

    class Spy(ScriptedSession):
        def evaluate(self, fen, depth):
            seen.append((fen, depth))
            return super().evaluate(fen, depth)

    session = Spy([(("cp", 0), None)] * 4)
    evaluate_subject_plies(record, session, depth=20)
    # Subject is black: before/after FENs of plies 1 and 3 (0-based).
    assert seen[0][0] == record.plies[0].fen_after
    assert seen[1][0] == record.plies[1].fen_after
    assert seen[2][0] == record.plies[2].fen_after
    assert seen[3][0] == record.plies[3].fen_after
    assert all(depth == 20 for _, depth in seen)


def test_summarize_requires_subject_plies():
    with pytest.raises(ValueError):
        summarize_evaluations([])


def make_evaluation(index, judgment, is_best):
    return PlyEvaluation(
        ply_index=index,
        uci="e7e5",
        cp_before=0,
        cp_after=0,
        win_before=50.0,
        win_after=50.0,
        delta=0.0,
        judgment=judgment,
        is_best=is_best,
    )


def test_summary_rates_reproduce_reference_row():
    # 1000 subject plies shaped like a strong reasoning model's profile:
    # 4.2% blunders, 1.1% mistakes, 4.0% inaccuracies, 19.5% best moves.
    evaluations = []
    for i in range(1000):
        if i < 42:
            judgment = "blunder"
        elif i < 53:
            judgment = "mistake"
        elif i < 93:
            judgment = "inaccuracy"
        else:
            judgment = "none"
        evaluations.append(make_evaluation(i, judgment, is_best=i < 195))
    summary = summarize_evaluations(evaluations)
    assert summary.blunder_rate == 4.2
    assert summary.mistake_rate == 1.1
    assert summary.inaccuracy_rate == 4.0
    assert summary.best_rate == 19.5
    assert summary.subject_plies == 1000


def test_analysis_engine_config_spawns_with_exact_options(tmp_path):
    script = tmp_path / "script.json"
    log = tmp_path / "received.txt"
    script.write_text(json.dumps({
        "responses": [{"score": "cp 21", "bestmove": "e2e4"}],
        "log": str(log),
    }))
    config = AnalysisEngineConfig(command=(sys.executable, str(FAKE_UCI), str(script)))
    engine = config.spawn()
    try:
        score, best = engine.evaluate(rules.START_FEN, config.depth)
    finally:
        engine.quit()
    assert score == ("cp", 21)
    assert best == "e2e4"
    received = log.read_text().splitlines()
    assert "setoption name Threads value 1" in received
    assert "setoption name Hash value 128" in received
    assert "setoption name MultiPV value 1" in received
    assert "setoption name Skill Level value 20" in received
    assert "go depth 20" in received


# ---------------------------------------------------------------------------
# One log file on an engine from the shared queue.


def test_analyze_log_starts_a_new_game_before_each_game(tmp_path):
    log = tmp_path / "games.jsonl"
    for _ in range(2):
        reporting.append_log(log, reporting.record_to_entry(subject_game_record(), "mock"))
    received = tmp_path / "received.txt"
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "responses": [{"score": "cp 5", "bestmove": "e7e5"}],
        "log": str(received),
    }))
    config = AnalysisEngineConfig(command=(sys.executable, str(FAKE_UCI), str(script)), depth=3)
    engines = queue.SimpleQueue()
    diagnostics, rows, collected = analysis.analyze_log(log, config, engines)
    engines.get_nowait().quit()
    assert diagnostics == []
    assert [(r["game_index"], r["ply_index"]) for r in rows] == [(0, 1), (0, 3), (1, 1), (1, 3)]
    assert [e.ply_index for e in collected["mock"]] == [1, 3, 1, 3]
    lines = received.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line == "ucinewgame"]
    assert len(starts) == 2
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        game = lines[start:end]
        assert game[:2] == ["ucinewgame", "isready"] and game[2].startswith("position fen ")
        assert sum(line == "go depth 3" for line in game) == 4  # two searches per subject ply
    assert "position" not in " ".join(lines[:starts[0]])


def test_analyze_log_returns_its_engine_when_the_log_cannot_be_read(tmp_path):
    config = AnalysisEngineConfig(command=(sys.executable, str(FAKE_UCI)), depth=3)
    engines = queue.SimpleQueue()
    with pytest.raises(OSError):
        analysis.analyze_log(tmp_path / "missing.jsonl", config, engines)
    engine = engines.get_nowait()
    try:
        engine.new_game()  # still running
    finally:
        engine.quit()
