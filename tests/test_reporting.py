from __future__ import annotations

import csv
import io
import json

import pytest

from agentchess import reporting
from agentchess.reporting import (
    LEADERBOARD_COLUMNS,
    aggregate,
    aggregate_entries,
    append_log,
    emit_leaderboard,
    entry_to_record,
    load_logs,
    read_log,
    record_to_entry,
)
from agentchess.players import RandomSpec, ScriptedDialogSpec
from agentchess.runner import GameConfig, play_game

from conftest import make_record


def played_record(seed=0):
    cfg = GameConfig(
        white=RandomSpec(),
        black=ScriptedDialogSpec(("get_legal_moves", "banana", "make_move e7e5")),
        seed=seed,
    )
    return play_game(cfg)


# ---------------------------------------------------------------------------
# Log round trips.


def test_log_round_trip_100_entries(tmp_path):
    path = tmp_path / "games.jsonl"
    entries = [
        record_to_entry(make_record("max_moves", seed=i), "mock-model") for i in range(100)
    ]
    for entry in entries:
        append_log(path, entry)
    loaded, diagnostics = load_logs(path)
    assert diagnostics == []
    assert loaded == entries
    assert len(path.read_text().splitlines()) == 100


def test_log_truncated_line_reports_diagnostic(tmp_path):
    path = tmp_path / "games.jsonl"
    for i in range(10):
        append_log(path, record_to_entry(make_record("max_moves", seed=i), "m"))
    lines = path.read_text().splitlines()
    lines[4] = lines[4][: len(lines[4]) // 2]  # truncate one entry mid-JSON
    path.write_text("\n".join(lines) + "\n")
    loaded, diagnostics = load_logs(path)
    assert len(loaded) == 9
    assert len(diagnostics) == 1
    assert ":5:" in diagnostics[0]


def test_log_unknown_schema_version_skipped(tmp_path):
    path = tmp_path / "games.jsonl"
    append_log(path, record_to_entry(make_record("max_moves"), "m"))
    append_log(path, {"schema_version": 99, "model_id": "m", "record": {}})
    loaded, diagnostics = load_logs(path)
    assert len(loaded) == 1
    assert "schema version" in diagnostics[0]


def test_log_entry_ignores_unknown_future_fields(tmp_path):
    path = tmp_path / "games.jsonl"
    entry = {**record_to_entry(make_record("max_moves"), "m"), "novel_field": 42}
    append_log(path, entry)
    loaded, _ = load_logs(path)
    record = entry_to_record(loaded[0])
    assert record.termination == "max_moves"


def test_replayed_entry_recomputes_identical_metrics(tmp_path):
    path = tmp_path / "games.jsonl"
    record = played_record()
    append_log(path, record_to_entry(record, "mock"))
    loaded, _ = load_logs(path)
    clone = entry_to_record(loaded[0])
    assert clone.fingerprint() == record.fingerprint()
    assert aggregate([clone]) == aggregate([record])


# ---------------------------------------------------------------------------
# Aggregation.


def test_aggregate_all_subject_mates_is_100():
    stats = aggregate([make_record("checkmate_llm", ply_count=80) for _ in range(30)])
    assert stats.win_loss_percent == 100.0
    assert stats.mate_black_pct == 100.0
    assert stats.mate_white_pct == 0.0


def test_aggregate_drawish_row_matches_reference_numbers():
    # 29 cap draws at 200 plies plus one loss by mate at 122 plies.
    records = [make_record("max_moves", ply_count=200) for _ in range(29)]
    records.append(make_record("checkmate_opponent", ply_count=122))
    stats = aggregate(records)
    assert round(stats.win_loss_percent, 1) == 48.3
    assert round(stats.draw_pct, 1) == 96.7
    assert round(stats.avg_plies, 1) == 197.4
    assert stats.mate_white_pct == pytest.approx(100.0 / 30)


def test_aggregate_equal_wins_and_losses_is_50():
    records = [make_record("checkmate_llm") for _ in range(7)]
    records += [make_record("checkmate_opponent") for _ in range(7)]
    records += [make_record("stalemate") for _ in range(4)]
    assert aggregate(records).win_loss_percent == 50.0


def test_aggregate_win_loss_bounds():
    all_loss = aggregate([make_record("too_many_wrong_actions") for _ in range(5)])
    assert all_loss.win_loss_percent == 0.0
    assert all_loss.instruction_pct == 100.0
    mixed = aggregate(
        [make_record("checkmate_llm"), make_record("max_turns"), make_record("max_moves")]
    )
    assert 0.0 <= mixed.win_loss_percent <= 100.0


def test_aggregate_breakdown_sums_to_100_over_scorable():
    records = [
        make_record("checkmate_llm"),
        make_record("checkmate_opponent"),
        make_record("stalemate"),
        make_record("insufficient_material"),
        make_record("seventyfive_moves"),
        make_record("fivefold_repetition"),
        make_record("max_moves"),
        make_record("too_many_wrong_actions"),
        make_record("max_turns"),
        make_record("model_error"),
    ]
    stats = aggregate(records)
    total = (
        stats.mate_white_pct
        + stats.mate_black_pct
        + stats.draw_pct
        + stats.instruction_pct
        + stats.model_error_pct
    )
    assert total == pytest.approx(100.0)


def test_aggregate_exclusion_accounting():
    records = [make_record("checkmate_llm") for _ in range(3)]
    records += [make_record("model_error", excluded=True) for _ in range(2)]
    stats = aggregate(records)
    assert stats.total_games == 3
    assert stats.excluded == 2
    assert stats.total_games + stats.excluded == len(records)
    assert stats.win_loss_percent == 100.0  # excluded games never enter percentages


def test_aggregate_requires_scorable_records():
    with pytest.raises(ValueError):
        aggregate([make_record("model_error", excluded=True)])


def test_aggregate_subject_side_mate_labels():
    as_white = aggregate([make_record("checkmate_llm", subject_color="w")])
    assert as_white.mate_white_pct == 100.0
    assert as_white.mate_black_pct == 0.0


def test_aggregate_action_averages_and_mistake_rates():
    records = [
        make_record(
            "max_moves",
            ply_count=4,
            stats={
                "subject_dialogs": 2,
                "turns_used": 6,
                "board_queries": 2,
                "legal_move_queries": 4,
                "illegal_move_attempts": 1,
                "unparsable_replies": 3,
            },
        ),
        make_record(
            "max_moves",
            ply_count=4,
            stats={
                "subject_dialogs": 2,
                "turns_used": 2,
                "board_queries": 0,
                "legal_move_queries": 0,
                "illegal_move_attempts": 1,
                "unparsable_replies": 1,
            },
        ),
    ]
    stats = aggregate(records)
    assert stats.wrong_actions_per_1000 == 1000.0
    assert stats.wrong_moves_per_1000 == 500.0


def test_aggregate_from_real_game_matches_record_stats():
    record = played_record()
    stats = aggregate([record])
    dialogs = record.stats.subject_dialogs
    assert stats.wrong_actions_per_1000 == record.stats.unparsable_replies / dialogs * 1000.0
    assert stats.wrong_moves_per_1000 == record.stats.illegal_move_attempts / dialogs * 1000.0


# ---------------------------------------------------------------------------
# Leaderboards.


def two_model_stats():
    strong = aggregate([make_record("checkmate_llm", ply_count=80) for _ in range(30)])
    weak_records = [make_record("max_moves", ply_count=200) for _ in range(29)]
    weak_records.append(make_record("checkmate_opponent", ply_count=122))
    weak = aggregate(weak_records)
    return {"drawish-model": weak, "strong-model": strong}


def test_leaderboard_orders_by_win_loss():
    board = emit_leaderboard(two_model_stats(), "csv")
    rows = list(csv.reader(io.StringIO(board)))
    assert rows[0] == list(LEADERBOARD_COLUMNS)
    assert [r[0] for r in rows[1:]] == ["strong-model", "drawish-model"]
    assert rows[1][2] == "100.0"
    assert rows[2][2] == "48.3"
    assert rows[2][9] == "197.4"


def test_leaderboard_tie_breaks_by_mate_rate_then_name():
    tie_a = aggregate(
        [make_record("checkmate_llm"), make_record("checkmate_opponent")]
    )
    tie_b = aggregate(
        [make_record("stalemate"), make_record("max_moves")]
    )
    # Both sit at Win/Loss 50.0; the mating model ranks first.
    stats = {"zz-mating": tie_a, "aa-drawing": tie_b}
    rows = list(csv.reader(io.StringIO(emit_leaderboard(stats, "csv"))))
    assert [r[0] for r in rows[1:]] == ["zz-mating", "aa-drawing"]
    # Pure name tie.
    stats = {"beta": tie_b, "alpha": tie_b}
    rows = list(csv.reader(io.StringIO(emit_leaderboard(stats, "csv"))))
    assert [r[0] for r in rows[1:]] == ["alpha", "beta"]


def test_leaderboard_csv_parses_back_at_one_decimal():
    stats = two_model_stats()
    rows = list(csv.reader(io.StringIO(emit_leaderboard(stats, "csv"))))
    by_model = {r[0]: r for r in rows[1:]}
    for model, agg in stats.items():
        row = by_model[model]
        assert float(row[2]) == round(agg.win_loss_percent, 1)
        assert float(row[6]) == round(agg.draw_pct, 1)
        assert int(row[1]) == agg.total_games


def test_leaderboard_markdown_schema():
    text = emit_leaderboard(two_model_stats(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| " + " | ".join(LEADERBOARD_COLUMNS) + " |"
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 2 + 2
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    assert cells[0] == "strong-model"
    assert cells[2] == "100.0"


def test_leaderboard_deterministic():
    stats = two_model_stats()
    assert emit_leaderboard(stats, "csv") == emit_leaderboard(stats, "csv")
    assert emit_leaderboard(stats, "markdown") == emit_leaderboard(stats, "markdown")


def test_leaderboard_rejects_empty_and_bad_format():
    with pytest.raises(ValueError):
        emit_leaderboard({}, "csv")
    with pytest.raises(ValueError):
        emit_leaderboard(two_model_stats(), "xml")


def test_aggregate_entries_groups_by_model(tmp_path):
    path = tmp_path / "games.jsonl"
    append_log(path, record_to_entry(make_record("checkmate_llm"), "model-a"))
    append_log(path, record_to_entry(make_record("max_moves"), "model-b"))
    append_log(path, record_to_entry(make_record("checkmate_opponent"), "model-a"))
    diagnostics = []
    by_model = aggregate_entries(read_log(path, diagnostics))
    assert diagnostics == []
    assert set(by_model) == {"model-a", "model-b"}
    assert by_model["model-a"].total_games == 2
    assert by_model["model-b"].draw_pct == 100.0
