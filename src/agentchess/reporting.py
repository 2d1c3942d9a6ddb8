"""Durable game logs, per-model metric aggregation, leaderboard emission.

Logs are append-only JSON lines, one self-contained entry per game: enough
to recompute every per-game metric and replay the dialog. Aggregation
produces the per-model numbers (Win/Loss, termination breakdown, action
averages); percentages are stored at full precision and displayed at one
decimal everywhere, with dot decimal separators regardless of locale.
"""
from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass

from . import runner

SCHEMA_VERSION = 1

LEADERBOARD_COLUMNS = (
    "model",
    "games",
    "win_loss",
    "mate_b",
    "mate_w",
    "instruction",
    "draws",
    "model_errors",
    "excluded",
    "avg_plies",
)


def record_to_entry(record, model_id: str) -> dict:
    """Wrap a game record as a versioned, self-contained log entry."""
    return {
        "schema_version": SCHEMA_VERSION,
        "model_id": model_id,
        "record": record.to_dict(),
    }


def entry_to_record(entry: dict):
    return runner.record_from_dict(entry["record"])


def append_log(path, entry: dict) -> None:
    """Append one entry to a JSONL log, creating parent directories."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def read_log(path, diagnostics: list):
    """Yield (entry, record) for each schema-1 entry of one log, in file order.

    This is the one place a log line becomes a game. `record` is the rebuilt
    GameRecord, or the text "bad record: <exc!r>" when the entry cannot be
    rebuilt; such an entry keeps its place, so positions in the file stay
    game indexes. Every line that is not a readable game appends a
    "path:line: reason" diagnostic: a corrupt line, a line that is not a JSON
    object, an unknown schema version, or a bad record. Blank lines are
    skipped and unknown extra fields within an entry are ignored. A file that
    cannot be opened raises OSError.
    """
    path = os.fspath(path)
    # Bytes in, so json.loads decodes each line and bad UTF-8 spoils only its own line.
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                diagnostics.append(f"{path}:{number}: corrupt entry ({getattr(exc, 'msg', exc)})")
                continue
            if not isinstance(entry, dict):
                diagnostics.append(f"{path}:{number}: not a JSON object")
                continue
            version = entry.get("schema_version")
            if version != SCHEMA_VERSION:
                diagnostics.append(f"{path}:{number}: unsupported schema version {version!r}")
                continue
            try:
                if not isinstance(entry["model_id"], str):  # every command groups by it
                    raise TypeError(f"model_id {entry['model_id']!r} is not a string")
                record = entry_to_record(entry)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                record = f"bad record: {exc!r}"
                diagnostics.append(f"{path}:{number}: {record}")
            yield entry, record


def load_logs(*paths) -> tuple:
    """Read log files through read_log, returning (entries, diagnostics)."""
    diagnostics = []
    return [entry for path in paths for entry, _ in read_log(path, diagnostics)], diagnostics


# ---------------------------------------------------------------------------
# Aggregation.


@dataclass
class AggregateStats:
    """Per-model metrics over one set of games.

    Percentages cover scorable games only; excluded games are counted but
    never enter a denominator. Per-ply averages are over subject dialogs.
    """

    total_games: int
    excluded: int
    llm_wins: int
    opponent_wins: int
    draws: int
    win_loss_percent: float
    wrong_actions_pct: float
    max_turns_pct: float
    instruction_pct: float
    mate_white_pct: float
    mate_black_pct: float
    stalemate_pct: float
    insufficient_material_pct: float
    seventyfive_moves_pct: float
    fivefold_repetition_pct: float
    max_moves_pct: float
    draw_pct: float
    model_error_pct: float
    avg_plies: float
    board_queries_per_ply: float
    legal_move_queries_per_ply: float
    illegal_moves_per_ply: float
    unparsable_per_ply: float
    wrong_actions_per_1000: float
    wrong_moves_per_1000: float


def aggregate(records) -> AggregateStats:
    """Fold game records into the per-model metric set."""
    records = list(records)
    scorable = [r for r in records if not r.excluded]
    excluded = len(records) - len(scorable)
    if not scorable:
        raise ValueError("no scorable records to aggregate")
    n = len(scorable)

    terminations = [r.termination for r in scorable]
    count = terminations.count
    wins = sum(1 for t in terminations if t in runner.WIN_TERMINATIONS)
    losses = sum(1 for t in terminations if t in runner.LOSS_TERMINATIONS)
    draws = sum(1 for t in terminations if t in runner.DRAW_TERMINATIONS)

    mate_white = sum(
        1
        for r in scorable
        if (r.termination == runner.TERM_CHECKMATE_SUBJECT and r.subject_color == "w")
        or (r.termination == runner.TERM_CHECKMATE_OPPONENT and r.subject_color == "b")
    )
    mate_black = count(runner.TERM_CHECKMATE_SUBJECT) + count(runner.TERM_CHECKMATE_OPPONENT) - mate_white

    def pct(games: int) -> float:
        return games * 100.0 / n

    dialogs = sum(r.stats.subject_dialogs for r in scorable)

    def per_dialog(total: int) -> float:
        return total / dialogs if dialogs else 0.0

    total_illegal = sum(r.stats.illegal_move_attempts for r in scorable)
    total_unparsable = sum(r.stats.unparsable_replies for r in scorable)

    return AggregateStats(
        total_games=n,
        excluded=excluded,
        llm_wins=wins,
        opponent_wins=losses,
        draws=draws,
        win_loss_percent=(0.5 * (wins - losses) / n + 0.5) * 100.0,
        wrong_actions_pct=pct(count(runner.TERM_TOO_MANY_WRONG_ACTIONS)),
        max_turns_pct=pct(count(runner.TERM_MAX_TURNS)),
        instruction_pct=pct(sum(1 for t in terminations if t in runner.INSTRUCTION_TERMINATIONS)),
        mate_white_pct=pct(mate_white),
        mate_black_pct=pct(mate_black),
        stalemate_pct=pct(count(runner.TERM_STALEMATE)),
        insufficient_material_pct=pct(count(runner.TERM_INSUFFICIENT_MATERIAL)),
        seventyfive_moves_pct=pct(count(runner.TERM_SEVENTYFIVE_MOVES)),
        fivefold_repetition_pct=pct(count(runner.TERM_FIVEFOLD_REPETITION)),
        max_moves_pct=pct(count(runner.TERM_MAX_MOVES)),
        draw_pct=pct(draws),
        model_error_pct=pct(count(runner.TERM_MODEL_ERROR)),
        avg_plies=sum(r.ply_count for r in scorable) / n,
        board_queries_per_ply=per_dialog(sum(r.stats.board_queries for r in scorable)),
        legal_move_queries_per_ply=per_dialog(sum(r.stats.legal_move_queries for r in scorable)),
        illegal_moves_per_ply=per_dialog(total_illegal),
        unparsable_per_ply=per_dialog(total_unparsable),
        wrong_actions_per_1000=per_dialog(total_unparsable) * 1000.0,
        wrong_moves_per_1000=per_dialog(total_illegal) * 1000.0,
    )


def aggregate_entries(games) -> dict:
    """Group read_log's (entry, record) pairs by model id and aggregate each group.

    Every record must be a rebuilt GameRecord. Models whose games are all
    excluded have nothing to score and are left out of the result.
    """
    by_model: dict = {}
    for entry, record in games:
        by_model.setdefault(entry["model_id"], []).append(record)
    return {
        model: aggregate(records)
        for model, records in sorted(by_model.items())
        if not all(r.excluded for r in records)
    }


# ---------------------------------------------------------------------------
# Leaderboards.


def _leaderboard_rows(stats_by_model: dict) -> list:
    ordered = sorted(
        stats_by_model.items(),
        key=lambda item: (-item[1].win_loss_percent, -item[1].mate_black_pct, item[0]),
    )
    rows = []
    for model, stats in ordered:
        rows.append([
            model,
            str(stats.total_games),
            f"{stats.win_loss_percent:.1f}",
            f"{stats.mate_black_pct:.1f}",
            f"{stats.mate_white_pct:.1f}",
            f"{stats.instruction_pct:.1f}",
            f"{stats.draw_pct:.1f}",
            f"{stats.model_error_pct:.1f}",
            str(stats.excluded),
            f"{stats.avg_plies:.1f}",
        ])
    return rows


def emit_leaderboard(stats_by_model: dict, fmt: str = "csv") -> str:
    """Render the per-model table, best Win/Loss first.

    Ties break by the subject-mate rate, then by model name. Formats:
    "csv" and "markdown", both with the fixed column set.
    """
    if not stats_by_model:
        raise ValueError("no models to rank")
    rows = _leaderboard_rows(stats_by_model)
    if fmt == "csv":
        out = io.StringIO()
        out.write(",".join(LEADERBOARD_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(LEADERBOARD_COLUMNS) + " |",
            "|" + "|".join([" --- "] * len(LEADERBOARD_COLUMNS)) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown leaderboard format {fmt!r}")
