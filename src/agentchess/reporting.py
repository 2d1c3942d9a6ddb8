"""Durable game logs, per-model metric aggregation, leaderboard emission.

Logs are append-only JSON lines, one self-contained entry per game: enough
to recompute every per-game metric and replay the dialog. Aggregation
produces the per-model numbers (Win/Loss, termination breakdown, wrong
actions and moves per 1000 dialogs); percentages are stored at full precision and displayed at one
decimal everywhere, with dot decimal separators regardless of locale.
"""
from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
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
    never enter a denominator. Per-1000 rates are over subject dialogs.
    """

    total_games: int
    excluded: int
    win_loss_percent: float
    instruction_pct: float
    mate_white_pct: float
    mate_black_pct: float
    draw_pct: float
    model_error_pct: float
    avg_plies: float
    wrong_actions_per_1000: float  # unparsable replies: hallucinated actions
    wrong_moves_per_1000: float  # illegal move attempts


# (termination, subject colour) of the games that white won by mate.
_MATE_BY_WHITE = {(runner.TERM_CHECKMATE_SUBJECT, "w"), (runner.TERM_CHECKMATE_OPPONENT, "b")}


def aggregate(records) -> AggregateStats:
    """Fold game records into the per-model metric set: count in one pass, divide once."""
    ends = Counter()
    excluded = mate_white = plies = dialogs = illegal = unparsable = 0
    for r in records:
        if r.excluded:
            excluded += 1
            continue
        ends[r.termination] += 1
        mate_white += (r.termination, r.subject_color) in _MATE_BY_WHITE
        plies += r.ply_count
        dialogs += r.stats.subject_dialogs
        illegal += r.stats.illegal_move_attempts
        unparsable += r.stats.unparsable_replies
    n = ends.total()
    if not n:
        raise ValueError("no scorable records to aggregate")

    def games(terminations) -> int:
        return sum(ends[t] for t in terminations)

    def per_1000(total: int) -> float:
        return (total / dialogs if dialogs else 0.0) * 1000.0

    wins, losses = games(runner.WIN_TERMINATIONS), games(runner.LOSS_TERMINATIONS)
    mates = ends[runner.TERM_CHECKMATE_SUBJECT] + ends[runner.TERM_CHECKMATE_OPPONENT]
    return AggregateStats(
        total_games=n,
        excluded=excluded,
        win_loss_percent=(0.5 * (wins - losses) / n + 0.5) * 100.0,
        instruction_pct=games(runner.INSTRUCTION_TERMINATIONS) * 100.0 / n,
        mate_white_pct=mate_white * 100.0 / n,
        mate_black_pct=(mates - mate_white) * 100.0 / n,
        draw_pct=games(runner.DRAW_TERMINATIONS) * 100.0 / n,
        model_error_pct=ends[runner.TERM_MODEL_ERROR] * 100.0 / n,
        avg_plies=plies / n,
        wrong_actions_per_1000=per_1000(unparsable),
        wrong_moves_per_1000=per_1000(illegal),
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
        csv.writer(out, lineterminator="\n").writerows([LEADERBOARD_COLUMNS, *rows])  # quotes a name's , and "
        return out.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(LEADERBOARD_COLUMNS) + " |",
            "|" + "|".join([" --- "] * len(LEADERBOARD_COLUMNS)) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown leaderboard format {fmt!r}")
