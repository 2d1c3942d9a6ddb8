"""Command-line surface: run match sets, analyze logs, estimate Elo, report.

One JSON manifest describes a run (subject, opponent grid, dialog settings,
seeds, output directory); flags override manifest values. Secrets never
live in manifests: endpoint bearer tokens come from the environment
variable each endpoint entry names. Logs are append-only, so interrupted
runs keep every completed game.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import shlex
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace

from . import analysis, dialog, elo, reporting, runner
from .players import (EngineConfig, LLMEndpointConfig, MoAConfig, ModelError, RandomSpec,
                      ScriptedDialogSpec, ScriptedMoverSpec)


class ConfigError(Exception):
    """Bad manifest or flags; reported before any game starts."""


# ---------------------------------------------------------------------------
# Manifest handling.


def load_manifest(path: str) -> dict:
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError("manifest must be a JSON object")
    return manifest


def _endpoint_config(entry: dict) -> LLMEndpointConfig:
    if "api_key" in entry or "token" in entry:
        raise ConfigError("secrets belong in the environment, not the manifest")
    known = {
        "base_url", "model", "temperature", "top_p", "reasoning_effort",
        "timeout_s", "max_retries", "api_key_env",
    }
    fields = {k: v for k, v in entry.items() if k in known}
    missing = {"base_url", "model"} - fields.keys()
    if missing:
        raise ConfigError(f"endpoint entry missing {sorted(missing)}")
    return LLMEndpointConfig(**fields)


def _engine_command(entry: dict) -> tuple:
    command = entry.get("command") or entry.get("path")
    if isinstance(command, str):
        command = shlex.split(command)
    if not command:
        raise ConfigError("engine entry needs a command or path")
    executable = command[0]
    if not (os.path.exists(executable) or shutil.which(executable)):
        raise ConfigError(f"engine executable not found: {executable}")
    return tuple(command)


def _as_list(key: str, value) -> list:
    """A manifest field that must be a JSON list; text would be iterated letter by letter."""
    if not isinstance(value, list):
        raise ConfigError(f"bad manifest: {key} must be a JSON list, not {type(value).__name__}")
    return value


def subject_spec(manifest: dict):
    """Build the measured player; returns (player, model_id)."""
    entry = manifest.get("subject")
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError("manifest needs a subject with a kind")
    kind = entry["kind"]
    if kind == "endpoint":
        config = _endpoint_config(entry)
        return config, config.model
    if kind == "moa":
        proposers = tuple(_endpoint_config(p) for p in _as_list("proposers", entry.get("proposers", [])))
        if not proposers:
            raise ConfigError("moa subject needs at least one proposer")
        config = MoAConfig(
            proposers=proposers,
            synthesizer=_endpoint_config(entry["synthesizer"]),
        )
        model_id = entry.get("name") or f"moa-{len(proposers)}x-{config.synthesizer.model}"
        return config, model_id
    if kind == "scripted":
        replies = _as_list("replies", entry.get("replies", []))
        if not replies:
            raise ConfigError("scripted subject needs a replies list")
        return (
            ScriptedDialogSpec(tuple(replies), cycle=entry.get("cycle", True)),
            entry.get("name", "scripted"),
        )
    if kind == "random":
        return RandomSpec(), entry.get("name", "random")
    raise ConfigError(f"unknown subject kind {kind!r}")


def opponent_cells(manifest: dict) -> list:
    """Expand the opponent entry into (cell_name, player) grid cells."""
    entry = manifest.get("opponent", {"kind": "random"})
    kind = entry.get("kind", "random")
    if kind == "random":
        return [("random", RandomSpec())]
    if kind == "scripted_moves":
        return [("scripted", ScriptedMoverSpec(tuple(_as_list("moves", entry["moves"]))))]
    if kind == "engine":
        command = _engine_command(entry)
        skills = _as_list("skills", entry.get("skills", []))
        skills = skills or ([entry["skill"]] if "skill" in entry else [None])
        cells = []
        for skill in skills:
            config = EngineConfig(
                command=command,
                skill=skill,
                skill_option=entry.get("skill_option", "Skill"),
                movetime_ms=entry.get("movetime_ms", 1000),
                depth=entry.get("depth"),
            )
            name = "engine" if skill is None else f"skill-{skill}"
            cells.append((name, config))
        return cells
    raise ConfigError(f"unknown opponent kind {kind!r}")


def variant_from(value) -> dialog.ProtocolVariant:
    if value is None:
        return dialog.ProtocolVariant()
    if isinstance(value, str):
        try:
            return dialog.VARIANTS[value]
        except KeyError:
            known = ", ".join(sorted(dialog.VARIANTS))
            raise ConfigError(f"unknown variant {value!r}; known: {known}") from None
    if isinstance(value, dict):
        try:
            return dialog.ProtocolVariant(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad variant settings: {exc}") from exc
    raise ConfigError("variant must be a name or a settings object")


def limits_from(value) -> dialog.DialogLimits:
    if value is None:
        return dialog.DialogLimits()
    try:
        return dialog.DialogLimits(**value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad limits: {exc}") from exc


def game_config(manifest: dict, subject, opponent) -> runner.GameConfig:
    color = manifest.get("subject_color", "b")
    white, black = (subject, opponent) if color == "w" else (opponent, subject)
    try:
        return runner.GameConfig(
            white=white,
            black=black,
            limits=limits_from(manifest.get("limits")),
            variant=variant_from(manifest.get("variant")),
            seed=int(manifest.get("seed", 0)),
            error_policy=manifest.get("error_policy", runner.COUNT_MODEL_ERRORS_AS_LOSS),
            subject_color=color,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands.


def _summary_line(cell: str, stats: reporting.AggregateStats) -> str:
    return (
        f"cell={cell} games={stats.total_games} excluded={stats.excluded} "
        f"win_loss={stats.win_loss_percent:.1f} mate_b={stats.mate_black_pct:.1f} "
        f"mate_w={stats.mate_white_pct:.1f} draws={stats.draw_pct:.1f} "
        f"instruction={stats.instruction_pct:.1f} model_errors={stats.model_error_pct:.1f} "
        f"avg_plies={stats.avg_plies:.1f}"
    )


def cmd_run(args) -> int:
    manifest = load_manifest(args.config)
    if args.games is not None:
        manifest["games"] = args.games
    if args.seed is not None:
        manifest["seed"] = args.seed
    if args.parallelism is not None:
        manifest["parallelism"] = args.parallelism
    if args.variant is not None:
        manifest["variant"] = args.variant
    if args.out is not None:
        manifest["out_dir"] = args.out
    if args.skill:
        manifest.setdefault("opponent", {})["skills"] = args.skill

    try:
        games = int(manifest.get("games", 30))
        if games < 1:
            raise ConfigError("games must be at least 1")
        parallelism = int(manifest.get("parallelism", 1))
        if parallelism < 1:
            raise ConfigError("parallelism must be at least 1")
        subject, model_id = subject_spec(manifest)
        cells = [(cell, game_config(manifest, subject, opp)) for cell, opp in opponent_cells(manifest)]
        out_dir = manifest.get("out_dir", "runs")
        log_paths = [os.path.join(out_dir, f"games-{cell}.jsonl") for cell, _ in cells]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a field of the wrong shape
        raise ConfigError(f"bad manifest: {type(exc).__name__}: {exc}") from exc
    # One pool plays every cell's games, game i seeded seed + i. Only this thread
    # writes logs and prints, in cell then game order, so neither depends on parallelism.
    configs = [replace(cfg, seed=cfg.seed + i) for _, cfg in cells for i in range(games)]
    with closing(runner.play_games(configs, parallelism)) as played:
        try:
            for (cell, _), log_path in zip(cells, log_paths):
                records = []
                for index, record in enumerate(itertools.islice(played, games)):
                    reporting.append_log(log_path, reporting.record_to_entry(record, model_id))
                    print(f"game {index + 1}/{games}: {record.termination} plys={record.ply_count}",
                          file=sys.stderr)
                    records.append(record)
                if all(r.excluded for r in records):
                    print(f"cell={cell} games=0 excluded={len(records)} (no scorable games)")
                else:
                    print(_summary_line(cell, reporting.aggregate(records)))
                print(f"wrote {games} games to {log_path}", file=sys.stderr)
        except KeyboardInterrupt:
            print(f"interrupted; completed games kept in {out_dir}", file=sys.stderr)
            return 130
    return 0


def _analysis_engine(args):
    if args.engine is None:
        raise ConfigError("analyze needs --engine (the UCI engine command line)")
    command = tuple(shlex.split(args.engine))
    if not command or not (os.path.exists(command[0]) or shutil.which(command[0])):
        raise ConfigError(f"analysis engine not found: {command[0] if command else ''}")
    return analysis.AnalysisEngineConfig(command=command, depth=args.depth)


def _usable_cpus() -> int:
    """CPUs this process may run on, so `taskset` also bounds the analysis pool."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cmd_analyze(args) -> int:
    config = _analysis_engine(args)
    by_model: dict = {}
    failed = False
    # Up to one log file per CPU at a time. A log borrows an idle engine from
    # `engines` or starts one, so no more engines run than workers. Results are
    # taken in argument order, so the output is the same as a serial run's.
    pool = ThreadPoolExecutor(max_workers=min(len(args.logs), _usable_cpus()))
    engines = queue.SimpleQueue()
    try:
        futures = [pool.submit(analysis.analyze_log, path, config, engines) for path in args.logs]
        for log_path, future in zip(args.logs, futures):
            try:
                diagnostics, rows, collected = future.result()
            except (ModelError, OSError) as exc:
                print(f"error: {log_path}: {exc}", file=sys.stderr)
                failed = True
                continue
            for line in diagnostics:
                print(line, file=sys.stderr)
            sidecar = log_path + ".analysis.jsonl"
            tmp = sidecar + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                for row in rows:
                    handle.write(json.dumps(row) + "\n")
            os.replace(tmp, sidecar)
            print(f"wrote {len(rows)} analysis rows to {sidecar}", file=sys.stderr)
            for model_id, evaluations in collected.items():
                by_model.setdefault(model_id, []).extend(evaluations)
    except KeyboardInterrupt:
        print("interrupted; sidecars already written are kept", file=sys.stderr)
        return 130
    finally:
        pool.shutdown(cancel_futures=True)  # files not yet started are dropped
        while not engines.empty():  # every worker has put its engine back
            engines.get().quit()
    for model_id, evaluations in sorted(by_model.items()):  # one summary per model, all logs
        summary = analysis.summarize_evaluations(evaluations)
        print(
            f"model={model_id} plies={summary.subject_plies} "
            f"blunder={summary.blunder_rate:.1f} mistake={summary.mistake_rate:.1f} "
            f"inaccuracy={summary.inaccuracy_rate:.1f} best={summary.best_rate:.1f} "
            f"avg_win={summary.avg_win_percent:.1f}"
        )
    if not by_model:
        print("no analyzable subject plies found", file=sys.stderr)
    return 2 if failed else 0


def _read_games(log_paths) -> list:
    """The logs' readable games as (entry, record) pairs; prints every diagnostic."""
    games = []
    for log_path in log_paths:
        diagnostics = []
        for entry, record in reporting.read_log(log_path, diagnostics):
            if not isinstance(record, str):  # a bad record is already a diagnostic
                games.append((entry, record))
        for line in diagnostics:
            print(line, file=sys.stderr)
    return games


def cmd_elo(args) -> int:
    if bool(args.outcomes) == bool(args.logs):
        raise ConfigError("give either --outcomes or log files, not both or neither")
    try:
        if args.outcomes:
            outcomes = elo.read_outcomes_csv(args.outcomes)
        else:
            records = [record for _, record in _read_games(args.logs)]
            anchors = {}
            for pair in args.anchor or ():
                skill_text, _, rating_text = pair.partition("=")
                try:
                    anchors[int(skill_text)] = float(rating_text)
                except ValueError:
                    raise ConfigError(f"bad --anchor {pair!r}, expected SKILL=ELO") from None
            outcomes = elo.outcomes_from_records(records, anchors)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not outcomes:
        raise ConfigError("no scorable outcomes found")

    estimate = elo.estimate_elo(outcomes, white_advantage=args.white_advantage)
    low, high = estimate.ci95
    print(
        f"games={len(outcomes)} rating={estimate.rating:.1f} se={estimate.standard_error:.1f} "
        f"ci95=[{low:.1f}, {high:.1f}] white_advantage={estimate.white_advantage:g} "
        f"boundary={estimate.boundary}"
    )
    if args.out:
        reporting.append_log(args.out, {
            "schema_version": reporting.SCHEMA_VERSION,
            "kind": "elo_estimate",
            "games": len(outcomes),
            "rating": estimate.rating,
            "standard_error": estimate.standard_error,
            "ci_half_width": estimate.ci_half_width,
            "white_advantage": estimate.white_advantage,
            "boundary": estimate.boundary,
        })
    if args.fail_on_boundary and estimate.boundary != elo.BOUNDARY_NONE:
        print(f"estimate clamped at the search bracket ({estimate.boundary})", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    games = _read_games(args.logs)
    if not games:
        raise ConfigError("no games found in the given logs")
    stats_by_model = reporting.aggregate_entries(games)
    for model in sorted({entry["model_id"] for entry, _ in games} - stats_by_model.keys()):
        print(f"model={model}: no scorable games, left out of the leaderboard", file=sys.stderr)
    if not stats_by_model:
        raise ConfigError("no scorable games in the given logs")
    csv_text = reporting.emit_leaderboard(stats_by_model, "csv")
    md_text = reporting.emit_leaderboard(stats_by_model, "markdown")
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "leaderboard.csv")
    md_path = os.path.join(args.out, "leaderboard.md")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    with open(md_path, "w", encoding="utf-8") as handle:
        handle.write(md_text)
    sys.stdout.write(csv_text)
    print(f"wrote {csv_path} and {md_path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentchess",
        description="Score chat-completion agents at chess through a three-action dialog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a manifest's game grid and write logs")
    run.add_argument("--config", required=True, help="JSON run manifest")
    run.add_argument("--games", type=int, help="games per grid cell")
    run.add_argument("--seed", type=int, help="seed base (game i uses seed + i)")
    run.add_argument("--parallelism", type=int, help="concurrent games")
    run.add_argument("--variant", help="protocol variant name")
    run.add_argument("--skill", type=int, action="append", help="restrict engine skills")
    run.add_argument("--out", help="output directory for logs")
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser("analyze", help="score logged games with a UCI engine")
    analyze.add_argument("logs", nargs="+", help="game log files")
    analyze.add_argument("--engine", help="UCI engine command line")
    analyze.add_argument("--depth", type=int, default=20)
    analyze.set_defaults(func=cmd_analyze)

    elo_cmd = sub.add_parser("elo", help="maximum-likelihood rating from engine games")
    elo_cmd.add_argument("logs", nargs="*", help="game log files")
    elo_cmd.add_argument("--outcomes", help="CSV of opponent_rating,score rows")
    elo_cmd.add_argument("--white-advantage", type=float, default=elo.DEFAULT_WHITE_ADVANTAGE)
    elo_cmd.add_argument("--anchor", action="append", help="override SKILL=ELO anchor")
    elo_cmd.add_argument("--out", help="append the estimate to this report file")
    elo_cmd.add_argument("--fail-on-boundary", action="store_true")
    elo_cmd.set_defaults(func=cmd_elo)

    report = sub.add_parser("report", help="emit leaderboard files from logs")
    report.add_argument("logs", nargs="+", help="game log files")
    report.add_argument("--out", default="reports", help="output directory")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
