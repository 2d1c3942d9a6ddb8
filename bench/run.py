#!/usr/bin/env python3
"""agentchess benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the harness is imported from src/.
Each timed run starts a fresh interpreter (bench/timed.py) that calls
agentchess.cli.main in-process, so the process-global rules cache starts
cold and every run writes into a new output directory. Timed runs repeat
until S seconds have passed; every metric is the median over them, and
set-up alone (mocks, inputs, interpreter start, imports) is repeated until
there are MIN_SETUPS set-up samples for the setup_s median. Each
run's outputs are checked (see check_games and the workload classes), and
any failed check makes the command exit 1.

Workloads (all inputs derive from --seed):
  selfplay_random  random subject vs random opponent at parallelism 2: the
                   CPU-bound path, nearly all rules core and runner.
  endpoint_ladder  endpoint subject on the baseline variant at parallelism 2:
                   one game against each of a ladder of fake-engine skills,
                   then games against the random opponent, which run
                   concurrently. The loopback policy endpoint adds
                   ENDPOINT_LATENCY_MS per reply and the engine answers after
                   ENGINE_MOVETIME_MS: the I/O-bound path.
  reanalyze_logs   `analyze` with a fake engine burning ANALYSIS_COST_MS of
                   CPU per depth, then `report` and `elo`, over a log set that
                   set-up writes by running the harness (endpoint subject vs
                   the ladder, zero latency, parallelism 1 so the log order,
                   and with it the sidecar, is reproducible).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced timed runs and prints the per-layer metrics, taken from the traced
runs' spans (bench/tracer.py), plus the tracing overhead (traced minus
untraced wall time). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 60
MIN_SETUPS = 10  # setup_s is the median of at least this many set-ups per run
ENDPOINT_LATENCY_MS = 20.0
ENGINE_MOVETIME_MS = 10
ANALYSIS_DEPTH = 6
ANALYSIS_COST_MS = 0.5  # engine CPU per depth, so 3 ms per search
LADDER_SKILLS = (1, 5, 9)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "games_per_hour": "games/h",
    "plies_per_s": "1/s",
    "cpu_ms_per_ply": "ms",
    "harness_overhead_frac": "frac",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "rules.legal_moves.calls": "count",
    "rules.legal_moves.self_s": "s",
    "rules.apply_move.self_s": "s",
    "rules.game_status.self_s": "s",
    "rules.render_fen.self_s": "s",
    "runner.play_game.calls": "count",
    "runner.play_game.self_s": "s",
    "runner.worker_busy_frac": "frac",
    "dialog.run_ply.calls": "count",
    "dialog.run_ply.self_s": "s",
    "dialog.exchanges_per_ply": "count",
    "dialog.wasted_exchange_frac": "frac",
    "players.llm_reply.calls": "count",
    "players.llm_reply.p50_ms": "ms",
    "players.llm_reply.p99_ms": "ms",
    "players.llm_reply.failures": "count",
    "endpoint.requests_per_connection": "count",
    "endpoint.bytes_per_request": "bytes",
    "players.spawn_engine.calls": "count",
    "players.spawn_engine.p50_ms": "ms",
    "players.engine_move.p50_ms": "ms",
    "players.engine_move.overhead_ms": "ms",
    "players.UciEngine.evaluate.calls": "count",
    "players.UciEngine.evaluate.p50_ms": "ms",
    "players.UciEngine.evaluate.overhead_ms": "ms",
    "analysis.evaluate_subject_plies.self_s": "s",
    "analysis.engine_wait_frac": "frac",
    "reporting.append_log.calls": "count",
    "reporting.append_log.self_s": "s",
    "reporting.append_log.bytes": "bytes",
    "reporting.load_logs.s": "s",
    "reporting.load_logs.mib_per_s": "MiB/s",
    "reporting.entry_to_record.self_s": "s",
    "reporting.entry_to_record.s": "s",
    "reporting.aggregate_entries.s": "s",
    "elo.outcomes_from_records.s": "s",
    "elo.estimate_elo.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """An output check failed; the benchmark result is not correct."""


def sub_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Mocks and the timed child.


class PolicyServer:
    """The loopback policy endpoint process (bench/policy_server.py)."""

    def __init__(self, seed: int, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "policy_server.py"),
             "--seed", str(seed), "--latency-ms", str(latency_ms)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise CheckFailed("policy endpoint did not start")
        self.url = f"http://127.0.0.1:{port}/v1"
        self.counters = None

    def close(self) -> dict | None:
        """Stop the server and return its counters (None if it died)."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                out = self.proc.stdout.read()
                self.proc.wait(timeout=10)
                self.counters = json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait()
        return self.counters


def engine_command(seed: int) -> list:
    return [sys.executable, "bench/fake_engine.py", "--seed", str(seed), "--cost-ms", str(ANALYSIS_COST_MS)]


def run_child(run_dir: Path, commands: list, traced: bool, setup_started: float) -> dict:
    """Run bench/timed.py once; returns its result plus setup and engine stats."""
    spec = {
        "src": str(SRC),
        "commands": commands,
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.jsonl") if traced else None,
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "AGENTCHESS_API_KEY"}
    env["BENCH_ENGINE_STATS"] = str(run_dir / "engine_stats.jsonl")
    with open(run_dir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "timed.py"), str(spec_path)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"timed run exceeded {CHILD_TIMEOUT_S} s ({run_dir})") from None
    if proc.returncode != 0:
        tail = (run_dir / "stderr.txt").read_text()[-2000:]
        raise CheckFailed(f"timed run exited {proc.returncode} ({run_dir}):\n{tail}")
    result = json.loads((run_dir / "result.json").read_text())
    result["setup_s"] = result["ready"] - setup_started
    result["wall_s"] = sum(c["wall_s"] for c in result["commands"])
    result["cpu_s"] = sum(c["cpu_s"] for c in result["commands"])
    engine = {"movetime_searches": 0, "movetime_busy_s": 0.0, "depth_searches": 0, "depth_busy_s": 0.0}
    stats_path = run_dir / "engine_stats.jsonl"
    if stats_path.exists():
        for line in stats_path.read_text().splitlines():
            for key, value in json.loads(line).items():
                engine[key] += value
    result["engine"] = engine
    result["spans"] = spec["spans"]
    return result


# ---------------------------------------------------------------------------
# Output checks shared by the workloads.


def load_records(log_paths) -> tuple:
    from agentchess import reporting

    entries, diagnostics = reporting.load_logs(*log_paths)
    if diagnostics:
        raise CheckFailed(f"log diagnostics: {diagnostics[:3]}")
    return entries, [reporting.entry_to_record(e) for e in entries]


def check_games(records, limits: dict) -> None:
    """Every ply replays legally to its fen_after; every ending is known and within caps."""
    from agentchess import dialog, rules, runner

    known = runner.WIN_TERMINATIONS | runner.DRAW_TERMINATIONS | runner.LOSS_TERMINATIONS
    status_terms = {
        runner.TERM_CHECKMATE_SUBJECT: rules.CHECKMATE,
        runner.TERM_CHECKMATE_OPPONENT: rules.CHECKMATE,
        runner.TERM_STALEMATE: rules.STALEMATE,
        runner.TERM_INSUFFICIENT_MATERIAL: rules.INSUFFICIENT_MATERIAL,
        runner.TERM_SEVENTYFIVE_MOVES: rules.SEVENTYFIVE_MOVES,
        runner.TERM_FIVEFOLD_REPETITION: rules.FIVEFOLD_REPETITION,
    }
    max_plies = 2 * limits["max_full_moves"]
    for record in records:
        seed = record.config["seed"]
        if record.termination not in known:
            raise CheckFailed(f"seed {seed}: unknown termination {record.termination!r}")
        if record.ply_count > max_plies:
            raise CheckFailed(f"seed {seed}: {record.ply_count} plies exceed the cap")
        if record.termination == runner.TERM_MAX_MOVES and record.ply_count != max_plies:
            raise CheckFailed(f"seed {seed}: max_moves at {record.ply_count} plies")
        board = rules.Board.initial()
        history = rules.PositionHistory()
        history.push(board)
        for index, ply in enumerate(record.plies):
            if ply.mover != board.turn:
                raise CheckFailed(f"seed {seed} ply {index}: mover {ply.mover} out of turn")
            try:
                board = rules.apply_move(board, rules.Move.from_uci(ply.uci))
            except ValueError as exc:
                raise CheckFailed(f"seed {seed} ply {index}: {exc}") from None
            history.push(board)
            if rules.render_fen(board) != ply.fen_after:
                raise CheckFailed(f"seed {seed} ply {index}: fen_after does not replay")
            transcript = ply.transcript
            if transcript is not None and transcript.turns_used > limits["max_turns_per_ply"]:
                raise CheckFailed(f"seed {seed} ply {index}: turns over the cap")
        status = rules.game_status(board, history).kind
        expected = status_terms.get(record.termination, rules.ONGOING)
        if status != expected:
            raise CheckFailed(f"seed {seed}: ended {record.termination} but position is {status}")
        failed = record.failed_transcript
        if record.termination == dialog.TOO_MANY_WRONG_ACTIONS and (
            failed is None or failed.failed_attempts < limits["max_attempts_per_turn"]
        ):
            raise CheckFailed(f"seed {seed}: wrong-action ending without the attempts")
        if record.termination == dialog.MAX_TURNS and (
            failed is None or failed.turns_used != limits["max_turns_per_ply"]
        ):
            raise CheckFailed(f"seed {seed}: max_turns ending without the turns")


def fingerprints(records, endpoint_url: str | None) -> list:
    """Sorted record fingerprints; the endpoint's port is masked (it changes per run)."""
    prints = [r.fingerprint() for r in records]
    if endpoint_url:
        prints = [p.replace(endpoint_url, "<endpoint>") for p in prints]
    return sorted(prints)


def digest_of(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else str(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


SUMMARY = re.compile(r"^cell=(\S+) games=(\d+) excluded=(\d+)", re.M)


# ---------------------------------------------------------------------------
# Workloads.


class RunWorkload:
    """`agentchess run` over one or more manifests (one command each);
    subclasses supply the manifests and mocks."""

    latency_ms = 0.0
    movetime_ms = 0

    def __init__(self, seed: int, work: Path, parallelism: int):
        self.seed = seed
        self.parallelism = parallelism

    def prepare(self) -> None:
        pass

    def manifests(self, endpoint_url) -> list:
        raise NotImplementedError

    def server(self):
        return None

    def timed_run(self, run_dir: Path, traced: bool, setup_only: bool = False) -> dict:
        started = time.monotonic()
        run_dir.mkdir(parents=True)
        server = self.server()
        try:
            url = server.url if server else None
            commands, out_dirs = [], []
            for index, manifest in enumerate(self.manifests(url)):
                manifest_path = run_dir / f"manifest{index}.json"
                manifest_path.write_text(json.dumps(manifest))
                out_dirs.append(run_dir / f"out{index}")
                commands.append(["run", "--config", str(manifest_path), "--out", str(out_dirs[-1])])
            result = run_child(run_dir, [] if setup_only else commands, traced, started)
        finally:
            counters = server.close() if server else None
        result["endpoint"] = counters
        result["endpoint_url"] = url
        result["out_dirs"] = out_dirs
        return result

    def check(self, run: dict, full: bool) -> str:
        records, lines, logs = [], [], []
        for manifest, out_dir, command in zip(self.manifests(None), run["out_dirs"], run["commands"]):
            cell_logs = sorted(out_dir.glob("games-*.jsonl"))
            _, cell_records = load_records(cell_logs)
            cells = len(manifest["opponent"].get("skills", [None]))
            if len(cell_records) != manifest["games"] * cells or len(cell_logs) != cells:
                raise CheckFailed(f"{len(cell_records)} games logged in {len(cell_logs)} cells")
            stdout = command["stdout"]
            summary = SUMMARY.findall(stdout)
            if len(summary) != cells or any(int(g) + int(x) != manifest["games"] for _, g, x in summary):
                raise CheckFailed(f"run summary does not match the logs: {summary}")
            if full:
                check_games(cell_records, manifest["limits"])
            records += cell_records
            logs += cell_logs
            lines += [line for line in stdout.splitlines() if line.startswith("cell=")]
        run["games"] = len(records)
        run["plies"] = sum(r.ply_count for r in records)
        run["game_seconds"] = sum(r.duration_s for r in records)
        run["model_errors"] = sum(r.termination == "model_error" for r in records)
        run["wasted"] = sum(r.stats.unparsable_replies + r.stats.illegal_move_attempts for r in records)
        run["log_bytes"] = sum(p.stat().st_size for p in logs)
        run["records"] = records
        return digest_of(*fingerprints(records, run["endpoint_url"]), "\n".join(lines))

    def end_to_end(self, run: dict) -> dict:
        wall = run["wall_s"]
        known = 0.0
        if run["endpoint"]:
            known += run["endpoint"]["requests"] * self.latency_ms / 1000.0
        known += run["engine"]["movetime_searches"] * self.movetime_ms / 1000.0
        return {
            "games_per_hour": run["games"] / wall * 3600.0,
            "plies_per_s": run["plies"] / wall,
            "cpu_ms_per_ply": run["cpu_s"] / run["plies"] * 1000.0,
            # Share of worker (game) time not spent in the known mock delays;
            # with no mock delays, as in selfplay_random, it is 1.
            "harness_overhead_frac": (run["game_seconds"] - known) / run["game_seconds"],
        }

    def attempted_failed(self, run: dict) -> tuple:
        return run["games"], run["model_errors"]


class SelfPlayRandom(RunWorkload):
    """Random vs random. The 60-move cap ends about 97% of random games, so
    the plies per timed run, and with them wall_s, barely move with the seed,
    while the few earlier mates and draws keep those endings checked."""

    games = 40
    limits = {"max_turns_per_ply": 10, "max_attempts_per_turn": 3, "max_full_moves": 60}

    def manifests(self, endpoint_url):
        (game_seed,) = sub_seeds("selfplay_random", self.seed, 1)
        return [{
            "subject": {"kind": "random", "name": "random-subject"},
            "opponent": {"kind": "random"},
            "limits": self.limits,
            "games": self.games,
            "seed": game_seed,
            "parallelism": self.parallelism,
        }]


class EndpointLadder(RunWorkload):
    """Endpoint subject on the baseline variant: two `run` commands per timed run.

    Neither the policy nor the fake engine sees the game seed, so the games
    of one engine cell would be copies of one game that also share the
    process-global rules move cache. The ladder therefore plays one game per
    skill cell, and the concurrency at this parallelism comes from a second
    manifest against the seeded random opponent, whose games differ.
    """

    skills = LADDER_SKILLS
    random_games = 2
    limits = {"max_turns_per_ply": 10, "max_attempts_per_turn": 3, "max_full_moves": 30}
    latency_ms = ENDPOINT_LATENCY_MS
    movetime_ms = ENGINE_MOVETIME_MS
    name = "endpoint_ladder"

    def seeds(self):
        return sub_seeds(self.name, self.seed, 4)

    def server(self):
        return PolicyServer(self.seeds()[1], self.latency_ms)

    def manifest(self, endpoint_url, opponent: dict, games: int, seed: int) -> dict:
        return {
            "subject": {
                "kind": "endpoint",
                "base_url": endpoint_url or "<endpoint>",
                "model": "bench-policy",
                "api_key_env": "",
                "timeout_s": 30,
            },
            "opponent": opponent,
            "variant": "baseline",
            "limits": self.limits,
            "games": games,
            "seed": seed,
            "parallelism": self.parallelism,
        }

    def ladder(self, endpoint_url) -> dict:
        game_seed, _, engine_seed, _ = self.seeds()
        opponent = {
            "kind": "engine",
            "command": engine_command(engine_seed),
            "skills": list(self.skills),
            "movetime_ms": self.movetime_ms,
        }
        return self.manifest(endpoint_url, opponent, 1, game_seed)

    def manifests(self, endpoint_url):
        random_seed = self.seeds()[3]
        return [
            self.ladder(endpoint_url),
            self.manifest(endpoint_url, {"kind": "random"}, self.random_games, random_seed),
        ]


class LogSetWriter(EndpointLadder):
    """The harness run whose logs reanalyze_logs reads: the ladder alone over
    nine skill cells, no latency, parallelism 1."""

    skills = tuple(range(1, 10))
    limits = {"max_turns_per_ply": 10, "max_attempts_per_turn": 3, "max_full_moves": 40}
    latency_ms = 0.0
    movetime_ms = 1
    name = "reanalyze_logs"

    def manifests(self, endpoint_url):
        return [self.ladder(endpoint_url)]


class ReanalyzeLogs:
    def __init__(self, seed: int, work: Path, parallelism: int):
        self.seed = seed
        self.work = work
        self.writer = LogSetWriter(seed, work, 1)

    def prepare(self) -> None:
        """Write and check the log set by running the harness itself."""
        started = time.monotonic()
        run = self.writer.timed_run(self.work / "logset", traced=False)
        self.writer.check(run, full=True)
        self.logs = sorted(run["out_dirs"][0].glob("games-*.jsonl"))
        self.records = run["records"]
        self.log_prints = fingerprints(self.records, run["endpoint_url"])
        self.logset_s = time.monotonic() - started

    def timed_run(self, run_dir: Path, traced: bool, setup_only: bool = False) -> dict:
        started = time.monotonic()
        logs_dir = run_dir / "logs"
        logs_dir.mkdir(parents=True)
        logs = [str(shutil.copy(p, logs_dir / p.name)) for p in self.logs]
        engine = shlex.join(engine_command(sub_seeds("reanalyze_logs", self.seed, 4)[3]))
        commands = [
            ["analyze", *logs, "--engine", engine, "--depth", str(ANALYSIS_DEPTH)],
            ["report", *logs, "--out", str(run_dir / "reports")],
            ["elo", *logs],
        ]
        result = run_child(run_dir, [] if setup_only else commands, traced, started)
        result["logs"] = logs
        return result

    def check(self, run: dict, full: bool) -> str:
        analyze, report, elo_cmd = (c["stdout"] for c in run["commands"])
        sidecars = b""
        rows = []
        for path in run["logs"]:
            raw = Path(path + ".analysis.jsonl").read_bytes()
            sidecars += raw
            rows.append([json.loads(line) for line in raw.splitlines()])
        for log_rows, log_path in zip(rows, run["logs"]):
            _, records = load_records([log_path])
            for index, record in enumerate(records):
                subject = sum(p.mover == record.subject_color for p in record.plies)
                scored = [r for r in log_rows if r["game_index"] == index and "ply_index" in r]
                if len(scored) != subject:
                    raise CheckFailed(f"{log_path} game {index}: {len(scored)} rows for {subject} subject plies")
        board = csv.DictReader(io.StringIO(report))
        games = sum(int(row["games"]) + int(row["excluded"]) for row in board)
        if games != len(self.records):
            raise CheckFailed(f"leaderboard counts {games} games, logs hold {len(self.records)}")
        match = re.search(r"games=(\d+) rating=(\S+)", elo_cmd)
        scorable = sum(not r.excluded for r in self.records)
        if not match or int(match.group(1)) != scorable or not math.isfinite(float(match.group(2))):
            raise CheckFailed(f"bad Elo line: {elo_cmd!r}")
        flat = [r for log_rows in rows for r in log_rows]
        run["analysed"] = sum("ply_index" in r for r in flat)
        run["unanalyzed"] = sum("unanalyzed" in r for r in flat)
        run["log_bytes"] = sum(Path(p).stat().st_size for p in run["logs"])
        return digest_of(*self.log_prints, sidecars, analyze, report, elo_cmd)

    def end_to_end(self, run: dict) -> dict:
        analyze_wall = run["commands"][0]["wall_s"]
        known = run["engine"]["depth_searches"] * ANALYSIS_DEPTH * ANALYSIS_COST_MS / 1000.0
        return {
            "games_per_hour": len(self.records) / run["wall_s"] * 3600.0,
            "plies_per_s": run["analysed"] / analyze_wall,
            "cpu_ms_per_ply": run["cpu_s"] / run["analysed"] * 1000.0,
            "harness_overhead_frac": (analyze_wall - known) / analyze_wall,
        }

    def attempted_failed(self, run: dict) -> tuple:
        return run["analysed"] + run["unanalyzed"], run["unanalyzed"]


WORKLOADS = {
    "selfplay_random": SelfPlayRandom,
    "endpoint_ladder": EndpointLadder,
    "reanalyze_logs": ReanalyzeLogs,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run's spans.


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(run: dict, workload) -> dict:
    with open(run["spans"], encoding="utf-8") as handle:
        file_bytes = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    by_name: dict = {}
    for _, _, name, _, start, end, self_s, failed in spans:
        entry = by_name.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0, "durations": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += self_s
        entry["failed"] += failed
        entry["durations"].append(end - start)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0, "durations": []}

    def get(name):
        return by_name.get(name, empty)

    def p_ms(name, q):
        return percentile(get(name)["durations"], q) * 1000.0

    def per_call_ms(seconds, calls):
        return seconds / calls * 1000.0 if calls else 0.0

    engine = run["engine"]
    endpoint = run.get("endpoint") or {}
    reply, run_ply = get("players.llm_reply"), get("dialog.run_ply")
    move, evaluate = get("players.engine_move"), get("players.UciEngine.evaluate")
    load = get("reporting.load_logs")
    analyze_wall = sum(c["wall_s"] for c in run["commands"] if c["argv"][0] == "analyze")
    run_wall = sum(c["wall_s"] for c in run["commands"] if c["argv"][0] == "run")
    parallelism = getattr(workload, "parallelism", 1)
    return {
        "rules.legal_moves.calls": get("rules.legal_moves")["calls"],
        "rules.legal_moves.self_s": get("rules.legal_moves")["self"],
        "rules.apply_move.self_s": get("rules.apply_move")["self"],
        "rules.game_status.self_s": get("rules.game_status")["self"],
        "rules.render_fen.self_s": get("rules.render_fen")["self"],
        "runner.play_game.calls": get("runner.play_game")["calls"],
        "runner.play_game.self_s": get("runner.play_game")["self"],
        "runner.worker_busy_frac":
            get("runner.play_game")["total"] / (run_wall * parallelism) if run_wall else 0.0,
        "dialog.run_ply.calls": run_ply["calls"],
        "dialog.run_ply.self_s": run_ply["self"],
        "dialog.exchanges_per_ply": reply["calls"] / run_ply["calls"] if run_ply["calls"] else 0.0,
        "dialog.wasted_exchange_frac": run.get("wasted", 0) / reply["calls"] if reply["calls"] else 0.0,
        "players.llm_reply.calls": reply["calls"],
        "players.llm_reply.p50_ms": p_ms("players.llm_reply", 0.50),
        "players.llm_reply.p99_ms": p_ms("players.llm_reply", 0.99),
        "players.llm_reply.failures": reply["failed"],
        "endpoint.requests_per_connection":
            endpoint["requests"] / endpoint["connections"] if endpoint.get("connections") else 0.0,
        "endpoint.bytes_per_request":
            endpoint["request_bytes"] / endpoint["requests"] if endpoint.get("requests") else 0.0,
        # Engines start through spawn_engine in play and through
        # AnalysisEngineConfig.spawn in analyze; both end in UciEngine.start.
        "players.spawn_engine.calls": get("players.UciEngine.start")["calls"],
        "players.spawn_engine.p50_ms": p_ms("players.UciEngine.start", 0.50),
        "players.engine_move.p50_ms": p_ms("players.engine_move", 0.50),
        "players.engine_move.overhead_ms": per_call_ms(move["total"] - engine["movetime_busy_s"], move["calls"]),
        "players.UciEngine.evaluate.calls": evaluate["calls"],
        "players.UciEngine.evaluate.p50_ms": p_ms("players.UciEngine.evaluate", 0.50),
        "players.UciEngine.evaluate.overhead_ms":
            per_call_ms(evaluate["total"] - engine["depth_busy_s"], evaluate["calls"]),
        "analysis.evaluate_subject_plies.self_s": get("analysis.evaluate_subject_plies")["self"],
        "analysis.engine_wait_frac": evaluate["total"] / analyze_wall if analyze_wall else 0.0,
        "reporting.append_log.calls": get("reporting.append_log")["calls"],
        "reporting.append_log.self_s": get("reporting.append_log")["self"],
        "reporting.append_log.bytes": run.get("log_bytes", 0) if get("reporting.append_log")["calls"] else 0,
        "reporting.load_logs.s": load["total"],
        "reporting.load_logs.mib_per_s":
            file_bytes.get("reporting.load_logs", 0) / 2**20 / load["total"] if load["total"] else 0.0,
        "reporting.entry_to_record.self_s": get("reporting.entry_to_record")["self"],
        "reporting.entry_to_record.s": get("reporting.entry_to_record")["total"],
        "reporting.aggregate_entries.s": get("reporting.aggregate_entries")["total"],
        "elo.outcomes_from_records.s": get("elo.outcomes_from_records")["total"],
        "elo.estimate_elo.s": get("elo.estimate_elo")["total"],
        "cli.main.self_s": get("cli.main")["self"],
        "trace.spans": len(spans),
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="agentchess benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parallelism", type=int, default=2,
                        help="games in flight for the run workloads (digests must not depend on it)")
    args = parser.parse_args()

    if not (SRC / "agentchess" / "__init__.py").is_file():
        print(f"error: no agentchess sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work, args.parallelism)
    runs, traced = [], []
    digests = set()
    try:
        workload.prepare()
        deadline = time.monotonic() + args.seconds
        while True:
            for is_traced in ((False, True) if args.trace else (False,)):
                index = len(runs) + len(traced)
                run = workload.timed_run(work / f"run{index}", traced=is_traced)
                digests.add(workload.check(run, full=not runs and not traced))
                if len(digests) != 1:
                    raise CheckFailed("outputs differ between timed runs of the same inputs")
                (traced if is_traced else runs).append(run)
            if time.monotonic() >= deadline:
                break
        setups = [r["setup_s"] for r in runs]
        while not args.trace and len(setups) < MIN_SETUPS:
            run_dir = work / f"setup{len(setups)}"
            setups.append(workload.timed_run(run_dir, traced=False, setup_only=True)["setup_s"])
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    samples = [dict(setup_s=r["setup_s"], wall_s=r["wall_s"],
                    peak_rss_mib=r["peak_rss_kib"] / 1024.0, **workload.end_to_end(r)) for r in runs]
    median = statistics.median
    if args.trace:
        layer = [per_layer(r, workload) for r in traced]
        values = {name: median([s[name] for s in layer]) for name in layer[0]}
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in runs])
        units = PER_LAYER
    else:
        values = {name: median([s[name] for s in samples]) for name in END_TO_END}
        values["setup_s"] = median(setups)
        units = END_TO_END
    attempted = failed = 0
    for run in runs + traced:
        a, f = workload.attempted_failed(run)
        attempted += a
        failed += f

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} timed_runs={len(runs)} "
          f"traced_runs={len(traced)} setups={len(setups)} digest={digests.pop()}")
    if isinstance(workload, ReanalyzeLogs):
        print(f"logset_s={workload.logset_s:.3f} games={len(workload.records)}")
    for index, sample in enumerate(samples):
        print(f"untraced run {index}: " + " ".join(f"{k}={v:.4g}" for k, v in sample.items()))
    for name, value in values.items():
        print(f"{name:42s} {value:14.6f} {units[name]}")
    print(f"{'error_frac':42s} {failed / attempted:14.6f} frac (failed / attempted)")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
