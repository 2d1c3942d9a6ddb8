#!/usr/bin/env python3
"""Deterministic UCI engine for the benchmark, built on agentchess.rules.

    python3 bench/fake_engine.py --seed N --cost-ms C

`go movetime T` answers a legal move once T ms have passed since the `go`
arrived, as a real engine spends its time budget, so the engine's own move
generation is hidden from the harness. The move is a pure function of
(seed, skill, FEN): with probability skill/20 the most valuable capture,
otherwise a hashed pick from the legal moves.

`go depth D` burns D * C ms of this process's CPU, then reports a score and
best move that are pure functions of the FEN (material from the side to
move's view plus a hashed jitter), so analysis rows are reproducible.

`uci`, `isready`, `setoption`, `ucinewgame`, `position fen` and
`quit` are understood. When the environment names a file in
BENCH_ENGINE_STATS, one JSON line of counters is appended to it on exit:
searches answered and the busy seconds spent on them, per kind.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from agentchess import rules  # noqa: E402

PIECE_VALUES = {"p": 100, "n": 300, "b": 300, "r": 500, "q": 900, "k": 0}


def digest(*parts) -> int:
    text = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def material(board) -> int:
    """Material balance in centipawns from the side to move's view."""
    total = 0
    for piece in board.squares:
        if piece is not None:
            value = PIECE_VALUES[piece.lower()]
            total += value if piece.isupper() == (board.turn == rules.WHITE) else -value
    return total


def pick_move(board, moves, key: int, skill: int):
    captures = [m for m in moves if board.squares[m.to_square] is not None]
    if captures and key % 20 < skill:
        return max(captures, key=lambda m: (PIECE_VALUES[board.squares[m.to_square].lower()], m.uci()))
    return moves[(key // 20) % len(moves)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cost-ms", type=float, required=True, help="CPU ms per search depth")
    args = parser.parse_args()

    skill = 0
    fen = rules.START_FEN
    stats = {"movetime_searches": 0, "movetime_busy_s": 0.0, "depth_searches": 0, "depth_busy_s": 0.0}

    def say(line: str) -> None:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    for raw in sys.stdin:
        tokens = raw.split()
        if not tokens:
            continue
        command = tokens[0]
        if command == "uci":
            say("id name bench-fake-engine")
            say("uciok")
        elif command == "isready":
            say("readyok")
        elif command == "setoption" and "value" in tokens:
            name = " ".join(tokens[2:tokens.index("value")])
            if name in ("Skill", "Skill Level"):
                skill = int(tokens[-1])
        elif command == "position":
            fen = " ".join(tokens[2:8])
        elif command == "go":
            started = time.monotonic()
            cpu_started = time.process_time()
            board = rules.parse_fen(fen)
            moves = rules.legal_moves(board)
            if "depth" in tokens:
                depth = int(tokens[tokens.index("depth") + 1])
                if moves:
                    score = f"cp {material(board) + digest(fen) % 61 - 30}"
                    best = pick_move(board, moves, digest(fen, "best"), 5).uci()
                else:
                    score = "mate 0" if rules.in_check(board) else "cp 0"
                    best = "(none)"
                budget = depth * args.cost_ms / 1000.0
                while time.process_time() - cpu_started < budget:
                    pass
                say(f"info depth {depth} score {score} nodes {depth * 1000} pv {best}")
                say(f"bestmove {best}")
                stats["depth_searches"] += 1
                stats["depth_busy_s"] += time.monotonic() - started
            else:
                movetime = int(tokens[tokens.index("movetime") + 1]) if "movetime" in tokens else 0
                best = pick_move(board, moves, digest(args.seed, skill, fen), skill).uci() if moves else "(none)"
                remaining = started + movetime / 1000.0 - time.monotonic()
                if remaining > 0:
                    time.sleep(remaining)
                say(f"bestmove {best}")
                stats["movetime_searches"] += 1
                stats["movetime_busy_s"] += time.monotonic() - started
        elif command == "quit":
            break

    stats_path = os.environ.get("BENCH_ENGINE_STATS")
    if stats_path:
        with open(stats_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stats) + "\n")


if __name__ == "__main__":
    main()
