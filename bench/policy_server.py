#!/usr/bin/env python3
"""Loopback chat-completion endpoint that plays the baseline dialog.

    python3 bench/policy_server.py --seed N --latency-ms L

Prints its port on the first line of stdout, serves POST /v1/chat/completions
until stdin closes, then prints one JSON line of counters (connections,
requests, request body bytes) and exits.

Each reply is a pure function of (seed, request messages), never of arrival
order, so game fingerprints do not depend on parallelism. Before the
transcript holds a legal-move list the policy asks `get_legal_moves`; after
that it answers `make_move` with a hashed pick from the list, except that
a hashed share of those answers is unparsable or an illegal move, so the
harness's reflection paths run. Every reply waits the fixed latency first.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

GET_LEGAL_MOVES = "get_legal_moves"
BAD_SHARE = 0.05  # of make_move answers
UNPARSABLE_REPLY = "Let me think about the position first."
ILLEGAL_REPLY = "make_move a1a1"


def policy_reply(seed: int, messages: list) -> str:
    moves = None
    for asked, answer in zip(messages, messages[1:]):
        if asked["role"] == "assistant" and asked["content"] == GET_LEGAL_MOVES:
            moves = answer["content"].split(", ")
    # The baseline opening prompt is the same on every ply, so a draw made
    # before the position is known would repeat on every ply of a game.
    if moves is None:
        return GET_LEGAL_MOVES
    key = hashlib.blake2b(
        json.dumps([seed, messages], sort_keys=True).encode(), digest_size=8
    ).digest()
    draw = int.from_bytes(key, "big")
    if draw % 10_000 < BAD_SHARE * 10_000:
        return UNPARSABLE_REPLY if (draw // 10_000) % 2 else ILLEGAL_REPLY
    return "make_move " + moves[(draw // 10_000) % len(moves)]


class PolicyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse is countable

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.counters["connections"] += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        with self.server.lock:
            self.server.counters["requests"] += 1
            self.server.counters["request_bytes"] += length
        messages = json.loads(raw)["messages"]
        text = policy_reply(self.server.seed, messages)
        time.sleep(self.server.latency_s)
        body = json.dumps({
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": length // 4, "completion_tokens": len(text) // 4},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()

    server = ThreadingHTTPServer(("127.0.0.1", 0), PolicyHandler)
    server.seed = args.seed
    server.latency_s = args.latency_ms / 1000.0
    server.lock = threading.Lock()
    server.counters = {"connections": 0, "requests": 0, "request_bytes": 0}
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(server.server_port, flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    print(json.dumps(server.counters), flush=True)


if __name__ == "__main__":
    main()
