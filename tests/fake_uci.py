#!/usr/bin/env python3
"""Scripted UCI engine for the test suite.

Takes a JSON script path as its only argument:

    {
      "responses": [
        {"bestmove": "e7e5"},
        {"score": "cp 13", "bestmove": "e2e4"},
        {"score": "mate 2", "bestmove": "h5f7"},
        {"info": ["info depth 1 nodes 20"], "bestmove": "d2d4"}
      ],
      "log": "/tmp/received.txt",
      "crash_after_go": 2,
      "silent_after_go": 2
    }

Each `go` consumes the next response, printing its scripted `info` lines
first, then an info line when a score is scripted; the last response repeats
once the list is exhausted. `ucinewgame` starts the list over, so a game's
searches get the same responses whichever process serves them.
With crash_after_go set to N, each go after the Nth this process receives
kills it instead, to simulate an engine crash mid-game; the count survives
`ucinewgame`. With silent_after_go set to N, the process answers nothing
from its (N+1)th go on, not even `quit`, to simulate a hung engine;
that count survives `ucinewgame` too. All received lines are appended to
`log` when given, so tests can assert on the option handshake.
"""
import json
import sys


def main() -> None:
    script = {}
    if len(sys.argv) > 1:
        with open(sys.argv[1]) as handle:
            script = json.load(handle)
    responses = script.get("responses") or [{"bestmove": "(none)"}]
    log_path = script.get("log")
    crash_after = script.get("crash_after_go")
    silent_after = script.get("silent_after_go")
    go_count = 0
    next_response = 0

    def log(line: str) -> None:
        if log_path:
            with open(log_path, "a") as handle:
                handle.write(line + "\n")

    def say(line: str) -> None:
        print(line)
        sys.stdout.flush()

    for raw in sys.stdin:
        line = raw.strip()
        log(line)
        if silent_after is not None and go_count > silent_after:
            continue
        if line == "uci":
            say("id name fake-uci")
            say("id author test-suite")
            say("uciok")
        elif line == "isready":
            say("readyok")
        elif line == "ucinewgame":
            next_response = 0
        elif line.startswith("go"):
            go_count += 1
            if crash_after is not None and go_count > crash_after:
                sys.exit(1)
            if silent_after is not None and go_count > silent_after:
                continue
            entry = responses[min(next_response, len(responses) - 1)]
            next_response += 1
            best = entry.get("bestmove", "(none)")
            for info in entry.get("info", ()):
                say(info)
            if entry.get("score"):
                say(f"info depth 20 seldepth 26 score {entry['score']} nodes 4242 pv {best}")
            say(f"bestmove {best}")
        elif line == "quit":
            return


if __name__ == "__main__":
    main()
