"""Golden seeded run: the CLI's logs, analysis, leaderboards and Elo output.

Plays random, scripted-dialog, fake-engine and endpoint cells at parallelism
1 through `agentchess run`, then runs `analyze`, `report` and `elo` over the
logs. Every command's exit code, stdout and stderr, and every file the run
leaves behind, must match tests/fixtures/golden/expected.txt byte for byte
once wall-clock fields, the work directory, the interpreter and tests paths,
and the chat server's port are masked. Refactors must keep it passing.

Regenerate the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from agentchess.cli import main

from chat_server import chat_server

TESTS = Path(__file__).parent
FAKE_UCI = TESTS / "fake_uci.py"
EXPECTED = TESTS / "fixtures" / "golden" / "expected.txt"
LIMITS = {"max_turns_per_ply": 10, "max_attempts_per_turn": 3, "max_full_moves": 15}

# Black answers a knight shuffle from white in kind, with an unparsable reply
# and a legal-move query along the way; the start position comes back every four
# plies, so the game ends in a fivefold repetition.
SHUFFLE_REPLIES = ["banana", "make_move g8f6", "get_legal_moves", "make_move f6g8"]
SHUFFLE_ENGINE = [{"bestmove": m} for m in ["g1f3", "f3g1"] * 6]
ANALYSIS_ENGINE = [
    {"score": "cp 20", "bestmove": "e7e5"},
    {"score": "cp -15", "bestmove": "g8f6"},
    {"score": "cp 310", "bestmove": "e2e4"},
    {"score": "mate -2", "bestmove": "d7d5"},
    {"score": "mate 3", "bestmove": "g8f6"},
    {"score": "cp 0", "bestmove": "b8c6"},
]


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1))
    return path


def _engine_cmdline(work: Path, name: str, responses, log: Path | None = None) -> str:
    script = {"responses": responses}
    if log is not None:
        script["log"] = str(log)
    return f"{sys.executable} {FAKE_UCI} {_write_json(work / name, script)}"


def _mask(text: str, work: Path, url: str) -> str:
    text = text.replace(str(work), "<work>")
    text = text.replace(str(TESTS), "<tests>")
    text = text.replace(sys.executable, "<python>")
    text = text.replace(url, "http://127.0.0.1:<port>")
    text = re.sub(r'"(started_at|finished_at)": "[^"]*"', r'"\1": "<time>"', text)
    return re.sub(r'"duration_s": [^,}]+', '"duration_s": "<s>"', text)


def golden_output(work: Path) -> str:
    """Run the golden command sequence in `work`; return the masked output."""
    sections = []

    def agentchess(*argv) -> None:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        sections.append(
            f"=== agentchess {' '.join(argv)} -> exit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )

    def run(name: str, **manifest) -> None:
        manifest = {"seed": 7, "parallelism": 1, "limits": LIMITS,
                    "out_dir": str(work / "runs" / name), **manifest}
        agentchess("run", "--config", _write_json(work / f"{name}.json", manifest))

    with chat_server() as (url, _server):
        for color in ("b", "w"):
            run(f"random-{color}", subject={"kind": "random", "name": f"random-{color}"},
                opponent={"kind": "random"}, subject_color=color, games=1)
        run("scripted",
            subject={"kind": "scripted", "name": "scripted", "cycle": False,
                     "replies": ["get_current_board", "make_move e7e5", "make_move e7e5",
                                 "make_move b8c6", "make_move g8f6"]},
            opponent={"kind": "scripted_moves", "moves": ["e2e4", "d2d4", "g1f3", "b1c3"]},
            games=1)
        engine = _engine_cmdline(work, "shuffle-engine.json", SHUFFLE_ENGINE,
                                 log=work / "shuffle-engine-received.txt")
        run("ladder", subject={"kind": "scripted", "name": "shuffler", "replies": SHUFFLE_REPLIES},
            opponent={"kind": "engine", "command": engine, "skills": [1, 2]},
            variant="previous_moves", games=1)
        run("endpoint",
            subject={"kind": "endpoint", "base_url": url, "model": "fixed:make_move e7e5"},
            opponent={"kind": "random"}, games=2)

        logs = sorted((work / "runs").rglob("games-*.jsonl"))
        ladder = [work / "runs" / "ladder" / f"games-skill-{s}.jsonl" for s in (1, 2)]
        agentchess("analyze", *logs, "--depth", 12,
                   "--engine", _engine_cmdline(work, "analysis-engine.json", ANALYSIS_ENGINE))
        agentchess("report", *logs, "--out", work / "reports")
        agentchess("elo", *ladder)
        agentchess("elo", *ladder, "--anchor", "1=300", "--anchor", "2=450",
                   "--out", work / "elo.jsonl")

        outputs = [*(work / "runs").rglob("*"), *(work / "reports").rglob("*"),
                   work / "elo.jsonl", work / "shuffle-engine-received.txt"]
        for path in sorted(p for p in outputs if p.is_file()):
            sections.append(f"=== file {path.relative_to(work)}\n{path.read_text()}")
        return _mask("".join(sections), work, url)


def test_golden_run_matches_fixture(tmp_path):
    actual = golden_output(tmp_path)
    expected = EXPECTED.read_text()
    if actual != expected:
        (tmp_path / "actual.txt").write_text(actual)
    assert actual == expected, f"golden output changed; see {tmp_path / 'actual.txt'}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        EXPECTED.parent.mkdir(parents=True, exist_ok=True)
        EXPECTED.write_text(golden_output(Path(work).resolve()))
    print(f"wrote {EXPECTED}")
