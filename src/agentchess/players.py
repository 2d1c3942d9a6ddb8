"""Player kinds: random agent, UCI engines, chat endpoints, MoA, scripts.

Endpoint clients speak the de-facto open chat-completion wire shape: POST
{base_url}/chat/completions with a model name and role/content messages,
reading the assistant text from choices[0].message.content. Engines speak
classic UCI over a child-process pipe. Any failure that is not a chess
outcome (timeout, transport, crashed engine) surfaces as ModelError with a
machine-readable reason; callers never see a fabricated reply.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import select
import subprocess
import time
import urllib.parse
from contextlib import contextmanager
from dataclasses import dataclass

from . import __version__, prompts, rules


class ModelError(Exception):
    """A player failed outside the game: timeout, transport, engine fault."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


# ---------------------------------------------------------------------------
# Player kinds. A player is frozen and shared by every game of a cell; play()
# owns one game's resources (an engine session, a place in a script) and
# yields that game's function: reply(messages) for dialog players,
# choose_move(board, rng) for movers. Only dialog players, which are always
# the measured subject, append token usage to `usage`. describe() is the
# player's entry in a logged game config.


def _next_or_fail(items, reason: str, detail: str):
    try:
        return next(items)
    except StopIteration:
        raise ModelError(reason, detail) from None


# ---------------------------------------------------------------------------
# Random and scripted players.


def random_move(board, rng) -> rules.Move:
    """Uniform draw from the legal moves; deterministic given rng state."""
    moves = rules.legal_moves(board)
    if not moves:
        raise ValueError("no legal moves to choose from")
    return rng.choice(moves)


@dataclass(frozen=True)
class RandomSpec:
    is_dialog = False

    @contextmanager
    def play(self, usage):
        yield random_move

    def describe(self):
        return {"kind": "random"}


@dataclass(frozen=True)
class ScriptedDialogSpec:
    """Canned dialog replies, for harness tests and offline smoke runs."""

    replies: tuple
    cycle: bool = True
    is_dialog = True

    def __post_init__(self):  # a wrong-shaped script is refused before any game starts
        for reply in self.replies:
            if not isinstance(reply, str):
                raise TypeError(f"scripted replies must be text, not {type(reply).__name__}")
        if not isinstance(self.cycle, bool):
            raise TypeError(f"cycle must be true or false, not {type(self.cycle).__name__}")

    @contextmanager
    def play(self, usage):
        replies = itertools.cycle(self.replies) if self.cycle else iter(self.replies)
        yield lambda messages: _next_or_fail(replies, "transport", "scripted replies exhausted")

    def describe(self):
        return {"kind": "scripted_dialog", "replies": len(self.replies)}


@dataclass(frozen=True)
class ScriptedMoverSpec:
    """Canned UCI moves played in order, for deterministic opponents."""

    moves: tuple
    is_dialog = False

    def __post_init__(self):
        for move in self.moves:
            if not isinstance(move, str):
                raise TypeError(f"scripted moves must be text, not {type(move).__name__}")
            rules.Move.from_uci(move)  # a MoveParseError names the bad move

    @contextmanager
    def play(self, usage):
        moves = iter(self.moves)
        yield lambda board, rng: rules.Move.from_uci(
            _next_or_fail(moves, "engine", "scripted moves exhausted")
        )

    def describe(self):
        return {"kind": "scripted_mover", "moves": list(self.moves)}


# ---------------------------------------------------------------------------
# Chat-completion endpoints.


@dataclass(frozen=True)
class LLMEndpointConfig:
    """One chat-completion endpoint.

    temperature=None omits the field entirely, for endpoints that reject it.
    Timeouts are never retried; max_retries applies to transport errors only.
    The bearer token is read from the environment variable named by
    api_key_env, never stored in configs or logs.
    """

    base_url: str
    model: str
    temperature: float | None = 0.3
    top_p: float = 1.0
    reasoning_effort: str | None = None  # low | medium | high
    timeout_s: float = 600.0
    max_retries: int = 0
    api_key_env: str = "AGENTCHESS_API_KEY"
    is_dialog = True

    def __post_init__(self):
        if urllib.parse.urlsplit(self.base_url).scheme not in ("http", "https"):  # not file: or ftp:
            raise ValueError(f"base_url must be an http or https URL, not {self.base_url!r}")
        for name in ("temperature", "top_p", "timeout_s"):  # JSON manifests accept NaN and Infinity
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError(f"max_retries must be a whole number >= 0, not {self.max_retries!r}")

    @contextmanager
    def play(self, usage):
        yield functools.partial(llm_reply, cfg=self, usage_log=usage)

    def describe(self):
        return {
            "kind": "endpoint",
            "model": self.model,
            "base_url": self.base_url,
            "reasoning_effort": self.reasoning_effort,
        }


_THINK_BLOCK = re.compile(r"<think(?:ing)?>.*?</think(?:ing)?>", re.DOTALL)


def strip_thinking(text: str) -> str:
    """Drop explicit thinking sections so only the final answer is parsed.

    Handles both well-formed <think>...</think> blocks and the bare trailing
    </think> some chat templates emit when the opening tag lives in the
    prompt template.
    """
    text = _THINK_BLOCK.sub("", text)
    for tag in ("</think>", "</thinking>"):
        if tag in text:
            text = text.rsplit(tag, 1)[1]
    return text.strip()


@functools.cache
def _opener(tls: bool):
    """urllib's default opener; over TLS, one context for every connection.

    urlopen's own HTTPS handler makes a context per connection, and loading
    the CA store into it costs ~35 ms of CPU, far more than the rest of a call.
    """
    import ssl, urllib.request  # loaded at the first call: a process with none saves ~6 MiB and ~20 ms
    if not tls:
        return urllib.request.build_opener()
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])  # as http.client sets on the contexts it makes
    return urllib.request.build_opener(urllib.request.HTTPSHandler(context=context))


def llm_reply(messages, cfg: LLMEndpointConfig, usage_log: list | None = None) -> str:
    """One chat-completion round trip; returns the assistant's answer text.

    Raises ModelError("timeout" | "transport" | "malformed"). When the
    response reports token usage and usage_log is given, the usage dict is
    appended to it.
    """
    import http.client, urllib.error, urllib.request
    if not messages:
        raise ValueError("empty chat transcript")
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    payload = {"model": cfg.model, "messages": list(messages), "top_p": cfg.top_p}
    if cfg.temperature is not None:
        payload["temperature"] = cfg.temperature
    if cfg.reasoning_effort is not None:
        payload["reasoning_effort"] = cfg.reasoning_effort
    data = json.dumps(payload, allow_nan=False).encode()
    headers = {"Content-Type": "application/json", "User-Agent": f"agentchess/{__version__}"}
    token = os.environ.get(cfg.api_key_env, "") if cfg.api_key_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"

    opener = _opener(urllib.parse.urlsplit(url).scheme == "https")
    last_error: ModelError | None = None
    for _ in range(cfg.max_retries + 1):
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:  # urllib sends `Connection: close`: one connection per call
            with opener.open(request, timeout=cfg.timeout_s) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:  # a status >= 400 or an unfollowed redirect
            exc.close()
            last_error = ModelError("transport", f"HTTP {exc.code}")
            continue
        except (OSError, http.client.HTTPException) as exc:  # OSError covers URLError
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                raise ModelError("timeout", str(exc)) from exc
            last_error = ModelError("transport", str(exc))
            continue
        if status != 200:
            last_error = ModelError("transport", f"HTTP {status}")
            continue
        try:
            body = json.loads(raw)  # detects UTF-8/16/32 from the bytes
            message = body["choices"][0]["message"]
            content = message["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ModelError("malformed", str(exc)) from exc
        if not isinstance(content, str):
            raise ModelError("malformed", "assistant content is not text")
        if usage_log is not None and isinstance(body.get("usage"), dict):
            usage_log.append(body["usage"])
        return strip_thinking(content)
    raise last_error


# ---------------------------------------------------------------------------
# Mixture of Agents.


@dataclass(frozen=True)
class MoAConfig:
    """Proposer endpoints plus the synthesizer that merges their candidates."""

    proposers: tuple
    synthesizer: LLMEndpointConfig
    is_dialog = True

    @contextmanager
    def play(self, usage):
        reply_fn = functools.partial(llm_reply, usage_log=usage)
        yield lambda messages: moa_reply(messages, self, reply_fn)

    def describe(self):
        return {
            "kind": "moa",
            "proposers": [p.model for p in self.proposers],
            "synthesizer": self.synthesizer.model,
        }


def moa_reply(messages, cfg: MoAConfig, reply_fn=llm_reply) -> str:
    """Query every proposer, bundle the labeled candidates, synthesize.

    A failed proposer contributes an explicit "[no response]" block instead
    of aborting; only a synthesizer failure raises. Issues exactly
    len(proposers) + 1 endpoint calls.
    """
    if not cfg.proposers:
        raise ValueError("MoA needs at least one proposer")
    blocks = []
    for index, proposer in enumerate(cfg.proposers, start=1):
        try:
            candidate = reply_fn(list(messages), proposer)
        except ModelError:
            candidate = "[no response]"
        blocks.append(f"Model {index}:\n{candidate}")
    synth_messages = [
        {"role": "system", "content": prompts.MOA_SYNTHESIZER_PROMPT},
        *[dict(m) for m in messages],
        {"role": "user", "content": "\n\n".join(blocks)},
    ]
    return reply_fn(synth_messages, cfg.synthesizer)


# ---------------------------------------------------------------------------
# UCI engines.


# An engine still silent at a read's deadline is killed. The handshake (launch
# to `readyok`, and `ucinewgame` to `readyok`) has HANDSHAKE_TIMEOUT_S; a search
# (`go` to `bestmove`) has its movetime plus SEARCH_GRACE_S, or
# DEPTH_SEARCH_TIMEOUT_S when it sets no movetime.
HANDSHAKE_TIMEOUT_S = 10.0
SEARCH_GRACE_S = 10.0
DEPTH_SEARCH_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class EngineConfig:
    """How to launch and drive one UCI engine for game play.

    The skill option name is engine-specific ("Skill" for the Komodo family,
    "Skill Level" for Stockfish); per-move search is wall-clock bounded by
    default so desk runs stay predictable.
    """

    command: tuple
    skill: int | None = None
    skill_option: str = "Skill"
    movetime_ms: int | None = 1000
    depth: int | None = None
    is_dialog = False

    def __post_init__(self):  # a text skill would play and then break Elo's skill ratings
        if self.skill is not None and type(self.skill) is not int:
            raise TypeError(f"skill must be an integer, not {type(self.skill).__name__}")
        for name in ("movetime_ms", "depth"):  # `go depth 0` or `go movetime fast` mis-drives an engine
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(f"{name} must be unset or a positive integer, not {value!r}")
        if self.movetime_ms is None and self.depth is None:  # a bare `go` searches for ever
            raise ValueError("an engine needs a movetime_ms or a depth")

    @contextmanager
    def play(self, usage):
        options = [] if self.skill is None else [(self.skill_option, self.skill)]
        with UciEngine(self.command, options).start() as engine:
            yield lambda board, rng: engine_move(board, engine, self.depth, self.movetime_ms)

    def describe(self):
        return {"kind": "engine", "command": list(self.command), "skill": self.skill,
                "movetime_ms": self.movetime_ms, "depth": self.depth}


class UciEngine:
    """A line-oriented UCI session over a child process.

    One session belongs to one game (or one analysis worker) at a time; protocol
    violations, engine death and silence past a deadline raise ModelError("engine").
    """

    def __init__(self, command, options=()):
        self.command = list(command)
        self.options = list(options)
        self._proc: subprocess.Popen | None = None
        self._unread = b""  # engine output not yet returned as lines

    def start(self) -> "UciEngine":
        try:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError as exc:
            raise ModelError("engine", f"cannot launch {self.command[0]}: {exc}") from exc
        self._output = select.poll()
        self._output.register(self._proc.stdout, select.POLLIN)
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT_S
        silence = f"no handshake in {HANDSHAKE_TIMEOUT_S:g} s"
        try:
            self._send("uci")
            while self._readline(deadline, silence) != "uciok":
                pass
            for name, value in self.options:
                self._send(f"setoption name {name} value {value}")
            self._wait_ready(deadline, silence)
        except ModelError:
            self.quit()  # reap an engine that fails its handshake
            raise
        return self

    def _send(self, line: str) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None:
            raise ModelError("engine", "engine not started")
        try:
            proc.stdin.write(f"{line}\n".encode())
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ModelError("engine", f"engine pipe closed: {exc}") from exc

    def _readline(self, deadline: float, silence: str) -> str:
        """The engine's next line by `deadline` (time.monotonic()); else kill it and raise `silence`."""
        while b"\n" not in self._unread:
            if not self._output.poll(max(deadline - time.monotonic(), 0.0) * 1000):
                self._proc.kill()
                raise ModelError("engine", silence)
            chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                raise ModelError("engine", "engine terminated unexpectedly")
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        return line.decode(errors="replace").strip()

    def _wait_ready(self, deadline: float, silence: str) -> None:
        self._send("isready")
        while self._readline(deadline, silence) != "readyok":
            pass

    def new_game(self) -> None:
        """Start a new game: the engine drops what it learnt from earlier searches."""
        self._send("ucinewgame")
        self._wait_ready(time.monotonic() + HANDSHAKE_TIMEOUT_S, "no readyok after ucinewgame")

    def _search(self, fen: str, depth=None, movetime_ms=None) -> tuple:
        """Search `fen` to `depth` and/or for `movetime_ms`; return (last info score or None, bestmove tokens)."""
        limits = (("depth", depth), ("movetime", movetime_ms))
        go = " ".join(["go"] + [f"{name} {value}" for name, value in limits if value is not None])
        timeout = DEPTH_SEARCH_TIMEOUT_S if movetime_ms is None else movetime_ms / 1000 + SEARCH_GRACE_S
        deadline, silence = time.monotonic() + timeout, f"no bestmove in {timeout:g} s"
        self._send(f"position fen {fen}")
        self._send(go)
        score = None
        while True:
            tokens = self._readline(deadline, silence).split()
            if not tokens:
                continue
            if tokens[0] == "info" and "score" in tokens:
                at = tokens.index("score")
                try:
                    score = (tokens[at + 1], int(tokens[at + 2]))
                except (IndexError, ValueError):
                    pass
            elif tokens[0] == "bestmove":
                return score, tokens

    def evaluate(self, fen: str, depth: int):
        """Search from `fen`, returning ((kind, value), best move text or None).

        kind is "cp" or "mate", from the side to move's perspective as UCI
        defines it; value comes from the last info line of the search.
        """
        score, tokens = self._search(fen, depth)
        if score is None or score[0] not in ("cp", "mate"):
            raise ModelError("engine", f"search returned no score for {fen}")
        best = tokens[1] if len(tokens) > 1 else "(none)"
        return score, None if best == "(none)" else best

    def quit(self) -> None:
        """Ask the engine to exit (killing it after 5 s), reap it, close its pipes."""
        if self._proc is None:
            return
        try:
            self._send("quit")
        except ModelError:
            pass
        proc, self._proc = self._proc, None
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except OSError:  # input still buffered for an engine that is gone
            pass

    def __enter__(self) -> "UciEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.quit()


def engine_move(board, engine: UciEngine, depth, movetime_ms) -> rules.Move:
    """Ask a running engine for a move, searching to `depth` and/or for `movetime_ms`, and insist it is legal."""
    _, tokens = engine._search(rules.render_fen(board), depth, movetime_ms)
    if len(tokens) < 2:
        raise ModelError("engine", f"bad bestmove line: {tokens[0]!r}")
    try:
        move = rules.Move.from_uci(tokens[1])
    except rules.MoveParseError as exc:
        raise ModelError("engine", f"unparsable bestmove {tokens[1]!r}") from exc
    if move not in rules.legal_moves(board):
        raise ModelError("engine", f"illegal bestmove {tokens[1]!r} in {rules.render_fen(board)}")
    return move

