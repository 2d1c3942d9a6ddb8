from __future__ import annotations

import gc
import json
import os
import random
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from collections import Counter
from pathlib import Path

import pytest

from agentchess import __version__, players, prompts, rules
from agentchess.players import (
    EngineConfig,
    LLMEndpointConfig,
    MoAConfig,
    ModelError,
    RandomSpec,
    ScriptedDialogSpec,
    ScriptedMoverSpec,
    UciEngine,
    engine_move,
    llm_reply,
    moa_reply,
    random_move,
    strip_thinking,
)

from chat_server import TLS_CERT, chat_server
from conftest import FAKE_UCI, FIXTURES


def endpoint(base_url, model, **kwargs) -> LLMEndpointConfig:
    kwargs.setdefault("timeout_s", 10.0)
    return LLMEndpointConfig(base_url=base_url, model=model, **kwargs)


GO = (None, 1000)  # engine_move's depth and movetime_ms: `go movetime 1000`


def fake_engine(tmp_path, responses, **extra) -> tuple:
    """The command line of a scripted test engine."""
    script = {"responses": responses, "log": str(tmp_path / "received.txt")}
    script.update(extra)
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    return (sys.executable, str(FAKE_UCI), str(script_path))


# ---------------------------------------------------------------------------
# Random agent.


def test_random_move_is_always_legal():
    board = rules.Board.initial()
    legal = set(rules.legal_moves(board))
    for seed in range(50):
        assert random_move(board, random.Random(seed)) in legal


def test_random_move_forced():
    # Black's pawn is blocked and g7 is covered; only h8g8 remains.
    board = rules.parse_fen("7k/7p/7P/8/8/8/8/K7 b - - 0 1")
    (only,) = rules.legal_moves(board)
    assert random_move(board, random.Random(0)) == only


def test_random_move_uniform_over_20000_draws():
    board = rules.Board.initial()
    rng = random.Random(20240601)
    counts = Counter(random_move(board, rng).uci() for _ in range(20000))
    assert len(counts) == 20
    for uci, count in counts.items():
        assert 850 <= count <= 1150, f"{uci} drawn {count} times"


def test_random_move_deterministic_per_seed():
    board = rules.Board.initial()
    first = [random_move(board, random.Random(42)).uci() for _ in range(10)]
    second = [random_move(board, random.Random(42)).uci() for _ in range(10)]
    assert first == second


# ---------------------------------------------------------------------------
# Chat endpoint client.


def test_llm_reply_echoes_mock_endpoint():
    with chat_server() as (url, _):
        reply = llm_reply(
            [{"role": "user", "content": "make_move e7e5"}], endpoint(url, "echo")
        )
    assert reply == "make_move e7e5"


def test_llm_reply_and_test_server_leave_no_socket_open():
    def one_reply(model):  # returns, so nothing it held outlives the check below
        with chat_server() as (url, _):
            try:
                return llm_reply([{"role": "user", "content": "hi"}], endpoint(url, model, timeout_s=0.2))
            except ModelError as exc:
                return exc.reason

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert [one_reply(m) for m in ("echo", "http-500", "sleep")] == ["hi", "transport", "timeout"]
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_llm_reply_timeout_raises_model_error_quickly():
    with chat_server() as (url, _):
        cfg = endpoint(url, "sleep", timeout_s=0.2)
        started = time.monotonic()
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], cfg)
        elapsed = time.monotonic() - started
    assert exc.value.reason == "timeout"
    assert elapsed < 1.5  # timeout plus a small grace, never the full sleep


def test_llm_reply_http_error_is_transport():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "http-500"))
    assert exc.value.reason == "transport"


def test_llm_reply_from_a_cold_interpreter_loads_its_transport_at_the_call():
    # This process already holds http.client (the chat server uses it), so only
    # a fresh interpreter shows llm_reply importing what it needs when called.
    code = (
        "import sys\n"
        "from agentchess.players import LLMEndpointConfig, ModelError, llm_reply\n"
        "assert 'http.client' not in sys.modules\n"
        "messages = [{'role': 'user', 'content': 'make_move e7e5'}]\n"
        "print(llm_reply(messages, LLMEndpointConfig(sys.argv[1], 'echo', timeout_s=10.0)))\n"
        "try:\n"
        "    llm_reply(messages, LLMEndpointConfig(sys.argv[1], 'http-500', timeout_s=10.0))\n"
        "except ModelError as exc:\n"
        "    print(f'{exc.reason}|{exc.detail}')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(players.__file__).parents[1])}
    with chat_server() as (url, _):
        run = subprocess.run([sys.executable, "-c", code, url], env=env, capture_output=True, text=True,
                             timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == ["make_move e7e5", "transport|HTTP 500"]


def test_llm_reply_timeout_while_reading_the_body():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "slow-body", timeout_s=0.2))
    assert exc.value.reason == "timeout"


def test_llm_reply_success_status_other_than_200_is_transport():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "http-202"))
    assert (exc.value.reason, exc.value.detail) == ("transport", "HTTP 202")


def test_llm_reply_post_redirect_is_not_followed():
    with chat_server() as (url, server):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "redirect-307"))
    assert (exc.value.reason, exc.value.detail) == ("transport", "HTTP 307")
    assert len(server.requests) == 1


def test_llm_reply_refused_connection_is_transport_and_retried(monkeypatch):
    with socket.socket() as probe:  # a port that was free a moment ago, now closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    real_open, attempts = urllib.request.OpenerDirector.open, []

    def counting_open(opener, request, *args, **kwargs):
        attempts.append(request.full_url)
        return real_open(opener, request, *args, **kwargs)

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", counting_open)
    cfg = endpoint(f"http://127.0.0.1:{port}", "echo", max_retries=2)
    with pytest.raises(ModelError) as exc:
        llm_reply([{"role": "user", "content": "hi"}], cfg)
    assert exc.value.reason == "transport"
    assert attempts == [f"http://127.0.0.1:{port}/chat/completions"] * 3


@pytest.fixture
def fresh_openers():
    players._opener.cache_clear()  # the next https call builds its TLS context anew
    yield
    players._opener.cache_clear()


def test_llm_reply_over_tls_loads_the_ca_store_once(monkeypatch, fresh_openers):
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    real_load, loads = ssl.SSLContext.load_default_certs, []

    def counting_load(context, *args, **kwargs):
        loads.append(context)
        return real_load(context, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "load_default_certs", counting_load)
    with chat_server(tls=True) as (url, server):
        replies = [llm_reply([{"role": "user", "content": f"hi {i}"}], endpoint(url, "echo")) for i in range(3)]
    assert url.startswith("https://")
    assert replies == ["hi 0", "hi 1", "hi 2"]
    assert len(server.requests) == 3
    assert len(loads) == 1  # urlopen's own handler loads it for every connection


def test_llm_reply_untrusted_certificate_is_transport(monkeypatch, fresh_openers):
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)  # the system store lacks the test certificate
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    with chat_server(tls=True) as (url, server):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "echo"))
    assert exc.value.reason == "transport"
    assert "CERTIFICATE_VERIFY_FAILED" in exc.value.detail
    assert server.requests == []


def test_llm_reply_non_utf8_body_is_malformed():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "not-utf8"))
    assert exc.value.reason == "malformed"


def test_llm_reply_malformed_body():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "malformed"))
    assert exc.value.reason == "malformed"


def test_llm_reply_missing_content_is_malformed():
    with chat_server() as (url, _):
        with pytest.raises(ModelError) as exc:
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "no-content"))
    assert exc.value.reason == "malformed"


def test_llm_reply_transport_retries_when_configured():
    with chat_server() as (url, server):
        cfg = endpoint(url, "flaky-500", max_retries=1)
        assert llm_reply([{"role": "user", "content": "hi"}], cfg) == "recovered"
        assert len(server.requests) == 2


def test_llm_reply_no_retry_by_default():
    with chat_server() as (url, server):
        with pytest.raises(ModelError):
            llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "http-500"))
        assert len(server.requests) == 1


def test_llm_reply_payload_fields_and_auth(monkeypatch):
    monkeypatch.setenv("AGENTCHESS_API_KEY", "sekret")
    messages = [{"role": "user", "content": "hi \u265e"}]
    with chat_server() as (url, server):
        cfg = endpoint(url, "echo", temperature=0.3, top_p=1.0, reasoning_effort="low")
        llm_reply(messages, cfg)
    (request,) = server.requests
    payload = {
        "model": "echo", "messages": messages, "top_p": 1.0, "temperature": 0.3, "reasoning_effort": "low",
    }
    assert request["raw"] == json.dumps(payload, allow_nan=False).encode()
    assert request["headers"]["Authorization"] == "Bearer sekret"
    assert request["headers"]["Content-Type"] == "application/json"
    assert request["headers"]["User-Agent"] == f"agentchess/{__version__}"
    assert request["path"] == "/chat/completions"


def test_llm_reply_omits_temperature_when_none(monkeypatch):
    monkeypatch.delenv("AGENTCHESS_API_KEY", raising=False)
    with chat_server() as (url, server):
        llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "echo", temperature=None))
    body = server.requests[0]["body"]
    assert "temperature" not in body
    assert "reasoning_effort" not in body
    assert "Authorization" not in server.requests[0]["headers"]


def test_llm_reply_strips_thinking_sections():
    with chat_server() as (url, _):
        reply = llm_reply([{"role": "user", "content": "hi"}], endpoint(url, "think-tags"))
    assert reply == "make_move e7e5"


def test_llm_reply_ignores_separate_reasoning_content():
    with chat_server() as (url, _):
        usage = []
        reply = llm_reply(
            [{"role": "user", "content": "hi"}],
            endpoint(url, "reasoning-field"),
            usage_log=usage,
        )
    assert reply == "make_move e7e5"
    assert usage == [{"prompt_tokens": 12, "completion_tokens": 5}]


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("make_move e7e5", "make_move e7e5"),
        ("<think>hmm</think>get_legal_moves", "get_legal_moves"),
        ("<thinking>a\nb</thinking>  make_move e7e5", "make_move e7e5"),
        ("no opening tag</think>make_move a7a6", "make_move a7a6"),
        ("<think>one</think>mid<think>two</think>make_move h7h6", "midmake_move h7h6"),
    ],
)
def test_strip_thinking(raw, expected):
    assert strip_thinking(raw) == expected


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        LLMEndpointConfig(base_url="http://x", model="m", temperature=-1)
    with pytest.raises(ValueError):
        LLMEndpointConfig(base_url="http://x", model="m", timeout_s=0)


@pytest.mark.parametrize("field, value", [
    ("temperature", float("nan")), ("temperature", float("inf")), ("top_p", float("nan")),
    ("top_p", float("-inf")), ("timeout_s", float("nan")), ("timeout_s", float("inf")),
    ("max_retries", -1), ("max_retries", 1.5), ("max_retries", True), ("base_url", "127.0.0.1:9"),
    ("base_url", "ftp://x"),
])
def test_endpoint_config_refuses_values_no_call_could_use(field, value):
    with pytest.raises(ValueError, match=field):
        LLMEndpointConfig(**{"base_url": "http://x", "model": "m", field: value})


# ---------------------------------------------------------------------------
# UCI engine client.


def test_engine_scripted_bestmove(tmp_path):
    command = fake_engine(tmp_path, [{"bestmove": "e7e5"}])
    with UciEngine(command).start() as engine:
        board = rules.apply_uci(rules.Board.initial(), "e2e4")
        assert engine_move(board, engine, *GO).uci() == "e7e5"


def test_engine_handshake_sets_options(tmp_path):
    config = EngineConfig(command=fake_engine(tmp_path, [{"bestmove": "e2e4"}]), skill=3, skill_option="Skill")
    with config.play([]) as choose_move:
        choose_move(rules.Board.initial(), None)
    received = (tmp_path / "received.txt").read_text().splitlines()
    assert "setoption name Skill value 3" in received
    assert received.index("uci") < received.index("setoption name Skill value 3")
    assert any(line.startswith("position fen ") for line in received)
    assert any(line.startswith("go movetime 1000") for line in received)


def test_engine_illegal_bestmove_rejected(tmp_path):
    command = fake_engine(tmp_path, [{"bestmove": "a1a8"}])
    with UciEngine(command).start() as engine:
        with pytest.raises(ModelError) as exc:
            engine_move(rules.Board.initial(), engine, *GO)
    assert exc.value.reason == "engine"


def test_engine_crash_raises_engine_error(tmp_path):
    command = fake_engine(tmp_path, [{"bestmove": "e2e4"}], crash_after_go=1)
    with UciEngine(command).start() as engine:
        assert engine_move(rules.Board.initial(), engine, *GO).uci() == "e2e4"
        with pytest.raises(ModelError) as exc:
            engine_move(rules.Board.initial(), engine, *GO)
    assert exc.value.reason == "engine"


def test_engine_evaluate_scores(tmp_path):
    command = fake_engine(
        tmp_path,
        [
            {"score": "cp 13", "bestmove": "e2e4"},
            {"score": "mate 2", "bestmove": "h5f7"},
            {"score": "mate 0", "bestmove": "(none)"},
        ],
    )
    with UciEngine(command).start() as engine:
        assert engine.evaluate(rules.START_FEN, 20) == (("cp", 13), "e2e4")
        assert engine.evaluate(rules.START_FEN, 20) == (("mate", 2), "h5f7")
        assert engine.evaluate(rules.START_FEN, 20) == (("mate", 0), None)


def test_engine_bare_bestmove_line(tmp_path):
    command = fake_engine(tmp_path, [{"bestmove": ""}, {"score": "cp 5", "bestmove": ""}])
    with UciEngine(command).start() as engine:
        with pytest.raises(ModelError, match="bad bestmove line: 'bestmove'") as exc:
            engine_move(rules.Board.initial(), engine, *GO)
        assert exc.value.reason == "engine"
        assert engine.evaluate(rules.START_FEN, 20) == (("cp", 5), None)


def test_engine_bestmove_none_in_play_is_unparsable(tmp_path):
    command = fake_engine(tmp_path, [{"bestmove": "(none)"}])
    with UciEngine(command).start() as engine:
        with pytest.raises(ModelError, match=r"unparsable bestmove '\(none\)'") as exc:
            engine_move(rules.Board.initial(), engine, *GO)
    assert exc.value.reason == "engine"


def test_engine_evaluate_without_a_score_line(tmp_path):
    info = ["info depth 1 nodes 20", "info string no score here", "info depth 2 score"]
    command = fake_engine(tmp_path, [{"info": info, "bestmove": "e2e4"}])
    with UciEngine(command).start() as engine:
        with pytest.raises(ModelError, match="search returned no score for") as exc:
            engine.evaluate(rules.START_FEN, 20)
        assert exc.value.reason == "engine"
        assert engine_move(rules.Board.initial(), engine, *GO).uci() == "e2e4"  # the session is still in step


def test_engine_silent_in_a_search_is_killed_at_its_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(players, "SEARCH_GRACE_S", 0.2)  # short deadlines keep the test fast
    monkeypatch.setattr(players, "DEPTH_SEARCH_TIMEOUT_S", 0.4)
    command = fake_engine(tmp_path, [{"score": "cp 5", "bestmove": "e2e4"}], silent_after_go=1)
    threads = threading.enumerate()
    started = time.monotonic()
    # A search with a movetime gets that movetime plus the grace; one without gets the depth timeout.
    for limits, deadline in (((None, 100), r"0\.3"), ((4, None), r"0\.4"), ((4, 100), r"0\.3")):
        with UciEngine(command).start() as engine:
            assert engine_move(rules.Board.initial(), engine, *limits).uci() == "e2e4"
            with pytest.raises(ModelError, match=rf"^engine: no bestmove in {deadline} s$"):
                engine_move(rules.Board.initial(), engine, *limits)
    with UciEngine(command).start() as engine:
        assert engine.evaluate(rules.START_FEN, 20) == (("cp", 5), "e2e4")
        with pytest.raises(ModelError, match=r"^engine: no bestmove in 0\.4 s$"):
            engine.evaluate(rules.START_FEN, 20)
    received = [line for line in (tmp_path / "received.txt").read_text().splitlines() if line.startswith("go")]
    assert received == [go for go in ("go movetime 100", "go depth 4", "go depth 4 movetime 100", "go depth 20")
                        for _ in range(2)]
    # The fake ignores `quit` once silent, so only a kill at the deadline
    # keeps each quit() from waiting out its 5 s.
    assert time.monotonic() - started < 4
    assert threading.enumerate() == threads  # no watchdog thread outlives quit()


def test_engine_missing_executable():
    engine = UciEngine(["/no/such/engine/binary"])
    with pytest.raises(ModelError) as exc:
        engine.start()
    assert exc.value.reason == "engine"


# ---------------------------------------------------------------------------
# Mixture of Agents.


def stub_reply(script):
    """reply_fn stub keyed by model name; records every call."""
    calls = []

    def reply_fn(messages, cfg):
        calls.append({"model": cfg.model, "messages": [dict(m) for m in messages]})
        outcome = script[cfg.model]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return reply_fn, calls


def moa_config(proposer_models, synthesizer_model="synth") -> MoAConfig:
    make = lambda name: LLMEndpointConfig(base_url="http://unused", model=name)
    return MoAConfig(
        proposers=tuple(make(m) for m in proposer_models),
        synthesizer=make(synthesizer_model),
    )


def test_moa_single_proposer_passthrough():
    reply_fn, calls = stub_reply({"p1": "make_move e7e5", "synth": "make_move e7e5"})
    reply = moa_reply(
        [{"role": "user", "content": "your move"}], moa_config(["p1"]), reply_fn
    )
    assert reply == "make_move e7e5"
    assert len(calls) == 2  # one proposer + the synthesizer
    bundle = calls[-1]["messages"][-1]["content"]
    assert bundle == "Model 1:\nmake_move e7e5"


def test_moa_three_proposers_labeled_in_order():
    reply_fn, calls = stub_reply(
        {"p1": "alpha", "p2": "beta", "p3": "gamma", "synth": "done"}
    )
    moa_reply([{"role": "user", "content": "q"}], moa_config(["p1", "p2", "p3"]), reply_fn)
    assert [c["model"] for c in calls] == ["p1", "p2", "p3", "synth"]
    synth_messages = calls[-1]["messages"]
    assert synth_messages[0] == {
        "role": "system",
        "content": (FIXTURES / "moa_synthesizer_prompt.txt").read_text(),
    }
    assert synth_messages[1] == {"role": "user", "content": "q"}
    assert synth_messages[-1]["content"] == "Model 1:\nalpha\n\nModel 2:\nbeta\n\nModel 3:\ngamma"


def test_moa_failed_proposer_becomes_no_response_block():
    reply_fn, calls = stub_reply(
        {"p1": ModelError("timeout"), "p2": "beta", "synth": "done"}
    )
    reply = moa_reply([{"role": "user", "content": "q"}], moa_config(["p1", "p2"]), reply_fn)
    assert reply == "done"
    bundle = calls[-1]["messages"][-1]["content"]
    assert bundle.startswith("Model 1:\n[no response]")


def test_moa_synthesizer_failure_propagates():
    reply_fn, _ = stub_reply({"p1": "alpha", "synth": ModelError("timeout")})
    with pytest.raises(ModelError):
        moa_reply([{"role": "user", "content": "q"}], moa_config(["p1"]), reply_fn)


def test_moa_requires_proposers():
    cfg = MoAConfig(proposers=(), synthesizer=LLMEndpointConfig("http://x", "s"))
    with pytest.raises(ValueError):
        moa_reply([{"role": "user", "content": "q"}], cfg)


def test_moa_default_prompt_matches_fixture():
    assert prompts.MOA_SYNTHESIZER_PROMPT == (FIXTURES / "moa_synthesizer_prompt.txt").read_text()


# ---------------------------------------------------------------------------
# Player kinds as they appear in a log.


_ENGINE_COMMAND = ("stockfish", "--threads", "1")
_SYNTH = LLMEndpointConfig("http://synth", "synth")


@pytest.mark.parametrize("player, is_dialog, described", [
    (RandomSpec(), False, {"kind": "random"}),
    (EngineConfig(_ENGINE_COMMAND), False,
     {"kind": "engine", "command": list(_ENGINE_COMMAND), "skill": None, "movetime_ms": 1000, "depth": None}),
    (EngineConfig(_ENGINE_COMMAND, skill=3, skill_option="Skill Level", movetime_ms=None, depth=12), False,
     {"kind": "engine", "command": list(_ENGINE_COMMAND), "skill": 3, "movetime_ms": None, "depth": 12}),
    (LLMEndpointConfig("http://host/v1", "m", reasoning_effort="low"), True,
     {"kind": "endpoint", "model": "m", "base_url": "http://host/v1", "reasoning_effort": "low"}),
    (MoAConfig(proposers=(LLMEndpointConfig("http://a", "p1"),
                          LLMEndpointConfig("http://b", "p2")), synthesizer=_SYNTH), True,
     {"kind": "moa", "proposers": ["p1", "p2"], "synthesizer": "synth"}),
    (ScriptedDialogSpec(("get_legal_moves", "make_move e7e5"), cycle=False), True,
     {"kind": "scripted_dialog", "replies": 2}),
    (ScriptedMoverSpec(("e2e4", "d2d4")), False,
     {"kind": "scripted_mover", "moves": ["e2e4", "d2d4"]}),
], ids=["random", "engine-no-skill", "engine-skill", "endpoint", "moa", "scripted-dialog",
        "scripted-mover"])
def test_player_kind_logged_form(player, is_dialog, described):
    assert player.is_dialog is is_dialog
    # Key order too: it is the order of the logged JSON.
    assert list(player.describe().items()) == list(described.items())
