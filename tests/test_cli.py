import json
import subprocess
import sys

import pytest

from conftest import FIXTURES, REPO


def run_cli(*args, cwd=REPO, env=None):
    command = [sys.executable, "-m", "sketchprove.cli", *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, env=env, timeout=120)


def golden_flags(out_dir, jobs=1):
    return [
        "--dataset", str(FIXTURES / "datasets" / "mini.jsonl"),
        "--pool", str(FIXTURES / "pool" / "examples.json"),
        "--cache-file", str(FIXTURES / "cache" / "completions.jsonl"),
        "--cache-mode", "replay",
        "--prover", f"scripted:{FIXTURES / 'prover' / 'script.json'}",
        "--drafts", "5", "--sketches-per-draft", "2", "--budget", "100",
        "--no-early-stop", "--seed", "7",
        "--jobs", str(jobs),
        "--out", str(out_dir),
    ]


def test_run_reproduces_golden_records(tmp_path):
    result = run_cli(*golden_flags(tmp_path / "a"), "run")
    assert result.returncode == 0, result.stderr
    assert "valid: 8/10 solved (80.0%)" in result.stdout
    assert "test: 7/10 solved (70.0%)" in result.stdout
    produced = (tmp_path / "a" / "records.jsonl").read_bytes()
    assert produced == (FIXTURES / "golden" / "records.jsonl").read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["infra_errors"] == {}


def test_run_parallel_matches_golden(tmp_path):
    result = run_cli(*golden_flags(tmp_path / "b", jobs=8), "run")
    assert result.returncode == 0, result.stderr
    produced = (tmp_path / "b" / "records.jsonl").read_bytes()
    assert produced == (FIXTURES / "golden" / "records.jsonl").read_bytes()


def test_run_baseline(tmp_path):
    result = run_cli(*golden_flags(tmp_path / "c"), "run", "--baseline")
    assert result.returncode == 0, result.stderr
    produced = (tmp_path / "c" / "records_baseline.jsonl").read_bytes()
    assert produced == (FIXTURES / "golden" / "records_baseline.jsonl").read_bytes()


def test_eval_prints_exact_fractions(tmp_path):
    result = run_cli(
        "--dataset", str(FIXTURES / "datasets" / "mini.jsonl"),
        "--out", str(tmp_path),
        "eval", "--records", str(FIXTURES / "golden" / "records.jsonl"),
    )
    assert result.returncode == 0, result.stderr
    assert "valid: 8/10 (80.0%)" in result.stdout
    assert "test: 7/10 (70.0%)" in result.stdout
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "split,solved,total,fraction,percent"


def test_eval_on_a_stream_missing_problems_is_a_config_error(tmp_path, problems):
    first = (FIXTURES / "golden" / "records.jsonl").read_text().splitlines()[0]
    stream = tmp_path / "partial.jsonl"
    stream.write_text(first + "\n")
    result = run_cli(
        "--dataset", str(FIXTURES / "datasets" / "mini.jsonl"),
        "--out", str(tmp_path),
        "eval", "--records", str(stream),
    )
    assert result.returncode == 2
    assert "error[config]: no results for problems: " in result.stderr
    covered = json.loads(first)["problem_id"]
    assert all(p.id in result.stderr for p in problems if p.id != covered)
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "table.csv").exists()


def test_curve_row_count(tmp_path):
    result = run_cli(
        "--out", str(tmp_path),
        "curve", "--records", str(FIXTURES / "golden" / "records.jsonl"),
        "--max-attempts", "100",
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert len(lines) == 101  # header + one row per attempt count


def test_config_file_layering(tmp_path):
    config = {
        "dataset_path": str(FIXTURES / "datasets" / "mini.jsonl"),
        "pool_path": str(FIXTURES / "pool" / "examples.json"),
        "cache_file": str(FIXTURES / "cache" / "completions.jsonl"),
        "cache_mode": "replay",
        "prover": f"scripted:{FIXTURES / 'prover' / 'script.json'}",
        "drafts": 5,
        "sketches_per_draft": 2,
        "stop_on_first_success": False,
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = run_cli("--config", str(config_path), "run")
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == (
        FIXTURES / "golden" / "records.jsonl"
    ).read_bytes()


def test_unknown_config_key_is_a_config_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataest_path": "typo.jsonl"}))
    result = run_cli("--config", str(config_path), "run")
    assert result.returncode == 2
    assert "error[config]" in result.stderr


def test_bad_prover_spec_is_a_config_error(tmp_path):
    result = run_cli(*golden_flags(tmp_path), "--prover", "mystery", "run")
    assert result.returncode == 2
    assert "error[config]" in result.stderr


def test_budget_below_the_plan_is_a_config_error(tmp_path):
    result = run_cli(
        "--config", str(FIXTURES / "golden" / "config.json"), "--budget", "1",
        "--out", str(tmp_path), "run",
    )
    assert result.returncode == 2
    assert "error[config]: plan of 10 attempts exceeds the budget of 1" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_cache_is_an_infra_failure(tmp_path):
    flags = golden_flags(tmp_path)
    index = flags.index("--cache-file")
    flags[index + 1] = str(tmp_path / "empty.jsonl")
    result = run_cli(*flags, "run")
    assert result.returncode == 1
    assert "aborted on infrastructure errors" in result.stderr


def test_draft_zero_samples_is_fine(tmp_path):
    result = run_cli(*golden_flags(tmp_path), "--drafts", "0", "draft", "--problem-ids", "algebra_g01")
    assert result.returncode == 0
    assert "nothing to sample" in result.stdout


def test_draft_samples_the_configured_drafts(tmp_path):
    # with no count given, draft asks for the config's drafts, the request
    # run sends, so a replay finds run's cached completions
    result = run_cli(
        "--config", str(FIXTURES / "golden" / "config.json"), "--out", str(tmp_path),
        "draft", "--problem-ids", "algebra_g01",
    )
    assert result.returncode == 0, result.stderr
    assert len(list((tmp_path / "drafts" / "algebra_g01").glob("draft_*.txt"))) == 5


def test_draft_then_sketch_replay(tmp_path):
    out = tmp_path / "out"
    result = run_cli(*golden_flags(out), "--drafts", "5", "draft", "--problem-ids", "algebra_g01")
    assert result.returncode == 0, result.stderr
    drafts = sorted((out / "drafts" / "algebra_g01").glob("draft_*.txt"))
    assert len(drafts) == 5

    result = run_cli(*golden_flags(out), "sketch", "--problem-id", "algebra_g01", "--draft-id", "0")
    assert result.returncode == 0, result.stderr
    assert "parse: ok, gaps: 2" in result.stdout


def test_sketch_parse_failure_still_exits_zero(tmp_path):
    out = tmp_path / "out"
    run_cli(*golden_flags(out), "--drafts", "5", "draft", "--problem-ids", "algebra_g03")
    result = run_cli(*golden_flags(out), "sketch", "--problem-id", "algebra_g03", "--draft-id", "0")
    assert result.returncode == 0, result.stderr
    assert "parse: FAILED" in result.stdout
    assert "byte" in result.stdout  # the ParseError offset is reported


def test_sketch_no_comments_mode_prompt_preview(tmp_path):
    out = tmp_path / "out"
    run_cli(*golden_flags(out), "--drafts", "5", "draft", "--problem-ids", "algebra_g01")
    result = run_cli(
        *golden_flags(out), "--mode", "no-comments",
        "sketch", "--problem-id", "algebra_g01", "--draft-id", "0", "--show-prompt",
    )
    # the preview prints before the completion call; the call itself misses
    # the cache (only full-mode prompts were recorded), which is an infra exit
    assert "--- prompt ---" in result.stdout
    prompt = result.stdout.split("--- end prompt ---")[0]
    assert "Formal Proof Sketch:" in prompt
    assert "(*" not in prompt
    assert result.returncode == 1
    assert "error[infra]" in result.stderr


def _stand_in_draft(out, problem_id="algebra_g01"):
    target = out / "drafts" / problem_id
    target.mkdir(parents=True)
    (target / "draft_0000.txt").write_text("Subtract seven from both sides.\n")


@pytest.mark.parametrize("cause", ["too_few_examples", "no_full_proof"])
def test_sketch_prompt_build_failure_is_a_config_error(tmp_path, cause):
    out = tmp_path / "out"
    _stand_in_draft(out)
    flags = golden_flags(out)
    if cause == "too_few_examples":
        flags += ["--k-examples", "50"]
        expected = "need 50 examples"
    else:
        quads = json.loads((FIXTURES / "pool" / "examples.json").read_text())
        for quad in quads:
            quad.pop("full_proof", None)
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps(quads))
        flags += ["--pool", str(pool), "--mode", "full-proof"]
        expected = "has no gap-free full proof"
    result = run_cli(*flags, "sketch", "--problem-id", "algebra_g01")
    assert result.returncode == 2
    assert "error[config]: " in result.stderr and expected in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("max_prompt_chars", [None, 1500])
def test_sketch_preview_is_the_prompt_run_sends(tmp_path, monkeypatch, capsys, max_prompt_chars):
    from sketchprove import cli, llm

    config = json.loads((FIXTURES / "golden" / "config.json").read_text())
    for key in ("dataset_path", "pool_path", "cache_file"):
        config[key] = str(REPO / config[key])
    config["prover"] = f"scripted:{FIXTURES / 'prover' / 'script.json'}"
    config["out"] = str(tmp_path / "out")
    if max_prompt_chars is not None:
        config["max_prompt_chars"] = max_prompt_chars
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    # every request, drafts and sketches fetched ahead alike, is submitted
    sent = []
    submit = llm.CompletionClient.submit

    def recording(client, request):
        sent.append(request.prompt)
        return submit(client, request)

    monkeypatch.setattr(llm.CompletionClient, "submit", recording)
    cli.main(["--config", str(config_path), "--jobs", "1", "run"])
    # one worker runs the plan in order: the draft prompt, then draft 0's
    # sketches 0 and 1, then draft 1's
    run_prompts = [
        prompt for prompt in sent
        if "theorem algebra_g01:" in prompt and prompt.endswith("Formal Proof Sketch:\n")
    ]
    assert len(run_prompts) == 2 * config["drafts"]

    # the draft files hold run's drafts when sampled with run's count
    draft_count = str(config["drafts"])
    cli.main([
        "--config", str(config_path), "--drafts", draft_count, "draft", "--problem-ids", "algebra_g01",
    ])
    capsys.readouterr()
    cli.main([
        "--config", str(config_path),
        "sketch", "--problem-id", "algebra_g01", "--draft-id", "1", "--sketch-index", "1",
        "--show-prompt",
    ])
    preview = capsys.readouterr().out
    shown = preview.split("--- prompt ---\n", 1)[1].split("\n--- end prompt ---")[0]
    assert shown == run_prompts[3]
    if max_prompt_chars is not None:
        assert len(shown) <= max_prompt_chars


def test_each_command_closes_its_completion_client(tmp_path, monkeypatch):
    from sketchprove import cli, llm

    closed = []
    close = llm.CompletionClient.close
    monkeypatch.setattr(llm.CompletionClient, "close", lambda client: closed.append(client) or close(client))
    flags = golden_flags(tmp_path)
    assert cli.main([*flags, "run"]) == 0
    assert cli.main([*flags, "draft", "--problem-ids", "algebra_g01"]) == 0
    assert cli.main([*flags, "sketch", "--problem-id", "algebra_g01"]) == 0
    assert len(closed) == 3


def test_draft_and_sketch_request_the_cache_keys_run_requests(tmp_path, monkeypatch):
    from sketchprove import cli, harness, llm

    problem = next(p for p in harness.load_dataset(FIXTURES / "datasets" / "mini.jsonl") if p.id == "algebra_g01")
    dataset = tmp_path / "one.jsonl"
    harness.save_dataset([problem], dataset)
    flags = [*golden_flags(tmp_path / "out"), "--dataset", str(dataset)]

    requested = []
    get = llm.CompletionCache.get
    monkeypatch.setattr(llm.CompletionCache, "get", lambda cache, key: requested.append(key) or get(cache, key))
    assert cli.main([*flags, "run"]) == 0
    run_keys, requested[:] = list(requested), []

    assert cli.main([*flags, "draft", "--problem-ids", problem.id]) == 0
    for draft_id in range(5):
        for sketch_index in range(2):
            assert cli.main([
                *flags, "sketch", "--problem-id", problem.id,
                "--draft-id", str(draft_id), "--sketch-index", str(sketch_index),
            ]) == 0
    assert requested == run_keys


def test_prove_command_closes_fixture_sketch(tmp_path):
    sketch_path = tmp_path / "sketch.thy"
    sketch_path.write_text(
        'theorem t: shows "G"\nproof -\n  have c0: "x = 140 - 7" sledgehammer\n'
        "  then show ?thesis using c0 sledgehammer\nqed\n"
    )
    result = run_cli(*golden_flags(tmp_path), "prove", str(sketch_path))
    assert result.returncode == 0, result.stderr
    assert "proved: 2 gaps closed" in result.stdout
    assert "by auto" in result.stdout


def test_env_var_selects_cache_mode(tmp_path):
    import os

    env = dict(os.environ, DSP_CACHE_MODE="replay")
    flags = golden_flags(tmp_path)
    index = flags.index("--cache-mode")
    del flags[index : index + 2]
    result = run_cli(*flags, "run", env=env)
    assert result.returncode == 0, result.stderr


def test_live_mode_endpoint_failure_is_infra(tmp_path):
    flags = golden_flags(tmp_path)
    index = flags.index("--cache-mode")
    flags[index + 1] = "live"
    result = run_cli(
        *flags, "--endpoint-url", "http://127.0.0.1:1/v1/completions",
        "--drafts", "2", "draft", "--problem-ids", "algebra_g01",
    )
    assert result.returncode == 1
    assert "error[infra]" in result.stderr


def test_golden_config_file_reproduces_golden(tmp_path):
    result = run_cli(
        "--config", str(FIXTURES / "golden" / "config.json"),
        "--out", str(tmp_path), "run",
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "records.jsonl").read_bytes() == (
        FIXTURES / "golden" / "records.jsonl"
    ).read_bytes()


# -- the golden invariant on every backend and worker count ---------------------------


@pytest.fixture(scope="module")
def golden_wire_server():
    from sketchprove.prover import WireServer

    server = WireServer(str(FIXTURES / "prover" / "script.json")).start()
    yield server
    server.stop()


@pytest.mark.parametrize("jobs", [1, 8])
@pytest.mark.parametrize("prover", ["scripted", "wire", "stdio"])
@pytest.mark.parametrize("records", ["records.jsonl", "records_baseline.jsonl"])
def test_run_reproduces_golden_on_every_backend_and_worker_count(
    tmp_path, golden_wire_server, records, prover, jobs
):
    from sketchprove.cli import main

    flags = golden_flags(tmp_path, jobs=jobs)
    if prover == "wire":
        flags[flags.index("--prover") + 1] = f"external:{golden_wire_server.address}"
    elif prover == "stdio":
        script = FIXTURES / "prover" / "script.json"
        bridge = f"{sys.executable} -m sketchprove.prover --script {script} --stdio"
        flags[flags.index("--prover") + 1] = f"external:stdio:{bridge}"
    command = ["run", "--baseline"] if records == "records_baseline.jsonl" else ["run"]
    assert main([*flags, *command]) == 0
    assert (tmp_path / records).read_bytes() == (FIXTURES / "golden" / records).read_bytes()


# -- failures the run reports -----------------------------------------------------------


def _script_with_default(tmp_path, default):
    script = json.loads((FIXTURES / "prover" / "script.json").read_text())
    script["default"] = default
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    return str(path)


def test_unparseable_hammer_step_fails_the_gap_not_the_run(tmp_path):
    flags = golden_flags(tmp_path)
    script = _script_with_default(tmp_path, {"kind": "hammer", "step": "apply auto"})
    flags[flags.index("--prover") + 1] = f"scripted:{script}"
    for command, records in ((["run"], "records.jsonl"), (["run", "--baseline"], "records_baseline.jsonl")):
        result = run_cli(*flags, *command)
        assert result.returncode == 0, result.stderr
        stages = [json.loads(line)["failure_stage"] for line in (tmp_path / records).read_text().splitlines()]
        assert "prove" in stages
    sketch_path = tmp_path / "sketch.thy"
    sketch_path.write_text('theorem t: shows "no rule matches this"\n  sledgehammer\n')
    result = run_cli(*flags, "prove", str(sketch_path))
    assert result.returncode == 0, result.stderr
    assert "not proved (gap [])" in result.stdout
    assert "closing step does not parse" in result.stdout


def test_sketch_cache_misses_fail_the_run(tmp_path):
    # another seed draws other examples, so most sketch prompts miss the cache
    result = run_cli(
        "--config", str(FIXTURES / "golden" / "config.json"), "--seed", "99",
        "--out", str(tmp_path), "run",
    )
    assert result.returncode == 1
    assert "attempts failed on infrastructure errors: 194 of 200" in result.stderr
    assert "aborted" not in result.stderr  # every problem still has its records


def test_torn_cache_tail_still_replays_golden(tmp_path):
    cache = tmp_path / "completions.jsonl"
    cache.write_bytes((FIXTURES / "cache" / "completions.jsonl").read_bytes() + b'{"key": "abc", "te')
    flags = golden_flags(tmp_path)
    flags[flags.index("--cache-file") + 1] = str(cache)
    result = run_cli(*flags, "run")
    assert result.returncode == 0, result.stderr
    assert "torn final line" in result.stderr
    assert (tmp_path / "records.jsonl").read_bytes() == (FIXTURES / "golden" / "records.jsonl").read_bytes()


def test_prove_closes_its_session_when_proving_raises(tmp_path, monkeypatch):
    import sketchprove.cli as cli
    from sketchprove.prover import SessionDead, SessionState

    opened = []
    real_open = cli.open_session

    def open_and_keep(spec, config):
        opened.append(real_open(spec, config))
        return opened[-1]

    def lost(session, ast):
        raise SessionDead("injected")

    monkeypatch.setattr(cli, "open_session", open_and_keep)
    monkeypatch.setattr(cli, "prove_sketch", lost)
    sketch_path = tmp_path / "sketch.thy"
    sketch_path.write_text('theorem t: shows "True"\n  sledgehammer\n')
    assert cli.main([*golden_flags(tmp_path), "prove", str(sketch_path)]) == 1
    assert [session.state for session in opened] == [SessionState.DEAD]


def test_prove_reports_a_cheating_sketch(tmp_path):
    sketch_path = tmp_path / "sketch.thy"
    sketch_path.write_text('theorem t: shows "True"\n  sorry\n')
    result = run_cli(*golden_flags(tmp_path), "prove", str(sketch_path))
    assert result.returncode == 0, result.stderr
    assert "not proved: cheat gate: cheating keyword: sorry" in result.stdout
