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
    result = run_cli(*golden_flags(tmp_path), "draft", "--problem-ids", "algebra_g01", "--n", "0")
    assert result.returncode == 0
    assert "nothing to sample" in result.stdout


def test_draft_then_sketch_replay(tmp_path):
    out = tmp_path / "out"
    result = run_cli(*golden_flags(out), "draft", "--problem-ids", "algebra_g01", "--n", "5")
    assert result.returncode == 0, result.stderr
    drafts = sorted((out / "drafts" / "algebra_g01").glob("draft_*.txt"))
    assert len(drafts) == 5

    result = run_cli(*golden_flags(out), "sketch", "--problem-id", "algebra_g01", "--draft-id", "0")
    assert result.returncode == 0, result.stderr
    assert "parse: ok, gaps: 2" in result.stdout


def test_sketch_parse_failure_still_exits_zero(tmp_path):
    out = tmp_path / "out"
    run_cli(*golden_flags(out), "draft", "--problem-ids", "algebra_g03", "--n", "5")
    result = run_cli(*golden_flags(out), "sketch", "--problem-id", "algebra_g03", "--draft-id", "0")
    assert result.returncode == 0, result.stderr
    assert "parse: FAILED" in result.stdout
    assert "byte" in result.stdout  # the ParseError offset is reported


def test_sketch_no_comments_mode_prompt_preview(tmp_path):
    out = tmp_path / "out"
    run_cli(*golden_flags(out), "draft", "--problem-ids", "algebra_g01", "--n", "5")
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

    sent = []
    complete = llm.CompletionClient.complete

    def recording(client, request):
        sent.append(request.prompt)
        return complete(client, request)

    monkeypatch.setattr(llm.CompletionClient, "complete", recording)
    cli.main(["--config", str(config_path), "--jobs", "1", "run"])
    # one worker runs the plan in order: the draft prompt, then draft 0's
    # sketches 0 and 1, then draft 1's
    run_prompts = [
        prompt for prompt in sent
        if "theorem algebra_g01:" in prompt and prompt.endswith("Formal Proof Sketch:\n")
    ]
    assert len(run_prompts) == 2 * config["drafts"]

    # the draft files hold run's drafts only when sampled with run's count
    draft_count = str(config["drafts"])
    cli.main([
        "--config", str(config_path), "draft", "--problem-ids", "algebra_g01", "--n", draft_count,
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
        "draft", "--problem-ids", "algebra_g01", "--n", "2",
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
