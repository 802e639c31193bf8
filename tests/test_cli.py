import json
import subprocess
import sys

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
