"""The one reader of input from outside the program (`sketchprove.errors`):
its two functions, every file reader on arbitrary bytes, and a scan of the
source that keeps JSON decoding and file reading in that one place."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sketchprove
from conftest import FIXTURES
from sketchprove import cli
from sketchprove.errors import ConfigError, decode_json, read_text
from sketchprove.harness import import_attempts, load_dataset
from sketchprove.llm import CompletionCache
from sketchprove.prompting import load_pool
from sketchprove.prover import ScriptError, load_script

DEEP = "[" * 100_000 + "]" * 100_000


class Refused(Exception):
    pass


def test_read_text_returns_the_text_or_names_the_file(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes("café\n".encode())
    assert read_text(path, "notes file", Refused) == "café\n"
    path.write_bytes(b"ok \xff")
    with pytest.raises(Refused, match=f"^cannot read notes file {path}: not UTF-8 \\(byte 3\\)$"):
        read_text(path, "notes file", Refused)
    with pytest.raises(Refused, match=f"^cannot read notes file {tmp_path}: Is a directory$"):
        read_text(tmp_path, "notes file", Refused)
    with pytest.raises(Refused, match="No such file or directory"):
        read_text(tmp_path / "nosuch", "notes file", Refused)


@pytest.mark.parametrize("data, why", [
    ("not json", "Expecting value"),
    (b'{"a": "\xff"}', "'utf-8' codec can't decode"),
    (b'["\xed\xa0\x80"]', "'utf-8' codec can't decode"),  # an encoded lone surrogate
    (DEEP, "nested too deep"),
    (DEEP.encode(), "nested too deep"),
    ("1" * 5000, "integer string conversion"),
])
def test_decode_json_turns_every_decoding_failure_into_the_callers_error(data, why):
    with pytest.raises(Refused, match=f"^not valid JSON: .*{why}"):
        decode_json(data, Refused)
    assert decode_json('{"a": [1, null]}', Refused) == {"a": [1, None]}
    assert decode_json(b'["\xc3\xa9"]', Refused) == ["é"]


# -- every file reader, fed any bytes, loads them or raises its own typed error ----

# name: (the fixture it reads, how the program reads such a file, its error)
READERS = {
    "config": ("golden/config.json", lambda path: cli._load_config(str(path), {}), ConfigError),
    "pool": ("pool/examples.json", load_pool, ConfigError),
    "script": ("prover/script.json", load_script, ScriptError),
    "dataset": ("datasets/mini.jsonl", load_dataset, ConfigError),
    "records": ("golden/records.jsonl", import_attempts, ConfigError),
    "cache": ("cache/completions.jsonl", CompletionCache, ConfigError),
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _edit():
    """(at, cut, insert): replace `cut` bytes at fraction `at` of a fixture
    file with `insert`."""
    insert = st.one_of(
        st.binary(max_size=8), st.sampled_from([b"\xff", b"\n", b"\r", b"\x00", b"\n\n"]),
        _JSON.map(lambda value: (json.dumps(value) + "\n").encode()),
        st.just(("\n" + DEEP + "\n").encode()),
    )
    return st.tuples(st.floats(0, 1), st.integers(0, 200), insert)


_FILE = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=64)),
    st.tuples(st.just("bytes"), _JSON.map(lambda value: json.dumps(value).encode())),
    st.tuples(st.just("bytes"), st.lists(_JSON, max_size=3).map(
        lambda values: "".join(json.dumps(v) + "\n" for v in values).encode())),
    st.tuples(st.just("edit"), _edit()),
)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_FILE)
@example(case=("bytes", DEEP.encode()))
@example(case=("bytes", b'{"schema": "\xff"}'))
@example(case=("bytes", b"1" * 5000))
@example(case=("bytes", b'{"key": "k", "text": "(* \\ud800 *) sorry"}\n'))  # a lone surrogate, escaped
@example(case=("edit", (0.5, 0, b"\xff")))
@example(case=("edit", (0.5, 0, ("\n" + DEEP + "\n").encode())))
def test_a_file_reader_loads_any_bytes_or_raises_its_typed_error_naming_the_file(
    tmp_path, reader, case
):
    fixture, load, error = READERS[reader]
    how, what = case
    if how == "edit":
        at, cut, insert = what
        original = (FIXTURES / fixture).read_bytes()
        start = int(at * len(original))
        what = original[:start] + insert + original[start + cut:]
    path = tmp_path / f"input-{reader}.data"
    path.write_bytes(what)
    try:
        load(path)
    except error as exc:
        assert str(path) in str(exc)


# -- one place decodes JSON and reads files --------------------------------------

SOURCE = Path(sketchprove.__file__).parent
READER = "errors.py"
# `parse_sketch` turns a RecursionError of its own recursive descent, not of
# a JSON value, into a ParseError
OWN_RECURSION = {"sketch/parser.py"}


def _called(node: ast.Call) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _caught(handler: ast.ExceptHandler) -> set[str]:
    names = set()
    for node in ast.walk(handler.type) if handler.type is not None else ():
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.attr if isinstance(node, ast.Attribute) else node.id)
    return names


def _reads(node: ast.Call) -> bool:
    """A call that opens a file for reading: `open(file, mode)` or
    `path.open(mode)` with no mode or one without w, a or x; or a path's
    `read_text`/`read_bytes`."""
    name = _called(node)
    if name in ("read_text", "read_bytes"):
        return isinstance(node.func, ast.Attribute)
    if name != "open":
        return False
    at = 0 if isinstance(node.func, ast.Attribute) else 1
    mode = node.args[at] if len(node.args) > at else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def test_only_the_reader_decodes_json_reads_files_or_catches_decoding_errors():
    offences = []
    for path in sorted(SOURCE.rglob("*.py")):
        where = path.relative_to(SOURCE).as_posix()
        if where == READER:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (_called(node) in ("loads", "load") or _reads(node)):
                offences.append(f"{where}:{node.lineno} calls {_called(node)}")
            if isinstance(node, ast.ExceptHandler):
                caught = _caught(node) & {"JSONDecodeError", "RecursionError"}
                if where in OWN_RECURSION:
                    caught.discard("RecursionError")
                if caught:
                    offences.append(f"{where}:{node.lineno} catches {sorted(caught)}")
    assert not offences, "read outside input with sketchprove.errors' reader: " + "; ".join(offences)


def test_the_scan_sees_what_it_forbids():
    source = (
        "import json\nfrom pathlib import Path\n"
        "try:\n    json.loads(Path('f').read_text())\nexcept (json.JSONDecodeError, OSError):\n    pass\n"
        "with open('w') as handle, open('g', 'ab'), Path('h').open(mode='w'):\n    pass\n"
    )
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert sorted(_called(c) for c in calls if _called(c) == "loads" or _reads(c)) == [
        "loads", "open", "read_text"]
    handler = next(node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler))
    assert _caught(handler) >= {"JSONDecodeError", "OSError"}
