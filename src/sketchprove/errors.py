"""The two bases of every error that can end a command: the class of an
error decides its exit code. Errors handled where they are raised (a sketch
that does not parse, a busy session) subclass neither. Input from outside
the program is read only here, by `read_text` (files) and `decode_json`
(files, endpoint bodies and wire frames), into the caller's typed error."""

import json
from pathlib import Path
from typing import Callable


class ConfigError(Exception):
    """Input the run cannot use: a config, dataset, pool, cache or records
    file, or a plan over budget."""

    exit_code = 2


class InfraError(Exception):
    """A service the run depends on failed: the completion endpoint or its
    cache, or the prover."""

    exit_code = 1


def read_text(path: str | Path, what: str, error: Callable[[str], Exception]) -> str:
    """The UTF-8 text of the file `path`, the run's `what` ("pool file"), or
    `error("cannot read <what> <path>: <why>")` raised."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        why = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        why = f"not UTF-8 (byte {exc.start})"
    raise error(f"cannot read {what} {path}: {why}")


def decode_json(data: str | bytes, error: Callable[[str], Exception]) -> object:
    """The JSON value in `data`, or `error("not valid JSON: <why>")` raised when
    it is not JSON (or, as bytes, not UTF-8, surrogates too) or nests too deep."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except RecursionError:
        why = "nested too deep"
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on bytes
        why = str(exc)
    raise error(f"not valid JSON: {why}")
