import importlib
import inspect
import pkgutil

import sketchprove
from sketchprove.errors import ConfigError, InfraError

# errors caught where they are raised, so they never reach the command line
HANDLED_WHERE_RAISED = {
    "sketchprove.sketch.parser.ParseError",  # a sketch that does not parse is an attempt's outcome
    "sketchprove.sketch.parser._RawParseError",  # becomes a ParseError
    "sketchprove.sketch.nodes.InvalidSite",  # a closing step the proof cannot hold fails its gap
    "sketchprove.prover.config.SessionBusy",  # a second command on a session is a caller bug
    "sketchprove.prover.wire._BadFrame",  # the server answers a bad frame and keeps serving
}


def _exception_classes():
    for info in pkgutil.walk_packages(sketchprove.__path__, "sketchprove."):
        if info.name.endswith(".__main__"):
            continue  # running it starts a server
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                yield f"{cls.__module__}.{cls.__qualname__}", cls


def test_every_error_is_classified_or_handled_where_raised():
    found = dict(_exception_classes())
    unclassified = {
        name for name, cls in found.items()
        if not issubclass(cls, (ConfigError, InfraError)) and name not in HANDLED_WHERE_RAISED
    }
    assert not unclassified, f"give these a base in sketchprove.errors: {sorted(unclassified)}"
    assert HANDLED_WHERE_RAISED <= set(found), "an allowlisted error no longer exists"


def test_each_error_keeps_its_exit_code():
    from sketchprove import harness, llm, prompting, prover, scheduler

    config = [
        scheduler.BudgetExceeded, prompting.PoolFormatError, prompting.PoolTooSmall,
        prompting.MissingFullProof, harness.SchemaError, harness.DuplicateId,
        harness.MissingResults, harness.CoverageError,
    ]
    infra = [
        prover.ConnectError, prover.ScriptError, prover.SessionDead,
        llm.EndpointError, llm.CacheMiss, llm.Timeout,
    ]
    assert {cls.exit_code for cls in config} == {2}
    assert {cls.exit_code for cls in infra} == {1}
    assert all(issubclass(cls, llm.CompletionError) for cls in infra[3:])
