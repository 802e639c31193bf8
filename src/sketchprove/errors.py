"""The two bases of every error that can end a command: the class of an
error decides its exit code. Errors handled where they are raised (a sketch
that does not parse, a busy session) subclass neither."""


class ConfigError(Exception):
    """Input the run cannot use: a config, dataset, pool, cache or records
    file, or a plan over budget."""

    exit_code = 2


class InfraError(Exception):
    """A service the run depends on failed: the completion endpoint or its
    cache, or the prover."""

    exit_code = 1
