"""A cheaper constructor for frozen, slotted dataclasses built in bulk: the
sketch AST's nodes (one per step of every parsed sketch), the prover's
gap results (one per gap of every cascade reply) and its sketch outcomes
(one per `prove_sketch` call)."""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import TypeVar

_Class = TypeVar("_Class", bound=type)


def _slot_init(cls: _Class) -> _Class:
    """Give a `dataclass(frozen=True, slots=True)` a cheaper `__init__`:
    it sets each field through its slot's descriptor, looked up once per
    class, where the one `dataclass(frozen=True)` generates looks up and
    calls `object.__setattr__` per field, about 1.7 times the cost for a
    7-field step. Only construction changes: assigning a field still
    raises FrozenInstanceError, and equality (fields with `compare=False`
    left out), hashing, `repr` and `dataclasses.replace` are the
    dataclass's own. Fields may have plain defaults, not default
    factories. Apply it above the dataclass decorator."""
    params, lines, namespace = [], [], {}
    for f in fields(cls):
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        lines.append(f"    _set_{f.name}(self, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    body = "\n".join(lines) or "    pass"
    exec(f"def __init__(self, {', '.join(params)}):\n{body}\n", namespace)  # as `dataclass` does
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
