"""One rule table per config, and the one checker that walks it.

A field's kind comes from its constructor annotation: ``int`` (not a bool),
``float`` (any real number but a bool), ``bool``, ``str``, or a ``tuple`` of
ints or floats (a list or tuple, each entry checked), each maybe ``| None``.
Its bound is an interval such as ``"(0, inf)"``, in which a number must also
be a finite float, or a tuple of the strings it allows.
"""

from __future__ import annotations

import inspect
import numbers
import sys
from functools import cached_property

import numpy as np

_KINDS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, (bool, np.bool_)),
    "str": lambda v: isinstance(v, str),
}


class Field:
    """One field: its kind, read from its annotation, and its bound."""

    def __init__(self, name: str, annotation: str, bound):
        kind = annotation.removesuffix(" | None")
        self.kind = kind.removeprefix("tuple[").removesuffix(", ...]")
        self.many, self.optional = self.kind != kind, kind != annotation
        self.name, self.bound = name, bound  # None for a bool
        if isinstance(bound, str):
            self.ends = tuple(float(end) for end in bound[1:-1].split(","))

    def _holds(self, v) -> bool:
        if not _KINDS[self.kind](v):
            return False
        if not isinstance(self.bound, str):
            return self.bound is None or v in self.bound
        low, high = self.ends  # an int too large for a float counts as infinite
        return abs(v) <= sys.float_info.max and (low < v if self.bound[0] == "(" else low <= v) \
            and (v < high if self.bound[-1] == ")" else v <= high)

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        if self.many:
            return isinstance(value, (list, tuple)) and all(map(self._holds, value))
        return self._holds(value)

    def describe(self) -> str:
        """What the field takes, as in ``an int in [0, inf) or None``."""
        text = f"list of {self.kind}s" if self.many else self.kind
        if self.bound is not None:
            text += " in " + (self.bound if isinstance(self.bound, str) else
                              "{" + ", ".join(map(repr, self.bound)) + "}")
        return ("an " if text.startswith("int") else "a ") + text + \
            (" or None" if self.optional else "")


class RuleTable:
    """The rules of ``owner``, or of the class it is assigned to, whose
    constructor parameters are its fields: ``bounds`` maps each field but a
    bool to its bound, ``rules`` maps a rule's text to a predicate whose
    parameters name the fields it reads. The rules are checked once every
    field holds; a broken field or rule raises ``error``."""

    def __init__(self, error: type[Exception], bounds: dict, rules: dict | None = None,
                 owner=None):
        self.error, self.bounds, self.owner = error, bounds, owner
        self.rules = {text: (tuple(inspect.signature(test).parameters), test)
                      for text, test in (rules or {}).items()}

    def __set_name__(self, owner, name) -> None:
        self.owner = owner

    @cached_property
    def fields(self) -> list[Field]:
        """The owner's fields, their kinds read from its constructor once."""
        fields = (Field(p.name, p.annotation, self.bounds.get(p.name))
                  for p in inspect.signature(self.owner).parameters.values())
        return [field for field in fields if field.kind in _KINDS]

    def check(self, values) -> None:
        """Raise ``error`` unless ``values``, which maps every field name to a
        value, keeps each field's kind and bound and every rule."""
        for field in self.fields:
            if not field.accepts(value := values[field.name]):
                raise self.error(f"{field.name} must be {field.describe()}, got {value!r}")
        for text, (names, test) in self.rules.items():
            if not test(*(values[name] for name in names)):
                given = ", ".join(f"{name}={values[name]!r}" for name in names)
                raise self.error(f"need {text}, got {given}")


def from_json(block: dict) -> dict:
    """A JSON config block as constructor arguments: each list a tuple."""
    return {name: tuple(v) if isinstance(v, list) else v for name, v in block.items()}
