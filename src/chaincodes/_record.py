"""Frozen record classes, without the dataclasses module.

``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, which raised the
peak RSS of a ``perfbench`` process by 0.88 MiB (Python 3.11).  The records
here need only what ``record`` writes: an ``__init__`` over the annotated
fields (class attributes are defaults, and ``__post_init__`` runs after),
and equality, a hash and a repr over the same fields.  Assigning to a field
afterwards raises AttributeError; ``__post_init__`` sets derived attributes
with ``object.__setattr__``.  Like dataclasses, ``record`` writes the
``__init__``, ``__eq__`` and ``__hash__`` of each class as source text for
its own fields, since a generic loop over the field names made the
``cyclic`` workload about 5% slower.
"""

from __future__ import annotations

_METHODS = (
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"
)


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = [f"{n}=_dict[{n!r}]" if n in cls.__dict__ else n for n in names]
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    lines += [
        "def __eq__(self, other):",
        "    if other.__class__ is not self.__class__:",
        "        return NotImplemented",
        f"    return ({mine}) == ({theirs})",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ]
    methods = {"_set": object.__setattr__, "_dict": dict(cls.__dict__)}
    exec("\n".join(lines), methods)

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{cls.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    methods.update(
        __repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__
    )
    for name in _METHODS:
        if name not in cls.__dict__:
            methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, methods[name])
    return cls
