"""Frozen value records that are cheap to build.

A frozen dataclass's generated ``__init__`` stores each field with
``object.__setattr__``, because the class's own ``__setattr__`` raises.
``frozen_record`` stores each field through its slot descriptor instead,
at about half the cost on CPython 3.11; assignment still raises
FrozenInstanceError, and the class is otherwise what ``dataclass`` makes.
"""

from dataclasses import MISSING, dataclass, fields


def frozen_record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)(cls)`` with the ``__init__``
    described above, of the same signature as the generated one (which is
    therefore not generated). A field takes a plain default, not a factory."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    ns, params, body = {}, [], []
    for f in fields(cls):
        n = f.name
        ns[f"set_{n}"], ns[f"default_{n}"] = getattr(cls, n).__set__, f.default
        params.append(n if f.default is MISSING else f"{n}=default_{n}")
        body.append(f"set_{n}(self, {n})")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
