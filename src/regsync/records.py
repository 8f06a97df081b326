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
    therefore not generated)."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    ns, params, body = {"MISSING": MISSING}, [], []
    for f in fields(cls):
        n, has_factory = f.name, f.default_factory is not MISSING
        ns[f"set_{n}"], ns[f"default_{n}"], ns[f"factory_{n}"] = (
            getattr(cls, n).__set__, f.default, f.default_factory)
        params.append(f"{n}=default_{n}" if f.default is not MISSING or has_factory else n)
        if has_factory:
            body.append(f"if {n} is MISSING: {n} = factory_{n}()")
        body.append(f"set_{n}(self, {n})")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
