"""Frozen records whose ``__init__`` writes every field in one step.

Every immutable record of the package is built with :func:`frozen`.

``@dataclass(frozen=True)`` writes each field in ``__init__`` through
``object.__setattr__(self, name, value)``, a generic call that costs about
three plain attribute stores.  :func:`frozen` applies that same
``dataclass`` and then replaces its ``__init__`` with one built once per
class, as ``dataclasses`` builds it, from the class's fields: a class with
a ``__dict__`` writes its init fields with one ``self.__dict__.update(...)``,
and a ``slots=True`` class through each slot's member descriptor, its
``__set__`` bound once when the class is built.  It then calls
``__post_init__``, looked up on the instance as ``dataclasses`` does, so the
checks and derived fields run unchanged.

Everything else is the dataclass's own: equality, hash, repr, ``order=``,
:func:`dataclasses.replace`, the ``__init__`` signature and
``FrozenInstanceError`` on assignment.  A field option the built
``__init__`` does not reproduce (``default_factory``, ``kw_only``,
``InitVar`` or ``init=False`` with a default) is a ``TypeError`` when the
class is defined.

:class:`cached` is ``functools.cached_property`` without its lock: a
derived field worked out on an instance's first read and stored in its
``__dict__`` (a packet's matches, a selector's subnet bits, an expression's
obligations), so later reads find it there without calling the descriptor.
On Python 3.11 ``cached_property`` takes a lock on each instance's first
read, which more than doubles its cost: building an instance and reading
one field took 0.77 µs with it and 0.33 µs with ``cached`` (timeit, Python
3.11.7 on a 2-vCPU VM).  The simulation runs on one thread, so nothing
needs the lock.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields

__all__ = ["cached", "frozen"]


def frozen(cls: type | None = None, /, *, slots: bool = False, order: bool = False):
    """``@dataclass(frozen=True, slots=slots, order=order)`` with an
    ``__init__`` that writes every init field in one step; used bare or
    with options."""

    def wrap(cls: type) -> type:
        return _with_init(dataclass(cls, frozen=True, slots=slots, order=order))

    return wrap if cls is None else wrap(cls)


def _refuse(cls: type, name: str, option: str) -> TypeError:
    return TypeError(f"{cls.__qualname__}.{name}: a frozen record's __init__ does not reproduce {option}")


def _with_init(cls: type) -> type:
    """``cls`` with its dataclass ``__init__`` replaced by the one-step one."""
    init_fields = []
    for spec in fields(cls):
        if spec.default_factory is not MISSING:
            raise _refuse(cls, spec.name, "default_factory")
        if spec.kw_only:
            raise _refuse(cls, spec.name, "kw_only")
        if spec.init:
            init_fields.append(spec)
        elif spec.default is not MISSING:
            raise _refuse(cls, spec.name, "init=False with a default")
    names = [spec.name for spec in init_fields]
    # an InitVar is a parameter of the dataclass __init__ that is no field
    for name in list(inspect.signature(cls.__init__).parameters)[1:]:
        if name not in names:
            raise _refuse(cls, name, "InitVar")

    # the built __init__ names this module, a dataclass's the record's own
    namespace: dict[str, object] = {"__name__": __name__}
    if "__slots__" in cls.__dict__:
        body = []
        for name in names:
            namespace[f"_set_{name}"] = cls.__dict__[name].__set__
            body.append(f"    _set_{name}(self, {name})")
    else:
        body = [f"    self.__dict__.update({', '.join(f'{name}={name}' for name in names)})"]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = "\n".join([f"def __init__({', '.join(['self', *names])}):", *(body or ["    pass"])])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__defaults__ = tuple(spec.default for spec in init_fields if spec.default is not MISSING) or None
    init.__annotations__ = {**{spec.name: spec.type for spec in init_fields}, "return": None}
    cls.__init__ = init
    return cls


class cached:
    """A derived field computed on an instance's first read and stored in
    its ``__dict__`` under the same name, as ``functools.cached_property``
    does, without its lock.  It defines no ``__set__``, so the stored value
    shadows it from then on.  Read on the class, it is the descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
