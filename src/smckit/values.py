"""
Immutable value classes, built without the standard library's data classes.

``@value`` gives a class with annotated fields what a frozen standard data
class with slots would, from one ``exec`` of generated source, and imports
nothing: importing the standard module (and ``inspect``, which it imports)
and generating its methods took about two thirds of the CLI's start-up.

The class is rebuilt with ``__slots__``: its own fields, any names in its
own ``__slots__`` (state that is not a field, such as a cache filled on
first use), and ``__weakref__`` on a class whose only base is ``object``.
So no instance has a ``__dict__``, every instance of a class has one
layout, and a field default lives in ``__init__``, not on the class.
Rebuilding makes a new class object, so no method of a value class may use
zero-argument ``super()``.  A value class gets:

* ``__init__`` over the fields in order, defaults and keywords kept, which
  sets each field through its slot's ``__set__`` and then calls
  ``__post_init__`` where the class has one;
* with ``@value(unchecked=True)``, the static method ``_unchecked`` over
  the same fields, which sets them the same way and skips
  ``__post_init__``, for callers whose construction makes the value valid;
* ``__eq__`` between instances of the very same class, comparing field
  tuples, and ``__hash__`` of the field tuple;
* the repr ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``;
* ``__reduce__``, so that ``pickle`` and ``copy`` rebuild a value through
  its public constructor;
* ``_fields``, the field names, a base class's first.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return self.__class__, tuple([getattr(self, name) for name in self._fields])


def _repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({shown})"


def value(cls=None, *, unchecked=False):
    """Make ``cls`` an immutable value class over its annotated fields (see the module docstring)."""
    if cls is None:
        return lambda cls: _value(cls, unchecked)
    return _value(cls, unchecked)


def _value(cls, unchecked):
    inherited = getattr(cls, "_fields", ())
    own = cls.__dict__
    names = tuple(dict.fromkeys((*inherited, *own.get("__annotations__", ()))))
    slots = (*[n for n in names if n not in inherited], *own.get("__slots__", ()))
    slots += ("__weakref__",) if cls.__bases__ == (object,) else ()
    namespace = {f"_default_{n}": own[n] for n in names if n in own}
    params = "".join(f", {n}=_default_{n}" if f"_default_{n}" in namespace else f", {n}" for n in names)
    sets = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "\n    pass"
    mine, theirs = (f"({''.join(f'{who}.{n}, ' for n in names)})" for who in ("self", "other"))
    source = f"""
def __init__(self{params}):{sets}{post_init}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {mine} == {theirs}
    return NotImplemented
def __hash__(self):
    return hash({mine})
"""
    if unchecked:
        source += f"@staticmethod\ndef _unchecked({', '.join(names)}):\n    self = _new(_cls){sets}\n    return self\n"
    exec(source, namespace)
    body = {k: v for k, v in own.items() if k not in slots and k not in ("__dict__", "__weakref__")}
    body.update({k: namespace[k] for k in ("__init__", "__eq__", "__hash__", "_unchecked") if k in namespace})
    body.update(__slots__=slots, __qualname__=cls.__qualname__, _fields=names,
                __setattr__=_setattr, __delattr__=_delattr, __reduce__=_reduce, __repr__=_repr)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    # the generated functions read these globals when called, so they may be bound after the rebuild
    namespace.update({f"_set_{n}": getattr(cls, n).__set__ for n in names}, _new=object.__new__, _cls=cls)
    return cls
