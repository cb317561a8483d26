"""
Immutable value classes, built without the standard library's data classes.

``@value`` gives a class with annotated fields what a frozen standard data
class with slots would, and imports nothing but ``types``: importing the
standard module (and ``inspect``, which it imports) and generating its
methods took about two thirds of the CLI's start-up.

The generated methods are compiled once per shape, not once per class.  A
shape is the number of fields, whether the class has a ``__post_init__``,
and ``unchecked``.  Its template is written over the placeholder fields
``f0``, ``f1``, ...; each class gets new functions over the template's code
with those names replaced by its own (``code.replace``), so every class
runs the same bytecode as if its own source had been compiled.  The
template cache holds one entry per shape.

The class is rebuilt with ``__slots__``: its own fields, any names in its
own ``__slots__`` (state that is not a field, such as a cache filled on
first use), and ``__weakref__`` on a class whose only base is ``object``.
So no instance has a ``__dict__`` and every instance of a class has one
layout.  Rebuilding makes a new class object, so no method of a value
class may use zero-argument ``super()``.  Every field is declared by its
own class and has no default: a class that gives a field a value, or
whose base is a value class with fields, raises ``TypeError`` when it is
decorated.  A value class gets:

* ``__init__`` over the fields in order, keywords kept, which sets each
  field through its slot's ``__set__`` and then calls ``__post_init__``
  where the class has one;
* with ``@value(unchecked=True)``, the static method ``_unchecked`` over
  the same fields, which sets them the same way and skips
  ``__post_init__``, for callers whose construction makes the value valid;
* ``__eq__`` between instances of the very same class, comparing field
  tuples, and ``__hash__`` of the field tuple;
* the repr ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``;
* ``__reduce__``, so that ``pickle`` and ``copy`` rebuild a value through
  its public constructor;
* ``_fields``, the field names in order.
"""

from types import CodeType, FunctionType

_templates = {}  # shape -> {method name: code}


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


def _template(shape):
    """The code of each generated method of a shape, over the fields ``f0``, ``f1``, ...

    ``_set<i>`` (field i's slot setter), ``_new`` and ``_cls`` are globals of
    each class's own functions.
    """
    if shape not in _templates:
        count, post_init, unchecked = shape
        names = [f"f{i}" for i in range(count)]
        params = "".join(f", {n}" for n in names)
        sets = "".join(f"\n    _set{i}(self, {n})" for i, n in enumerate(names))
        post = "\n    self.__post_init__()" if post_init else "\n    pass"
        mine, theirs = (f"({''.join(f'{who}.{n}, ' for n in names)})" for who in ("self", "other"))
        source = f"""
def __init__(self{params}):{sets}{post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {mine} == {theirs}
    return NotImplemented
def __hash__(self):
    return hash({mine})
"""
        if unchecked:
            source += f"def _unchecked({', '.join(names)}):\n    self = _new(_cls){sets}\n    return self\n"
        module = compile(source, "<value>", "exec")
        _templates[shape] = {c.co_name: c for c in module.co_consts if isinstance(c, CodeType)}
    return _templates[shape]


def _value(cls, unchecked):
    if getattr(cls, "_fields", ()):
        raise TypeError(f"{cls.__qualname__} inherits the fields {cls._fields}; a value class declares its own")
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    for name in names:
        if name in own:
            raise TypeError(f"{cls.__qualname__}.{name} has a default; a value field has none")
    slots = (*names, *own.get("__slots__", ()))
    slots += ("__weakref__",) if cls.__bases__ == (object,) else ()
    codes = _template((len(names), hasattr(cls, "__post_init__"), unchecked))
    relabel = {f"f{i}": n for i, n in enumerate(names)}.get
    namespace = {"_new": object.__new__}
    methods = {
        name: FunctionType(code.replace(co_names=tuple(relabel(s, s) for s in code.co_names),
                                        co_varnames=tuple(relabel(s, s) for s in code.co_varnames)),
                           namespace, name)
        for name, code in codes.items()
    }
    if unchecked:
        methods["_unchecked"] = staticmethod(methods["_unchecked"])
    body = {k: v for k, v in own.items() if k not in slots and k not in ("__dict__", "__weakref__")}
    body.update(methods, __slots__=slots, __qualname__=cls.__qualname__, _fields=names,
                __setattr__=_setattr, __delattr__=_delattr, __reduce__=_reduce, __repr__=_repr)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    # the functions read these globals when called, so they may be bound after the rebuild
    namespace.update({f"_set{i}": getattr(cls, n).__set__ for i, n in enumerate(names)}, _cls=cls)
    return cls
