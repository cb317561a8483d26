"""
Immutable value classes, built without the standard library's data classes.

``@value`` gives a class with annotated fields what a frozen standard data
class would, from one ``exec`` of generated source, and imports nothing:
importing the standard module (and ``inspect``, which it imports) and
generating its methods took about two thirds of the CLI's start-up.  A value
class gets:

* ``__init__`` over the fields in order, defaults and keywords kept, which
  sets each field with ``object.__setattr__`` and then calls
  ``__post_init__`` where the class has one.  A private constructor may
  fill ``__dict__`` instead and skip the check, but ``__init__`` does not:
  reading ``__dict__`` gives the instance a dict of its own in place of
  CPython's compact attribute storage, which made it larger and each later
  attribute read slower;
* ``__eq__`` between instances of the very same class, comparing field
  tuples, and ``__hash__`` of the field tuple;
* the repr ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that raise ``AttributeError``;
* ``_fields``, the field names, a base class's first.
"""


def value(cls):
    """Make ``cls`` an immutable value class over its annotated fields (see the module docstring)."""
    names = tuple(dict.fromkeys((*getattr(cls, "_fields", ()), *cls.__dict__.get("__annotations__", ()))))
    namespace = {f"_default_{n}": getattr(cls, n) for n in names if hasattr(cls, n)}
    params = "".join(f", {n}=_default_{n}" if f"_default_{n}" in namespace else f", {n}" for n in names)
    body = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in names)
    body += "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "\n    pass"
    mine, theirs = (f"({''.join(f'{who}.{n}, ' for n in names)})" for who in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = f"""
def __init__(self{params}):{body}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {mine} == {theirs}
    return NotImplemented
def __hash__(self):
    return hash({mine})
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"
def __setattr__(self, name, value):
    raise AttributeError(f"cannot assign to field {{name!r}}")
def __delattr__(self, name):
    raise AttributeError(f"cannot delete field {{name!r}}")
"""
    namespace["_setattr"] = object.__setattr__
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        setattr(cls, name, namespace[name])
    cls._fields = names
    return cls
