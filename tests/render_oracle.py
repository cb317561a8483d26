"""The renderer that walks every occurrence, kept as the oracle for ``terms.syntax``.

This is ``cli.render_mor`` and ``terms.obj_text`` as they were before
rendering wrote each shared object node once: every occurrence of an
object is walked node by node, and the objects of each atom in a walk of
their own.  ``terms.syntax`` writes objects and morphisms in one walk;
``obj_text``, ``str``, ``cli.render_obj`` and ``cli.render_mor`` call it.
Its output is the concrete syntax the CLI prints, so the two must agree
byte for byte, and raise ``TypeError`` with the same text for a term of
the wrong kind.
"""

from smckit.terms import Assoc, Braid, Comp, Gen, Id, Inv, LeftUnitor, Par, RightUnitor, Tensor, Unit


def obj_text(t, sep: str = "*") -> str:
    out = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Tensor):
            out.append("(")
            todo += (")", item.right, sep, item.left)
        elif isinstance(item, Gen):
            out.append(str(item.label))
        elif isinstance(item, Unit):
            out.append("I")
        else:
            raise TypeError(f"not an object term: {item!r}")
    return "".join(out)


def render_obj(t) -> str:
    return obj_text(t, " * ")


def render_mor(t) -> str:
    out = []
    todo: list = [t]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Comp):
            todo += (item.second, " ; ", item.first)
        elif isinstance(item, Par):
            out.append("(")
            todo += (")", item.right, " * ", item.left)
        elif isinstance(item, Inv):
            out.append("inv (")
            todo += (")", item.arg)
        elif isinstance(item, Id):
            out.append(f"id {render_obj(item.obj)}")
        elif isinstance(item, Assoc):
            out.append(f"a {render_obj(item.x)} {render_obj(item.y)} {render_obj(item.z)}")
        elif isinstance(item, LeftUnitor):
            out.append(f"l {render_obj(item.x)}")
        elif isinstance(item, RightUnitor):
            out.append(f"r {render_obj(item.x)}")
        elif isinstance(item, Braid):
            out.append(f"b {render_obj(item.x)} {render_obj(item.y)}")
        else:
            raise TypeError(f"not a morphism term: {item!r}")
    return "".join(out)
