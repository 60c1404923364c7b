"""The library holds only what the program runs: every definition has a
caller, the README's layout names every module, and every fit
differentiates and steps through ``optim.fit_step``."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "nisf"
# argparse calls ``error`` on its parser; nothing in the program names it
CALLED_FROM_OUTSIDE = {("cli.py", "_Parser.error")}


def _definitions(tree):
    # (qualified name, name, def node): module-level functions and classes,
    # and the non-dunder methods of module-level classes
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _mentions(tree):
    # every identifier a module reads or imports, and the names it looks up
    # by string: getattr's attribute and the strings of a tuple or list
    # literal (``experiments.STAGES``, perfbench's ``SITES``), but not a
    # dict key or a header field that happens to share a name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, (ast.Tuple, ast.List)):
            yield from _strings(node.elts)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            yield from _strings(node.args[1:2])


def _strings(nodes):
    return (n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str))


def unreached(library=LIBRARY, callers=(ROOT / "scripts", ROOT / "perfbench")):
    """Definitions in ``library`` that no module of it or of ``callers`` names
    outside the definition itself."""
    mentioned = Counter()
    defined = []
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text())
        mentioned.update(_mentions(tree))
        defined += [(path.name, qual, name, node) for qual, name, node in _definitions(tree)]
    for folder in callers:
        for path in sorted(folder.glob("*.py")):
            mentioned.update(_mentions(ast.parse(path.read_text())))
    return sorted(qual for file, qual, name, node in defined
                  if mentioned[name] == Counter(_mentions(node))[name]
                  and (file, qual) not in CALLED_FROM_OUTSIDE)


def test_every_library_definition_is_reached_by_the_program():
    assert unreached() == []


def test_the_check_sees_a_definition_only_tests_reach(tmp_path):
    library, caller = tmp_path / "lib", tmp_path / "scripts"
    library.mkdir()
    caller.mkdir()
    (library / "a.py").write_text(
        "def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "def orphan():\n    return orphan\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def size(self):\n        return 0\n\n    def spare(self):\n        return 0\n")
    (caller / "run.py").write_text("from a import used, Box\n\nused()\n"
                                   "print(getattr(Box(), 'size'), {'spare': 0})\n")
    assert unreached(library, [caller]) == ["Box.spare", "orphan"]


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\w+\.py) ", layout, flags=re.MULTILINE))
    modules = {p.name for p in LIBRARY.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert named == modules


def differentiating_sites(library=LIBRARY):
    """(module, function) of every ``Tape`` built with tensors, and the
    modules that assign a ``.grad``."""
    tapes, grads = set(), set()
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                tapes.update((path.name, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "attr", getattr(node.func, "id", None))
                             == "Tape" and (node.args or node.keywords))
        if any(isinstance(node, ast.Attribute) and node.attr == "grad"
               and isinstance(node.ctx, ast.Store) for node in ast.walk(tree)):
            grads.add(path.name)
    return tapes, grads


def test_fits_differentiate_only_through_fit_step():
    # a fit loop that builds its own tape, or hands a gradient on by hand,
    # bypasses the one step every fit takes
    tapes, grads = differentiating_sites()
    assert tapes == {("optim.py", "fit_step"), ("gradcheck.py", "check_scalar_fn")}
    assert grads == {"autodiff.py", "optim.py"}


def test_the_check_sees_a_hand_rolled_step(tmp_path):
    (tmp_path / "loop.py").write_text(
        "from . import autodiff as ad\n\n\ndef fit(h, h32, loss):\n"
        "    with ad.Tape(wrt=[h32]) as tape:\n        tape.backward(loss(h32))\n"
        "    h.grad = h32.grad\n\n\ndef frozen(loss):\n"
        "    with ad.Tape():\n        return loss()\n")
    assert differentiating_sites(tmp_path) == ({("loop.py", "fit")}, {"loop.py"})
