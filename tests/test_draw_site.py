"""Fading is drawn in one place: ``schedulers.slot_rates``.

Every call in ``src/`` of a ``channel.draw_*`` function, by attribute
(``channel.draw_gains``) or by a bare name, must sit inside
``schedulers.slot_rates``, so that every scheme's rates ride the same
sampler.  The draw functions themselves live in ``channel``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mcastsim"

_DRAWS = {
    node.name for node in ast.parse((SRC / "channel.py").read_text()).body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("draw_")
}


def _draw_calls(tree: ast.Module, module: str):
    """(module.function, callee) for every call of a channel draw, where
    function is the outermost def around the call ("<module>" if none)."""
    found = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer == "<module>":
            outer = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee in _DRAWS:
                found.append((f"{module}.{outer}", callee))
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, "<module>")
    return found


def test_every_fading_draw_is_inside_slot_rates():
    assert {"draw_gains", "draw_scheduled_gains", "draw_interuser_gains"} <= _DRAWS
    calls = [
        call for path in sorted(SRC.glob("*.py"))
        for call in _draw_calls(ast.parse(path.read_text()), path.stem)
    ]
    assert {callee for _, callee in calls} == _DRAWS, "some draw is never called"
    outside = [call for call in calls if call[0] != "schedulers.slot_rates"]
    assert not outside, f"fading drawn outside schedulers.slot_rates: {outside}"
