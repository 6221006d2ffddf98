"""Fading is drawn in one place: ``schedulers.slot_rates``; and hits are
counted in one place: ``queueing._hit_needs``.

Every call in ``src/`` of a ``channel.draw_*`` function, by attribute
(``channel.draw_gains``) or by a bare name, must sit inside
``schedulers.slot_rates``, so that every scheme's rates ride the same
sampler.  The draw functions themselves live in ``channel``.  The one
``while`` loop of ``queueing`` sits inside ``_hit_needs``.
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


def test_queueing_counts_hits_in_one_lockstep_loop():
    # the coupled queues' hits and the retransmission attempts share
    # one loop, and with it one budget and one done rule
    tree = ast.parse((SRC / "queueing.py").read_text())
    owners = [
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node) if isinstance(inner, ast.While)
    ]
    total = sum(isinstance(node, ast.While) for node in ast.walk(tree))
    assert total == 1 and owners == ["_hit_needs"], (total, owners)
