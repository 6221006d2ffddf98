"""Fading is drawn in one place: ``schedulers.slot_rates``; hits are
counted in one place: ``queueing._hit_needs``; and rows are run in one
place: ``cli.cmd_run``.

Every call in ``src/`` of a ``channel.draw_*`` function, by attribute
(``channel.draw_gains``) or by a bare name, must sit inside
``schedulers.slot_rates``, so that every scheme's rates ride the same
sampler.  The draw functions themselves live in ``channel``.  The one
``while`` loop of ``queueing`` sits inside ``_hit_needs``.  The one call
of ``run_config`` is ``simcore.run_config(...)`` inside ``cli.cmd_run``.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mcastsim"

_DRAWS = {
    node.name for node in ast.parse((SRC / "channel.py").read_text()).body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("draw_")
}


def _calls(tree: ast.Module, module: str, callees):
    """(module.function, callee, call) for every call of one of the
    callees, where function is the outermost def around the call
    ("<module>" if none)."""
    found = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer == "<module>":
            outer = node.name
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee in callees:
                found.append((f"{module}.{outer}", callee, node))
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, "<module>")
    return found


def test_every_fading_draw_is_inside_slot_rates():
    assert {"draw_gains", "draw_scheduled_gains", "draw_interuser_gains"} <= _DRAWS
    calls = [
        (owner, callee) for path in sorted(SRC.glob("*.py"))
        for owner, callee, _ in _calls(ast.parse(path.read_text()), path.stem, _DRAWS)
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


def test_rows_run_in_one_loop():
    # every run, single, swept or a recipe, is a list of configs that
    # cmd_run runs; the recipes benchmark times each row by patching the
    # module attribute simcore.run_config, which a bare-name call would miss
    calls = [
        (owner, ast.unparse(call.func)) for path in sorted(SRC.glob("*.py"))
        for owner, _, call in _calls(ast.parse(path.read_text()), path.stem, {"run_config"})
    ]
    assert calls == [("cli.cmd_run", "simcore.run_config")], calls
