"""Every public symbol has a user in the program, or a stated reason to exist."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "spusim" / "__init__.py"

# Exported names that nothing in the package, the demos or the benchmark
# names, each kept as a capability of the device or of the paper's method.
# A name used only inside the definition of one of these counts as unused.
ALLOWED_UNREFERENCED = {
    "build_maxwell": "the paper's Maxwell matrix from cell and coupling capacitances",
    "lfsr_step": "one clock of the 16-bit LFSR that the noise chain is built from",
    "stationary_state_covariance": "the exact law where the Gibbs formula fails "
                                   "(non-uniform R kappa0)",
    "stationary_voltage_covariance": "the equilibrium law every sampling run targets",
}


def exported_names():
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def definitions(tree):
    """Line spans (first, last) of the top-level definitions of a module, by name."""
    spans = {}
    for node in tree.body:
        defined = getattr(node, "name", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = next((t.id for t in targets if isinstance(t, ast.Name)), None)
        if defined is not None:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans[defined] = (first, node.end_lineno)
    return spans


def test_every_export_is_referenced_or_allowed():
    sources = [path.read_text() for folder in ("src/spusim", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py")) if path != INIT]
    assert sources
    modules = [(text, definitions(ast.parse(text))) for text in sources]

    def referenced(name):
        """Named outside its own definition and those of the allowlisted exports."""
        for text, spans in modules:
            skipped = [spans[n] for n in {name, *ALLOWED_UNREFERENCED} if n in spans]
            for match in re.finditer(rf"\b{name}\b", text):
                line = text.count("\n", 0, match.start()) + 1
                if not any(first <= line <= last for first, last in skipped):
                    return True
        return False

    unreferenced = {name for name in exported_names() if not referenced(name)}
    assert unreferenced <= set(ALLOWED_UNREFERENCED), (
        "exported but named nowhere outside its definition: "
        f"{sorted(unreferenced - set(ALLOWED_UNREFERENCED))}")
    # an allowlist entry that gains a user, or leaves the exports, goes
    assert set(ALLOWED_UNREFERENCED) <= unreferenced
