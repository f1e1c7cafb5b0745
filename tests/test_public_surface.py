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


# Defaulted parameters that no call in the package, the demos or the
# benchmark sets, each kept for a check that a test makes with another value.
ALLOWED_UNSET = {
    "langevin.stationary_voltage_covariance(method)":
        "selects the Lyapunov reference the tests compare the Gibbs formula with",
    "linalg.invert_matrix(backend)": "the digital exact-draw oracle of the inversion tests",
    "device.SpuEmulator.nominal_params(coupling)":
        "the per-record board the fault-scan oracle test compares with",
    "noise.NoiseChainConfig.matched(rc_bits)": "the RC corner that the chain-law tests vary",
    "noise.rc_filter(initial)": "its carried state is checked against scipy's lfilter",
}


def public_callables():
    """``(name, def)`` of every public function, public method and constructor
    of the package, named ``module.function`` or ``module.Class.method``."""
    for path in sorted((ROOT / "src" / "spusim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and (
                            member.name == "__init__" or not member.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{member.name}", member


def defaulted_parameters(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def program_calls() -> dict[str, list[ast.Call]]:
    """Every call in the package, the demos and the benchmark, by called name."""
    calls = {}
    for folder in ("src/spusim", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_set_by_the_program_or_allowed():
    calls = program_calls()
    unset = set()
    for qualname, fn in public_callables():
        parts = qualname.split(".")
        # a constructor is called by its class's name
        called = parts[-2] if parts[-1] == "__init__" else parts[-1]
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if len(parts) == 3 and positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        for param in defaulted_parameters(fn):
            index = positional.index(param) if param in positional else None
            if not any(any(k.arg == param for k in call.keywords)
                       or (index is not None and len(call.args) > index
                           and not any(isinstance(a, ast.Starred) for a in call.args[:index + 1]))
                       for call in calls.get(called, [])):
                unset.add(f"{qualname}({param})")
    assert unset <= set(ALLOWED_UNSET), (
        "defaulted parameters that nothing in the program sets: "
        f"{sorted(unset - set(ALLOWED_UNSET))}")
    # an allowlist entry that gains a caller, or whose parameter goes, goes
    assert set(ALLOWED_UNSET) <= unset
